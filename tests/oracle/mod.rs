//! The direct, per-flow implementations that the server table and the
//! index's columns replaced, kept only as test oracles.
//!
//! Each function is the library code as it was before per-server questions
//! were answered from [`ytcdn_core::ServerTable`] and per-session ones from
//! the index's columns: it walks every flow, probes the context per flow,
//! and fills an address-keyed map. The differential suites compare the
//! library's index-based results against these, byte for byte.

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

use ytcdn_cdnsim::World;
use ytcdn_core::as_analysis::{AsBreakdown, AsShare, WellKnownAsExt};
use ytcdn_core::constellation::{
    AffectedDc, ChangePoint, ClusterMass, WatchConfig, WatchReport, WindowStats, MAJOR_SHARE,
};
use ytcdn_core::error::{AnalysisError, AnalysisResult};
use ytcdn_core::hotspot::{ServerLoadHour, ServerSessionHour};
use ytcdn_core::index::{DatasetIndex, ServerStats};
use ytcdn_core::patterns::PatternStats;
use ytcdn_core::{AnalysisContext, Cdf, Sessions};
use ytcdn_netsim::{Endpoint, Ipv4Block, WellKnownAs};
use ytcdn_tstat::{Dataset, FlowClass, FlowClassifier, HOUR_MS};

/// What the context measured per data center: video bytes, video flows,
/// the distinct servers seen, and the RTT over the first five of them
/// (`None` when none was seen and the context falls back to the model).
#[derive(Debug, Clone, PartialEq)]
pub struct DcTraffic {
    pub video_bytes: u64,
    pub video_flows: u64,
    pub servers: BTreeSet<Ipv4Addr>,
    pub rtt_ms: Option<f64>,
}

/// The per-data-center traffic `AnalysisContext::from_map` computed with
/// one `BTreeSet` insert per flow.
pub fn context_traffic(world: &World, ctx: &AnalysisContext, dataset: &Dataset) -> Vec<DcTraffic> {
    let classifier = FlowClassifier::default();
    let mut out = vec![
        DcTraffic {
            video_bytes: 0,
            video_flows: 0,
            servers: BTreeSet::new(),
            rtt_ms: None,
        };
        ctx.dcs().len()
    ];
    for r in dataset.iter() {
        if let Some(idx) = ctx.dc_of(r) {
            out[idx].servers.insert(r.server_ip);
            if classifier.classify(r) == FlowClass::Video {
                out[idx].video_bytes += r.bytes;
                out[idx].video_flows += 1;
            }
        }
    }
    for dc in &mut out {
        let rtt = dc
            .servers
            .iter()
            .take(5)
            .filter_map(|&ip| world.ping_server(dataset.name(), ip, 10, 77))
            .map(|m| m.min_ms)
            .fold(f64::INFINITY, f64::min);
        dc.rtt_ms = rtt.is_finite().then_some(rtt);
    }
    out
}

/// The index's per-server rows and per-data-center flow and byte totals,
/// as `DatasetIndex::build` filled them with one `BTreeMap` entry per flow.
pub fn index_aggregates(
    ctx: &AnalysisContext,
    dataset: &Dataset,
) -> (Vec<ServerStats>, Vec<u64>, Vec<u64>) {
    let mut rows: BTreeMap<Ipv4Addr, ServerStats> = BTreeMap::new();
    let mut dc_flows = vec![0u64; ctx.dcs().len()];
    let mut dc_bytes = vec![0u64; ctx.dcs().len()];
    for r in dataset.iter() {
        if let Some(d) = ctx.dc_of(r) {
            dc_flows[d] += 1;
            dc_bytes[d] += r.bytes;
            let row = rows.entry(r.server_ip).or_insert(ServerStats {
                ip: r.server_ip,
                dc: d,
                flows: 0,
                bytes: 0,
            });
            row.flows += 1;
            row.bytes += r.bytes;
        }
    }
    (rows.into_values().collect(), dc_flows, dc_bytes)
}

/// Table II with one `HashSet` insert per flow.
pub fn as_breakdown(world: &World, dataset: &Dataset) -> AsBreakdown {
    let home = world.vantage(dataset.name()).home_as;
    let registry = world.topology().registry();
    let mut server_count: BTreeMap<WellKnownAs, u64> = BTreeMap::new();
    let mut bytes: BTreeMap<WellKnownAs, u64> = BTreeMap::new();
    let mut seen: HashSet<Ipv4Addr> = HashSet::new();
    let mut total_bytes = 0u64;
    for r in dataset.iter() {
        let bucket = registry.classify(r.server_ip, home);
        *bytes.entry(bucket).or_default() += r.bytes;
        total_bytes += r.bytes;
        if seen.insert(r.server_ip) {
            *server_count.entry(bucket).or_default() += 1;
        }
    }
    let total_servers = seen.len() as f64;
    let shares = WellKnownAs::buckets()
        .iter()
        .map(|&b| {
            let s = AsShare {
                servers_pct: if total_servers > 0.0 {
                    100.0 * server_count.get(&b).copied().unwrap_or(0) as f64 / total_servers
                } else {
                    0.0
                },
                bytes_pct: if total_bytes > 0 {
                    100.0 * bytes.get(&b).copied().unwrap_or(0) as f64 / total_bytes as f64
                } else {
                    0.0
                },
            };
            (b, s)
        })
        .collect();
    AsBreakdown {
        dataset: dataset.name(),
        shares,
    }
}

/// Figure 2 over the dataset's `BTreeSet` of server addresses.
pub fn server_rtt_cdf(world: &World, dataset: &Dataset, probes: u32) -> Cdf {
    let name = dataset.name();
    Cdf::from_values(
        dataset
            .server_ips()
            .into_iter()
            .filter_map(|ip| world.ping_server(name, ip, probes, 1234))
            .map(|m| m.min_ms),
    )
}

/// The placeable /24 blocks of a dataset, grouped through a `BTreeMap`.
pub fn dataset_blocks(
    world: &World,
    dataset: &Dataset,
) -> Vec<(Ipv4Block, Endpoint, Vec<Ipv4Addr>)> {
    let mut by_block: BTreeMap<Ipv4Block, (Endpoint, Vec<Ipv4Addr>)> = BTreeMap::new();
    for ip in dataset.server_ips() {
        let block = Ipv4Block::slash24_of(ip);
        if let Some(entry) = by_block.get_mut(&block) {
            entry.1.push(ip);
        } else if let Some(endpoint) = world.topology().block_endpoint(block) {
            by_block.insert(block, (endpoint, vec![ip]));
        }
    }
    by_block
        .into_iter()
        .map(|(block, (endpoint, ips))| (block, endpoint, ips))
        .collect()
}

/// Figure 15 with one `HashMap` per hour, keyed by server address.
pub fn preferred_server_load(ctx: &AnalysisContext, dataset: &Dataset) -> Vec<ServerLoadHour> {
    let last_hour = dataset
        .records()
        .iter()
        .map(|r| r.start_ms / HOUR_MS)
        .max()
        .unwrap_or(0);
    let mut per_hour: Vec<HashMap<Ipv4Addr, u64>> = vec![HashMap::new(); last_hour as usize + 1];
    let pref_idx = ctx.preferred().index;
    for r in dataset.iter() {
        if ctx.dc_of(r) != Some(pref_idx) {
            continue;
        }
        *per_hour[(r.start_ms / HOUR_MS) as usize]
            .entry(r.server_ip)
            .or_default() += 1;
    }
    let denominator = ctx.preferred().servers_seen.max(1) as f64;
    per_hour
        .into_iter()
        .map(|m| {
            let total: u64 = m.values().sum();
            let (max_server, max) = m
                .into_iter()
                .max_by_key(|&(ip, n)| (n, std::cmp::Reverse(ip)))
                .map(|(ip, n)| (Some(ip), n))
                .unwrap_or((None, 0));
            ServerLoadHour {
                avg: total as f64 / denominator,
                max,
                max_server,
            }
        })
        .collect()
}

/// The session pattern tally `DatasetIndex::classify` computes, with one
/// context probe per member flow.
///
/// Sessions touching servers outside the analysis ASes are counted in
/// `excluded`.
pub fn classify_sessions(
    ctx: &AnalysisContext,
    dataset: &Dataset,
    sessions: &Sessions,
) -> PatternStats {
    let mut stats = PatternStats::default();
    for s in sessions.iter(dataset) {
        let targets: Option<Vec<bool>> = s.flows().map(|f| ctx.is_preferred(f)).collect();
        let Some(targets) = targets else {
            stats.excluded += 1;
            continue;
        };
        stats.total += 1;
        match targets.as_slice() {
            [only] => {
                if *only {
                    stats.one_flow.preferred += 1;
                } else {
                    stats.one_flow.non_preferred += 1;
                }
            }
            [first, second] => match (first, second) {
                (true, true) => stats.two_flow.pp += 1,
                (true, false) => stats.two_flow.pn += 1,
                (false, true) => stats.two_flow.np += 1,
                (false, false) => stats.two_flow.nn += 1,
            },
            longer => {
                stats.three_plus += 1;
                if longer[0] && longer[1..].iter().any(|p| !p) {
                    stats.three_plus_first_preferred_then_non += 1;
                }
            }
        }
    }
    stats
}

/// The per-hour session breakdown at `server` that
/// `server_session_breakdown_indexed` computes, matching member flows by
/// address and probing the context per flow.
pub fn server_session_breakdown(
    ctx: &AnalysisContext,
    dataset: &Dataset,
    sessions: &Sessions,
    server: Ipv4Addr,
) -> Vec<ServerSessionHour> {
    let last_hour = sessions
        .iter(dataset)
        .map(|s| s.start_ms() / HOUR_MS)
        .max()
        .unwrap_or(0);
    let mut out = vec![ServerSessionHour::default(); last_hour as usize + 1];
    for s in sessions.iter(dataset) {
        if !s.flows().any(|f| f.server_ip == server) {
            continue;
        }
        let slot = &mut out[(s.start_ms() / HOUR_MS) as usize];
        let prefs: Option<Vec<bool>> = s.flows().map(|f| ctx.is_preferred(f)).collect();
        match prefs {
            Some(p) if p.iter().all(|&x| x) => slot.all_preferred += 1,
            Some(p) if p[0] && p[1..].iter().any(|&x| !x) => slot.first_preferred_then_non += 1,
            _ => slot.others += 1,
        }
    }
    out
}

fn slash24(ip: Ipv4Addr) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(ip) & 0xffff_ff00)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn regime_distance(cur: &BTreeMap<usize, u64>, pool: &BTreeMap<usize, u64>) -> f64 {
    let cur_total: u64 = cur.values().sum();
    let pool_total: u64 = pool.values().sum();
    if cur_total == 0 || pool_total == 0 {
        return 0.0;
    }
    let is_major = |dc: usize| {
        pool.get(&dc)
            .is_some_and(|&n| n as f64 / pool_total as f64 >= MAJOR_SHARE)
    };
    let mut d = 0.0;
    let mut cur_tail = 0.0;
    let mut pool_tail = 0.0;
    for (&dc, &n) in pool {
        let pool_share = n as f64 / pool_total as f64;
        let cur_share = cur.get(&dc).copied().unwrap_or(0) as f64 / cur_total as f64;
        if is_major(dc) {
            d += (cur_share - pool_share).abs();
        } else {
            pool_tail += pool_share;
            cur_tail += cur_share;
        }
    }
    for (&dc, &n) in cur {
        if !pool.contains_key(&dc) {
            cur_tail += n as f64 / cur_total as f64;
        }
    }
    d += (cur_tail - pool_tail).abs();
    d / 2.0
}

fn share_deltas(cur: &BTreeMap<usize, u64>, pool: &BTreeMap<usize, u64>) -> BTreeMap<usize, f64> {
    let cur_total: u64 = cur.values().sum();
    let pool_total: u64 = pool.values().sum();
    let mut deltas = BTreeMap::new();
    if cur_total == 0 || pool_total == 0 {
        return deltas;
    }
    for (&dc, &n) in cur {
        let pool_share = pool.get(&dc).copied().unwrap_or(0) as f64 / pool_total as f64;
        deltas.insert(dc, n as f64 / cur_total as f64 - pool_share);
    }
    for (&dc, &n) in pool {
        deltas.entry(dc).or_insert(-(n as f64 / pool_total as f64));
    }
    deltas
}

/// The watch report with one `BTreeMap` entry per flow for the window's
/// /24 clusters and its per-data-center flows and bytes.
pub fn watch_report(
    ctx: &AnalysisContext,
    dataset: &Dataset,
    index: &DatasetIndex,
    config: WatchConfig,
) -> AnalysisResult<WatchReport> {
    if index.is_empty() {
        return Err(AnalysisError::EmptyDataset {
            dataset: index.dataset_name().to_string(),
        });
    }
    let wh = config.window_hours.max(1);
    let hours = index.hour_ranges().len() as u64;
    let num_windows = hours.div_ceil(wh) as usize;
    let records = dataset.records();

    let mut startup: Vec<Vec<f64>> = vec![Vec::new(); num_windows];
    let mut sessions_in: Vec<u64> = vec![0; num_windows];
    for s in index.sessions().iter(dataset) {
        let w = (s.start_ms() / (wh * HOUR_MS)) as usize;
        if w >= num_windows {
            continue;
        }
        sessions_in[w] += 1;
        if let Some(&first) = s.flow_indices().first() {
            let r = &records[first as usize];
            startup[w].push((r.end_ms - r.start_ms) as f64);
        }
    }

    let mut windows: Vec<WindowStats> = Vec::with_capacity(num_windows);
    let mut change_points: Vec<ChangePoint> = Vec::new();
    let mut pool: BTreeMap<usize, u64> = BTreeMap::new();
    for w in 0..num_windows {
        let start_hour = w as u64 * wh;
        let end_hour = (start_hour + wh).min(hours);
        let flow_start = index.hour_ranges()[start_hour as usize].start;
        let flow_end = index.hour_ranges()[end_hour as usize - 1].end;

        let mut by_cluster: BTreeMap<Ipv4Addr, ClusterMass> = BTreeMap::new();
        let mut dc_flows: BTreeMap<usize, u64> = BTreeMap::new();
        let mut dc_bytes: BTreeMap<usize, u64> = BTreeMap::new();
        let mut video_flows = 0u64;
        let mut non_preferred = 0u64;
        for (i, r) in records.iter().enumerate().take(flow_end).skip(flow_start) {
            let Some(dc) = ctx.dc_of(r) else {
                continue;
            };
            let cluster = by_cluster
                .entry(slash24(r.server_ip))
                .or_insert(ClusterMass {
                    slash24: slash24(r.server_ip),
                    dc,
                    flows: 0,
                    bytes: 0,
                });
            cluster.flows += 1;
            cluster.bytes += r.bytes;
            *dc_flows.entry(dc).or_insert(0) += 1;
            *dc_bytes.entry(dc).or_insert(0) += r.bytes;
            if index.is_video_flow(i) {
                video_flows += 1;
                if dc != index.preferred_index() {
                    non_preferred += 1;
                }
            }
        }

        let analysis_flows: u64 = dc_flows.values().sum();
        let bytes: u64 = by_cluster.values().map(|c| c.bytes).sum();
        let active = analysis_flows >= config.min_flows;
        let distance = if active {
            regime_distance(&dc_flows, &pool)
        } else {
            0.0
        };
        if distance > config.threshold {
            let mut affected: Vec<AffectedDc> = share_deltas(&dc_flows, &pool)
                .into_iter()
                .filter(|&(_, d)| d.abs() >= 0.01)
                .map(|(dc, delta_share)| AffectedDc {
                    dc,
                    city: ctx.dcs()[dc].city_name.clone(),
                    delta_share,
                })
                .collect();
            affected.sort_by(|a, b| {
                b.delta_share
                    .abs()
                    .total_cmp(&a.delta_share.abs())
                    .then(a.dc.cmp(&b.dc))
            });
            affected.truncate(3);
            change_points.push(ChangePoint {
                window: w,
                hour: start_hour,
                distance,
                affected,
            });
            pool.clear();
        }
        if active {
            for (&dc, &n) in &dc_flows {
                *pool.entry(dc).or_insert(0) += n;
            }
        }

        let mut startup_sorted = std::mem::take(&mut startup[w]);
        startup_sorted.sort_by(f64::total_cmp);
        let mut dc_sorted: Vec<f64> = dc_bytes.values().map(|&b| b as f64).collect();
        dc_sorted.sort_by(f64::total_cmp);

        windows.push(WindowStats {
            window: w,
            start_hour,
            end_hour,
            flows: (flow_end - flow_start) as u64,
            sessions: sessions_in[w],
            bytes,
            startup_ms_p50: percentile(&startup_sorted, 0.50),
            startup_ms_p90: percentile(&startup_sorted, 0.90),
            startup_ms_p99: percentile(&startup_sorted, 0.99),
            non_preferred_fraction: if video_flows == 0 {
                0.0
            } else {
                non_preferred as f64 / video_flows as f64
            },
            dc_bytes_p50: percentile(&dc_sorted, 0.50),
            dc_bytes_p90: percentile(&dc_sorted, 0.90),
            dc_bytes_p99: percentile(&dc_sorted, 0.99),
            clusters: by_cluster.into_values().collect(),
            distance,
        });
    }

    Ok(WatchReport {
        dataset: index.dataset_name().to_string(),
        window_hours: wh,
        threshold: config.threshold,
        windows,
        change_points,
    })
}
