//! The shared columnar analysis index — built once per dataset, answering
//! every per-figure question without re-deriving state.
//!
//! Before this layer, each experiment independently re-ran
//! `group_sessions` + `classify_sessions` and re-probed the
//! [`AnalysisContext`]'s `/24 → data center` map per flow. A
//! [`DatasetIndex`] holds the dataset's [`ServerTable`] (a server id per
//! flow) and probes the map once per distinct server, so a flow's data
//! center is two array reads. It keeps a `Vec<bool>` of video flags,
//! bins the (start-time-sorted) records into per-hour index ranges,
//! sums per-server and per-data-center traffic from the table's
//! per-server totals, and derives every session question from two
//! per-flow gap columns (see [`SessionGaps`]): the default-gap sessions
//! (one flat [`Sessions`] store) and their classification once at build
//! time, and session counts at any gap threshold on demand.
//!
//! Determinism note: every collection here is a `Vec` or `BTreeMap`
//! (lint rule `DET003` applies to this module), so iteration order — and
//! therefore anything derived from the index — is reproducible.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;

use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, TrafficSummary, VideoId, HOUR_MS};

use crate::dcmap::AnalysisContext;
use crate::patterns::PatternStats;
use crate::servers::ServerTable;
use crate::session::Sessions;

/// The paper's session gap threshold `T` = 1 s, in milliseconds — the gap
/// the index pre-groups sessions at.
pub const DEFAULT_GAP_MS: u64 = 1_000;

/// Per-server traffic aggregate over one dataset (analysis servers only),
/// rows sorted by server address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// The server address.
    pub ip: Ipv4Addr,
    /// Index of the data center the server belongs to.
    pub dc: usize,
    /// Flows the server answered (control flows included).
    pub flows: u64,
    /// Bytes the server sent.
    pub bytes: u64,
}

/// Session counts at one gap threshold — what Figures 5 and 6 read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Sessions.
    pub sessions: usize,
    /// Sessions of exactly one flow.
    pub one_flow: usize,
    /// Sessions of exactly two flows.
    pub two_flow: usize,
}

impl SessionCounts {
    /// Fraction of sessions with one flow (0.0 without sessions) — the
    /// same bits as [`crate::stats::Cdf::fraction_at_or_below`]`(1.0)` over
    /// the flows-per-session CDF.
    pub fn one_flow_fraction(&self) -> f64 {
        self.fraction(self.one_flow)
    }

    /// Fraction of sessions with at most two flows — the same bits as the
    /// CDF's `fraction_at_or_below(2.0)`.
    pub fn at_most_two_fraction(&self) -> f64 {
        self.fraction(self.one_flow + self.two_flow)
    }

    fn fraction(&self, count: usize) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            count as f64 / self.sessions as f64
        }
    }
}

/// The gap column's value for a (client, video) group's first flow: it
/// starts a session at every threshold.
const GROUP_START: u64 = u64::MAX;

/// The `next` column's value for a group's last flow.
const NO_NEXT: u32 = u32::MAX;

/// The two per-flow columns every session question derives from.
///
/// The paper's sessions (§VI-A) are the flows of one (client, video)
/// group, split wherever a flow starts more than `T` after the latest end
/// of the session so far. Within a group that latest end is the running
/// max end of *all* earlier flows of the group: a flow that splits starts
/// after every earlier end plus `T`, and so does every later flow, so the
/// ends before a split can never decide a later comparison. The split
/// test of flow `i` at any `T` is therefore `gap[i] > T` for one number
/// per flow, and the whole Figure 5 sweep reads one column.
#[derive(Debug)]
pub struct SessionGaps {
    /// Per flow: its start minus the running max end of the earlier flows
    /// of its group, 0 when it starts before that end; [`GROUP_START`] for
    /// a group's first flow.
    gap: Vec<u64>,
    /// Per flow: the index of the next flow of its group, [`NO_NEXT`] for
    /// the last.
    next: Vec<u32>,
    /// Distinct clients: the keys sort client-major, so each client is one
    /// run of keys.
    clients: usize,
}

impl SessionGaps {
    /// Sorts `(client, video, flow index)` keys, then fills both columns in
    /// one scan. Records are sorted by start time, so within a group the
    /// keys run in start order.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has `u32::MAX` records or more.
    pub fn build(dataset: &Dataset) -> Self {
        let records = dataset.records();
        let n = records.len();
        assert!(
            n < NO_NEXT as usize,
            "flow indices must fit the u32 next column"
        );
        let mut keys: Vec<(u32, u64, u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (u32::from(r.client_ip), r.video_id.index(), i as u32))
            .collect();
        keys.sort_unstable();
        let mut gap = vec![GROUP_START; n];
        let mut next = vec![NO_NEXT; n];
        let mut max_end = 0u64;
        let mut clients = 0usize;
        let mut prev: Option<(u32, u64, u32)> = None;
        for &(client, video, i) in &keys {
            let r = &records[i as usize];
            match prev {
                Some((c, v, p)) if (c, v) == (client, video) => {
                    next[p as usize] = i;
                    gap[i as usize] = r.start_ms.saturating_sub(max_end);
                    max_end = max_end.max(r.end_ms);
                }
                _ => max_end = r.end_ms,
            }
            clients += usize::from(prev.is_none_or(|(c, _, _)| c != client));
            prev = Some((client, video, i));
        }
        Self { gap, next, clients }
    }

    /// The threshold the gap column is compared against. The direct
    /// grouper joins flow `i` when `start ≤ max_end + T` (saturating), which
    /// is exactly `gap[i] ≤ T`. `T` saturates at `u64::MAX - 1` so the
    /// [`GROUP_START`] sentinel stays above it; the one input this rounds
    /// is a flow starting at `u64::MAX` ms after group flows that all ended
    /// at 0 ms, at `T = u64::MAX`.
    fn threshold(gap_ms: u64) -> u64 {
        gap_ms.min(GROUP_START - 1)
    }

    /// The first flow of every session at threshold `t`, in flow order.
    fn heads(&self, t: u64) -> impl Iterator<Item = usize> + '_ {
        self.gap
            .iter()
            .enumerate()
            .filter(move |&(_, &gap)| gap > t)
            .map(|(i, _)| i)
    }

    /// The flows of the session starting at `head`, in flow order.
    fn members(&self, head: usize, t: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(head), move |&i| {
            let j = self.next[i];
            (j != NO_NEXT && self.gap[j as usize] <= t).then_some(j as usize)
        })
    }

    /// Flows per session at `gap_ms`, sessions in order of their first
    /// flow.
    pub fn sizes(&self, gap_ms: u64) -> impl Iterator<Item = usize> + '_ {
        let t = Self::threshold(gap_ms);
        self.heads(t).map(move |head| self.members(head, t).count())
    }

    /// Session counts at `gap_ms`, without allocating.
    pub fn counts(&self, gap_ms: u64) -> SessionCounts {
        let mut counts = SessionCounts::default();
        for size in self.sizes(gap_ms) {
            counts.sessions += 1;
            counts.one_flow += usize::from(size == 1);
            counts.two_flow += usize::from(size == 2);
        }
        counts
    }

    /// The sessions at `gap_ms` in canonical order — equal to
    /// [`crate::session::group_sessions`] over the same dataset.
    ///
    /// Written straight into the flat store: one pass collects each
    /// session's first flow and end, and since records are sorted by start
    /// time those heads are already in canonical order except within runs
    /// of equal starts, which are sorted in place. No allocation is made
    /// per session.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` is not the dataset the columns were built from.
    pub fn sessions(&self, dataset: &Dataset, gap_ms: u64) -> Sessions {
        let records = dataset.records();
        let t = Self::threshold(gap_ms);
        let count = self.heads(t).count();
        let mut heads: Vec<u32> = Vec::with_capacity(count);
        let mut ends: Vec<u64> = Vec::with_capacity(count);
        for head in self.heads(t) {
            heads.push(head as u32);
            ends.push(
                self.members(head, t)
                    .map(|i| records[i].end_ms)
                    .fold(0, u64::max),
            );
        }

        // Break start ties by (end, client, video), one run at a time.
        let start_of = |h: u32| records[h as usize].start_ms;
        let mut tied: Vec<(u64, Ipv4Addr, VideoId, u32)> = Vec::new();
        let mut run = 0;
        while run < heads.len() {
            let start = start_of(heads[run]);
            let len = heads[run..]
                .iter()
                .take_while(|&&h| start_of(h) == start)
                .count();
            if len > 1 {
                tied.clear();
                tied.extend(
                    heads[run..run + len]
                        .iter()
                        .zip(&ends[run..])
                        .map(|(&h, &end)| {
                            let r = &records[h as usize];
                            (end, r.client_ip, r.video_id, h)
                        }),
                );
                tied.sort_unstable();
                for (k, &(end, _, _, h)) in tied.iter().enumerate() {
                    heads[run + k] = h;
                    ends[run + k] = end;
                }
            }
            run += len;
        }
        debug_assert!(heads.windows(2).all(|w| start_of(w[0]) <= start_of(w[1])));

        Sessions::from_keys(heads, ends, records.len(), |head| {
            self.members(head as usize, t).map(|i| i as u32)
        })
    }
}

/// The columnar index over one dataset.
///
/// Built once per dataset; every accessor is a read. Session questions at
/// any threshold (the Figure 5 `T`-sweep) are answered from the gap
/// columns.
#[derive(Debug)]
pub struct DatasetIndex {
    dataset_name: DatasetName,
    preferred: usize,
    preferred_servers_seen: usize,
    /// The distinct servers and each flow's server id (4 bytes/flow),
    /// shared with the suite that built it alongside the context.
    servers: Arc<ServerTable>,
    /// Per server id: the analysis data-center index, `None` outside the
    /// analysis ASes.
    server_dc: Vec<Option<u32>>,
    /// Per flow: whether the classifier calls it a video flow.
    flow_video: Vec<bool>,
    /// Per hour since trace start: the record-index range starting in it.
    hour_ranges: Vec<Range<usize>>,
    /// Per analysis server, sorted by address.
    server_rows: Vec<ServerStats>,
    /// Per data center: all analysis flows answered (control included).
    dc_flows: Vec<u64>,
    /// Per data center: all analysis bytes sent.
    dc_bytes: Vec<u64>,
    gaps: SessionGaps,
    sessions: Sessions,
    patterns: PatternStats,
}

impl DatasetIndex {
    /// Builds the index: the dataset's [`ServerTable`], one pass over the
    /// records for the video column, per-server and per-data-center sums
    /// from the table, one sort for the gap columns, and the default-gap
    /// sessions walked off them.
    ///
    /// # Panics
    ///
    /// Panics if `dataset`'s records are not sorted by start time (the
    /// dataset invariant every producer in this workspace upholds), or if
    /// `ctx` was built from a different dataset.
    pub fn build(ctx: &AnalysisContext, dataset: &Dataset, telemetry: Telemetry) -> Self {
        let servers = Arc::new(ServerTable::build(dataset));
        Self::with_servers(ctx, dataset, servers, None, telemetry)
    }

    /// Builds the index from decoded `.ytc` columns, reusing the hour
    /// index that came off disk instead of re-scanning the timestamps —
    /// output-identical to [`DatasetIndex::build`] over the same records
    /// (the decoder already cross-validated the ranges against the
    /// timestamp column).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was built from a different dataset.
    pub fn from_columnar(
        ctx: &AnalysisContext,
        columnar: &crate::columnar::ColumnarDataset,
        telemetry: Telemetry,
    ) -> Self {
        let dataset = columnar.dataset();
        let hours = Some(columnar.hour_ranges());
        let servers = Arc::new(ServerTable::build(dataset));
        Self::with_servers(ctx, dataset, servers, hours, telemetry)
    }

    /// [`DatasetIndex::build`] over the dataset's already built server
    /// table, taking the per-hour ranges as given when they are `Some` (a
    /// `.ytc` load validated them against the records).
    pub(crate) fn with_servers(
        ctx: &AnalysisContext,
        dataset: &Dataset,
        servers: Arc<ServerTable>,
        precomputed_hours: Option<&[Range<usize>]>,
        telemetry: Telemetry,
    ) -> Self {
        let span = telemetry.span("index.build");
        let records = dataset.records();
        let n = records.len();
        debug_assert_eq!(servers.flow_servers().len(), n, "table of another dataset");

        let flow_video: Vec<bool> = records.iter().map(|r| ctx.is_video(r)).collect();
        let server_dc: Vec<Option<u32>> = servers
            .ips()
            .iter()
            .map(|&ip| ctx.dc_of_server(ip).map(|d| d as u32))
            .collect();
        let mut server_rows = Vec::new();
        let mut dc_flows = vec![0u64; ctx.dcs().len()];
        let mut dc_bytes = vec![0u64; ctx.dcs().len()];
        for (s, &dc) in server_dc.iter().enumerate() {
            if let Some(d) = dc {
                let row = ServerStats {
                    ip: servers.ips()[s],
                    dc: d as usize,
                    flows: servers.flows()[s],
                    bytes: servers.bytes()[s],
                };
                dc_flows[row.dc] += row.flows;
                dc_bytes[row.dc] += row.bytes;
                server_rows.push(row);
            }
        }

        // Records are sorted by start time, so each hour is one contiguous
        // index range; an empty dataset still gets its hour-0 range so the
        // hourly analyses keep their "at least one sample" shape. A `.ytc`
        // load hands the ranges in pre-validated, skipping the scan.
        let hour_ranges = match precomputed_hours {
            Some(ranges) => ranges.to_vec(),
            None => {
                let hours = records
                    .iter()
                    .map(|r| r.start_ms / HOUR_MS)
                    .max()
                    .unwrap_or(0)
                    + 1;
                let mut hour_ranges: Vec<Range<usize>> = Vec::with_capacity(hours as usize);
                let mut pos = 0usize;
                for h in 0..hours {
                    let start = pos;
                    while pos < n && records[pos].start_ms / HOUR_MS == h {
                        pos += 1;
                    }
                    hour_ranges.push(start..pos);
                }
                assert_eq!(pos, n, "dataset records must be sorted by start time");
                hour_ranges
            }
        };

        let gaps = SessionGaps::build(dataset);
        let sessions = gaps.sessions(dataset, DEFAULT_GAP_MS);
        telemetry.counter("index.flows").add(n as u64);
        telemetry
            .counter("index.sessions")
            .add(sessions.len() as u64);

        let mut index = Self {
            dataset_name: dataset.name(),
            preferred: ctx.preferred().index,
            preferred_servers_seen: ctx.preferred().servers_seen,
            servers,
            server_dc,
            flow_video,
            hour_ranges,
            server_rows,
            dc_flows,
            dc_bytes,
            gaps,
            sessions,
            patterns: PatternStats::default(),
        };
        index.patterns = index.classify(&index.sessions);
        drop(span);
        index
    }

    /// The dataset this index describes.
    pub fn dataset_name(&self) -> DatasetName {
        self.dataset_name
    }

    /// Number of flows indexed.
    pub fn len(&self) -> usize {
        self.flow_video.len()
    }

    /// Whether the dataset was empty.
    pub fn is_empty(&self) -> bool {
        self.flow_video.is_empty()
    }

    /// The Table I row: flows, bytes, distinct servers and distinct
    /// clients — equal to [`TrafficSummary::of`] over the dataset.
    pub fn summary(&self) -> TrafficSummary {
        TrafficSummary {
            dataset: self.dataset_name,
            flows: self.len(),
            bytes: self.servers.bytes().iter().sum(),
            servers: self.servers.len(),
            clients: self.gaps.clients,
        }
    }

    /// The dataset's distinct servers and per-flow server ids.
    pub fn server_table(&self) -> &ServerTable {
        &self.servers
    }

    /// The data-center index of server id `s`, `None` outside the analysis
    /// ASes.
    pub fn dc_of_server(&self, s: usize) -> Option<usize> {
        self.server_dc[s].map(|d| d as usize)
    }

    /// The sessions at the paper's default gap (`T` = 1 s), in canonical
    /// order.
    pub fn sessions(&self) -> &Sessions {
        &self.sessions
    }

    /// Session counts at gap threshold `gap_ms` — the counts of
    /// [`crate::session::group_sessions`] at the same threshold, read off
    /// the gap columns without allocating.
    pub fn session_counts(&self, gap_ms: u64) -> SessionCounts {
        self.gaps.counts(gap_ms)
    }

    /// Flows per session at gap threshold `gap_ms`, sessions in order of
    /// their first flow — the multiset
    /// [`crate::session::flows_per_session`] builds its CDF from.
    pub fn session_sizes(&self, gap_ms: u64) -> impl Iterator<Item = usize> + '_ {
        self.gaps.sizes(gap_ms)
    }

    /// The default-gap sessions' pattern classification (Figures 6/10).
    pub fn patterns(&self) -> PatternStats {
        self.patterns
    }

    /// Index of the preferred data center.
    pub fn preferred_index(&self) -> usize {
        self.preferred
    }

    /// Distinct servers seen at the preferred data center.
    pub fn preferred_servers_seen(&self) -> usize {
        self.preferred_servers_seen
    }

    /// The data-center index serving flow `i`, `None` outside the analysis
    /// ASes — the columnar equivalent of [`AnalysisContext::dc_of`].
    pub fn dc_of_flow(&self, i: usize) -> Option<usize> {
        self.dc_of_server(self.servers.server_of_flow(i))
    }

    /// Whether flow `i` went to the preferred data center — the columnar
    /// equivalent of [`AnalysisContext::is_preferred`].
    pub fn is_preferred_flow(&self, i: usize) -> Option<bool> {
        self.dc_of_flow(i).map(|d| d == self.preferred)
    }

    /// Whether flow `i` is a video flow.
    pub fn is_video_flow(&self, i: usize) -> bool {
        self.flow_video[i]
    }

    /// Per-hour record-index ranges; `ranges()[h]` are the flows starting
    /// in hour `h`. Always at least one (possibly empty) range.
    pub fn hour_ranges(&self) -> &[Range<usize>] {
        &self.hour_ranges
    }

    /// Per-server traffic aggregates, sorted by server address.
    pub fn servers(&self) -> &[ServerStats] {
        &self.server_rows
    }

    /// Per-data-center flow counts (all analysis flows, control included),
    /// indexed like [`AnalysisContext::dcs`].
    pub fn dc_flows(&self) -> &[u64] {
        &self.dc_flows
    }

    /// Per-data-center byte totals (all analysis flows), indexed like
    /// [`AnalysisContext::dcs`].
    pub fn dc_bytes(&self) -> &[u64] {
        &self.dc_bytes
    }

    /// Classifies arbitrary sessions of this dataset against the columns.
    ///
    /// Sessions touching servers outside the analysis ASes (legacy
    /// YouTube-EU, third-party) are counted in `excluded`, mirroring the
    /// paper's Section IV filter.
    pub fn classify(&self, sessions: &Sessions) -> PatternStats {
        let mut stats = PatternStats::default();
        let mut targets: Vec<bool> = Vec::new();
        for flows in sessions.flow_lists() {
            targets.clear();
            let mut excluded = false;
            for &i in flows {
                match self.is_preferred_flow(i as usize) {
                    Some(p) => targets.push(p),
                    None => {
                        excluded = true;
                        break;
                    }
                }
            }
            if excluded {
                stats.excluded += 1;
                continue;
            }
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
}

/// The shared geolocation index: every /24 server block observed by *any*
/// dataset, CBG-localized exactly once.
///
/// Before this layer, `table3` and `fig3` each re-ran a full
/// [`crate::geo_analysis::geolocate_servers`] pass over all five datasets
/// — ten dataset-passes for two reports. Because a block's CBG outcome is
/// a pure function of `(world, cbg, seed, block)` (its noise comes from a
/// per-block splittable stream and its target is the block's canonical
/// endpoint), the index localizes the *union* of blocks once and
/// reassembles each dataset's view from the shared results —
/// byte-identical to what a standalone per-dataset pass computes.
///
/// Built lazily by [`crate::experiments::ExperimentSuite::geo_index`] under
/// a `geo.localize` telemetry span, with the union size on the
/// `geo.blocks` counter.
#[derive(Debug)]
pub struct GeoIndex {
    /// Per dataset, in [`DatasetName::ALL`] order: its servers' locations,
    /// exactly as `geolocate_servers` would report them.
    per_dataset: Vec<Vec<crate::geo_analysis::ServerLocation>>,
}

impl GeoIndex {
    /// Localizes the union of all datasets' server blocks (in parallel
    /// across `jobs` threads) and splits the results back per dataset.
    ///
    /// `indexes` must be the suite's five dataset indexes in
    /// [`DatasetName::ALL`] order — the same invariant the experiment
    /// suite's own vectors uphold. Each dataset's blocks are the /24 runs
    /// of its [`ServerTable`].
    pub fn build(
        world: &ytcdn_cdnsim::World,
        indexes: &[DatasetIndex],
        cbg: &ytcdn_geoloc::Cbg,
        seed: u64,
        jobs: usize,
        telemetry: Telemetry,
    ) -> Self {
        use crate::geo_analysis::{dataset_blocks, localize_blocks};
        debug_assert!(indexes
            .iter()
            .zip(DatasetName::ALL)
            .all(|(index, name)| index.dataset_name() == name));
        let _span = telemetry.span("geo.localize");
        let per_ds_blocks: Vec<_> = indexes
            .iter()
            .map(|index| dataset_blocks(world, index.server_table()))
            .collect();
        let union: BTreeMap<ytcdn_netsim::Ipv4Block, ytcdn_netsim::Endpoint> = per_ds_blocks
            .iter()
            .flatten()
            .map(|&(block, endpoint, _)| (block, endpoint))
            .collect();
        let targets: Vec<_> = union.into_iter().collect();
        telemetry.counter("geo.blocks").add(targets.len() as u64);
        let located = localize_blocks(cbg, seed, &targets, jobs);
        let by_block: BTreeMap<_, _> = located.iter().map(|loc| (loc.block, loc)).collect();
        let per_dataset = per_ds_blocks
            .iter()
            .map(|blocks| {
                blocks
                    .iter()
                    .filter_map(|(block, _, ips)| {
                        // Every dataset block is in the union by
                        // construction; filter_map only keeps the path
                        // panic-free.
                        by_block
                            .get(block)
                            .map(|loc| crate::geo_analysis::block_to_server_location(loc, ips))
                    })
                    .collect()
            })
            .collect();
        Self { per_dataset }
    }

    /// One dataset's server locations — what `geolocate_servers` over that
    /// dataset (same cbg/seed) returns, served from the shared pass.
    pub fn dataset(&self, name: DatasetName) -> &[crate::geo_analysis::ServerLocation] {
        let slot = match name {
            DatasetName::UsCampus => 0,
            DatasetName::Eu1Campus => 1,
            DatasetName::Eu1Adsl => 2,
            DatasetName::Eu1Ftth => 3,
            DatasetName::Eu2 => 4,
        };
        &self.per_dataset[slot]
    }

    /// All five datasets' locations concatenated in [`DatasetName::ALL`]
    /// order — the pooled view `fig3` and the CSV export consume (a block
    /// seen by several datasets appears once per dataset, mirroring the
    /// historical pooled pass).
    pub fn pooled(&self) -> Vec<crate::geo_analysis::ServerLocation> {
        self.per_dataset.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::group_sessions;
    use crate::stats::Cdf;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};

    fn setup(name: DatasetName) -> (Dataset, AnalysisContext) {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.008, 55));
        let ds = s.run(name);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        (ds, ctx)
    }

    #[test]
    fn columns_match_context_probes() {
        let (ds, ctx) = setup(DatasetName::Eu1Adsl);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        assert_eq!(index.len(), ds.len());
        for (i, r) in ds.iter().enumerate() {
            assert_eq!(index.dc_of_flow(i), ctx.dc_of(r));
            assert_eq!(index.is_preferred_flow(i), ctx.is_preferred(r));
            assert_eq!(index.is_video_flow(i), ctx.is_video(r));
        }
        assert_eq!(index.preferred_index(), ctx.preferred().index);
        assert_eq!(index.preferred_servers_seen(), ctx.preferred().servers_seen);
    }

    #[test]
    fn sessions_and_patterns_match_direct_path() {
        let (ds, ctx) = setup(DatasetName::Eu2);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let direct = group_sessions(&ds, DEFAULT_GAP_MS);
        assert_eq!(index.sessions(), &direct);
        // The differential suite holds the patterns against the per-flow
        // oracle on this same dataset.
        assert_eq!(index.patterns(), index.classify(&direct));
    }

    #[test]
    fn hour_ranges_partition_the_trace() {
        let (ds, ctx) = setup(DatasetName::UsCampus);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let mut covered = 0usize;
        for (h, range) in index.hour_ranges().iter().enumerate() {
            assert_eq!(range.start, covered, "hour {h} not contiguous");
            for i in range.clone() {
                assert_eq!(ds.records()[i].start_ms / HOUR_MS, h as u64);
            }
            covered = range.end;
        }
        assert_eq!(covered, ds.len());
    }

    #[test]
    fn aggregates_are_consistent() {
        let (ds, ctx) = setup(DatasetName::Eu1Ftth);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let analysis_flows = ds.iter().filter(|r| ctx.dc_of(r).is_some()).count() as u64;
        assert_eq!(index.dc_flows().iter().sum::<u64>(), analysis_flows);
        assert_eq!(
            index.servers().iter().map(|s| s.flows).sum::<u64>(),
            analysis_flows
        );
        assert_eq!(
            index.dc_bytes().iter().sum::<u64>(),
            index.servers().iter().map(|s| s.bytes).sum::<u64>()
        );
        // Rows sorted by address, each assigned to the DC the map gives.
        assert!(index.servers().windows(2).all(|w| w[0].ip < w[1].ip));
        for row in index.servers() {
            let rec = ds.iter().find(|r| r.server_ip == row.ip).expect("seen");
            assert_eq!(Some(row.dc), ctx.dc_of(rec));
        }
    }

    #[test]
    fn gap_sweep_matches_direct_grouping() {
        let (ds, ctx) = setup(DatasetName::Eu1Campus);
        let telemetry = Telemetry::metrics_only();
        let index = DatasetIndex::build(&ctx, &ds, telemetry.clone());
        for gap_ms in [0, 1, 999, 1_000, 1_001, 5_000, 60_000, 300_000, 1 << 32] {
            let direct = group_sessions(&ds, gap_ms);
            let cdf = crate::session::flows_per_session(&ds, gap_ms);
            let counts = index.session_counts(gap_ms);
            assert_eq!(index.gaps.sessions(&ds, gap_ms), direct, "gap {gap_ms}");
            assert_eq!(counts.sessions, direct.len(), "gap {gap_ms}");
            assert_eq!(
                Cdf::from_values(index.session_sizes(gap_ms).map(|n| n as f64)),
                cdf,
                "gap {gap_ms}"
            );
            // Fractions are bit-identical to the CDF's, which fig5/fig6
            // printed before they read counts.
            assert_eq!(
                counts.one_flow_fraction().to_bits(),
                cdf.fraction_at_or_below(1.0).to_bits()
            );
            assert_eq!(
                counts.at_most_two_fraction().to_bits(),
                cdf.fraction_at_or_below(2.0).to_bits()
            );
        }
        let snap = telemetry.metrics_snapshot().expect("metrics enabled");
        assert_eq!(
            snap.counters["index.sessions"],
            index.sessions().len() as u64
        );
        assert_eq!(snap.histograms["index.build"].count, 1);
    }

    #[test]
    fn from_columnar_matches_build() {
        let (ds, ctx) = setup(DatasetName::Eu1Ftth);
        let built = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let columnar =
            crate::columnar::ColumnarDataset::from_dataset(ds.clone()).expect("well-formed");
        let from_ytc = DatasetIndex::from_columnar(&ctx, &columnar, Telemetry::disabled());
        assert_eq!(from_ytc.hour_ranges(), built.hour_ranges());
        assert_eq!(from_ytc.sessions(), built.sessions());
        assert_eq!(from_ytc.patterns(), built.patterns());
        assert_eq!(from_ytc.servers(), built.servers());
        assert_eq!(from_ytc.dc_flows(), built.dc_flows());
        assert_eq!(from_ytc.dc_bytes(), built.dc_bytes());
        for i in 0..ds.len() {
            assert_eq!(from_ytc.dc_of_flow(i), built.dc_of_flow(i));
            assert_eq!(from_ytc.is_video_flow(i), built.is_video_flow(i));
        }
    }

    #[test]
    fn empty_dataset_index() {
        let (_, ctx) = setup(DatasetName::Eu1Adsl);
        let empty = Dataset::new(DatasetName::Eu1Adsl);
        let index = DatasetIndex::build(&ctx, &empty, Telemetry::disabled());
        assert!(index.is_empty());
        assert!(index.sessions().is_empty());
        assert_eq!(index.patterns(), PatternStats::default());
        assert_eq!(index.hour_ranges(), std::slice::from_ref(&(0..0)));
        assert!(index.servers().is_empty());
    }
}
