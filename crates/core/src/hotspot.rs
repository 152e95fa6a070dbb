//! Hot-spot and per-server load analyses (Figures 14, 15, 16).
//!
//! Section VII-C traces the four videos with the most non-preferred
//! accesses (all "video of the day" flash crowds), shows that the maximum
//! per-server load in the preferred data center spikes far above the
//! average exactly then, and that the affected server's sessions switch
//! from all-preferred to (preferred → non-preferred) redirection patterns.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use ytcdn_tstat::{Dataset, VideoId, HOUR_MS};

use crate::dcmap::AnalysisContext;
use crate::index::DatasetIndex;
use crate::videos::{per_video_counts, per_video_counts_indexed, VideoCounts};

/// The `k` videos with the highest number of non-preferred accesses
/// (the paper's Figure 14 selects the top 4), most-redirected first.
pub fn top_nonpreferred_videos(
    ctx: &AnalysisContext,
    dataset: &Dataset,
    k: usize,
) -> Vec<(VideoId, u64)> {
    rank_nonpreferred(per_video_counts(ctx, dataset), k)
}

/// [`top_nonpreferred_videos`] answered from the columnar index.
pub fn top_nonpreferred_videos_indexed(
    index: &DatasetIndex,
    dataset: &Dataset,
    k: usize,
) -> Vec<(VideoId, u64)> {
    rank_nonpreferred(per_video_counts_indexed(index, dataset), k)
}

/// Ranks per-video counts by non-preferred accesses; ties broken by video
/// id, so the result is independent of the counts map's iteration order.
fn rank_nonpreferred(counts: HashMap<VideoId, VideoCounts>, k: usize) -> Vec<(VideoId, u64)> {
    let mut v: Vec<(VideoId, u64)> = counts
        .into_iter()
        .map(|(id, c)| (id, c.non_preferred))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(k);
    v
}

/// One hour of a single video's request series (a Figure 14 panel point).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VideoHour {
    /// All analysis video flows for the video this hour.
    pub all: u64,
    /// Those served by non-preferred data centers.
    pub non_preferred: u64,
}

/// Hourly request series for one video over the whole trace.
pub fn video_timeseries(
    ctx: &AnalysisContext,
    dataset: &Dataset,
    video: VideoId,
) -> Vec<VideoHour> {
    let last_hour = dataset
        .records()
        .iter()
        .map(|r| r.start_ms / HOUR_MS)
        .max()
        .unwrap_or(0);
    let mut out = vec![VideoHour::default(); last_hour as usize + 1];
    for r in dataset.iter() {
        if r.video_id != video || !ctx.is_video(r) {
            continue;
        }
        let Some(pref) = ctx.is_preferred(r) else {
            continue;
        };
        let h = &mut out[(r.start_ms / HOUR_MS) as usize];
        h.all += 1;
        if !pref {
            h.non_preferred += 1;
        }
    }
    out
}

/// [`video_timeseries`] answered from the columnar index.
pub fn video_timeseries_indexed(
    index: &DatasetIndex,
    dataset: &Dataset,
    video: VideoId,
) -> Vec<VideoHour> {
    let records = dataset.records();
    index
        .hour_ranges()
        .iter()
        .map(|range| {
            let mut h = VideoHour::default();
            for i in range.clone() {
                if records[i].video_id != video || !index.is_video_flow(i) {
                    continue;
                }
                let Some(pref) = index.is_preferred_flow(i) else {
                    continue;
                };
                h.all += 1;
                if !pref {
                    h.non_preferred += 1;
                }
            }
            h
        })
        .collect()
}

/// One hour of preferred-data-center per-server load (a Figure 15 point).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerLoadHour {
    /// Mean requests per (seen) server of the preferred data center.
    pub avg: f64,
    /// Maximum requests at a single server.
    pub max: u64,
    /// The server carrying the maximum.
    pub max_server: Option<Ipv4Addr>,
}

/// Hourly average and maximum per-server request load in the preferred data
/// center, read off the index's per-flow server ids. "Requests" counts
/// every flow a server answers — control flows included, since a
/// redirecting server still served the request. The busiest server wins
/// ties by lowest address: ids ascend with the address, so the key
/// `(n, Reverse(id))` orders servers exactly as `(n, Reverse(ip))` does.
pub fn preferred_server_load_indexed(index: &DatasetIndex) -> Vec<ServerLoadHour> {
    let pref_idx = index.preferred_index();
    let denominator = index.preferred_servers_seen().max(1) as f64;
    let servers = index.server_table();
    let mut counts = vec![0u64; servers.len()];
    let mut out = Vec::with_capacity(index.hour_ranges().len());
    for range in index.hour_ranges() {
        counts.fill(0);
        let mut total = 0u64;
        for &s in &servers.flow_servers()[range.clone()] {
            if index.dc_of_server(s as usize) == Some(pref_idx) {
                counts[s as usize] += 1;
                total += 1;
            }
        }
        let (max_server, max) = counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .max_by_key(|&(s, &n)| (n, Reverse(s)))
            .map(|(s, &n)| (Some(servers.ips()[s]), n))
            .unwrap_or((None, 0));
        out.push(ServerLoadHour {
            avg: total as f64 / denominator,
            max,
            max_server,
        });
    }
    out
}

/// Hourly session-pattern breakdown at one server (Figure 16).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSessionHour {
    /// Sessions touching the server whose flows all went to the preferred
    /// data center.
    pub all_preferred: u64,
    /// Sessions whose first flow hit the preferred data center but a later
    /// flow did not — the redirection signature.
    pub first_preferred_then_non: u64,
    /// Everything else.
    pub others: u64,
}

impl ServerSessionHour {
    /// Total sessions in the hour.
    pub fn total(&self) -> u64 {
        self.all_preferred + self.first_preferred_then_non + self.others
    }
}

/// Bins the index's default-gap sessions that touch `server` by start hour
/// and pattern, with per-flow servers and targets read from the columns.
/// A session's start hour is its first flow's, read off the hour ranges.
pub fn server_session_breakdown_indexed(
    index: &DatasetIndex,
    server: Ipv4Addr,
) -> Vec<ServerSessionHour> {
    let servers = index.server_table();
    let server = servers.id_of(server);
    let sessions = index.sessions();
    let hours = index.hour_ranges();
    let hour_of = |flows: &[u32]| hours.partition_point(|r| r.end <= flows[0] as usize);
    // Sessions run in start order, so the last one starts latest.
    let last_hour = sessions.flow_lists().next_back().map_or(0, hour_of);
    let mut out = vec![ServerSessionHour::default(); last_hour + 1];
    for flows in sessions.flow_lists() {
        if !flows
            .iter()
            .any(|&i| Some(servers.server_of_flow(i as usize)) == server)
        {
            continue;
        }
        let slot = &mut out[hour_of(flows)];
        let prefs: Option<Vec<bool>> = flows
            .iter()
            .map(|&i| index.is_preferred_flow(i as usize))
            .collect();
        match prefs {
            Some(p) if p.iter().all(|&x| x) => slot.all_preferred += 1,
            Some(p) if p[0] && p[1..].iter().any(|&x| !x) => slot.first_preferred_then_non += 1,
            _ => slot.others += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
    use ytcdn_tstat::DatasetName;

    fn setup() -> (StandardScenario, Dataset, AnalysisContext) {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.015, 3));
        let ds = s.run(DatasetName::Eu1Adsl);
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        (s, ds, ctx)
    }

    #[test]
    fn top_videos_are_the_flash_crowds() {
        let (s, ds, ctx) = setup();
        let top = top_nonpreferred_videos(&ctx, &ds, 4);
        assert_eq!(top.len(), 4);
        // The promoted (video-of-the-day) catalog entries should dominate.
        let votd: Vec<u64> = s
            .world()
            .catalog()
            .votd()
            .windows()
            .iter()
            .map(|w| w.video.index())
            .collect();
        let hits = top
            .iter()
            .filter(|(v, _)| votd.contains(&v.index()))
            .count();
        assert!(hits >= 2, "only {hits} of top-4 are VotD: {top:?}");
        // Ordered by count.
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn top_video_series_spikes_in_its_window() {
        let (s, ds, ctx) = setup();
        let top = top_nonpreferred_videos(&ctx, &ds, 1);
        let video = top[0].0;
        let series = video_timeseries(&ctx, &ds, video);
        // Find the VotD window for this video if it is one.
        if let Some(w) = s
            .world()
            .catalog()
            .votd()
            .windows()
            .iter()
            .find(|w| w.video == video)
        {
            let inside: u64 = series
                .iter()
                .enumerate()
                .filter(|(h, _)| {
                    (*h as u64) * HOUR_MS >= w.start_ms && (*h as u64) * HOUR_MS < w.end_ms
                })
                .map(|(_, v)| v.all)
                .sum();
            let outside: u64 = series.iter().map(|v| v.all).sum::<u64>() - inside;
            assert!(
                inside > outside * 3,
                "spike not confined: inside {inside} outside {outside}"
            );
        }
        // Non-preferred never exceeds total.
        assert!(series.iter().all(|v| v.non_preferred <= v.all));
    }

    #[test]
    fn max_server_load_spikes_above_average() {
        let (_, ds, ctx) = setup();
        let index = DatasetIndex::build(&ctx, &ds, ytcdn_telemetry::Telemetry::disabled());
        let load = preferred_server_load_indexed(&index);
        let peak_ratio = load
            .iter()
            .filter(|h| h.avg > 0.5)
            .map(|h| h.max as f64 / h.avg)
            .fold(0.0f64, f64::max);
        // Figure 15: the peak server load is far above the mean (650 vs 50
        // in the paper).
        assert!(peak_ratio > 3.0, "peak/avg ratio {peak_ratio}");
    }

    #[test]
    fn hot_server_sessions_shift_to_redirection() {
        let (_, ds, ctx) = setup();
        let index = DatasetIndex::build(&ctx, &ds, ytcdn_telemetry::Telemetry::disabled());
        let load = preferred_server_load_indexed(&index);
        let hot = load
            .iter()
            .max_by(|a, b| a.max.cmp(&b.max))
            .and_then(|h| h.max_server)
            .expect("some server saw load");
        let breakdown = server_session_breakdown_indexed(&index, hot);
        let redirected: u64 = breakdown.iter().map(|h| h.first_preferred_then_non).sum();
        let total: u64 = breakdown.iter().map(|h| h.total()).sum();
        assert!(total > 0);
        assert!(
            redirected > 0,
            "hot server shows no redirection: {breakdown:?}"
        );
    }

    #[test]
    fn indexed_variants_match_direct() {
        let (_, ds, ctx) = setup();
        let index = DatasetIndex::build(&ctx, &ds, ytcdn_telemetry::Telemetry::disabled());
        let top = top_nonpreferred_videos(&ctx, &ds, 4);
        assert_eq!(top_nonpreferred_videos_indexed(&index, &ds, 4), top);
        assert_eq!(
            video_timeseries_indexed(&index, &ds, top[0].0),
            video_timeseries(&ctx, &ds, top[0].0)
        );
        // The server-load and session-breakdown oracles live with the
        // differential suites, which compare them on this same dataset.
    }

    #[test]
    fn empty_video_series() {
        let (_, ds, ctx) = setup();
        // A video that never appears: all-zero series.
        let series = video_timeseries(&ctx, &ds, VideoId::from_index(u64::MAX - 1));
        assert!(series.iter().all(|v| v.all == 0 && v.non_preferred == 0));
    }
}
