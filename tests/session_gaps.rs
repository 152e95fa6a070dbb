//! Seeded adversarial property loop: the session-gap columns behind the
//! analysis index against the direct session grouper.
//!
//! Sessions at a threshold `T` split where a flow starts more than `T`
//! after the running max end of its (client, video) group. The cases here
//! are built around exactly the inputs that rule can get wrong: flows
//! wholly inside an earlier flow, equal start times, a start exactly at
//! `max_end + T` (same session) and one past it (split), zero-duration
//! flows, `T = 0`, and one-flow groups. Sessions and counts from the
//! columns must equal `group_sessions` in every case.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ytcdn_cdnsim::SimRng;
use ytcdn_core::index::{SessionCounts, SessionGaps};
use ytcdn_core::session::{group_sessions, Sessions};
use ytcdn_tstat::{Dataset, DatasetName, FlowRecord, Resolution, VideoId};

/// Session counts a direct grouping implies.
fn direct_counts(sessions: &Sessions) -> SessionCounts {
    SessionCounts {
        sessions: sessions.len(),
        one_flow: sessions.flow_lists().filter(|f| f.len() == 1).count(),
        two_flow: sessions.flow_lists().filter(|f| f.len() == 2).count(),
    }
}

/// Which adversarial shapes the generated cases contained.
#[derive(Debug, Default)]
struct Coverage {
    contained: usize,
    equal_start: usize,
    at_gap: usize,
    past_gap: usize,
    zero_duration: usize,
    zero_gap: usize,
    single_flow_groups: usize,
}

/// One adversarial dataset and the threshold it was built around: a
/// few (client, video) groups whose flows are placed relative to the
/// running max end — inside an earlier flow, at the same start, at
/// exactly `max_end + T`, one past it, or anywhere later.
fn adversarial_case(rng: &mut SimRng) -> (Dataset, u64) {
    let gap_ms = match rng.gen_range(0u64..4) {
        0 => 0,
        1 => rng.gen_range(1u64..4),
        _ => rng.gen_range(4u64..3_000),
    };
    let mut records = Vec::new();
    for _ in 0..rng.gen_range(1u64..6) {
        let client = Ipv4Addr::new(10, 0, 0, rng.gen_range(1u8..4));
        let video = VideoId::from_index(rng.gen_range(0u64..3));
        let mut start = rng.gen_range(0u64..20_000);
        let mut max_end = start;
        for k in 0..rng.gen_range(1u64..9) {
            if k > 0 {
                start = match rng.gen_range(0u8..5) {
                    0 => rng.gen_range(start..max_end + 1),
                    1 => start,
                    2 => max_end + gap_ms,
                    3 => max_end + gap_ms + 1,
                    _ => start + rng.gen_range(0u64..3 * gap_ms + 10),
                };
            }
            let end = match rng.gen_range(0u8..4) {
                0 => start,
                1 if max_end > start => rng.gen_range(start..max_end),
                _ => start + rng.gen_range(0u64..4_000),
            };
            max_end = max_end.max(end);
            records.push(FlowRecord {
                client_ip: client,
                server_ip: Ipv4Addr::new(74, 125, 0, 1),
                start_ms: start,
                end_ms: end,
                bytes: 1_000,
                video_id: video,
                resolution: Resolution::R360,
            });
        }
    }
    (
        Dataset::from_records(DatasetName::UsCampus, records),
        gap_ms,
    )
}

/// Tallies the shapes `ds` holds at threshold `gap_ms`, by a direct
/// per-group scan in dataset order.
fn tally(ds: &Dataset, gap_ms: u64, coverage: &mut Coverage) {
    let mut groups: BTreeMap<(Ipv4Addr, u64), (u64, u64, usize)> = BTreeMap::new();
    for r in ds.records() {
        coverage.zero_duration += usize::from(r.start_ms == r.end_ms);
        match groups.get_mut(&(r.client_ip, r.video_id.index())) {
            Some((last_start, max_end, len)) => {
                coverage.contained += usize::from(r.end_ms < *max_end);
                coverage.equal_start += usize::from(r.start_ms == *last_start);
                coverage.at_gap += usize::from(r.start_ms == *max_end + gap_ms);
                coverage.past_gap += usize::from(r.start_ms == *max_end + gap_ms + 1);
                *last_start = r.start_ms;
                *max_end = (*max_end).max(r.end_ms);
                *len += 1;
            }
            None => {
                groups.insert((r.client_ip, r.video_id.index()), (r.start_ms, r.end_ms, 1));
            }
        }
    }
    coverage.single_flow_groups += groups.values().filter(|g| g.2 == 1).count();
    coverage.zero_gap += usize::from(gap_ms == 0);
}

#[test]
fn gap_columns_match_direct_grouping_on_adversarial_cases() {
    let mut rng = SimRng::seed_from_u64(0x5E55_1045);
    let mut coverage = Coverage::default();
    for case in 0..256 {
        let (ds, gap_ms) = adversarial_case(&mut rng);
        tally(&ds, gap_ms, &mut coverage);
        let gaps = SessionGaps::build(&ds);
        for t in [0, gap_ms.saturating_sub(1), gap_ms, gap_ms + 1, u64::MAX] {
            let direct = group_sessions(&ds, t);
            assert_eq!(gaps.sessions(&ds, t), direct, "case {case}, T = {t}");
            assert_eq!(
                gaps.counts(t),
                direct_counts(&direct),
                "case {case}, T = {t}"
            );
        }
    }
    for (shape, seen) in [
        ("contained", coverage.contained),
        ("equal start", coverage.equal_start),
        ("start == max_end + T", coverage.at_gap),
        ("start == max_end + T + 1", coverage.past_gap),
        ("zero duration", coverage.zero_duration),
        ("T = 0", coverage.zero_gap),
        ("single-flow group", coverage.single_flow_groups),
    ] {
        assert!(seen > 0, "no case covered {shape}: {coverage:?}");
    }
}
