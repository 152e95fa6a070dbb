//! Cross-crate property-based tests: the structural invariants every
//! analysis in the reproduction silently relies on.

use std::panic::AssertUnwindSafe;

use ytcdn_cdnsim::dns::{DnsResolver, LdnsId, LdnsPolicy};
use ytcdn_cdnsim::{ContentStore, DataCenterId, SimRng, Topology};
use ytcdn_core::session::group_sessions;
use ytcdn_geomodel::{min_rtt_ms, Coord};
use ytcdn_netsim::{AccessKind, DelayModel, Endpoint};
use ytcdn_tstat::{Dataset, DatasetName, FlowRecord, Resolution, VideoId, HOUR_MS};

/// Cases per structural property (the count these properties have always
/// run).
const CASES: u64 = 256;

/// Runs `check` on `cases` generators, one seeded stream per case; a
/// failure names its case, which reproduces it alone.
fn for_cases(property: u64, cases: u64, mut check: impl FnMut(&mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::for_stream(property, &[case]);
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| check(&mut rng)));
        if let Err(panic) = run {
            eprintln!("property stream {property}: case {case} failed");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A small universe of flows with realistic collisions (few clients, few
/// videos, clustered times) so session grouping is exercised on
/// adversarial overlaps.
fn flows(rng: &mut SimRng) -> Vec<FlowRecord> {
    (0..rng.gen_range(0usize..60))
        .map(|_| {
            let c = rng.gen_range(0u8..4);
            let vid = rng.gen_range(0u64..6);
            let start = rng.gen_range(0u64..100_000);
            let dur = rng.gen_range(1u64..30_000);
            FlowRecord {
                client_ip: std::net::Ipv4Addr::new(10, 0, 0, c),
                server_ip: std::net::Ipv4Addr::new(74, 125, 0, (vid % 256) as u8),
                start_ms: start,
                end_ms: start + dur,
                bytes: rng.gen_range(0u64..20_000_000),
                video_id: VideoId::from_index(vid),
                resolution: Resolution::R360,
            }
        })
        .collect()
}

/// Every flow belongs to exactly one session: sessions partition the
/// dataset.
#[test]
fn sessions_partition_flows() {
    for_cases(1, CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, flows(rng));
        let gap = rng.gen_range(1u64..5_000);
        let sessions = group_sessions(&ds, gap);
        let mut seen = vec![false; ds.len()];
        for flows in sessions.flow_lists() {
            for &i in flows {
                assert!(!seen[i as usize], "flow {i} in two sessions");
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some flow in no session");
    });
}

/// Sessions never mix clients or videos, and their time bounds cover
/// their member flows.
#[test]
fn sessions_are_homogeneous() {
    for_cases(2, CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, flows(rng));
        for s in group_sessions(&ds, 1_000).iter(&ds) {
            for f in s.flows() {
                assert_eq!(f.client_ip, s.client_ip());
                assert_eq!(f.video_id, s.video_id());
                assert!(f.start_ms >= s.start_ms());
                assert!(f.end_ms <= s.end_ms());
            }
        }
    });
}

/// A larger gap threshold can only merge sessions, never split them.
#[test]
fn session_count_monotone_in_gap() {
    for_cases(3, CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, flows(rng));
        let t1 = rng.gen_range(1u64..3_000);
        let extra = rng.gen_range(1u64..300_000);
        let small = group_sessions(&ds, t1).len();
        let large = group_sessions(&ds, t1 + extra).len();
        assert!(
            large <= small,
            "T={t1}: {small} sessions, T={}: {large}",
            t1 + extra
        );
    });
}

/// Within a session, consecutive flows respect the gap rule: each flow
/// starts no later than `gap` after the latest end seen so far.
#[test]
fn session_gap_rule_holds() {
    for_cases(4, CASES, |rng| {
        let ds = Dataset::from_records(DatasetName::UsCampus, flows(rng));
        let gap = rng.gen_range(1u64..5_000);
        for s in group_sessions(&ds, gap).iter(&ds) {
            let flows: Vec<_> = s.flows().collect();
            let mut max_end = flows[0].end_ms;
            for f in &flows[1..] {
                assert!(
                    f.start_ms <= max_end + gap,
                    "gap violated: start {} vs max_end {max_end} + {gap}",
                    f.start_ms
                );
                max_end = max_end.max(f.end_ms);
            }
        }
    });
}

/// The delay model never violates the speed of light, for any pair of
/// valid coordinates and access kinds.
#[test]
fn delay_respects_physics() {
    for_cases(5, CASES, |rng| {
        let mut coord =
            || Coord::new(rng.gen_range(-89.0..89.0), rng.gen_range(-179.0..179.0)).unwrap();
        let model = DelayModel::default();
        let a = Endpoint::new(coord(), AccessKind::Campus);
        let b = Endpoint::new(coord(), AccessKind::DataCenter);
        let km = a.coord.distance_km(b.coord);
        assert!(model.floor_rtt_ms(&a, &b) >= min_rtt_ms(km));
        // Symmetry.
        assert!((model.floor_rtt_ms(&a, &b) - model.floor_rtt_ms(&b, &a)).abs() < 1e-9);
    });
}

/// The DNS resolver's capacity budget is exact: within any hour, at
/// most `cap` resolutions reach the preferred data center.
#[test]
fn dns_capacity_is_a_hard_budget() {
    for_cases(6, CASES, |rng| {
        let cap = rng.gen_range(1u64..20);
        let offsets: Vec<u64> = (0..rng.gen_range(1usize..120))
            .map(|_| rng.gen_range(0u64..(3 * HOUR_MS)))
            .collect();
        let mut resolver = DnsResolver::new(vec![LdnsPolicy {
            preferred: DataCenterId(0),
            alternates: vec![DataCenterId(1)],
            noise_prob: 0.0,
            hourly_capacity: Some(cap),
        }]);
        let mut dns_rng = SimRng::seed_from_u64(1);
        let mut per_hour = std::collections::HashMap::new();
        for t in offsets {
            let d = resolver.resolve(LdnsId(0), t, &mut dns_rng);
            if d.dc == DataCenterId(0) {
                *per_hour.entry(t / HOUR_MS).or_insert(0u64) += 1;
            }
        }
        for (&hour, &n) in &per_hour {
            assert!(n <= cap, "hour {hour}: {n} > cap {cap}");
        }
    });
}

/// Content presence is monotone: replication adds availability and
/// never removes it, for arbitrary videos and data centers.
#[test]
fn replication_is_monotone() {
    let topo = Topology::standard();
    for_cases(7, CASES, |rng| {
        let mut store = ContentStore::new(Default::default(), &topo);
        let video = VideoId::from_index(rng.gen_range(0u64..2_000_000));
        let dcs: Vec<DataCenterId> = store.dcs().to_vec();
        let dc = dcs[rng.gen_range(0usize..33) % dcs.len()];
        let before: Vec<bool> = dcs.iter().map(|&d| store.has(d, video)).collect();
        store.replicate(dc, video);
        for (i, &d) in dcs.iter().enumerate() {
            let after = store.has(d, video);
            assert!(after >= before[i], "{d}: availability lost");
            if d == dc {
                assert!(after, "replication target still missing content");
            }
        }
    });
}

/// The origin invariant: every video is available somewhere, always.
/// Index 0 and `u64::MAX` run before the seeded draws.
#[test]
fn every_video_has_a_holder() {
    let topo = Topology::standard();
    let store = ContentStore::new(Default::default(), &topo);
    let mut rng = SimRng::seed_from_u64(8);
    let draws = (0..CASES).map(|_| rng.next_u64());
    for video_idx in [0, u64::MAX].into_iter().chain(draws) {
        let video = VideoId::from_index(video_idx);
        let origin = store.origin_of(video);
        assert!(store.has(origin, video), "video {video_idx}");
        assert!(store.dcs().contains(&origin), "video {video_idx}");
    }
}
