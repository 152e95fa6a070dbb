//! Differential harness: every consumer of the per-dataset server table vs
//! the direct per-flow implementation it replaced.
//!
//! The analysis context, the index's per-server and per-data-center sums,
//! Table I, Table II, Figure 2, the geolocation blocks, the Figure 15
//! server load and the watch report are each answered from
//! [`ServerTable`] ids instead of address-keyed maps filled per flow. The
//! contract is byte identity with the oracles in `tests/oracle`, on every
//! vantage point at two seeds, on a mutated week, and on every
//! degenerate dataset shape.

mod oracle;

use std::net::Ipv4Addr;

use ytcdn_cdnsim::{MutationSpec, ScenarioConfig, StandardScenario, World};
use ytcdn_core::as_analysis::as_breakdown;
use ytcdn_core::degenerate::DegenerateShape;
use ytcdn_core::experiments::{ExperimentSuite, SuiteConfig};
use ytcdn_core::geo_analysis::{dataset_blocks, server_rtt_cdf};
use ytcdn_core::hotspot::preferred_server_load_indexed;
use ytcdn_core::{AnalysisContext, DatasetIndex, ServerTable, WatchConfig, WatchReport};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName, TrafficSummary};

const SCALE: f64 = 0.01;

/// The watch configurations compared: the default, and one-hour windows
/// with a low threshold so that many windows fire.
const WATCH_CONFIGS: [WatchConfig; 2] = [
    WatchConfig {
        window_hours: 6,
        threshold: 0.2,
        min_flows: 50,
    },
    WatchConfig {
        window_hours: 1,
        threshold: 0.05,
        min_flows: 1,
    },
];

/// Asserts that every table-based consumer equals its oracle on `ds`.
fn assert_matches_oracles(world: &World, ds: &Dataset, label: &str) {
    let servers = ServerTable::build(ds);
    let ctx = AnalysisContext::from_ground_truth(world, ds);
    assert_eq!(
        AnalysisContext::from_servers(world, ds, &servers, ytcdn_core::DcMap::from_world(world))
            .expect("ground-truth map is non-empty")
            .dcs(),
        ctx.dcs(),
        "{label}: context from a prebuilt table"
    );
    let want = oracle::context_traffic(world, &ctx, ds);
    for (dc, want) in ctx.dcs().iter().zip(&want) {
        let dc_label = format!("{label}: dc {}", dc.city_name);
        assert_eq!(dc.video_bytes, want.video_bytes, "{dc_label}: video bytes");
        assert_eq!(dc.video_flows, want.video_flows, "{dc_label}: video flows");
        assert_eq!(dc.servers_seen, want.servers.len(), "{dc_label}: servers");
        if let Some(rtt) = want.rtt_ms {
            assert_eq!(dc.rtt_ms.to_bits(), rtt.to_bits(), "{dc_label}: rtt");
        }
    }

    let index = DatasetIndex::build(&ctx, ds, Telemetry::disabled());
    assert_eq!(index.server_table(), &servers, "{label}: index table");
    let (rows, dc_flows, dc_bytes) = oracle::index_aggregates(&ctx, ds);
    assert_eq!(index.servers(), rows.as_slice(), "{label}: servers()");
    assert_eq!(index.dc_flows(), dc_flows.as_slice(), "{label}: dc_flows");
    assert_eq!(index.dc_bytes(), dc_bytes.as_slice(), "{label}: dc_bytes");
    for (i, r) in ds.iter().enumerate() {
        assert_eq!(index.dc_of_flow(i), ctx.dc_of(r), "{label}: flow {i} dc");
    }

    assert_eq!(index.summary(), TrafficSummary::of(ds), "{label}: Table I");
    assert_eq!(
        as_breakdown(world, ds.name(), &servers),
        oracle::as_breakdown(world, ds),
        "{label}: Table II"
    );
    assert_eq!(
        server_rtt_cdf(world, ds.name(), &servers, 5),
        oracle::server_rtt_cdf(world, ds, 5),
        "{label}: Figure 2"
    );
    let blocks: Vec<_> = dataset_blocks(world, &servers)
        .into_iter()
        .map(|(block, endpoint, ips)| (block, endpoint, ips.to_vec()))
        .collect();
    assert_eq!(
        blocks,
        oracle::dataset_blocks(world, ds),
        "{label}: geolocation blocks"
    );
    assert_eq!(
        preferred_server_load_indexed(&index),
        oracle::preferred_server_load(&ctx, ds),
        "{label}: Figure 15 server load"
    );
    for config in WATCH_CONFIGS {
        assert_eq!(
            WatchReport::build(&ctx, ds, &index, config),
            oracle::watch_report(&ctx, ds, &index, config),
            "{label}: watch report {config:?}"
        );
    }
}

#[test]
fn every_vantage_point_matches_the_oracles_at_two_seeds() {
    for seed in [42, 7] {
        let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, seed));
        for ds in s.run_all_sharded(2) {
            assert_matches_oracles(s.world(), &ds, &format!("{} seed {seed}", ds.name()));
        }
    }
}

#[test]
fn mutated_week_matches_the_oracles() {
    let mut s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, 42));
    let specs: Vec<MutationSpec> = [
        "cache-evict@48:0.05",
        "dc-down@72:milan",
        "prefer-flip@96:frankfurt",
    ]
    .iter()
    .map(|m| m.parse().expect("well-formed mutation spec"))
    .collect();
    s.set_mutations(&specs).expect("mutation cities exist");
    let mut changes = 0;
    for ds in s.run_all_sharded(2) {
        assert_matches_oracles(s.world(), &ds, &format!("mutated {}", ds.name()));
        let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
        let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
        let report = WatchReport::build(&ctx, &ds, &index, WatchConfig::default());
        changes += report.map_or(0, |r| r.change_points.len());
    }
    assert!(changes > 0, "the mutated week must exercise change points");
}

#[test]
fn every_degenerate_shape_matches_the_oracles() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, 42));
    let datasets = s.run_all_sharded(2);
    for shape in DegenerateShape::ALL {
        for ds in &datasets {
            let shaped = shape.apply(s.world(), ds.clone());
            let label = format!("{} {}", shape.as_str(), ds.name());
            assert_matches_oracles(s.world(), &shaped, &label);
        }
    }
}

/// The suite builds each table once, beside the context, and hands it to
/// the index: Table I read off the suite's indexes equals the direct
/// summary for every job count.
#[test]
fn suite_indexes_carry_the_dataset_tables() {
    for jobs in [1, 3] {
        let suite = ExperimentSuite::new(SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.004, 7),
            full_landmarks: false,
            jobs,
        });
        for name in DatasetName::ALL {
            let ds = suite.dataset(name);
            let index = suite.dataset_index(name);
            assert_eq!(index.server_table(), &ServerTable::build(ds), "{name}");
            assert_eq!(index.summary(), TrafficSummary::of(ds), "{name}");
            let distinct: Vec<Ipv4Addr> = ds.server_ips().into_iter().collect();
            assert_eq!(index.server_table().ips(), distinct.as_slice(), "{name}");
        }
    }
}
