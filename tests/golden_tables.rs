//! Golden snapshots of the simulated paper tables.
//!
//! A refactor that silently changes the simulation — an extra RNG draw in
//! the session path, a reordered branch in the redirection engine, a tweak
//! to the workload model — shifts every downstream table. The differential
//! harness (`tests/sharding_differential.rs`) cannot catch that: it compares
//! the dataset pool at one worker count against another, and both drift
//! together.
//! These tests pin absolute values instead, at a scale small enough to keep
//! the fixtures readable (`scale = 0.01`, seed 42).
//!
//! ## What is pinned, and why only this
//!
//! Per dataset: the simulated session count and Table I row (flows, distinct
//! servers, distinct clients), the data-center ranking by video bytes (top
//! three city names), and the preferred data center. Every pinned value is
//! produced by the simulation's own `SimRng` streams. RTT measurements draw
//! measurement noise instead (`World::ping_server`), so RTTs are
//! deliberately not pinned: the goldens stay a statement about the
//! simulation alone. The preferred-DC pick falls back to an RTT comparison
//! only when two centers both carry ≥15% of bytes (EU2); that comparison is
//! between different cities whose propagation floors are far apart, so the
//! pick does not hinge on the noise values.
//!
//! ## Update procedure
//!
//! If your change *intentionally* alters the simulation, re-baseline:
//!
//! ```text
//! cargo test --test golden_tables -- --ignored --nocapture print_golden_values
//! ```
//!
//! then paste the printed `GOLDEN` table over the one below. State in the PR
//! description why the simulation changed; an unexplained golden diff is the
//! red flag these tests exist to raise.

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::experiments::{ExperimentSuite, SuiteConfig};
use ytcdn_core::AnalysisContext;
use ytcdn_tstat::DatasetName;

/// Scale of the golden runs: large enough that every dataset exercises DNS
/// load balancing and pull-through, small enough to stay fast and legible.
const SCALE: f64 = 0.01;
/// Master seed of the golden runs.
const SEED: u64 = 42;

/// One dataset's pinned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    name: DatasetName,
    /// Sessions simulated (ground-truth outcome, not a flow-side estimate).
    sessions: u64,
    /// Table I: YouTube flow count.
    flows: usize,
    /// Table I: distinct content-server IPs.
    servers: usize,
    /// Table I: distinct client IPs.
    clients: usize,
    /// Data centers ranked by video bytes served, top three city names.
    dc_ranking: [&'static str; 3],
    /// The preferred data center's city.
    preferred: &'static str,
}

const GOLDEN: [Golden; 5] = [
    Golden {
        name: DatasetName::UsCampus,
        sessions: 6628,
        flows: 8819,
        servers: 595,
        clients: 5117,
        dc_ranking: ["Atlanta", "Lenoir", "Council Bluffs"],
        preferred: "Atlanta",
    },
    Golden {
        name: DatasetName::Eu1Campus,
        sessions: 1022,
        flows: 1349,
        servers: 233,
        clients: 592,
        dc_ranking: ["Milan", "Frankfurt", "Zurich"],
        preferred: "Milan",
    },
    Golden {
        name: DatasetName::Eu1Adsl,
        sessions: 6660,
        flows: 8771,
        servers: 691,
        clients: 4000,
        dc_ranking: ["Milan", "Zurich", "Frankfurt"],
        preferred: "Milan",
    },
    Golden {
        name: DatasetName::Eu1Ftth,
        sessions: 706,
        flows: 908,
        servers: 197,
        clients: 462,
        dc_ranking: ["Milan", "Zurich", "Frankfurt"],
        preferred: "Milan",
    },
    Golden {
        name: DatasetName::Eu2,
        sessions: 3880,
        flows: 4997,
        servers: 639,
        clients: 2623,
        dc_ranking: ["Paris", "Madrid", "Milan"],
        preferred: "Madrid",
    },
];

/// Runs the golden scenario and measures one dataset.
fn measure(s: &StandardScenario, name: DatasetName) -> (u64, usize, usize, usize, Vec<String>) {
    let (dataset, outcome) = s.run_with_outcome(name);
    let summary = dataset.summary();
    let ctx = AnalysisContext::from_ground_truth(s.world(), &dataset);
    let mut ranked: Vec<_> = ctx.dcs().to_vec();
    ranked.sort_by_key(|d| (std::cmp::Reverse(d.video_bytes), d.index));
    let mut cities: Vec<String> = ranked.iter().take(3).map(|d| d.city_name.clone()).collect();
    cities.push(ctx.preferred().city_name.clone());
    (
        outcome.sessions,
        summary.flows,
        summary.servers,
        summary.clients,
        cities,
    )
}

#[test]
fn table1_counts_and_preferred_dcs_match_golden() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, SEED));
    for g in &GOLDEN {
        let (sessions, flows, servers, clients, cities) = measure(&s, g.name);
        let got = (sessions, flows, servers, clients);
        let want = (g.sessions, g.flows, g.servers, g.clients);
        assert_eq!(
            got, want,
            "{}: counts drifted from golden — if intentional, follow the \
             update procedure in tests/golden_tables.rs",
            g.name
        );
        let want_cities: Vec<&str> = g
            .dc_ranking
            .iter()
            .copied()
            .chain(std::iter::once(g.preferred))
            .collect();
        assert_eq!(
            cities, want_cities,
            "{}: DC ranking / preferred DC drifted from golden — if \
             intentional, follow the update procedure in tests/golden_tables.rs",
            g.name
        );
    }
}

/// The Figure 5 report (flows per session across the `T` sweep, US-Campus)
/// at the golden scale and seed. Session counts read only the simulated
/// flow records, so, like the table above, the text does not depend on
/// measurement noise.
const FIG5_GOLDEN: &str = concat!(
    "Figure 5 — flows/session vs T, US-Campus (paper: T <= 10 s similar; pick T = 1 s)\n",
    "T[s]       sessions single-flow frac\n",
    "1              7018            0.787\n",
    "5              7014            0.786\n",
    "10             7006            0.785\n",
    "60             6926            0.774\n",
    "300            6628            0.728\n",
);

/// The Figure 6 report (flows per session at `T` = 1 s, every dataset) at
/// the golden scale and seed.
const FIG6_GOLDEN: &str = concat!(
    "Figure 6 — flows/session at T=1s (paper: 72.5-80.5% single-flow)\n",
    "Dataset       sessions   =1 flow  =2 flows  >2 flows\n",
    "US-Campus         7018     0.787     0.170     0.043\n",
    "EU1-Campus        1085     0.802     0.153     0.045\n",
    "EU1-ADSL          7017     0.792     0.167     0.041\n",
    "EU1-FTTH           744     0.823     0.134     0.043\n",
    "EU2               4073     0.819     0.136     0.046\n",
);

#[test]
fn session_figure_reports_match_golden() {
    let suite = ExperimentSuite::new(SuiteConfig {
        scenario: ScenarioConfig::with_scale(SCALE, SEED),
        full_landmarks: false,
        jobs: 1,
    });
    assert_eq!(
        suite.fig5(),
        FIG5_GOLDEN,
        "fig5 drifted from golden — print it with `repro --exp fig5 --scale 0.01 --seed 42`"
    );
    assert_eq!(
        suite.fig6(),
        FIG6_GOLDEN,
        "fig6 drifted from golden — print it with `repro --exp fig6 --scale 0.01 --seed 42`"
    );
}

/// Regeneration helper — see the update procedure in the module docs.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_golden_values() {
    let s = StandardScenario::build(ScenarioConfig::with_scale(SCALE, SEED));
    println!("const GOLDEN: [Golden; 5] = [");
    for name in DatasetName::ALL {
        let (sessions, flows, servers, clients, cities) = measure(&s, name);
        println!("    Golden {{");
        println!("        name: DatasetName::{name:?},");
        println!("        sessions: {sessions},");
        println!("        flows: {flows},");
        println!("        servers: {servers},");
        println!("        clients: {clients},");
        println!(
            "        dc_ranking: [\"{}\", \"{}\", \"{}\"],",
            cities[0], cities[1], cities[2]
        );
        println!("        preferred: \"{}\",", cities[3]);
        println!("    }},");
    }
    println!("];");
}
