//! Differential harness: the columnar analysis index vs the direct path.
//!
//! The [`DatasetIndex`] contract mirrors the dataset pool's: byte
//! identity. The index's sessions and session counts must equal the
//! direct grouping's for any suite `jobs`, every `*_indexed` analysis
//! must equal its direct counterpart, and the whole experiment suite must
//! emit byte-identical reports whether built and run with one thread or
//! many.

mod oracle;

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::columnar::{YtcFile, YtcHeader};
use ytcdn_core::experiments::{
    ExperimentSuite, SuiteConfig, ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS,
};
use ytcdn_core::hotspot::{
    preferred_server_load_indexed, server_session_breakdown_indexed, top_nonpreferred_videos,
    top_nonpreferred_videos_indexed,
};
use ytcdn_core::index::{DatasetIndex, SessionCounts, DEFAULT_GAP_MS};
use ytcdn_core::scorecard::{render_scorecard, scorecard};
use ytcdn_core::session::{group_sessions, Sessions};
use ytcdn_core::timeseries::{hourly_samples, hourly_samples_indexed};
use ytcdn_core::videos::{nonpreferred_video_stats, nonpreferred_video_stats_indexed};
use ytcdn_core::AnalysisContext;
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName};

/// The worker counts every differential case runs: the degenerate 1, even
/// splits, a count that does not divide anything evenly, and far more
/// workers than this container has cores.
const JOB_COUNTS: [usize; 5] = [1, 2, 4, 7, 16];

/// The (scale, seed) pairs the per-dataset cases cover.
const CASES: [(f64, u64); 2] = [(0.004, 2), (0.008, 55)];

fn scenario(scale: f64, seed: u64) -> StandardScenario {
    StandardScenario::build(ScenarioConfig::with_scale(scale, seed))
}

/// The gap thresholds the session differential covers: the edges around
/// the default `T`, the Figure 5 sweep's range, and one past `u32` ms.
const GAPS_MS: [u64; 9] = [0, 1, 999, 1_000, 1_001, 5_000, 60_000, 300_000, 1 << 32];

/// Session counts a direct grouping implies.
fn direct_counts(sessions: &Sessions) -> SessionCounts {
    SessionCounts {
        sessions: sessions.len(),
        one_flow: sessions.flow_lists().filter(|f| f.len() == 1).count(),
        two_flow: sessions.flow_lists().filter(|f| f.len() == 2).count(),
    }
}

#[test]
fn index_sessions_and_counts_match_direct_across_job_counts() {
    for (scale, seed) in CASES {
        let direct: Vec<(Sessions, Vec<SessionCounts>)> = {
            let s = scenario(scale, seed);
            DatasetName::ALL
                .iter()
                .map(|&name| {
                    let ds = s.run(name);
                    let counts = GAPS_MS
                        .iter()
                        .map(|&gap| direct_counts(&group_sessions(&ds, gap)))
                        .collect();
                    (group_sessions(&ds, DEFAULT_GAP_MS), counts)
                })
                .collect()
        };
        for jobs in JOB_COUNTS {
            let suite = ExperimentSuite::new(SuiteConfig {
                scenario: ScenarioConfig::with_scale(scale, seed),
                full_landmarks: false,
                jobs,
            });
            for (name, (sessions, counts)) in DatasetName::ALL.iter().zip(&direct) {
                let index = suite.dataset_index(*name);
                let label = format!("{name} jobs={jobs} scale={scale} seed={seed}");
                assert_eq!(index.sessions(), sessions, "{label}: sessions");
                for (&gap, want) in GAPS_MS.iter().zip(counts) {
                    assert_eq!(
                        index.session_counts(gap),
                        *want,
                        "{label}: counts at T={gap}"
                    );
                }
            }
        }
    }
}

#[test]
fn index_matches_direct_analyses() {
    for (scale, seed) in CASES {
        let s = scenario(scale, seed);
        for name in [DatasetName::Eu1Adsl, DatasetName::Eu2] {
            let ds = s.run(name);
            let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
            let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
            let label = format!("{name} scale={scale} seed={seed}");

            let sessions = group_sessions(&ds, DEFAULT_GAP_MS);
            assert_eq!(index.sessions(), &sessions, "{label}: sessions");
            assert_eq!(
                index.patterns(),
                oracle::classify_sessions(&ctx, &ds, &sessions),
                "{label}: patterns"
            );
            assert_eq!(
                hourly_samples_indexed(&index),
                hourly_samples(&ctx, &ds),
                "{label}: hourly samples"
            );
            assert_eq!(
                nonpreferred_video_stats_indexed(&index, &ds),
                nonpreferred_video_stats(&ctx, &ds),
                "{label}: video stats"
            );
            let load = oracle::preferred_server_load(&ctx, &ds);
            assert_eq!(
                preferred_server_load_indexed(&index),
                load,
                "{label}: server load"
            );
            assert_eq!(
                top_nonpreferred_videos_indexed(&index, &ds, 4),
                top_nonpreferred_videos(&ctx, &ds, 4),
                "{label}: top videos"
            );
            if let Some(hot) = load.iter().max_by_key(|h| h.max).and_then(|h| h.max_server) {
                assert_eq!(
                    server_session_breakdown_indexed(&index, hot),
                    oracle::server_session_breakdown(&ctx, &ds, &sessions, hot),
                    "{label}: server breakdown"
                );
            }
        }
    }
}

/// The dataset the hot-spot unit tests use (scale 0.015, seed 3,
/// EU1-ADSL): the breakdown at the hottest preferred server and the
/// session patterns equal the per-flow oracles there too.
#[test]
fn hot_server_breakdown_matches_oracle() {
    let s = scenario(0.015, 3);
    let ds = s.run(DatasetName::Eu1Adsl);
    let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
    let index = DatasetIndex::build(&ctx, &ds, Telemetry::disabled());
    let sessions = group_sessions(&ds, DEFAULT_GAP_MS);
    assert_eq!(index.sessions(), &sessions);
    assert_eq!(
        index.patterns(),
        oracle::classify_sessions(&ctx, &ds, &sessions)
    );
    let load = preferred_server_load_indexed(&index);
    let hot = load
        .iter()
        .max_by(|a, b| a.max.cmp(&b.max))
        .and_then(|h| h.max_server)
        .expect("some server saw load");
    assert_eq!(
        server_session_breakdown_indexed(&index, hot),
        oracle::server_session_breakdown(&ctx, &ds, &sessions, hot)
    );
}

#[test]
fn empty_dataset_index_matches_direct() {
    let s = scenario(0.004, 2);
    let ds = s.run(DatasetName::UsCampus);
    let ctx = AnalysisContext::from_ground_truth(s.world(), &ds);
    let empty = Dataset::new(DatasetName::UsCampus);
    let index = DatasetIndex::build(&ctx, &empty, Telemetry::disabled());
    assert!(index.sessions().is_empty());
    assert_eq!(
        index.patterns(),
        oracle::classify_sessions(&ctx, &empty, &group_sessions(&empty, DEFAULT_GAP_MS))
    );
    assert_eq!(hourly_samples_indexed(&index), hourly_samples(&ctx, &empty));
}

/// The acceptance criterion: every experiment's report is byte-identical
/// between a single-threaded suite and a many-threaded one, whether the
/// experiments themselves run via `run` or concurrently via `run_many`.
#[test]
fn suite_reports_identical_sequential_vs_parallel() {
    for (scale, seed) in [(0.003, 7), (0.004, 2)] {
        let config = |jobs| SuiteConfig {
            scenario: ScenarioConfig::with_scale(scale, seed),
            full_landmarks: false,
            jobs,
        };
        let sequential = ExperimentSuite::new(config(1));
        let parallel = ExperimentSuite::new(config(4));
        let ids: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(EXTENSION_EXPERIMENTS)
            .copied()
            .collect();
        let seq_reports: Vec<Result<String, ytcdn_core::AnalysisError>> =
            ids.iter().map(|id| sequential.run(id)).collect();
        assert_eq!(
            parallel.run_many(&ids, parallel.jobs()),
            seq_reports,
            "scale={scale} seed={seed}: parallel suite reports differ"
        );
        // Session lists and classifications behind the reports also match.
        for name in DatasetName::ALL {
            assert_eq!(
                parallel.dataset_index(name).sessions(),
                sequential.dataset_index(name).sessions(),
                "{name}: sessions differ"
            );
            assert_eq!(
                parallel.dataset_index(name).patterns(),
                sequential.dataset_index(name).patterns(),
                "{name}: patterns differ"
            );
        }
    }
}

/// The `.ytc` acceptance criterion: a suite rebuilt from decoded columnar
/// datasets (`repro --from dataset.ytc`) emits the full report set and
/// scorecard byte-identical to the simulate-in-memory path, single- and
/// multi-threaded alike.
#[test]
fn suite_from_ytc_matches_in_memory() {
    for (scale, seed) in [(0.003, 7), (0.004, 2)] {
        // What `ytcdn generate --out dataset.ytc` writes...
        let s = scenario(scale, seed);
        let file = YtcFile::new(
            YtcHeader {
                scale,
                seed,
                mutations: vec![],
            },
            s.run_all_sharded(1),
        )
        .expect("full scenario output is encodable");
        // ...round-tripped through the wire form, exactly as `--from` sees it.
        let decoded = YtcFile::decode(&file.encode()).expect("own encode decodes");

        let config = |jobs| SuiteConfig {
            scenario: ScenarioConfig::with_scale(scale, seed),
            full_landmarks: false,
            jobs,
        };
        let in_memory = ExperimentSuite::new(config(1));
        let ids: Vec<&str> = ALL_EXPERIMENTS
            .iter()
            .chain(EXTENSION_EXPERIMENTS)
            .copied()
            .collect();
        let want_reports: Vec<Result<String, ytcdn_core::AnalysisError>> =
            ids.iter().map(|id| in_memory.run(id)).collect();
        let want_card = render_scorecard(&scorecard(&in_memory));

        for jobs in [1, 4] {
            let from_ytc = ExperimentSuite::from_columnar(
                config(jobs),
                Telemetry::disabled(),
                decoded.clone().into_columnar_datasets(),
            )
            .expect("five datasets decoded from the file");
            assert_eq!(
                from_ytc.run_many(&ids, jobs),
                want_reports,
                "scale={scale} seed={seed} jobs={jobs}: reports from .ytc differ"
            );
            assert_eq!(
                render_scorecard(&scorecard(&from_ytc)),
                want_card,
                "scale={scale} seed={seed} jobs={jobs}: scorecard from .ytc differs"
            );
        }
    }
}

/// A `.ytc` file missing a vantage point is a typed analysis error, not a
/// panic, when fed to the suite.
#[test]
fn suite_from_partial_ytc_is_a_typed_error() {
    let s = scenario(0.003, 7);
    let file = YtcFile::new(
        YtcHeader {
            scale: 0.003,
            seed: 7,
            mutations: vec![],
        },
        vec![s.run(DatasetName::Eu2)],
    )
    .expect("a single dataset is encodable");
    let result = ExperimentSuite::from_columnar(
        SuiteConfig {
            scenario: ScenarioConfig::with_scale(0.003, 7),
            full_landmarks: false,
            jobs: 1,
        },
        Telemetry::disabled(),
        file.into_columnar_datasets(),
    );
    match result {
        Ok(_) => panic!("a partial .ytc must not build a suite"),
        Err(err) => assert!(
            matches!(err, ytcdn_core::AnalysisError::MissingDataset { ref dataset } if dataset == "US-Campus"),
            "got {err}"
        ),
    }
}
