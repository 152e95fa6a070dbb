//! Differential harness: the dataset pool at every worker count.
//!
//! [`StandardScenario::run_all_sharded`] simulates the five datasets on up
//! to `jobs` threads. Its contract is *byte identity*: for any `jobs`, the
//! datasets, their serialized text logs and the telemetry counters equal
//! the one-thread run's. These tests pin that contract on a mutated
//! scenario at two seeds, for fewer workers than datasets, exactly one per
//! dataset, and more workers than datasets.

use ytcdn_cdnsim::{MutationSpec, ScenarioConfig, StandardScenario};
use ytcdn_telemetry::Telemetry;
use ytcdn_tstat::{Dataset, DatasetName};

/// The worker counts every differential case runs; 1 is the baseline.
const JOB_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

/// The seeds of the mutated scenario.
const SEEDS: [u64; 2] = [42, 7];

/// One mutation of each kind, so every mutated code path runs in the pool.
const MUTATIONS: [&str; 3] = [
    "cache-evict@48:0.5",
    "dc-down@72:milan",
    "prefer-flip@96:frankfurt",
];

fn mutated_scenario(seed: u64) -> StandardScenario {
    let mut s = StandardScenario::build(ScenarioConfig::with_scale(0.002, seed));
    let specs: Vec<MutationSpec> = MUTATIONS
        .iter()
        .map(|m| m.parse().expect("test mutation specs are well-formed"))
        .collect();
    s.set_mutations(&specs)
        .expect("test mutation cities exist in the standard topology");
    s
}

#[test]
fn all_datasets_identical_across_shard_counts() {
    for seed in SEEDS {
        let s = mutated_scenario(seed);
        let baseline = s.run_all_sharded(1);
        for jobs in JOB_COUNTS {
            assert_eq!(
                s.run_all_sharded(jobs),
                baseline,
                "seed={seed} jobs={jobs}: datasets differ"
            );
        }
    }
}

/// The pool returns, in Table I order, exactly what simulating each
/// dataset on its own returns, so `generate --dataset` and the
/// all-datasets path agree.
#[test]
fn identity_holds_across_seeds() {
    for seed in [0, 7, 0xDEAD_BEEF] {
        let s = StandardScenario::build(ScenarioConfig::with_scale(0.002, seed));
        let single: Vec<Dataset> = DatasetName::ALL.iter().map(|&n| s.run(n)).collect();
        for jobs in [2, 8] {
            assert_eq!(s.run_all_sharded(jobs), single, "seed={seed} jobs={jobs}");
        }
    }
}

/// "Byte-identical" literally: the serialized Tstat-text exports are the
/// same bytes, not merely structurally equal datasets.
#[test]
fn serialized_exports_are_byte_identical() {
    let text_logs = |datasets: Vec<Dataset>| -> Vec<Vec<u8>> {
        datasets
            .iter()
            .map(|ds| {
                let mut bytes = Vec::new();
                ytcdn_tstat::write_textlog(ds, &mut bytes).unwrap();
                bytes
            })
            .collect()
    };
    for seed in SEEDS {
        let s = mutated_scenario(seed);
        let baseline = text_logs(s.run_all_sharded(1));
        for jobs in JOB_COUNTS {
            let logs = text_logs(s.run_all_sharded(jobs));
            for (name, (got, want)) in DatasetName::ALL.iter().zip(logs.iter().zip(&baseline)) {
                assert!(
                    got == want,
                    "seed={seed} jobs={jobs}: {name} serialized bytes differ"
                );
            }
        }
    }
}

/// Engine counters are plain per-session sums, so they equal the
/// one-thread run's whatever thread simulated which dataset.
#[test]
fn telemetry_counters_match_sequential() {
    for seed in SEEDS {
        let snapshot = |jobs: usize| {
            let mut s = mutated_scenario(seed);
            s.set_telemetry(Telemetry::metrics_only());
            s.run_all_sharded(jobs);
            s.telemetry().metrics_snapshot().unwrap()
        };
        let seq = snapshot(1);
        for jobs in JOB_COUNTS {
            let par = snapshot(jobs);
            for counter in [
                "scenario.sessions",
                "scenario.flows",
                "engine.cache_miss",
                "engine.redirect.content_miss",
                "engine.redirect.wrong_guess",
                "engine.redirect.overload",
                "placement.replication",
            ] {
                assert_eq!(
                    par.counter(counter),
                    seq.counter(counter),
                    "seed={seed} jobs={jobs}: counter {counter} diverged"
                );
            }
            assert_eq!(
                par.histograms["engine.chain_hops"].count,
                seq.histograms["engine.chain_hops"].count,
                "seed={seed} jobs={jobs}: chain_hops count diverged"
            );
        }
    }
}
