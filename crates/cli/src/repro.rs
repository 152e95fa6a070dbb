//! `ytcdn repro`: regenerates every table and figure of the paper
//! (`--exp` picks some, `--from dataset.ytc` skips simulation, `--jobs K`
//! never changes a byte). Reports go to stdout; progress notes and the
//! phase profile (the metrics table every subcommand prints at exit) go to
//! stderr.

use std::io::BufReader;
use std::process::ExitCode;

use ytcdn_cdnsim::ScenarioConfig;
use ytcdn_core::experiments::{ExperimentSuite, SuiteConfig, ALL_EXPERIMENTS};
use ytcdn_core::{WatchConfig, WatchReport, YtcFile};
use ytcdn_tstat::DatasetName;

use crate::args::Repro;
use crate::{resolve_jobs, Ctx};

pub(crate) fn repro(args: Repro, ctx: &Ctx) -> ExitCode {
    let suite = match build_suite(&args, ctx) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    if args.scorecard {
        let card = ytcdn_core::scorecard::scorecard(&suite);
        println!("{}", ytcdn_core::scorecard::render_scorecard(&card));
        // Skipped (unanswerable) claims do not fail the run; wrong ones do.
        return if card.pass() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let ids: Vec<&str> = match &args.exp {
        Some(ids) => ids.iter().map(String::as_str).collect(),
        None => ALL_EXPERIMENTS.to_vec(),
    };
    // Experiments run concurrently; reports come back in input order, so
    // stdout is byte-identical to the sequential path regardless of --jobs.
    let reports = suite.run_many(&ids, suite.jobs());
    for (id, report) in ids.iter().zip(reports) {
        println!(
            "──── {id} {}",
            "─".repeat(60_usize.saturating_sub(id.len()))
        );
        match report {
            Ok(report) => {
                println!("{report}");
                if args.plot {
                    if let Ok(series) = ytcdn_core::export::figure_series(&suite, id) {
                        println!("{}", ytcdn_core::export::ascii_chart(&series, 72, 16));
                    }
                }
            }
            Err(e) => println!("SKIPPED: {e}\n"),
        }
    }

    if args.windows {
        for name in DatasetName::ALL {
            println!(
                "──── windows {name} {}",
                "─".repeat(52_usize.saturating_sub(name.as_str().len()))
            );
            let report = WatchReport::build(
                suite.context(name),
                suite.dataset(name),
                suite.dataset_index(name),
                WatchConfig::default(),
            );
            match report {
                Ok(report) => println!("{}", report.render_table()),
                Err(e) => println!("SKIPPED: {e}\n"),
            }
        }
    }

    if let Some(path) = &args.markdown {
        let md = ytcdn_core::report::markdown_report(&suite);
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        ctx.progress
            .note(&format!("wrote markdown report to {}", path.display()));
    }

    if let Some(dir) = &args.csv {
        match ytcdn_core::export::export_all(&suite, dir) {
            Ok(paths) => ctx.progress.note(&format!(
                "wrote {} CSV files to {}",
                paths.len(),
                dir.display()
            )),
            Err(e) => {
                eprintln!("CSV export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Simulates the five datasets (optionally degraded), or loads them off
/// `--from`'s columnar file, and builds the suite over them.
fn build_suite(args: &Repro, ctx: &Ctx) -> Result<ExperimentSuite, String> {
    let suite_config = |scale, seed| SuiteConfig {
        scenario: ScenarioConfig::with_scale(scale, seed),
        full_landmarks: args.full_landmarks,
        jobs: resolve_jobs(args.jobs),
    };
    let telemetry = ctx.telemetry.clone();
    let Some(path) = &args.from else {
        ctx.progress.note(&format!(
            "building world and simulating 5 datasets (scale {}, seed {})…",
            args.scale, args.seed
        ));
        let config = suite_config(args.scale, args.seed);
        return Ok(match args.degenerate {
            Some(shape) => {
                ctx.progress
                    .note(&format!("degrading every dataset to shape {shape}"));
                ExperimentSuite::with_degenerate(config, telemetry, shape)
            }
            None => ExperimentSuite::with_telemetry(config, telemetry),
        });
    };
    // The file's recorded provenance supersedes --scale/--seed: the
    // analysis world must match the world the flows were simulated in.
    let source =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let file = YtcFile::read_from(BufReader::new(source), &telemetry)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let header = &file.header;
    ctx.progress.note(&format!(
        "loaded {} flows from {} (scale {}, seed {}, {} mutation(s)); skipping simulation",
        file.total_flows(),
        path.display(),
        header.scale,
        header.seed,
        header.mutations.len()
    ));
    let config = suite_config(header.scale, header.seed);
    ExperimentSuite::from_columnar(config, telemetry, file.into_columnar_datasets())
        .map_err(|e| format!("cannot analyse {}: {e}", path.display()))
}
