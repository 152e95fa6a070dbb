//! The `ytcdn` binary end to end: exit codes, stderr and the metrics file
//! of whole invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch path for one test's files.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn ytcdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ytcdn"))
        .args(args)
        .env("YTCDN_QUIET", "1")
        .output()
        .expect("the ytcdn binary runs")
}

/// A flow starting in the far future is a parse error naming the column,
/// with exit code 1, never an allocation sized by the timestamp (which
/// aborted the process).
#[test]
fn analyze_rejects_a_far_future_timestamp() {
    let trace = scratch("far-future.log");
    std::fs::write(
        &trace,
        format!(
            "#dataset EU2\n{}\n1.2.3.4 74.125.0.1 18000000000000000000 18000000000000000000 900 AAAAAAAAAAA 360p\n",
            ytcdn_tstat::textlog::HEADER
        ),
    )
    .expect("scratch file is writable");
    let out = ytcdn(&["analyze", "--trace", trace.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("t_start_ms"), "stderr: {stderr}");
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
}

/// `--metrics-out` and the stderr profile carry the process's peak memory
/// where `/proc/self/status` exists.
#[cfg(target_os = "linux")]
#[test]
fn metrics_report_peak_rss() {
    let metrics = scratch("peak-rss-metrics.json");
    let out = ytcdn(&[
        "repro",
        "--exp",
        "table1",
        "--scale",
        "0.004",
        "--seed",
        "7",
        "--jobs",
        "1",
        "--metrics-out",
        metrics.to_str().expect("utf-8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("process.peak_rss_mb"), "stderr: {stderr}");
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    let line = json
        .lines()
        .find(|l| l.contains("\"process.peak_rss_mb\""))
        .unwrap_or_else(|| panic!("no peak RSS gauge in {json}"));
    let mb: f64 = line
        .split(':')
        .nth(1)
        .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
        .unwrap_or_else(|| panic!("unparsable gauge line {line:?}"));
    assert!(mb > 0.0, "{line}");
}
