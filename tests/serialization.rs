//! Dataset serialization round-trips: a trace written to disk and read back
//! yields identical analysis results — the property that lets datasets be
//! generated once and analyzed separately (as the paper's authors did with
//! their Tstat logs). Both on-disk forms are covered: the Tstat text log
//! and the columnar `.ytc` file.

mod oracle;

use ytcdn_cdnsim::{ScenarioConfig, StandardScenario};
use ytcdn_core::session::group_sessions;
use ytcdn_core::{AnalysisContext, YtcFile, YtcHeader};
use ytcdn_tstat::{read_textlog, write_textlog, Dataset, DatasetName};

fn header(scale: f64, seed: u64) -> YtcHeader {
    YtcHeader {
        scale,
        seed,
        mutations: vec![],
    }
}

/// Writes `ds` as a text log and reads it back.
fn via_textlog(ds: &Dataset) -> Dataset {
    let mut buf = Vec::new();
    write_textlog(ds, &mut buf).expect("serialize");
    read_textlog(&buf[..]).expect("deserialize")
}

/// Encodes `ds` as a one-dataset `.ytc` file and decodes it back.
fn via_ytc(ds: &Dataset) -> Dataset {
    let file = YtcFile::new(header(0.004, 3), vec![ds.clone()]).expect("encodable");
    let mut decoded = YtcFile::decode(&file.encode())
        .expect("decode")
        .into_datasets();
    assert_eq!(decoded.len(), 1);
    decoded.remove(0)
}

#[test]
fn roundtrip_preserves_analysis_in_every_format() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.004, 3));
    let ds = scenario.run(DatasetName::Eu1Campus);

    for (format, back) in [("text log", via_textlog(&ds)), (".ytc", via_ytc(&ds))] {
        assert_eq!(back, ds, "{format}");

        // Full analysis agreement, not just record equality.
        let ctx_a = AnalysisContext::from_ground_truth(scenario.world(), &ds);
        let ctx_b = AnalysisContext::from_ground_truth(scenario.world(), &back);
        assert_eq!(
            ctx_a.preferred().city_name,
            ctx_b.preferred().city_name,
            "{format}"
        );
        let sess_a = group_sessions(&ds, 1_000);
        let sess_b = group_sessions(&back, 1_000);
        assert_eq!(sess_a.len(), sess_b.len(), "{format}");
        assert_eq!(
            oracle::classify_sessions(&ctx_a, &ds, &sess_a),
            oracle::classify_sessions(&ctx_b, &back, &sess_b),
            "{format}"
        );
    }
}

#[test]
fn textlog_is_line_oriented_and_appendable() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 4));
    let ds = scenario.run(DatasetName::Eu1Ftth);
    let mut buf = Vec::new();
    write_textlog(&ds, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let (head, records) = lines.split_at(2);
    assert_eq!(
        records.len(),
        ds.len(),
        "two header lines + one line per flow"
    );
    // Every record line is standalone: under the header alone it parses
    // to exactly its flow.
    for (line, flow) in records.iter().zip(ds.records()) {
        let one =
            read_textlog(format!("{}\n{line}\n", head[0]).as_bytes()).expect("line is a record");
        assert_eq!(one.records(), std::slice::from_ref(flow));
    }
    // Truncating the file to half still parses (a partially transferred
    // trace remains usable).
    let half = lines[..lines.len() / 2].join("\n");
    let partial = read_textlog(half.as_bytes()).unwrap();
    assert_eq!(partial.len(), lines.len() / 2 - 2);
    assert_eq!(partial.records(), &ds.records()[..partial.len()]);
}

/// The latent gap: an empty dataset (what `--degenerate empty` exports)
/// must survive every serialization path, not just the populated ones.
#[test]
fn empty_dataset_roundtrips_through_every_format() {
    let empty = Dataset::new(DatasetName::Eu1Adsl);

    // Text log: the two header lines only, reads back empty.
    let mut buf = Vec::new();
    write_textlog(&empty, &mut buf).expect("serialize empty");
    let text = String::from_utf8(buf.clone()).unwrap();
    assert_eq!(text.lines().count(), 2, "header lines only");
    let back = read_textlog(&buf[..]).expect("deserialize empty");
    assert_eq!(back, empty);
    assert_eq!(back.len(), 0);

    // .ytc: a zero-flow section round-trips, hour index included.
    let file =
        YtcFile::new(header(0.001, 6), vec![empty.clone()]).expect("empty dataset is encodable");
    let decoded = YtcFile::decode(&file.encode()).expect("decode empty");
    assert_eq!(decoded.total_flows(), 0);
    let columnar = decoded.dataset(DatasetName::Eu1Adsl).expect("present");
    assert_eq!(
        columnar.hour_ranges().len(),
        1,
        "one empty hour, never zero"
    );
    assert_eq!(columnar.hour_ranges()[0], 0..0);
    assert_eq!(columnar.dataset(), &empty);

    // Analysis still degrades gracefully rather than panicking.
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 6));
    let ctx = AnalysisContext::from_ground_truth(scenario.world(), &empty);
    assert!(group_sessions(&back, 1_000).is_empty());
    assert_eq!(
        oracle::classify_sessions(&ctx, &back, &Default::default()),
        ytcdn_core::patterns::PatternStats::default()
    );
}

#[test]
fn disk_roundtrip_through_tempfile() {
    let scenario = StandardScenario::build(ScenarioConfig::with_scale(0.001, 5));
    let ds = scenario.run(DatasetName::Eu2);
    let path = std::env::temp_dir().join(format!("ytcdn_test_{}.log", std::process::id()));
    {
        let f = std::fs::File::create(&path).unwrap();
        write_textlog(&ds, std::io::BufWriter::new(f)).unwrap();
    }
    let f = std::fs::File::open(&path).unwrap();
    let back = read_textlog(std::io::BufReader::new(f)).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back, ds);
}
