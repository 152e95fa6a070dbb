//! The Tstat-style column-oriented text log format.
//!
//! Real Tstat writes flow logs as whitespace-separated columns with a `#`
//! header line — the format the paper's week-long datasets were stored in.
//! This module reads and writes that representation:
//!
//! ```text
//! #client_ip server_ip t_start_ms t_end_ms bytes video_id resolution
//! 128.210.12.7 74.125.0.33 18744 19411 612 dQw4w9WgXcQ 360p
//! ```
//!
//! It is the workspace's human-readable trace format: lossless (every
//! [`FlowRecord`] field round-trips), line-oriented for awk/gnuplot-style
//! tooling, and auditable by eye. The compact binary form is the columnar
//! `.ytc` file of `ytcdn-core`.

use std::fmt;
use std::io::{BufRead, Write};

use crate::dataset::{Dataset, DatasetName};
use crate::flow::{FlowRecord, Resolution, VideoId};

/// The header line written before the columns.
pub const HEADER: &str = "#client_ip server_ip t_start_ms t_end_ms bytes video_id resolution";

/// The latest `t_start_ms`/`t_end_ms` a log may hold: one leap year after
/// the trace start. Times are relative to the start of the capture (the
/// paper's traces span a week), and the analyses size their per-hour
/// tables by the latest start, so this ceiling is what keeps every
/// allocation bounded whatever timestamp a log carries.
pub const MAX_TIMESTAMP_MS: u64 = 366 * crate::DAY_MS;

/// Writes a dataset in Tstat text-log form.
///
/// The dataset name is recorded in a leading comment so
/// [`read_textlog`] can restore it.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_textlog<W: Write>(dataset: &Dataset, mut w: W) -> std::io::Result<()> {
    writeln!(w, "#dataset {}", dataset.name())?;
    writeln!(w, "{HEADER}")?;
    for r in dataset.records() {
        writeln!(
            w,
            "{} {} {} {} {} {} {}",
            r.client_ip, r.server_ip, r.start_ms, r.end_ms, r.bytes, r.video_id, r.resolution
        )?;
    }
    // A `BufWriter` dropped unflushed would swallow the last write error.
    w.flush()
}

/// Parses a Tstat text log produced by [`write_textlog`].
///
/// Comment lines (starting with `#`) other than the `#dataset` header and
/// blank lines are skipped, so hand-annotated logs parse fine.
///
/// # Errors
///
/// Returns [`TextLogError`] on a missing `#dataset` header or any
/// malformed record line (with its line number), including a timestamp
/// past [`MAX_TIMESTAMP_MS`].
pub fn read_textlog<R: BufRead>(r: R) -> Result<Dataset, TextLogError> {
    let mut name: Option<DatasetName> = None;
    let mut records = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(TextLogError::Io)?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("#dataset") {
            let parsed = rest
                .trim()
                .parse()
                .map_err(|_| TextLogError::bad(lineno, "dataset name", rest))?;
            name = Some(parsed);
            continue;
        }
        if trimmed.starts_with('#') {
            continue;
        }
        records.push(parse_record(lineno, trimmed)?);
    }
    let name = name.ok_or(TextLogError::MissingDatasetHeader)?;
    Ok(Dataset::from_records(name, records))
}

fn parse_record(lineno: usize, line: &str) -> Result<FlowRecord, TextLogError> {
    let mut cols = line.split_whitespace();
    let mut next = |what| {
        cols.next()
            .ok_or(TextLogError::MissingColumn { lineno, what })
    };
    let client_ip = next("client_ip")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "client_ip", line))?;
    let server_ip = next("server_ip")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "server_ip", line))?;
    let start_ms = next("t_start_ms")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "t_start_ms", line))?;
    let end_ms = next("t_end_ms")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "t_end_ms", line))?;
    let bytes = next("bytes")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "bytes", line))?;
    let video_id: VideoId = next("video_id")?
        .parse()
        .map_err(|_| TextLogError::bad(lineno, "video_id", line))?;
    let resolution = parse_resolution(next("resolution")?)
        .ok_or_else(|| TextLogError::bad(lineno, "resolution", line))?;
    for (what, value) in [("t_start_ms", start_ms), ("t_end_ms", end_ms)] {
        if value > MAX_TIMESTAMP_MS {
            return Err(TextLogError::TimestampTooLate {
                lineno,
                what,
                value,
            });
        }
    }
    if end_ms < start_ms {
        return Err(TextLogError::bad(lineno, "time ordering", line));
    }
    Ok(FlowRecord {
        client_ip,
        server_ip,
        start_ms,
        end_ms,
        bytes,
        video_id,
        resolution,
    })
}

fn parse_resolution(s: &str) -> Option<Resolution> {
    Resolution::ALL.into_iter().find(|r| r.to_string() == s)
}

/// Errors from text-log parsing.
#[derive(Debug)]
pub enum TextLogError {
    /// The log has no `#dataset <name>` header.
    MissingDatasetHeader,
    /// A record line ended before all columns were read.
    MissingColumn {
        /// Zero-based line number.
        lineno: usize,
        /// Which column was missing.
        what: &'static str,
    },
    /// A column failed to parse.
    BadColumn {
        /// Zero-based line number.
        lineno: usize,
        /// Which column.
        what: &'static str,
        /// The offending line (truncated).
        line: String,
    },
    /// A timestamp lies past [`MAX_TIMESTAMP_MS`].
    TimestampTooLate {
        /// Zero-based line number.
        lineno: usize,
        /// Which column (`t_start_ms` or `t_end_ms`).
        what: &'static str,
        /// The value read.
        value: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl TextLogError {
    fn bad(lineno: usize, what: &'static str, line: &str) -> Self {
        TextLogError::BadColumn {
            lineno,
            what,
            line: line.chars().take(80).collect(),
        }
    }
}

impl fmt::Display for TextLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextLogError::MissingDatasetHeader => {
                f.write_str("text log has no '#dataset <name>' header")
            }
            TextLogError::MissingColumn { lineno, what } => {
                write!(f, "line {}: missing column {what}", lineno + 1)
            }
            TextLogError::BadColumn { lineno, what, line } => {
                write!(f, "line {}: bad {what} in {line:?}", lineno + 1)
            }
            TextLogError::TimestampTooLate {
                lineno,
                what,
                value,
            } => write!(
                f,
                "line {}: {what} {value} is past the {MAX_TIMESTAMP_MS} ms ceiling",
                lineno + 1
            ),
            TextLogError::Io(e) => write!(f, "text log I/O error: {e}"),
        }
    }
}

impl std::error::Error for TextLogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TextLogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytcdn_netsim::SimRng;

    fn flow(start: u64, bytes: u64) -> FlowRecord {
        FlowRecord {
            client_ip: "128.210.1.2".parse().unwrap(),
            server_ip: "74.125.3.4".parse().unwrap(),
            start_ms: start,
            end_ms: start + 500,
            bytes,
            video_id: VideoId::from_index(start * 7),
            resolution: Resolution::R480,
        }
    }

    #[test]
    fn roundtrip() {
        let ds = Dataset::from_records(
            DatasetName::Eu1Adsl,
            vec![flow(0, 600), flow(100, 9_000_000), flow(5000, 777)],
        );
        let mut buf = Vec::new();
        write_textlog(&ds, &mut buf).unwrap();
        let back = read_textlog(&buf[..]).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn header_format() {
        let ds = Dataset::from_records(DatasetName::Eu2, vec![flow(0, 1)]);
        let mut buf = Vec::new();
        write_textlog(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("#dataset EU2"));
        assert_eq!(lines.next(), Some(HEADER));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let input = "\n#dataset EU1-FTTH\n# a manual note\n\n128.210.1.2 74.125.3.4 5 10 900 AAAAAAAAAAA 240p\n";
        let ds = read_textlog(input.as_bytes()).unwrap();
        assert_eq!(ds.name(), DatasetName::Eu1Ftth);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.records()[0].bytes, 900);
    }

    #[test]
    fn missing_header_is_error() {
        let input = "128.210.1.2 74.125.3.4 5 10 900 AAAAAAAAAAA 240p\n";
        assert!(matches!(
            read_textlog(input.as_bytes()).unwrap_err(),
            TextLogError::MissingDatasetHeader
        ));
    }

    #[test]
    fn truncated_line_reports_column_and_lineno() {
        let input = "#dataset EU2\n1.2.3.4 5.6.7.8 5 10\n";
        let err = read_textlog(input.as_bytes()).unwrap_err();
        match err {
            TextLogError::MissingColumn { lineno, what } => {
                assert_eq!(lineno, 1);
                assert_eq!(what, "bytes");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_values_rejected() {
        for bad in [
            "#dataset EU2\nnot_an_ip 5.6.7.8 5 10 1 AAAAAAAAAAA 240p\n",
            "#dataset EU2\n1.2.3.4 5.6.7.8 x 10 1 AAAAAAAAAAA 240p\n",
            "#dataset EU2\n1.2.3.4 5.6.7.8 5 10 1 short 240p\n",
            "#dataset EU2\n1.2.3.4 5.6.7.8 5 10 1 AAAAAAAAAAA 999p\n",
            // end before start
            "#dataset EU2\n1.2.3.4 5.6.7.8 10 5 1 AAAAAAAAAAA 240p\n",
            "#dataset Mars\n",
        ] {
            assert!(read_textlog(bad.as_bytes()).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn error_display_is_informative() {
        let input = "#dataset EU2\n1.2.3.4 5.6.7.8 x 10 1 AAAAAAAAAAA 240p\n";
        let err = read_textlog(input.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("t_start_ms"), "{msg}");
    }

    #[test]
    fn far_future_timestamps_rejected() {
        let line = |start: u64, end: u64| {
            format!("#dataset EU2\n{HEADER}\n1.2.3.4 5.6.7.8 {start} {end} 1 AAAAAAAAAAA 240p\n")
        };
        // At the ceiling is fine.
        let ds = read_textlog(line(MAX_TIMESTAMP_MS, MAX_TIMESTAMP_MS).as_bytes()).unwrap();
        assert_eq!(ds.records()[0].end_ms, MAX_TIMESTAMP_MS);
        let far = 18_000_000_000_000_000_000;
        for (start, end, field) in [
            (far, far, "t_start_ms"),
            (MAX_TIMESTAMP_MS + 1, MAX_TIMESTAMP_MS + 1, "t_start_ms"),
            (5, MAX_TIMESTAMP_MS + 1, "t_end_ms"),
            (5, u64::MAX, "t_end_ms"),
        ] {
            let err = read_textlog(line(start, end).as_bytes()).unwrap_err();
            match &err {
                TextLogError::TimestampTooLate {
                    lineno,
                    what,
                    value,
                } => {
                    assert_eq!((*lineno, *what), (2, field));
                    assert_eq!(*value, if field == "t_start_ms" { start } else { end });
                }
                other => panic!("unexpected {other:?}"),
            }
            let msg = err.to_string();
            assert!(msg.contains("line 3") && msg.contains(field), "{msg}");
        }
    }

    /// 256 seeded record sets of 0..50 flows each round-trip exactly.
    #[test]
    fn roundtrip_arbitrary_records() {
        let mut rng = SimRng::seed_from_u64(0x7E);
        for case in 0..256 {
            let n = rng.gen_range(0usize..50);
            let records: Vec<FlowRecord> = (0..n)
                .map(|_| {
                    let start = rng.gen_range(0u64..1_000_000);
                    let dur = rng.gen_range(0u64..1_000_000);
                    let bytes = rng.gen_range(0u64..10_000_000_000);
                    FlowRecord {
                        client_ip: std::net::Ipv4Addr::from(
                            (start as u32).wrapping_mul(2654435761),
                        ),
                        server_ip: std::net::Ipv4Addr::from((dur as u32).wrapping_mul(40503)),
                        start_ms: start,
                        end_ms: start + dur,
                        bytes,
                        video_id: VideoId::from_index(start ^ dur),
                        resolution: Resolution::ALL[(bytes % 5) as usize],
                    }
                })
                .collect();
            let ds = Dataset::from_records(DatasetName::UsCampus, records);
            let mut buf = Vec::new();
            write_textlog(&ds, &mut buf).unwrap();
            let back = read_textlog(&buf[..]).unwrap();
            assert_eq!(back, ds, "case {case}");
        }
    }
}
