//! Golden schema of the telemetry JSONL stream and the metrics snapshot.
//!
//! The JSONL sink is the crate's external interface: dashboards and ad-hoc
//! `jq` pipelines key on exact field names and JSON types. These tests emit
//! one record of every [`Event`] variant through a real [`JsonlSink`] and
//! pin each line byte for byte, then, per variant, the exact key set and
//! the JSON type of every value. Renaming, removing, or retyping a field
//! fails here first — bump the consumers together with this golden, never
//! silently.
//!
//! The lines are parsed back by [`json`], a small reader kept here so the
//! schema check does not trust the writer it checks.

use std::sync::Arc;

use ytcdn_telemetry::{DnsCauseKind, Event, JsonlSink, RedirectKind, Telemetry};

/// Every variant once, with a scope, in a fixed order.
fn one_of_each() -> Vec<Event> {
    vec![
        Event::DnsResolution {
            t_ms: 1_234,
            ldns: 0,
            dc: 7,
            cause: DnsCauseKind::LoadBalanced,
        },
        Event::Redirect {
            t_ms: 99,
            kind: RedirectKind::WrongGuess,
            from_dc: 1,
            to_dc: 2,
        },
        Event::CacheMiss {
            t_ms: 5,
            dc: 3,
            video_rank: 900_001,
        },
        Event::Replication {
            t_ms: 6,
            dc: 3,
            video_rank: 900_001,
        },
        Event::Phase {
            name: "scenario.build".to_owned(),
            wall_us: 88_000,
        },
        Event::WindowMetrics {
            window: 12,
            start_hour: 72,
            end_hour: 78,
            flows: 4_321,
            sessions: 3_000,
            bytes: 9_876_543,
            startup_ms_p50: 310.0,
            startup_ms_p90: 950.5,
            startup_ms_p99: 2_400.0,
            non_preferred_fraction: 0.11,
            dc_bytes_p50: 1_000.0,
            dc_bytes_p90: 250_000.0,
            dc_bytes_p99: 9_000_000.0,
            clusters: 14,
            constellation_distance: 0.42,
        },
        Event::ChangePointDetected {
            window: 12,
            hour: 72,
            distance: 0.42,
            affected: "Zurich, Milan".to_owned(),
        },
    ]
}

/// `(tag, [(field, json type)])` for every variant, `scope` included.
/// "uint" means a non-negative integer with no fractional part; "float"
/// accepts any JSON number.
const GOLDEN: &[(&str, &[(&str, &str)])] = &[
    (
        "dns_resolution",
        &[
            ("scope", "string"),
            ("t_ms", "uint"),
            ("ldns", "uint"),
            ("dc", "uint"),
            ("cause", "string"),
        ],
    ),
    (
        "redirect",
        &[
            ("scope", "string"),
            ("t_ms", "uint"),
            ("kind", "string"),
            ("from_dc", "uint"),
            ("to_dc", "uint"),
        ],
    ),
    (
        "cache_miss",
        &[
            ("scope", "string"),
            ("t_ms", "uint"),
            ("dc", "uint"),
            ("video_rank", "uint"),
        ],
    ),
    (
        "replication",
        &[
            ("scope", "string"),
            ("t_ms", "uint"),
            ("dc", "uint"),
            ("video_rank", "uint"),
        ],
    ),
    (
        "phase",
        &[("scope", "string"), ("name", "string"), ("wall_us", "uint")],
    ),
    (
        "window_metrics",
        &[
            ("scope", "string"),
            ("window", "uint"),
            ("start_hour", "uint"),
            ("end_hour", "uint"),
            ("flows", "uint"),
            ("sessions", "uint"),
            ("bytes", "uint"),
            ("startup_ms_p50", "float"),
            ("startup_ms_p90", "float"),
            ("startup_ms_p99", "float"),
            ("non_preferred_fraction", "float"),
            ("dc_bytes_p50", "float"),
            ("dc_bytes_p90", "float"),
            ("dc_bytes_p99", "float"),
            ("clusters", "uint"),
            ("constellation_distance", "float"),
        ],
    ),
    (
        "change_point_detected",
        &[
            ("scope", "string"),
            ("window", "uint"),
            ("hour", "uint"),
            ("distance", "float"),
            ("affected", "string"),
        ],
    ),
];

fn type_matches(v: &json::Value, ty: &str) -> bool {
    match ty {
        "string" => v.as_str().is_some(),
        "uint" => v.is_u64(),
        "float" => v.as_f64().is_some(),
        "array" => matches!(v, json::Value::Array(_)),
        other => panic!("unknown golden type {other:?}"),
    }
}

/// Every field of a histogram in the metrics snapshot (`--metrics-out`)
/// and its JSON type.
const HISTOGRAM_GOLDEN: &[(&str, &str)] = &[
    ("count", "uint"),
    ("sum", "uint"),
    ("min", "float"),
    ("max", "float"),
    ("mean", "float"),
    ("p50", "float"),
    ("p90", "float"),
    ("p99", "float"),
    ("bounds", "array"),
    ("buckets", "array"),
];

/// The stream [`one_of_each`] writes, line for line.
const GOLDEN_LINES: &[&str] = &[
    r#"{"scope":"EU1-FTTH","event":"dns_resolution","t_ms":1234,"ldns":0,"dc":7,"cause":"load_balanced"}"#,
    r#"{"scope":"EU1-FTTH","event":"redirect","t_ms":99,"kind":"wrong_guess","from_dc":1,"to_dc":2}"#,
    r#"{"scope":"EU1-FTTH","event":"cache_miss","t_ms":5,"dc":3,"video_rank":900001}"#,
    r#"{"scope":"EU1-FTTH","event":"replication","t_ms":6,"dc":3,"video_rank":900001}"#,
    r#"{"scope":"EU1-FTTH","event":"phase","name":"scenario.build","wall_us":88000}"#,
    concat!(
        r#"{"scope":"EU1-FTTH","event":"window_metrics","window":12,"start_hour":72,"end_hour":78,"#,
        r#""flows":4321,"sessions":3000,"bytes":9876543,"startup_ms_p50":310.0,"#,
        r#""startup_ms_p90":950.5,"startup_ms_p99":2400.0,"non_preferred_fraction":0.11,"#,
        r#""dc_bytes_p50":1000.0,"dc_bytes_p90":250000.0,"dc_bytes_p99":9000000.0,"#,
        r#""clusters":14,"constellation_distance":0.42}"#
    ),
    r#"{"scope":"EU1-FTTH","event":"change_point_detected","window":12,"hour":72,"distance":0.42,"affected":"Zurich, Milan"}"#,
];

/// Writes one record per variant through the real sink and returns the
/// file's text. Each caller names its own directory: the tests run in
/// parallel, and one test's cleanup must not remove another's file.
fn emitted_text(test: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ytcdn-golden-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.jsonl");
    {
        let sink = JsonlSink::create(&path).expect("create event log");
        let telemetry = Telemetry::with_sink(Arc::new(sink)).with_scope("EU1-FTTH");
        for event in one_of_each() {
            telemetry.emit(|| event.clone());
        }
        telemetry.flush().expect("flush event log");
    }
    let text = std::fs::read_to_string(&path).expect("read event log");
    std::fs::remove_dir_all(&dir).ok();
    text
}

#[test]
fn every_variant_writes_its_golden_line() {
    let text = emitted_text("lines");
    assert_eq!(text.lines().collect::<Vec<_>>(), GOLDEN_LINES);
    assert!(text.ends_with('\n'), "every line is terminated");
}

#[test]
fn every_variant_matches_the_golden_schema() {
    let text = emitted_text("schema");
    let lines: Vec<json::Value> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(lines.len(), GOLDEN.len(), "one line per variant");
    for (line, (tag, fields)) in lines.iter().zip(GOLDEN) {
        let obj = line
            .as_object()
            .unwrap_or_else(|| panic!("not an object: {line:?}"));
        assert_eq!(
            line.get("event").and_then(json::Value::as_str),
            Some(*tag),
            "tag of {line:?}"
        );
        let mut expected: Vec<&str> = fields.iter().map(|(f, _)| *f).collect();
        expected.push("event");
        expected.sort_unstable();
        let mut actual: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        actual.sort_unstable();
        assert_eq!(actual, expected, "key set of {tag}");
        for (field, ty) in *fields {
            let v = &line[*field];
            assert!(
                type_matches(v, ty),
                "{tag}.{field} should be {ty}, got {v:?}"
            );
        }
    }
}

#[test]
fn metric_like_names_stay_lowercase_dotted() {
    // The event tags double as stream filters; keep them machine-friendly.
    for (tag, _) in GOLDEN {
        assert!(
            tag.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.'),
            "tag {tag:?} is not lowercase [a-z0-9_.]"
        );
    }
}

#[test]
fn histogram_report_matches_the_golden_schema() {
    let telemetry = Telemetry::metrics_only();
    telemetry.histogram("scenario.build").record(88_000.0);
    let snapshot = telemetry.metrics_snapshot().unwrap();
    let text = snapshot.to_json_pretty();
    let parsed = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let report = &parsed["histograms"]["scenario.build"];
    let fields = report
        .as_object()
        .unwrap_or_else(|| panic!("no histogram report in {text}"));
    let mut actual: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    actual.sort_unstable();
    let mut expected: Vec<&str> = HISTOGRAM_GOLDEN.iter().map(|(f, _)| *f).collect();
    expected.sort_unstable();
    assert_eq!(actual, expected, "key set of a histogram report");
    for (field, ty) in HISTOGRAM_GOLDEN {
        let v = &report[*field];
        assert!(type_matches(v, ty), "histogram.{field}: {ty}, got {v:?}");
    }
    // One observation: min, max and every quantile are that value.
    for field in ["min", "max", "p50", "p90", "p99"] {
        assert_eq!(report[field].as_f64(), Some(88_000.0), "{field}");
    }
}

#[test]
fn reader_accepts_what_the_writer_escapes() {
    let nasty = "a\"b\\c\nd\u{1}é";
    let telemetry_line = ytcdn_telemetry::TelemetryRecord {
        scope: Some(nasty.to_owned()),
        event: Event::Phase {
            name: nasty.to_owned(),
            wall_us: 1,
        },
    }
    .to_json_line();
    let v = json::parse(&telemetry_line).unwrap();
    assert_eq!(v["scope"].as_str(), Some(nasty));
    assert_eq!(v["name"].as_str(), Some(nasty));
    let v = json::parse(r#" {"a": [1, -0.5e+3, true, false, null, {}], "b": "\u00e9\/\u0041BC"} "#)
        .unwrap();
    assert_eq!(v["b"].as_str(), Some("é/ABC"));
    let json::Value::Array(items) = &v["a"] else {
        panic!("{v:?}")
    };
    assert_eq!(items.len(), 6);
    assert!(items[0].is_u64() && !items[1].is_u64());
    assert_eq!(items[1].as_f64(), Some(-500.0));
    for bad in [
        "",
        "{",
        r#"{"a":}"#,
        r#"{"a":1,}"#,
        "[1 2]",
        r#""\x""#,
        "1 1",
        "01",
        "1.",
        ".5",
        "+1",
        "1e",
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

/// A strict reader for standard JSON: objects (key order kept), arrays,
/// strings with every escape, numbers, `true`, `false` and `null`.
mod json {
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        /// The number's source text, so integers keep their exact form.
        Number(String),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => n.parse().ok(),
                _ => None,
            }
        }

        /// A non-negative integer written without fraction or exponent.
        pub fn is_u64(&self) -> bool {
            matches!(self, Value::Number(n) if n.parse::<u64>().is_ok())
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(fields) => Some(fields),
                _ => None,
            }
        }

        pub fn get(&self, key: &str) -> Option<&Value> {
            let fields = self.as_object()?;
            fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
    }

    impl std::ops::Index<&str> for Value {
        type Output = Value;

        fn index(&self, key: &str) -> &Value {
            self.get(key).unwrap_or(&Value::Null)
        }
    }

    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            chars: text.chars().collect(),
            pos: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.pos == p.chars.len() {
            Ok(v)
        } else {
            Err(p.err("trailing input"))
        }
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn err(&self, what: &str) -> String {
            format!("{what} at char {}", self.pos)
        }

        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        /// Skips characters in `set`; returns what was skipped.
        fn skip(&mut self, set: &str) -> String {
            let start = self.pos;
            while self.peek().is_some_and(|c| set.contains(c)) {
                self.pos += 1;
            }
            self.chars[start..self.pos].iter().collect()
        }

        fn ws(&mut self) {
            self.skip(" \t\n\r");
        }

        fn eat(&mut self, c: char) -> bool {
            let hit = self.peek() == Some(c);
            self.pos += usize::from(hit);
            hit
        }

        fn next(&mut self) -> Result<char, String> {
            let c = self.peek().ok_or_else(|| self.err("unexpected end"))?;
            self.pos += 1;
            Ok(c)
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            let word = self.skip("abcdefghijklmnopqrstuvwxyz");
            match word.as_str() {
                "null" => return Ok(Value::Null),
                "true" => return Ok(Value::Bool(true)),
                "false" => return Ok(Value::Bool(false)),
                "" => {}
                _ => return Err(self.err("unknown literal")),
            }
            if self.eat('[') {
                return self.items(']', Self::value).map(Value::Array);
            }
            if self.eat('{') {
                return self
                    .items('}', |p| {
                        p.ws();
                        let key = p.string()?;
                        p.ws();
                        if !p.eat(':') {
                            return Err(p.err("expected ':'"));
                        }
                        Ok((key, p.value()?))
                    })
                    .map(Value::Object);
            }
            if self.peek() == Some('"') {
                return self.string().map(Value::String);
            }
            let number = self.skip("+-.eE0123456789");
            if is_number(&number) {
                Ok(Value::Number(number))
            } else {
                Err(self.err("expected a value"))
            }
        }

        /// Comma-separated items up to `close`, the opening bracket eaten.
        fn items<T>(
            &mut self,
            close: char,
            mut item: impl FnMut(&mut Self) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let mut out = Vec::new();
            self.ws();
            if self.eat(close) {
                return Ok(out);
            }
            loop {
                out.push(item(self)?);
                self.ws();
                if self.eat(close) {
                    return Ok(out);
                }
                if !self.eat(',') {
                    return Err(self.err("expected ',' or a closing bracket"));
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat('"') {
                return Err(self.err("expected a string"));
            }
            let mut out = String::new();
            loop {
                let c = match self.next()? {
                    '"' => return Ok(out),
                    '\\' => match self.next()? {
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'n' => '\n',
                        'r' => '\r',
                        't' => '\t',
                        'u' => {
                            let hex: String = self.chars.iter().skip(self.pos).take(4).collect();
                            self.pos += 4;
                            let code = u32::from_str_radix(&hex, 16).ok();
                            code.and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        c @ ('"' | '\\' | '/') => c,
                        _ => return Err(self.err("bad escape")),
                    },
                    c if c < ' ' => return Err(self.err("raw control character")),
                    c => c,
                };
                out.push(c);
            }
        }
    }

    /// JSON's number grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn is_number(s: &str) -> bool {
        let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
        let s = s.strip_prefix('-').unwrap_or(s);
        let (mantissa, exp) = s
            .split_once(['e', 'E'])
            .map_or((s, None), |(m, e)| (m, Some(e)));
        let (int, frac) = mantissa
            .split_once('.')
            .map_or((mantissa, None), |(i, f)| (i, Some(f)));
        digits(int)
            && (int == "0" || !int.starts_with('0'))
            && frac.is_none_or(digits)
            && exp.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)))
    }
}
