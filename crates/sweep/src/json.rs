//! A minimal JSON reader for artifact validation.
//!
//! The store *emits* JSON with hand-rolled formatting (see
//! `ups_metrics::summary`); this module is the other direction — just
//! enough of a recursive-descent parser to load a `BENCH_sweep.json` back
//! and assert its schema, so CI can validate the artifact without serde
//! (the workspace is offline; DESIGN.md §6).

use std::collections::BTreeMap;

/// A parsed JSON value. Objects use a `BTreeMap` — artifact validation
/// only looks fields up by name, never relies on insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON doesn't distinguish int/float).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The reader
/// recurses once per level, so the cap bounds its stack; the deepest
/// committed artifact nests 7 levels.
const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document; trailing non-whitespace is an error,
/// and so is nesting arrays and objects deeper than 64 levels.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// One value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Number)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign, as in `\u+041`.
                        let code = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| {
                                u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                            })
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // Surrogate pairs don't appear in our artifacts;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next delimiter at once.
                // Both delimiters are ASCII, so the run ends on a scalar
                // boundary and only the run itself needs validating —
                // which keeps parsing linear in the document.
                let run = &b[*pos..];
                let len = run.iter().position(|&c| c == b'"' || c == b'\\');
                let run = &run[..len.unwrap_or(run.len())];
                out.push_str(std::str::from_utf8(run).map_err(|e| e.to_string())?);
                *pos += run.len();
            }
        }
    }
}

/// An array at nesting level `depth`.
fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(v));
    }
    loop {
        v.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(v));
            }
            other => return Err(format!("expected , or ] (found {other:?})")),
        }
    }
}

/// An object at nesting level `depth`.
fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(m));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        m.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(m));
            }
            other => return Err(format!("expected , or }} (found {other:?})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_record() {
        let src = r#"{"a": 1, "b": [true, null, -2.5e3], "s": "x\"y\\z\nq"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y\\z\nq"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a":1} trailing"#).is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parses_summary_emission() {
        // The emitter in ups-metrics and this parser must agree.
        let summary = ups_metrics::RunSummary {
            flows: 2,
            packets: 10,
            delivered: 10,
            dropped: 0,
            delay_mean_s: 0.001,
            delay_p99_s: 0.002,
            fct_mean_s: 0.5,
            fct_buckets: vec![(1460, 0.1, 1), (u64::MAX, 0.2, 1)],
            jain: None,
            replay_match_rate: None,
            replay_frac_gt_t: None,
            quantized_match_rate: Some(0.5),
            quantized_frac_gt_t: Some(0.25),
            quantized_fct_delta_s: Some(0.003),
            transport: Some(ups_metrics::TransportSummary {
                completed_flows: 2,
                goodput_bytes: 12_345,
                retransmits: 1,
                rto_events: 0,
                slack_ooo: 2,
            }),
            disruption: Some(ups_metrics::DisruptionSummary {
                links_failed: 2,
                rerouted: 17,
                dropped_at_dead_link: 1,
                churn_replay_match_rate: None,
            }),
            divergence: None,
        };
        let v = parse(&summary.to_json()).unwrap();
        assert_eq!(v.get("packets").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("replay_match_rate"), Some(&JsonValue::Null));
        assert_eq!(v.get("jain"), Some(&JsonValue::Null));
        assert_eq!(v.get("quantized_match_rate").unwrap().as_f64(), Some(0.5));
        assert_eq!(
            v.get("quantized_fct_delta_s").unwrap().as_f64(),
            Some(0.003)
        );
        let t = v.get("transport").unwrap();
        assert_eq!(t.get("goodput_bytes").unwrap().as_f64(), Some(12_345.0));
        let d = v.get("disruption").unwrap();
        assert_eq!(d.get("rerouted").unwrap().as_f64(), Some(17.0));
        assert_eq!(d.get("churn_replay_match_rate"), Some(&JsonValue::Null));
        let buckets = v.get("fct_buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets[0].get("edge_bytes").unwrap().as_f64(), Some(1460.0));
        assert_eq!(buckets[1].get("edge_bytes"), Some(&JsonValue::Null));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#""café → naïve""#).unwrap();
        assert_eq!(v.as_str(), Some("café → naïve"));
        let escaped = ["\"", "\\", "u0041", "\\", "u00E9", "\""].concat();
        assert_eq!(parse(&escaped).unwrap().as_str(), Some("A\u{e9}"));
        // Exactly four hex digits: no sign, no short or non-ASCII run.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u04""#, r#""\u00é""#] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err, "bad \\u escape at byte 2", "{bad}");
        }
    }

    /// `depth` arrays around `inner`.
    fn nested(depth: usize, inner: &str) -> String {
        format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        parse(&nested(MAX_DEPTH, "1")).expect("64 levels are allowed");
        let err = parse(&nested(MAX_DEPTH + 1, "1")).expect_err("one level too many");
        assert_eq!(err, "nesting deeper than 64 levels at byte 64");
        // The shape that used to overflow the stack and abort the process.
        let deep = format!(r#"{{"schema":{}}}"#, nested(100_000, ""));
        let err = parse(&deep).expect_err("100,000 levels");
        assert!(err.contains("at byte 73"), "{err}");
        let err = parse(&r#"{"a":"#.repeat(100_000)).expect_err("objects too");
        assert!(err.starts_with("nesting deeper"), "{err}");
    }

    proptest::proptest! {
        /// Arbitrary bytes, mostly JSON punctuation so that the reader
        /// gets deep into nesting, strings and escapes: `Ok` or `Err`,
        /// never a panic.
        #[test]
        fn arbitrary_bytes_return_rather_than_panic(bytes in proptest::collection::vec(
            proptest::prop_oneof![proptest::sample::select(b"{}[]:,\"\\u0-.eE+ tfn"), 0u8..=255],
            0..96,
        )) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }

    /// Whether parsing `large` — `small` doubled — takes under three times
    /// as long, judged on each document's best time: of three rounds, and
    /// of up to nine more while the verdict is still "no", so a noisy
    /// neighbour delays the answer without changing it.
    fn doubling_less_than_triples(small: &str, large: &str) -> bool {
        #[expect(
            clippy::disallowed_types,
            reason = "a timing test: the wall clock is what it measures"
        )]
        let secs = |doc: &str| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(parse(std::hint::black_box(doc)).expect("parses"));
            t0.elapsed().as_secs_f64()
        };
        let (mut t1, mut t2) = (f64::INFINITY, f64::INFINITY);
        (0..12).any(|round| {
            t1 = t1.min(secs(small));
            t2 = t2.min(secs(large));
            round >= 2 && t2 < 3.0 * t1
        })
    }

    #[test]
    fn string_parsing_is_linear_in_the_document() {
        // One long string with multi-byte scalars and escapes mixed in:
        // 24 source bytes per unit, decoding to `abcdefgh é→ "q"\x` + LF.
        let unit_src = r#"abcdefgh é→ \"q\"\\x\n"#;
        let unit_out = "abcdefgh é→ \"q\"\\x\n";
        let long = |units: usize| format!("\"{}\"", unit_src.repeat(units));
        let v = parse(&long(90_000)).unwrap(); // ≈ 2 MB
        assert_eq!(v.as_str(), Some(unit_out.repeat(90_000).as_str()));
        // Many short strings (keys and values), as in a sweep artifact.
        let many = |n: usize| {
            let fields: Vec<String> = (0..n).map(|i| format!(r#""k{i}":"v{i}é""#)).collect();
            format!("{{{}}}", fields.join(","))
        };
        let v = parse(&many(10_000)).unwrap(); // 20,000 strings
        assert_eq!(v.get("k9999").and_then(JsonValue::as_str), Some("v9999é"));
        // Doubling either document must about double the time. The
        // per-character whole-remainder validation this replaced
        // quadrupled it.
        let linear = doubling_less_than_triples(&long(90_000), &long(180_000));
        assert!(linear, "one long string: doubling it tripled the time");
        let linear = doubling_less_than_triples(&many(10_000), &many(20_000));
        assert!(linear, "many short strings: doubling them tripled the time");
    }
}
