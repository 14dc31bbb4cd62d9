//! Measurement plumbing shared by every workload: the span recorder, the
//! `ups::obs` gate bookkeeping, order statistics, peak RSS, hashing and a
//! JSON writer for the result documents.

use std::collections::BTreeMap;
use std::time::Instant;

use ups::obs::{Counter, ObsSnapshot, Phase};
use ups::sweep::json::JsonValue;

/// One recorded span: a named interval and the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The duration is a total accumulated over many short calls (time
    /// inside a lazily pulled iterator), not one contiguous interval.
    pub aggregated: bool,
}

/// Handle of an open span; [`Recorder::end`] closes it.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
    gated: bool,
}

/// In-memory span recorder. Timing always runs — every metric is a span
/// duration — but spans are *kept* only on a traced run, and the
/// `ups::obs` gate is flipped only around gated spans of a gated rep.
pub struct Recorder {
    origin: Instant,
    /// Keep spans for the trace file and take the trace-only measurements.
    pub keep: bool,
    /// Enable the `ups::obs` gate around netsim/compare spans.
    pub gate: bool,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub obs: ObsTotals,
}

impl Recorder {
    pub fn new(keep: bool, gate: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            keep,
            gate,
            spans: Vec::new(),
            stack: Vec::new(),
            obs: ObsTotals::default(),
        }
    }

    fn open(&mut self, name: &'static str, gated: bool) -> Open {
        let gated = gated && self.gate;
        if gated {
            ups::obs::reset();
            ups::obs::enable();
        }
        let start = Instant::now();
        let idx = self.keep.then(|| {
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                aggregated: false,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start, gated }
    }

    /// Open a span around a call into a layer.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    /// Open a span that also reads the `ups::obs` phase timers and
    /// counters on a gated rep (the simulator loop and the compare).
    pub fn begin_gated(&mut self, name: &'static str) -> Open {
        self.open(name, true)
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if open.gated {
            ups::obs::disable();
            self.obs.add(&ups::obs::snapshot());
        }
        if let Some(i) = open.idx {
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
            self.stack.pop();
        }
        elapsed.as_secs_f64()
    }

    /// Record time accumulated inside the innermost open span — the total
    /// spent in an iterator the span's callee pulled from — as a child, so
    /// the parent's self time excludes it.
    pub fn child_total(&mut self, name: &'static str, secs: f64) {
        if let Some(&parent) = self.stack.last() {
            let start_ns = self.spans[parent].start_ns;
            self.spans.push(Span {
                name,
                parent: Some(parent),
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
                aggregated: true,
            });
        }
    }

    /// Total duration of the spans called `name`, in seconds.
    pub fn duration_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per span name: duration minus the part covered by child
    /// spans. Sums to the duration of the root spans.
    pub fn self_times(&self) -> Vec<(&'static str, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, f64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }
}

/// `ups::obs` readings accumulated over the gated spans of one rep.
/// Phase timers and event counters add up; high-water marks take the max.
#[derive(Default)]
pub struct ObsTotals(ObsSnapshot);

impl ObsTotals {
    fn add(&mut self, snap: &ObsSnapshot) {
        for p in Phase::ALL {
            self.0.phase_ns[p as usize] += snap.phase_ns(p);
        }
        for c in Counter::ALL {
            let total = &mut self.0.counters[c as usize];
            if matches!(c, Counter::ArenaHighWater | Counter::CompareWindow) {
                *total = (*total).max(snap.counter(c));
            } else {
                *total += snap.counter(c);
            }
        }
    }

    pub fn phase_s(&self, p: Phase) -> f64 {
        self.0.phase_ns(p) as f64 / 1e9
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.0.counter(c)
    }

    /// Events the simulator loops dispatched, of every kind.
    pub fn events(&self) -> u64 {
        [
            Counter::EventsInject,
            Counter::EventsArrive,
            Counter::EventsPortReady,
            Counter::EventsTimer,
            Counter::EventsLinkState,
        ]
        .into_iter()
        .map(|c| self.counter(c))
        .sum()
    }
}

/// Correctness operations: one per check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// What one rep of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Input construction, re-executed every rep.
    pub setup_s: f64,
    /// The workload's pipeline, set-up excluded.
    pub pipeline_s: f64,
    /// Original-schedule packets carried through the pipeline.
    pub packets: u64,
    /// Packets compared and packets with `o'(p) <= o(p)`, pooled over
    /// every compare of the rep (fractional: the sweep pools job rates).
    pub compared: f64,
    pub matched: f64,
    pub checks: Checks,
    /// Deterministic facts of the run (counts, fingerprints, hashes) as
    /// strings: equal on every rep of a seed, pinned at the default seed.
    pub pins: BTreeMap<String, String>,
    /// Per-layer metrics this rep measured.
    pub layers: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn pin(&mut self, key: &str, value: impl ToString) {
        self.pins.insert(key.to_string(), value.to_string());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), so the spreads printed here are the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Median and quartiles of one metric over the timed reps.
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub reps: usize,
}

impl Stat {
    pub fn of(values: &[f64]) -> Stat {
        let (q1, median, q3) = quartiles(values);
        Stat {
            median,
            q1,
            q3,
            reps: values.len(),
        }
    }

    /// A value read once per run (peak RSS) or the same on every rep.
    pub fn constant(x: f64, reps: usize) -> Stat {
        Stat {
            median: x,
            q1: x,
            q3: x,
            reps,
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 without procfs.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, 64 bit: the summary-JSON hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn hex64(x: u64) -> String {
    format!("{x:016x}")
}

// ---- JSON: build `JsonValue` trees, serialize them here (the facade has
// a reader but no writer).

pub fn num(x: f64) -> JsonValue {
    if x.is_finite() {
        JsonValue::Number(x)
    } else {
        JsonValue::Null
    }
}

pub fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn to_json(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(x) => out.push_str(&ups::metrics::json_num(*x)),
        JsonValue::String(s) => {
            out.push('"');
            out.push_str(&ups::metrics::json_escape(s));
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                to_json(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&ups::metrics::json_escape(k));
                out.push_str("\":");
                to_json(item, out);
            }
            out.push('}');
        }
    }
}

pub fn json_string(v: &JsonValue) -> String {
    let mut out = String::new();
    to_json(v, &mut out);
    out
}
