//! The machine-readable result store.
//!
//! Two sweep artifacts, following the DESIGN.md §5 pattern:
//!
//! * a **JSON-lines stream** — one self-describing record per job,
//!   appended the moment the job finishes on whichever worker ran it
//!   (completion order, so the stream doubles as a progress log), and
//! * the **aggregate `BENCH_sweep.json`** — schema tag, the grid that
//!   generated the sweep, pool accounting (workers, jobs/sec) and
//!   every record sorted by job id.
//!
//! The other half describes and gates every tagged artifact the
//! repository commits or CI writes — these two, the bench documents and
//! the `sweep --telemetry` time series. Each schema tag has one field
//! [`Table`] (every key with its kind, whether it may be `null`, and the
//! table or tag it nests), listed in [`TABLES`]. [`validate_artifact`]
//! parses a document once, dispatches on its `schema` tag, walks that
//! tag's table through one cursor (`Cur`), then runs the family's
//! cross-field rules, and returns a one-line confirmation or an error
//! naming the offending field. One version of each tag is accepted — the
//! one a committed artifact or a CI step produces. `SCHEMAS.lock` is
//! printed from the tables, and `tests/schema_lock.rs` checks that the
//! emitters write exactly each table's keys.

use std::fmt::Debug;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::grid::ScenarioGrid;
use crate::json::{parse, JsonValue};
use crate::pool::PoolStats;
use crate::runner::{JobRecord, RECORD_SCHEMA};
use crate::telemetry::TIMESERIES_SCHEMA;
use Kind::{Bool, List, Num, Obj, Rows, Str, True};

/// Schema tag of the aggregate artifact this build writes, and the only
/// one [`validate_bench_sweep`] accepts.
pub const SWEEP_SCHEMA: &str = "ups-sweep/v5";

/// Streams one JSON line per finished job. Shared across workers behind
/// a mutex — append is one short write per multi-second job.
pub struct ResultStream {
    out: Mutex<BufWriter<File>>,
    path: PathBuf,
}

impl ResultStream {
    /// Create/truncate the JSONL file.
    pub fn create(path: &Path) -> std::io::Result<ResultStream> {
        Ok(ResultStream {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            path: path.to_path_buf(),
        })
    }

    /// Append one record (with timing — the stream is a log, not the
    /// determinism surface).
    ///
    /// # Panics
    /// On write failure (e.g. disk full) — the sweep cannot report
    /// results it cannot record. A poisoned lock is recovered rather
    /// than re-panicked: one job's write failure is caught per job by
    /// the pool, and later jobs must surface the *real* I/O error, not
    /// a cascade of "stream poisoned".
    pub fn append(&self, record: &JobRecord) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        writeln!(out, "{}", record.to_json(true)).expect("write JSONL record");
        out.flush().expect("flush JSONL record");
    }

    /// Where the stream writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Render the aggregate artifact. Records are sorted by job id (the
/// caller hands them in pool order, which is already job order).
pub fn bench_sweep_json(
    grid: &ScenarioGrid,
    records: &[JobRecord],
    stats: &PoolStats,
    wall_s: f64,
) -> String {
    let jobs_per_sec = if wall_s > 0.0 {
        records.len() as f64 / wall_s
    } else {
        0.0
    };
    let mut sorted: Vec<&JobRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.spec.job_id);
    let body: Vec<String> = sorted
        .iter()
        .map(|r| format!("    {}", r.to_json(true)))
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"grid\": {},\n",
            "  \"workers\": {},\n",
            "  \"jobs\": {},\n",
            "  \"wall_s\": {},\n",
            "  \"jobs_per_sec\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SWEEP_SCHEMA,
        grid.to_json(),
        stats.workers,
        records.len(),
        ups_metrics::json_num(wall_s),
        ups_metrics::json_num(jobs_per_sec),
        body.join(",\n")
    )
}

/// What a valid aggregate reports — returned so callers can print a
/// one-line confirmation.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDigest {
    /// Jobs recorded.
    pub jobs: usize,
    /// Worker threads the sweep used.
    pub workers: usize,
    /// Aggregate throughput.
    pub jobs_per_sec: f64,
}

/// What one field of a tagged artifact holds.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A number.
    Num,
    /// A string.
    Str,
    /// `true` or `false`.
    Bool,
    /// Literal `true`: a property the artifact's producer asserted.
    True,
    /// An array of scalars (a grid axis); its elements are not checked.
    List,
    /// An object, walked by the nested table.
    Obj(&'static Table),
    /// An array of objects, each walked by the nested table.
    Rows(&'static Table),
}

/// One key of a [`Table`].
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The JSON key.
    pub key: &'static str,
    /// What its value must be.
    pub kind: Kind,
    /// Whether `null` stands in for a value of `kind`.
    pub nullable: bool,
    /// Whether every object carries the key. Only a flag that some rows
    /// carry (the `bit_identical_*` anchors) is not required.
    pub required: bool,
}

/// The fields of one JSON object, in emission order. A table with a tag
/// is a schema: its objects carry `"schema": <tag>`, and a table that
/// nests it names the key that holds it, not its fields.
#[derive(Debug)]
pub struct Table {
    /// The schema tag, for a table that is one.
    pub tag: Option<&'static str>,
    /// Every key its objects carry.
    pub fields: &'static [Field],
}

const fn field(key: &'static str, kind: Kind) -> Field {
    Field {
        key,
        kind,
        nullable: false,
        required: true,
    }
}

const fn nullable(key: &'static str, kind: Kind) -> Field {
    Field {
        nullable: true,
        ..field(key, kind)
    }
}

const fn optional(key: &'static str, kind: Kind) -> Field {
    Field {
        required: false,
        ..field(key, kind)
    }
}

const fn untagged(fields: &'static [Field]) -> Table {
    Table { tag: None, fields }
}

// The tables below are laid out a few fields to a line, in emission
// order, so each reads as the object it describes.

/// `ups-sweep/v5`, the aggregate `BENCH_sweep.json`.
#[rustfmt::skip]
pub const SWEEP: Table = Table { tag: Some(SWEEP_SCHEMA), fields: &[
    field("schema", Str), field("grid", Obj(&GRID)),
    field("workers", Num), field("jobs", Num), field("wall_s", Num), field("jobs_per_sec", Num),
    field("results", Rows(&RECORD)),
] };

/// The aggregate's `grid` block: the axes that generated the sweep.
#[rustfmt::skip]
const GRID: Table = untagged(&[
    field("topologies", List), field("profiles", List), field("schedulers", List),
    field("traffic", List), field("rest_bps", List), field("utilizations", List),
    field("seeds", List), field("window_ms", Num), nullable("horizon_ms", Num),
    nullable("buffer_bytes", Num), field("replay", Bool),
    field("queues", List), field("mapper", Str), field("failures", List), field("inflight", Str),
    nullable("max_packets", Num), field("excludes", Rows(&EXCLUDE)), nullable("max_jobs", Num),
]);

/// One exclusion filter of the grid; `null` matches everything.
#[rustfmt::skip]
const EXCLUDE: Table = untagged(&[
    nullable("topology", Str), nullable("profile", Str), nullable("scheduler", Str),
    nullable("traffic", Str), nullable("queues", Num), nullable("failures", Str),
    nullable("utilization_above", Num),
]);

/// `ups-sweep-record/v5`, one job's result line.
#[rustfmt::skip]
pub const RECORD: Table = Table { tag: Some(RECORD_SCHEMA), fields: &[
    field("schema", Str), field("job_id", Num),
    field("scenario", Obj(&SCENARIO)), field("metrics", Obj(&METRICS)), field("wall_s", Num),
] };

/// A record's `scenario`: the job spec.
#[rustfmt::skip]
const SCENARIO: Table = untagged(&[
    field("topology", Str), field("profile", Str), field("scheduler", Str),
    field("traffic", Str), nullable("rest_bps", Num),
    field("utilization", Num), field("seed", Num), field("window_ms", Num),
    nullable("horizon_ms", Num), nullable("buffer_bytes", Num), field("replay", Bool),
    nullable("queues", Num), nullable("mapper", Str),
    nullable("failures", Str), nullable("inflight", Str), nullable("max_packets", Num),
]);

/// A record's `metrics`. A zero-delivery run has a null `jain`: a dead
/// run is not "perfectly fair".
#[rustfmt::skip]
const METRICS: Table = untagged(&[
    field("flows", Num), field("packets", Num), field("delivered", Num), field("dropped", Num),
    field("delay_mean_s", Num), field("delay_p99_s", Num), field("fct_mean_s", Num),
    nullable("jain", Num), nullable("replay_match_rate", Num), nullable("replay_frac_gt_t", Num),
    nullable("quantized_match_rate", Num), nullable("quantized_frac_gt_t", Num),
    nullable("quantized_fct_delta_s", Num),
    nullable("transport", Obj(&TRANSPORT)), nullable("disruption", Obj(&DISRUPTION)),
    nullable("divergence", Obj(&FORENSICS)), field("fct_buckets", Rows(&FCT_BUCKET)),
]);

/// A closed-loop record's `transport` block.
#[rustfmt::skip]
const TRANSPORT: Table = untagged(&[
    field("completed_flows", Num), field("goodput_bytes", Num),
    field("retransmits", Num), field("rto_events", Num), field("slack_ooo", Num),
]);

/// A failure record's `disruption` block.
#[rustfmt::skip]
const DISRUPTION: Table = untagged(&[
    field("links_failed", Num), field("rerouted", Num), field("dropped_at_dead_link", Num),
    nullable("churn_replay_match_rate", Num),
]);

/// One FCT size bucket; the overflow bucket's edge is `null`.
#[rustfmt::skip]
const FCT_BUCKET: Table = untagged(&[
    nullable("edge_bytes", Num), field("mean_fct_s", Num), field("flows", Num),
]);

/// `ups-forensics/v1`, one replay's mismatch attribution wherever it
/// appears (a record's `divergence` block, every degradation row): the
/// five causes, the five first-divergent-hop inversion classes, and the
/// blame aggregates.
#[rustfmt::skip]
pub const FORENSICS: Table = Table { tag: Some("ups-forensics/v1"), fields: &[
    field("schema", Str), field("mismatches", Num),
    field("overdue_within_t", Num), field("overdue_beyond_t", Num),
    field("missing_in_replay", Num), field("dead_link_drop", Num), field("buffer_drop", Num),
    field("rank_tie_break", Num), field("bucket_collision", Num), field("reroute", Num),
    field("queue_overflow", Num), field("exit_only", Num),
    nullable("hop_lateness_p50_s", Num), nullable("hop_lateness_p99_s", Num),
    field("top_nodes", Rows(&TOP_NODE)),
] };

/// One switch of the blame ranking.
const TOP_NODE: Table = untagged(&[field("node", Num), field("mismatches", Num)]);

/// `ups-bench-degradation/v1`, `BENCH_degradation.json`.
#[rustfmt::skip]
pub const DEGRADATION: Table = Table { tag: Some("ups-bench-degradation/v1"), fields: &[
    field("schema", Str), field("scenario", Obj(&DEGRADATION_SCENARIO)),
    field("quantization", Rows(&K_ROW)), field("failures", Rows(&RATE_ROW)),
] };

#[rustfmt::skip]
const DEGRADATION_SCENARIO: Table = untagged(&[
    field("topology", Str), field("original", Str), field("mapper", Str),
    field("profile", Str), field("inflight", Str),
    field("utilization", Num), field("seed", Num),
    field("packets", Num), field("flows", Num), field("window_ms", Num),
]);

/// One quantization-axis row; `k: null` is exact LSTF.
#[rustfmt::skip]
const K_ROW: Table = untagged(&[
    nullable("k", Num), field("mean_fct_s", Num),
    field("compared", Num), field("match_rate", Num), field("frac_gt_t", Num),
    field("missing", Num), field("max_lateness_us", Num),
    optional("bit_identical_to_exact_lstf", True), field("divergence", Obj(&FORENSICS)),
]);

/// One failure-axis row.
#[rustfmt::skip]
const RATE_ROW: Table = untagged(&[
    field("rate", Num), field("links_failed", Num), field("rerouted", Num),
    field("dropped_at_dead_link", Num), field("delivered", Num),
    field("compared", Num), field("match_rate", Num), field("frac_gt_t", Num),
    field("missing", Num), field("max_lateness_us", Num),
    optional("bit_identical_to_static_routing", True), field("divergence", Obj(&FORENSICS)),
]);

/// `ups-bench-scale/v1`, `BENCH_scale.json`.
#[rustfmt::skip]
pub const SCALE: Table = Table { tag: Some("ups-bench-scale/v1"), fields: &[
    field("schema", Str), field("scenario", Obj(&SCALE_SCENARIO)),
    field("packets", Num), field("flows", Num), field("delivered", Num), field("dropped", Num),
    field("peak_rss_bytes", Num), field("rss_budget_bytes", Num), field("packets_per_sec", Num),
    field("replay_match_rate", Num), field("replay_frac_gt_t", Num),
    field("differential", Obj(&DIFFERENTIAL)),
] };

#[rustfmt::skip]
const SCALE_SCENARIO: Table = untagged(&[
    field("topology", Str), field("scheduler", Str), field("utilization", Num),
    field("flow_bytes", Num), field("window_ms", Num), field("seed", Num),
]);

/// The streaming-vs-resident gate, green across all three layers.
#[rustfmt::skip]
const DIFFERENTIAL: Table = untagged(&[
    field("workload_packets", Num), field("records_identical", True),
    field("reports_identical", True), field("summaries_identical", True),
]);

/// [`TIMESERIES_SCHEMA`], the document `sweep --telemetry` writes.
#[rustfmt::skip]
pub const TIMESERIES: Table = Table { tag: Some(TIMESERIES_SCHEMA), fields: &[
    field("schema", Str), field("workers", Num), field("wall_s", Num),
    field("heartbeats", Rows(&TICK)),
] };

/// One heartbeat tick; `eta_s` is null until a job has finished.
#[rustfmt::skip]
const TICK: Table = untagged(&[
    field("t_s", Num), field("done", Num), field("total", Num),
    field("jobs_per_sec", Num), nullable("eta_s", Num), field("workers", Rows(&WORKER_ROW)),
]);

#[rustfmt::skip]
const WORKER_ROW: Table = untagged(&[
    field("worker", Num), field("jobs", Num), field("busy_s", Num), field("utilization", Num),
]);

/// Every schema tag's table. `SCHEMAS.lock` is printed from these
/// (`tests/schema_lock.rs`).
pub const TABLES: [&Table; 6] = [
    &SWEEP,
    &RECORD,
    &FORENSICS,
    &DEGRADATION,
    &SCALE,
    &TIMESERIES,
];

impl Kind {
    /// Whether `v` is a value of this kind, and how an error names it.
    fn check(self, v: &JsonValue) -> (bool, &'static str) {
        match self {
            Num => (v.as_f64().is_some(), "a number"),
            Str => (v.as_str().is_some(), "a string"),
            Bool => (matches!(v, JsonValue::Bool(_)), "a boolean"),
            True => (*v == JsonValue::Bool(true), "true"),
            List | Rows(_) => (v.as_array().is_some(), "an array"),
            Obj(_) => (matches!(v, JsonValue::Object(_)), "an object"),
        }
    }
}

/// A position in a parsed document: a value plus the path that reached it
/// (`$` is the root, as in JSONPath), so every accessor can name the field
/// it rejects. Documents come from outside the program: a failed read is
/// `Err("<path>.<field> missing")` or `"… must be …"`, never a panic.
struct Cur<'a> {
    path: String,
    v: &'a JsonValue,
}

/// Parse `doc` and hand `check` a cursor on its root.
fn with_root<T>(doc: &str, check: impl FnOnce(&Cur) -> Result<T, String>) -> Result<T, String> {
    let v = parse(doc).map_err(|e| format!("not JSON: {e}"))?;
    let path = "$".to_string();
    check(&Cur { path, v: &v })
}

impl<'a> Cur<'a> {
    /// `<path>.<field>` — how error messages name a field.
    fn name(&self, field: &str) -> String {
        format!("{}.{field}", self.path)
    }

    /// `Err("<path>.<field> <rule>")` — how a broken rule is reported.
    fn fail<T>(&self, field: &str, rule: &str) -> Result<T, String> {
        Err(format!("{} {rule}", self.name(field)))
    }

    /// [`Cur::fail`] unless `ok`.
    fn ensure(&self, ok: bool, field: &str, rule: &str) -> Result<(), String> {
        if ok {
            return Ok(());
        }
        self.fail(field, rule)
    }

    /// Read `field` through `pick`: absent is "missing", a value `pick`
    /// refuses is "must be `want`".
    fn get<T>(
        &self,
        field: &str,
        want: &str,
        pick: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.v.get(field);
        let v = v.ok_or_else(|| format!("{} missing", self.name(field)))?;
        pick(v).ok_or_else(|| format!("{} must be {want}, got {v:?}", self.name(field)))
    }

    /// Walk `table` over this object: its tag first, if it has one, then
    /// every field — present unless optional, of its kind or a permitted
    /// `null`, and nested tables walked in turn.
    fn walk(&self, table: &Table) -> Result<(), String> {
        if let Some(tag) = table.tag {
            self.tagged(tag)?;
        }
        for f in table.fields {
            let v = match self.v.get(f.key) {
                None if f.required => return Err(format!("{} missing", self.name(f.key))),
                None => continue,
                Some(JsonValue::Null) if f.nullable => continue,
                Some(v) => v,
            };
            let (holds, want) = f.kind.check(v);
            if !holds {
                let or_null = if f.nullable { " or null" } else { "" };
                let name = self.name(f.key);
                return Err(format!("{name} must be {want}{or_null}, got {v:?}"));
            }
            match f.kind {
                Obj(nested) => self.obj(f.key)?.walk(nested)?,
                Rows(nested) => self.rows(f.key)?.iter().try_for_each(|r| r.walk(nested))?,
                _ => {}
            }
        }
        Ok(())
    }

    fn num(&self, field: &str) -> Result<f64, String> {
        self.get(field, "a number", JsonValue::as_f64)
    }

    fn str(&self, field: &str) -> Result<&'a str, String> {
        self.get(field, "a string", JsonValue::as_str)
    }

    fn obj(&self, field: &str) -> Result<Cur<'a>, String> {
        let path = self.name(field);
        let as_obj =
            |v: &'a JsonValue| matches!(v, JsonValue::Object(_)).then_some(Cur { path, v });
        self.get(field, "an object", as_obj)
    }

    /// `field`'s value unless it is `null` (or absent): how rules read a
    /// nullable field the table walk has already typed.
    fn present(&self, field: &str) -> Option<&'a JsonValue> {
        self.v.get(field).filter(|v| **v != JsonValue::Null)
    }

    /// The elements of the array `field`, each at `<path>.<field>[i]`.
    fn rows(&self, field: &str) -> Result<Vec<Cur<'a>>, String> {
        let rows = self.get(field, "an array", JsonValue::as_array)?;
        let name = self.name(field);
        let paths = (0..).map(|i| format!("{name}[{i}]"));
        Ok(paths.zip(rows).map(|(path, v)| Cur { path, v }).collect())
    }

    /// A number that must be finite and `> 0`.
    fn positive(&self, field: &str) -> Result<f64, String> {
        let x = self.num(field)?;
        self.ensure(x.is_finite() && x > 0.0, field, "must be positive")?;
        Ok(x)
    }

    /// A number that must lie in `range`.
    fn within(&self, field: &str, range: impl RangeBounds<f64> + Debug) -> Result<f64, String> {
        let x = self.num(field)?;
        if range.contains(&x) {
            return Ok(x);
        }
        self.fail(field, &format!("{x} outside {range:?}"))
    }

    /// A flag the artifact's producer asserted: only literal `true` passes.
    fn asserts_true(&self, field: &str) -> Result<(), String> {
        let asserted = |v: &JsonValue| (*v == JsonValue::Bool(true)).then_some(());
        self.get(field, "true", asserted)
    }

    /// This object's own `schema` field must be exactly `expected`.
    fn tagged(&self, expected: &str) -> Result<(), String> {
        let tag = self.str("schema")?;
        if tag == expected {
            return Ok(());
        }
        self.fail("schema", &format!("{tag:?} unexpected (want {expected:?})"))
    }
}

/// The quantization axis of the degradation bench: at least one
/// finite-`k` row, `k ≥ 1` strictly ascending, then exactly one `k: null`
/// row — the exact-LSTF (K = ∞) reference. Returns `(finite, exact)`.
fn k_axis<'a>(doc: &Cur<'a>, field: &str) -> Result<(Vec<Cur<'a>>, Cur<'a>), String> {
    let mut rows = doc.rows(field)?;
    let exact = match rows.pop() {
        Some(last) if !rows.is_empty() && last.present("k").is_none() => last,
        _ => return doc.fail(field, "needs finite-K rows, then the k = null (exact) row"),
    };
    let mut prev = 0.0;
    for r in &rows {
        let k = r.num("k")?;
        r.ensure(k >= 1.0 && k > prev, "k", "must be ≥ 1 and ascend")?;
        prev = k;
    }
    Ok((rows, exact))
}

/// The failure-intensity axis of the degradation bench: the
/// zero-failure baseline first, then at least one churn row, `rate`
/// strictly ascending within [0, 1].
fn rate_axis<'a>(doc: &Cur<'a>, field: &str) -> Result<Vec<Cur<'a>>, String> {
    let rows = doc.rows(field)?;
    let mut prev = f64::NEG_INFINITY;
    for r in &rows {
        let rate = r.within("rate", 0.0..=1.0)?;
        r.ensure(rate > prev, "rate", "must ascend")?;
        prev = rate;
    }
    let baseline_first = rows.len() >= 2 && rows[0].num("rate")? == 0.0;
    let rule = "needs the zero-failure (rate 0) row first, then at least one churn row";
    doc.ensure(baseline_first, field, rule)?;
    Ok(rows)
}

/// The two count families of [`FORENSICS`], in emission order: the five
/// mismatch causes, then the five first-divergent-hop inversion classes.
#[rustfmt::skip]
const DIVERGENCE_FAMILIES: [[&str; 5]; 2] = [
    ["overdue_within_t", "overdue_beyond_t", "missing_in_replay", "dead_link_drop", "buffer_drop"],
    ["rank_tie_break", "bucket_collision", "reroute", "queue_overflow", "exit_only"],
];

/// The [`FORENSICS`] rule: each mismatched packet got exactly one cause
/// and one inversion class, so both families must sum back to
/// `mismatches` — a block that doesn't is corrupt attribution, not a
/// schema quirk. Returns the mismatch count.
fn conserved(d: &Cur) -> Result<u64, String> {
    let mismatches = d.num("mismatches")?;
    for family in DIVERGENCE_FAMILIES {
        let mut sum = 0.0;
        for name in family {
            sum += d.num(name)?;
        }
        if sum != mismatches {
            let family = family.join(" + ");
            let rule = format!("is {mismatches} but {family} = {sum} — not conserved");
            return d.fail("mismatches", &rule);
        }
    }
    Ok(mismatches as u64)
}

/// Validate a `BENCH_sweep.json` document: the [`SWEEP_SCHEMA`] envelope
/// and every [`RECORD_SCHEMA`] line in it. Any other version of either
/// tag is rejected by name. Every failure is a `Result::Err` naming the
/// offending field — never a panic — so `sweep --check` can print a
/// usable diagnosis.
pub fn validate_bench_sweep(doc: &str) -> Result<SweepDigest, String> {
    with_root(doc, |doc| {
        doc.walk(&SWEEP)?;
        sweep_rules(doc)
    })
}

/// The [`SWEEP`] rules: `jobs` counts the results, which run densely in
/// job-id order, and each is a consistent [`record_rules`] line.
fn sweep_rules(doc: &Cur) -> Result<SweepDigest, String> {
    let jobs = doc.num("jobs")? as usize;
    let workers = doc.num("workers")? as usize;
    let jobs_per_sec = doc.positive("jobs_per_sec")?;
    let results = doc.rows("results")?;
    if results.len() != jobs {
        return doc.fail("jobs", &format!("is {jobs} for {} results", results.len()));
    }
    for (i, r) in results.iter().enumerate() {
        let id = r.num("job_id")?;
        r.ensure(id as usize == i, "job_id", "breaks the sorted/dense order")?;
        record_rules(r)?;
    }
    Ok(SweepDigest {
        jobs,
        workers,
        jobs_per_sec,
    })
}

/// The [`RECORD`] rules. The optional axes travel together:
/// `queues`⇔`mapper` (and quantized metrics only with them),
/// `failures`⇔`inflight`⇔the `disruption` block; a closed-loop record
/// carries a `transport` block.
fn record_rules(r: &Cur) -> Result<(), String> {
    let s = r.obj("scenario")?;
    let traffic = s.str("traffic")?;
    let open_loop = traffic == "open-loop";
    let known = open_loop || traffic == "closed-loop";
    s.ensure(known, "traffic", "must be open-loop or closed-loop")?;
    let queues = s.present("queues").and_then(JsonValue::as_f64);
    let countable = queues.is_none_or(|k| k >= 1.0);
    s.ensure(countable, "queues", "must be ≥ 1 or null")?;
    let paired = queues.is_some() == s.present("mapper").is_some();
    s.ensure(paired, "queues", "and mapper must be set together")?;
    let churn = s.present("failures").is_some();
    let paired = match s.present("inflight").and_then(JsonValue::as_str) {
        Some("reroute" | "drop") => churn,
        Some(_) => false,
        None => !churn,
    };
    let rule = "must be reroute/drop exactly when failures is set";
    s.ensure(paired, "inflight", rule)?;

    let m = r.obj("metrics")?;
    if m.present("transport").is_none() {
        m.ensure(open_loop, "transport", "is null on a closed-loop record")?;
    }
    for field in [
        "quantized_match_rate",
        "quantized_frac_gt_t",
        "quantized_fct_delta_s",
    ] {
        let orphan = m.present(field).is_some() && queues.is_none();
        m.ensure(!orphan, field, "set but the scenario has no queues axis")?;
    }
    match m.present("disruption") {
        Some(_) => m.ensure(churn, "disruption", "set on a static-network record")?,
        None => m.ensure(!churn, "disruption", "is null on a failure record")?,
    }
    if m.present("divergence").is_some() {
        conserved(&m.obj("divergence")?)?;
    }
    Ok(())
}

fn sweep(doc: &Cur) -> Result<String, String> {
    let d = sweep_rules(doc)?;
    Ok(format!(
        "{} jobs, {} workers, {:.2} jobs/sec",
        d.jobs, d.workers, d.jobs_per_sec
    ))
}

/// The [`SCALE`] rules, for the `scale` bench's bounded-memory streaming
/// run: the ≥5M-packet and ≥10k-flow floors, packet conservation, peak
/// RSS within the recorded budget, and a differential gate over at least
/// 100k packets (its three `true` flags are in the table).
fn scale(doc: &Cur) -> Result<String, String> {
    let packets = doc.within("packets", 5_000_000.0..)?;
    let flows = doc.within("flows", 10_000.0..)?;
    let conserved = doc.num("delivered")? + doc.num("dropped")? == packets;
    doc.ensure(conserved, "delivered", "+ dropped must equal packets")?;
    let budget = doc.num("rss_budget_bytes")?;
    let peak = doc.within("peak_rss_bytes", f64::MIN_POSITIVE..=budget)?;
    doc.positive("packets_per_sec")?;
    let match_rate = doc.within("replay_match_rate", 0.0..=1.0)?;
    doc.within("replay_frac_gt_t", 0.0..=1.0)?;
    let diff = doc.obj("differential")?;
    diff.within("workload_packets", 100_000.0..)?;
    Ok(format!(
        "{packets} packets / {flows} flows streamed, peak RSS {:.1} MiB, match rate {match_rate:.4}",
        peak / (1024.0 * 1024.0)
    ))
}

/// The [`TIMESERIES`] rules: a non-empty history of ticks, all of one
/// sweep (one `total`), with monotone `t_s`/`done`, one row per worker on
/// every tick in worker order, and a final completion tick where
/// `done == total`.
fn timeseries(doc: &Cur) -> Result<String, String> {
    let workers = doc.within("workers", 1.0..)?;
    let wall_s = doc.within("wall_s", 0.0..)?;
    let ticks = doc.rows("heartbeats")?;
    let rule = "is empty (the completion tick always fires)";
    let Some(first) = ticks.first() else {
        return doc.fail("heartbeats", rule);
    };
    let total = first.num("total")?;
    let (mut last_t, mut last_done) = (f64::NEG_INFINITY, 0.0);
    for tick in &ticks {
        let rule = "must equal the first tick's total";
        tick.ensure(tick.num("total")? == total, "total", rule)?;
        // Progress never runs backwards, and never past the total.
        let t_s = tick.within("t_s", last_t..)?;
        let done = tick.within("done", last_done..=total)?;
        let rows = tick.rows("workers")?;
        let rule = "must hold one row per pool worker";
        tick.ensure(rows.len() == workers as usize, "workers", rule)?;
        for (i, row) in rows.iter().enumerate() {
            let rule = format!("must be {i}, the row's index");
            row.ensure(row.num("worker")? == i as f64, "worker", &rule)?;
        }
        (last_t, last_done) = (t_s, done);
    }
    let rule = "must end on the completion tick (done == total)";
    doc.ensure(last_done == total, "heartbeats", rule)?;
    Ok(format!(
        "{} heartbeat ticks over {wall_s:.2}s, {last_done} jobs on {workers} workers",
        ticks.len()
    ))
}

/// The [`DEGRADATION`] rules, for the `degradation` bench's two curves:
/// both axes ([`k_axis`], [`rate_axis`]), a conserved attribution on
/// every row, both bit-identity flags asserted — and the one cell the
/// axes share. The `k = null` row (exact LSTF, eager drive) and the
/// `rate = 0` row (no churn, lazy drive) replay the same static schedule,
/// so they must agree on what was compared and how much of it matched.
fn degradation(doc: &Cur) -> Result<String, String> {
    let (finite, exact) = k_axis(doc, "quantization")?;
    let failures = rate_axis(doc, "failures")?;
    let mut mismatches = 0;
    for r in finite.iter().chain([&exact]).chain(&failures) {
        mismatches += conserved(&r.obj("divergence")?)?;
    }
    exact.asserts_true("bit_identical_to_exact_lstf")?;
    // `rate_axis` returned at least two rows.
    let (baseline, worst) = (&failures[0], &failures[failures.len() - 1]);
    baseline.asserts_true("bit_identical_to_static_routing")?;
    for field in ["compared", "match_rate"] {
        let (eager, lazy) = (exact.num(field)?, baseline.num(field)?);
        let rule = format!(
            "is {lazy} but {} is {eager} — both rows replay the static schedule exactly",
            exact.name(field)
        );
        baseline.ensure(eager == lazy, field, &rule)?;
    }
    Ok(format!(
        "{} quantization rows + {} failure rows, match rate {:.4} (exact, static) -> {:.4} (worst churn), \
         {mismatches} mismatches attributed (conserved)",
        finite.len() + 1,
        failures.len(),
        baseline.num("match_rate")?,
        worst.num("match_rate")?
    ))
}

/// A family's cross-field rules, run once its table's walk has passed;
/// they return the one-line confirmation.
type Rules = fn(&Cur) -> Result<String, String>;

/// Every tag a document may open with, with its table and rules. A tag
/// is listed only while a committed artifact or a CI step produces it;
/// an older version of a listed tag is rejected like any unknown one.
const FAMILIES: [(&Table, Rules); 4] = [
    (&SWEEP, sweep),
    (&DEGRADATION, degradation),
    (&SCALE, scale),
    (&TIMESERIES, timeseries),
];

/// Validate any tagged artifact — the one entry point behind
/// `sweep --validate`, the benches' write-then-check and
/// `tests/artifacts.rs`. Parses `doc` once, dispatches on its top-level
/// `schema` tag, walks that tag's table and runs its rules, and returns
/// the family's one-line confirmation. An unknown tag is an error naming
/// it; every other failure names the offending field.
pub fn validate_artifact(doc: &str) -> Result<String, String> {
    with_root(doc, |root| {
        let tag = root.str("schema")?;
        match FAMILIES.iter().find(|(table, _)| table.tag == Some(tag)) {
            Some((table, rules)) => {
                root.walk(table)?;
                rules(root)
            }
            None => {
                let accepted = FAMILIES.map(|(table, _)| table.tag.unwrap_or_default());
                root.fail("schema", &format!("{tag:?} is not one of {accepted:?}"))
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Failures, JobSpec, Queues, Scheduler, TrafficMode};
    use crate::runner::{run_job_shared, SharedScenarios};
    use ups_dynamics::FailureProfile;
    use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind};

    /// A small real job. The records below come from the runner itself,
    /// so these tests also pin that what it emits is what the store accepts.
    fn spec(job_id: usize) -> JobSpec {
        JobSpec {
            job_id,
            topology: "Line(3)",
            profile: "fixed-mtu",
            scheduler: Scheduler::from_name("Random").unwrap(),
            traffic: TrafficMode::OpenLoop,
            rest_bps: None,
            utilization: 0.6,
            seed: 11,
            window: Dur::from_ms(4),
            horizon: None,
            buffer_bytes: None,
            replay: true,
            queues: None,
            failures: None,
            max_packets: None,
        }
    }

    fn run(spec: JobSpec) -> JobRecord {
        run_job_shared(&spec, &SharedScenarios::for_jobs(&[]))
    }

    /// The aggregate over `records`, as a one-worker sweep writes it.
    fn aggregate(records: &[JobRecord]) -> String {
        let (_, stats) = crate::pool::run_jobs(records, 1, |_, _| ());
        bench_sweep_json(&ScenarioGrid::default(), records, &stats, 1.0)
    }

    /// `doc` must be rejected with `needle` — the offending field and the
    /// broken rule — in the message.
    fn rejects(doc: &str, needle: &str) {
        let err = validate_artifact(doc).expect_err("must be rejected");
        assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
    }

    #[test]
    fn aggregate_validates_sorted_and_digest_matches() {
        // Hand the records in completion order; the artifact must not care.
        let doc = aggregate(&[run(spec(1)), run(spec(0))]);
        let digest = validate_bench_sweep(&doc).expect("valid artifact");
        let (jobs, workers, jobs_per_sec) = (2, 1, 2.0);
        let want = SweepDigest {
            jobs,
            workers,
            jobs_per_sec,
        };
        assert_eq!(digest, want);
        let line = validate_artifact(&doc);
        assert_eq!(line.as_deref(), Ok("2 jobs, 1 workers, 2.00 jobs/sec"));
    }

    #[test]
    fn validation_rejects_broken_artifacts() {
        let good = aggregate(&[run(spec(0))]);
        assert!(validate_bench_sweep("not json").is_err());
        assert!(validate_bench_sweep("{}").is_err());
        rejects("{}", "$.schema missing");
        // An unknown tag is named, by either entry point.
        let wrong_schema = good.replace(SWEEP_SCHEMA, "ups-sweep/v0");
        rejects(&wrong_schema, "$.schema \"ups-sweep/v0\" is not one of");
        let err = validate_bench_sweep(&wrong_schema).unwrap_err();
        assert!(err.contains("\"ups-sweep/v0\" unexpected"), "{err}");
        let missing_metric = good.replace(r#""jain":"#, r#""gain":"#);
        rejects(&missing_metric, "$.results[0].metrics.jain missing");
        // A bogus traffic label is caught.
        let bad_traffic = good.replace(r#""traffic":"open-loop""#, r#""traffic":"sideways""#);
        rejects(&bad_traffic, "$.results[0].scenario.traffic must be");
        // One version per tag: a record line from the future and the
        // formats no committed artifact or CI step produces any more are
        // all rejected by name, envelope and record line alike.
        for old in ["ups-sweep/v1", "ups-sweep/v4"] {
            let needle = format!("$.schema {old:?} is not one of");
            rejects(&good.replace(SWEEP_SCHEMA, old), &needle);
        }
        for other in ["ups-sweep-record/v4", "ups-sweep-record/v9"] {
            let needle = format!("$.results[0].schema {other:?} unexpected");
            rejects(&good.replace(RECORD_SCHEMA, other), &needle);
        }
    }

    #[test]
    fn every_record_flavour_validates_and_its_pairings_are_enforced() {
        // Open-loop, closed-loop, quantized and failure records in one
        // aggregate.
        let closed = JobSpec {
            traffic: TrafficMode::ClosedLoop,
            horizon: Some(Dur::from_ms(40)),
            ..spec(1)
        };
        let quantized = JobSpec {
            queues: Some(Queues {
                k: 1,
                mapper: MapperKind::Dynamic,
            }),
            ..spec(2)
        };
        let churn = JobSpec {
            topology: "FatTree(k=4)",
            failures: Some(Failures {
                profile: FailureProfile::RandomLinks,
                rate: 0.6,
                inflight: DeadLinkPolicy::Reroute,
            }),
            ..spec(3)
        };
        let doc = aggregate(&[run(spec(0)), run(closed), run(quantized), run(churn)]);
        validate_bench_sweep(&doc).expect("current artifact validates");
        // The forensics conservation law: inflating the mismatch count
        // breaks Σ causes == mismatches and must be rejected...
        let unconserved = doc.replace(r#"v1","mismatches":"#, r#"v1","mismatches":1"#);
        rejects(&unconserved, "divergence.mismatches is 1");
        // ...and so does inflating one inversion count.
        let unconserved = doc.replace(r#""exit_only":"#, r#""exit_only":1"#);
        rejects(&unconserved, "+ queue_overflow + exit_only = 1");
        // A divergence block without its own schema tag is rejected.
        let untagged = doc.replace(r#"{"schema":"ups-forensics/v1","#, "{");
        rejects(&untagged, "metrics.divergence.schema missing");
        // A closed-loop record carries its transport block.
        let bare = doc.replace(r#""transport":{"#, r#""transport":null,"x":{"#);
        rejects(&bare, "metrics.transport is null on a closed-loop");
        // queues and mapper must travel together.
        let torn = doc.replace(r#""mapper":"dynamic""#, r#""mapper":null"#);
        rejects(&torn, "scenario.queues and mapper must be set together");
        // Quantized metrics without the axis are inconsistent.
        let orphan = doc.replace(r#"zed_match_rate":null"#, r#"zed_match_rate":0.5"#);
        rejects(
            &orphan,
            "quantized_match_rate set but the scenario has no queues",
        );
        // failures and inflight must travel together (the grid's own
        // `inflight` default is left alone).
        let (envelope, results) = doc.split_at(doc.find(r#""results""#).unwrap());
        let torn =
            envelope.to_owned() + &results.replace(r#""inflight":"reroute""#, r#""inflight":null"#);
        rejects(&torn, "$.results[3].scenario.inflight must be reroute/drop");
        // A failure record must carry its disruption block...
        let gone = doc.replace(r#""disruption":{"#, r#""disruption":null,"x":{"#);
        rejects(&gone, "metrics.disruption is null on a failure record");
        // ...and a static record must not.
        let block = r#""disruption":{"links_failed":1,"rerouted":0,"dropped_at_dead_link":0,"churn_replay_match_rate":null}"#;
        let sprouted = doc.replacen(r#""disruption":null"#, block, 1);
        rejects(
            &sprouted,
            "metrics.disruption set on a static-network record",
        );
    }

    /// One conserved `ups-forensics/v1` block as a JSON fragment:
    /// causes 5 + 2 + 1 = 8, inversions 4 + 3 + 1 = 8.
    const DIV_BLOCK: &str = r#"{"schema":"ups-forensics/v1","mismatches":8,
      "overdue_within_t":5,"overdue_beyond_t":2,"missing_in_replay":1,
      "dead_link_drop":0,"buffer_drop":0,
      "rank_tie_break":4,"bucket_collision":3,"reroute":0,"queue_overflow":0,"exit_only":1,
      "hop_lateness_p50_s":1.2e-6,"hop_lateness_p99_s":9.0e-6,
      "top_nodes":[{"node":2,"mismatches":5},{"node":9,"mismatches":3}]}"#;

    fn degradation_doc() -> String {
        format!(
            r#"{{
  "schema": "ups-bench-degradation/v1",
  "scenario": {{"topology": "FatTree(k=4)", "original": "Random", "mapper": "sppifo",
               "profile": "random-links", "inflight": "reroute",
               "utilization": 0.7, "seed": 42, "packets": 20000, "flows": 41,
               "window_ms": 8.0}},
  "quantization": [
    {{"k": 1, "mean_fct_s": 0.011, "compared": 20000, "match_rate": 0.42, "frac_gt_t": 0.3,
      "missing": 0, "max_lateness_us": 4.8, "divergence": {d}}},
    {{"k": 8, "mean_fct_s": 0.009, "compared": 20000, "match_rate": 0.9, "frac_gt_t": 0.01,
      "missing": 0, "max_lateness_us": 4.8, "divergence": {d}}},
    {{"k": null, "mean_fct_s": 0.008, "compared": 20000, "match_rate": 0.99, "frac_gt_t": 0.0,
      "missing": 0, "max_lateness_us": 4.8, "bit_identical_to_exact_lstf": true, "divergence": {d}}}
  ],
  "failures": [
    {{"rate": 0, "links_failed": 0, "rerouted": 0, "dropped_at_dead_link": 0,
      "delivered": 20000, "compared": 20000, "match_rate": 0.99, "frac_gt_t": 0.0,
      "missing": 0, "max_lateness_us": 4.8, "bit_identical_to_static_routing": true, "divergence": {d}}},
    {{"rate": 0.25, "links_failed": 8, "rerouted": 900, "dropped_at_dead_link": 12,
      "delivered": 19988, "compared": 19988, "match_rate": 0.93, "frac_gt_t": 0.02,
      "missing": 0, "max_lateness_us": 4.8, "divergence": {d}}},
    {{"rate": 0.5, "links_failed": 16, "rerouted": 2100, "dropped_at_dead_link": 60,
      "delivered": 19940, "compared": 19940, "match_rate": 0.81, "frac_gt_t": 0.09,
      "missing": 0, "max_lateness_us": 4.8, "divergence": {d}}}
  ]
}}"#,
            d = DIV_BLOCK
        )
    }

    #[test]
    fn degradation_bench_artifact_validates() {
        let doc = degradation_doc();
        // 8 mismatches per row × 6 rows.
        let want = "3 quantization rows + 3 failure rows, match rate 0.9900 (exact, static) -> \
                    0.8100 (worst churn), 48 mismatches attributed (conserved)";
        assert_eq!(validate_artifact(&doc).as_deref(), Ok(want));
        // The tag picks the validator: a relabelled document fails the
        // other family's first requirement.
        let relabelled = doc.replace("ups-bench-degradation/v1", SWEEP_SCHEMA);
        rejects(&relabelled, "$.grid missing");
        // Conservation is enforced per row.
        let unconserved = doc.replacen(r#""overdue_within_t":5"#, r#""overdue_within_t":6"#, 1);
        rejects(
            &unconserved,
            "$.quantization[0].divergence.mismatches is 8 but",
        );
        // K must ascend and end at the k = null exact row, which asserts
        // bit-identity with the unbounded dynamic mapper.
        let shuffled = doc.replace(r#""k": 8"#, r#""k": 1"#);
        rejects(&shuffled, "$.quantization[1].k must be ≥ 1 and ascend");
        let no_exact = doc.replace(r#""k": null"#, r#""k": 64"#);
        rejects(
            &no_exact,
            "$.quantization needs finite-K rows, then the k = null (exact)",
        );
        let lax = doc.replace("lstf\": true", "lstf\": false");
        rejects(&lax, "bit_identical_to_exact_lstf must be true");
        let missing = doc.replace(r#""mean_fct_s": 0.009, "#, "");
        rejects(&missing, "$.quantization[1].mean_fct_s missing");
        // The failure axis ascends from the zero-failure baseline, which
        // asserts bit-identity with static routing.
        let no_zero = doc.replace(r#""rate": 0,"#, r#""rate": 0.1,"#);
        rejects(&no_zero, "$.failures needs the zero-failure (rate 0) row");
        let shuffled = doc.replace(r#""rate": 0.25"#, r#""rate": 0.75"#);
        rejects(&shuffled, "$.failures[2].rate must ascend");
        let lax = doc.replace("routing\": true", "routing\": false");
        rejects(&lax, "bit_identical_to_static_routing must be true");
        let missing = doc.replace(r#""rerouted": 900, "#, "");
        rejects(&missing, "$.failures[1].rerouted missing");
        // Both axes are mandatory.
        let axisless = doc.replace(r#""failures""#, r#""failurez""#);
        rejects(&axisless, "$.failures missing");
    }

    /// The `k = null` and `rate = 0` rows are one cell — the exact replay
    /// of the static schedule — reached through the two drive forms.
    #[test]
    fn degradation_axes_must_agree_on_their_shared_cell() {
        let doc = degradation_doc();
        let baseline = r#""delivered": 20000, "compared": 20000, "match_rate": 0.99"#;
        assert!(doc.contains(baseline));
        let fewer = doc.replace(
            baseline,
            r#""delivered": 20000, "compared": 19999, "match_rate": 0.99"#,
        );
        rejects(
            &fewer,
            "$.failures[0].compared is 19999 but $.quantization[2].compared is 20000",
        );
        let worse = doc.replace(
            baseline,
            r#""delivered": 20000, "compared": 20000, "match_rate": 0.57"#,
        );
        rejects(
            &worse,
            "$.failures[0].match_rate is 0.57 but $.quantization[2].match_rate is 0.99",
        );
    }

    const SCALE_DOC: &str = r#"{
  "schema": "ups-bench-scale/v1",
  "scenario": {"topology": "FatTree(k=8)", "scheduler": "FIFO", "utilization": 0.7,
               "flow_bytes": 150000, "window_ms": 128, "seed": 42},
  "packets": 5401700,
  "flows": 54017,
  "delivered": 5401700,
  "dropped": 0,
  "peak_rss_bytes": 239599616,
  "rss_budget_bytes": 536870912,
  "packets_per_sec": 205074,
  "replay_match_rate": 0.948206,
  "replay_frac_gt_t": 0.027197,
  "differential": {"workload_packets": 120000, "records_identical": true,
                   "reports_identical": true, "summaries_identical": true}
}"#;

    #[test]
    fn scale_bench_artifact_validates() {
        let line = validate_artifact(SCALE_DOC);
        let want = "5401700 packets / 54017 flows streamed, peak RSS 228.5 MiB, match rate 0.9482";
        assert_eq!(line.as_deref(), Ok(want));
        // The bench's floors are part of validity, not just presence.
        let small = SCALE_DOC.replace(r#""packets": 5401700"#, r#""packets": 400000"#);
        rejects(&small, "$.packets 400000 outside 5000000");
        let few = SCALE_DOC.replace(r#""flows": 54017"#, r#""flows": 5000"#);
        rejects(&few, "$.flows 5000 outside 10000");
        // Peak RSS must sit inside the recorded budget.
        let blown = SCALE_DOC.replace(r#"_bytes": 239599616"#, r#"_bytes": 639599616"#);
        rejects(&blown, "$.peak_rss_bytes 639599616 outside");
        // Conservation: delivered + dropped == packets.
        let leaky = SCALE_DOC.replace(r#""dropped": 0"#, r#""dropped": 7"#);
        rejects(&leaky, "$.delivered + dropped must equal packets");
        // The differential gate must be green across all three layers.
        let diverged = SCALE_DOC.replace("summaries_identical\": true", "summaries_identical\": 0");
        rejects(&diverged, "$.differential.summaries_identical must be true");
    }

    const TIMESERIES_DOC: &str = r#"{
  "schema": "ups-obs-timeseries/v3",
  "workers": 2,
  "wall_s": 1.25,
  "heartbeats": [
    {"t_s": 0.5, "done": 4, "total": 8, "jobs_per_sec": 8.0, "eta_s": 0.5,
     "workers": [
       {"worker": 0, "jobs": 2, "busy_s": 0.4, "utilization": 0.8},
       {"worker": 1, "jobs": 2, "busy_s": 0.3, "utilization": 0.6}]},
    {"t_s": 1.25, "done": 8, "total": 8, "jobs_per_sec": 6.4, "eta_s": 0.0,
     "workers": [
       {"worker": 0, "jobs": 5, "busy_s": 1.1, "utilization": 0.88},
       {"worker": 1, "jobs": 3, "busy_s": 0.9, "utilization": 0.72}]}
  ]
}"#;

    #[test]
    fn timeseries_artifact_validates() {
        let line = validate_artifact(TIMESERIES_DOC);
        let want = "2 heartbeat ticks over 1.25s, 8 jobs on 2 workers";
        assert_eq!(line.as_deref(), Ok(want));
        // Progress can never run backwards.
        let tick = |t_s: &str, done: &str| {
            let tick = format!(r#""t_s": {t_s}, "done": {done}"#);
            TIMESERIES_DOC.replace(r#""t_s": 1.25, "done": 8"#, &tick)
        };
        rejects(&tick("0.25", "8"), "heartbeats[1].t_s 0.25 outside 0.5..");
        rejects(&tick("1.25", "3"), "heartbeats[1].done 3 outside 4.0..=8.0");
        // The completion tick must show a finished sweep.
        rejects(
            &tick("1.25", "6"),
            "$.heartbeats must end on the completion tick",
        );
        // Worker rows must cover the whole pool on every tick.
        let missing = TIMESERIES_DOC.replace(r#""workers": 2,"#, r#""workers": 3,"#);
        rejects(
            &missing,
            "$.heartbeats[0].workers must hold one row per pool worker",
        );
        // The pool always takes at least the completion tick.
        let empty = r#"{"schema": "ups-obs-timeseries/v3", "workers": 1,
                        "wall_s": 0.0, "heartbeats": []}"#;
        rejects(
            empty,
            "$.heartbeats is empty (the completion tick always fires)",
        );
    }

    #[test]
    fn timeseries_ticks_share_one_total() {
        let grown = TIMESERIES_DOC.replace(r#""done": 4, "total": 8"#, r#""done": 4, "total": 6"#);
        rejects(
            &grown,
            "$.heartbeats[1].total must equal the first tick's total",
        );
    }

    #[test]
    fn timeseries_worker_rows_are_in_worker_order() {
        let swapped = TIMESERIES_DOC.replacen(r#""worker": 0"#, r#""worker": 1"#, 1);
        rejects(&swapped, "$.heartbeats[0].workers[0].worker must be 0");
    }

    #[test]
    fn stream_appends_one_line_per_record() {
        let dir = std::env::temp_dir().join("ups-sweep-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("records.jsonl");
        let stream = ResultStream::create(&path).unwrap();
        stream.append(&run(spec(0)));
        stream.append(&run(spec(1)));
        let content = std::fs::read_to_string(stream.path()).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = parse(line).expect("each line parses alone");
            assert_eq!(v.get("schema").unwrap().as_str(), Some(RECORD_SCHEMA));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
