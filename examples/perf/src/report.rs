//! What a run prints and writes: the human tables, the result line the
//! driver reads, the machine-readable document and the trace file.

use std::process::Command;

use ups::metrics::Table;
use ups::sweep::json::JsonValue;

use crate::harness::{num, obj, text, Recorder, Stat};
use crate::workloads::Attrs;
use crate::{bench_dir, nproc, Args, Decl, Metric, Outcome};

pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.6}")
    }
}

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

fn percent(share: f64) -> String {
    format!("{:.1}%", share * 100.0)
}

/// Self time per span name of a rep, with its share of the rep wall.
fn span_rows(rep: &Recorder) -> Vec<(&'static str, f64, u64, f64)> {
    let wall = rep.duration_of("rep");
    rep.self_times()
        .into_iter()
        .map(|(name, self_s, count)| (name, self_s, count, self_s / wall))
        .collect()
}

/// Every metric by name with unit and bound; on a traced run also the
/// per-layer table, the kernel rows' estimated shares and the span table.
pub fn print_tables(args: &Args, decl: &Decl, attrs: &Attrs, o: &Outcome) {
    println!(
        "## {} — seed {}, {} packets, {} timed rep(s){}{}",
        args.workload,
        args.seed,
        o.reference.packets,
        o.reps,
        if args.trace { ", traced" } else { "" },
        if args.smoke { ", smoke" } else { "" },
    );
    println!(
        "   {} | {} | record {} | injection {} | {} worker(s)",
        attrs.topology, attrs.scheduler, attrs.record, attrs.injection, o.workers
    );
    let mut table = Table::new(&[
        "end-to-end metric",
        "unit",
        "better",
        "bound",
        "median",
        "q1",
        "q3",
        "reps",
    ]);
    for m in &decl.end_to_end {
        let s = &o.end_to_end[m.name.as_str()];
        table.row(&[
            m.name.clone(),
            m.unit.clone(),
            better(m).into(),
            m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            fmt(s.median),
            fmt(s.q1),
            fmt(s.q3),
            s.reps.to_string(),
        ]);
    }
    table.row(&[
        "fail_share".into(),
        "fraction".into(),
        "lower".into(),
        "exact".into(),
        fmt(o.checks.failed as f64 / o.checks.attempted as f64),
        format!("{} failed", o.checks.failed),
        format!("{} attempted", o.checks.attempted),
        o.reps.to_string(),
    ]);
    print!("{}", table.render());
    for f in &o.checks.failures {
        println!("FAILED: {f}");
    }
    let Some([ungated, _]) = &o.traced else {
        return;
    };

    let mut table = Table::new(&["per-layer metric", "unit", "value"]);
    for m in &decl.per_layer {
        table.row(&[m.name.clone(), m.unit.clone(), fmt(o.layers[&m.name])]);
    }
    print!("\n{}", table.render());
    for name in o.layers.keys() {
        if !decl.per_layer.iter().any(|m| m.name == *name) {
            eprintln!("note: {name} is measured but not declared in BENCHMARK.json");
        }
    }

    if !o.kernels.is_empty() {
        let mut table = Table::new(&["kernel row", "ns/op", "ops in gated rep", "est_share"]);
        for k in &o.kernels {
            table.row(&[
                k.name.clone(),
                fmt(o.layers[&k.name]),
                k.ops.to_string(),
                percent(k.est_share),
            ]);
        }
        print!("\n{}", table.render());
    }

    let wall = ungated.duration_of("rep");
    let mut table = Table::new(&["span", "self s", "count", "share of rep wall"]);
    let mut total = 0.0;
    for (name, self_s, count, share) in span_rows(ungated) {
        total += self_s;
        table.row(&[
            name.into(),
            format!("{self_s:.4}"),
            count.to_string(),
            percent(share),
        ]);
    }
    print!("\n{}", table.render());
    println!(
        "span self times sum to {total:.4} s of a {wall:.4} s rep ({:.2}%)",
        total / wall * 100.0
    );
}

/// The spans of a traced run's last pair of reps as trace-event JSON
/// (`chrome://tracing`, Perfetto): one complete event per span, the parent
/// named in `args`; `tid` 1 is the ungated rep, 2 the gated one.
pub fn trace_doc(recs: &[Recorder; 2]) -> JsonValue {
    let mut events = Vec::new();
    for (tid, rec) in recs.iter().enumerate() {
        for s in &rec.spans {
            events.push(obj([
                ("name", text(s.name)),
                ("ph", text("X")),
                ("pid", num(1.0)),
                ("tid", num(tid as f64 + 1.0)),
                ("ts", num(s.start_ns as f64 / 1e3)),
                ("dur", num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    obj([
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| text(rec.spans[p].name)),
                        ),
                        ("aggregated", JsonValue::Bool(s.aggregated)),
                        ("obs_gate", JsonValue::Bool(rec.gate)),
                    ]),
                ),
            ]));
        }
    }
    obj([("traceEvents", JsonValue::Array(events))])
}

/// Where the numbers were taken.
pub fn machine(calib_ns: f64) -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // A checkout without git metadata (the driver's) has no commit to name.
    let git = bench_dir().join("../../.git");
    let commit = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(git.join(r)).ok(),
            None => Some(head),
        })
        .map_or("unknown".into(), |c| c.trim().to_string());
    obj([
        ("nproc", num(nproc() as f64)),
        ("cpu_model", text(cpu)),
        ("rustc", text(rustc)),
        ("commit", text(commit)),
        ("calib.ns_per_iter", num(calib_ns)),
    ])
}

fn metric_doc(m: &Metric, s: &Stat) -> JsonValue {
    obj([
        ("unit", text(m.unit.as_str())),
        ("better", text(better(m))),
        ("bound", m.bound.map_or(JsonValue::Null, num)),
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("reps", num(s.reps as f64)),
    ])
}

/// One workload's entry of the result document.
pub fn workload_doc(args: &Args, decl: &Decl, attrs: &Attrs, why: &str, o: &Outcome) -> JsonValue {
    let spans = o.traced.as_ref().map_or(Vec::new(), |[ungated, _]| {
        span_rows(ungated)
            .into_iter()
            .map(|(name, self_s, count, share)| {
                obj([
                    ("span", text(name)),
                    ("self_s", num(self_s)),
                    ("count", num(count as f64)),
                    ("share", num(share)),
                ])
            })
            .collect()
    });
    obj([
        ("workload", text(args.workload.as_str())),
        ("why", text(why)),
        (
            "attributes",
            obj([
                ("topology", text(attrs.topology)),
                ("scheduler", text(attrs.scheduler)),
                ("record", text(attrs.record)),
                ("injection", text(attrs.injection)),
                ("packets", num(o.reference.packets as f64)),
                ("workers", num(o.workers as f64)),
                ("seed", num(args.seed as f64)),
                ("smoke", JsonValue::Bool(args.smoke)),
                ("traced", JsonValue::Bool(args.trace)),
            ]),
        ),
        (
            "end_to_end",
            obj(decl.end_to_end.iter().map(|m| {
                (
                    m.name.as_str(),
                    metric_doc(m, &o.end_to_end[m.name.as_str()]),
                )
            })),
        ),
        (
            "fail_share",
            obj([
                ("unit", text("fraction")),
                ("better", text("lower")),
                (
                    "value",
                    num(o.checks.failed as f64 / o.checks.attempted as f64),
                ),
                ("attempted", num(o.checks.attempted as f64)),
                ("failed", num(o.checks.failed as f64)),
                (
                    "failures",
                    JsonValue::Array(o.checks.failures.iter().map(text).collect()),
                ),
            ]),
        ),
        (
            "per_layer",
            obj(decl.per_layer.iter().filter_map(|m| {
                let v = o.layers.get(&m.name)?;
                Some((
                    m.name.as_str(),
                    obj([("unit", text(m.unit.as_str())), ("value", num(*v))]),
                ))
            })),
        ),
        (
            "kernel_est_share",
            obj(o.kernels.iter().map(|k| {
                (
                    k.name.as_str(),
                    obj([("ops", num(k.ops as f64)), ("est_share", num(k.est_share))]),
                )
            })),
        ),
        ("spans", JsonValue::Array(spans)),
        (
            "pins",
            obj(o
                .reference
                .pins
                .iter()
                .map(|(k, v)| (k.as_str(), text(v.as_str())))),
        ),
    ])
}

/// The last stdout line: the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.
pub fn result_line(args: &Args, decl: &Decl, o: &Outcome) -> JsonValue {
    let declared = if args.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let metrics = obj(declared.iter().map(|m| {
        let value = if args.trace {
            o.layers[&m.name]
        } else {
            o.end_to_end[m.name.as_str()].median
        };
        (
            m.name.as_str(),
            obj([("value", num(value)), ("unit", text(m.unit.as_str()))]),
        )
    }));
    obj([
        ("correct", JsonValue::Bool(o.checks.failed == 0)),
        ("attempted", num(o.checks.attempted as f64)),
        ("failed", num(o.checks.failed as f64)),
        ("metrics", metrics),
    ])
}
