//! `perf` — the repository's benchmark: four workloads, the end-to-end
//! metrics a user of the replay pipeline sees, and per-layer numbers from a
//! traced run. `BENCHMARK.json` at the repository root declares every
//! workload and metric name, unit, direction and bound; this program reads
//! them from there. README.md is the glossary.
//!
//! ```text
//! perf [--workload NAME|all] [--seed N] [--seconds S | --reps N]
//!      [--trace [0|1]] [--smoke] [--json PATH]
//! perf --selfcheck | --print-expected
//! ```

#![forbid(unsafe_code)]

mod harness;
mod kernels;
mod report;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use ups::metrics::Table;
use ups::obs::Counter;
use ups::sweep::json::{parse, JsonValue};

use harness::{
    json_string, median, obj, peak_rss_mib, quartiles, text, Checks, Recorder, Rep, Stat,
};
use workloads::{Attrs, Cfg, RepFn};

const BENCHMARK: &str = include_str!("../../../BENCHMARK.json");
/// The seed `expected.json` pins.
const DEFAULT_SEED: u64 = 42;
/// Wall a traced run keeps back from its reps for the kernel rows.
const KERNEL_RESERVE_S: f64 = 4.0;
const KERNEL_SLICE: Duration = Duration::from_millis(100);

/// The benchmark's own directory: `examples/perf` under the current
/// directory when the program is run from the repository root (as the
/// driver does), else where it was built.
fn bench_dir() -> &'static Path {
    let here = Path::new("examples/perf");
    if here.join("expected.json").is_file() {
        here
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

// ---- what BENCHMARK.json declares

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: Option<f64>,
}

pub struct Decl {
    run_seconds: f64,
    workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn declared() -> Result<Decl, String> {
    let doc = parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let str_of = |v: &JsonValue, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: missing string {key:?}"))
    };
    let list = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .ok_or(format!("BENCHMARK.json: missing array {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: str_of(m, "name")?,
                    unit: str_of(m, "unit")?,
                    higher_is_better: str_of(m, "better")? == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(Decl {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .ok_or("BENCHMARK.json: missing run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((str_of(w, "name")?, str_of(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

// ---- arguments

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    pub trace: bool,
    pub smoke: bool,
    json: Option<PathBuf>,
    selfcheck: bool,
    /// Regenerate `expected.json`; a run told so skips comparing with it.
    print_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        reps: None,
        trace: false,
        smoke: false,
        json: None,
        selfcheck: false,
        print_expected: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name or `all`")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--reps" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(n);
            }
            "--json" => a.json = Some(PathBuf::from(value("a path")?)),
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` is on.
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            "--print-expected" => a.print_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.smoke {
        // One timed rep of the small inputs.
        a.reps = Some(1);
    }
    Ok(a)
}

// ---- one workload in this process

/// A kernel row with the operations a gated rep performed of its kind.
pub struct KernelShare {
    pub name: String,
    pub ops: u64,
    /// `ns × ops ÷ simulator-loop wall` of the ungated rep.
    pub est_share: f64,
}

/// Everything one run of a workload measured.
pub struct Outcome {
    /// The warm-up rep: the results every later rep repeated.
    pub reference: Rep,
    pub reps: usize,
    pub workers: usize,
    pub end_to_end: BTreeMap<&'static str, Stat>,
    /// Per-layer metrics; empty on an untraced run.
    pub layers: BTreeMap<String, f64>,
    pub kernels: Vec<KernelShare>,
    /// Recorders of the last ungated and gated rep of a traced run.
    pub traced: Option<[Recorder; 2]>,
    pub checks: Checks,
    pub calib_ns: f64,
}

/// The pinned facts of one workload at the default seed.
fn expected_pins(workload: &str) -> Result<BTreeMap<String, String>, String> {
    let path = bench_dir().join("expected.json");
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get(workload) {
        Some(JsonValue::Object(pins)) => Ok(pins
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect()),
        _ => Err(format!("{}: no pins for {workload}", path.display())),
    }
}

fn differing(a: &BTreeMap<String, String>, b: &BTreeMap<String, String>) -> String {
    let keys: Vec<&String> = a
        .keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .collect();
    format!("{keys:?}")
}

/// Operations a gated rep performed per kernel row, for `est_share`.
fn kernel_ops(name: &str, sched_rows: &[&str], rec: &Recorder) -> u64 {
    match name {
        "netsim.eventq_push_pop_ns" => rec.obs.events(),
        "netsim.arena_alloc_free_ns" => rec.obs.counter(Counter::EventsInject),
        // One dequeue per PortReady, split evenly over the workload's
        // original and replay disciplines.
        n if sched_rows.contains(&n) => {
            rec.obs.counter(Counter::EventsPortReady) / sched_rows.len() as u64
        }
        _ => 0,
    }
}

fn measure(args: &Args, decl: &Decl, rep_fn: RepFn, attrs: &Attrs) -> Outcome {
    let mut cfg = Cfg {
        seed: args.seed,
        smoke: args.smoke,
        workers: nproc().min(2),
        verify: false,
    };
    let calib_ns = kernels::calibration();
    let mut checks = Checks::default();

    // Warm-up: untimed, and the reference every later rep must repeat.
    let mut reference = rep_fn(&cfg, &mut Recorder::new(false, false));
    checks.absorb(std::mem::take(&mut reference.checks));
    let rep = |cfg: &Cfg, rec: &mut Recorder, checks: &mut Checks| -> Rep {
        let mut rep = rep_fn(cfg, rec);
        checks.absorb(std::mem::take(&mut rep.checks));
        checks.check(rep.pins == reference.pins, || {
            format!(
                "a rep's results differ from the first rep's in {}",
                differing(&rep.pins, &reference.pins)
            )
        });
        rep
    };

    let seconds = args.seconds.unwrap_or(decl.run_seconds);
    let started = Instant::now();
    let elapsed = || started.elapsed().as_secs_f64();
    let mut ungated: Vec<Rep> = Vec::new();
    let mut gated: Vec<Rep> = Vec::new();
    let mut traced = None;
    if args.trace {
        // Pairs of reps — spans only, then spans and the obs gate — for as
        // long as one more pair fits in what the kernel rows leave.
        let budget = (seconds - KERNEL_RESERVE_S).max(0.0);
        loop {
            let pair_started = elapsed();
            let mut u = Recorder::new(true, false);
            ungated.push(rep(&cfg, &mut u, &mut checks));
            let mut g = Recorder::new(true, true);
            gated.push(rep(&cfg, &mut g, &mut checks));
            traced = Some([u, g]);
            let done = match args.reps {
                Some(n) => ungated.len() >= n,
                None => 2.0 * elapsed() - pair_started > budget,
            };
            if done {
                break;
            }
        }
    } else {
        loop {
            ungated.push(rep(&cfg, &mut Recorder::new(false, false), &mut checks));
            let done = match args.reps {
                Some(n) => ungated.len() >= n,
                None => ungated.len() >= 3 && elapsed() >= seconds,
            };
            if done {
                break;
            }
        }
    }
    // Read before the verification rep, whose twin run is not the workload's.
    let peak_rss = peak_rss_mib();
    if attrs.verifies {
        cfg.verify = true;
        rep(&cfg, &mut Recorder::new(false, false), &mut checks);
    }
    if args.seed == DEFAULT_SEED && !args.smoke && !args.print_expected {
        match expected_pins(&args.workload) {
            Ok(pinned) => checks.check(pinned == reference.pins, || {
                format!(
                    "results differ from expected.json in {}",
                    differing(&pinned, &reference.pins)
                )
            }),
            Err(e) => checks.check(false, || e),
        }
    }

    let of = |f: fn(&Rep) -> f64| Stat::of(&ungated.iter().map(f).collect::<Vec<_>>());
    let n = ungated.len();
    let end_to_end = BTreeMap::from([
        ("pkts_per_s", of(|r| r.packets as f64 / r.pipeline_s)),
        ("setup_s", of(|r| r.setup_s)),
        ("peak_rss_mib", Stat::constant(peak_rss, n)),
        (
            "replay_match_rate",
            Stat::constant(reference.matched / reference.compared, n),
        ),
    ]);

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut kernel_rows = Vec::new();
    if let Some([ungated_rec, gated_rec]) = &traced {
        // Timings are medians over the ungated reps; a gated rep supplies
        // only what it alone measures (the serial TCP pass, the gate).
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &ungated {
            for (name, v) in &r.layers {
                samples.entry(name).or_default().push(*v);
            }
        }
        for (name, v) in gated.iter().flat_map(|r| &r.layers) {
            if !ungated[0].layers.iter().any(|(n, _)| n == name) {
                samples.entry(name).or_default().push(*v);
            }
        }
        for (name, values) in samples {
            layers.insert(name.to_string(), median(&values));
        }
        for (name, v) in workloads::obs_layers(gated_rec) {
            layers.insert(name.to_string(), v);
        }
        let pipeline = |reps: &[Rep]| reps.iter().map(|r| r.pipeline_s).collect::<Vec<_>>();
        let (q1, q2, q3) = quartiles(&pipeline(&ungated));
        layers.insert(
            "obs.trace_overhead".into(),
            median(&pipeline(&gated)) / q2 - 1.0,
        );
        layers.insert("bench.rep_iqr_rel".into(), (q3 - q1) / q2);
        layers.insert("calib.ns_per_iter".into(), calib_ns);

        let sim_wall: f64 = ["netsim.run", "netsim.lazy_run", "dynamics.churn_run"]
            .iter()
            .map(|name| ungated_rec.duration_of(name))
            .sum();
        for (name, ns) in kernels::run(KERNEL_SLICE) {
            let ops = kernel_ops(&name, attrs.sched_rows, gated_rec);
            if ops > 0 && sim_wall > 0.0 {
                kernel_rows.push(KernelShare {
                    name: name.clone(),
                    ops,
                    est_share: ns * ops as f64 / 1e9 / sim_wall,
                });
            }
            layers.insert(name, ns);
        }
        for m in &decl.per_layer {
            // A layer this workload does not exercise reads 0.
            layers.entry(m.name.clone()).or_insert(0.0);
        }
    }

    Outcome {
        reference,
        reps: n,
        workers: cfg.workers,
        end_to_end,
        layers,
        kernels: kernel_rows,
        traced,
        checks,
        calib_ns,
    }
}

/// Run one workload here: measure, print the tables and the result line,
/// write the documents. Returns whether every check passed.
fn run_single(args: &Args, decl: &Decl) -> Result<bool, String> {
    let (rep_fn, attrs) = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    for m in &decl.end_to_end {
        if !["pkts_per_s", "setup_s", "peak_rss_mib", "replay_match_rate"]
            .contains(&m.name.as_str())
        {
            return Err(format!("BENCHMARK.json declares unknown metric {}", m.name));
        }
    }
    let tmp = out_dir().join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // The streaming trace spills to the OS temp directory; keep that inside
    // the benchmark's own directory. No thread exists yet.
    std::env::set_var("TMPDIR", &tmp);

    let outcome = measure(args, decl, rep_fn, &attrs);
    let _ = std::fs::remove_dir(&tmp);
    report::print_tables(args, decl, &attrs, &outcome);
    if let Some(recs) = &outcome.traced {
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        write(&path, &json_string(&report::trace_doc(recs)))?;
        println!("wrote {}", path.display());
    }

    let why = decl
        .workloads
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |(_, w)| w);
    let doc = obj([
        ("benchmark", text("ups-perf")),
        ("machine", report::machine(outcome.calib_ns)),
        (
            "workloads",
            JsonValue::Array(vec![report::workload_doc(
                args, decl, &attrs, why, &outcome,
            )]),
        ),
    ]);
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| out_dir().join("latest.json"));
    write(&path, &json_string(&doc))?;
    println!(
        "{}",
        json_string(&report::result_line(args, decl, &outcome))
    );
    Ok(outcome.checks.failed == 0)
}

// ---- every workload, one process each

fn workloads_of(doc: &JsonValue) -> &[JsonValue] {
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
}

fn name_of(workload: &JsonValue) -> &str {
    workload
        .get("workload")
        .and_then(JsonValue::as_str)
        .unwrap_or("?")
}

fn number_at(workload: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(workload, |v, key| v.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

/// Re-execute this program once per workload, one after another, so that
/// `peak_rss_mib` is each workload's own. Returns the merged document and
/// whether every workload passed.
fn run_all(args: &Args, decl: &Decl) -> Result<(JsonValue, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut docs = Vec::new();
    let mut machine = JsonValue::Null;
    let mut all_ok = true;
    for (name, _) in &decl.workloads {
        let part = out_dir().join(format!("{name}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.arg("--json").arg(&part);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if let Some(n) = args.reps {
            cmd.args(["--reps", &n.to_string()]);
        }
        for (on, flag) in [
            (args.trace, "--trace"),
            (args.smoke, "--smoke"),
            (args.print_expected, "--print-expected"),
        ] {
            if on {
                cmd.arg(flag);
            }
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
        println!();
        let doc = std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let doc = parse(&doc).map_err(|e| format!("{}: {e}", part.display()))?;
        if let Some(m) = doc.get("machine") {
            machine = m.clone();
        }
        docs.extend(workloads_of(&doc).iter().cloned());
    }
    let doc = obj([
        ("benchmark", text("ups-perf")),
        ("machine", machine),
        ("workloads", JsonValue::Array(docs)),
    ]);
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| out_dir().join("latest.json"));
    write(&path, &json_string(&doc))?;

    let mut header = vec!["workload".to_string()];
    header.extend(
        decl.end_to_end
            .iter()
            .map(|m| format!("{} [{}]", m.name, m.unit)),
    );
    header.push("fail_share".into());
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header);
    for w in workloads_of(&doc) {
        let mut row = vec![name_of(w).to_string()];
        row.extend(
            decl.end_to_end
                .iter()
                .map(|m| report::fmt(number_at(w, &["end_to_end", &m.name, "median"]))),
        );
        row.push(report::fmt(number_at(w, &["fail_share", "value"])));
        table.row(&row);
    }
    print!("{}", table.render());
    println!("wrote {}", path.display());
    Ok((doc, all_ok))
}

/// A/A: two back-to-back runs of every workload must agree within each
/// end-to-end metric's own bound and repeat every pinned fact.
fn selfcheck(args: &Args, decl: &Decl) -> Result<bool, String> {
    let (a, ok_a) = run_all(args, decl)?;
    let (b, ok_b) = run_all(args, decl)?;
    let mut ok = ok_a && ok_b;
    let mut table = Table::new(&[
        "workload", "metric", "run A", "run B", "worse by", "bound", "",
    ]);
    for (wa, wb) in workloads_of(&a).iter().zip(workloads_of(&b)) {
        for m in &decl.end_to_end {
            let path = ["end_to_end", m.name.as_str(), "median"];
            let (x, y) = (number_at(wa, &path), number_at(wb, &path));
            // How much worse the worse of the two is, as a share of the other.
            let (good, bad) = if (x < y) == m.higher_is_better {
                (y, x)
            } else {
                (x, y)
            };
            let worse_by = (good - bad).abs() / good.abs();
            let bound = m.bound.unwrap_or(0.0);
            let within = worse_by <= bound;
            ok &= within;
            table.row(&[
                name_of(wa).into(),
                m.name.clone(),
                report::fmt(x),
                report::fmt(y),
                format!("{:.2}%", worse_by * 100.0),
                format!("{:.0}%", bound * 100.0),
                (if within { "ok" } else { "OUTSIDE" }).into(),
            ]);
        }
        let same = wa.get("pins").is_some() && wa.get("pins") == wb.get("pins");
        ok &= same;
        table.row(&[
            name_of(wa).into(),
            "pinned counts and fingerprints".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "exact".into(),
            (if same { "ok" } else { "DIFFER" }).into(),
        ]);
    }
    print!("\n{}", table.render());
    Ok(ok)
}

/// Regenerate `expected.json`: every workload's pinned facts at the default
/// seed, one rep each.
fn print_expected(args: &Args, decl: &Decl) -> Result<bool, String> {
    let args = Args {
        seed: DEFAULT_SEED,
        reps: Some(1),
        seconds: None,
        smoke: false,
        trace: false,
        ..args.clone()
    };
    let (doc, ok) = run_all(&args, decl)?;
    let mut pretty = String::from("{");
    for (i, w) in workloads_of(&doc).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        pretty.push_str(&format!("{sep}\n  \"{}\": {{", name_of(w)));
        if let Some(JsonValue::Object(pins)) = w.get("pins") {
            for (k, (key, value)) in pins.iter().enumerate() {
                let sep = if k > 0 { "," } else { "" };
                pretty.push_str(&format!("{sep}\n    \"{key}\": {}", json_string(value)));
            }
        }
        pretty.push_str("\n  }");
    }
    pretty.push_str("\n}\n");
    let path = bench_dir().join("expected.json");
    write(&path, &pretty)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args()?;
        let decl = declared()?;
        if args.selfcheck {
            selfcheck(&args, &decl)
        } else if args.workload != "all" {
            run_single(&args, &decl)
        } else if args.print_expected {
            print_expected(&args, &decl)
        } else {
            run_all(&args, &decl).map(|(_, ok)| ok)
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
