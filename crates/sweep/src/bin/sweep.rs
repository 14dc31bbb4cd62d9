//! `sweep` — run a declarative scenario grid across all cores.
//!
//! ```text
//! sweep                                   # the 60-job paper-default grid
//! sweep --workers 8 --seeds 1,2,3         # wider, more seeds
//! sweep --topos "Line(3),Dumbbell(4)" --scheds FIFO,LSTF \
//!       --window-ms 2 --max-packets 4000  # CI smoke grid
//! sweep --traffic closed-loop --scheds LSTF \
//!       --rest 1000000000,100000000       # TCP + §3.3 fairness r_est axis
//! sweep --queues 1,2,8 --mapper sppifo    # finite-priority-queue replays
//! sweep --failures none,random-links:0.3 \
//!       --traffic open-loop              # link-failure (churn) sweeps
//! sweep --list                            # registries and disciplines
//! sweep --validate BENCH_sweep.json \
//!       BENCH_degradation.json            # schema-check artifacts (one
//!                                         # entry point, dispatch per tag)
//! sweep explain --topos "Line(3)" --scheds Random --queues 1 \
//!       --top 5 --perfetto explain.json   # attribute one job's divergence
//! ```
//!
//! Writes one JSON line per finished job to `--jsonl` (completion order,
//! live progress), the sorted aggregate to `--out` and, with
//! `--telemetry`, the heartbeat time series; `--check` validates the
//! aggregate before it is written and fails the process, writing
//! neither document, if the artifact doesn't conform.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ups_netsim::prelude::Dur;
use ups_sweep::telemetry::timeseries_json;
use ups_sweep::{
    bench_sweep_json, explain_job, pool, runner, validate_artifact, validate_bench_sweep, Exclude,
    HeartbeatConfig, ResultStream, ScenarioGrid, Scheduler,
};

struct Args {
    grid: ScenarioGrid,
    workers: usize,
    out: PathBuf,
    jsonl: PathBuf,
    telemetry: Option<PathBuf>,
    check: bool,
    quiet: bool,
    list: bool,
    validate: Vec<PathBuf>,
    explain: bool,
    job: Option<usize>,
    top: usize,
    perfetto: Option<PathBuf>,
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

const USAGE: &str = "\
sweep — parallel scenario-sweep engine (Universal Packet Scheduling)

USAGE:
  sweep [OPTIONS]
  sweep explain [GRID AXES/OPTIONS] [--job ID] [--top K] [--perfetto PATH]

GRID AXES (comma-separated; defaults form the 60-job paper grid):
  --topos NAMES       topologies by registry name
  --profiles NAMES    workload profiles by registry name
  --scheds LABELS     scheduler disciplines (Table-1 labels; FQ/FIFO+ ok)
  --traffic MODES     open-loop (UDP trains) and/or closed-loop (TCP Reno
                      with the slack policy of the scheduler under test)
  --rest BPS          r_est axis (bits/s) for closed-loop LSTF: each value
                      runs the §3.3 Fairness slack policy as its own job
  --queues KS         finite-priority-queue axis: per K, additionally replay
                      through quantized LSTF on K strict-priority FIFO
                      queues and report the match/FCT deltas vs exact LSTF
  --mapper NAME       rank->queue mapper for --queues: log, sppifo or
                      dynamic (default sppifo)
  --failures SPECS    network-dynamics axis: failure specs PROFILE[:rate]
                      (random-links, core-links, burst; rate = fraction of
                      eligible links, default 0.3) or the literal none
                      for a static-network row; open-loop only
  --inflight POLICY   what happens to packets at a dead link: reroute
                      (epoch-based re-pathing at the current hop; default)
                      or drop
  --utils FRACS       utilization targets, e.g. 0.3,0.7
  --seeds INTS        one independent job per seed

GRID OPTIONS:
  --window-ms MS      flow-arrival window per job (default 10)
  --horizon-ms MS     closed-loop simulated horizon (default window x 20)
  --buffer-bytes N    router buffers per port (default unbounded/drop-free)
  --no-replay         skip the LSTF replay (original schedule only)
  --max-packets N     cap injected packets per job (smoke grids)
  --exclude SPEC      drop combinations, e.g. topo=RocketFuel,sched=Random
                      (repeatable; traffic=closed-loop, queues=8,
                      failures=burst:0.5 and util>0.8 work too)
  --max-jobs N        keep at most N jobs

EXECUTION & OUTPUT:
  --workers N         worker threads (default: min(cores, 8))
  --out PATH          aggregate artifact (default BENCH_sweep.json)
  --jsonl PATH        streamed records (default sweep_results.jsonl)
  --telemetry PATH    write the heartbeat time series to PATH when the
                      sweep ends: one tick (done/total, jobs/sec, ETA,
                      per-worker jobs and utilization) at the first job
                      completion, then at completions at least a second
                      apart, then once at the end; schema-checked by
                      --validate like any BENCH_*.json
  --check             validate the artifact after writing
  --quiet             suppress per-job lines and the throttled stderr
                      `# progress` heartbeat (--telemetry still writes)

EXPLAIN (replay-divergence forensics; re-runs ONE job with per-hop
recording and attributes every mismatched packet):
  --job ID            which expanded grid job to explain (required when
                      the axes expand to more than one job)
  --top K             rows per blame table (default 10)
  --perfetto PATH     write the replay's sampled timeline as trace-event
                      JSON with one instant marker per worst-case
                      divergence (open in Perfetto / chrome://tracing)

OTHER:
  --list              print registered topologies, profiles, disciplines
  --validate PATHS    schema-check existing artifacts and exit; accepts
                      multiple paths and dispatches on each schema tag
  --help              this text
";

fn split_list(v: &str) -> Vec<String> {
    v.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_exclude(spec: &str) -> Result<Exclude, String> {
    let mut e = Exclude::default();
    for part in spec.split(',') {
        let part = part.trim();
        if let Some(v) = part.strip_prefix("topo=") {
            e.topology = Some(v.into());
        } else if let Some(v) = part.strip_prefix("profile=") {
            e.profile = Some(v.into());
        } else if let Some(v) = part.strip_prefix("sched=") {
            e.scheduler = Some(v.into());
        } else if let Some(v) = part.strip_prefix("traffic=") {
            e.traffic = Some(v.into());
        } else if let Some(v) = part.strip_prefix("queues=") {
            e.queues = Some(v.parse().map_err(|_| format!("bad queue count {v:?}"))?);
        } else if let Some(v) = part.strip_prefix("failures=") {
            e.failures = Some(v.into());
        } else if let Some(v) = part.strip_prefix("util>") {
            e.utilization_above = Some(v.parse().map_err(|_| format!("bad utilization {v:?}"))?);
        } else {
            return Err(format!(
                "bad --exclude part {part:?} \
                 (want topo=/profile=/sched=/traffic=/queues=/failures=/util>)"
            ));
        }
    }
    Ok(e)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        grid: ScenarioGrid::default(),
        workers: default_workers(),
        out: PathBuf::from("BENCH_sweep.json"),
        jsonl: PathBuf::from("sweep_results.jsonl"),
        telemetry: None,
        check: false,
        quiet: false,
        list: false,
        validate: Vec::new(),
        explain: false,
        job: None,
        top: 10,
        perfetto: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    // `explain` is the one subcommand; everything after it is the same
    // flag grammar (grid axes select the job to re-run).
    if it.peek().map(String::as_str) == Some("explain") {
        it.next();
        args.explain = true;
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--topos" => args.grid.topologies = split_list(&value("--topos")?),
            "--profiles" => args.grid.profiles = split_list(&value("--profiles")?),
            "--scheds" => args.grid.schedulers = split_list(&value("--scheds")?),
            "--traffic" => args.grid.traffic = split_list(&value("--traffic")?),
            "--rest" => {
                args.grid.rest_bps = split_list(&value("--rest")?)
                    .iter()
                    .map(|s| s.parse().map_err(|_| format!("bad r_est {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--queues" => {
                args.grid.queues = split_list(&value("--queues")?)
                    .iter()
                    .map(|s| s.parse().map_err(|_| format!("bad queue count {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--mapper" => args.grid.mapper = value("--mapper")?,
            "--failures" => args.grid.failures = split_list(&value("--failures")?),
            "--inflight" => args.grid.inflight = value("--inflight")?,
            "--utils" => {
                args.grid.utilizations = split_list(&value("--utils")?)
                    .iter()
                    .map(|s| s.parse().map_err(|_| format!("bad utilization {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seeds" => {
                args.grid.seeds = split_list(&value("--seeds")?)
                    .iter()
                    .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--window-ms" => {
                let ms: u64 = value("--window-ms")?
                    .parse()
                    .map_err(|_| "bad --window-ms".to_string())?;
                args.grid.window = Dur::from_ms(ms);
            }
            "--horizon-ms" => {
                let ms: u64 = value("--horizon-ms")?
                    .parse()
                    .map_err(|_| "bad --horizon-ms".to_string())?;
                args.grid.horizon = Some(Dur::from_ms(ms));
            }
            "--buffer-bytes" => {
                args.grid.buffer_bytes = Some(
                    value("--buffer-bytes")?
                        .parse()
                        .map_err(|_| "bad --buffer-bytes".to_string())?,
                );
            }
            "--no-replay" => args.grid.replay = false,
            "--max-packets" => {
                args.grid.max_packets = Some(
                    value("--max-packets")?
                        .parse()
                        .map_err(|_| "bad --max-packets".to_string())?,
                );
            }
            "--exclude" => args
                .grid
                .excludes
                .push(parse_exclude(&value("--exclude")?)?),
            "--max-jobs" => {
                args.grid.max_jobs = Some(
                    value("--max-jobs")?
                        .parse()
                        .map_err(|_| "bad --max-jobs".to_string())?,
                );
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad --workers".to_string())?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--jsonl" => args.jsonl = PathBuf::from(value("--jsonl")?),
            "--telemetry" => args.telemetry = Some(PathBuf::from(value("--telemetry")?)),
            "--check" => args.check = true,
            "--quiet" => args.quiet = true,
            "--list" => args.list = true,
            "--validate" => {
                // Greedy: one flag, many artifacts (CI validates the
                // whole committed set in a single invocation).
                args.validate.push(PathBuf::from(value("--validate")?));
                while let Some(p) = it.peek() {
                    if p.starts_with("--") {
                        break;
                    }
                    args.validate
                        .push(PathBuf::from(it.next().expect("peeked")));
                }
            }
            "--job" => {
                args.job = Some(
                    value("--job")?
                        .parse()
                        .map_err(|_| "bad --job".to_string())?,
                );
            }
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|_| "bad --top".to_string())?;
            }
            "--perfetto" => args.perfetto = Some(PathBuf::from(value("--perfetto")?)),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Open an output for writing before any work starts, or say on stderr
/// why it cannot be opened. Without `truncate`, an existing file keeps
/// its contents until the caller rewrites it.
fn open_output(path: &Path, truncate: bool) -> Option<File> {
    let mut options = File::options();
    options.write(true).create(true).truncate(truncate);
    let file = options.open(path);
    file.map_err(|e| eprintln!("sweep: cannot open {}: {e}", path.display()))
        .ok()
}

/// [`open_output`] without truncating, plus the guard that removes the
/// file again if this run created it.
fn open_kept(path: &Path) -> Option<(File, CreatedOut<'_>)> {
    let existed = path.exists();
    let file = open_output(path, false)?;
    Some((file, CreatedOut((!existed).then_some(path))))
}

/// Replace an output's contents with `doc`, or say on stderr why not.
fn rewrite(file: &mut File, path: &Path, doc: &str) -> bool {
    let written = file
        .set_len(0)
        .and_then(|()| file.write_all(doc.as_bytes()));
    let failed = |e| eprintln!("sweep: cannot write {}: {e}", path.display());
    written.map_err(failed).is_ok()
}

/// Removes an output on drop if this run created it, so a run that fails
/// after opening it leaves no empty file behind. `disarm` once the
/// output holds the run's document.
struct CreatedOut<'a>(Option<&'a Path>);

impl CreatedOut<'_> {
    fn disarm(&mut self) {
        self.0 = None;
    }
}

impl Drop for CreatedOut<'_> {
    fn drop(&mut self) {
        if let Some(path) = self.0 {
            std::fs::remove_file(path).ok();
        }
    }
}

fn list_registries() {
    println!("topologies:");
    for e in ups_topology::TOPOLOGIES {
        println!("  {:<18} {}", e.name, e.description);
    }
    println!("workload profiles:");
    for p in ups_workload::PROFILES {
        println!("  {:<18} {}", p.name, p.description);
    }
    println!("schedulers (original-schedule disciplines):");
    let labels: Vec<&str> = Scheduler::all().map(Scheduler::name).collect();
    println!("  {}", labels.join(", "));
    println!("traffic modes:");
    println!("  open-loop          UDP packet trains paced by the host NIC (§2.3)");
    println!("  closed-loop        TCP Reno endpoints, slack policy per scheduler (§3)");
    println!("rank->queue mappers (--mapper, for --queues):");
    for m in ups_netsim::prelude::MapperKind::ALL {
        println!("  {:<18} {}", m.name(), m.description());
    }
    println!(
        "failure profiles (--failures PROFILE[:rate]; rate defaults to {}):",
        ups_dynamics::FailureProfile::DEFAULT_RATE
    );
    for (p, desc) in ups_dynamics::FAILURE_PROFILES {
        println!("  {:<18} {}", p.name(), desc);
    }
    println!("  none               static-network row (the baseline inside a failure grid)");
    println!("in-flight policies (--inflight, at a dead link):");
    println!("  reroute            epoch-based re-pathing at the packet's current hop");
    println!("  drop               lose the packet, recorded with its drop cause");
    println!("trace record modes (engine-level; sweep jobs pick per traffic mode):");
    for m in ups_netsim::prelude::RecordMode::ALL {
        println!("  {:<18} {}", m.name(), m.describe());
    }
    println!("observability gate (ups-obs counters and phase timers; off unless enabled):");
    for (name, desc) in ups_obs::describe_probes() {
        println!("  {name:<26} {desc}");
    }
    println!("divergence forensics (sweep explain; ups-forensics taxonomy):");
    println!("  causes             overdue_within_t, overdue_beyond_t, missing_in_replay,");
    println!("                     dead_link_drop, buffer_drop (conserved vs the report)");
    println!("  inversions         rank_tie_break, bucket_collision, reroute,");
    println!("                     queue_overflow, exit_only (first divergent hop)");
    println!("  --job ID           which expanded grid job to explain");
    println!("  --top K            rows per blame table (default 10)");
    println!("  --perfetto PATH    replay timeline + divergence instant markers");
}

/// `sweep explain`: expand the grid, pick the one job (by `--job` id when
/// the axes expand to several), re-run it with per-hop recording and
/// print the blame tables; `--perfetto` additionally exports the replay's
/// sampled timeline with one instant marker per worst-case divergence.
fn run_explain(args: &Args) -> ExitCode {
    let jobs = match args.grid.expand() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match args.job {
        Some(id) => match jobs.iter().find(|j| j.job_id == id) {
            Some(&s) => s,
            None => {
                eprintln!(
                    "sweep: no job {id} in this grid ({} jobs, ids 0..{})",
                    jobs.len(),
                    jobs.len()
                );
                return ExitCode::FAILURE;
            }
        },
        None if jobs.len() == 1 => jobs[0],
        None => {
            eprintln!(
                "sweep: the axes expand to {} jobs; pick one with --job ID \
                 (ids 0..{}, in grid expansion order)",
                jobs.len(),
                jobs.len()
            );
            return ExitCode::FAILURE;
        }
    };
    // Open the export before the re-run, so a bad path costs no work.
    let mut perfetto = None;
    if let Some(path) = &args.perfetto {
        let Some(file) = open_output(path, true) else {
            return ExitCode::FAILURE;
        };
        perfetto = Some((path, file));
    }
    let shared = runner::SharedScenarios::for_jobs([&spec]);
    match explain_job(&spec, &shared, perfetto.is_some()) {
        Ok(ex) => {
            print!("{}", ex.render(args.top));
            // `--perfetto` attached the probe, so the series is there.
            if let Some(((path, file), series)) = perfetto.as_mut().zip(ex.series.as_ref()) {
                let markers = ex.markers();
                let doc = ups_obs::trace_event_json_with_markers(series, &markers);
                if let Err(e) = file.write_all(doc.as_bytes()) {
                    eprintln!("sweep: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "\n# wrote {} ({} divergence markers)",
                    path.display(),
                    markers.len()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep: explain: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        list_registries();
        return ExitCode::SUCCESS;
    }
    if !args.validate.is_empty() {
        // Validate every path (don't stop at the first failure: CI wants
        // the full damage report), then fail if anything failed.
        let mut failed = false;
        for path in &args.validate {
            let verdict = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|doc| validate_artifact(&doc));
            match verdict {
                Ok(line) => println!("{} valid: {line}", path.display()),
                Err(e) => {
                    eprintln!("sweep: {}: {e}", path.display());
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    if args.explain {
        return run_explain(&args);
    }

    let jobs = match args.grid.expand() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The r_est axis only multiplies closed-loop × LSTF combinations; a
    // grid where it applies nowhere would silently record an "r_est
    // sweep" containing zero Fairness(r_est) jobs.
    if !args.grid.rest_bps.is_empty() && jobs.iter().all(|j| j.rest_bps.is_none()) {
        eprintln!(
            "sweep: --rest given but no closed-loop LSTF job exists in the grid \
             (add LSTF to --scheds and closed-loop to --traffic)"
        );
        return ExitCode::FAILURE;
    }
    // Open every output before any job runs, --jsonl last, so a bad
    // --telemetry or --out path leaves --jsonl untouched. Both are opened
    // without truncating and rewritten only once the run has succeeded:
    // --out's default is the committed BENCH_sweep.json, and a failed run
    // must leave each as it found it — intact if it existed, absent if it
    // did not.
    let mut telemetry = None;
    if let Some(path) = &args.telemetry {
        let Some(kept) = open_kept(path) else {
            return ExitCode::FAILURE;
        };
        telemetry = Some((path, kept));
    }
    let Some((mut out, mut created_out)) = open_kept(&args.out) else {
        return ExitCode::FAILURE;
    };
    let stream = match ResultStream::create(&args.jsonl) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep: cannot open {}: {e}", args.jsonl.display());
            return ExitCode::FAILURE;
        }
    };
    // Excludes, the LSTF-only r_est sub-axis and --max-jobs all reshape
    // the cartesian product, so report the expanded count against the
    // six base axes without attributing the difference to one mechanism.
    println!(
        "# sweep: {} jobs ({} topologies × {} profiles × {} schedulers × {} traffic × {} utils × {} seeds{}) on {} workers",
        jobs.len(),
        args.grid.topologies.len(),
        args.grid.profiles.len(),
        args.grid.schedulers.len(),
        args.grid.traffic.len(),
        args.grid.utilizations.len(),
        args.grid.seeds.len(),
        if args.grid.rest_bps.is_empty() {
            String::new()
        } else {
            format!(", {} r_est values", args.grid.rest_bps.len())
        },
        args.workers.clamp(1, jobs.len())
    );
    if !args.grid.queues.is_empty() {
        println!(
            "# finite-priority-queue axis: K in {{{}}} via the {} mapper (quantized LSTF replays)",
            args.grid
                .queues
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(","),
            args.grid.mapper
        );
    }

    if !args.grid.failures.is_empty() {
        println!(
            "# failure axis: {{{}}} with in-flight policy {}",
            args.grid.failures.join(","),
            args.grid.inflight
        );
    }

    // lint:allow(wall-clock): feeds the envelope's wall_s/jobs_per_sec
    // throughput fields, excluded from the determinism surface.
    let t0 = Instant::now();
    let quiet = args.quiet;
    let stream_ref = &stream;
    // One topology build + all-pairs BFS per *distinct* topology, shared
    // read-only across workers, instead of one per job.
    let shared = runner::SharedScenarios::for_jobs(&jobs);
    let shared_ref = &shared;
    // The heartbeat ticks as jobs finish, at most once a second; it
    // observes the pool but never feeds back into job execution.
    let heartbeat = HeartbeatConfig { progress: !quiet };
    let (records, stats) = pool::run_jobs_telemetry(
        &jobs,
        args.workers,
        |_, spec| spec.label(),
        Some(heartbeat),
        move |_, spec| {
            let rec = runner::run_job_shared(spec, shared_ref);
            stream_ref.append(&rec);
            if !quiet {
                let s = &rec.summary;
                println!(
                    "job {:>3}  {:<16} {:<11} {:<8} {:<11} util {:.2} seed {:<2}  {:>7} pkts  {} replay {}{}{}{}  {:.2}s",
                    rec.spec.job_id,
                    rec.spec.topology,
                    rec.spec.profile,
                    rec.spec.scheduler,
                    rec.spec.traffic.name(),
                    rec.spec.utilization,
                    rec.spec.seed,
                    s.packets,
                    if s.dropped > 0 {
                        format!("dropped {}", s.dropped)
                    } else {
                        "drop-free".into()
                    },
                    match s.replay_match_rate {
                        Some(r) => format!("{:.4}", r),
                        None => "-".into(),
                    },
                    match (rec.spec.queues, s.quantized_match_rate) {
                        (Some(queues), Some(q)) => format!("  K{} {q:.4}", queues.k),
                        _ => String::new(),
                    },
                    match &s.transport {
                        Some(t) => format!("  tcp {}fl/{}retx", t.completed_flows, t.retransmits),
                        None => String::new(),
                    },
                    match &s.disruption {
                        Some(d) => format!(
                            "  churn {}dn/{}rr/{}dd",
                            d.links_failed, d.rerouted, d.dropped_at_dead_link
                        ),
                        None => String::new(),
                    },
                    rec.wall_s
                );
            }
            rec
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();

    let doc = bench_sweep_json(&args.grid, &records, &stats, wall_s);
    println!(
        "# {} jobs in {:.2}s on {} workers ({:.2} jobs/sec)",
        records.len(),
        wall_s,
        stats.workers,
        records.len() as f64 / wall_s
    );
    // Validate both documents before writing either.
    let ts_doc = telemetry
        .as_ref()
        .map(|_| timeseries_json(&stats.ticks, stats.workers, wall_s));
    if let Some(Err(e)) = ts_doc.as_deref().map(validate_artifact) {
        eprintln!("sweep: telemetry artifact failed validation: {e}");
        return ExitCode::FAILURE;
    }
    if args.check {
        match validate_bench_sweep(&doc) {
            Ok(d) => println!(
                "# artifact valid: {} jobs, {:.2} jobs/sec",
                d.jobs, d.jobs_per_sec
            ),
            Err(e) => {
                eprintln!("sweep: artifact failed validation: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(((path, (file, _)), ts_doc)) = telemetry.as_mut().zip(ts_doc) {
        if !rewrite(file, path, &ts_doc) {
            return ExitCode::FAILURE;
        }
        let ticks = stats.ticks.len();
        println!("# wrote {} ({ticks} heartbeat ticks)", path.display());
    }
    if !rewrite(&mut out, &args.out, &doc) {
        return ExitCode::FAILURE;
    }
    created_out.disarm();
    if let Some((_, (_, created))) = telemetry.as_mut() {
        created.disarm();
    }
    println!(
        "# wrote {} and {}",
        args.out.display(),
        args.jsonl.display()
    );
    ExitCode::SUCCESS
}
