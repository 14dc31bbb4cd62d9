//! The four workloads. Each is a plain function that re-executes its whole
//! set-up and pipeline per rep, driving the layer crates only through the
//! `ups` facade, and returns what it measured and checked as a [`Rep`].
//! README.md says why each exists and which layer metrics it should move.

use std::time::{Duration, Instant};

use ups::core::{
    compare, compare_with_sink, lstf_replay_stream, replay_packets, HeaderInit, ReplayReport,
};
use ups::dynamics::{
    churn_replay_with_sink, run_schedule_with_failures, FailureProfile, FailureSchedule,
};
use ups::forensics::{BlameCollector, ReplayFlavor};
use ups::metrics::{DivergenceSummary, RunSummary};
use ups::netsim::prelude::{
    DeadLinkPolicy, Dur, MapperKind, Packet, RecordMode, SchedulerKind, SimStats, Trace,
};
use ups::obs::{Counter, Phase};
use ups::sweep::{
    bench_sweep_json, pool, run_job_shared, summarize_trace, validate_bench_sweep, JobSpec,
    ScenarioGrid, SharedScenarios, TrafficMode,
};
use ups::topology::{
    build_simulator, fattree, BuildOptions, FatTreeParams, Routing, SchedulerAssignment, Topology,
};
use ups::workload::{udp_packet_stream, BoundedPareto, Fixed, FlowSpec, PoissonWorkload, MTU};

use crate::harness::{fnv1a, hex64, median, Checks, Recorder, Rep};

/// What a rep function is told about the run it is part of.
#[derive(Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    /// 2,000-packet trains and a 4-job grid: the fast runnable check.
    pub smoke: bool,
    /// Worker threads of the sweep pool.
    pub workers: usize,
    /// The untimed last rep, which carries the workload's one-off
    /// verification. It runs after the peak resident set has been read, so
    /// that what it allocates is not charged to the workload.
    pub verify: bool,
}

/// Static description of a workload, for the result document.
pub struct Attrs {
    pub topology: &'static str,
    pub scheduler: &'static str,
    pub record: &'static str,
    pub injection: &'static str,
    /// The workload has a verification for [`Cfg::verify`] to switch on.
    pub verifies: bool,
    /// Kernel rows of the disciplines its original and replay runs use.
    pub sched_rows: &'static [&'static str],
}

pub type RepFn = fn(&Cfg, &mut Recorder) -> Rep;

pub fn by_name(name: &str) -> Option<(RepFn, Attrs)> {
    Some(match name {
        "replay-resident" => (
            replay_resident as RepFn,
            Attrs {
                topology: "FatTree(k=4)",
                scheduler: "FIFO original, LSTF replay",
                record: "EndToEnd",
                injection: "eager",
                verifies: false,
                sched_rows: &["netsim.sched.FIFO_ns", "netsim.sched.LSTF_ns"],
            },
        ),
        "replay-streaming" => (
            replay_streaming,
            Attrs {
                topology: "FatTree(k=8)",
                scheduler: "FIFO original, LSTF replay",
                record: "Streaming",
                injection: "lazy",
                verifies: true,
                sched_rows: &["netsim.sched.FIFO_ns", "netsim.sched.LSTF_ns"],
            },
        ),
        "sweep-grid" => (
            sweep_grid,
            Attrs {
                topology: "I2:1Gbps-10Gbps, RocketFuel, FatTree(k=4)",
                scheduler: "FIFO, FQ, SJF, LIFO, Random, LSTF originals, LSTF replay",
                record: "EndToEnd",
                injection: "eager (open-loop) and TCP agents (closed-loop)",
                verifies: false,
                sched_rows: &[],
            },
        ),
        "churn-quantized" => (
            churn_quantized,
            Attrs {
                topology: "FatTree(k=4)",
                scheduler: "Random original, Quantized LSTF K=8 sppifo and churn LSTF replays",
                record: "PerHop and EndToEnd",
                injection: "eager (originals), lazy (churn replay)",
                verifies: false,
                sched_rows: &["netsim.sched.Random_ns", "netsim.sched.Quantized-sppifo_ns"],
            },
        ),
        _ => return None,
    })
}

// ---- sizes. A train is cut to exactly this many packets, so that every
// seed gives the same amount of work; they are set so that a rep takes one
// to two seconds on the review machine and a 20-second run holds ten or so.

const SMOKE_PACKETS: u64 = 2_000;
const RESIDENT_PACKETS: u64 = 120_000;
const STREAMING_PACKETS: u64 = 150_000;
const STREAMING_FLOW_BYTES: u64 = 150_000;
const SWEEP_JOB_PACKETS: usize = 6_000;
const CHURN_PACKETS: u64 = 120_000;
const CHURN_BUFFER_BYTES: u64 = 500_000;
const CHURN_FAILURE_RATE: f64 = 0.3;
const QUANTIZED_QUEUES: u32 = 8;
const UTILIZATION: f64 = 0.7;
/// The registry's `pareto` tail (α = 1.2 from one packet up) cut at 200
/// packets instead of 30 MB. With the full tail, whether a train holds one
/// of the few 10,000-packet flows decides its queue depths, and `pkts_per_s`
/// moved by 20 % from seed to seed; cut, it moves by a few percent.
const EAGER_FLOW_SIZES: BoundedPareto = BoundedPareto {
    alpha: 1.2,
    min: 1_460,
    max: 300_000,
};
const LSTF: SchedulerKind = SchedulerKind::Lstf { preemptive: false };

fn ns_per(secs: f64, units: u64) -> f64 {
    secs * 1e9 / units.max(1) as f64
}

/// Flows whose packet train is at least `packets` long.
struct Train {
    flows: Vec<FlowSpec>,
    /// Packets to inject: the train is cut here.
    packets: u64,
}

/// Grow the arrival window (doubling from 4 ms; from 125 µs on a smoke
/// run) until `generate`'s flows packetize to the wanted count — the
/// calibration loop of the repository's own throughput and scale benches.
/// The caller cuts the train to exactly that count.
fn train_for(
    rec: &mut Recorder,
    rep: &mut Rep,
    topo: &Topology,
    (cfg, full): (&Cfg, u64),
    generate: impl Fn(&mut Routing, Dur) -> Vec<FlowSpec>,
) -> Train {
    let (packets, mut window) = if cfg.smoke {
        (SMOKE_PACKETS, Dur::from_us(125))
    } else {
        (full, Dur::from_ms(4))
    };
    let (mut routing_s, mut flows_s) = (0.0, 0.0);
    let flows = loop {
        let t = rec.begin("topology.routing");
        let mut routing = Routing::new(topo);
        routing_s += rec.end(t);
        let t = rec.begin("workload.flows");
        let flows = generate(&mut routing, window);
        flows_s += rec.end(t);
        if flows
            .iter()
            .map(|f| f.size.div_ceil(MTU as u64))
            .sum::<u64>()
            >= packets
        {
            break flows;
        }
        window = window.times(2);
        assert!(
            window <= Dur::from_secs(60),
            "workload never reached {packets} packets"
        );
    };
    rep.layer("topology.routing_s", routing_s);
    rep.layer("workload.flows_s", flows_s);
    rep.packets = packets;
    rep.pin("packets", packets);
    rep.pin("flows", flows.len());
    rep.pin("window_ps", window.as_ps());
    Train { flows, packets }
}

/// Set-up the eager workloads share: fat-tree(k=4), Poisson flows at 70 %
/// utilization with [`EAGER_FLOW_SIZES`], materialised as a packet train of
/// exactly `full` packets.
fn eager_setup(
    cfg: &Cfg,
    rec: &mut Recorder,
    rep: &mut Rep,
    full: u64,
) -> (Topology, Train, Vec<Packet>) {
    let setup = rec.begin("setup");
    let t = rec.begin("topology.build");
    let topo = fattree(FatTreeParams::default());
    rec.end(t);
    let train = train_for(rec, rep, &topo, (cfg, full), |routing, window| {
        PoissonWorkload::at_utilization(UTILIZATION, window, cfg.seed).generate(
            &topo,
            routing,
            &EAGER_FLOW_SIZES,
        )
    });
    // `udp_packet_train` is this stream collected; taking the cut first
    // keeps the materialisation the same size on every seed.
    let t = rec.begin("workload.train");
    let packets: Vec<Packet> = udp_packet_stream(&train.flows, MTU)
        .take(train.packets as usize)
        .collect();
    rep.layer(
        "workload.train_ns_per_pkt",
        ns_per(rec.end(t), packets.len() as u64),
    );
    rep.setup_s = rec.end(setup);
    (topo, train, packets)
}

/// One simulator run and its stage times.
struct SimRun {
    trace: Trace,
    stats: SimStats,
    build_s: f64,
    /// `Simulator::inject` loop (eager runs only).
    inject_s: f64,
    /// `Simulator::run`, or `run_with_injections` minus the time inside
    /// the injected iterator.
    run_s: f64,
    /// Time inside the injected iterator (lazy runs on a traced rep only).
    iter_s: f64,
    into_trace_s: f64,
}

fn conserved(checks: &mut Checks, stage: &str, stats: &SimStats) {
    checks.check(stats.delivered + stats.dropped == stats.injected, || {
        format!(
            "{stage}: delivered {} + dropped {} != injected {}",
            stats.delivered, stats.dropped, stats.injected
        )
    });
}

/// Inject every packet, then run to completion — `ups::core::run_schedule`
/// spelled out, so that each call into the simulator gets its own span.
fn sim_eager(
    rec: &mut Recorder,
    rep: &mut Rep,
    stage: &'static str,
    topo: &Topology,
    kind: SchedulerKind,
    opts: &BuildOptions,
    packets: impl Iterator<Item = Packet>,
) -> SimRun {
    let outer = rec.begin(stage);
    let t = rec.begin("topology.build_sim");
    let mut sim = build_simulator(topo, &SchedulerAssignment::uniform(kind), opts);
    let build_s = rec.end(t);
    let t = rec.begin("netsim.inject");
    for p in packets {
        sim.inject(p);
    }
    let inject_s = rec.end(t);
    let t = rec.begin_gated("netsim.run");
    sim.run();
    let run_s = rec.end(t);
    let stats = sim.stats();
    let t = rec.begin("netsim.into_trace");
    let trace = sim.into_trace();
    let into_trace_s = rec.end(t);
    rec.end(outer);
    conserved(&mut rep.checks, stage, &stats);
    SimRun {
        trace,
        stats,
        build_s,
        inject_s,
        run_s,
        iter_s: 0.0,
        into_trace_s,
    }
}

/// Times each `next()` of the iterator a lazy run pulls from, so that the
/// simulator's own time is the run minus this.
struct TimedIter<I> {
    inner: I,
    spent: Duration,
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let t = Instant::now();
        let item = self.inner.next();
        self.spent += t.elapsed();
        item
    }
}

/// `run_with_injections` over a lazily produced packet stream. The timing
/// adapter costs two clock reads per packet, so only a traced rep uses it.
fn sim_lazy(
    rec: &mut Recorder,
    rep: &mut Rep,
    (stage, iter_name): (&'static str, &'static str),
    topo: &Topology,
    kind: SchedulerKind,
    opts: &BuildOptions,
    packets: impl Iterator<Item = Packet>,
) -> SimRun {
    let outer = rec.begin(stage);
    let t = rec.begin("topology.build_sim");
    let mut sim = build_simulator(topo, &SchedulerAssignment::uniform(kind), opts);
    let build_s = rec.end(t);
    let t = rec.begin_gated("netsim.lazy_run");
    let mut iter_s = 0.0;
    if rec.keep {
        let mut timed = TimedIter {
            inner: packets,
            spent: Duration::ZERO,
        };
        sim.run_with_injections(&mut timed);
        iter_s = timed.spent.as_secs_f64();
        rec.child_total(iter_name, iter_s);
    } else {
        sim.run_with_injections(packets);
    }
    let run_s = rec.end(t) - iter_s;
    let stats = sim.stats();
    let t = rec.begin("netsim.into_trace");
    let trace = sim.into_trace();
    let into_trace_s = rec.end(t);
    rec.end(outer);
    conserved(&mut rep.checks, stage, &stats);
    SimRun {
        trace,
        stats,
        build_s,
        inject_s: 0.0,
        run_s,
        iter_s,
        into_trace_s,
    }
}

/// Order-sensitive digest of every exit time of a trace, read through
/// `Trace::stream` so that both trace layouts take the same path.
fn exit_fingerprint(trace: &Trace) -> String {
    let mut fp = 0u128;
    for (id, rec) in trace.stream() {
        if let Some(o) = rec.exited {
            fp = fp.wrapping_add((id.0 as u128 + 1).wrapping_mul(o.as_ps() as u128));
        }
    }
    format!("{fp:032x}")
}

fn pin_stats(rep: &mut Rep, stage: &str, stats: &SimStats, trace: &Trace) {
    rep.pin(&format!("{stage}.events"), stats.events);
    rep.pin(&format!("{stage}.delivered"), stats.delivered);
    rep.pin(&format!("{stage}.dropped"), stats.dropped);
    rep.pin(
        &format!("{stage}.exit_fingerprint"),
        exit_fingerprint(trace),
    );
}

/// Pool a compare into the rep's match rate and pin its own rate.
fn pool_report(rep: &mut Rep, pin: &str, report: &ReplayReport) {
    rep.compared += report.total as f64;
    rep.matched += (report.total - report.overdue) as f64;
    rep.pin(
        pin,
        format!("{} of {}", report.total - report.overdue, report.total),
    );
}

/// The eager original → `replay_packets` → eager replay pair, with the
/// layer metrics both eager workloads report for it.
fn eager_pair(
    rec: &mut Recorder,
    rep: &mut Rep,
    topo: &Topology,
    packets: &[Packet],
    (original_kind, replay_kind): (SchedulerKind, SchedulerKind),
    opts: &BuildOptions,
) -> (SimRun, SimRun) {
    let original = sim_eager(
        rec,
        rep,
        "original",
        topo,
        original_kind,
        opts,
        packets.iter().cloned(),
    );
    let t = rec.begin("core.replay_set");
    let replay_set = replay_packets(topo, &original.trace, packets, HeaderInit::LstfSlack);
    let replay_set_s = rec.end(t);
    let replay = sim_eager(
        rec,
        rep,
        "replay",
        topo,
        replay_kind,
        opts,
        replay_set.into_iter(),
    );
    let n = packets.len() as u64;
    rep.layer("core.replay_set_ns_per_pkt", ns_per(replay_set_s, n));
    rep.layer(
        "topology.build_sim_s",
        median(&[original.build_s, replay.build_s]),
    );
    rep.layer(
        "netsim.inject_ns_per_pkt",
        ns_per(original.inject_s + replay.inject_s, 2 * n),
    );
    rep.layer(
        "netsim.run_orig_ns_per_event",
        ns_per(original.run_s, original.stats.events),
    );
    rep.layer(
        "netsim.run_replay_ns_per_event",
        ns_per(replay.run_s, replay.stats.events),
    );
    rep.layer(
        "netsim.into_trace_s",
        original.into_trace_s + replay.into_trace_s,
    );
    (original, replay)
}

/// `compare`, `summarize_trace` and `to_json` over an original/replay pair:
/// the tail both replay workloads share.
fn score(
    rec: &mut Recorder,
    rep: &mut Rep,
    topo: &Topology,
    flows: &[FlowSpec],
    original: &SimRun,
    replay: &SimRun,
) -> (ReplayReport, RunSummary) {
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);
    let t = rec.begin_gated("core.compare");
    let report = compare(&original.trace, &replay.trace, threshold);
    rep.layer(
        "core.compare_ns_per_rec",
        ns_per(rec.end(t), report.total as u64),
    );
    let t = rec.begin("sweep.summarize");
    let mut summary = summarize_trace(&original.trace, flows, original.stats.injected, None);
    rep.layer(
        "sweep.summarize_ns_per_rec",
        ns_per(rec.end(t), original.stats.injected),
    );
    summary.replay_match_rate = report.match_rate();
    summary.replay_frac_gt_t = report.frac_gt_t_rate();
    let t = rec.begin("metrics.to_json");
    let json = summary.to_json();
    rep.layer("metrics.to_json_s", rec.end(t));
    pool_report(rep, "matched", &report);
    rep.pin("summary_json_hash", hex64(fnv1a(json.as_bytes())));
    (report, summary)
}

/// Bare cost of reading a trace back: `Trace::stream().count()`.
fn trace_stream_ns(rec: &mut Recorder, rep: &mut Rep, trace: &Trace) {
    let t = rec.begin("netsim.trace_stream");
    let n = trace.stream().count();
    rep.layer(
        "netsim.trace_stream_ns_per_rec",
        ns_per(rec.end(t), n as u64),
    );
}

// ---- replay-resident

fn replay_resident(cfg: &Cfg, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let whole = rec.begin("rep");
    let (topo, train, packets) = eager_setup(cfg, rec, &mut rep, RESIDENT_PACKETS);

    let pipeline = rec.begin("pipeline");
    let opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: cfg.seed,
        ..BuildOptions::default()
    };
    let (original, replay) = eager_pair(
        rec,
        &mut rep,
        &topo,
        &packets,
        (SchedulerKind::Fifo, LSTF),
        &opts,
    );
    score(rec, &mut rep, &topo, &train.flows, &original, &replay);
    rep.pipeline_s = rec.end(pipeline);
    if rec.keep {
        trace_stream_ns(rec, &mut rep, &original.trace);
    }
    rec.end(whole);
    pin_stats(&mut rep, "original", &original.stats, &original.trace);
    pin_stats(&mut rep, "replay", &replay.stats, &replay.trace);
    rep
}

// ---- replay-streaming

struct StreamingRun {
    original: SimRun,
    replay: SimRun,
    report: ReplayReport,
    summary: RunSummary,
}

/// The bounded-memory pipeline under one trace layout: lazy injection,
/// replay set streamed from the original trace, merge-join compare.
fn streaming_pipeline(
    rec: &mut Recorder,
    rep: &mut Rep,
    topo: &Topology,
    train: &Train,
    record: RecordMode,
    seed: u64,
) -> StreamingRun {
    let opts = BuildOptions {
        record,
        seed,
        ..BuildOptions::default()
    };
    let original = sim_lazy(
        rec,
        rep,
        ("original", "workload.train"),
        topo,
        SchedulerKind::Fifo,
        &opts,
        udp_packet_stream(&train.flows, MTU).take(train.packets as usize),
    );
    let replay = sim_lazy(
        rec,
        rep,
        ("replay", "core.replay_set"),
        topo,
        LSTF,
        &opts,
        lstf_replay_stream(topo, &original.trace),
    );
    let (report, summary) = score(rec, rep, topo, &train.flows, &original, &replay);
    StreamingRun {
        original,
        replay,
        report,
        summary,
    }
}

fn replay_streaming(cfg: &Cfg, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let whole = rec.begin("rep");

    let setup = rec.begin("setup");
    let t = rec.begin("topology.build");
    let topo = fattree(FatTreeParams {
        k: 8,
        ..FatTreeParams::default()
    });
    rec.end(t);
    let train = train_for(
        rec,
        &mut rep,
        &topo,
        (cfg, STREAMING_PACKETS),
        |routing, window| {
            PoissonWorkload::at_utilization(UTILIZATION, window, cfg.seed).generate(
                &topo,
                routing,
                &Fixed(STREAMING_FLOW_BYTES),
            )
        },
    );
    rep.setup_s = rec.end(setup);

    let pipeline = rec.begin("pipeline");
    let run = streaming_pipeline(
        rec,
        &mut rep,
        &topo,
        &train,
        RecordMode::Streaming,
        cfg.seed,
    );
    rep.pipeline_s = rec.end(pipeline);
    if rec.keep {
        trace_stream_ns(rec, &mut rep, &run.original.trace);
    }
    rec.end(whole);

    if cfg.verify {
        // The resident layout under the same lazy injection must give the
        // identical record stream, report and summary.
        let mut twin_rep = Rep::default();
        let twin = streaming_pipeline(
            &mut Recorder::new(false, false),
            &mut twin_rep,
            &topo,
            &train,
            RecordMode::EndToEnd,
            cfg.seed,
        );
        rep.checks.absorb(twin_rep.checks);
        rep.checks.check(
            twin.original.trace.stream().eq(run.original.trace.stream())
                && twin.replay.trace.stream().eq(run.replay.trace.stream()),
            || "streaming record streams differ from the resident twin's".into(),
        );
        rep.checks.check(twin.report == run.report, || {
            "streaming replay report differs from the resident twin's".into()
        });
        rep.checks.check(twin.summary == run.summary, || {
            "streaming run summary differs from the resident twin's".into()
        });
    }

    let (original, replay) = (&run.original, &run.replay);
    pin_stats(&mut rep, "original", &original.stats, &original.trace);
    pin_stats(&mut rep, "replay", &replay.stats, &replay.trace);
    rep.layer(
        "workload.train_ns_per_pkt",
        ns_per(original.iter_s, train.packets),
    );
    rep.layer(
        "core.replay_set_ns_per_pkt",
        ns_per(replay.iter_s, train.packets),
    );
    rep.layer(
        "topology.build_sim_s",
        median(&[original.build_s, replay.build_s]),
    );
    rep.layer(
        "netsim.lazy_run_ns_per_event",
        ns_per(
            original.run_s + replay.run_s,
            original.stats.events + replay.stats.events,
        ),
    );
    rep.layer(
        "netsim.into_trace_s",
        original.into_trace_s + replay.into_trace_s,
    );
    rep
}

// ---- sweep-grid

fn grid_for(cfg: &Cfg) -> ScenarioGrid {
    if cfg.smoke {
        // Two disciplines under both traffic modes: four small jobs.
        return ScenarioGrid {
            topologies: vec!["FatTree(k=4)".into()],
            schedulers: vec!["FIFO".into(), "LSTF".into()],
            seeds: vec![cfg.seed],
            window: Dur::from_ms(2),
            max_packets: Some(SMOKE_PACKETS as usize),
            ..ScenarioGrid::default()
        };
    }
    // The paper-evaluation default grid on the `pareto` profile, with two
    // seeds derived from ours. The 4 ms window is just long enough for every
    // job's train to reach the cap: what a job materialises beyond the cap
    // is thrown away, and on the fat-tree that is megabytes whose overlap
    // between the two workers made `peak_rss_mib` bimodal at 10 ms.
    ScenarioGrid {
        profiles: vec!["pareto".into()],
        seeds: vec![cfg.seed, cfg.seed + 1],
        window: Dur::from_ms(4),
        max_packets: Some(SWEEP_JOB_PACKETS),
        ..ScenarioGrid::default()
    }
}

fn sweep_grid(cfg: &Cfg, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let whole = rec.begin("rep");

    let setup = rec.begin("setup");
    let grid = grid_for(cfg);
    let t = rec.begin("sweep.expand");
    let jobs = grid.expand().expect("the benchmark grid expands");
    rep.layer("sweep.expand_s", rec.end(t));
    let t = rec.begin("sweep.shared");
    let shared = SharedScenarios::for_jobs(&jobs);
    rep.layer("sweep.shared_s", rec.end(t));
    rep.setup_s = rec.end(setup);

    let pipeline = rec.begin("pipeline");
    let t = rec.begin_gated("sweep.pool_run");
    let (records, stats) =
        pool::run_jobs(&jobs, cfg.workers, |_, spec| run_job_shared(spec, &shared));
    let pool_s = rec.end(t);
    let t = rec.begin("sweep.emit");
    let doc = bench_sweep_json(&grid, &records, &stats, pool_s);
    rep.layer("sweep.emit_s", rec.end(t));
    let t = rec.begin("sweep.validate");
    let valid = validate_bench_sweep(&doc);
    rep.layer("sweep.validate_s", rec.end(t));
    rep.pipeline_s = rec.end(pipeline);

    if rec.gate {
        tcp_serial_pass(rec, &mut rep, &jobs, &shared);
    }
    rec.end(whole);

    rep.checks.check(valid.is_ok(), || {
        format!("sweep document does not validate: {valid:?}")
    });
    let mut lines = String::new();
    for r in &records {
        let s = &r.summary;
        rep.checks.check(
            s.delivered > 0 && s.delivered + s.dropped <= s.packets,
            || format!("sweep job {} did not run cleanly", r.spec.label()),
        );
        // Pooled by the packets each job's compare covered.
        if let Some(rate) = s.replay_match_rate {
            rep.compared += s.delivered as f64;
            rep.matched += rate * s.delivered as f64;
        }
        lines.push_str(&r.to_json(false));
        lines.push('\n');
    }
    rep.packets = records.iter().map(|r| r.summary.packets).sum();
    rep.pin("jobs", records.len());
    rep.pin("packets", rep.packets);
    rep.pin(
        "delivered",
        records.iter().map(|r| r.summary.delivered).sum::<u64>(),
    );
    rep.pin("records_json_hash", hex64(fnv1a(lines.as_bytes())));

    let walls: Vec<f64> = records.iter().map(|r| r.wall_s).collect();
    rep.layer("sweep.job_wall_p50_s", median(&walls));
    rep.layer(
        "sweep.job_wall_max_s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    rep.layer(
        "sweep.pool_efficiency",
        walls.iter().sum::<f64>() / (stats.workers as f64 * pool_s),
    );
    rep.layer("sweep.jobs_per_s", records.len() as f64 / pool_s);
    rep.layer("sweep.steals", stats.steals as f64);
    rep
}

/// The closed-loop jobs again, one after another on this thread with the
/// `ups::obs` gate on, so that their wall can be divided by the events the
/// gate counted: the cost of a simulator event when TCP agents and timers
/// drive it.
fn tcp_serial_pass(rec: &mut Recorder, rep: &mut Rep, jobs: &[JobSpec], shared: &SharedScenarios) {
    let before = rec.obs.events();
    let t = rec.begin_gated("transport.tcp_serial");
    for spec in jobs.iter().filter(|j| j.traffic == TrafficMode::ClosedLoop) {
        std::hint::black_box(run_job_shared(spec, shared));
    }
    let secs = rec.end(t);
    rep.layer(
        "transport.tcp_ns_per_event",
        ns_per(secs, rec.obs.events() - before),
    );
}

// ---- churn-quantized

fn sink_conserved(
    checks: &mut Checks,
    what: &str,
    summary: &DivergenceSummary,
    report: &ReplayReport,
) {
    let overdue = report.overdue as u64;
    checks.check(
        summary.cause_total() == overdue
            && summary.inversion_total() == overdue
            && summary.mismatches == overdue,
        || {
            format!(
                "{what}: causes {} / inversions {} / mismatches {} != overdue {overdue}",
                summary.cause_total(),
                summary.inversion_total(),
                summary.mismatches
            )
        },
    );
}

fn churn_quantized(cfg: &Cfg, rec: &mut Recorder) -> Rep {
    let mut rep = Rep::default();
    let whole = rec.begin("rep");
    let (topo, _, packets) = eager_setup(cfg, rec, &mut rep, CHURN_PACKETS);

    let pipeline = rec.begin("pipeline");
    let threshold = topo.bottleneck_bandwidth().tx_time(MTU);

    // (a) Per-hop original, quantized replay, per-hop blame.
    let hop_opts = BuildOptions {
        record: RecordMode::PerHop,
        seed: cfg.seed,
        ..BuildOptions::default()
    };
    let quantized = SchedulerKind::quantized_lstf(QUANTIZED_QUEUES, MapperKind::SpPifo);
    let (original, replay) = eager_pair(
        rec,
        &mut rep,
        &topo,
        &packets,
        (SchedulerKind::Random, quantized),
        &hop_opts,
    );
    let t = rec.begin_gated("core.compare_with_sink");
    let mut blame = BlameCollector::new(ReplayFlavor::Quantized {
        k: QUANTIZED_QUEUES,
    });
    let report = compare_with_sink(
        &original.trace,
        &replay.trace,
        threshold,
        Dur::ZERO,
        &mut blame,
    );
    let sink_s = rec.end(t);
    let t = rec.begin("forensics.summary");
    let quantized_blame = blame.summary();
    rep.layer("forensics.summary_s", rec.end(t));

    // (b) Link churn with rerouting and finite buffers, churn replay. The
    // outages fall inside the span the cut train actually covers.
    let active = packets
        .last()
        .map_or(Dur::ZERO, |p| Dur::from_ps(p.injected_at.as_ps()));
    let t = rec.begin("dynamics.schedule_gen");
    let schedule = FailureSchedule::generate(
        &topo,
        FailureProfile::RandomLinks,
        CHURN_FAILURE_RATE,
        active,
        cfg.seed,
    );
    rep.layer("dynamics.schedule_gen_s", rec.end(t));
    let churn_opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: cfg.seed,
        router_buffer_bytes: Some(CHURN_BUFFER_BYTES),
        ..BuildOptions::default()
    };
    let t = rec.begin_gated("dynamics.churn_run");
    let churn = run_schedule_with_failures(
        &topo,
        &SchedulerAssignment::uniform(SchedulerKind::Random),
        packets.iter().cloned(),
        &schedule,
        DeadLinkPolicy::Reroute,
        &churn_opts,
    );
    rep.layer(
        "dynamics.churn_run_ns_per_event",
        ns_per(rec.end(t), churn.stats.events),
    );
    let t = rec.begin_gated("dynamics.churn_replay");
    let mut churn_blame = BlameCollector::new(ReplayFlavor::Churn);
    let churn_report = churn_replay_with_sink(&topo, &churn.trace, cfg.seed, &mut churn_blame);
    rep.layer("dynamics.churn_replay_s", rec.end(t));
    rep.pipeline_s = rec.end(pipeline);

    if rec.keep {
        // The same comparison without a sink: what per-hop blame costs.
        let t = rec.begin("core.compare");
        let plain = compare(&original.trace, &replay.trace, threshold);
        let plain_s = rec.end(t);
        rep.layer(
            "core.compare_ns_per_rec",
            ns_per(plain_s, plain.total as u64),
        );
        rep.layer(
            "forensics.sink_ns_per_mismatch",
            ns_per((sink_s - plain_s).max(0.0), report.overdue as u64),
        );
        rep.checks.check(plain == report, || {
            "a divergence sink changed the replay report".into()
        });
    }
    rec.end(whole);

    conserved(&mut rep.checks, "churn", &churn.stats);
    sink_conserved(
        &mut rep.checks,
        "quantized blame",
        &quantized_blame,
        &report,
    );
    sink_conserved(
        &mut rep.checks,
        "churn blame",
        &churn_blame.summary(),
        &churn_report,
    );
    pool_report(&mut rep, "quantized.matched", &report);
    pool_report(&mut rep, "churn.matched", &churn_report);

    // Two original schedules carry the train: the per-hop one and the
    // churn one.
    rep.packets = 2 * packets.len() as u64;
    pin_stats(&mut rep, "original", &original.stats, &original.trace);
    pin_stats(&mut rep, "replay", &replay.stats, &replay.trace);
    pin_stats(&mut rep, "churn", &churn.stats, &churn.trace);
    rep.pin(
        "quantized.bucket_collisions",
        quantized_blame.bucket_collision,
    );
    rep.pin("churn.link_events", schedule.events.len());
    rep.pin("churn.rerouted", churn.stats.rerouted);
    rep.layer("dynamics.rerouted", churn.stats.rerouted as f64);
    rep.layer("dynamics.dropped", churn.stats.dropped as f64);
    rep
}

/// Per-layer metrics read from the `ups::obs` gate on a gated rep.
pub fn obs_layers(rec: &Recorder) -> Vec<(&'static str, f64)> {
    let o = &rec.obs;
    let count = |c| o.counter(c) as f64;
    vec![
        ("netsim.dispatch_s", o.phase_s(Phase::Dispatch)),
        ("netsim.enqueue_s", o.phase_s(Phase::Enqueue)),
        ("netsim.dequeue_s", o.phase_s(Phase::Dequeue)),
        ("netsim.reroute_s", o.phase_s(Phase::Reroute)),
        ("netsim.spill_io_s", o.phase_s(Phase::SpillIo)),
        ("netsim.events_inject", count(Counter::EventsInject)),
        ("netsim.events_arrive", count(Counter::EventsArrive)),
        ("netsim.events_port_ready", count(Counter::EventsPortReady)),
        ("netsim.events_link_state", count(Counter::EventsLinkState)),
        ("netsim.spill_bytes", count(Counter::SpillBytes)),
        ("netsim.spill_chunks", count(Counter::SpillChunksSealed)),
        ("netsim.arena_high_water", count(Counter::ArenaHighWater)),
        (
            "netsim.rank_heap_sift_steps",
            count(Counter::RankHeapSiftSteps),
        ),
        (
            "netsim.trace_records",
            count(Counter::TraceRecordsFinalized),
        ),
        (
            "core.compare_window_high_water",
            count(Counter::CompareWindow),
        ),
    ]
}
