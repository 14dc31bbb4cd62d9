//! The replay methodology's load-bearing invariant, asserted end to end:
//! a simulation run is a pure function of its inputs. Two runs of the
//! same seeded fat-tree workload must produce **bit-identical traces** —
//! every injection, per-hop arrival, transmission start, wait and exit,
//! compared with `Trace == Trace`.
//!
//! This pins the determinism contract across the whole zero-copy hot
//! path: timing-wheel event ordering (`(time, seq)`), arena slot
//! recycling, per-port arrival sequencing, and the seeded `Random`
//! discipline — and that the order the process interned its paths in
//! (`PathId::index`) reaches no result.

use std::process::Command;
use std::sync::Mutex;

use ups::obs::Counter;
use ups::prelude::*;
use ups::topology::{fattree, FatTreeParams};
use ups::workload::udp_packet_stream;

fn fattree_workload(seed: u64) -> (Topology, Vec<Packet>) {
    let topo = fattree(FatTreeParams::default());
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(6), seed).generate(
        &topo,
        &routing,
        &Empirical::web_search() as &dyn SizeDist,
    );
    let packets = udp_packet_train(&flows, MTU);
    (topo, packets)
}

fn run_once(topo: &Topology, packets: &[Packet], kind: SchedulerKind, seed: u64) -> Trace {
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(kind),
        &BuildOptions {
            record: RecordMode::PerHop,
            seed,
            ..BuildOptions::default()
        },
    );
    for p in packets.iter().cloned() {
        sim.inject(p);
    }
    sim.run();
    assert_eq!(
        sim.stats().delivered,
        packets.len() as u64,
        "unbuffered run must deliver everything"
    );
    sim.into_trace()
}

/// Same seed, same workload ⇒ the full per-hop trace is identical, for a
/// deterministic discipline and for the seeded-random one.
#[test]
fn seeded_fattree_runs_are_bit_identical() {
    let (topo, packets) = fattree_workload(7);
    assert!(packets.len() > 2_000, "workload too small to be convincing");
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Lstf { preemptive: false },
        SchedulerKind::Random,
    ] {
        let a = run_once(&topo, &packets, kind, 13);
        let b = run_once(&topo, &packets, kind, 13);
        assert!(
            a == b,
            "{} trace differs between identical runs",
            kind.name()
        );
    }
}

/// Store-and-forward FIFO timing against the seed architecture, as a
/// golden. The seed's engine (`BinaryHeap` event list, per-port
/// `BinaryHeap` queues, packets moved by value) lived on in `ups-bench`
/// as a benchmark baseline until commit e638527, where it and this
/// engine agreed on exactly this triple for exactly this workload —
/// the cross-check the deleted `throughput` bench made before timing
/// anything. `Σ exit` moves when any packet leaves at another time;
/// `Σ (id + 1) · exit` also moves when two packets trade places in a
/// queue, which leaves the set of exit times as it was.
#[test]
fn fifo_fattree_schedule_matches_the_seed_engine_golden() {
    let (topo, train) = ups_bench::fattree_throughput_workload(0.7, 20_000, 42);
    let mut sim = build_simulator(
        &topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &BuildOptions {
            record: RecordMode::EndToEnd,
            ..BuildOptions::default()
        },
    );
    for p in udp_packet_stream(&train.flows, MTU) {
        sim.inject(p);
    }
    sim.run();
    let (mut exit_sum_ps, mut weighted_ps) = (0u128, 0u128);
    for (id, r) in sim.trace().stream().filter(|(_, r)| r.exited.is_some()) {
        let exit = r.exited.expect("delivered").as_ps() as u128;
        exit_sum_ps += exit;
        weighted_ps += (id.0 as u128 + 1) * exit;
    }
    assert_eq!(
        (sim.stats().delivered, exit_sum_ps, weighted_ps),
        (38_025, 547_008_235_843_533, 12_440_606_358_381_795_426)
    );
}

/// Different port seeds must change a Random schedule (the equality check
/// above is not trivially true).
#[test]
fn random_schedule_depends_on_seed() {
    let (topo, packets) = fattree_workload(7);
    let a = run_once(&topo, &packets, SchedulerKind::Random, 13);
    let b = run_once(&topo, &packets, SchedulerKind::Random, 14);
    assert!(a != b, "distinct seeds should yield distinct schedules");
}

/// The trace survives a full replay round trip deterministically: running
/// the complete LSTF replay experiment twice gives identical replay traces
/// too (original + header init + replay are all pure).
#[test]
fn replay_experiment_is_deterministic_end_to_end() {
    let (topo, packets) = fattree_workload(21);
    let exp = ReplayExperiment {
        topo: &topo,
        original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
        init: HeaderInit::LstfSlack,
        preemptive: false,
        record: RecordMode::PerHop,
        seed: 5,
    };
    let a = exp.run(&packets, Dur::ZERO);
    let b = exp.run(&packets, Dur::ZERO);
    assert!(a.original == b.original, "original traces differ");
    assert!(a.replay == b.replay, "replay traces differ");
    assert_eq!(a.report.overdue, b.report.overdue);
    assert_eq!(a.report.max_lateness, b.report.max_lateness);
}

/// The obs gate is process-global: the two tests that read its spill
/// counter take turns.
static GATE: Mutex<()> = Mutex::new(());

/// Paths no fat-tree route can be (node ids far past the topology's).
const UNRELATED: u32 = 300;

/// Intern [`UNRELATED`] paths no run uses, so every path interned after
/// them gets an index that many higher.
fn intern_unrelated_paths() {
    for k in 0..UNRELATED {
        let _ = PathId::from(vec![NodeId(50_000 + k), NodeId(60_000), NodeId(50_001 + k)]);
    }
}

/// What a FIFO original and its lazy LSTF replay leave behind, both
/// recorded under `caps`: the traces, the report, and the bytes they
/// spilled.
struct Pipeline {
    original: Trace,
    replay: Trace,
    report: ReplayReport,
    spill_bytes: u64,
}

fn fifo_lstf_pipeline(caps: Option<(usize, usize)>) -> Pipeline {
    let (topo, packets) = fattree_workload(11);
    let opts = BuildOptions {
        record: RecordMode::EndToEnd,
        seed: 3,
        trace_spill_caps: caps,
        ..BuildOptions::default()
    };
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    ups::obs::reset();
    ups::obs::enable();
    let mut sim = build_simulator(
        &topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &opts,
    );
    for p in packets {
        sim.inject(p);
    }
    sim.run();
    let original = sim.into_trace();
    let (replay, report) = Replay {
        opts,
        ..Replay::new(&topo, &original, 3)
    }
    .lazy(&mut ());
    ups::obs::disable();
    let spill_bytes = ups::obs::snapshot().counter(Counter::SpillBytes);
    Pipeline {
        original,
        replay,
        report,
        spill_bytes,
    }
}

/// FNV-1a over the `Debug` form of both record streams and the report.
/// `PathId` prints as its node list, so the fingerprint names paths by
/// content, never by index.
fn fingerprint(run: &Pipeline) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |text: String| {
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, r) in run.original.stream().chain(run.replay.stream()) {
        fold(format!("{id:?} {r:?}"));
    }
    fold(format!("{:?}", run.report));
    h
}

/// The line [`interning_order_child_run`] prints for its parent.
fn child_line(run: &Pipeline) -> String {
    let first = run.original.stream().map(|(_, r)| r.path.index()).min();
    format!(
        "interning-order: fingerprint {:016x} spill_bytes {} min_index {}",
        fingerprint(run),
        run.spill_bytes,
        first.unwrap_or(0)
    )
}

/// `PathId::index()` depends on the order paths were interned, across
/// threads, and must never reach a trace, a report or a spill file.
///
/// In process: a resident run, then a few hundred unrelated paths, then a
/// spilled run — equal traces and reports. The fat-tree paths were
/// interned by the first run, though, so only a fresh process moves
/// their indexes: the test binary runs [`interning_order_child_run`]
/// alone, which interns the unrelated paths *before* any fat-tree path,
/// and its fingerprint and spill bytes must equal this process's.
#[test]
fn interning_order_never_reaches_a_result() {
    let resident = fifo_lstf_pipeline(None);
    intern_unrelated_paths();
    let spilled = fifo_lstf_pipeline(Some((64, 2)));
    assert_eq!(resident.spill_bytes, 0);
    assert!(spilled.spill_bytes > 0, "the spilled run spilled nothing");
    assert!(
        resident.original == spilled.original,
        "original traces differ"
    );
    assert!(resident.replay == spilled.replay, "replay traces differ");
    assert_eq!(resident.report, spilled.report);
    assert_eq!(fingerprint(&resident), fingerprint(&spilled));

    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["--exact", "interning_order_child_run", "--nocapture"])
        .args(["--test-threads", "1"])
        .output()
        .expect("run the test binary again");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child run failed:\n{stdout}");
    let line = stdout
        .lines()
        .find_map(|l| l.find("interning-order:").map(|at| &l[at..]))
        .unwrap_or_else(|| panic!("no result line from the child run:\n{stdout}"));
    let fields: Vec<&str> = line.split_whitespace().collect();
    let min_index: u32 = fields[6].parse().expect("min_index is a number");
    assert!(
        min_index >= UNRELATED,
        "the child interned a fat-tree path before the unrelated ones: {line}"
    );
    let ours = child_line(&spilled);
    assert_eq!(
        fields[..5],
        ours.split_whitespace().collect::<Vec<_>>()[..5],
        "fingerprint or spill bytes moved with interning order"
    );
}

/// The fresh-process half of [`interning_order_never_reaches_a_result`],
/// which runs it alone; in the full suite it is one more spilled run.
#[test]
fn interning_order_child_run() {
    intern_unrelated_paths();
    let run = fifo_lstf_pipeline(Some((64, 2)));
    assert!(run.spill_bytes > 0, "the spilled run spilled nothing");
    println!("{}", child_line(&run));
}
