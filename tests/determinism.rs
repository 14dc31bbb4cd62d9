//! The replay methodology's load-bearing invariant, asserted end to end:
//! a simulation run is a pure function of its inputs. Two runs of the
//! same seeded fat-tree workload must produce **bit-identical traces** —
//! every injection, per-hop arrival, transmission start, wait and exit,
//! compared with `Trace == Trace`.
//!
//! This pins the determinism contract across the whole zero-copy hot
//! path: timing-wheel event ordering (`(time, seq)`), arena slot
//! recycling, per-port arrival sequencing, and the seeded `Random`
//! discipline.

use ups::prelude::*;
use ups::topology::{fattree, FatTreeParams};

fn fattree_workload(seed: u64) -> (Topology, Vec<Packet>) {
    let topo = fattree(FatTreeParams::default());
    let mut routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(6), seed).generate(
        &topo,
        &mut routing,
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
    for p in train.packets {
        sim.inject(p);
    }
    sim.run();
    let (mut exit_sum_ps, mut weighted_ps) = (0u128, 0u128);
    for (id, r) in sim.trace().delivered().expect("resident trace") {
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
