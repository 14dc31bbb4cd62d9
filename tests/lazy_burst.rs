//! Same-instant bursts on the lazy injection path.
//!
//! `run_with_injections` asks the event list for its head once per step.
//! A UDP flow's packets all share the flow's start time, so a 30 MB flow
//! is a burst of 20,000 pushes at one instant with a `peek_time` after
//! each. When the head was found by scanning the burst's bucket, and a
//! push into the bucket being drained was a `Vec::insert`, that cost
//! O(n²) and this test failed by a wide margin. With the head cached the
//! lazy run is the eager run plus the iterator.
//!
//! A file of its own: tests of one file share a process and run on
//! parallel threads, which would disturb the timing.

use std::time::{Duration, Instant};

use ups::prelude::*;
use ups::topology::fattree_default;
use ups::workload::Fixed;

/// The first three flows of a 30 MB single-size Poisson train at 70 %.
fn burst_train() -> (Topology, Vec<Packet>) {
    let topo = fattree_default();
    let routing = Routing::new(&topo);
    let mut window = Dur::from_ms(20);
    let flows = loop {
        let mut flows = PoissonWorkload::at_utilization(0.7, window, 5).generate(
            &topo,
            &routing,
            &Fixed(30_000_000),
        );
        if flows.len() >= 3 {
            flows.truncate(3);
            break flows;
        }
        window = window.times(2);
    };
    let packets = udp_packet_train(&flows, MTU);
    assert_eq!(packets.len(), 60_000);
    (topo, packets)
}

fn timed_run(topo: &Topology, packets: &[Packet], lazy: bool) -> (Duration, Trace) {
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &BuildOptions::default(),
    );
    let started = Instant::now();
    if lazy {
        sim.run_with_injections(packets.iter().cloned());
    } else {
        for p in packets.iter().cloned() {
            sim.inject(p);
        }
        sim.run();
    }
    let wall = started.elapsed();
    assert_eq!(sim.stats().delivered, packets.len() as u64);
    (wall, sim.into_trace())
}

#[test]
fn lazy_injection_of_same_instant_bursts_costs_no_more_than_three_eager_runs() {
    let (topo, packets) = burst_train();
    let best_of_three = |lazy: bool| {
        let runs: Vec<(Duration, Trace)> =
            (0..3).map(|_| timed_run(&topo, &packets, lazy)).collect();
        assert!(
            runs.iter().all(|(_, trace)| *trace == runs[0].1),
            "lazy={lazy}: trace differs between identical runs"
        );
        runs.iter()
            .map(|(wall, _)| *wall)
            .min()
            .expect("three runs")
    };
    let eager = best_of_three(false);
    let lazy = best_of_three(true);
    assert!(
        lazy <= eager * 3,
        "run_with_injections took {lazy:?}, inject-all + run {eager:?}"
    );
}
