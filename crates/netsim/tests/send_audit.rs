//! Compile-time `Send` audit for everything a sweep worker thread moves
//! or builds: the simulator, the packet arena, the event list, the trace,
//! and every scheduling discipline.
//!
//! The `ups-sweep` pool executes one full simulation per job on
//! whichever worker claims it, so `Simulator` (and everything it
//! owns) must stay `Send`. A future `Rc`/raw-pointer regression anywhere
//! in the simulator's ownership graph fails *this file's compilation*,
//! not a run of the pool.

use ups_netsim::arena::PacketArena;
use ups_netsim::event::EventQueue;
use ups_netsim::prelude::*;
use ups_netsim::sched::{
    Drr, Edf, FairQueueing, Fifo, FifoPlus, Lifo, Lstf, Omniscient, Priority, Quantized, Random,
    Sjf, Srpt,
};

const fn assert_send<T: Send>() {}

// Simulator and the state it owns. Evaluated at compile time: a non-Send
// field anywhere below is a build error, not a test failure.
const _: () = {
    assert_send::<Simulator>();
    assert_send::<PacketArena>();
    assert_send::<EventQueue>();
    assert_send::<Trace>();
    assert_send::<Packet>();
    assert_send::<Box<dyn Agent>>();
    assert_send::<Box<dyn Scheduler>>();
};

// Every concrete discipline, so a regression is attributed to the exact
// scheduler that introduced it rather than to `Box<dyn Scheduler>`.
const _: () = {
    assert_send::<Fifo>();
    assert_send::<Lifo>();
    assert_send::<Random>();
    assert_send::<Priority>();
    assert_send::<Sjf>();
    assert_send::<Srpt>();
    assert_send::<FairQueueing>();
    assert_send::<Drr>();
    assert_send::<FifoPlus>();
    assert_send::<Lstf>();
    assert_send::<Edf>();
    assert_send::<Omniscient>();
    assert_send::<Quantized>();
};

/// The audit is the `const` blocks above; this test exists so the target
/// shows up in `cargo test` output and documents intent at runtime too.
#[test]
fn simulator_moves_across_threads() {
    let mut sim = Simulator::new(SimConfig::default());
    let a = sim.add_node();
    let b = sim.add_node();
    let link = Link {
        bandwidth: Bandwidth::from_gbps(1),
        propagation: Dur::from_us(10),
    };
    sim.add_oneway_link(a, b, link, SchedulerKind::Fifo.build(0), None);
    let path: std::sync::Arc<[NodeId]> = vec![a, b].into();
    sim.inject(PacketBuilder::new(PacketId(0), FlowId(0), 1500, path, SimTime::ZERO).build());
    // Move the whole simulator onto another thread and run it there.
    let stats = std::thread::spawn(move || {
        sim.run();
        sim.stats()
    })
    .join()
    .expect("worker thread panicked");
    assert_eq!(stats.delivered, 1);
}

#[test]
fn every_kind_round_trips_through_its_name() {
    for kind in SchedulerKind::ALL {
        assert_eq!(SchedulerKind::from_name(kind.name()), Some(kind));
    }
    assert_eq!(SchedulerKind::from_name("WFQ2"), None);
    // Quantized kinds are parameterized: they build and audit alongside
    // ALL but deliberately have no bare-name inverse.
    for kind in SchedulerKind::QUANTIZED_SAMPLES {
        assert_eq!(kind.name(), "Quantized");
        assert_eq!(SchedulerKind::from_name("Quantized"), None);
        assert!(kind.build(7).is_empty());
    }
}
