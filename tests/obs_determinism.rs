//! Observation never steers the simulation: a run with `ups-obs`
//! instrumentation live (global gate enabled, time-series probe
//! attached) is **bit-identical** — trace, stats, replay report — to the
//! same seeded run with everything off. This is the determinism half of
//! the zero-cost-when-off contract; the cost half is the
//! `obs.trace_overhead` row of the benchmark (`examples/perf`).
//!
//! The gate is process-global and `cargo test` runs `#[test]`s on
//! threads, so every test that toggles it serializes on one lock —
//! otherwise one test's `disable()` would silently blind another's
//! enabled run (harmless for determinism, fatal for the "counters
//! actually moved" assertions).

use std::sync::Mutex;

use ups::obs::Counter;
use ups::prelude::*;
use ups::topology::{fattree, FatTreeParams};

static GATE: Mutex<()> = Mutex::new(());

fn fattree_workload(window_ms: u64, seed: u64) -> (Topology, Vec<Packet>) {
    let topo = fattree(FatTreeParams::default());
    let mut routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(window_ms), seed).generate(
        &topo,
        &mut routing,
        &Empirical::web_search() as &dyn SizeDist,
    );
    let packets = udp_packet_train(&flows, MTU);
    (topo, packets)
}

use proptest::prelude::*;
use proptest::sample;

const SCHEDS: [SchedulerKind; 3] = [
    SchedulerKind::Fifo,
    SchedulerKind::Random,
    SchedulerKind::Lstf { preemptive: false },
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]
    /// The full replay experiment — original run, header init, black-box
    /// LSTF replay, comparison — is bit-identical with the gate on.
    #[test]
    fn replay_experiment_is_identical_with_gate_enabled(
        sched in sample::select(&SCHEDS),
        preemptive in proptest::bool::ANY,
        seed in 0u64..1 << 32,
    ) {
        let _g = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let (topo, packets) = fattree_workload(2, seed ^ 0xA5A5);
        let exp = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(sched),
            init: HeaderInit::LstfSlack,
            preemptive,
            record: RecordMode::PerHop,
            seed,
        };
        ups::obs::disable();
        let off = exp.run(&packets, Dur::ZERO);
        ups::obs::reset();
        ups::obs::enable();
        let on = exp.run(&packets, Dur::ZERO);
        ups::obs::disable();
        let gate = ups::obs::snapshot();

        prop_assert!(off.original == on.original, "original traces diverged");
        prop_assert!(off.replay == on.replay, "replay traces diverged");
        prop_assert_eq!(off.report, on.report, "replay reports diverged");
        // The instrumented run must actually have been instrumented.
        prop_assert!(gate.counter(Counter::EventsInject) >= packets.len() as u64);
        prop_assert!(gate.phase_calls(ups::obs::Phase::Dispatch) > 0);
    }
}

/// The streaming/spill trace path under full instrumentation: gate on
/// *and* a sampling probe attached, with spill caps forced tiny so the
/// run round-trips records through the chunk codec while being observed.
#[test]
fn streaming_spill_run_is_identical_with_probes_on() {
    let _g = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (topo, packets) = fattree_workload(3, 17);
    let run = |probe: Option<&SharedProbe>| {
        let mut sim = build_simulator(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            &BuildOptions {
                record: RecordMode::Streaming,
                // 64-record chunks, 2 resident: most of the trace spills.
                trace_spill_caps: Some((64, 2)),
                seed: 9,
                ..BuildOptions::default()
            },
        );
        if let Some(p) = probe {
            // 50 µs virtual sampling: hundreds of rows over a 3 ms window.
            sim.set_probe(p.clone());
        }
        for p in packets.iter().cloned() {
            sim.inject(p);
        }
        sim.run();
        let stats = sim.stats();
        (stats, sim.into_trace())
    };

    ups::obs::disable();
    ups::obs::reset();
    let (stats_off, trace_off) = run(None);

    let probe = SharedProbe::new(50 * PS_PER_US);
    ups::obs::enable();
    let (stats_on, trace_on) = run(Some(&probe));
    ups::obs::disable();
    let gate = ups::obs::snapshot();

    assert_eq!(stats_off, stats_on, "stats diverged under instrumentation");
    assert!(
        trace_off.stream().eq(trace_on.stream()),
        "streamed records diverged under instrumentation"
    );
    let series = probe.take_series();
    assert!(!series.rows.is_empty(), "probe never sampled");
    assert!(series.rows.windows(2).all(|w| w[1].t_ps > w[0].t_ps));
    // The spill path really ran while observed.
    assert!(
        gate.counter(Counter::SpillChunksSealed) > 0,
        "nothing spilled"
    );
    assert!(gate.counter(Counter::SpillBytes) > 0);
    assert!(gate.counter(Counter::TraceRecordsFinalized) > 0);
    assert!(gate.phase_ns(ups::obs::Phase::SpillIo) > 0);
}
