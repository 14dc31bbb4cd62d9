//! The shared closed-loop scenario driver.
//!
//! Build the simulator, install the TCP endpoints, run to a horizon,
//! hand back the recorded schedule plus the transport measurements — the
//! one code path behind every TCP-driven experiment: the `ups-sweep`
//! closed-loop jobs, Figure 2 (mean FCT) and Figure 4 (fairness). The
//! bench runners used to wire `install_tcp` by hand per figure; keeping
//! the setup here means a sweep job and a figure run of the same scenario
//! are the same simulation.

use ups_netsim::prelude::{Dur, SimStats, SimTime, Trace};
use ups_topology::{build_simulator, BuildOptions, Routing, SchedulerAssignment, Topology};
use ups_workload::FlowSpec;

use crate::stats::TransportStats;
use crate::tcp::{install_tcp, SlackPolicy, TcpConfig};

/// One fully-specified closed-loop run.
pub struct TcpScenario<'a> {
    /// Network.
    pub topo: &'a Topology,
    /// Per-router disciplines.
    pub assign: &'a SchedulerAssignment,
    /// Simulator construction options (record mode, buffers, seed).
    pub opts: BuildOptions,
    /// The application flows the endpoints realize.
    pub flows: &'a [FlowSpec],
    /// Transport tuning.
    pub config: TcpConfig,
    /// §3 slack stamping.
    pub policy: SlackPolicy,
    /// Simulated-time horizon: the run processes events up to and
    /// including this instant (long-lived flows never drain on their own).
    pub horizon: Dur,
    /// Stop early once this many packets (data + acks) were injected —
    /// the closed-loop analogue of the sweep engine's `max_packets`
    /// smoke-grid cap.
    pub max_packets: Option<u64>,
}

/// Goodput bucket width of every closed-loop run's [`TransportStats`]
/// (Figure 4's per-millisecond throughput).
const GOODPUT_BUCKET: Dur = Dur::from_ms(1);

/// What a closed-loop run produced.
pub struct TcpRun {
    /// The as-executed schedule (detail per `opts.record`).
    pub trace: Trace,
    /// Flow completions, goodput buckets, retransmit/RTO counters.
    pub stats: TransportStats,
    /// Simulator counters (injected/delivered/dropped include acks).
    pub sim: SimStats,
}

/// Execute `scenario` to completion (horizon or packet cap, whichever
/// comes first). `routing` is the caller's instance — every caller has
/// already built one to generate the flows, and reusing it keeps its
/// all-pairs BFS tables and path cache warm for the ack reverse paths.
pub fn run_tcp(scenario: &TcpScenario<'_>, routing: &mut Routing) -> TcpRun {
    let mut sim = build_simulator(scenario.topo, scenario.assign, &scenario.opts);
    let stats = TransportStats::new(GOODPUT_BUCKET);
    install_tcp(
        &mut sim,
        scenario.topo,
        routing,
        scenario.flows,
        scenario.config,
        scenario.policy.clone(),
        &stats,
    );
    let horizon = SimTime::ZERO + scenario.horizon;
    match scenario.max_packets {
        None => sim.run_until(horizon),
        Some(cap) => {
            // Step-wise so the injected count is checked between events;
            // the cap binds deterministically because event order does.
            // `step_within` keeps run_until's horizon semantics exactly,
            // so a run whose cap never binds matches the uncapped run.
            while sim.stats().injected < cap && sim.step_within(horizon) {}
        }
    }
    let sim_stats = sim.stats();
    TcpRun {
        trace: sim.into_trace(),
        stats,
        sim: sim_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_netsim::prelude::{Bandwidth, FlowId, RecordMode, SchedulerKind, SimTime};
    use ups_topology::dumbbell;

    fn scenario_parts() -> (Topology, Vec<FlowSpec>) {
        let topo = dumbbell(
            2,
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(1),
            Dur::from_ms(1),
        );
        let mut routing = Routing::new(&topo);
        let hosts = topo.hosts();
        let flows = vec![FlowSpec {
            id: FlowId(0),
            src: hosts[0],
            dst: hosts[2],
            size: 500_000,
            start: SimTime::ZERO,
            path: routing.path(hosts[0], hosts[2]),
        }];
        (topo, flows)
    }

    #[test]
    fn driver_runs_a_flow_to_completion_and_records_a_trace() {
        let (topo, flows) = scenario_parts();
        let assign = SchedulerAssignment::uniform(SchedulerKind::Fifo);
        let mut routing = Routing::new(&topo);
        let run = run_tcp(
            &TcpScenario {
                topo: &topo,
                assign: &assign,
                opts: BuildOptions {
                    record: RecordMode::EndToEnd,
                    ..BuildOptions::default()
                },
                flows: &flows,
                config: TcpConfig::default(),
                policy: SlackPolicy::None,
                horizon: Dur::from_secs(5),
                max_packets: None,
            },
            &mut routing,
        );
        assert_eq!(run.stats.completions().len(), 1);
        assert_eq!(run.stats.goodput_total(), 500_000);
        assert!(run.sim.injected > 0);
        // The trace recorded the as-executed schedule: every delivered
        // packet has an exit time.
        assert!(
            run.trace.delivered().expect("resident trace").count() > 300,
            "data + acks recorded"
        );
    }

    #[test]
    fn packet_cap_stops_the_run_early_and_deterministically() {
        let (topo, flows) = scenario_parts();
        let assign = SchedulerAssignment::uniform(SchedulerKind::Fifo);
        let mk = || {
            let mut routing = Routing::new(&topo);
            run_tcp(
                &TcpScenario {
                    topo: &topo,
                    assign: &assign,
                    opts: BuildOptions::default(),
                    flows: &flows,
                    config: TcpConfig::default(),
                    policy: SlackPolicy::None,
                    horizon: Dur::from_secs(5),
                    max_packets: Some(50),
                },
                &mut routing,
            )
        };
        let a = mk();
        let b = mk();
        assert!(a.sim.injected >= 50, "cap binds at or just past 50");
        assert!(
            a.sim.injected < 200,
            "run stopped early: {}",
            a.sim.injected
        );
        assert_eq!(a.sim, b.sim, "capped runs are deterministic");
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn non_binding_cap_matches_the_uncapped_run_exactly() {
        // The capped path must not overshoot the horizon by one event:
        // with a cap that never binds, both paths are the same run.
        let (topo, flows) = scenario_parts();
        let assign = SchedulerAssignment::uniform(SchedulerKind::Fifo);
        let mk = |cap: Option<u64>| {
            let mut routing = Routing::new(&topo);
            run_tcp(
                &TcpScenario {
                    topo: &topo,
                    assign: &assign,
                    opts: BuildOptions::default(),
                    flows: &flows,
                    config: TcpConfig::default(),
                    policy: SlackPolicy::None,
                    horizon: Dur::from_ms(9), // mid-flight: events remain queued
                    max_packets: cap,
                },
                &mut routing,
            )
        };
        let uncapped = mk(None);
        let capped = mk(Some(u64::MAX));
        assert_eq!(uncapped.sim, capped.sim);
        assert_eq!(uncapped.trace, capped.trace);
    }
}
