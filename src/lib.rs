//! # ups — Universal Packet Scheduling (HotNets 2015), reproduced in Rust
//!
//! A from-scratch reproduction of *"Universal Packet Scheduling"*
//! (Mittal, Agarwal, Ratnasamy, Shenker — HotNets 2015): can one packet
//! scheduling algorithm replay the schedules of all others? The paper
//! answers "almost": **Least Slack Time First** is the closest feasible
//! candidate — perfect up to two congestion points per packet, impossible
//! beyond — and in practice approximately replays FIFO, fair queueing,
//! SJF, LIFO and random schedules while matching specialized schedulers
//! on mean FCT, tail latency and fairness objectives.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`netsim`] | deterministic discrete-event simulator + all schedulers |
//! | [`topology`] | Internet2 / RocketFuel-like / fat-tree / counterexample graphs, routing, `tmin` |
//! | [`workload`] | Poisson arrivals, heavy-tailed sizes, utilization calibration |
//! | [`transport`] | simplified TCP with §3 slack-stamping policies |
//! | [`core`] | the replay framework, slack heuristics, appendix counterexamples |
//! | [`dynamics`] | link-failure schedules, epoch-based rerouting, churn-robust replay |
//! | [`forensics`] | replay-divergence attribution: mismatch taxonomy, per-hop blame, inversion classes |
//! | [`metrics`] | CDFs, Jain index, FCT buckets, run summaries, table rendering |
//! | [`obs`] | zero-cost-when-off probes, phase timers, time-series, Perfetto export |
//! | [`sweep`] | parallel scenario-sweep engine: grids, job-cursor thread pool, result store |
//!
//! ## Quickstart
//!
//! ```
//! use ups::prelude::*;
//!
//! // Record an arbitrary (Random) schedule on a 2-router line, then
//! // replay it with LSTF from black-box header initialization.
//! let topo = ups::topology::line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
//! let routing = ups::topology::Routing::new(&topo);
//! let hosts = topo.hosts();
//! let path = routing.path(hosts[0], hosts[1]);
//! let packets: Vec<Packet> = (0..40)
//!     .map(|i| {
//!         PacketBuilder::new(PacketId(i), FlowId(i % 4), 1500, path.clone(),
//!                            SimTime::from_us(3 * i)).build()
//!     })
//!     .collect();
//!
//! let experiment = ReplayExperiment {
//!     topo: &topo,
//!     original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
//!     init: HeaderInit::LstfSlack,
//!     preemptive: false,
//!     record: RecordMode::PerHop,
//!     seed: 7,
//! };
//! let outcome = experiment.run(&packets, Dur::ZERO);
//! // ≤ 2 congestion points on a line ⇒ LSTF replays (§2.2 Theorem 2).
//! assert!(outcome.report.frac_overdue() < 0.05);
//! ```
//!
//! See `examples/` for the paper's experiments and DESIGN.md for the
//! system inventory.

pub use ups_core as core;
pub use ups_dynamics as dynamics;
pub use ups_forensics as forensics;
pub use ups_metrics as metrics;
pub use ups_netsim as netsim;
pub use ups_obs as obs;
pub use ups_sweep as sweep;
pub use ups_topology as topology;
pub use ups_transport as transport;
pub use ups_workload as workload;

/// Everything needed for typical experiments.
pub mod prelude {
    pub use ups_core::{
        compare, fct_slack, max_congestion_points, tail_slack, FairnessSlackAssigner, HeaderInit,
        Replay, ReplayExperiment, ReplayOutcome, ReplayReport, FCT_D,
    };
    pub use ups_dynamics::{
        churn_replay_with_sink, run_schedule_with_failures, DynamicRouting, FailureProfile,
        FailureSchedule,
    };
    pub use ups_forensics::{BlameCollector, ReplayFlavor};
    pub use ups_metrics::{jain_index, jain_series, mean_fct_by_bucket, Cdf, FlowSample};
    pub use ups_netsim::prelude::*;
    pub use ups_sweep::{JobRecord, JobSpec, ScenarioGrid, TrafficMode};
    pub use ups_topology::{
        build_simulator, BuildOptions, NodeRole, Routing, SchedulerAssignment, Topology,
    };
    pub use ups_transport::{
        install_tcp, run_tcp, SlackPolicy, TcpConfig, TcpRun, TcpScenario, TransportStats,
    };
    pub use ups_workload::{
        udp_packet_train, BoundedPareto, Empirical, FlowSpec, PoissonWorkload, SizeDist, MTU,
    };
}
