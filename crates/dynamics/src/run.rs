//! The churn runner and the churn-robust replay.

use std::sync::Arc;

use ups_core::Replay;
use ups_netsim::prelude::{DeadLinkPolicy, Packet, SimStats, Trace};
use ups_topology::{build_simulator, BuildOptions, SchedulerAssignment, Topology};

use crate::routing::DynamicRouting;
use crate::schedule::FailureSchedule;

/// What a churn run produced: the as-executed trace (per-packet observed
/// paths and drop causes) plus the simulator counters, whose `rerouted`
/// / `dropped_dead_link` / `link_events` fields feed the disruption
/// metrics.
pub struct ChurnOutcome {
    /// The recorded schedule.
    pub trace: Trace,
    /// Run counters.
    pub stats: SimStats,
}

/// Run a packet set through `topo` under `assign` while `schedule`'s
/// link events fire, applying `policy` to packets stranded at dead
/// links, and return the as-executed schedule.
///
/// With an empty schedule this adds **no** events and **no** oracle —
/// the run is bit-identical to [`ups_core::run_schedule`] with the same
/// inputs, which the zero-failure tests (and the failures bench, before
/// it writes anything) assert rather than assume.
pub fn run_schedule_with_failures(
    topo: &Topology,
    assign: &SchedulerAssignment,
    packets: impl IntoIterator<Item = Packet>,
    schedule: &FailureSchedule,
    policy: DeadLinkPolicy,
    opts: &BuildOptions,
) -> ChurnOutcome {
    let mut sim = build_simulator(topo, assign, opts);
    if !schedule.is_empty() {
        sim.set_dead_link_policy(policy);
        if policy == DeadLinkPolicy::Reroute {
            sim.set_reroute_oracle(Box::new(DynamicRouting::new(Arc::new(topo.clone()))));
        }
        for e in &schedule.events {
            sim.schedule_link_state(e.at, e.a, e.b, e.up);
        }
    }
    let mut n = 0u64;
    for p in packets {
        n += 1;
        sim.inject(p);
    }
    sim.run();
    debug_assert_eq!(
        sim.stats().delivered + sim.stats().dropped,
        n,
        "packets vanished"
    );
    ChurnOutcome {
        stats: sim.stats(),
        trace: sim.into_trace(),
    }
}

/// The §2 replay kept well-defined under churn: re-run the **delivered**
/// packets of `original` at their observed `i(p)` along their observed
/// as-executed paths through non-preemptive black-box LSTF on the intact
/// topology, and score `o′(p) ≤ o(p)` against the original exits.
///
/// Packets the churn run dropped are excluded on both sides (they have
/// no `o(p)` to target), so the comparison covers exactly the packets
/// the original schedule got out. `sink` observes every mismatch — how
/// the forensics layer attributes churn-replay failures — and never
/// influences the report; pass `&mut ()` for none.
///
/// This is the lazy form of the replay entry ([`Replay::lazy`]): the
/// replay set is never materialized and the comparison merge-joins the
/// two record streams, so a spilled original trace replays in bounded
/// memory.
pub fn churn_replay_with_sink(
    topo: &Topology,
    original: &Trace,
    seed: u64,
    sink: &mut dyn ups_core::DivergenceSink,
) -> ups_core::ReplayReport {
    Replay::new(topo, original, seed).lazy(sink).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FailureProfile;
    use ups_core::{replay_stream, run_schedule, HeaderInit};
    use ups_netsim::prelude::{DropCause, Dur, PacketKind, SchedulerKind};
    use ups_topology::{topology_by_name, Routing};

    /// A dense many-pair workload on the fat-tree: every ordered host
    /// pair (i, i+5) sends a short train.
    fn workload(topo: &Topology, per_pair: u64, gap_us: u64) -> Vec<Packet> {
        use ups_netsim::prelude::{FlowId, PacketBuilder, PacketId, SimTime};
        let routing = Routing::new(topo);
        let hosts = topo.hosts();
        let mut packets = Vec::new();
        let mut id = 0u64;
        for (fi, &src) in hosts.iter().enumerate() {
            let dst = hosts[(fi + 5) % hosts.len()];
            let path = routing.path(src, dst);
            for k in 0..per_pair {
                packets.push(
                    PacketBuilder::new(
                        PacketId(id),
                        FlowId(fi as u64),
                        1500,
                        path,
                        SimTime::from_us(k * gap_us + fi as u64),
                    )
                    .build(),
                );
                id += 1;
            }
        }
        packets
    }

    fn fifo() -> SchedulerAssignment {
        SchedulerAssignment::uniform(SchedulerKind::Fifo)
    }

    #[test]
    fn zero_failure_run_is_bit_identical_to_static_run() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 40, 13);
        let opts = BuildOptions::default();
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &FailureSchedule::none(),
            DeadLinkPolicy::Reroute,
            &opts,
        );
        let plain = run_schedule(&topo, &fifo(), packets.iter().cloned(), &opts);
        assert_eq!(churn.trace, plain, "empty schedule must change nothing");
        assert_eq!(churn.stats.rerouted, 0);
        assert_eq!(churn.stats.link_events, 0);
    }

    #[test]
    fn reroute_policy_delivers_through_churn() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 60, 11);
        let window = Dur::from_us(60 * 11);
        let schedule =
            FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.5, window, 21);
        assert!(!schedule.is_empty());
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &schedule,
            DeadLinkPolicy::Reroute,
            &BuildOptions::default(),
        );
        assert!(churn.stats.rerouted > 0, "churn must actually reroute");
        // The fat-tree stays connected under a 50% router-link cut often
        // enough that most packets still arrive.
        assert!(churn.stats.delivered > churn.stats.dropped);
        // Rerouted packets' records carry their as-executed paths: every
        // delivered record's path must be walkable over topology links.
        for (_, r) in churn.trace.stream().filter(|(_, r)| r.exited.is_some()) {
            for w in r.path.windows(2) {
                assert!(
                    topo.neighbor_link(w[0], w[1]).is_some(),
                    "as-executed path uses a non-link"
                );
            }
        }
    }

    #[test]
    fn drop_policy_records_dead_link_causes() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 60, 11);
        let window = Dur::from_us(60 * 11);
        let schedule =
            FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.5, window, 21);
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &schedule,
            DeadLinkPolicy::Drop,
            &BuildOptions::default(),
        );
        assert_eq!(churn.stats.rerouted, 0);
        assert!(churn.stats.dropped_dead_link > 0);
        assert_eq!(churn.stats.dropped, churn.stats.dropped_dead_link);
        let dead_link_drops = churn
            .trace
            .stream()
            .filter(|(_, r)| r.drop_cause == Some(DropCause::DeadLink))
            .count() as u64;
        assert_eq!(dead_link_drops, churn.stats.dropped_dead_link);
    }

    #[test]
    fn churn_replay_scores_the_delivered_subset() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, 60, 11);
        let window = Dur::from_us(60 * 11);
        let schedule =
            FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.4, window, 5);
        let churn = run_schedule_with_failures(
            &topo,
            &fifo(),
            packets.iter().cloned(),
            &schedule,
            DeadLinkPolicy::Reroute,
            &BuildOptions::default(),
        );
        let report = churn_replay_with_sink(&topo, &churn.trace, 5, &mut ());
        assert_eq!(report.total as u64, churn.stats.delivered);
        assert_eq!(report.missing, 0, "replay runs drop-free");
        let rate = report.match_rate().expect("delivered > 0");
        assert!(rate > 0.5, "LSTF should mostly keep up: {rate}");
        // And the replay set is exactly the delivered packets.
        let executed: Vec<Packet> =
            replay_stream(&topo, &churn.trace, HeaderInit::LstfSlack).collect();
        assert_eq!(executed.len() as u64, churn.stats.delivered);
        assert!(executed.iter().all(|p| p.kind == PacketKind::Data));
    }
}
