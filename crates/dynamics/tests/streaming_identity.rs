//! Property test: under random link-failure schedules with epoch-based
//! rerouting, the streaming (spill-backed) trace layout is bit-identical
//! to the resident layout — same record stream, same churn-replay
//! report. Spill caps are forced tiny so every case actually overflows
//! the chunk ring to disk and round-trips through the binary codec,
//! including `DropCause::DeadLink` records and rerouted (spliced) paths
//! that never appear in static-network runs.

use proptest::prelude::*;
use proptest::sample;
use ups_dynamics::{
    churn_replay_with_sink, run_schedule_with_failures, FailureProfile, FailureSchedule,
};
use ups_netsim::prelude::{
    DeadLinkPolicy, FlowId, Packet, PacketBuilder, PacketId, RecordMode, SchedulerKind, SimTime,
};
use ups_topology::{topology_by_name, BuildOptions, Routing, SchedulerAssignment, Topology};

/// A dense many-pair workload: every host sends a short train to the
/// host five places ahead, staggered so trains overlap in the core.
fn workload(topo: &Topology, per_pair: u64, gap_us: u64) -> Vec<Packet> {
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

const PROFILES: [FailureProfile; 3] = [
    FailureProfile::RandomLinks,
    FailureProfile::CoreLinks,
    FailureProfile::Burst,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn streaming_trace_is_bit_identical_under_churn(
        profile in sample::select(&PROFILES),
        rate_pct in 10u64..60,
        policy in sample::select(&[DeadLinkPolicy::Reroute, DeadLinkPolicy::Drop]),
        seed in 0u64..1 << 32,
        per_pair in 20u64..50,
    ) {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let gap_us = 11;
        let packets = workload(&topo, per_pair, gap_us);
        let window = ups_netsim::prelude::Dur::from_us(per_pair * gap_us);
        let schedule =
            FailureSchedule::generate(&topo, profile, rate_pct as f64 / 100.0, window, seed);
        let assign = SchedulerAssignment::uniform(SchedulerKind::Fifo);

        let run = |record, caps| {
            let opts = BuildOptions {
                record,
                trace_spill_caps: caps,
                seed,
                ..BuildOptions::default()
            };
            run_schedule_with_failures(
                &topo, &assign, packets.iter().cloned(), &schedule, policy, &opts,
            )
        };
        let resident = run(RecordMode::EndToEnd, None);
        // 64-record chunks, 2 resident: every case spills most of its
        // trace through the codec.
        let streaming = run(RecordMode::Streaming, Some((64, 2)));

        prop_assert_eq!(resident.stats, streaming.stats);
        prop_assert!(
            resident.trace.stream().eq(streaming.trace.stream()),
            "streaming records diverged from resident under churn"
        );
        prop_assert_eq!(
            churn_replay_with_sink(&topo, &resident.trace, seed, &mut ()),
            churn_replay_with_sink(&topo, &streaming.trace, seed, &mut ()),
            "churn replay reports diverged across trace layouts"
        );
    }
}
