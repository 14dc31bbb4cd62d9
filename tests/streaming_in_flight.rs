//! A streaming trace records each packet once, when it is delivered or
//! dropped, and adopts the packets still in flight when the simulator
//! hands its trace over (`Simulator::into_trace`). This differential stops
//! a fat-tree run mid-flight — packets queued, in service, on the wire,
//! rerouted around a dead link, evicted from small router buffers, and
//! not yet injected — and checks that the streaming trace, pushed through
//! tiny spill caps, reads back record for record like the resident one.

use std::collections::BTreeMap;
use std::sync::Arc;

use ups::dynamics::DynamicRouting;
use ups::netsim::prelude::*;
use ups::topology::{
    build_simulator, fattree, BuildOptions, FatTreeParams, Routing, SchedulerAssignment, Topology,
};

/// Packets per host train, spaced at the 10 Gb/s line rate.
const TRAIN: u64 = 40;
/// The core uplink on host 0's path fails here.
const FAIL_AT_NS: u64 = 20_000;
/// The run stops here, with most trains still going.
const HORIZON_NS: u64 = 30_000;

/// Every host sends a line-rate train to the host five places ahead
/// (cross-pod), staggered by 100 ns; the trains' tails and a late train
/// from host 0 start after the horizon, so they are still waiting to be
/// injected there.
fn workload(topo: &Topology) -> Vec<Packet> {
    let mut routing = Routing::new(topo);
    let hosts = topo.hosts();
    let mut packets = Vec::new();
    for (fi, &src) in hosts.iter().enumerate() {
        let path = routing.path(src, hosts[(fi + 5) % hosts.len()]);
        for k in 0..TRAIN {
            let at = SimTime::from_ns(k * 1_200 + fi as u64 * 100);
            let id = PacketId(packets.len() as u64);
            packets.push(PacketBuilder::new(id, FlowId(fi as u64), 1500, path.clone(), at).build());
        }
    }
    let path = routing.path(hosts[0], hosts[5]);
    for k in 0..4 {
        let id = PacketId(packets.len() as u64);
        let at = SimTime::from_us(1_000 + k);
        packets.push(PacketBuilder::new(id, FlowId(99), 1500, path.clone(), at).build());
    }
    packets
}

fn run(
    topo: &Topology,
    packets: &[Packet],
    dead: (NodeId, NodeId),
    record: RecordMode,
    caps: Option<(usize, usize)>,
) -> Simulator {
    let opts = BuildOptions {
        record,
        trace_spill_caps: caps,
        // Three full-size packets per router port: the trains overflow it.
        router_buffer_bytes: Some(4_500),
        seed: 3,
    };
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &opts,
    );
    sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
    sim.set_reroute_oracle(Box::new(DynamicRouting::new(Arc::new(topo.clone()))));
    sim.schedule_link_state(SimTime::from_ns(FAIL_AT_NS), dead.0, dead.1, false);
    for p in packets {
        sim.inject(p.clone());
    }
    sim.run_until(SimTime::from_ns(HORIZON_NS));
    sim
}

/// `(queued, in service)` over every port of the network.
fn port_occupancy(sim: &Simulator) -> (usize, usize) {
    (0..sim.node_count()).fold((0, 0), |(queued, busy), n| {
        let node = sim.node(NodeId(n as u32));
        (
            queued + node.ports.iter().map(|p| p.queue_len()).sum::<usize>(),
            busy + node.ports.iter().filter(|p| p.busy()).count(),
        )
    })
}

fn crosses(path: &[NodeId], (a, b): (NodeId, NodeId)) -> bool {
    path.windows(2)
        .any(|w| (w[0], w[1]) == (a, b) || (w[0], w[1]) == (b, a))
}

#[test]
fn streaming_trace_adopts_in_flight_packets_like_the_resident_trace() {
    let topo = fattree(FatTreeParams::default());
    let packets = workload(&topo);
    let routed = &packets[0].path;
    // host–edge–agg–core–…: fail host 0's aggregation–core link.
    let dead = (routed[2], routed[3]);

    let resident = run(&topo, &packets, dead, RecordMode::EndToEnd, None);
    let streaming = run(&topo, &packets, dead, RecordMode::Streaming, Some((64, 2)));
    let stats = streaming.stats();
    assert_eq!(resident.stats(), stats);
    assert!(stats.rerouted >= 1, "no packet was rerouted: {stats:?}");
    assert!(
        stats.dropped > stats.dropped_dead_link,
        "no buffer drop: {stats:?}"
    );
    let due = packets
        .iter()
        .filter(|p| p.injected_at <= SimTime::from_ns(HORIZON_NS))
        .count();
    assert!(due < packets.len());
    assert_eq!(
        stats.injected, due as u64,
        "later packets wait to be injected"
    );

    // More than three 64-record chunks finalized: the 2-chunk ring
    // overflowed, so records came back through the spill codec.
    assert!(stats.delivered + stats.dropped > 3 * 64, "{stats:?}");
    let (queued, in_service) = port_occupancy(&streaming);
    let resident = resident.into_trace();
    let streaming = streaming.into_trace();
    let a: Vec<(PacketId, PacketRecord)> = resident.stream().collect();
    let b: Vec<(PacketId, PacketRecord)> = streaming.stream().collect();
    assert_eq!(a.len(), b.len(), "record counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "records differ");
    }
    assert_eq!(resident.len(), streaming.len());
    assert_eq!(resident.id_bound(), streaming.id_bound());
    assert_eq!(streaming.len() as u64, stats.injected);

    let original: BTreeMap<PacketId, &Arc<[NodeId]>> =
        packets.iter().map(|p| (p.id, &p.path)).collect();
    let open: Vec<&(PacketId, PacketRecord)> = b
        .iter()
        .filter(|(_, r)| r.exited.is_none() && !r.dropped)
        .collect();
    assert!(queued > 0, "nothing queued at the horizon");
    assert!(
        open.len() > queued + in_service,
        "nothing on the wire at the horizon: {} open, {queued} queued, {in_service} in service",
        open.len()
    );
    for (_, r) in &open {
        assert_eq!(r.total_wait, Dur::ZERO);
        assert_eq!(r.drop_cause, None);
    }
    let spliced: Vec<_> = open
        .iter()
        .filter(|(id, r)| r.path != *original[id])
        .collect();
    assert!(!spliced.is_empty(), "no rerouted packet in flight");
    for (id, r) in spliced {
        let before = original[id];
        assert_eq!(r.path.first(), before.first(), "{id}");
        assert_eq!(r.path.last(), before.last(), "{id}");
        assert!(crosses(before, dead) && !crosses(&r.path, dead), "{id}");
    }
    assert!(b
        .iter()
        .any(|(_, r)| r.drop_cause == Some(DropCause::Buffer)));
}
