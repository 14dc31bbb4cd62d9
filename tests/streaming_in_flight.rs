//! A trace records each packet once, when it is delivered or dropped, and
//! records the packets still in flight when the simulator hands its trace
//! over (`Simulator::into_trace`). These tests stop a fat-tree run
//! mid-flight — packets queued, in service, on the wire, rerouted around a
//! dead link, evicted from small router buffers, and not yet injected —
//! and check that a trace pushed through tiny spill caps reads back record
//! for record like the resident one, at either detail, and that the
//! resident record streams keep the answers of the recorder that opened a
//! record at injection.

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
    let routing = Routing::new(topo);
    let hosts = topo.hosts();
    let mut packets = Vec::new();
    for (fi, &src) in hosts.iter().enumerate() {
        let path = routing.path(src, hosts[(fi + 5) % hosts.len()]);
        for k in 0..TRAIN {
            let at = SimTime::from_ns(k * 1_200 + fi as u64 * 100);
            let id = PacketId(packets.len() as u64);
            packets.push(PacketBuilder::new(id, FlowId(fi as u64), 1500, path, at).build());
        }
    }
    let path = routing.path(hosts[0], hosts[5]);
    for k in 0..4 {
        let id = PacketId(packets.len() as u64);
        let at = SimTime::from_us(1_000 + k);
        packets.push(PacketBuilder::new(id, FlowId(99), 1500, path, at).build());
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

    let original: BTreeMap<PacketId, PathId> = packets.iter().map(|p| (p.id, p.path)).collect();
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
        .filter(|(id, r)| r.path != original[id])
        .collect();
    assert!(!spliced.is_empty(), "no rerouted packet in flight");
    for (id, r) in spliced {
        let before = original[id];
        assert_eq!(r.path.first(), before.first(), "{id}");
        assert_eq!(r.path.last(), before.last(), "{id}");
        assert!(crosses(&before, dead) && !crosses(&r.path, dead), "{id}");
    }
    assert!(b
        .iter()
        .any(|(_, r)| r.drop_cause == Some(DropCause::Buffer)));
}

/// FNV-1a, 64 bit, folded over `bytes`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// One hash over every field of every record, in stream order.
fn fingerprint(records: &[(PacketId, PacketRecord)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let time = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_ps()).to_le_bytes();
    for (id, r) in records {
        fnv(&mut h, &id.0.to_le_bytes());
        fnv(&mut h, &r.flow.0.to_le_bytes());
        fnv(&mut h, &r.size.to_le_bytes());
        fnv(&mut h, &[r.kind as u8, r.dropped as u8]);
        fnv(&mut h, &[r.drop_cause.map_or(0, |c| c as u8 + 1)]);
        fnv(&mut h, &(r.path.len() as u32).to_le_bytes());
        for n in r.path.iter() {
            fnv(&mut h, &n.0.to_le_bytes());
        }
        fnv(&mut h, &time(Some(r.injected)));
        fnv(&mut h, &time(r.exited));
        fnv(&mut h, &r.total_wait.as_ps().to_le_bytes());
        fnv(&mut h, &(r.hops.len() as u32).to_le_bytes());
        for hop in &r.hops {
            fnv(&mut h, &hop.node.0.to_le_bytes());
            fnv(&mut h, &time(Some(hop.arrived)));
            fnv(&mut h, &time(Some(hop.tx_start)));
            fnv(&mut h, &hop.waited.as_ps().to_le_bytes());
        }
    }
    h
}

/// The horizon-cut run's record stream at one detail and storage.
fn records(
    detail: RecordMode,
    caps: Option<(usize, usize)>,
) -> (Trace, Vec<(PacketId, PacketRecord)>) {
    let topo = fattree(FatTreeParams::default());
    let packets = workload(&topo);
    let routed = &packets[0].path;
    let trace = run(&topo, &packets, (routed[2], routed[3]), detail, caps).into_trace();
    let records = trace.stream().collect();
    (trace, records)
}

fn in_flight(records: &[(PacketId, PacketRecord)]) -> usize {
    records
        .iter()
        .filter(|(_, r)| r.exited.is_none() && !r.dropped)
        .count()
}

/// The resident traces' answers on this scenario, from the recorder that
/// opened a record at injection, patched its path on reroute and closed
/// it on exit: the streaming differential above compared against it. A
/// packet in flight at hand-over reads as that recorder left it — no
/// wait, and in `PerHop` the hops it had reached.
#[test]
fn resident_record_streams_keep_their_fingerprints() {
    for (detail, want) in [
        (RecordMode::EndToEnd, 0x40c4_4d15_67f5_9902),
        (RecordMode::PerHop, 0x9ba9_79bb_8603_d8e5),
    ] {
        let (_, records) = records(detail, None);
        assert_eq!(records.len(), 398, "{detail:?}");
        assert_eq!(in_flight(&records), 152, "{detail:?}");
        assert_eq!(
            fingerprint(&records),
            want,
            "{detail:?}: {:#x}",
            fingerprint(&records)
        );
    }
}

/// Storage follows the spill cap at any detail: a `PerHop` run pushed
/// through tiny caps reads back record for record, hops included, like the
/// resident one.
#[test]
fn per_hop_spills_like_per_hop_resident() {
    let (resident, want) = records(RecordMode::PerHop, None);
    let (spilled, got) = records(RecordMode::PerHop, Some((64, 2)));
    assert_eq!(got, want);
    assert!(
        got.iter()
            .any(|(_, r)| r.exited.is_none() && !r.dropped && !r.hops.is_empty()),
        "no in-flight record carries partial hops"
    );
    // Every record went through the 64-record chunks: more than three
    // sealed, so the 2-chunk ring overflowed to the spill file.
    assert_eq!(spilled.len(), resident.len());
    assert!(spilled.len() > 3 * 64, "{} records", spilled.len());
    assert!(spilled.spilled());
}
