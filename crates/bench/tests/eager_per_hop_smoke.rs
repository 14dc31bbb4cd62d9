//! CI-sized smoke of an eager replay pair held resident: the per-hop
//! smoke's workload as a packet train, a FIFO original recording
//! `PerHop` detail and its [`Replay::eager`] LSTF replay recording
//! `EndToEnd`, both traces resident. Every original record must hold one
//! hop per link of its path in an exactly sized list, every replay record
//! no hop list at all, and the run must stay under a peak-RSS ceiling
//! read from `VmHWM` that either cost this layout avoids breaks: a second
//! copy of the train (a materialised replay set) or growth slack in the
//! hop lists. Lives in its own test binary because `VmHWM` is a
//! process-lifetime high-water mark — co-tenant tests would pollute it.

use ups_bench::{fattree_throughput_workload, peak_rss_bytes};
use ups_core::{run_schedule, HeaderInit, Replay};
use ups_netsim::prelude::{Packet, RecordMode, SchedulerKind};
use ups_topology::{BuildOptions, SchedulerAssignment};
use ups_workload::{udp_packet_stream, MTU};

/// Packet floor of the run, as `per_hop_spill_smoke`'s; smaller under
/// debug asserts.
const PACKET_FLOOR: u64 = if cfg!(debug_assertions) {
    40_000
} else {
    200_000
};

/// Peak-RSS ceiling, between the run as it is and the run with either
/// cost put back. On x86-64 Linux (release, 210,707 packets) the run
/// peaks at 168.2 MiB; with a materialised replay set it peaks at 183.2,
/// with capacity-doubling hop lists at 185.1, with both at 198.7. Under
/// debug asserts (135,961 packets): 114.5, 121.6, 124.1 and 130.7.
const RSS_BUDGET_MIB: u64 = if cfg!(debug_assertions) { 118 } else { 176 };

#[test]
fn eager_per_hop_replay_holds_one_train_and_exact_hop_lists() {
    let (topo, train) = fattree_throughput_workload(0.7, PACKET_FLOOR as usize, 42);
    let packets: Vec<Packet> = udp_packet_stream(&train.flows, MTU).collect();
    assert!(packets.len() as u64 >= PACKET_FLOOR);
    let opts = BuildOptions {
        record: RecordMode::PerHop,
        seed: 42,
        ..BuildOptions::default()
    };
    let fifo = SchedulerAssignment::uniform(SchedulerKind::Fifo);
    let original = run_schedule(&topo, &fifo, packets.iter().cloned(), &opts);
    let (replay, report) =
        Replay::new(&topo, &original, opts.seed).eager(&packets, HeaderInit::LstfSlack, &mut ());
    // `get` reads the stored records; a stream would hand out clones.
    for p in &packets {
        let (o, r) = (original.get(p.id).unwrap(), replay.get(p.id).unwrap());
        assert!(o.exited.is_some() && r.exited.is_some(), "packet {}", p.id);
        assert_eq!(o.hops.len(), o.path.len() - 1, "packet {}", p.id);
        assert_eq!(o.hops.capacity(), o.hops.len(), "packet {} hop slack", p.id);
        assert_eq!(r.hops.capacity(), 0, "packet {}: end-to-end hops", p.id);
    }
    assert_eq!(report.total, packets.len());

    let peak = peak_rss_bytes();
    assert!(
        peak <= RSS_BUDGET_MIB * 1024 * 1024,
        "peak RSS {:.1} MiB exceeds the {RSS_BUDGET_MIB} MiB smoke budget",
        peak as f64 / (1024.0 * 1024.0),
    );
}
