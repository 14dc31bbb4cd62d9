//! CI-sized smoke of a `PerHop` pipeline whose traces spill: the scale
//! smoke's workload through [`ups_bench::scale::streaming_run`] at
//! per-hop detail with tiny spill caps must record one hop per link of
//! every delivered packet's path within a peak-RSS ceiling read from
//! `VmHWM`. Lives in its own test binary because `VmHWM` is a
//! process-lifetime high-water mark — co-tenant tests would pollute it.

use ups_bench::scale::streaming_run;
use ups_bench::{fattree_throughput_workload, peak_rss_bytes};
use ups_netsim::prelude::RecordMode;

/// Packet floor of the run, as `scale_smoke`'s; smaller under debug
/// asserts.
const PACKET_FLOOR: u64 = if cfg!(debug_assertions) {
    40_000
} else {
    200_000
};

/// Peak-RSS ceiling. On x86-64 Linux the run peaks near 70 MiB (64 in
/// debug); holding its `PerHop` traces resident peaks near 158 MiB
/// (185 while hop lists grew by doubling instead of being sized from the
/// path).
const RSS_BUDGET_MIB: u64 = 128;

#[test]
fn spilled_per_hop_run_keeps_every_hop_in_bounded_memory() {
    let (topo, train) = fattree_throughput_workload(0.7, PACKET_FLOOR as usize, 42);
    let run = streaming_run(&topo, &train.flows, RecordMode::PerHop, Some((1024, 2)));
    assert!(run.original.spilled());
    let mut delivered = 0u64;
    for (id, r) in run.original.stream().filter(|(_, r)| r.exited.is_some()) {
        delivered += 1;
        assert_eq!(r.hops.len(), r.path.len() - 1, "packet {id}");
    }
    assert!(delivered >= PACKET_FLOOR, "{delivered} delivered");
    assert_eq!(run.report.total as u64, delivered);

    let peak = peak_rss_bytes();
    assert!(
        peak <= RSS_BUDGET_MIB * 1024 * 1024,
        "peak RSS {:.1} MiB exceeds the {RSS_BUDGET_MIB} MiB smoke budget",
        peak as f64 / (1024.0 * 1024.0),
    );
}
