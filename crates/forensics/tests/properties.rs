//! Property tests for the attribution invariants DESIGN.md §15 promises:
//!
//! 1. **Conservation**: for any workload, seed and replay flavor, the
//!    five cause counts and the five inversion counts each sum exactly
//!    to the `ReplayReport`'s mismatch count — every divergent packet is
//!    classified once on each axis, none invented, none lost.
//! 2. **Layout independence**: the collector is a pure function of the
//!    record *stream*, so a spill-backed streaming trace (64-record
//!    chunks, forced to disk) must produce a bit-identical
//!    `DivergenceSummary` and report to the resident layout.

use proptest::prelude::*;
use ups_core::{run_schedule, Replay, ReplayReport};
use ups_forensics::{BlameCollector, ReplayFlavor};
use ups_metrics::DivergenceSummary;
use ups_netsim::prelude::{
    FlowId, MapperKind, Packet, PacketBuilder, PacketId, RecordMode, SchedulerKind, SimTime,
};
use ups_topology::{topology_by_name, BuildOptions, Routing, SchedulerAssignment, Topology};

/// A dense many-pair workload: every host sends a short train to the
/// host three places ahead, staggered so trains overlap in the core.
fn workload(topo: &Topology, per_pair: u64, gap_us: u64) -> Vec<Packet> {
    let routing = Routing::new(topo);
    let hosts = topo.hosts();
    let mut packets = Vec::new();
    let mut id = 0u64;
    for (fi, &src) in hosts.iter().enumerate() {
        let dst = hosts[(fi + 3) % hosts.len()];
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

/// Original Random schedule + LSTF replay (exact or quantized) under
/// `record`, attributed by a fresh collector.
fn attributed_replay(
    topo: &Topology,
    packets: &[Packet],
    k: Option<u32>,
    seed: u64,
    record: RecordMode,
    caps: Option<(usize, usize)>,
) -> (ReplayReport, BlameCollector) {
    let opts = BuildOptions {
        record,
        seed,
        trace_spill_caps: caps,
        ..BuildOptions::default()
    };
    let assign = SchedulerAssignment::uniform(SchedulerKind::Random);
    let original = run_schedule(topo, &assign, packets.iter().cloned(), &opts);
    let (flavor, sched) = match k {
        Some(k) => (
            ReplayFlavor::Quantized { k },
            SchedulerKind::quantized_lstf(k, MapperKind::SpPifo),
        ),
        None => (
            ReplayFlavor::Exact,
            SchedulerKind::Lstf { preemptive: false },
        ),
    };
    // The lazy drive: works identically for resident and spill-backed
    // originals (no random access into the trace).
    let mut forensics = BlameCollector::new(flavor);
    let (_, report) = Replay {
        kind: sched,
        opts,
        ..Replay::new(topo, &original, seed)
    }
    .lazy(&mut forensics);
    (report, forensics)
}

fn check_conserved(
    report: &ReplayReport,
    summary: &DivergenceSummary,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        summary.cause_total(),
        report.overdue as u64,
        "cause counts must sum to the report's mismatches"
    );
    prop_assert_eq!(
        summary.inversion_total(),
        report.overdue as u64,
        "inversion counts must sum to the report's mismatches"
    );
    prop_assert_eq!(summary.mismatches, report.overdue as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Conservation holds for any seed, density and replay flavor, with
    /// per-hop records (the full hop-walk classifier) as well as
    /// end-to-end records (the exit-only degradation).
    #[test]
    fn attribution_is_conserved(
        seed in 0u64..1 << 32,
        per_pair in 8u64..24,
        gap_us in 5u64..20,
        k in prop_oneof![Just(None), (1u32..9).prop_map(Some)],
        record in proptest::sample::select(&[RecordMode::PerHop, RecordMode::EndToEnd]),
    ) {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, per_pair, gap_us);
        let (report, forensics) = attributed_replay(&topo, &packets, k, seed, record, None);
        check_conserved(&report, &forensics.summary())?;
        // End-to-end records carry no hop timelines: every timing
        // inversion must degrade to exit-only, never be invented.
        if record == RecordMode::EndToEnd {
            let s = forensics.summary();
            prop_assert_eq!(s.rank_tie_break, 0);
            prop_assert_eq!(s.bucket_collision, 0);
        }
    }

    /// The collector reads the record stream, not the storage layout:
    /// a spill-backed streaming trace yields a bit-identical report and
    /// summary to the resident end-to-end layout.
    #[test]
    fn streaming_and_resident_attribution_are_bit_identical(
        seed in 0u64..1 << 32,
        per_pair in 8u64..24,
        k in prop_oneof![Just(None), Just(Some(1u32)), Just(Some(4u32))],
    ) {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let packets = workload(&topo, per_pair, 9);
        let (resident_report, resident) =
            attributed_replay(&topo, &packets, k, seed, RecordMode::EndToEnd, None);
        // 64-record chunks, 2 resident: every case spills most of its
        // trace through the codec before the comparison reads it back.
        let (streaming_report, streaming) =
            attributed_replay(&topo, &packets, k, seed, RecordMode::Streaming, Some((64, 2)));
        prop_assert_eq!(&resident_report, &streaming_report);
        prop_assert_eq!(resident.summary(), streaming.summary());
        check_conserved(&resident_report, &resident.summary())?;
    }
}
