//! Property tests for the paper's theorems (§2.2), on randomized
//! scenarios instead of hand-picked examples:
//!
//! 1. **Appendix B** — omniscient per-hop initialization replays *any*
//!    recorded schedule perfectly.
//! 2. **Theorem 2 / Appendix G** — preemptive LSTF replays perfectly
//!    whenever no packet waits at more than two hops.
//! 3. **Theorem 1 / Appendix F** — congestion-aware priorities replay
//!    perfectly whenever no packet waits at more than one hop.
//! 4. **Appendix E** — EDF and LSTF produce identical replays, including
//!    with mixed packet sizes.
//! 5. Determinism: a replay experiment is a pure function of its inputs.

use proptest::prelude::*;

use ups_core::replay::{max_congestion_points, HeaderInit, ReplayExperiment};
use ups_netsim::prelude::*;
use ups_topology::{dumbbell, line, BuildOptions, Routing, SchedulerAssignment, Topology};

/// A randomized replay scenario.
#[derive(Debug, Clone)]
struct Scenario {
    topo_kind: TopoKind,
    /// (src_host_idx, dst_host_idx, inject_us, size) per packet.
    packets: Vec<(usize, usize, u64, u32)>,
    discipline: Disc,
    seed: u64,
}

#[derive(Debug, Clone, Copy)]
enum TopoKind {
    Line(usize),
    Dumbbell(usize),
}

#[derive(Debug, Clone, Copy)]
enum Disc {
    Fifo,
    Lifo,
    Random,
    Fq,
    FifoPlus,
}

impl Disc {
    fn kind(self) -> SchedulerKind {
        match self {
            Disc::Fifo => SchedulerKind::Fifo,
            Disc::Lifo => SchedulerKind::Lifo,
            Disc::Random => SchedulerKind::Random,
            Disc::Fq => SchedulerKind::Fq,
            Disc::FifoPlus => SchedulerKind::FifoPlus,
        }
    }
}

impl TopoKind {
    fn build(self) -> Topology {
        match self {
            TopoKind::Line(r) => line(r, Bandwidth::from_gbps(1), Dur::from_us(10)),
            TopoKind::Dumbbell(h) => dumbbell(
                h,
                Bandwidth::from_gbps(1),
                Bandwidth::from_gbps(1),
                Dur::from_us(20),
            ),
        }
    }
}

impl Scenario {
    fn materialize(&self) -> (Topology, Vec<Packet>) {
        let topo = self.topo_kind.build();
        let routing = Routing::new(&topo);
        let hosts = topo.hosts();
        let packets = self
            .packets
            .iter()
            .enumerate()
            .filter_map(|(i, &(s, d, at_us, size))| {
                let src = hosts[s % hosts.len()];
                let dst = hosts[d % hosts.len()];
                if src == dst {
                    return None;
                }
                let path = routing.path(src, dst);
                Some(
                    PacketBuilder::new(
                        PacketId(i as u64),
                        FlowId(i as u64 % 5),
                        size,
                        path,
                        SimTime::from_us(at_us),
                    )
                    .build(),
                )
            })
            .collect();
        (topo, packets)
    }

    fn experiment<'a>(
        &self,
        topo: &'a Topology,
        init: HeaderInit,
        preemptive: bool,
    ) -> ReplayExperiment<'a> {
        ReplayExperiment {
            topo,
            original_assign: SchedulerAssignment::uniform(self.discipline.kind()),
            init,
            preemptive,
            record: RecordMode::PerHop,
            seed: self.seed,
        }
    }
}

fn disc_strategy() -> impl Strategy<Value = Disc> {
    prop_oneof![
        Just(Disc::Fifo),
        Just(Disc::Lifo),
        Just(Disc::Random),
        Just(Disc::Fq),
        Just(Disc::FifoPlus),
    ]
}

fn scenario_strategy(
    max_routers: usize,
    max_packets: usize,
    sizes: &'static [u32],
) -> impl Strategy<Value = Scenario> {
    let topo = prop_oneof![
        (1..=max_routers).prop_map(TopoKind::Line),
        (2..=3usize).prop_map(TopoKind::Dumbbell),
    ];
    let packet = (
        0..8usize,
        0..8usize,
        0u64..400,
        proptest::sample::select(sizes),
    );
    (
        topo,
        proptest::collection::vec(packet, 2..=max_packets),
        disc_strategy(),
        0u64..1000,
    )
        .prop_map(|(topo_kind, packets, discipline, seed)| Scenario {
            topo_kind,
            packets,
            discipline,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    /// Appendix B: omniscient initialization replays any viable recorded
    /// schedule exactly — zero overdue packets, zero tolerance.
    #[test]
    fn omniscient_replay_is_always_perfect(
        scenario in scenario_strategy(3, 30, &[1500])
    ) {
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        let exp = scenario.experiment(&topo, HeaderInit::Omniscient, false);
        let out = exp.run(&packets, Dur::ZERO);
        prop_assert_eq!(out.report.total, packets.len());
        prop_assert!(
            out.report.perfect(),
            "overdue {} / {} under {:?}, max late {}",
            out.report.overdue, out.report.total,
            scenario.discipline, out.report.max_lateness
        );
    }

    /// Theorem 2: preemptive LSTF replays perfectly when no packet waits
    /// at more than two hops in the original schedule.
    #[test]
    fn lstf_perfect_up_to_two_congestion_points(
        scenario in scenario_strategy(3, 25, &[1500])
    ) {
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        let exp = scenario.experiment(&topo, HeaderInit::LstfSlack, true);
        let out = exp.run(&packets, Dur::ZERO);
        prop_assume!(max_congestion_points(&out.original) <= 2);
        prop_assert!(
            out.report.perfect(),
            "LSTF failed a ≤2-congestion-point schedule: overdue {} / {} under {:?}, max late {}",
            out.report.overdue, out.report.total,
            scenario.discipline, out.report.max_lateness
        );
    }

    /// Theorem 1: congestion-aware priorities replay perfectly when no
    /// packet waits at more than one hop.
    #[test]
    fn priorities_perfect_up_to_one_congestion_point(
        scenario in scenario_strategy(2, 15, &[1500])
    ) {
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        let exp = scenario.experiment(&topo, HeaderInit::PriorityFromSchedule, true);
        let out = exp.run(&packets, Dur::ZERO);
        prop_assume!(max_congestion_points(&out.original) <= 1);
        prop_assert!(
            out.report.perfect(),
            "priorities failed a ≤1-congestion-point schedule: overdue {} / {} under {:?}",
            out.report.overdue, out.report.total, scenario.discipline
        );
    }

    /// Appendix E: the EDF formulation and LSTF produce byte-identical
    /// replays — same exit time for every packet — even with mixed
    /// packet sizes.
    #[test]
    fn edf_and_lstf_replays_are_identical(
        scenario in scenario_strategy(3, 25, &[400, 1000, 1500])
    ) {
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        for preemptive in [false, true] {
            let lstf = scenario
                .experiment(&topo, HeaderInit::LstfSlack, preemptive)
                .run(&packets, Dur::ZERO);
            let edf = scenario
                .experiment(&topo, HeaderInit::EdfDeadline, preemptive)
                .run(&packets, Dur::ZERO);
            for (id, r) in lstf.replay.stream().filter(|(_, r)| r.exited.is_some()) {
                let e = edf.replay.get(id).expect("EDF delivered the same packets");
                prop_assert_eq!(
                    r.exited, e.exited,
                    "packet {} exits at {:?} under LSTF but {:?} under EDF (preemptive={})",
                    id, r.exited, e.exited, preemptive
                );
            }
        }
    }

    /// Finite-priority-queue layer: quantized LSTF under the
    /// dynamic (queue-remapping) mapper is **bit-identical** to exact
    /// LSTF — the full replay trace compares equal — whenever K is at
    /// least the number of distinct ranks in the run (K = packet count
    /// bounds that from above). Randomized topologies, arrivals and
    /// original disciplines.
    #[test]
    fn quantized_lstf_replay_is_bit_identical_when_k_covers_ranks(
        scenario in scenario_strategy(3, 25, &[400, 1000, 1500])
    ) {
        use ups_core::replay::{run_schedule, Replay};
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        let opts = BuildOptions {
            record: RecordMode::EndToEnd,
            seed: scenario.seed,
            ..BuildOptions::default()
        };
        let original = run_schedule(
            &topo,
            &SchedulerAssignment::uniform(scenario.discipline.kind()),
            packets.iter().cloned(),
            &opts,
        );
        let (exact, a) = Replay::new(&topo, &original, scenario.seed)
            .eager(&packets, HeaderInit::LstfSlack, &mut ());
        let k = packets.len() as u32; // ≥ #distinct ranks, trivially
        let (quant, b) = Replay {
            kind: SchedulerKind::quantized_lstf(k, MapperKind::Dynamic),
            ..Replay::new(&topo, &original, scenario.seed)
        }
        .eager(&packets, HeaderInit::LstfSlack, &mut ());
        prop_assert_eq!(
            &quant, &exact,
            "quantized K={} trace diverged from exact LSTF under {:?}",
            k, scenario.discipline
        );
        // And the reports agree, trivially, since the traces do.
        prop_assert_eq!(a.match_rate(), b.match_rate());
        prop_assert_eq!(a.missing, b.missing);
    }

    /// The core readers work on either trace layout: a `PerHop` original
    /// spilled through tiny caps gives the same priority assignment and
    /// the same congestion-point count as the resident one.
    #[test]
    fn spilled_per_hop_original_reads_like_the_resident_one(
        scenario in scenario_strategy(3, 25, &[1500])
    ) {
        use ups_core::replay::{priorities_from_schedule, run_schedule};
        let (topo, packets) = scenario.materialize();
        let assign = SchedulerAssignment::uniform(scenario.discipline.kind());
        let [resident, spilled] = [None, Some((1, 1))].map(|caps| {
            let opts = BuildOptions {
                record: RecordMode::PerHop,
                seed: scenario.seed,
                trace_spill_caps: caps,
                ..BuildOptions::default()
            };
            run_schedule(&topo, &assign, packets.iter().cloned(), &opts)
        });
        // One-record chunks in a one-chunk ring: the second record
        // pushes the first to disk, so every case with two records spills.
        if spilled.len() >= 2 {
            prop_assert!(spilled.spilled());
        }
        prop_assert_eq!(max_congestion_points(&spilled), max_congestion_points(&resident));
        let ranks = |t: &Trace| {
            let a = priorities_from_schedule(&topo, t)?;
            Some(packets.iter().map(|p| a.get(p.id)).collect::<Vec<_>>())
        };
        prop_assert_eq!(ranks(&resident), ranks(&spilled));
    }

    /// Replay experiments are deterministic: running twice gives
    /// identical reports and identical per-packet exits.
    #[test]
    fn replay_is_deterministic(
        scenario in scenario_strategy(3, 20, &[1500])
    ) {
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        let a = scenario
            .experiment(&topo, HeaderInit::LstfSlack, false)
            .run(&packets, Dur::ZERO);
        let b = scenario
            .experiment(&topo, HeaderInit::LstfSlack, false)
            .run(&packets, Dur::ZERO);
        prop_assert_eq!(a.report.overdue, b.report.overdue);
        for (id, r) in a.replay.stream().filter(|(_, r)| r.exited.is_some()) {
            prop_assert_eq!(r.exited, b.replay.get(id).unwrap().exited);
        }
    }

    /// Liveness: every injected packet is delivered in both runs (replay
    /// networks are unbuffered, so nothing may vanish).
    #[test]
    fn replay_delivers_everything(
        scenario in scenario_strategy(3, 25, &[1500])
    ) {
        let (topo, packets) = scenario.materialize();
        prop_assume!(packets.len() >= 2);
        let out = scenario
            .experiment(&topo, HeaderInit::LstfSlack, false)
            .run(&packets, Dur::ZERO);
        let delivered = |t: &Trace| t.stream().filter(|(_, r)| r.exited.is_some()).count();
        prop_assert_eq!(delivered(&out.original), packets.len());
        prop_assert_eq!(delivered(&out.replay), packets.len());
        prop_assert_eq!(out.report.total, packets.len());
    }
}
