//! The paper's appendix counterexamples as executable schedules.
//!
//! Each function reproduces one appendix figure: the exact micro-topology
//! (from `ups_topology::micro`) plus the packet set and per-hop schedule
//! table. The *original* schedule is **constructed from the table** (the
//! appendix fully specifies every arrival and scheduling time) as a
//! synthetic [`Trace`]; only the replay is simulated. This keeps the
//! original exact while the replay — where serving a packet *early* is
//! legal (`o′(p) ≤ o(p)`) — tolerates the nanosecond serialization noise
//! of the "instant" 12 Tbps links.
//!
//! Timing convention: 1 appendix unit = 1 ms ([`ups_topology::micro::UNIT`]);
//! table times are expressed in tenths of a unit (Fig. 6 uses 2.5 and 3.2).
//! Replay comparisons use a 1 µs tolerance — five orders of magnitude
//! below the unit, three above the noise.

use std::collections::BTreeMap;

use ups_netsim::prelude::{
    Dur, FlowId, HopRecord, Packet, PacketBuilder, PacketId, PacketKind, PacketRecord, PathId,
    RecordMode, SimTime, Trace,
};
use ups_topology::micro::{appendix_c, appendix_f, appendix_g, NamedTopology, UNIT, UNIT_PKT};
use ups_topology::BuildOptions;

use crate::replay::{HeaderInit, Replay, ReplayOutcome};

/// Comparison tolerance for unit-scale schedules (see module docs).
pub const TOLERANCE: Dur = Dur::from_us(1);

/// A link is a "congestion point" in the appendix sense when its
/// serialization time is macroscopic (≥ 0.1 unit); the 12 Tbps fan-out
/// links serialize in 1 ns.
const CONGESTED_TX_MIN: Dur = Dur::from_us(100);

/// One appendix scenario: topology, packets, and the table-derived
/// original schedule.
pub struct CounterexampleSchedule {
    /// The micro-topology.
    pub net: NamedTopology,
    /// Packets to inject (replay runs re-initialize their headers).
    pub packets: Vec<Packet>,
    /// Human label ("Appendix C case 1", ...).
    pub label: &'static str,
    names: BTreeMap<&'static str, PacketId>,
    original: Vec<(PacketId, PacketRecord)>,
}

/// Tenths-of-a-unit → simulation time.
fn tenths(t: u64) -> SimTime {
    SimTime::from_ps(t * UNIT.as_ps() / 10)
}

impl CounterexampleSchedule {
    /// Id of the packet the paper calls `name`.
    #[expect(
        clippy::panic,
        reason = "unknown name is a caller bug against a hand-built paper table"
    )]
    pub fn packet_id(&self, name: &str) -> PacketId {
        *self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("unknown packet {name:?}"))
    }

    /// The table-specified original schedule, as a `PerHop` trace.
    pub fn original_trace(&self) -> Trace {
        Trace::synthetic(RecordMode::PerHop, self.original.iter().cloned())
    }

    /// Replay this schedule under `init` and compare against the table.
    pub fn replay(&self, init: HeaderInit, preemptive: bool) -> ReplayOutcome {
        let original = self.original_trace();
        let (replay, report) = Replay {
            kind: init.scheduler(preemptive),
            threshold: UNIT, // T = one congestion-point transmission time
            tolerance: TOLERANCE,
            ..Replay::new(&self.net.topo, &original, BuildOptions::default().seed)
        }
        .eager(&self.packets, init, &mut ());
        ReplayOutcome {
            original,
            replay,
            report,
        }
    }
}

/// Packet descriptor: name, path (node names), injection time (tenths),
/// per-congestion-node scheduling times (tenths), expected `o` (tenths) —
/// cross-checked against the walk of the path.
struct Row {
    name: &'static str,
    path: &'static [&'static str],
    inject_tenths: u64,
    scheds: &'static [(&'static str, u64)],
    o_tenths: u64,
}

/// Walk a packet's path through the table, producing its exact per-hop
/// record and verifying the declared `o`.
fn walk(net: &NamedTopology, row: &Row) -> (Vec<HopRecord>, SimTime, Dur) {
    let path = net.path(row.path);
    let mut t = tenths(row.inject_tenths);
    let mut hops = Vec::with_capacity(path.len() - 1);
    let mut total_wait = Dur::ZERO;
    for w in path.windows(2) {
        #[expect(
            clippy::panic,
            reason = "paper-table paths only name links the builder just created"
        )]
        let link = net
            .topo
            .neighbor_link(w[0], w[1])
            .unwrap_or_else(|| panic!("missing link on {}", row.name));
        let tx = link.bandwidth.tx_time(UNIT_PKT);
        if tx >= CONGESTED_TX_MIN {
            #[expect(
                clippy::panic,
                reason = "a hand-built table row missing a congested-hop time is a table authoring bug"
            )]
            let sched = row
                .scheds
                .iter()
                .find(|&&(n, _)| net.node(n) == w[0])
                .map(|&(_, s)| tenths(s))
                .unwrap_or_else(|| panic!("{}: no sched time at congested hop", row.name));
            assert!(sched >= t, "{}: scheduled before arrival", row.name);
            let waited = sched - t;
            hops.push(HopRecord {
                node: w[0],
                arrived: t,
                tx_start: sched,
                waited,
            });
            total_wait += waited;
            t = sched + tx + link.propagation;
        } else {
            // Instant hop: modeled as zero time in the table.
            hops.push(HopRecord {
                node: w[0],
                arrived: t,
                tx_start: t,
                waited: Dur::ZERO,
            });
            t += link.propagation;
        }
    }
    assert_eq!(
        t,
        tenths(row.o_tenths),
        "{}: table walk gives o = {t}, declared {}",
        row.name,
        tenths(row.o_tenths)
    );
    (hops, t, total_wait)
}

fn build(net: NamedTopology, label: &'static str, rows: &[Row]) -> CounterexampleSchedule {
    let mut packets = Vec::new();
    let mut names = BTreeMap::new();
    let mut original = Vec::new();
    for (idx, row) in rows.iter().enumerate() {
        let path = PathId::from(net.path(row.path));
        let (hops, exited, total_wait) = walk(&net, row);
        let inject = tenths(row.inject_tenths);
        let id = PacketId(idx as u64);
        packets.push(PacketBuilder::new(id, FlowId(idx as u64), UNIT_PKT, path, inject).build());
        names.insert(row.name, id);
        original.push((
            id,
            PacketRecord {
                flow: FlowId(idx as u64),
                size: UNIT_PKT,
                kind: PacketKind::Data,
                path,
                injected: inject,
                exited: Some(exited),
                total_wait,
                dropped: false,
                drop_cause: None,
                hops,
            },
        ));
    }
    CounterexampleSchedule {
        net,
        packets,
        label,
        names,
        original,
    }
}

/// Appendix C (Figure 5), Case 1 or Case 2. Both cases have identical
/// `(i(p), o(p), path(p))` for the critical packets `a` and `x` but
/// require opposite orders at their shared first congestion point `a0` —
/// the non-existence argument for black-box UPSes.
pub fn appendix_c_case(case: u8) -> CounterexampleSchedule {
    const PATH_A: &[&str] = &["SA", "a0", "m0", "a1", "m1", "a2", "m2", "DA"];
    const PATH_X: &[&str] = &["SX", "a0", "m0", "a3", "m3", "a4", "m4", "DX"];
    const PATH_B: &[&str] = &["SB", "a1", "m1", "DB"];
    const PATH_C: &[&str] = &["SC", "a2", "m2", "DC"];
    const PATH_Y: &[&str] = &["SY", "a3", "m3", "DY"];
    const PATH_Z: &[&str] = &["SZ", "a4", "m4", "DZ"];
    let rows_case1 = [
        Row {
            name: "a",
            path: PATH_A,
            inject_tenths: 0,
            scheds: &[("a0", 0), ("a1", 10), ("a2", 40)],
            o_tenths: 50,
        },
        Row {
            name: "x",
            path: PATH_X,
            inject_tenths: 0,
            scheds: &[("a0", 10), ("a3", 20), ("a4", 30)],
            o_tenths: 40,
        },
        Row {
            name: "b1",
            path: PATH_B,
            inject_tenths: 20,
            scheds: &[("a1", 20)],
            o_tenths: 30,
        },
        Row {
            name: "b2",
            path: PATH_B,
            inject_tenths: 30,
            scheds: &[("a1", 30)],
            o_tenths: 40,
        },
        Row {
            name: "b3",
            path: PATH_B,
            inject_tenths: 40,
            scheds: &[("a1", 40)],
            o_tenths: 50,
        },
        Row {
            name: "c1",
            path: PATH_C,
            inject_tenths: 20,
            scheds: &[("a2", 20)],
            o_tenths: 30,
        },
        Row {
            name: "c2",
            path: PATH_C,
            inject_tenths: 30,
            scheds: &[("a2", 30)],
            o_tenths: 40,
        },
        Row {
            name: "y1",
            path: PATH_Y,
            inject_tenths: 20,
            scheds: &[("a3", 30)],
            o_tenths: 40,
        },
        Row {
            name: "y2",
            path: PATH_Y,
            inject_tenths: 30,
            scheds: &[("a3", 40)],
            o_tenths: 50,
        },
        Row {
            name: "z",
            path: PATH_Z,
            inject_tenths: 20,
            scheds: &[("a4", 20)],
            o_tenths: 30,
        },
    ];
    let rows_case2 = [
        Row {
            name: "a",
            path: PATH_A,
            inject_tenths: 0,
            scheds: &[("a0", 10), ("a1", 20), ("a2", 40)],
            o_tenths: 50,
        },
        Row {
            name: "x",
            path: PATH_X,
            inject_tenths: 0,
            scheds: &[("a0", 0), ("a3", 10), ("a4", 30)],
            o_tenths: 40,
        },
        Row {
            name: "b1",
            path: PATH_B,
            inject_tenths: 20,
            scheds: &[("a1", 30)],
            o_tenths: 40,
        },
        Row {
            name: "b2",
            path: PATH_B,
            inject_tenths: 30,
            scheds: &[("a1", 40)],
            o_tenths: 50,
        },
        Row {
            name: "b3",
            path: PATH_B,
            inject_tenths: 40,
            scheds: &[("a1", 50)],
            o_tenths: 60,
        },
        Row {
            name: "c1",
            path: PATH_C,
            inject_tenths: 20,
            scheds: &[("a2", 20)],
            o_tenths: 30,
        },
        Row {
            name: "c2",
            path: PATH_C,
            inject_tenths: 30,
            scheds: &[("a2", 30)],
            o_tenths: 40,
        },
        Row {
            name: "y1",
            path: PATH_Y,
            inject_tenths: 20,
            scheds: &[("a3", 20)],
            o_tenths: 30,
        },
        Row {
            name: "y2",
            path: PATH_Y,
            inject_tenths: 30,
            scheds: &[("a3", 30)],
            o_tenths: 40,
        },
        Row {
            name: "z",
            path: PATH_Z,
            inject_tenths: 20,
            scheds: &[("a4", 20)],
            o_tenths: 30,
        },
    ];
    match case {
        1 => build(appendix_c(), "Appendix C case 1", &rows_case1),
        2 => build(appendix_c(), "Appendix C case 2", &rows_case2),
        #[expect(
            clippy::panic,
            reason = "API contract: Appendix C defines exactly cases 1 and 2"
        )]
        _ => panic!("Appendix C has cases 1 and 2, not {case}"),
    }
}

/// Appendix F (Figure 6): the priority cycle. Viable schedule with two
/// congestion points per packet that **simple priorities cannot replay**
/// (`prio(a) < prio(b) < prio(c) < prio(a)` is unsatisfiable) while LSTF
/// replays it exactly.
pub fn appendix_f_schedule() -> CounterexampleSchedule {
    let rows = [
        Row {
            name: "a",
            path: &["SA", "a1", "m1", "a3", "m3", "DA"],
            inject_tenths: 0,
            scheds: &[("a1", 0), ("a3", 32)],
            o_tenths: 34,
        },
        Row {
            name: "b",
            path: &["SB", "a1", "m1", "a2", "m2", "DB"],
            inject_tenths: 0,
            scheds: &[("a1", 10), ("a2", 20)],
            o_tenths: 25,
        },
        Row {
            name: "c",
            path: &["SC", "a2", "m2", "a3", "m3", "DC"],
            inject_tenths: 20,
            scheds: &[("a2", 25), ("a3", 30)],
            o_tenths: 32,
        },
    ];
    build(appendix_f(), "Appendix F (Fig. 6)", &rows)
}

/// Appendix G.3 (Figure 7): flow A crosses **three** congestion points
/// and LSTF provably fails — whichever way the final contention between
/// `a` and `c2` resolves, exactly one of them is overdue by one unit.
pub fn appendix_g_schedule() -> CounterexampleSchedule {
    const PATH_C: &[&str] = &["SC", "a1", "m1", "DC"];
    const PATH_D: &[&str] = &["SD", "a2", "m2", "DD"];
    let rows = [
        Row {
            name: "a",
            path: &["SA", "a0", "m0", "a1", "m1", "a2", "m2", "DA"],
            inject_tenths: 0,
            scheds: &[("a0", 0), ("a1", 10), ("a2", 40)],
            o_tenths: 50,
        },
        Row {
            name: "b",
            path: &["SB", "a0", "m0", "DB"],
            inject_tenths: 0,
            scheds: &[("a0", 10)],
            o_tenths: 20,
        },
        Row {
            name: "c1",
            path: PATH_C,
            inject_tenths: 20,
            scheds: &[("a1", 20)],
            o_tenths: 30,
        },
        Row {
            name: "c2",
            path: PATH_C,
            inject_tenths: 30,
            scheds: &[("a1", 30)],
            o_tenths: 40,
        },
        Row {
            name: "d1",
            path: PATH_D,
            inject_tenths: 20,
            scheds: &[("a2", 20)],
            o_tenths: 30,
        },
        Row {
            name: "d2",
            path: PATH_D,
            inject_tenths: 30,
            scheds: &[("a2", 30)],
            o_tenths: 40,
        },
    ];
    build(appendix_g(), "Appendix G.3 (Fig. 7)", &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{max_congestion_points, replay_packets, run_schedule};
    use ups_netsim::prelude::SchedulerKind;
    use ups_topology::SchedulerAssignment;

    /// The table walks are internally consistent and carry the appendix's
    /// congestion-point structure.
    #[test]
    fn originals_match_appendix_tables() {
        let g = appendix_g_schedule();
        let trace = g.original_trace();
        // Flow a waits... congestion-point count per the §2.2 definition
        // (hops where the packet waited): a is scheduled on arrival at a0
        // and a1 but waits 2 units at a2.
        let a = trace.get(g.packet_id("a")).unwrap();
        assert_eq!(a.exited, Some(tenths(50)));
        assert_eq!(a.congestion_points(), 1);
        // But a *crosses* three nodes with macroscopic service — the
        // theorem's bound is about crossings where waiting can occur.
        assert_eq!(a.hops.len(), 7);
        // b waited one unit at a0.
        let b = trace.get(g.packet_id("b")).unwrap();
        assert_eq!(b.total_wait, UNIT);
        // Appendix C: both cases walk cleanly.
        let _ = appendix_c_case(1).original_trace();
        let _ = appendix_c_case(2).original_trace();
        let f = appendix_f_schedule().original_trace();
        assert_eq!(max_congestion_points(&f), 1);
    }

    /// Appendix B upper bound on the counterexample networks: record an
    /// *actual* schedule on each micro-topology (driven by the table's
    /// per-hop priorities through the omniscient scheduler), then replay
    /// that recorded schedule omnisciently — perfect replay, including on
    /// the networks that defeat LSTF.
    ///
    /// (The idealized tables themselves have zero-time white nodes, which
    /// a simulator with positive serialization cannot share exactly; the
    /// App. B theorem is about replaying a schedule *of the same
    /// network*, which is what this asserts. The table-exact schedules
    /// are exercised analytically via [`CounterexampleSchedule::original_trace`].)
    #[test]
    fn omniscient_replays_every_counterexample_network() {
        for sched in [
            appendix_c_case(1),
            appendix_c_case(2),
            appendix_f_schedule(),
            appendix_g_schedule(),
        ] {
            // Drive an original run with the table's per-hop times as
            // priorities; whatever schedule comes out is viable on this
            // (noise-included) network.
            let table = sched.original_trace();
            let seeded = replay_packets(
                &sched.net.topo,
                &table,
                &sched.packets,
                HeaderInit::Omniscient,
            );
            let original = run_schedule(
                &sched.net.topo,
                &SchedulerAssignment::uniform(SchedulerKind::Omniscient),
                seeded,
                &BuildOptions {
                    record: RecordMode::PerHop,
                    ..BuildOptions::default()
                },
            );
            // Now the real assertion: omniscient replay of the *recorded*
            // schedule is perfect, with zero tolerance.
            let (_, report) = Replay {
                kind: SchedulerKind::Omniscient,
                threshold: UNIT,
                ..Replay::new(&sched.net.topo, &original, BuildOptions::default().seed)
            }
            .eager(&sched.packets, HeaderInit::Omniscient, &mut ());
            assert_eq!(report.total, sched.packets.len());
            assert!(
                report.perfect(),
                "{}: omniscient replay overdue {} (max late {})",
                sched.label,
                report.overdue,
                report.max_lateness
            );
        }
    }

    /// Appendix C: `a` and `x` have identical (i, o, path) in both cases,
    /// yet no deterministic black-box initialization can replay both —
    /// LSTF replays case 2 and fails case 1.
    #[test]
    fn appendix_c_defeats_blackbox_lstf() {
        let case1 = appendix_c_case(1);
        let case2 = appendix_c_case(2);
        let t1 = case1.original_trace();
        let t2 = case2.original_trace();
        for name in ["a", "x"] {
            let r1 = t1.get(case1.packet_id(name)).unwrap();
            let r2 = t2.get(case2.packet_id(name)).unwrap();
            assert_eq!(r1.exited, r2.exited, "{name}: o must match across cases");
            assert_eq!(
                r1.injected, r2.injected,
                "{name}: i must match across cases"
            );
            assert_eq!(r1.path, r2.path, "{name}: path must match across cases");
        }
        let out1 = case1.replay(HeaderInit::LstfSlack, true);
        let out2 = case2.replay(HeaderInit::LstfSlack, true);
        let failures = [&out1, &out2]
            .iter()
            .filter(|o| !o.report.perfect())
            .count();
        assert!(
            failures >= 1,
            "a deterministic replay cannot satisfy both cases"
        );
        // With our deterministic LSTF it is exactly case 1 that fails
        // (LSTF orders x before a at a0; case 1 needed a first).
        assert!(!out1.report.perfect(), "case 1 must fail under LSTF");
        assert!(out2.report.perfect(), "case 2 replays cleanly under LSTF");
    }

    /// Appendix F: priorities hit the cycle and fail; LSTF (2 congestion
    /// points per packet) replays perfectly — Theorem 2's boundary.
    #[test]
    fn appendix_f_priority_cycle() {
        let sched = appendix_f_schedule();
        let prio = sched.replay(HeaderInit::PriorityOutputTime, false);
        assert!(
            !prio.report.perfect(),
            "o(p)-priorities must fail the Fig. 6 cycle"
        );
        let lstf = sched.replay(HeaderInit::LstfSlack, true);
        assert!(
            lstf.report.perfect(),
            "LSTF handles 2 congestion points; overdue {} max late {}",
            lstf.report.overdue,
            lstf.report.max_lateness
        );
    }

    /// The Figure 6 cycle is detected structurally: *no* static priority
    /// assignment is consistent with the schedule's precedence relation
    /// (`prio(a) < prio(b) < prio(c) < prio(a)`), so the constructive
    /// assignment of Theorem 1 reports failure.
    #[test]
    fn appendix_f_precedence_relation_is_cyclic() {
        let sched = appendix_f_schedule();
        let original = sched.original_trace();
        assert!(
            crate::replay::priorities_from_schedule(&sched.net.topo, &original).is_none(),
            "Fig. 6's precedence relation must contain a cycle"
        );
        // While Appendix G's (which defeats LSTF for *slack* reasons, not
        // priority-cycle reasons) is acyclic.
        let g = appendix_g_schedule();
        assert!(
            crate::replay::priorities_from_schedule(&g.net.topo, &g.original_trace()).is_some()
        );
    }

    /// Appendix G.3: three congestion points defeat LSTF — exactly one
    /// packet (a or c2) misses by ~1 unit.
    #[test]
    fn appendix_g_lstf_fails_at_three_congestion_points() {
        let sched = appendix_g_schedule();
        let out = sched.replay(HeaderInit::LstfSlack, true);
        assert_eq!(out.report.overdue, 1, "exactly one packet misses");
        // Overdue by about one unit (the final transmission slot).
        assert!(
            out.report.max_lateness > UNIT - TOLERANCE && out.report.max_lateness < UNIT + UNIT,
            "lateness {}",
            out.report.max_lateness
        );
        // The victim is one of the two final contenders.
        let late = ["a", "c2"]
            .iter()
            .filter(|n| {
                let id = sched.packet_id(n);
                let o = out.original.get(id).unwrap().exited.unwrap();
                let o2 = out.replay.get(id).unwrap().exited.unwrap();
                o2 > o + TOLERANCE
            })
            .count();
        assert_eq!(late, 1);
    }

    /// EDF ≡ LSTF on the counterexamples too (App. E).
    #[test]
    fn edf_matches_lstf_on_counterexamples() {
        for sched in [appendix_f_schedule(), appendix_g_schedule()] {
            let lstf = sched.replay(HeaderInit::LstfSlack, false);
            let edf = sched.replay(HeaderInit::EdfDeadline, false);
            for (id, r) in lstf.replay.stream().filter(|(_, r)| r.exited.is_some()) {
                let e = edf.replay.get(id).unwrap();
                assert_eq!(
                    r.exited, e.exited,
                    "{}: packet {id} exits differ between LSTF and EDF",
                    sched.label
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cases 1 and 2")]
    fn invalid_case_rejected() {
        let _ = appendix_c_case(3);
    }
}
