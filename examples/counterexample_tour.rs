//! A tour of the paper's appendix counterexamples, run live.
//!
//! * **Appendix C (Fig. 5)** — two viable schedules giving `a` and `x`
//!   identical `(i, o, path)` but demanding opposite orders at their
//!   shared congestion point: no black-box UPS can replay both. LSTF
//!   replays one case and fails the other.
//! * **Appendix F (Fig. 6)** — the priority cycle: simple priorities
//!   cannot replay a 2-congestion-point schedule that LSTF replays
//!   exactly.
//! * **Appendix G.3 (Fig. 7)** — three congestion points defeat LSTF by
//!   exactly one transmission slot.
//!
//! Run: `cargo run --release --example counterexample_tour`

use ups::core::replay::priorities_from_schedule;
use ups::core::{appendix_c_case, appendix_f_schedule, appendix_g_schedule, HeaderInit};

fn main() {
    println!("== Appendix C (Fig. 5): no universal black-box scheduler ==");
    for case in [1, 2] {
        let sched = appendix_c_case(case);
        let out = sched.replay(HeaderInit::LstfSlack, true);
        println!(
            "  case {case}: LSTF replay {} ({} of {} packets overdue, worst {})",
            if out.report.perfect() {
                "PERFECT"
            } else {
                "FAILS"
            },
            out.report.overdue,
            out.report.total,
            out.report.max_lateness,
        );
    }
    println!("  -> identical (i, o, path) for a and x, contradictory requirements:");
    println!("     any deterministic initialization loses one of the two cases.\n");

    println!("== Appendix F (Fig. 6): the priority cycle ==");
    let sched = appendix_f_schedule();
    let prio = sched.replay(HeaderInit::PriorityOutputTime, false);
    let lstf = sched.replay(HeaderInit::LstfSlack, true);
    println!(
        "  simple priorities (prio = o(p)): {} overdue of {}",
        prio.report.overdue, prio.report.total
    );
    let cyclic = priorities_from_schedule(&sched.net.topo, &sched.original_trace()).is_none();
    println!("  precedence relation cyclic (no assignment exists): {cyclic}");
    println!(
        "  LSTF on the same schedule: {} overdue — 2 congestion points are its safe zone\n",
        lstf.report.overdue
    );

    println!("== Appendix G.3 (Fig. 7): three congestion points defeat LSTF ==");
    let sched = appendix_g_schedule();
    let out = sched.replay(HeaderInit::LstfSlack, true);
    println!(
        "  LSTF replay: {} of {} packets overdue, lateness {} (one full service slot)",
        out.report.overdue, out.report.total, out.report.max_lateness
    );
    // Appendix B's upper bound on the same network: record a schedule on
    // this very topology, replay it with per-hop omniscient headers —
    // perfect, even where LSTF fails.
    {
        use ups::core::replay::{replay_packets, run_schedule};
        use ups::prelude::*;
        let table = sched.original_trace();
        let seeded = replay_packets(
            &sched.net.topo,
            &table,
            &sched.packets,
            HeaderInit::Omniscient,
        );
        let assign = SchedulerAssignment::uniform(SchedulerKind::Omniscient);
        let opts = BuildOptions {
            record: RecordMode::PerHop,
            ..BuildOptions::default()
        };
        let recorded = run_schedule(&sched.net.topo, &assign, seeded, &opts);
        let (_, report) = Replay {
            kind: SchedulerKind::Omniscient,
            threshold: Dur::from_ms(1),
            ..Replay::new(&sched.net.topo, &recorded, opts.seed)
        }
        .eager(&sched.packets, HeaderInit::Omniscient, &mut ());
        println!(
            "  omniscient replay of a recorded schedule on this network: {} overdue (App. B)",
            report.overdue
        );
    }
}
