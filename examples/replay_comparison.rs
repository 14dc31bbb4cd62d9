//! §2.3(7) in miniature: LSTF vs the "most intuitive" simple-priority
//! replay (`prio = o(p)`) on the same recorded Random schedule.
//!
//! LSTF carries remaining slack in the header and can make up for lost
//! time at later hops; static priorities can't, so low-priority packets
//! get repeatedly delayed and miss their targets by *milliseconds* while
//! LSTF misses (rarely) by at most one non-preemption slot.
//!
//! Run: `cargo run --release --example replay_comparison`

use ups::prelude::*;
use ups::topology::i2_default;

fn main() {
    let topo = i2_default();
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(15), 42).generate(
        &topo,
        &routing,
        &Empirical::web_search(),
    );
    let packets = udp_packet_train(&flows, MTU);
    println!(
        "{} — {} flows, {} packets at 70% utilization\n",
        topo.name,
        flows.len(),
        packets.len()
    );
    println!(
        "{:<22} {:>10} {:>12} {:>14}",
        "replay", "overdue", "overdue > T", "max lateness"
    );
    for (label, init) in [
        ("LSTF (slack)", HeaderInit::LstfSlack),
        ("Priorities (o(p))", HeaderInit::PriorityOutputTime),
        ("EDF (deadline)", HeaderInit::EdfDeadline),
    ] {
        let outcome = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
            init,
            preemptive: false,
            record: RecordMode::EndToEnd,
            seed: 42,
        }
        .run(&packets, Dur::ZERO);
        let r = &outcome.report;
        println!(
            "{label:<22} {:>9.4}% {:>11.4}% {:>14}",
            r.frac_overdue() * 100.0,
            r.frac_overdue_gt_t() * 100.0,
            format!("{}", r.max_lateness)
        );
    }
    println!("\n(T = one bottleneck transmission time = 12us; EDF matches LSTF exactly, App. E.)");
}
