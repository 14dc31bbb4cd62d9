//! Quickstart: record an arbitrary schedule, replay it with LSTF.
//!
//! Builds a small Internet2 network, drives it with a random scheduler
//! (the paper's hardest original), then replays the recorded schedule
//! using only black-box header initialization — `slack(p) = o(p) − i(p) −
//! tmin(p)` — and reports how many packets met their original exit times.
//!
//! Run: `cargo run --release --example quickstart`

use ups::prelude::*;
use ups::topology::{internet2, Internet2Params};

fn main() {
    // A scaled-down Internet2: 10 core routers, 2 edge routers per core.
    let topo = internet2(Internet2Params {
        edges_per_core: 2,
        ..Internet2Params::default()
    });
    println!(
        "topology: {} ({} nodes, {} hosts)",
        topo.name,
        topo.node_count(),
        topo.hosts().len()
    );

    // The paper's default workload: Poisson flow arrivals at 70% mean
    // core utilization, heavy-tailed (web-search-like) flow sizes,
    // packetized as NIC-paced UDP trains.
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(10), 1).generate(
        &topo,
        &routing,
        &Empirical::web_search(),
    );
    let packets = udp_packet_train(&flows, MTU);
    println!("workload: {} flows, {} packets", flows.len(), packets.len());

    // Original schedule: every port picks uniformly at random among
    // queued packets — "completely arbitrary schedules".
    let experiment = ReplayExperiment {
        topo: &topo,
        original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
        init: HeaderInit::LstfSlack,
        preemptive: false,
        record: RecordMode::EndToEnd,
        seed: 7,
    };
    let outcome = experiment.run(&packets, Dur::ZERO);

    let r = &outcome.report;
    println!(
        "LSTF replay: {} / {} packets overdue ({:.4}%), {} over T ({:.4}%), worst lateness {}",
        r.overdue,
        r.total,
        r.frac_overdue() * 100.0,
        r.overdue_gt_t,
        r.frac_overdue_gt_t() * 100.0,
        r.max_lateness
    );
    if !r.queueing_ratios.is_empty() {
        // Exact: 1.0 is an edge of the report's quantile sketch.
        println!(
            "queueing delay: {:.1}% of queued packets waited no longer than in the original",
            100.0 * r.queueing_ratios.fraction_le(1.0)
        );
    }
}
