//! §3.3 in miniature: LSTF with the Virtual-Clock slack assignment
//! converges to fair shares like fair queueing — even when the rate
//! estimate `r_est` is far below the true fair share.
//!
//! Two long-lived TCP flows share a 1 Gbps bottleneck; flow 2 starts
//! late. We print the per-millisecond Jain index under FIFO, FQ, and
//! LSTF at two different `r_est` values.
//!
//! Run: `cargo run --release --example fairness`

use ups::prelude::*;
use ups::topology::dumbbell;

fn jain_series_for(kind: SchedulerKind, policy: SlackPolicy) -> Vec<f64> {
    let topo = dumbbell(
        2,
        Bandwidth::from_gbps(10),
        Bandwidth::from_gbps(1),
        Dur::from_ms(1),
    );
    let routing = Routing::new(&topo);
    let hosts = topo.hosts();
    let mk = |id: u64, s: usize, d: usize, start: SimTime, routing: &Routing| FlowSpec {
        id: FlowId(id),
        src: hosts[s],
        dst: hosts[d],
        size: u64::MAX,
        start,
        path: routing.path(hosts[s], hosts[d]),
    };
    let flows = vec![
        mk(0, 0, 2, SimTime::ZERO, &routing),
        mk(1, 1, 3, SimTime::from_ms(5), &routing),
    ];
    let mut sim = build_simulator(
        &topo,
        &SchedulerAssignment::uniform(kind),
        &BuildOptions {
            record: RecordMode::Off,
            router_buffer_bytes: Some(150_000),
            ..BuildOptions::default()
        },
    );
    let stats = TransportStats::new(Dur::from_ms(5));
    install_tcp(
        &mut sim,
        &topo,
        &routing,
        &flows,
        TcpConfig::default(),
        policy,
        &stats,
    );
    sim.run_until(SimTime::from_ms(200));
    jain_series(&stats.goodput_matrix(&[FlowId(0), FlowId(1)]))
}

fn main() {
    let schemes: [(&str, SchedulerKind, SlackPolicy); 4] = [
        ("FIFO", SchedulerKind::Fifo, SlackPolicy::None),
        ("FQ", SchedulerKind::Fq, SlackPolicy::None),
        (
            "LSTF@0.5Gbps",
            SchedulerKind::Lstf { preemptive: false },
            SlackPolicy::Fairness(500_000_000),
        ),
        (
            "LSTF@0.05Gbps",
            SchedulerKind::Lstf { preemptive: false },
            SlackPolicy::Fairness(50_000_000),
        ),
    ];
    println!("Jain fairness index in 5ms buckets (flow 2 joins at 5ms):");
    for (label, kind, policy) in schemes {
        let series = jain_series_for(kind, policy);
        let shown: Vec<String> = series
            .iter()
            .step_by(4)
            .map(|j| format!("{j:.2}"))
            .collect();
        let steady = series.last().copied().unwrap_or(0.0);
        println!("{label:>14}: {}  -> steady {steady:.3}", shown.join(" "));
    }
}
