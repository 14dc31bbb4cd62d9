//! §3.1 in miniature: LSTF with `slack = flow_size × D` matches SJF on
//! mean flow completion time, both well ahead of FIFO.
//!
//! TCP flows over a scaled-down Internet2 at 70% utilization with 5 MB
//! router buffers; compares FIFO, SJF, SRPT and LSTF and prints the
//! Figure 2 size-bucket breakdown for LSTF.
//!
//! Run: `cargo run --release --example fct_objectives`

use ups::metrics::{overall_mean_fct, FIG2_BUCKETS, OVERFLOW_EDGE};
use ups::prelude::*;
use ups::topology::{internet2, Internet2Params};

/// One scheme through the shared closed-loop driver — the same code
/// path `sweep --traffic closed-loop` jobs and the Figure 2 bench use.
fn run(topo: &Topology, kind: SchedulerKind, policy: SlackPolicy, seed: u64) -> Vec<FlowSample> {
    let mut routing = Routing::new(topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(60), seed).generate(
        topo,
        &mut routing,
        &Empirical::web_search(),
    );
    let scenario = TcpScenario {
        topo,
        assign: &SchedulerAssignment::uniform(kind),
        opts: BuildOptions {
            record: RecordMode::Off,
            router_buffer_bytes: Some(5_000_000),
            ..BuildOptions::default()
        },
        flows: &flows,
        config: TcpConfig::default(),
        policy,
        horizon: Dur::from_secs(6),
        max_packets: None,
    };
    let run = run_tcp(&scenario, &mut routing);
    run.stats
        .completions()
        .into_iter()
        .map(|c| FlowSample {
            size: c.bytes,
            fct_secs: c.fct().as_secs_f64(),
        })
        .collect()
}

fn main() {
    let topo = internet2(Internet2Params {
        edges_per_core: 2,
        ..Internet2Params::default()
    });
    let schemes: [(&str, SchedulerKind, SlackPolicy); 4] = [
        ("FIFO", SchedulerKind::Fifo, SlackPolicy::None),
        ("SRPT", SchedulerKind::Srpt, SlackPolicy::None),
        ("SJF", SchedulerKind::Sjf, SlackPolicy::None),
        (
            "LSTF",
            SchedulerKind::Lstf { preemptive: false },
            SlackPolicy::FctSjf,
        ),
    ];
    let mut lstf_samples = Vec::new();
    for (label, kind, policy) in schemes {
        let samples = run(&topo, kind, policy, 3);
        println!(
            "{label:5} mean FCT {:.4}s over {} completed flows",
            overall_mean_fct(&samples),
            samples.len()
        );
        if label == "LSTF" {
            lstf_samples = samples;
        }
    }
    println!("\nLSTF mean FCT by Figure 2 size bucket:");
    for (edge, mean, count) in mean_fct_by_bucket(&lstf_samples, &FIG2_BUCKETS) {
        if count > 0 {
            if edge == OVERFLOW_EDGE {
                println!("  >  largest edge: {mean:.4}s  ({count} flows)");
            } else {
                println!("  ≤ {edge:>9} B: {mean:.4}s  ({count} flows)");
            }
        }
    }
}
