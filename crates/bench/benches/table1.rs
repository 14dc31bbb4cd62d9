//! Regenerates **Table 1** — LSTF replayability across scenarios.
//!
//! Run with `cargo bench -p ups-bench --bench table1`; set
//! `UPS_SCALE=full` for paper-scale durations. Each (row, seed) is one
//! sweep job ([`ups_bench::table1_jobs`]) — the original schedule, then the
//! LSTF replay — and a row reports the fraction of packets overdue and
//! overdue by more than `T` (one bottleneck transmission time), averaged
//! over its seeds, alongside the paper's numbers. The jobs run side by
//! side on the sweep pool, each holding its own traces; `UPS_SWEEP_WORKERS=1`
//! runs them one at a time.

use ups_bench::{run_jobs, table1_jobs, Scale, PAPER_TABLE1};
use ups_metrics::{frac, Table};
use ups_netsim::prelude::RecordMode;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Table 1: LSTF replayability (scale={}, window={}, seeds={})",
        scale.label, scale.replay_window, scale.seeds
    );
    let mut table = Table::new(&[
        "Topology",
        "Util",
        "Sched",
        "overdue",
        "overdue>T",
        "paper",
        "paper>T",
        "packets",
    ]);
    // Every (row, seed) is one job on the pool; a row averages its seeds.
    let (runs, _) = run_jobs(&table1_jobs(&scale), RecordMode::EndToEnd, &[]);
    let per_row = runs.chunks(scale.seeds as usize);
    for (&(topology, utilization, sched, po, pt), seeds) in PAPER_TABLE1.iter().zip(per_row) {
        let mut overdue = 0.0;
        let mut gt_t = 0.0;
        let mut packets = 0;
        for (summary, reports) in seeds {
            overdue += reports[0].frac_overdue();
            gt_t += reports[0].frac_overdue_gt_t();
            packets += summary.packets;
        }
        overdue /= scale.seeds as f64;
        gt_t /= scale.seeds as f64;
        table.row(&[
            topology.to_string(),
            format!("{:.0}%", utilization * 100.0),
            sched.to_string(),
            frac(overdue),
            frac(gt_t),
            frac(po),
            frac(pt),
            packets.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("T = one bottleneck-link transmission time (12us at 1Gbps for 1500B).");
}
