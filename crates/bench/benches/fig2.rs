//! Regenerates **Figure 2** — mean flow completion time bucketed by flow
//! size, for FIFO / SRPT / SJF / LSTF(slack = flow_size × D) with TCP
//! flows on the default Internet2 at 70% utilization and 5 MB router
//! buffers.
//!
//! The four schemes are independent closed-loop sweep jobs
//! ([`ups_bench::fct_job`]), run through the sweep engine's executor on
//! its pool (`UPS_SWEEP_WORKERS` caps the width; default:
//! one worker per scheme, at most the core count).
//!
//! Output: per scheme, the overall mean FCT (the figure's legend) and one
//! row per Figure 2 size bucket.

use ups_bench::{fct_job, run_jobs, Scale, I2_DEFAULT};
use ups_metrics::{frac, Table, FIG2_BUCKETS};
use ups_netsim::prelude::RecordMode;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Figure 2: mean FCT by flow size (scale={}, window={}, horizon={})",
        scale.label, scale.fct_window, scale.fct_horizon
    );
    println!("# paper legend: FIFO 0.288s, SRPT 0.208s, SJF 0.194s, LSTF 0.195s");
    let schemes = ["FIFO", "SRPT", "SJF", "LSTF"];
    let jobs = schemes.map(|scheduler| {
        fct_job(
            I2_DEFAULT,
            scheduler,
            scale.fct_window,
            scale.fct_horizon,
            42,
        )
    });
    // FCTs come from the receivers, not the trace: record nothing.
    let (runs, stats) = run_jobs(&jobs, RecordMode::Off, &[]);
    let mut table = Table::new(&["bucket(B)", "FIFO", "SRPT", "SJF", "LSTF", "flows/bucket"]);
    let mut per_scheme = Vec::new();
    for (scheme, (summary, _)) in schemes.iter().zip(&runs) {
        println!(
            "{}: mean FCT {} over {} completed flows",
            scheme,
            frac(summary.fct_mean_s),
            summary.transport.as_ref().map_or(0, |t| t.completed_flows)
        );
        per_scheme.push(&summary.fct_buckets);
    }
    for (i, &bucket) in FIG2_BUCKETS.iter().enumerate() {
        table.row(&[
            bucket.to_string(),
            format!("{:.4}", per_scheme[0][i].1),
            format!("{:.4}", per_scheme[1][i].1),
            format!("{:.4}", per_scheme[2][i].1),
            format!("{:.4}", per_scheme[3][i].1),
            per_scheme[0][i].2.to_string(),
        ]);
    }
    // The trailing overflow bucket (flows beyond the last Figure-2 edge).
    // Schemes complete different flow sets by the horizon, so the count
    // column reports the largest overflow population across schemes.
    let last = FIG2_BUCKETS.len();
    let overflow_max = per_scheme.iter().map(|rows| rows[last].2).max().unwrap();
    if overflow_max > 0 {
        table.row(&[
            "> last edge".into(),
            format!("{:.4}", per_scheme[0][last].1),
            format!("{:.4}", per_scheme[1][last].1),
            format!("{:.4}", per_scheme[2][last].1),
            format!("{:.4}", per_scheme[3][last].1),
            format!("<= {overflow_max}"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "# pool: {} schemes on {} workers",
        stats.jobs, stats.workers
    );
}
