//! Regenerates **Figure 1** — the CDF of per-packet queueing-delay ratios
//! (LSTF replay : original schedule) for six original disciplines on the
//! default Internet2 topology at 70% utilization.
//!
//! Output: tab-separated series `discipline  ratio  P[X ≤ ratio]`, one
//! block per discipline, plus the fraction of packets whose replay
//! queueing is at most their original queueing (the paper's headline:
//! "most of the packets actually have a smaller queuing delay in the
//! LSTF replay").

use ups_bench::{fig1_jobs, run_jobs, Scale};
use ups_metrics::render_series;
use ups_netsim::prelude::RecordMode;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Figure 1: queueing-delay ratio CDF (scale={}, window={})",
        scale.label, scale.replay_window
    );
    // The paper's x-axis: 0.0 to 2.0.
    let probes: Vec<f64> = (0..=40).map(|i| i as f64 * 0.05).collect();
    let jobs = fig1_jobs(&scale);
    let (runs, _) = run_jobs(&jobs, RecordMode::EndToEnd, &[]);
    for (job, (_, reports)) in jobs.iter().zip(&runs) {
        // The report keeps the ratio distribution as a quantile sketch;
        // its CDF reads are exact at the probe grid's bucket edges and at
        // most one log-bucket (≈2.2%) coarse in between.
        let cdf = &reports[0].queueing_ratios;
        if cdf.is_empty() {
            println!("{}\t(no queued packets)", job.scheduler);
            continue;
        }
        print!(
            "{}",
            render_series(job.scheduler.name(), &cdf.series(&probes))
        );
        println!(
            "# {}: {} ratio samples, {:.1}% of packets no worse than original",
            job.scheduler,
            cdf.len(),
            cdf.fraction_le(1.0) * 100.0
        );
    }
}
