//! Regenerates **Figure 3** — the complementary CDF of end-to-end packet
//! delays under FIFO vs. LSTF with a constant slack (≡ FIFO+), UDP flows
//! on the default Internet2 at 70% utilization.
//!
//! The FIFO and LSTF curves are two sweep jobs over the identical
//! workload ([`ups_bench::tail_job`]), run through the job body on the
//! `ups-sweep` pool.
//!
//! Output: mean and 99th-percentile delays per scheme (the figure's
//! legend) plus tab-separated CCDF series.

use ups_bench::{tail_delays, tail_job, Scale, I2_DEFAULT};
use ups_metrics::render_series;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# Figure 3: tail packet delays, FIFO vs LSTF/FIFO+ (scale={}, window={})",
        scale.label, scale.replay_window
    );
    println!(
        "# paper legend: FIFO mean 0.0780s / 99%ile 0.2142s; LSTF mean 0.0786s / 99%ile 0.1958s"
    );
    let jobs = ["FIFO", "LSTF"].map(|s| tail_job(I2_DEFAULT, s, scale.replay_window, 42));
    let delays = tail_delays(&jobs);
    let (fifo, lstf) = (&delays[0], &delays[1]);
    let max_delay = fifo.quantile(1.0).max(lstf.quantile(1.0));
    let probes: Vec<f64> = (0..=60).map(|i| i as f64 * max_delay / 60.0).collect();
    for (label, cdf) in [("FIFO", fifo), ("LSTF", lstf)] {
        println!(
            "{label}: mean {:.6}s  99%ile {:.6}s  99.9%ile {:.6}s  ({} packets)",
            cdf.mean(),
            cdf.quantile(0.99),
            cdf.quantile(0.999),
            cdf.len()
        );
        print!("{}", render_series(label, &cdf.ccdf_series(&probes)));
    }
}
