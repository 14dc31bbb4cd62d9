//! Regenerates **Figure 3** — the complementary CDF of end-to-end packet
//! delays under FIFO vs. LSTF with a constant slack (≡ FIFO+), UDP flows
//! on the default Internet2 at 70% utilization.
//!
//! The FIFO and LSTF runs are independent simulations over the identical
//! workload, so they run as two jobs on the `ups-sweep` pool.
//!
//! Output: mean and 99th-percentile delays per scheme (the figure's
//! legend) plus tab-separated CCDF series.

use ups_bench::{run_tail_experiment, Scale};
use ups_metrics::render_series;

fn main() {
    let (topo, scale) = (ups_topology::i2_default(), Scale::from_env());
    println!(
        "# Figure 3: tail packet delays, FIFO vs LSTF/FIFO+ (scale={}, window={})",
        scale.label, scale.replay_window
    );
    println!(
        "# paper legend: FIFO mean 0.0780s / 99%ile 0.2142s; LSTF mean 0.0786s / 99%ile 0.1958s"
    );
    let lstf_on = [false, true];
    let (results, _stats) = ups_sweep::pool::run_jobs(&lstf_on, lstf_on.len(), |_, &lstf| {
        run_tail_experiment(&topo, lstf, 0.7, scale.replay_window, 42)
    });
    let (fifo, lstf) = (&results[0], &results[1]);
    let max_delay = fifo.delays.quantile(1.0).max(lstf.delays.quantile(1.0));
    let probes: Vec<f64> = (0..=60).map(|i| i as f64 * max_delay / 60.0).collect();
    for (label, result) in [("FIFO", fifo), ("LSTF", lstf)] {
        println!(
            "{label}: mean {:.6}s  99%ile {:.6}s  99.9%ile {:.6}s  ({} packets)",
            result.delays.mean(),
            result.delays.quantile(0.99),
            result.delays.quantile(0.999),
            result.delays.len()
        );
        print!(
            "{}",
            render_series(label, &result.delays.ccdf_series(&probes))
        );
    }
}
