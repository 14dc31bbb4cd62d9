//! Regenerates **Figure 4** — Jain's fairness index over time for
//! long-lived TCP flows on the fairness variant of Internet2: FIFO, FQ,
//! and LSTF with the §3.3 slack assignment at
//! `r_est ∈ {1, 0.5, 0.1, 0.05, 0.01} Gbps`.
//!
//! Output: one tab-separated series per scheme: `label  time_ms  jain`.

use ups_bench::{run_fairness_experiment, FairnessScheme, Scale, FAIRNESS_HORIZON};

fn main() {
    let scale = Scale::from_env();
    // 13 flows per core link ⇒ 65 flows with an exactly-1Gbps fair share
    // (the paper runs 90 flows with links shared by up to 13).
    let per_link = 13;
    println!(
        "# Figure 4: fairness convergence (scale={}, horizon={}, {} flows)",
        scale.label,
        FAIRNESS_HORIZON,
        per_link * 5
    );
    let schemes = [
        FairnessScheme::Fifo,
        FairnessScheme::Fq,
        FairnessScheme::Lstf(1_000_000_000),
        FairnessScheme::Lstf(500_000_000),
        FairnessScheme::Lstf(100_000_000),
        FairnessScheme::Lstf(50_000_000),
        FairnessScheme::Lstf(10_000_000),
    ];
    for scheme in schemes {
        let series = run_fairness_experiment(scheme, per_link, FAIRNESS_HORIZON, 42);
        let label = scheme.label();
        for (ms, jain) in series.iter().enumerate() {
            println!("{label}\t{ms}\t{jain:.4}");
        }
        let last = series.last().copied().unwrap_or(0.0);
        println!("# {label}: final Jain {last:.4}");
    }
}
