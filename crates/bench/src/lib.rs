//! # ups-bench — the experiment harness
//!
//! Every replay and FCT experiment here is a list of sweep [`JobSpec`]s
//! run by the sweep engine's one job body
//! ([`ups_sweep::runner::execute`]); this crate holds the lists, the
//! paper's reference numbers and what the executor cannot express:
//!
//! * [`scenarios`] — the Table 1, Figure 1 and ablation job lists,
//!   [`run_jobs`] (a list through the executor on the sweep pool), the
//!   calibrated fat-tree workload of the `degradation` bench,
//! * [`objectives`] — Figure 2's and Figure 3's jobs ([`fct_job`],
//!   [`tail_job`]) and the one runner that is not a sweep job: Figure 4
//!   (an engineered flow placement),
//! * [`scale`] — quick vs. paper-scale knobs (`UPS_SCALE`), and the
//!   streaming pipeline with its resident ≡ streaming differential gate
//!   (the `scale` bench and its CI smoke call the same function).
//!
//! The `benches/` directory contains one `harness = false` target per
//! table/figure that prints paper-style rows, the two targets that write
//! committed artifacts — `degradation` (`BENCH_degradation.json`: replay
//! match rate against priority-queue count K and against link-failure
//! intensity, every row a job on the `queues` or `failures` sub-axis with
//! its forensics block) and `scale` (`BENCH_scale.json`). How fast the
//! engine is and what observability costs are measured in one place
//! only: the repository's benchmark, `examples/perf`.
//!
//! [`JobSpec`]: ups_sweep::JobSpec

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "the bench harness is outside the determinism scope: it times runs and builds scenarios, and no reading reaches a simulated schedule"
)]

pub mod objectives;
pub mod scale;
pub mod scenarios;

pub use objectives::{fct_job, run_fairness_experiment, tail_delays, tail_job, FairnessScheme};
pub use scale::{peak_rss_bytes, Scale, FAIRNESS_HORIZON};
pub use scenarios::{
    fattree_throughput_workload, fig1_jobs, replay_job, run_jobs, table1_jobs, I2_DEFAULT,
    PAPER_TABLE1,
};
