//! # ups-bench — the experiment harness
//!
//! One runner per paper artifact:
//!
//! * [`scenarios`] + [`replay_exp`] — Table 1 and Figure 1 (replay),
//! * [`objectives`] — Figures 2 (FCT), 3 (tail delay), 4 (fairness),
//! * [`scale`] — quick vs. paper-scale knobs (`UPS_SCALE`), and the
//!   streaming pipeline with its resident ≡ streaming differential gate
//!   (the `scale` bench and its CI smoke call the same function).
//!
//! The `benches/` directory contains one `harness = false` target per
//! table/figure that prints paper-style rows, the two targets that write
//! committed artifacts — `degradation` (`BENCH_degradation.json`: replay
//! match rate against priority-queue count K and against link-failure
//! intensity, every row with its forensics block) and `scale`
//! (`BENCH_scale.json`) — plus Criterion microbenchmarks of the engine
//! (`benches/micro.rs`). Every replay in this crate is a call of
//! [`ups_core::Replay`]. How fast the engine is and what observability
//! costs are measured in one place only: the repository's benchmark,
//! `examples/perf`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod objectives;
pub mod scale;
pub mod scenarios;

pub use objectives::{
    fct_job, run_fairness_experiment, run_tail_experiment, FairnessScheme, TailResult,
};
pub use scale::{peak_rss_bytes, Scale};
pub use scenarios::{
    fattree_throughput_workload, fig1_jobs, replay_job, run_jobs, table1_jobs, table1_rows,
    I2_DEFAULT, PAPER_FQ_FIFOPLUS, PAPER_TABLE1,
};
