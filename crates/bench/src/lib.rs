//! # ups-bench — the experiment harness
//!
//! One runner per paper artifact:
//!
//! * [`scenarios`] + [`replay_exp`] — Table 1 and Figure 1 (replay),
//! * [`objectives`] — Figures 2 (FCT), 3 (tail delay), 4 (fairness),
//! * [`scale`] — quick vs. paper-scale knobs (`UPS_SCALE`).
//!
//! The `benches/` directory contains one `harness = false` target per
//! table/figure that prints paper-style rows, plus Criterion
//! microbenchmarks of the engine (`benches/micro.rs`). How fast the engine
//! is and what observability costs are measured in one place only: the
//! repository's benchmark, `examples/perf`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod objectives;
pub mod replay_exp;
pub mod scale;
pub mod scenarios;

pub use objectives::{
    run_fairness_experiment, run_fct_experiment, run_tail_experiment, FairnessScheme, FctScheme,
    TailResult,
};
pub use replay_exp::{ReplayResult, ReplayScenario};
pub use scale::{peak_rss_bytes, Scale};
pub use scenarios::{
    fattree_throughput_workload, fig1_scenarios, figure_setup, table1_scenarios, FigureSetup,
    PAPER_FQ_FIFOPLUS, PAPER_TABLE1,
};
