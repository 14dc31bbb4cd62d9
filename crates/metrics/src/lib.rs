//! # ups-metrics — statistics and reporting for the UPS evaluation
//!
//! Everything Table 1 and Figures 1–4 are expressed in:
//!
//! * [`stats`] — means, percentiles, CDFs/CCDFs (Figures 1 and 3),
//! * [`jain`] — Jain's fairness index and per-millisecond series
//!   (Figure 4),
//! * [`fct`] — flow-completion-time bucketing (Figure 2),
//! * [`sketch`] — a fixed-size logarithmic quantile sketch for streaming
//!   distributions (bounded-memory p99 and CDF fractions),
//! * [`accum`] — the incremental per-run accumulator the sweep runner
//!   feeds one record at a time,
//! * [`summary`] — the serializable per-run [`RunSummary`] the sweep
//!   result store streams as JSON lines,
//! * [`table`] — paper-style plain-text rendering for the bench harness.

#![warn(missing_docs)]

pub mod accum;
pub mod fct;
pub mod jain;
pub mod sketch;
pub mod stats;
pub mod summary;
pub mod table;

pub use accum::RunAccumulator;
pub use fct::{mean_fct_by_bucket, overall_mean_fct, FlowSample, FIG2_BUCKETS, OVERFLOW_EDGE};
pub use jain::{jain_index, jain_series};
pub use sketch::QuantileSketch;
pub use stats::{fraction_where, mean, percentile, Cdf};
pub use summary::{
    json_escape, json_num, json_opt_num, DisruptionSummary, DivergenceSummary, RunSummary,
    TransportSummary,
};
pub use table::{frac, render_series, Table};
