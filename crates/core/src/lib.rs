//! # ups-core — Universal Packet Scheduling: replay and objectives
//!
//! The paper's contribution, on top of `ups-netsim`/`ups-topology`:
//!
//! * [`replay`] — the §2 methodology: record an original schedule,
//!   re-initialize headers from `(i(p), o(p), path(p))` (black-box LSTF /
//!   priorities / EDF) or per-hop times (omniscient, App. B), re-run, and
//!   score `o′(p) ≤ o(p)`.
//! * [`heuristics`] — the §3 slack initializations for mean FCT
//!   (`flow_size × D`), tail delay (constant ⇒ FIFO+), and fairness
//!   (Virtual-Clock accumulation).
//! * [`counterexamples`] — Appendix C/F/G.3 as executable schedules, with
//!   tests reproducing each impossibility/boundary result.
//!
//! The property-test suite (in `tests/`) checks the theorems themselves on
//! randomized scenarios: omniscient replay is always perfect; preemptive
//! LSTF is perfect whenever no packet crosses more than two congestion
//! points; EDF and LSTF produce identical replays.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod counterexamples;
pub mod divergence;
pub mod heuristics;
pub mod replay;

pub use counterexamples::{
    appendix_c_case, appendix_f_schedule, appendix_g_schedule, CounterexampleSchedule,
};
pub use divergence::{Divergence, DivergenceCause, DivergenceSink};
pub use heuristics::{fct_slack, tail_slack, FairnessSlackAssigner, FCT_D};
pub use replay::{
    compare, compare_with_sink, lstf_replay_stream, max_congestion_points, overdue_threshold,
    priorities_from_schedule, replay_packets, replay_stream, run_schedule, HeaderInit,
    PriorityAssignment, Replay, ReplayExperiment, ReplayOutcome, ReplayReport, REORDER_WINDOW,
};
