//! # ups-dynamics — link failures, epoch-based rerouting, churn replay
//!
//! Everything before this crate assumed the paper's §2.1 premise that
//! `path(p)` is fixed for the whole run. Real networks lose links
//! mid-run; this subsystem breaks the premise *deliberately* so the
//! repository can measure how black-box LSTF universality degrades when
//! it no longer holds (cf. scheduling under adversarial jamming, Böhm et
//! al. — PAPERS.md):
//!
//! * [`FailureSchedule`] — deterministic, seeded link-outage profiles
//!   ([`FailureProfile::RandomLinks`] / [`FailureProfile::CoreLinks`] /
//!   [`FailureProfile::Burst`]) that emit alternating link-down/link-up
//!   events over a run window;
//! * [`DynamicRouting`] — the epoch-based routing oracle: every
//!   link-state change opens a new *epoch* whose hash-spread BFS tables
//!   are recomputed over the surviving links (lazily, per source). With
//!   zero dead links its tables are the static `ups_topology::Routing`
//!   tables **by construction** — both call the same walk-back
//!   tie-break;
//! * [`run_schedule_with_failures`] — the churn runner: wires the
//!   schedule into the simulator's event list as `LinkState` events
//!   and installs the oracle for the configured in-flight policy
//!   (`DeadLinkPolicy::Reroute` at the packet's current hop vs
//!   `DeadLinkPolicy::Drop` at the dead link). With an empty schedule it
//!   adds no events and no oracle, so a zero-failure run is bit-identical
//!   to `ups_core::run_schedule`;
//! * [`churn_replay_with_sink`] — the §2 replay kept well-defined under churn: the
//!   delivered packets, re-injected at their observed `i(p)` along their
//!   observed **as-executed** paths (the trace records reroutes), through
//!   black-box LSTF on the intact topology, scored against the original
//!   `o(p)`.

#![warn(missing_docs)]

pub mod routing;
pub mod run;
pub mod schedule;

pub use routing::DynamicRouting;
pub use run::{churn_replay_with_sink, run_schedule_with_failures, ChurnOutcome};
pub use schedule::{
    parse_failure_spec, FailureProfile, FailureSchedule, LinkEvent, FAILURE_PROFILES,
};
