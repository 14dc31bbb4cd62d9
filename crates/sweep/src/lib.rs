//! # ups-sweep — the parallel scenario-sweep engine
//!
//! Runs *grids* of scheduling scenarios across all cores: a declarative
//! [`ScenarioGrid`] (topology × workload profile × scheduler × traffic
//! mode × utilization × seed, with filters) expands to independent
//! [`JobSpec`]s; a hand-rolled [`pool`] of `std::thread` workers sharing
//! one job cursor executes them with per-job seeded determinism; and the
//! [`store`] streams one JSON line per finished job before aggregating
//! everything into a schema-tagged `BENCH_sweep.json` (DESIGN.md §5 artifact
//! pattern, §7–§8 for this subsystem).
//!
//! The traffic axis closes the loop: `open-loop` jobs inject §2.3's
//! paced UDP trains; `closed-loop` jobs drive live TCP Reno endpoints
//! (via `ups-transport`'s shared driver) with the §3 slack policy
//! derived from the scheduler under test, then replay the **as-executed**
//! schedule through black-box LSTF.
//!
//! The `sweep` binary is the command-line face: "run the whole paper
//! evaluation, 8-wide, in one command". Library consumers (`ups-bench`
//! ports its Figure 2/3 runners onto [`pool::run_jobs`]) get the same
//! engine without the CLI.
//!
//! ## Determinism contract
//!
//! A job is a pure function of its [`JobSpec`] — registries rebuild the
//! topology and workload from names + seed inside the worker. The pool
//! therefore guarantees: **same grid ⇒ byte-identical sorted result
//! records, for any worker count**. `tests/determinism.rs` pins this with
//! a 1-worker vs 4-worker comparison.
//!
//! ## Quick example
//!
//! ```
//! use ups_sweep::{pool, run_job_shared, ScenarioGrid, SharedScenarios};
//! use ups_netsim::prelude::Dur;
//!
//! let grid = ScenarioGrid {
//!     topologies: vec!["Line(3)".into()],
//!     schedulers: vec!["FIFO".into(), "LSTF".into()],
//!     traffic: vec!["open-loop".into()],
//!     seeds: vec![1],
//!     window: Dur::from_ms(1),
//!     replay: false,
//!     max_packets: Some(500),
//!     excludes: Vec::new(),
//!     ..ScenarioGrid::default()
//! };
//! let jobs = grid.expand().unwrap();
//! // One topology build + all-pairs routing per distinct topology.
//! let shared = SharedScenarios::for_jobs(&jobs);
//! let (records, stats) = pool::run_jobs(&jobs, 2, |_, spec| run_job_shared(spec, &shared));
//! assert_eq!(records.len(), 2);
//! assert_eq!(stats.jobs, 2);
//! ```

#![warn(missing_docs)]

pub mod explain;
pub mod grid;
pub mod json;
pub mod pool;
pub mod runner;
pub mod store;
pub mod telemetry;

pub use explain::{explain_job, Explanation};
pub use grid::{
    Exclude, Failures, GridError, JobSpec, Queues, ScenarioGrid, Scheduler, TrafficMode,
};
pub use pool::{run_jobs, run_jobs_telemetry, PoolStats};
pub use runner::{run_job_shared, summarize_trace, JobRecord, SharedScenarios, RECORD_SCHEMA};
pub use store::{
    bench_sweep_json, validate_artifact, validate_bench_sweep, ResultStream, SweepDigest,
    SWEEP_SCHEMA,
};
pub use telemetry::{HeartbeatConfig, HeartbeatRecord, WorkerRow};
