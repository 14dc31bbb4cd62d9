//! `ups-race` — a deterministic interleaving model checker for the
//! workspace's concurrency layer, plus the sync shim that keeps the
//! checked surface honest.
//!
//! The sweep engine's correctness claims (cross-worker byte-identical
//! records, telemetry conservation, the heartbeat's guaranteed
//! completion tick) rest on a hand-rolled pool and a set of relaxed
//! atomic counters. Before this crate, those claims were
//! only as strong as "the tests passed under this machine's scheduler".
//! `ups-race` closes that gap with two pieces:
//!
//! 1. **The shim** ([`sync`] / [`thread`]): re-exports of the exact
//!    `std::sync` / `std::thread` surface the workspace's concurrent
//!    code imports. In normal builds these are plain `pub use`
//!    passthroughs — zero cost, bit-identical behavior — and they give
//!    the `ups-lint` `raw-sync` rule a boundary to police: concurrency
//!    primitives used outside the shim in the pool/obs crates are
//!    findings. Under `--cfg ups_race_model` (the loom idiom) the same
//!    names resolve to the model backend instead.
//!
//! 2. **The model** ([`model`] / [`explore`](mod@explore)): `Mutex` / atomic /
//!    thread twins whose every operation is a *scheduling decision*
//!    owned by a controlled scheduler, and an explorer that drives a
//!    closure-under-test across interleavings — exhaustive
//!    bounded-preemption DFS plus seeded random schedules. Failures
//!    print a replayable schedule string, so a counterexample
//!    interleaving becomes a committed regression fixture.
//!
//! The checks on the code that ships live with it:
//! `crates/sweep/tests/pool_model.rs` runs the real
//! `ups_sweep::pool::run_jobs_telemetry` and the heartbeat it runs,
//! compiled against the model, under the explorer (DESIGN.md §14).
//!
//! **What the model does and does not check.** The scheduler owns every
//! context switch, so all interleavings of *operations* (up to the
//! preemption bound) are explored, including the ones a real scheduler
//! would need days of load to hit. It does **not** simulate weak-memory
//! reordering: model atomics are sequentially consistent between
//! scheduling points. That is the right fidelity for this workspace —
//! every atomic here is a monotone counter or a flag whose protocol is
//! mutex/park-based, a property `ups-lint`'s `atomic-ordering` rule
//! (Relaxed-only) independently enforces.

#![forbid(unsafe_code)]

pub mod explore;
pub mod model;
pub mod sync;
pub mod thread;

pub use explore::{explore, explore_random, replay, Config, Failure, Outcome, Schedule};
