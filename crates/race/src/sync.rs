//! The sync shim: `std::sync` in every normal build, the [`crate::model`]
//! backend under `--cfg ups_race_model`.
//!
//! Concurrent code in the pool/obs crates imports its primitives from
//! here instead of `std::sync` directly (enforced by the `ups-lint`
//! `raw-sync` rule). Without the cfg every item is a plain re-export, so
//! the compiled artifact is bit-for-bit the code it replaced — the
//! existing determinism and obs-determinism suites pin that. The list
//! below is exactly what the workspace imports, and each name must exist
//! in both backends, so "is this primitive covered by the model
//! checker?" is answered by whether the `ups_race_model` build compiles.
//!
//! `Arc`/`Weak` are deliberately *not* gated behind the shim: they are
//! ownership, not synchronization — no scheduling decision ever hinges
//! on one — so `raw-sync` allows them from `std::sync` directly.

#[cfg(ups_race_model)]
use crate::model::sync as backend;
#[cfg(not(ups_race_model))]
use std::sync as backend;

pub use backend::{Mutex, PoisonError};

/// Atomic cells and orderings.
pub mod atomic {
    pub use super::backend::atomic::{AtomicBool, AtomicU64, Ordering};
}
