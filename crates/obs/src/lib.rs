//! `ups-obs` — zero-cost-when-off instrumentation for the simulator and
//! the sweep engine.
//!
//! Three pillars, all hand-rolled (no external deps, matching the
//! vendored rand/proptest policy):
//!
//! 1. **The gate** ([`enabled`]/[`enable`]/[`disable`]): a process-wide
//!    set of monotonic [`Counter`]s and wall-clock [`Phase`] timers that
//!    deep engine code (heap sifts, spill I/O, event dispatch) updates
//!    through [`count`]/[`count_max`]/[`timer`]. Every hook
//!    short-circuits on one relaxed atomic load and a branch that always
//!    predicts the same way while the gate is off — the disabled path
//!    costs no allocation, no syscall, no lock, no clock read.
//! 2. **The sampler** ([`SharedProbe`]): a cloneable handle the
//!    simulator drives on a configurable *virtual-time* interval,
//!    recording one [`SimSample`] row per tick — packets in flight,
//!    event-list load, queued packets and bytes, deepest port queue —
//!    into a [`TimeSeries`] for export.
//! 3. **The exporter**: a chrome://tracing-compatible trace-event JSON
//!    writer ([`trace_event_json_with_markers`]) whose output opens
//!    directly in Perfetto.
//!
//! Observation never feeds back into simulation: no hook mutates engine
//! state, so a run with probes enabled is bit-identical (trace, stats,
//! replay reports) to the same seed with probes disabled — pinned by the
//! `obs_determinism` integration test.
//!
//! The gate is process-global. That is the point for single-run
//! profiling (one simulator, one report); under a multi-worker sweep the
//! counters aggregate across all concurrently-running simulations, so
//! sweep-level telemetry (the per-worker accounting and its heartbeat
//! records) lives with the pool in `ups-sweep` instead.

#![forbid(unsafe_code)]

pub mod gate;
pub mod probe;
pub mod trace_event;

pub use gate::{
    count, count_max, disable, enable, enabled, reset, snapshot, timer, Counter, ObsSnapshot,
    Phase, PhaseTimer,
};
pub use probe::{describe_probes, SharedProbe, SimSample, TimeSeries};
pub use trace_event::{trace_event_json_with_markers, InstantMarker};
