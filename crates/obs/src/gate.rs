//! The global instrumentation gate: monotonic counters and phase timers
//! behind one `AtomicBool`.
//!
//! Hot engine code calls [`count`], [`count_max`] or [`timer`]
//! unconditionally; each hook loads the gate with `Ordering::Relaxed`
//! and branches. While the gate is off that branch is never taken, so
//! the cost per hook is a handful of cycles and perfectly predictable.
//! What the hooks cost with the gate *on* is the `obs.trace_overhead`
//! row of the repository's benchmark (`examples/perf`).
//!
//! All cells are relaxed atomics: counters are statistically merged
//! across threads, never used for synchronization, and the reader
//! ([`snapshot`]) tolerates tearing *between* cells (each cell itself is
//! a single atomic word).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A coarse engine phase whose wall-clock time is accumulated while the
/// gate is on. Sub-phases nest inside [`Phase::Dispatch`] (an enqueue
/// happens *during* an event dispatch), so the per-phase totals are not
/// disjoint: `Dispatch` is the whole event loop, the others attribute
/// slices of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// One whole event dispatch in `Simulator::step` (pop → handle).
    Dispatch,
    /// Port enqueue: scheduler `enqueue` + buffer-eviction decisions.
    Enqueue,
    /// Port dequeue: `PortReady` handling, scheduler `dequeue`, next tx.
    Dequeue,
    /// Dead-link diversion: oracle reroute or policy drop.
    Reroute,
    /// Trace spill I/O: encoding and writing sealed chunks to disk.
    SpillIo,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 5] = [
        Phase::Dispatch,
        Phase::Enqueue,
        Phase::Dequeue,
        Phase::Reroute,
        Phase::SpillIo,
    ];

    /// Stable lower-case name (artifact field / track name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Enqueue => "enqueue",
            Phase::Dequeue => "dequeue",
            Phase::Reroute => "reroute",
            Phase::SpillIo => "spill_io",
        }
    }

    /// One-line description for `sweep --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Phase::Dispatch => "whole event dispatch (pop -> handle) in Simulator::step",
            Phase::Enqueue => "port enqueue: scheduler insert + buffer eviction",
            Phase::Dequeue => "port dequeue: PortReady handling + next transmission",
            Phase::Reroute => "dead-link diversion: oracle reroute or policy drop",
            Phase::SpillIo => "streaming-trace chunk encode + write to spill file",
        }
    }
}

/// A monotonic counter the engine bumps while the gate is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `Inject` events dispatched.
    EventsInject,
    /// `Arrive` events dispatched.
    EventsArrive,
    /// `PortReady` events dispatched.
    EventsPortReady,
    /// `Timer` events dispatched.
    EventsTimer,
    /// `LinkState` events dispatched.
    EventsLinkState,
    /// Bytes written to trace spill files.
    SpillBytes,
    /// Trace chunks sealed (sorted and moved to the in-memory ring).
    SpillChunksSealed,
    /// Packet-arena occupancy high-water mark (a max, not a sum).
    ArenaHighWater,
    /// Total rank-heap sift steps (levels moved in `sift_up`/`sift_down`).
    RankHeapSiftSteps,
    /// Packet records finalized into a streaming trace store.
    TraceRecordsFinalized,
    /// `compare` reorder-window occupancy high-water mark (a
    /// max, not a sum). Bounded by `REORDER_WINDOW` on sorted inputs —
    /// the scale bench asserts the bound holds at 5M+ packets.
    CompareWindow,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 11] = [
        Counter::EventsInject,
        Counter::EventsArrive,
        Counter::EventsPortReady,
        Counter::EventsTimer,
        Counter::EventsLinkState,
        Counter::SpillBytes,
        Counter::SpillChunksSealed,
        Counter::ArenaHighWater,
        Counter::RankHeapSiftSteps,
        Counter::TraceRecordsFinalized,
        Counter::CompareWindow,
    ];

    /// Stable snake-case name (artifact field / counter-track name).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsInject => "events_inject",
            Counter::EventsArrive => "events_arrive",
            Counter::EventsPortReady => "events_port_ready",
            Counter::EventsTimer => "events_timer",
            Counter::EventsLinkState => "events_link_state",
            Counter::SpillBytes => "spill_bytes",
            Counter::SpillChunksSealed => "spill_chunks_sealed",
            Counter::ArenaHighWater => "arena_high_water",
            Counter::RankHeapSiftSteps => "rank_heap_sift_steps",
            Counter::TraceRecordsFinalized => "trace_records_finalized",
            Counter::CompareWindow => "compare_window_high_water",
        }
    }

    /// One-line description for `sweep --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Counter::EventsInject => "Inject events dispatched",
            Counter::EventsArrive => "Arrive events dispatched",
            Counter::EventsPortReady => "PortReady events dispatched",
            Counter::EventsTimer => "Timer events dispatched",
            Counter::EventsLinkState => "LinkState events dispatched",
            Counter::SpillBytes => "bytes written to trace spill files",
            Counter::SpillChunksSealed => "trace chunks sealed into the spill ring",
            Counter::ArenaHighWater => "packet-arena occupancy high-water mark",
            Counter::RankHeapSiftSteps => "rank-heap sift steps (levels moved)",
            Counter::TraceRecordsFinalized => "records finalized into streaming traces",
            Counter::CompareWindow => "compare reorder-window high-water mark",
        }
    }
}

const N_PHASES: usize = Phase::ALL.len();
const N_COUNTERS: usize = Counter::ALL.len();

static ENABLED: AtomicBool = AtomicBool::new(false);

// `AtomicU64` is not `Copy`; spell the arrays out via const blocks.
#[expect(
    clippy::declare_interior_mutable_const,
    reason = "ZERO is only ever copied into the static arrays below, never borrowed"
)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static PHASE_NS: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];
static PHASE_CALLS: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];

/// Is the gate on? One relaxed load — the hook fast path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the gate on. Does not reset accumulated values — call [`reset`]
/// first for a fresh measurement window.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the gate off. In-flight [`PhaseTimer`] guards still record on
/// drop (they captured their start while the gate was on).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Zero every counter and phase accumulator.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for p in &PHASE_NS {
        p.store(0, Ordering::Relaxed);
    }
    for p in &PHASE_CALLS {
        p.store(0, Ordering::Relaxed);
    }
}

/// Add `n` to `c` if the gate is on.
#[inline(always)]
pub fn count(c: Counter, n: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raise `c` to at least `v` if the gate is on (high-water marks).
#[inline(always)]
pub fn count_max(c: Counter, v: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// A scope guard accumulating wall time into a [`Phase`] on drop.
/// [`timer`] returns an inert guard while the gate is off — no clock is
/// read on the disabled path.
#[must_use = "the timer records on drop; binding it to _ discards the span immediately"]
pub struct PhaseTimer {
    #[expect(
        clippy::disallowed_types,
        reason = "obs is the annotated exception: phase timings feed only the obs artifacts, which DESIGN.md §3 excludes from the determinism surface; no reading reaches simulation state"
    )]
    armed: Option<(Phase, std::time::Instant)>,
}

impl Drop for PhaseTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some((phase, t0)) = self.armed.take() {
            PHASE_NS[phase as usize].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            PHASE_CALLS[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Start timing `phase` if the gate is on; the returned guard records
/// the elapsed wall time when dropped.
#[inline(always)]
#[expect(clippy::disallowed_types, reason = "see PhaseTimer::armed")]
pub fn timer(phase: Phase) -> PhaseTimer {
    PhaseTimer {
        armed: enabled().then(|| (phase, std::time::Instant::now())),
    }
}

/// A point-in-time copy of every gate cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; N_COUNTERS],
    /// Accumulated nanoseconds per phase, indexed by `Phase as usize`.
    pub phase_ns: [u64; N_PHASES],
    /// Completed spans per phase, indexed by `Phase as usize`.
    pub phase_calls: [u64; N_PHASES],
}

impl ObsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Accumulated nanoseconds of one phase.
    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.phase_ns[p as usize]
    }

    /// Completed spans of one phase.
    pub fn phase_calls(&self, p: Phase) -> u64 {
        self.phase_calls[p as usize]
    }
}

/// Read every cell (relaxed; see module docs on cross-cell tearing).
pub fn snapshot() -> ObsSnapshot {
    let mut s = ObsSnapshot::default();
    for (i, c) in COUNTERS.iter().enumerate() {
        s.counters[i] = c.load(Ordering::Relaxed);
    }
    for (i, p) in PHASE_NS.iter().enumerate() {
        s.phase_ns[i] = p.load(Ordering::Relaxed);
    }
    for (i, p) in PHASE_CALLS.iter().enumerate() {
        s.phase_calls[i] = p.load(Ordering::Relaxed);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate is process-global, so the gate tests run under one lock to
    // keep `cargo test`'s threaded runner from interleaving them.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_hooks_record_nothing() {
        let _g = LOCK.lock().unwrap();
        reset();
        disable();
        count(Counter::SpillBytes, 100);
        count_max(Counter::ArenaHighWater, 7);
        drop(timer(Phase::Dispatch));
        let s = snapshot();
        assert_eq!(s.counter(Counter::SpillBytes), 0);
        assert_eq!(s.counter(Counter::ArenaHighWater), 0);
        assert_eq!(s.phase_calls(Phase::Dispatch), 0);
        assert_eq!(s.phase_ns(Phase::Dispatch), 0);
    }

    #[test]
    fn enabled_hooks_accumulate_and_reset_clears() {
        let _g = LOCK.lock().unwrap();
        reset();
        enable();
        count(Counter::RankHeapSiftSteps, 3);
        count(Counter::RankHeapSiftSteps, 4);
        count_max(Counter::ArenaHighWater, 10);
        count_max(Counter::ArenaHighWater, 6); // lower: must not shrink
        drop(timer(Phase::SpillIo));
        disable();
        let s = snapshot();
        assert_eq!(s.counter(Counter::RankHeapSiftSteps), 7);
        assert_eq!(s.counter(Counter::ArenaHighWater), 10);
        assert_eq!(s.phase_calls(Phase::SpillIo), 1);
        reset();
        assert_eq!(snapshot(), ObsSnapshot::default());
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate counter/phase name");
    }
}
