//! # ups-forensics — replay-divergence attribution
//!
//! The paper's headline numbers (Table 1, and this workspace's committed
//! degradation curves: 0.9997 exact → 0.447 at K=1 → 0.566 at 50% link
//! failure) say *how often* black-box LSTF replay misses its targets.
//! This crate answers *why*: it rides the streaming comparison's
//! [`DivergenceSink`](ups_core::DivergenceSink) seam and turns every
//! mismatched packet into an attribution —
//!
//! 1. **Taxonomy** (from `ups-core`): which of the five
//!    [`DivergenceCause`](ups_core::DivergenceCause)s the packet fell
//!    under. The per-cause counts are conserved against the aggregate
//!    [`ReplayReport`](ups_core::ReplayReport) (Σ causes ≡ `overdue`),
//!    property-tested in `tests/`.
//! 2. **Per-hop blame**: a lockstep merge of the original and replay
//!    `hop_tx_starts` timelines finds the *first divergent hop* — the
//!    first switch where the replay started serializing the packet later
//!    than the original did — and classifies the inversion there
//!    ([`InversionKind`]): a rank tie the original won, a quantization
//!    bucket collision, a path change, or a queue overflow.
//! 3. **Bounded aggregates** ([`BlameCollector`]): per-node and per-link
//!    blame tables, a [`QuantileSketch`](ups_metrics::QuantileSketch) of
//!    per-hop lateness, a Misra–Gries top-k of divergent flows and a
//!    capped worst-case list — all `O(nodes + k)` memory, so the
//!    collector rides the 5M-packet streaming compare path unchanged.
//!
//! The collector distills into a
//! [`DivergenceSummary`](ups_metrics::DivergenceSummary) (schema
//! `ups-forensics/v1`) that sweep records carry, and renders
//! human-readable blame tables for `sweep explain`.

#![warn(missing_docs)]

mod blame;
mod topk;

pub use blame::{BlameCollector, HopBlame, NodeBlame, WorstCase};
pub use topk::TopK;

/// Which replay produced the divergences a collector is attributing —
/// decides how a timing inversion at the first divergent hop is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayFlavor {
    /// Exact LSTF replay (unbounded slack precision).
    Exact,
    /// Quantized LSTF replay over `k` strict-priority queues — timing
    /// inversions are bucket collisions, not rank ties.
    Quantized {
        /// Number of priority queues the replay quantized slack into.
        k: u32,
    },
    /// Churn replay: delivered packets re-run along their as-executed
    /// paths on the intact topology after a failure run.
    Churn,
}

impl ReplayFlavor {
    /// Stable listing name.
    pub fn name(self) -> &'static str {
        match self {
            ReplayFlavor::Exact => "exact",
            ReplayFlavor::Quantized { .. } => "quantized",
            ReplayFlavor::Churn => "churn",
        }
    }
}

impl std::fmt::Display for ReplayFlavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayFlavor::Quantized { k } => write!(f, "quantized K={k}"),
            other => f.write_str(other.name()),
        }
    }
}

/// What went wrong at the first divergent hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum InversionKind {
    /// The replay scheduler served a competitor first at a hop where the
    /// original won the tie — slack/rank resolution differed.
    RankTieBreak,
    /// Quantized replay only: the packet shared a priority bucket with a
    /// competitor whose exact slack was larger, and lost the FIFO order
    /// inside the bucket.
    BucketCollision,
    /// The replay moved the packet along a different path (reroute, or a
    /// dead-link diversion that the original did not take).
    Reroute,
    /// The replay dropped the packet from a full queue.
    QueueOverflow,
    /// No hop-level signal: the divergence is observable only at the
    /// exit (end-to-end records, or the replay never saw the packet).
    ExitOnly,
}

impl InversionKind {
    /// Every kind, in serialization order.
    pub const ALL: [InversionKind; 5] = [
        InversionKind::RankTieBreak,
        InversionKind::BucketCollision,
        InversionKind::Reroute,
        InversionKind::QueueOverflow,
        InversionKind::ExitOnly,
    ];

    /// Stable snake_case name (table rows, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            InversionKind::RankTieBreak => "rank_tie_break",
            InversionKind::BucketCollision => "bucket_collision",
            InversionKind::Reroute => "reroute",
            InversionKind::QueueOverflow => "queue_overflow",
            InversionKind::ExitOnly => "exit_only",
        }
    }
}

impl std::fmt::Display for InversionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
