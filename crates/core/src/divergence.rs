//! The divergence taxonomy and the pluggable sink the comparison
//! reports through.
//!
//! [`compare_with_sink`](crate::compare_with_sink)
//! classifies every packet that misses its `o′(p) ≤ o(p)` target into
//! exactly one [`DivergenceCause`] and hands the full record pair to a
//! [`DivergenceSink`] as it streams past the merge-join cursor. The sink
//! sees each divergent packet exactly once, so the per-cause counts it
//! accumulates are conserved against the aggregate
//! [`ReplayReport`](crate::ReplayReport): the sum over all five causes
//! equals `report.overdue` (the total mismatch count). The attribution
//! layer on top — per-hop blame, inversion classification, bounded blame
//! tables — lives in `ups-forensics`; this module owns only the taxonomy
//! and the observer seam, so the comparison core stays free of any
//! aggregation policy.

use ups_netsim::prelude::{Dur, PacketId, PacketRecord};

/// Why one packet missed its replay target — every mismatched packet is
/// classified into exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DivergenceCause {
    /// Delivered late, but within the paper's threshold `T` (one
    /// bottleneck MTU transmission): `tolerance < lateness ≤ T +
    /// tolerance`.
    OverdueWithinT,
    /// Delivered late by more than `T` (Table 1's "> T" column):
    /// `lateness > T + tolerance`.
    OverdueBeyondT,
    /// The original delivered the packet but the replay never got it out
    /// and recorded no drop — it was never injected, or was still in
    /// flight when the replay run ended.
    MissingInReplay,
    /// The replay dropped the packet at a dead link (network-dynamics
    /// runs under the drop policy, or an unroutable destination).
    DeadLinkDrop,
    /// The replay dropped the packet from a full buffer.
    BufferDrop,
}

impl DivergenceCause {
    /// Every cause, in serialization order.
    pub const ALL: [DivergenceCause; 5] = [
        DivergenceCause::OverdueWithinT,
        DivergenceCause::OverdueBeyondT,
        DivergenceCause::MissingInReplay,
        DivergenceCause::DeadLinkDrop,
        DivergenceCause::BufferDrop,
    ];

    /// Stable snake_case name (table rows, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            DivergenceCause::OverdueWithinT => "overdue_within_t",
            DivergenceCause::OverdueBeyondT => "overdue_beyond_t",
            DivergenceCause::MissingInReplay => "missing_in_replay",
            DivergenceCause::DeadLinkDrop => "dead_link_drop",
            DivergenceCause::BufferDrop => "buffer_drop",
        }
    }
}

impl std::fmt::Display for DivergenceCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One divergent packet, observed at the moment the comparison scored
/// it. Borrowed from the merge-join's working set — a sink that needs
/// the data past the callback must copy what it keeps.
#[derive(Debug)]
pub struct Divergence<'a> {
    /// The packet (ids are shared between original and replay).
    pub id: PacketId,
    /// The original run's record (always delivered — only
    /// originally-delivered packets participate in the comparison).
    pub original: &'a PacketRecord,
    /// The replay run's record: present for late deliveries and recorded
    /// drops, `None` when the replay never saw the packet at all.
    pub replay: Option<&'a PacketRecord>,
    /// The classification.
    pub cause: DivergenceCause,
    /// `o′(p) − o(p)` for late deliveries; [`Dur::ZERO`] for packets the
    /// replay never delivered (their lateness is unbounded, not zero —
    /// consumers must branch on `cause`, not on this field).
    pub lateness: Dur,
}

/// Observer of divergent packets, invoked by
/// [`compare_with_sink`](crate::compare_with_sink) once per mismatch, in
/// canonical `(i(p), id)` stream order.
pub trait DivergenceSink {
    /// One mismatched packet.
    fn divergence(&mut self, d: &Divergence<'_>);
}

/// The no-op sink — [`compare`](crate::compare) is the sink-free
/// comparison running through `()`.
impl DivergenceSink for () {
    fn divergence(&mut self, _d: &Divergence<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let mut names: Vec<&str> = DivergenceCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 5);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5, "duplicate cause names");
        assert_eq!(format!("{}", DivergenceCause::BufferDrop), "buffer_drop");
    }
}
