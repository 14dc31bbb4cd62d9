//! Packets and the dynamic packet header.
//!
//! The paper's UPS model (§2.1) allows the scheduling header to be
//! *initialized at the ingress* and *rewritten at every hop* (dynamic packet
//! state, \[31\]). [`Header`] holds every field any scheduler in this
//! repository consults; schedulers read only the fields they own, so a
//! single concrete type keeps the hot path monomorphic without a `dyn`
//! header abstraction.
//!
//! A packet's path is a [`PathId`]: fixed for the packet's life in the
//! paper's model, interned once when the route is made and shared with
//! the trace record and the flow, so copying it touches no refcount.

use std::sync::Arc;

use crate::id::{FlowId, NodeId, PacketId};
use crate::path::PathId;
use crate::time::{Dur, SimTime};

/// What kind of payload a packet carries. The network core never inspects
/// this; transports and metrics do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Application data.
    Data,
    /// Transport acknowledgement (small, travels the reverse path).
    Ack,
}

/// The scheduling header carried by every packet.
///
/// Field ownership by scheduler:
///
/// | field | written by | read by |
/// |---|---|---|
/// | `slack` | ingress + every LSTF hop | LSTF |
/// | `deadline` | ingress | EDF |
/// | `prio` | ingress (priorities replay: `o(p)` or schedule rank) | static `Priority` |
/// | `flow_size` | source transport | SJF |
/// | `remaining` | source transport | SRPT |
/// | `omniscient` | ingress | omniscient replay (App. B) |
/// | `fifo_plus_offset` | every FIFO+ hop | FIFO+ |
#[derive(Debug, Clone, Default)]
pub struct Header {
    /// Remaining slack in picoseconds — the paper's `slack(p)`. May be
    /// negative during a failed replay. `i128` because the mean-FCT
    /// heuristic (§3.1) sets `slack = flow_size × 1 s`, which overflows
    /// `i64` for multi-megabyte flows.
    pub slack: i128,
    /// Target network exit time `o(p)`; static. Used by the EDF formulation
    /// (App. E); the simple-priorities replay baseline (§2.3(7)) writes
    /// `o(p)` into `prio` instead.
    pub deadline: SimTime,
    /// Static priority rank; lower value = served earlier.
    pub prio: i128,
    /// Total size in bytes of the flow this packet belongs to (SJF, §3.1).
    pub flow_size: u64,
    /// Bytes of the flow not yet transmitted by the source, including this
    /// packet (SRPT).
    pub remaining: u64,
    /// Per-hop scheduled output times `o(p, αᵢ)` from an original run —
    /// the omniscient initialization of Appendix B. Index `i` matches the
    /// packet's `hop` when it sits at `path[i]`.
    pub omniscient: Option<Arc<[SimTime]>>,
    /// Cumulative "excess waiting" state used by FIFO+ (§3.2, \[11\]):
    /// the sum over previous hops of (my queueing delay − mean queueing
    /// delay at that hop), in signed picoseconds.
    pub fifo_plus_offset: i64,
}

/// A packet in flight.
///
/// `path` is the full node path `src..=dst`, precomputed by the routing
/// layer and interned ([`PathId`]); the simulator core does no routing of
/// its own (the paper's model fixes `path(p)` as part of the input).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id; stable between an original run and its replay.
    pub id: PacketId,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Payload size in bytes (includes all headers; the simulator has no
    /// separate framing overhead).
    pub size: u32,
    /// Byte offset of this packet within its flow (transport sequencing).
    pub seq: u64,
    /// Data or ack.
    pub kind: PacketKind,
    /// Node path from source host to destination host, inclusive.
    pub path: PathId,
    /// Index into `path` of the node the packet is currently at (or being
    /// delivered to). Maintained by the event loop.
    pub hop: u32,
    /// Time the packet entered the network — the paper's `i(p)`.
    pub injected_at: SimTime,
    /// The scheduling header (dynamic packet state).
    pub header: Header,
    /// Total time spent queued (waiting, not transmitting) so far across
    /// all hops. Drives Figure 1's queueing-delay ratio and the LSTF slack
    /// update.
    pub cum_wait: Dur,
    /// Remaining serialization time at the current port if this packet's
    /// transmission was preempted mid-flight; `None` for a fresh packet.
    pub remaining_tx: Option<Dur>,
    /// Remaining minimum transit times: `tmin_rem[i]` = `tmin(p, path[i],
    /// dst)` (paper notation, App. A) for this packet's size. Needed by the
    /// EDF formulation; filled by the topology layer when requested.
    pub tmin_rem: Option<Arc<[Dur]>>,
}

// Every in-flight packet is one arena slot and every eager workload holds
// its whole train of these: a field that grows `Packet` moves
// `peak_rss_mib` on `replay-resident` and `churn-quantized`, and
// `netsim.inject_ns_per_pkt`, in the benchmark.
const _: () = assert!(std::mem::size_of::<Packet>() == 176);

impl Packet {
    /// The node the packet is currently at.
    #[inline]
    pub fn current_node(&self) -> NodeId {
        self.path[self.hop as usize]
    }

    /// Source host (first element of the path).
    #[inline]
    pub fn src(&self) -> NodeId {
        self.path[0]
    }

    /// Destination host (last element of the path).
    #[inline]
    pub fn dst(&self) -> NodeId {
        self.path[self.path.len() - 1] // lint:allow(panic-path): PacketBuilder rejects empty paths, so last index is valid
    }

    /// The next node along the path, or `None` at the destination.
    #[inline]
    pub fn next_node(&self) -> Option<NodeId> {
        self.path.get(self.hop as usize + 1).copied()
    }

    /// True when the packet sits at its destination host.
    #[inline]
    pub fn at_destination(&self) -> bool {
        self.hop as usize + 1 == self.path.len()
    }

    /// `tmin(p, current hop, dst)` if the tmin table was attached.
    #[inline]
    pub fn tmin_remaining(&self) -> Option<Dur> {
        self.tmin_rem.as_ref().map(|t| t[self.hop as usize])
    }
}

/// Builder for packets so tests and transports don't have to spell out
/// every field.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    id: PacketId,
    flow: FlowId,
    size: u32,
    seq: u64,
    kind: PacketKind,
    path: PathId,
    injected_at: SimTime,
    header: Header,
    tmin_rem: Option<Arc<[Dur]>>,
}

impl PacketBuilder {
    /// Start building a packet of `size` bytes along `path` at `t`. A path
    /// that is not a [`PathId`] yet (an `Arc<[NodeId]>`, a `Vec`) is
    /// interned here.
    pub fn new(id: PacketId, flow: FlowId, size: u32, path: impl Into<PathId>, t: SimTime) -> Self {
        let path = path.into();
        assert!(path.len() >= 2, "a path needs at least src and dst");
        PacketBuilder {
            id,
            flow,
            size,
            seq: 0,
            kind: PacketKind::Data,
            path,
            injected_at: t,
            header: Header::default(),
            tmin_rem: None,
        }
    }

    /// Set the in-flow byte offset.
    pub fn seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Mark as an acknowledgement.
    pub fn ack(mut self) -> Self {
        self.kind = PacketKind::Ack;
        self
    }

    /// Replace the whole header.
    pub fn header(mut self, h: Header) -> Self {
        self.header = h;
        self
    }

    /// Initial slack (LSTF).
    pub fn slack(mut self, slack: i128) -> Self {
        self.header.slack = slack;
        self
    }

    /// Static priority rank.
    pub fn prio(mut self, prio: i128) -> Self {
        self.header.prio = prio;
        self
    }

    /// Flow size and remaining bytes (SJF / SRPT).
    pub fn flow_bytes(mut self, flow_size: u64, remaining: u64) -> Self {
        self.header.flow_size = flow_size;
        self.header.remaining = remaining;
        self
    }

    /// Attach the per-hop minimum-transit table (EDF).
    pub fn tmin_rem(mut self, t: Arc<[Dur]>) -> Self {
        assert_eq!(t.len(), self.path.len(), "tmin table must match path");
        self.tmin_rem = Some(t);
        self
    }

    /// Finish.
    pub fn build(self) -> Packet {
        Packet {
            id: self.id,
            flow: self.flow,
            size: self.size,
            seq: self.seq,
            kind: self.kind,
            path: self.path,
            hop: 0,
            injected_at: self.injected_at,
            header: self.header,
            cum_wait: Dur::ZERO,
            remaining_tx: None,
            tmin_rem: self.tmin_rem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PathId {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn path_navigation() {
        let mut p = PacketBuilder::new(
            PacketId(1),
            FlowId(1),
            1500,
            path(&[0, 1, 2, 3]),
            SimTime::ZERO,
        )
        .build();
        assert_eq!(p.src(), NodeId(0));
        assert_eq!(p.dst(), NodeId(3));
        assert_eq!(p.current_node(), NodeId(0));
        assert_eq!(p.next_node(), Some(NodeId(1)));
        assert!(!p.at_destination());
        p.hop = 3;
        assert!(p.at_destination());
        assert_eq!(p.next_node(), None);
    }

    #[test]
    fn builder_sets_header_fields() {
        let p = PacketBuilder::new(
            PacketId(9),
            FlowId(2),
            40,
            path(&[5, 6]),
            SimTime::from_us(3),
        )
        .ack()
        .seq(1460)
        .slack(-5)
        .prio(77)
        .flow_bytes(10_000, 8_540)
        .build();
        assert_eq!(p.kind, PacketKind::Ack);
        assert_eq!(p.seq, 1460);
        assert_eq!(p.header.slack, -5);
        assert_eq!(p.header.prio, 77);
        assert_eq!(p.header.flow_size, 10_000);
        assert_eq!(p.header.remaining, 8_540);
        assert_eq!(p.injected_at, SimTime::from_us(3));
    }

    #[test]
    #[should_panic(expected = "at least src and dst")]
    fn rejects_degenerate_path() {
        let _ = PacketBuilder::new(PacketId(0), FlowId(0), 1, path(&[1]), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "tmin table must match path")]
    fn rejects_mismatched_tmin() {
        let _ = PacketBuilder::new(PacketId(0), FlowId(0), 1, path(&[1, 2]), SimTime::ZERO)
            .tmin_rem(Arc::from(vec![Dur::ZERO].into_boxed_slice()));
    }
}
