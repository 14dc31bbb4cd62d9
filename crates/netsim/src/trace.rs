//! Schedule recording.
//!
//! A *schedule* in the paper is the set `{(path(p), i(p), o(p))}` (§2.1).
//! The recorder captures exactly that for every packet, optionally enriched
//! with per-hop detail (`o(p, α)` and per-hop waits) which the omniscient
//! replay of Appendix B and the congestion-point analysis need.
//!
//! A packet is recorded once, when it leaves the network — delivered,
//! dropped, or still in flight when the simulator hands over its trace —
//! from the packet itself, which carries every field of its record; in
//! `PerHop` mode its hops wait in a table by arena slot until then.
//!
//! Record detail ([`RecordMode`]) does not decide where records are kept;
//! the spill caps do:
//!
//! * **Resident** (no caps): a dense id-indexed `Vec`, with O(1) random
//!   access via [`Trace::get`] — memory `O(packets)`.
//! * **Spilled** (caps, or [`RecordMode::Streaming`] at default caps): a
//!   chunked log whose oldest chunks spill to a temp file (see
//!   `crate::spill`) — memory `O(ring)`, independent of how many packets
//!   the run injects, at either detail. No random access: every id
//!   answers [`TraceAccessError::Spilled`].
//!
//! Both layouts expose [`Trace::stream`], which yields every record in
//! `(i(p), id)` order. That ordering is the pipeline's canonical merge key:
//! replay preserves each packet's id and injection time, so two traces of
//! the same workload can be compared with a bounded-memory merge-join, and
//! the stream doubles as an injection-ordered packet source.

use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::arena::{PacketArena, PacketRef};
use crate::id::{FlowId, NodeId, PacketId};
use crate::packet::{Packet, PacketKind};
use crate::path::PathId;
use crate::spill::{ChunkLog, LogCursor, DEFAULT_CHUNK_RECORDS, DEFAULT_RING_CHUNKS};
use crate::time::{Dur, SimTime};

/// How much detail to record. Per-hop records cost memory proportional to
/// packets × hops. Where records live is chosen apart from detail, by the
/// spill caps ([`crate::sim::SimConfig::trace_spill_caps`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Record nothing (pure throughput runs).
    Off,
    /// `i(p)`, `o(p)`, total queueing and drop status per packet.
    EndToEnd,
    /// Additionally every hop's arrival, first transmission start
    /// (`o(p, α)`) and accumulated waiting.
    PerHop,
    /// `EndToEnd` detail, spilled at the default caps when none are
    /// given; read back via [`Trace::stream`].
    Streaming,
}

impl RecordMode {
    /// Every mode, in listing order.
    pub const ALL: [RecordMode; 4] = [
        RecordMode::Off,
        RecordMode::EndToEnd,
        RecordMode::PerHop,
        RecordMode::Streaming,
    ];

    /// Stable listing name.
    pub fn name(self) -> &'static str {
        match self {
            RecordMode::Off => "off",
            RecordMode::EndToEnd => "end-to-end",
            RecordMode::PerHop => "per-hop",
            RecordMode::Streaming => "streaming",
        }
    }

    /// One-line description for registry listings.
    pub fn describe(self) -> &'static str {
        match self {
            RecordMode::Off => "record nothing (pure throughput runs)",
            RecordMode::EndToEnd => "i(p), o(p), total wait per packet",
            RecordMode::PerHop => "end-to-end plus per-hop o(p, α) detail (omniscient replay)",
            RecordMode::Streaming => {
                "end-to-end detail, spilled at the default caps; stream access"
            }
        }
    }
}

/// Why a packet left the network without being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Evicted from a full port buffer (the only cause before the
    /// dynamics subsystem existed).
    Buffer,
    /// Lost at a dead link: its link went down while it was queued or in
    /// service (drop-at-dead-link policy), or no alternative path to its
    /// destination existed when a reroute was attempted.
    DeadLink,
}

/// One hop's history for one packet (PerHop mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRecord {
    /// The node whose output port served the packet.
    pub node: NodeId,
    /// When the packet's last bit arrived at this node.
    pub arrived: SimTime,
    /// When the node first started serializing the packet — the paper's
    /// `o(p, α)`.
    pub tx_start: SimTime,
    /// Total time spent waiting (not being served) at this node.
    pub waited: Dur,
}

/// Everything recorded about one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Bytes.
    pub size: u32,
    /// Data or ack.
    pub kind: PacketKind,
    /// The **as-executed** node path, read off the packet when the record
    /// is made: the routed path, or the splice the dynamics layer interned
    /// when it rerouted the packet at a dead link, so a delivered packet's
    /// record always names the links it actually traversed (what a
    /// churn-robust replay needs).
    pub path: PathId,
    /// `i(p)` — network entry time.
    pub injected: SimTime,
    /// `o(p)` — when the last bit reached the destination; `None` while in
    /// flight or if dropped.
    pub exited: Option<SimTime>,
    /// Total queueing delay accumulated across all hops.
    pub total_wait: Dur,
    /// Set if the packet left the network undelivered.
    pub dropped: bool,
    /// Why, when `dropped` is set; `None` for delivered/in-flight packets.
    pub drop_cause: Option<DropCause>,
    /// Per-hop detail (empty in EndToEnd mode).
    pub hops: Vec<HopRecord>,
}

// A resident trace holds one of these per packet, a spilled one a ring of
// chunks of them, and every record stream moves them by value: a field
// that grows `PacketRecord` moves `peak_rss_mib` on every workload and
// `netsim.trace_stream_ns_per_rec`, `netsim.into_trace_s` and
// `sweep.summarize_ns_per_rec` in the benchmark.
const _: () = assert!(std::mem::size_of::<PacketRecord>() == 80);

impl PacketRecord {
    /// End-to-end delay `o(p) − i(p)`, if the packet made it out.
    pub fn delay(&self) -> Option<Dur> {
        self.exited.map(|o| o.saturating_since(self.injected))
    }

    /// Number of congestion points: hops where the packet was "forced to
    /// wait" (§2.2 Key Results).
    pub fn congestion_points(&self) -> usize {
        self.hops.iter().filter(|h| h.waited > Dur::ZERO).count()
    }

    /// Per-hop scheduled output times `o(p, αᵢ)` in path order — the
    /// omniscient header of Appendix B. Only meaningful in PerHop mode for
    /// delivered packets. Borrows; collect if you need ownership.
    pub fn hop_tx_starts(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.hops.iter().map(|h| h.tx_start)
    }
}

#[derive(Debug)]
enum Store {
    /// Dense by packet id, grown in id order at injection.
    Resident(Vec<Option<PacketRecord>>),
    /// A chunked log whose oldest chunks spill to a temp file.
    Spilled(Box<ChunkLog>),
}

/// The recorded schedule of one simulation run.
///
/// Two traces compare equal iff they were captured in the same mode and
/// recorded identical per-packet histories — the bit-identical-trace
/// determinism check is literally `==` (implemented as a merge over both
/// record streams, so it works for spilled traces too).
#[derive(Debug)]
pub struct Trace {
    mode: RecordMode,
    store: Store,
    id_bound: u64,
    /// `PerHop` only: the hops each packet in flight has reached, by arena
    /// slot. They move into the packet's record when it is made.
    hops: Vec<Vec<HopRecord>>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.mode == other.mode && self.len() == other.len() && self.stream().eq(other.stream())
    }
}

impl Eq for Trace {}

fn resident_slot(
    records: &mut Vec<Option<PacketRecord>>,
    id: PacketId,
) -> &mut Option<PacketRecord> {
    let idx = id.index();
    if idx >= records.len() {
        records.resize_with(idx + 1, || None);
    }
    &mut records[idx]
}

impl Trace {
    pub(crate) fn new(mode: RecordMode) -> Self {
        Trace::with_spill_caps(mode, None)
    }

    /// As [`Trace::new`], spilling through a log with capacities
    /// `(records per chunk, sealed chunks kept in memory)` when `caps` is
    /// set, at any detail. [`RecordMode::Streaming`] without caps spills
    /// at the defaults; every other mode without caps stays resident.
    pub(crate) fn with_spill_caps(mode: RecordMode, caps: Option<(usize, usize)>) -> Self {
        let default =
            (mode == RecordMode::Streaming).then_some((DEFAULT_CHUNK_RECORDS, DEFAULT_RING_CHUNKS));
        let store = match caps.or(default) {
            Some((chunk, ring)) => Store::Spilled(Box::new(ChunkLog::new(chunk, ring))),
            None => Store::Resident(Vec::new()),
        };
        Trace {
            mode,
            store,
            id_bound: 0,
            hops: Vec::new(),
        }
    }

    /// Build a trace from externally-known records — used by the appendix
    /// counterexamples, whose original schedules are *given* as tables
    /// rather than produced by a scheduler. Packet ids must be unique.
    pub fn synthetic(
        mode: RecordMode,
        records: impl IntoIterator<Item = (PacketId, PacketRecord)>,
    ) -> Self {
        let mut t = Trace::new(mode);
        let mut seen = std::collections::BTreeSet::new();
        for (id, rec) in records {
            assert!(seen.insert(id), "duplicate synthetic record for {id}");
            t.id_bound = t.id_bound.max(id.0 + 1);
            t.put(id, rec);
        }
        t
    }

    /// The recording mode this trace was captured with.
    pub fn mode(&self) -> RecordMode {
        self.mode
    }

    /// Widens the id bound and the resident table, in id order: the packet
    /// carries everything its record needs until it leaves.
    pub(crate) fn on_inject(&mut self, id: PacketId) {
        if self.mode == RecordMode::Off {
            return;
        }
        self.id_bound = self.id_bound.max(id.0 + 1);
        if let Store::Resident(records) = &mut self.store {
            resident_slot(records, id);
        }
    }

    /// `pkt` reached the node at its current hop, which forwards it. A
    /// packet's first hop sizes its hop list to the hops left on its path,
    /// so a record's list is one allocation of exactly `path.len() − 1`
    /// entries; only a reroute onto a longer path grows it.
    #[inline]
    pub(crate) fn on_arrive_at_hop(&mut self, arena: &PacketArena, pkt: PacketRef, now: SimTime) {
        if self.mode != RecordMode::PerHop {
            return;
        }
        let p = arena.get(pkt);
        let slot = pkt.slot() as usize;
        if slot >= self.hops.len() {
            self.hops.resize_with(slot + 1, Vec::new);
        }
        let hops = &mut self.hops[slot];
        if hops.capacity() == 0 {
            hops.reserve_exact(p.path.len() - 1 - p.hop as usize);
        }
        hops.push(HopRecord {
            node: p.current_node(),
            arrived: now,
            tx_start: SimTime::MAX, // patched on first tx start
            waited: Dur::ZERO,
        });
    }

    #[inline]
    pub(crate) fn on_tx_start(&mut self, pkt: PacketRef, node: NodeId, now: SimTime, waited: Dur) {
        if self.mode != RecordMode::PerHop {
            return;
        }
        let slot = pkt.slot() as usize;
        match self.hops.get_mut(slot).and_then(|h| h.last_mut()) {
            Some(h) if h.node == node => {
                if h.tx_start == SimTime::MAX {
                    h.tx_start = now;
                }
                h.waited += waited;
            }
            _ => debug_assert!(false, "tx start without matching hop arrival"),
        }
    }

    /// `pkt` reached its destination at `now`; call before it leaves the
    /// arena.
    pub(crate) fn on_exit(&mut self, arena: &PacketArena, pkt: PacketRef, now: SimTime) {
        if self.mode != RecordMode::Off {
            let p = arena.get(pkt);
            self.record(pkt, p, Some(now), p.cum_wait, None);
        }
    }

    /// `pkt` is lost; call before it leaves the arena.
    pub(crate) fn on_drop(&mut self, arena: &PacketArena, pkt: PacketRef, cause: DropCause) {
        if self.mode != RecordMode::Off {
            self.record(pkt, arena.get(pkt), None, Dur::ZERO, Some(cause));
        }
    }

    /// The simulator hands its trace over with `in_flight` still in the
    /// network: each is recorded as it stands, open — not exited, no wait
    /// charged, the hops it has reached. The hop table goes with them.
    pub(crate) fn hand_over<'a>(
        &mut self,
        in_flight: impl IntoIterator<Item = (PacketRef, &'a Packet)>,
    ) {
        for (pkt, p) in in_flight {
            self.record(pkt, p, None, Dur::ZERO, None);
        }
        self.hops = Vec::new();
    }

    /// The one place a record is made, from the packet and the hops it
    /// collected: its flow, size, kind, `i(p)` and as-executed path.
    fn record(
        &mut self,
        pkt: PacketRef,
        p: &Packet,
        exited: Option<SimTime>,
        total_wait: Dur,
        drop_cause: Option<DropCause>,
    ) {
        let hops = self.hops.get_mut(pkt.slot() as usize).map(std::mem::take);
        let rec = PacketRecord {
            flow: p.flow,
            size: p.size,
            kind: p.kind,
            path: p.path,
            injected: p.injected_at,
            exited,
            total_wait,
            dropped: drop_cause.is_some(),
            drop_cause,
            hops: hops.unwrap_or_default(),
        };
        self.put(p.id, rec);
    }

    fn put(&mut self, id: PacketId, rec: PacketRecord) {
        match &mut self.store {
            Store::Resident(records) => *resident_slot(records, id) = Some(rec),
            Store::Spilled(log) => log.push(id.0, rec),
        }
    }

    /// The record for a packet id, on a resident trace.
    ///
    /// A spill-capped trace has no random access: every id below
    /// [`Trace::id_bound`] is [`TraceAccessError::Spilled`], wherever its
    /// record sits — use [`Trace::stream`]. An id the trace never saw, or
    /// one still in flight before
    /// [`crate::sim::Simulator::into_trace`], is [`TraceAccessError::NotRecorded`].
    pub fn get(&self, id: PacketId) -> Result<&PacketRecord, TraceAccessError> {
        match &self.store {
            Store::Resident(records) => records
                .get(id.index())
                .and_then(|r| r.as_ref())
                .ok_or(TraceAccessError::NotRecorded(id)),
            Store::Spilled(_) if id.0 < self.id_bound => Err(TraceAccessError::Spilled),
            Store::Spilled(_) => Err(TraceAccessError::NotRecorded(id)),
        }
    }

    /// True once records of this trace reached its spill file.
    pub fn spilled(&self) -> bool {
        matches!(&self.store, Store::Spilled(log) if log.has_spilled())
    }

    /// Every record (delivered, dropped and in-flight) in `(i(p), id)`
    /// order, decoding spilled chunks on the fly. This is the only way to
    /// read a spilled trace, and works identically on resident traces —
    /// the differential tests rely on both layouts producing the same
    /// stream. Records are owned (decoded or cloned); memory is bounded by
    /// the chunk count, not the record count.
    pub fn stream(&self) -> RecordStream<'_> {
        match &self.store {
            Store::Resident(store) => {
                let mut order: Vec<usize> =
                    (0..store.len()).filter(|&i| store[i].is_some()).collect();
                #[expect(
                    clippy::expect_used,
                    reason = "order only holds indices of retained (Some) records"
                )]
                order.sort_unstable_by_key(|&i| (store[i].as_ref().expect("filtered").injected, i));
                RecordStream {
                    inner: StreamInner::Resident {
                        records: store,
                        order: order.into_iter(),
                    },
                }
            }
            Store::Spilled(log) => {
                let mut sources = log.cursors();
                let mut heap = BinaryHeap::with_capacity(sources.len());
                let mut heads = Vec::with_capacity(sources.len());
                for (src, cur) in sources.iter_mut().enumerate() {
                    let head = cur.next().map(|(id, rec)| {
                        heap.push(std::cmp::Reverse((rec.injected.as_ps(), id, src)));
                        rec
                    });
                    heads.push(head);
                }
                RecordStream {
                    inner: StreamInner::Merge {
                        sources,
                        heads,
                        heap,
                    },
                }
            }
        }
    }

    /// Count of recorded packets.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Resident(records) => records.iter().filter(|r| r.is_some()).count(),
            Store::Spilled(log) => log.len() as usize,
        }
    }

    /// Exclusive upper bound on recorded packet id indexes — the length a
    /// dense `Vec` keyed by [`PacketId`] needs to cover every record.
    pub fn id_bound(&self) -> usize {
        self.id_bound as usize
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why random access into a [`Trace`] could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceAccessError {
    /// The trace holds no record for this packet id.
    NotRecorded(PacketId),
    /// The trace is spill-capped: its records may sit in a spill file,
    /// so it offers no random access. Use [`Trace::stream`].
    Spilled,
}

impl std::fmt::Display for TraceAccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceAccessError::NotRecorded(id) => write!(f, "no trace record for {id}"),
            TraceAccessError::Spilled => {
                f.write_str("spill-capped trace has no random access; use Trace::stream()")
            }
        }
    }
}

impl std::error::Error for TraceAccessError {}

enum StreamInner<'a> {
    Resident {
        records: &'a [Option<PacketRecord>],
        order: std::vec::IntoIter<usize>,
    },
    /// A k-way merge whose heap holds keys only: `(injected ps, id,
    /// source)`, the source index a deterministic tie-break (ids are
    /// unique, so it never decides). Each source's head record waits in
    /// its slot of `heads` and moves once, out to the caller.
    Merge {
        sources: Vec<LogCursor<'a>>,
        heads: Vec<Option<PacketRecord>>,
        heap: BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>>,
    },
}

/// Iterator over a trace's records in `(i(p), id)` order — see
/// [`Trace::stream`].
pub struct RecordStream<'a> {
    inner: StreamInner<'a>,
}

impl Iterator for RecordStream<'_> {
    type Item = (PacketId, PacketRecord);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            StreamInner::Resident { records, order } => {
                let i = order.next()?;
                #[expect(
                    clippy::expect_used,
                    reason = "order only holds indices of retained (Some) records"
                )]
                let rec = records[i].as_ref().expect("ordered index").clone();
                Some((PacketId(i as u64), rec))
            }
            StreamInner::Merge {
                sources,
                heads,
                heap,
            } => {
                let mut top = heap.peek_mut()?;
                let std::cmp::Reverse((_, id, src)) = *top;
                let next = sources[src].next();
                let rec = match next {
                    Some((next_id, next_rec)) => {
                        // Re-key the top in place: one sift when `top` drops.
                        *top = std::cmp::Reverse((next_rec.injected.as_ps(), next_id, src));
                        heads[src].replace(next_rec)
                    }
                    None => {
                        PeekMut::pop(top);
                        heads[src].take()
                    }
                };
                #[expect(
                    clippy::expect_used,
                    reason = "every source key in the heap has its head record in `heads`"
                )]
                let rec = rec.expect("a keyed source holds its head");
                Some((PacketId(id), rec))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::FlowId;
    use crate::packet::PacketBuilder;

    /// A trace, the arena its hooks read and the packets in it.
    type Rig = (Trace, PacketArena, Vec<PacketRef>);

    /// Packets `0..n` (packet `i` at `i` µs) injected into a fresh trace
    /// and arena, as the simulator holds them.
    fn injected(mode: RecordMode, caps: Option<(usize, usize)>, n: u64) -> Rig {
        let mut t = Trace::with_spill_caps(mode, caps);
        let mut arena = PacketArena::new();
        let path = PathId::from(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let refs = (0..n)
            .map(|id| {
                t.on_inject(PacketId(id));
                let at = SimTime::from_us(id);
                let p = PacketBuilder::new(PacketId(id), FlowId(0), 1500, path, at);
                arena.alloc(p.build())
            })
            .collect();
        (t, arena, refs)
    }

    #[test]
    fn end_to_end_lifecycle() {
        let (mut t, mut arena, refs) = injected(RecordMode::EndToEnd, None, 6);
        // In flight: not recorded yet.
        assert_eq!(
            t.get(PacketId(5)),
            Err(TraceAccessError::NotRecorded(PacketId(5)))
        );
        arena.get_mut(refs[5]).cum_wait = Dur::from_us(7);
        t.on_exit(&arena, refs[5], SimTime::from_us(34));
        let r = t.get(PacketId(5)).unwrap();
        assert_eq!(r.exited, Some(SimTime::from_us(34)));
        assert_eq!(r.delay(), Some(Dur::from_us(29)));
        assert_eq!(r.total_wait, Dur::from_us(7));
        assert_eq!((t.len(), t.id_bound()), (1, 6));
        assert_eq!(t.stream().filter(|(_, r)| r.exited.is_some()).count(), 1);
    }

    #[test]
    fn per_hop_records_congestion_points() {
        let (mut t, mut arena, refs) = injected(RecordMode::PerHop, None, 1);
        let p = refs[0];
        t.on_arrive_at_hop(&arena, p, SimTime::ZERO);
        t.on_tx_start(p, NodeId(0), SimTime::from_us(4), Dur::from_us(4));
        arena.get_mut(p).hop = 1;
        t.on_arrive_at_hop(&arena, p, SimTime::from_us(20));
        t.on_tx_start(p, NodeId(1), SimTime::from_us(20), Dur::ZERO);
        t.on_exit(&arena, p, SimTime::from_us(40));
        let r = t.get(PacketId(0)).unwrap();
        assert_eq!(r.congestion_points(), 1);
        // Sized on the first hop to the path's two links: no slack.
        assert_eq!((r.hops.len(), r.hops.capacity()), (2, 2));
        assert_eq!(
            r.hop_tx_starts().collect::<Vec<_>>(),
            vec![SimTime::from_us(4), SimTime::from_us(20)]
        );
    }

    #[test]
    fn per_hop_wait_accumulates_over_preemption_segments() {
        let (mut t, arena, refs) = injected(RecordMode::PerHop, None, 1);
        t.on_arrive_at_hop(&arena, refs[0], SimTime::ZERO);
        t.on_tx_start(refs[0], NodeId(0), SimTime::from_us(2), Dur::from_us(2));
        // Preempted, resumed later with 3us more waiting.
        t.on_tx_start(refs[0], NodeId(0), SimTime::from_us(9), Dur::from_us(3));
        // Still in flight at hand-over: the open record keeps its hops, and
        // the hop table is freed.
        t.hand_over(arena.iter());
        assert!(t.hops.is_empty());
        let r = t.get(PacketId(0)).unwrap();
        assert_eq!(r.exited, None);
        assert_eq!(r.hops[0].tx_start, SimTime::from_us(2), "first start kept");
        assert_eq!(r.hops[0].waited, Dur::from_us(5));
    }

    #[test]
    fn off_mode_records_nothing() {
        let (mut t, arena, refs) = injected(RecordMode::Off, None, 4);
        t.on_exit(&arena, refs[3], SimTime::from_us(9));
        assert!(t.is_empty());
        assert_eq!(
            t.get(PacketId(3)),
            Err(TraceAccessError::NotRecorded(PacketId(3)))
        );
    }

    #[test]
    fn drops_are_marked_with_cause() {
        let (mut t, arena, refs) = injected(RecordMode::EndToEnd, None, 2);
        t.on_drop(&arena, refs[1], DropCause::DeadLink);
        let r = t.get(PacketId(1)).unwrap();
        assert!(r.dropped);
        assert_eq!(r.drop_cause, Some(DropCause::DeadLink));
        assert_eq!(r.exited, None);
        assert_eq!(t.stream().filter(|(_, r)| r.exited.is_some()).count(), 0);
    }

    #[test]
    fn reroute_updates_the_recorded_path() {
        let (mut t, mut arena, refs) = injected(RecordMode::EndToEnd, None, 2);
        // The dynamics layer spliced a detour in at hop 1: the record
        // carries the as-executed path, whether the packet leaves or drops.
        let detour = PathId::from(vec![NodeId(0), NodeId(1), NodeId(5), NodeId(2)]);
        for &p in &refs {
            arena.get_mut(p).path = detour;
        }
        t.on_exit(&arena, refs[0], SimTime::from_us(9));
        t.on_drop(&arena, refs[1], DropCause::DeadLink);
        assert_eq!(t.get(PacketId(0)).unwrap().path, detour);
        assert_eq!(t.get(PacketId(1)).unwrap().path, detour);
    }

    /// Run the same lifecycle through either layout: exit out of order,
    /// drop a few, and hand the rest over in flight, as
    /// `Simulator::into_trace` does. Every packet reaches one hop, which
    /// only a `PerHop` trace records.
    fn lifecycle(mode: RecordMode, caps: Option<(usize, usize)>, n: u64) -> Trace {
        let (mut t, mut arena, refs) = injected(mode, caps, n);
        for (id, &p) in refs.iter().enumerate().rev() {
            let id = id as u64;
            t.on_arrive_at_hop(&arena, p, SimTime::from_us(id));
            t.on_tx_start(p, NodeId(0), SimTime::from_us(id + 1), Dur::from_us(1));
            if id % 7 == 3 {
                let cause = [DropCause::Buffer, DropCause::DeadLink][id as usize % 2];
                t.on_drop(&arena, p, cause);
            } else if id % 11 != 5 {
                arena.get_mut(p).cum_wait = Dur::from_ns(id * 3);
                t.on_exit(&arena, p, SimTime::from_us(id + 100));
            } else {
                // Left in flight; its wait so far is not recorded.
                arena.get_mut(p).cum_wait = Dur::from_ns(id);
                continue;
            }
            arena.free(p);
        }
        t.hand_over(arena.iter());
        t
    }

    #[test]
    fn streaming_stream_matches_resident_stream() {
        for mode in [RecordMode::EndToEnd, RecordMode::PerHop] {
            let resident = lifecycle(mode, None, 100);
            // Tiny caps: 100 records with 8-record chunks and a 2-chunk
            // ring force plenty of spill activity.
            let spilled = lifecycle(mode, Some((8, 2)), 100);
            assert_eq!(resident.len(), spilled.len());
            assert_eq!(resident.id_bound(), spilled.id_bound());
            assert!(spilled.spilled() && !resident.spilled());
            let a: Vec<_> = resident.stream().collect();
            let b: Vec<_> = spilled.stream().collect();
            assert_eq!(
                a, b,
                "{mode:?}: streams must be bit-identical across layouts"
            );
            // Drop causes survived the codec.
            for cause in [DropCause::Buffer, DropCause::DeadLink] {
                assert!(b.iter().any(|(_, r)| r.drop_cause == Some(cause)));
            }
            // In-flight records are streamed too, without their wait.
            let open = b.iter().filter(|(_, r)| r.exited.is_none() && !r.dropped);
            assert_eq!(open.map(|(_, r)| r.total_wait).max(), Some(Dur::ZERO));
            let hops = usize::from(mode == RecordMode::PerHop);
            assert!(b.iter().all(|(_, r)| r.hops.len() == hops), "{mode:?}");
        }
    }

    #[test]
    fn streaming_is_end_to_end_spilled_at_the_default_caps() {
        // Enough records to seal one chunk more than the default ring holds,
        // so the oldest (the highest ids: they finalize first) is on disk.
        let n = (DEFAULT_CHUNK_RECORDS * (DEFAULT_RING_CHUNKS + 1)) as u64;
        let streaming = lifecycle(RecordMode::Streaming, None, n);
        assert!(streaming.spilled());
        let end_to_end = lifecycle(RecordMode::EndToEnd, None, n);
        assert!(streaming.stream().eq(end_to_end.stream()));
    }

    #[test]
    fn chunk_boundary_record_counts_round_trip() {
        // Exactly chunk_cap, chunk_cap ± 1 records around a spill ring of 1.
        for n in [7u64, 8, 9, 16, 17] {
            let t = lifecycle(RecordMode::Streaming, Some((8, 1)), n);
            assert_eq!(t.len(), n as usize, "n={n}");
            assert_eq!(t.stream().count(), n as usize, "n={n}");
            let ids: Vec<u64> = t.stream().map(|(id, _)| id.0).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "injection-time order == id order here");
        }
    }

    #[test]
    fn empty_streaming_trace_streams_nothing() {
        let t = Trace::new(RecordMode::Streaming);
        assert!(t.is_empty());
        assert_eq!(t.stream().count(), 0);
        assert_eq!(t.id_bound(), 0);
        assert_eq!(
            t.get(PacketId(0)),
            Err(TraceAccessError::NotRecorded(PacketId(0)))
        );
    }

    #[test]
    fn streaming_get_works_before_spill() {
        let (mut t, arena, refs) = injected(RecordMode::Streaming, None, 2);
        t.on_exit(&arena, refs[0], SimTime::from_us(9));
        let exits = |t: &Trace| -> Vec<_> { t.stream().map(|(id, r)| (id.0, r.exited)).collect() };
        assert_eq!(exits(&t), [(0, Some(SimTime::from_us(9)))]);
        // Recorded at hand-over, an in-flight packet reads as open.
        t.hand_over(arena.iter().skip(1));
        assert_eq!(exits(&t), [(0, Some(SimTime::from_us(9))), (1, None)]);
        // Nothing reached the spill file, yet no id is randomly accessible.
        assert!(!t.spilled());
        assert_eq!(t.get(PacketId(0)), Err(TraceAccessError::Spilled));
    }

    #[test]
    fn streaming_get_errors_after_spill() {
        // Records finalize in reverse id order, so id 39 spilled long ago.
        let t = lifecycle(RecordMode::Streaming, Some((2, 1)), 40);
        assert!(t.spilled());
        let err = t.get(PacketId(39)).unwrap_err();
        assert_eq!(err, TraceAccessError::Spilled);
        assert_eq!(
            err.to_string(),
            "spill-capped trace has no random access; use Trace::stream()"
        );
        // Id 0 finalized last, so its record is still in memory: it
        // answers the same.
        assert_eq!(t.get(PacketId(0)), Err(TraceAccessError::Spilled));
        // An id at or beyond the id bound was never seen, spill or not.
        assert_eq!(
            t.get(PacketId(10_000)),
            Err(TraceAccessError::NotRecorded(PacketId(10_000)))
        );
        // An id outside the recorded set reports NotRecorded, not Spilled,
        // when it can be distinguished (resident layout always can).
        let r = lifecycle(RecordMode::EndToEnd, None, 4);
        assert_eq!(
            r.get(PacketId(77)),
            Err(TraceAccessError::NotRecorded(PacketId(77)))
        );
    }

    #[test]
    fn trace_equality_is_stream_equality() {
        let a = lifecycle(RecordMode::Streaming, Some((8, 2)), 60);
        let b = lifecycle(RecordMode::Streaming, Some((4, 3)), 60);
        // Different spill layout, same records: equal.
        assert_eq!(a, b);
        let c = lifecycle(RecordMode::Streaming, Some((8, 2)), 61);
        assert_ne!(a, c);
        // Mode is part of equality, matching the old derived semantics.
        let r = lifecycle(RecordMode::EndToEnd, None, 60);
        assert_ne!(a, r);
    }

    #[test]
    fn synthetic_streaming_accepts_tables() {
        let rec = |us: u64| PacketRecord {
            flow: FlowId(0),
            size: 100,
            kind: PacketKind::Data,
            path: vec![NodeId(0), NodeId(1)].into(),
            injected: SimTime::from_us(us),
            exited: Some(SimTime::from_us(us + 4)),
            total_wait: Dur::ZERO,
            dropped: false,
            drop_cause: None,
            hops: Vec::new(),
        };
        let t = Trace::synthetic(
            RecordMode::Streaming,
            [(PacketId(1), rec(10)), (PacketId(0), rec(20))],
        );
        assert_eq!((t.len(), t.id_bound()), (2, 2));
        // Ordered by injection time, not id.
        let ids: Vec<u64> = t.stream().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 0]);
    }

    #[test]
    fn record_mode_registry_lists_all() {
        assert_eq!(RecordMode::ALL.len(), 4);
        for m in RecordMode::ALL {
            assert!(!m.name().is_empty());
            assert!(!m.describe().is_empty());
        }
    }
}
