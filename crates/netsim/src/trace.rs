//! Schedule recording.
//!
//! A *schedule* in the paper is the set `{(path(p), i(p), o(p))}` (§2.1).
//! The recorder captures exactly that for every packet, optionally enriched
//! with per-hop detail (`o(p, α)` and per-hop waits) which the omniscient
//! replay of Appendix B and the congestion-point analysis need.
//!
//! Two storage layouts back the recorder:
//!
//! * **Resident** (`Off`/`EndToEnd`/`PerHop`): a dense id-indexed `Vec`,
//!   with O(1) random access via [`Trace::get`] — memory `O(packets)`.
//! * **Streaming** ([`RecordMode::Streaming`]): in-flight records live in a
//!   small open map; each finalized record (delivered or dropped) is
//!   appended to a chunked log whose oldest chunks spill to a temp file
//!   (see `crate::spill`) — memory `O(in-flight + ring)`, independent of
//!   how many packets the run injects.
//!
//! Both layouts expose [`Trace::stream`], which yields every record in
//! `(i(p), id)` order. That ordering is the pipeline's canonical merge key:
//! replay preserves each packet's id and injection time, so two traces of
//! the same workload can be compared with a bounded-memory merge-join, and
//! the stream doubles as an injection-ordered packet source.

use std::collections::{BinaryHeap, HashMap};

use crate::id::{FlowId, NodeId, PacketId};
use crate::packet::{Packet, PacketKind};
use crate::spill::{ChunkLog, LogCursor, DEFAULT_CHUNK_RECORDS, DEFAULT_RING_CHUNKS};
use crate::time::{Dur, SimTime};

/// How much detail to record. Per-hop records cost memory proportional to
/// packets × hops, so large workload runs use `EndToEnd`; million-packet
/// runs use `Streaming`, which bounds memory regardless of run length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Record nothing (pure throughput runs).
    Off,
    /// `i(p)`, `o(p)`, total queueing and drop status per packet.
    EndToEnd,
    /// Additionally every hop's arrival, first transmission start
    /// (`o(p, α)`) and accumulated waiting.
    PerHop,
    /// `EndToEnd` detail in bounded memory: finalized records move through
    /// a chunked spill log and are read back only via [`Trace::stream`].
    /// Random access ([`Trace::get`]/[`Trace::iter`]) is refused once
    /// records have spilled to disk.
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
            RecordMode::EndToEnd => "i(p), o(p), total wait per packet; resident, random access",
            RecordMode::PerHop => "end-to-end plus per-hop o(p, α) detail (omniscient replay)",
            RecordMode::Streaming => {
                "end-to-end detail in bounded memory; chunked spill log, stream access only"
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
    /// The **as-executed** node path. Starts as the routed path at
    /// injection; updated whenever the dynamics layer reroutes the packet
    /// at a dead link, so a delivered packet's record always names the
    /// links it actually traversed (what a churn-robust replay needs).
    pub path: std::sync::Arc<[NodeId]>,
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

/// In-flight map + finalized-record log backing a streaming trace.
#[derive(Debug)]
struct StreamStore {
    /// Records injected but neither exited nor dropped yet, by raw id.
    /// Bounded by peak in-flight packets, like the packet arena.
    // lint:allow(hash-container): per-packet hot path; the only
    // iteration (iter_sorted) collects and sorts by (injected, id)
    // before any record escapes, so map order never reaches a trace.
    open: HashMap<u64, PacketRecord>,
    log: ChunkLog,
    id_bound: u64,
}

#[derive(Debug)]
enum Store {
    Resident(Vec<Option<PacketRecord>>),
    Streaming(Box<StreamStore>),
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

    /// As [`Trace::new`], with explicit streaming spill capacities
    /// `(records per chunk, sealed chunks kept in memory)` — tests use
    /// tiny caps to force chunk-boundary and spill behaviour on small
    /// runs. Ignored for resident modes.
    pub(crate) fn with_spill_caps(mode: RecordMode, caps: Option<(usize, usize)>) -> Self {
        let store = match mode {
            RecordMode::Streaming => {
                let (chunk, ring) = caps.unwrap_or((DEFAULT_CHUNK_RECORDS, DEFAULT_RING_CHUNKS));
                Store::Streaming(Box::new(StreamStore {
                    // lint:allow(hash-container): see the field above.
                    open: HashMap::new(),
                    log: ChunkLog::new(chunk, ring),
                    id_bound: 0,
                }))
            }
            _ => Store::Resident(Vec::new()),
        };
        Trace { mode, store }
    }

    /// Build a trace from externally-known records — used by the appendix
    /// counterexamples, whose original schedules are *given* as tables
    /// rather than produced by a scheduler. Packet ids must be unique.
    pub fn synthetic(
        mode: RecordMode,
        records: impl IntoIterator<Item = (PacketId, PacketRecord)>,
    ) -> Self {
        let mut t = Trace::new(mode);
        match &mut t.store {
            Store::Resident(store) => {
                for (id, rec) in records {
                    let slot = resident_slot(store, id);
                    assert!(slot.is_none(), "duplicate synthetic record for {id}");
                    *slot = Some(rec);
                }
            }
            Store::Streaming(s) => {
                let mut seen = std::collections::BTreeSet::new();
                for (id, rec) in records {
                    assert!(seen.insert(id.0), "duplicate synthetic record for {id}");
                    s.id_bound = s.id_bound.max(id.0 + 1);
                    if rec.exited.is_some() || rec.dropped {
                        s.log.push(id.0, rec);
                    } else {
                        s.open.insert(id.0, rec);
                    }
                }
            }
        }
        t
    }

    /// The recording mode this trace was captured with.
    pub fn mode(&self) -> RecordMode {
        self.mode
    }

    pub(crate) fn on_inject(&mut self, p: &Packet, now: SimTime) {
        if self.mode == RecordMode::Off {
            return;
        }
        let rec = PacketRecord {
            flow: p.flow,
            size: p.size,
            kind: p.kind,
            path: p.path.clone(),
            injected: now,
            exited: None,
            total_wait: Dur::ZERO,
            dropped: false,
            drop_cause: None,
            hops: Vec::new(),
        };
        match &mut self.store {
            Store::Resident(store) => *resident_slot(store, p.id) = Some(rec),
            Store::Streaming(s) => {
                s.id_bound = s.id_bound.max(p.id.0 + 1);
                let prev = s.open.insert(p.id.0, rec);
                debug_assert!(prev.is_none(), "duplicate inject for {}", p.id);
            }
        }
    }

    /// The dynamics layer spliced a new route onto `p` at its current
    /// hop; keep the record's path the as-executed one.
    pub(crate) fn on_reroute(&mut self, p: &Packet) {
        if self.mode == RecordMode::Off {
            return;
        }
        let rec = match &mut self.store {
            Store::Resident(store) => store.get_mut(p.id.index()).and_then(|r| r.as_mut()),
            Store::Streaming(s) => s.open.get_mut(&p.id.0),
        };
        if let Some(r) = rec {
            r.path = p.path.clone();
        }
    }

    pub(crate) fn on_arrive_at_hop(&mut self, p: &Packet, node: NodeId, now: SimTime) {
        if self.mode != RecordMode::PerHop {
            return;
        }
        let Store::Resident(store) = &mut self.store else {
            unreachable!("PerHop is always resident");
        };
        if let Some(r) = store.get_mut(p.id.index()).and_then(|r| r.as_mut()) {
            r.hops.push(HopRecord {
                node,
                arrived: now,
                tx_start: SimTime::MAX, // patched on first tx start
                waited: Dur::ZERO,
            });
        }
    }

    pub(crate) fn on_tx_start(&mut self, p: &Packet, node: NodeId, now: SimTime, waited: Dur) {
        if self.mode != RecordMode::PerHop {
            return;
        }
        let Store::Resident(store) = &mut self.store else {
            unreachable!("PerHop is always resident");
        };
        if let Some(r) = store.get_mut(p.id.index()).and_then(|r| r.as_mut()) {
            match r.hops.last_mut() {
                Some(h) if h.node == node => {
                    if h.tx_start == SimTime::MAX {
                        h.tx_start = now;
                    }
                    h.waited += waited;
                }
                _ => debug_assert!(false, "tx start without matching hop arrival"),
            }
        }
    }

    pub(crate) fn on_exit(&mut self, p: &Packet, now: SimTime) {
        if self.mode == RecordMode::Off {
            return;
        }
        match &mut self.store {
            Store::Resident(store) => {
                if let Some(r) = store.get_mut(p.id.index()).and_then(|r| r.as_mut()) {
                    r.exited = Some(now);
                    r.total_wait = p.cum_wait;
                }
            }
            Store::Streaming(s) => {
                if let Some(mut r) = s.open.remove(&p.id.0) {
                    r.exited = Some(now);
                    r.total_wait = p.cum_wait;
                    s.log.push(p.id.0, r);
                } else {
                    debug_assert!(false, "exit without inject for {}", p.id);
                }
            }
        }
    }

    pub(crate) fn on_drop(&mut self, p: &Packet, cause: DropCause) {
        if self.mode == RecordMode::Off {
            return;
        }
        match &mut self.store {
            Store::Resident(store) => {
                if let Some(r) = store.get_mut(p.id.index()).and_then(|r| r.as_mut()) {
                    r.dropped = true;
                    r.drop_cause = Some(cause);
                }
            }
            Store::Streaming(s) => {
                if let Some(mut r) = s.open.remove(&p.id.0) {
                    r.dropped = true;
                    r.drop_cause = Some(cause);
                    s.log.push(p.id.0, r);
                } else {
                    debug_assert!(false, "drop without inject for {}", p.id);
                }
            }
        }
    }

    /// The record for a packet id.
    ///
    /// On a streaming trace whose records spilled to disk, an id outside
    /// the memory-resident set is [`TraceAccessError::Spilled`] — random
    /// access would mean re-reading the spill file per lookup; use
    /// [`Trace::stream`]. An id the trace simply never saw is
    /// [`TraceAccessError::NotRecorded`].
    pub fn get(&self, id: PacketId) -> Result<&PacketRecord, TraceAccessError> {
        match &self.store {
            Store::Resident(store) => store
                .get(id.index())
                .and_then(|r| r.as_ref())
                .ok_or(TraceAccessError::NotRecorded(id)),
            Store::Streaming(s) => {
                if let Some(r) = s.open.get(&id.0).or_else(|| s.log.find(id.0)) {
                    return Ok(r);
                }
                if s.log.has_spilled() {
                    Err(TraceAccessError::Spilled)
                } else {
                    Err(TraceAccessError::NotRecorded(id))
                }
            }
        }
    }

    /// All recorded packets in id order. Resident traces only — a
    /// streaming trace (whose records spill to disk) is
    /// [`TraceAccessError::Spilled`] and is read with [`Trace::stream`].
    pub fn iter(
        &self,
    ) -> Result<impl Iterator<Item = (PacketId, &PacketRecord)>, TraceAccessError> {
        let Store::Resident(store) = &self.store else {
            return Err(TraceAccessError::Spilled);
        };
        Ok(store
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (PacketId(i as u64), r))))
    }

    /// Packets that fully exited the network (excludes drops and in-flight).
    /// Resident traces only, like [`Trace::iter`].
    pub fn delivered(
        &self,
    ) -> Result<impl Iterator<Item = (PacketId, &PacketRecord)>, TraceAccessError> {
        Ok(self.iter()?.filter(|(_, r)| r.exited.is_some()))
    }

    /// Every record (delivered, dropped and in-flight) in `(i(p), id)`
    /// order, decoding spilled chunks on the fly. This is the only way to
    /// read a spilled streaming trace, and works identically on resident
    /// traces — the differential tests rely on both layouts producing the
    /// same stream. Records are owned (decoded or cloned); memory is
    /// bounded by the chunk count, not the record count.
    pub fn stream(&self) -> RecordStream<'_> {
        match &self.store {
            Store::Resident(store) => {
                let mut order: Vec<usize> =
                    (0..store.len()).filter(|&i| store[i].is_some()).collect();
                order.sort_unstable_by_key(|&i| (store[i].as_ref().expect("filtered").injected, i)); // lint:allow(panic-path): order only holds indices of retained (Some) records
                RecordStream {
                    inner: StreamInner::Resident {
                        records: store,
                        order: order.into_iter(),
                    },
                }
            }
            Store::Streaming(s) => {
                let mut sources = s.log.cursors();
                let mut open: Vec<(u64, PacketRecord)> =
                    s.open.iter().map(|(id, r)| (*id, r.clone())).collect();
                open.sort_unstable_by_key(|(id, r)| (r.injected, *id));
                sources.push(LogCursor::Owned(open.into_iter()));
                let mut heap = BinaryHeap::with_capacity(sources.len());
                for (src, cur) in sources.iter_mut().enumerate() {
                    if let Some((id, rec)) = cur.next() {
                        heap.push(std::cmp::Reverse(MergeHead {
                            key: (rec.injected.as_ps(), id),
                            src,
                            rec,
                        }));
                    }
                }
                RecordStream {
                    inner: StreamInner::Merge { sources, heap },
                }
            }
        }
    }

    /// Count of recorded packets.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Resident(store) => store.iter().filter(|r| r.is_some()).count(),
            Store::Streaming(s) => s.open.len() + s.log.len() as usize,
        }
    }

    /// Exclusive upper bound on recorded packet id indexes — the length a
    /// dense `Vec` keyed by [`PacketId`] needs to cover every record.
    pub fn id_bound(&self) -> usize {
        match &self.store {
            Store::Resident(store) => store.len(),
            Store::Streaming(s) => s.id_bound as usize,
        }
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
    /// The trace is a streaming trace whose records spill to disk —
    /// id-order random access would re-read the spill file per lookup.
    /// Use [`Trace::stream`].
    Spilled,
}

impl std::fmt::Display for TraceAccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceAccessError::NotRecorded(id) => write!(f, "no trace record for {id}"),
            TraceAccessError::Spilled => f.write_str("trace spilled; use Trace::stream()"),
        }
    }
}

impl std::error::Error for TraceAccessError {}

/// One source's head record inside the k-way merge, ordered by
/// `(injected ps, id)` with the source index as a deterministic tie-break
/// (ids are unique, so the tie-break never actually decides).
struct MergeHead {
    key: (u64, u64),
    src: usize,
    rec: PacketRecord,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.src) == (other.key, other.src)
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.src).cmp(&(other.key, other.src))
    }
}

enum StreamInner<'a> {
    Resident {
        records: &'a [Option<PacketRecord>],
        order: std::vec::IntoIter<usize>,
    },
    Merge {
        sources: Vec<LogCursor<'a>>,
        heap: BinaryHeap<std::cmp::Reverse<MergeHead>>,
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
                Some((
                    PacketId(i as u64),
                    records[i].as_ref().expect("ordered index").clone(), // lint:allow(panic-path): order only holds indices of retained (Some) records
                ))
            }
            StreamInner::Merge { sources, heap } => {
                let std::cmp::Reverse(head) = heap.pop()?;
                if let Some((id, rec)) = sources[head.src].next() {
                    heap.push(std::cmp::Reverse(MergeHead {
                        key: (rec.injected.as_ps(), id),
                        src: head.src,
                        rec,
                    }));
                }
                Some((PacketId(head.key.1), head.rec))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::FlowId;
    use crate::packet::PacketBuilder;
    use std::sync::Arc;

    fn pkt(id: u64) -> Packet {
        let path: Arc<[NodeId]> = vec![NodeId(0), NodeId(1), NodeId(2)].into();
        PacketBuilder::new(PacketId(id), FlowId(0), 1500, path, SimTime::ZERO).build()
    }

    fn pkt_at(id: u64, us: u64) -> Packet {
        let path: Arc<[NodeId]> = vec![NodeId(0), NodeId(1), NodeId(2)].into();
        PacketBuilder::new(PacketId(id), FlowId(0), 1500, path, SimTime::from_us(us)).build()
    }

    #[test]
    fn end_to_end_lifecycle() {
        let mut t = Trace::new(RecordMode::EndToEnd);
        let mut p = pkt(5);
        t.on_inject(&p, SimTime::from_us(1));
        assert_eq!(t.get(PacketId(5)).unwrap().exited, None);
        p.cum_wait = Dur::from_us(7);
        t.on_exit(&p, SimTime::from_us(30));
        let r = t.get(PacketId(5)).unwrap();
        assert_eq!(r.exited, Some(SimTime::from_us(30)));
        assert_eq!(r.delay(), Some(Dur::from_us(29)));
        assert_eq!(r.total_wait, Dur::from_us(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.delivered().expect("resident trace").count(), 1);
    }

    #[test]
    fn per_hop_records_congestion_points() {
        let mut t = Trace::new(RecordMode::PerHop);
        let p = pkt(0);
        t.on_inject(&p, SimTime::ZERO);
        t.on_arrive_at_hop(&p, NodeId(0), SimTime::ZERO);
        t.on_tx_start(&p, NodeId(0), SimTime::from_us(4), Dur::from_us(4));
        t.on_arrive_at_hop(&p, NodeId(1), SimTime::from_us(20));
        t.on_tx_start(&p, NodeId(1), SimTime::from_us(20), Dur::ZERO);
        t.on_exit(&p, SimTime::from_us(40));
        let r = t.get(PacketId(0)).unwrap();
        assert_eq!(r.congestion_points(), 1);
        assert_eq!(
            r.hop_tx_starts().collect::<Vec<_>>(),
            vec![SimTime::from_us(4), SimTime::from_us(20)]
        );
    }

    #[test]
    fn per_hop_wait_accumulates_over_preemption_segments() {
        let mut t = Trace::new(RecordMode::PerHop);
        let p = pkt(0);
        t.on_inject(&p, SimTime::ZERO);
        t.on_arrive_at_hop(&p, NodeId(0), SimTime::ZERO);
        t.on_tx_start(&p, NodeId(0), SimTime::from_us(2), Dur::from_us(2));
        // Preempted, resumed later with 3us more waiting.
        t.on_tx_start(&p, NodeId(0), SimTime::from_us(9), Dur::from_us(3));
        let r = t.get(PacketId(0)).unwrap();
        assert_eq!(r.hops[0].tx_start, SimTime::from_us(2), "first start kept");
        assert_eq!(r.hops[0].waited, Dur::from_us(5));
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut t = Trace::new(RecordMode::Off);
        let p = pkt(3);
        t.on_inject(&p, SimTime::ZERO);
        t.on_exit(&p, SimTime::from_us(1));
        assert!(t.is_empty());
        assert_eq!(
            t.get(PacketId(3)),
            Err(TraceAccessError::NotRecorded(PacketId(3)))
        );
    }

    #[test]
    fn drops_are_marked_with_cause() {
        let mut t = Trace::new(RecordMode::EndToEnd);
        let p = pkt(1);
        t.on_inject(&p, SimTime::ZERO);
        t.on_drop(&p, DropCause::DeadLink);
        let r = t.get(PacketId(1)).unwrap();
        assert!(r.dropped);
        assert_eq!(r.drop_cause, Some(DropCause::DeadLink));
        assert_eq!(r.exited, None);
        assert_eq!(t.delivered().expect("resident trace").count(), 0);
    }

    #[test]
    fn reroute_updates_the_recorded_path() {
        let mut t = Trace::new(RecordMode::EndToEnd);
        let mut p = pkt(0);
        t.on_inject(&p, SimTime::ZERO);
        // The dynamics layer splices a detour in at hop 1.
        p.path = vec![NodeId(0), NodeId(1), NodeId(5), NodeId(2)].into();
        t.on_reroute(&p);
        assert_eq!(&*t.get(PacketId(0)).unwrap().path, &*p.path);
    }

    /// Run the same lifecycle through both layouts and compare streams.
    fn lifecycle(mode: RecordMode, caps: Option<(usize, usize)>, n: u64) -> Trace {
        let mut t = Trace::with_spill_caps(mode, caps);
        // Inject in injection-time order, exit out of order, drop a few.
        for id in 0..n {
            t.on_inject(&pkt_at(id, id), SimTime::from_us(id));
        }
        for id in (0..n).rev() {
            let mut p = pkt_at(id, id);
            if id % 7 == 3 {
                t.on_drop(
                    &p,
                    if id % 2 == 0 {
                        DropCause::Buffer
                    } else {
                        DropCause::DeadLink
                    },
                );
            } else if id % 11 != 5 {
                p.cum_wait = Dur::from_ns(id * 3);
                t.on_exit(&p, SimTime::from_us(id + 100));
            } // else: left in flight
        }
        t
    }

    #[test]
    fn streaming_stream_matches_resident_stream() {
        let resident = lifecycle(RecordMode::EndToEnd, None, 100);
        // Tiny caps: 100 records with 8-record chunks and a 2-chunk ring
        // force plenty of spill activity.
        let streaming = lifecycle(RecordMode::Streaming, Some((8, 2)), 100);
        assert_eq!(resident.len(), streaming.len());
        assert_eq!(resident.id_bound(), streaming.id_bound());
        let a: Vec<_> = resident.stream().collect();
        let b: Vec<_> = streaming.stream().collect();
        assert_eq!(a, b, "streams must be bit-identical across layouts");
        // Drop causes survived the codec.
        assert!(b
            .iter()
            .any(|(_, r)| r.drop_cause == Some(DropCause::Buffer)));
        assert!(b
            .iter()
            .any(|(_, r)| r.drop_cause == Some(DropCause::DeadLink)));
        // In-flight records are streamed too.
        assert!(b.iter().any(|(_, r)| r.exited.is_none() && !r.dropped));
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
        let mut t = Trace::new(RecordMode::Streaming);
        let p = pkt(4);
        t.on_inject(&p, SimTime::ZERO);
        assert_eq!(t.get(PacketId(4)).unwrap().exited, None);
        t.on_exit(&p, SimTime::from_us(9));
        assert_eq!(
            t.get(PacketId(4)).unwrap().exited,
            Some(SimTime::from_us(9))
        );
    }

    #[test]
    fn streaming_get_errors_after_spill() {
        // Records finalize in reverse id order, so id 39 spilled long ago.
        let t = lifecycle(RecordMode::Streaming, Some((2, 1)), 40);
        let err = t.get(PacketId(39)).unwrap_err();
        assert_eq!(err, TraceAccessError::Spilled);
        assert_eq!(err.to_string(), "trace spilled; use Trace::stream()");
        // An id outside the recorded set reports NotRecorded, not Spilled,
        // when it can be distinguished (resident layout always can).
        let r = lifecycle(RecordMode::EndToEnd, None, 4);
        assert_eq!(
            r.get(PacketId(77)),
            Err(TraceAccessError::NotRecorded(PacketId(77)))
        );
    }

    #[test]
    fn streaming_iter_errors_with_spilled() {
        let t = Trace::new(RecordMode::Streaming);
        assert!(t.iter().is_err());
        assert_eq!(
            t.delivered().err().expect("spilled trace cannot iterate"),
            TraceAccessError::Spilled
        );
        assert_eq!(
            t.iter().err().map(|e| e.to_string()).unwrap_or_default(),
            "trace spilled; use Trace::stream()"
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
        assert_eq!(t.len(), 2);
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
