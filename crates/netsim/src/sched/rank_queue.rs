//! The one rank-ordered queue body.
//!
//! Every discipline the paper replays is "compute a per-packet value,
//! serve the smallest" (§2): [`Priority`](super::Priority),
//! [`Sjf`](super::Sjf), [`Edf`](super::Edf), [`Lstf`](super::Lstf),
//! [`FifoPlus`](super::FifoPlus), [`Omniscient`](super::Omniscient) and
//! [`FairQueueing`](super::FairQueueing) differ in that value and in what
//! they write back when a packet is served, never in the queue. The queue
//! is [`RankQueue`]: a [`RankHeap`] on `(rank, arrival_seq)` that serves
//! the minimum and evicts the maximum. A discipline is a [`Rank`].

use crate::arena::{PacketArena, PacketRef};
use crate::packet::Packet;
use crate::queue::{PortCtx, QueuedPacket, RankHeap, Scheduler};
use crate::time::SimTime;

/// What one discipline adds to [`RankQueue`]: how it keys a packet, what
/// it rewrites when the packet is served, and whatever per-port state
/// those two need (FQ's tags, FIFO+'s mean wait).
pub trait Rank: std::fmt::Debug + Send {
    /// [`Scheduler::name`].
    fn name(&self) -> &'static str;

    /// [`Scheduler::is_preemptive`].
    fn is_preemptive(&self) -> bool {
        false
    }

    /// [`Scheduler::rank_for`]: the heap key of `p` arriving at `now`, for
    /// a discipline whose key is a function of the header, the arrival
    /// time and the link. One that leaves this `None` — its key is port
    /// state, or nothing a rank→queue mapper could read — overrides
    /// [`Self::admit`] instead and cannot be quantized.
    fn rank_for(&self, _p: &Packet, _now: SimTime, _ctx: PortCtx) -> Option<i128> {
        None
    }

    /// [`Scheduler::quantize_key`]: [`Self::rank_for`] unless that drifts
    /// with `now`.
    fn quantize_key(&self, p: &Packet, now: SimTime, ctx: PortCtx) -> Option<i128> {
        self.rank_for(p, now, ctx)
    }

    /// Key a packet entering the queue, advancing any per-port state the
    /// key is drawn from.
    fn admit(&mut self, p: &Packet, now: SimTime, ctx: PortCtx) -> i128 {
        self.rank_for(p, now, ctx)
            .expect("a discipline without rank_for overrides admit") // lint:allow(panic-path): the contract of this trait, checked by every discipline's first enqueue
    }

    /// [`Scheduler::on_serve`]: `qp` starts service at `now`.
    fn on_serve(
        &mut self,
        _qp: &QueuedPacket,
        _arena: &mut PacketArena,
        _now: SimTime,
        _ctx: PortCtx,
    ) {
    }

    /// The dequeue that just ran left the queue empty.
    fn on_idle(&mut self) {}
}

/// A port queue ordered by the rank `R` assigns: lowest `(rank,
/// arrival_seq)` served first, highest evicted when the buffer is full.
#[derive(Debug, Default)]
pub struct RankQueue<R> {
    q: RankHeap,
    by: R,
}

impl<R: Rank> RankQueue<R> {
    pub(super) fn with(by: R) -> Self {
        RankQueue {
            q: RankHeap::new(),
            by,
        }
    }
}

impl<R: Rank + Default> RankQueue<R> {
    /// New empty queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: Rank> Scheduler for RankQueue<R> {
    fn enqueue(
        &mut self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        arrival_seq: u64,
        ctx: PortCtx,
    ) {
        let p = arena.get(pkt);
        let rank = self.by.admit(p, now, ctx);
        self.q.push(QueuedPacket {
            pkt,
            rank,
            enqueued_at: now,
            arrival_seq,
            size: p.size,
        });
    }

    fn dequeue(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        ctx: PortCtx,
    ) -> Option<QueuedPacket> {
        let qp = self.q.pop_min()?;
        self.by.on_serve(&qp, arena, now, ctx);
        if self.q.is_empty() {
            self.by.on_idle();
        }
        Some(qp)
    }

    fn peek_rank(&self) -> Option<i128> {
        self.q.peek_rank()
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn queued_bytes(&self) -> u64 {
        self.q.bytes()
    }

    /// The least urgent packet, newest arrival among equals — §3's "packets
    /// with the highest slack are dropped when the buffer is full", for
    /// every rank.
    fn select_drop(&mut self) -> Option<QueuedPacket> {
        self.q.pop_max()
    }

    fn is_preemptive(&self) -> bool {
        self.by.is_preemptive()
    }

    fn rank_for(
        &self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        ctx: PortCtx,
    ) -> Option<i128> {
        self.by.rank_for(arena.get(pkt), now, ctx)
    }

    fn quantize_key(
        &self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        ctx: PortCtx,
    ) -> Option<i128> {
        self.by.quantize_key(arena.get(pkt), now, ctx)
    }

    fn on_serve(&mut self, qp: &QueuedPacket, arena: &mut PacketArena, now: SimTime, ctx: PortCtx) {
        self.by.on_serve(qp, arena, now, ctx);
    }

    fn name(&self) -> &'static str {
        self.by.name()
    }
}
