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
/// those two need (FQ's tags, FIFO+'s mean wait). [`Quantized`](super::Quantized)
/// drives LSTF's rank through the same two hooks over its K FIFO queues.
pub trait Rank: std::fmt::Debug + Send {
    /// [`Scheduler::name`].
    fn name(&self) -> &'static str;

    /// [`Scheduler::is_preemptive`].
    fn is_preemptive(&self) -> bool {
        false
    }

    /// Key a packet entering the queue at `now`, advancing any per-port
    /// state the key is drawn from.
    fn admit(&mut self, p: &Packet, now: SimTime, ctx: PortCtx) -> i128;

    /// `qp` starts service at `now`: the dequeue-time header rewrite
    /// (LSTF's slack spend, FIFO+'s excess) and any per-port state that
    /// follows service (FQ's virtual time).
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

    fn name(&self) -> &'static str {
        self.by.name()
    }
}
