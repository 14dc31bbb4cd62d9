//! Last-in first-out.

use std::collections::VecDeque;

use crate::arena::{PacketArena, PacketRef};
use crate::queue::{PortCtx, QueuedPacket, Scheduler};
use crate::time::SimTime;

/// LIFO: the most recent arrival is served first. One of the adversarial
/// original schedules of Table 1 — it produces a large skew in the slack
/// distribution, which is what makes its replay hard (§2.3(5)).
///
/// Rank is the negated arrival sequence, so newer packets rank lower
/// (earlier); the port's `arrival_seq` is monotone, so the queue is a
/// plain stack. `select_drop` evicts the packet that would be served
/// last — the *oldest* arrival at the bottom of the stack.
#[derive(Debug, Default)]
pub struct Lifo {
    q: VecDeque<QueuedPacket>,
    bytes: u64,
}

impl Lifo {
    /// New empty LIFO stack.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Lifo {
    fn enqueue(
        &mut self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        arrival_seq: u64,
        _ctx: PortCtx,
    ) {
        debug_assert!(self.q.back().is_none_or(|b| b.arrival_seq < arrival_seq));
        let size = arena.get(pkt).size;
        self.bytes += size as u64;
        self.q.push_back(QueuedPacket {
            pkt,
            rank: -(arrival_seq as i128),
            enqueued_at: now,
            arrival_seq,
            size,
        });
    }

    fn dequeue(
        &mut self,
        _arena: &mut PacketArena,
        _now: SimTime,
        _ctx: PortCtx,
    ) -> Option<QueuedPacket> {
        let qp = self.q.pop_back()?;
        self.bytes -= qp.size as u64;
        Some(qp)
    }

    fn peek_rank(&self) -> Option<i128> {
        self.q.back().map(|qp| qp.rank)
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn queued_bytes(&self) -> u64 {
        self.bytes
    }

    fn select_drop(&mut self) -> Option<QueuedPacket> {
        let qp = self.q.pop_front()?;
        self.bytes -= qp.size as u64;
        Some(qp)
    }

    fn name(&self) -> &'static str {
        "LIFO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{pkt, service_order, Bench};

    #[test]
    fn serves_newest_first() {
        let mut s = Lifo::new();
        let order = service_order(&mut s, vec![pkt(1, 0, 100), pkt(2, 0, 100), pkt(3, 0, 100)]);
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut b = Bench::new(Lifo::new());
        b.enqueue_at(pkt(1, 0, 100), SimTime::ZERO, 0);
        b.enqueue_at(pkt(2, 0, 100), SimTime::ZERO, 1);
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(2));
        b.enqueue_at(pkt(3, 0, 100), SimTime::ZERO, 2);
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(3));
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(1));
    }

    #[test]
    fn drop_evicts_oldest() {
        let mut b = Bench::new(Lifo::new());
        for (i, p) in [pkt(1, 0, 50), pkt(2, 0, 60)].into_iter().enumerate() {
            b.enqueue_at(p, SimTime::ZERO, i as u64);
        }
        assert_eq!(b.drop_id(), Some(1));
        assert_eq!(b.s.queued_bytes(), 60);
    }
}
