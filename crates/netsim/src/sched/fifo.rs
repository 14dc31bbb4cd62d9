//! First-in first-out with drop-tail.

use std::collections::VecDeque;

use crate::arena::{PacketArena, PacketRef};
use crate::queue::{PortCtx, QueuedPacket, Scheduler};
use crate::time::SimTime;

/// Classic FIFO. All packets share rank 0, so service order is the
/// deterministic arrival order — which the port's monotone `arrival_seq`
/// already is, so the queue is a plain deque; `select_drop` evicts the
/// newest arrival, i.e. drop-tail.
#[derive(Debug, Default)]
pub struct Fifo {
    q: VecDeque<QueuedPacket>,
    bytes: u64,
}

impl Fifo {
    /// New empty FIFO queue.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Fifo {
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
            rank: 0,
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
        let qp = self.q.pop_front()?;
        self.bytes -= qp.size as u64;
        Some(qp)
    }

    fn peek_rank(&self) -> Option<i128> {
        self.q.front().map(|qp| qp.rank)
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn queued_bytes(&self) -> u64 {
        self.bytes
    }

    fn select_drop(&mut self) -> Option<QueuedPacket> {
        let qp = self.q.pop_back()?;
        self.bytes -= qp.size as u64;
        Some(qp)
    }

    fn name(&self) -> &'static str {
        "FIFO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{pkt, service_order, Bench};

    #[test]
    fn serves_in_arrival_order() {
        let mut s = Fifo::new();
        let order = service_order(
            &mut s,
            vec![pkt(10, 0, 100), pkt(11, 0, 100), pkt(12, 0, 100)],
        );
        assert_eq!(order, vec![10, 11, 12]);
    }

    #[test]
    fn drop_tail_evicts_newest() {
        let mut b = Bench::new(Fifo::new());
        for (i, p) in [pkt(1, 0, 100), pkt(2, 0, 100), pkt(3, 0, 100)]
            .into_iter()
            .enumerate()
        {
            b.enqueue_at(p, SimTime::from_us(i as u64), i as u64);
        }
        assert_eq!(b.drop_id().unwrap(), 3);
        assert_eq!(b.s.len(), 2);
        assert_eq!(b.s.queued_bytes(), 200);
    }

    #[test]
    fn empty_behaviour() {
        let mut b = Bench::new(Fifo::new());
        assert!(b.dequeue_at(SimTime::ZERO).is_none());
        assert!(b.s.select_drop().is_none());
        assert_eq!(b.s.peek_rank(), None);
        assert!(!b.s.is_preemptive());
    }
}
