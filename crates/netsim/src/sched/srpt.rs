//! Shortest remaining processing time, with starvation prevention.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::arena::{PacketArena, PacketRef};
use crate::id::FlowId;
use crate::queue::{PortCtx, QueuedPacket, Scheduler};
use crate::time::SimTime;

/// SRPT as used for Figure 2's benchmark, with the starvation-prevention
/// rule of pFabric \[3\] quoted in the paper's footnote 8: *"the router
/// always schedules the earliest arriving packet of the flow which contains
/// the highest priority packet"*.
///
/// Rank is `header.remaining` — the bytes the flow still had outstanding
/// when the source emitted the packet — so a draining flow's priority
/// rises over time. Packets are kept in per-flow FIFO order; the flow with
/// the minimum rank anywhere in its queue is selected, then its *oldest*
/// packet is served (avoiding in-flow reordering and starvation of a
/// flow's early packets).
#[derive(Debug, Default)]
pub struct Srpt {
    // lint:allow(hash-container): per-packet hot path, lookup-only —
    // selection order comes from the BTreeSet below, never from the map.
    flows: HashMap<FlowId, FlowQueue>,
    /// Flows ordered by (min rank over queued packets, flow id).
    order: BTreeSet<(i128, FlowId)>,
    len: usize,
    bytes: u64,
}

#[derive(Debug)]
struct FlowQueue {
    q: VecDeque<QueuedPacket>,
    min_rank: i128,
}

impl FlowQueue {
    fn recompute_min(&mut self) {
        self.min_rank = self.q.iter().map(|qp| qp.rank).min().unwrap_or(i128::MAX);
    }
}

impl Srpt {
    /// New empty SRPT queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn detach(&mut self, flow: FlowId) -> Option<FlowQueue> {
        let fq = self.flows.remove(&flow)?;
        self.order.remove(&(fq.min_rank, flow));
        Some(fq)
    }

    fn attach(&mut self, flow: FlowId, fq: FlowQueue) {
        if !fq.q.is_empty() {
            self.order.insert((fq.min_rank, flow));
            self.flows.insert(flow, fq);
        }
    }

    fn account_out(&mut self, qp: &QueuedPacket) {
        self.len -= 1;
        self.bytes -= qp.size as u64;
    }
}

impl Scheduler for Srpt {
    fn enqueue(
        &mut self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        arrival_seq: u64,
        _ctx: PortCtx,
    ) {
        let p = arena.get(pkt);
        let flow = p.flow;
        let rank = p.header.remaining as i128;
        self.len += 1;
        self.bytes += p.size as u64;
        let qp = QueuedPacket {
            pkt,
            rank,
            enqueued_at: now,
            arrival_seq,
            size: p.size,
        };
        let mut fq = self.detach(flow).unwrap_or(FlowQueue {
            q: VecDeque::new(),
            min_rank: i128::MAX,
        });
        fq.min_rank = fq.min_rank.min(rank);
        fq.q.push_back(qp);
        self.attach(flow, fq);
    }

    fn dequeue(
        &mut self,
        _arena: &mut PacketArena,
        _now: SimTime,
        _ctx: PortCtx,
    ) -> Option<QueuedPacket> {
        let &(_, flow) = self.order.iter().next()?;
        let mut fq = self.detach(flow).expect("order and flows in sync"); // lint:allow(panic-path): the order set and the flow map are updated together
        let qp = fq.q.pop_front().expect("flows in order set are non-empty"); // lint:allow(panic-path): flows in the order set are non-empty; empties are detached
        if qp.rank <= fq.min_rank {
            fq.recompute_min();
        }
        self.attach(flow, fq);
        self.account_out(&qp);
        Some(qp)
    }

    fn peek_rank(&self) -> Option<i128> {
        self.order.iter().next().map(|&(r, _)| r)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn queued_bytes(&self) -> u64 {
        self.bytes
    }

    /// Evict the globally least-urgent packet: the newest arrival of the
    /// flow with the largest remaining size (the pFabric drop rule).
    fn select_drop(&mut self) -> Option<QueuedPacket> {
        let &(_, flow) = self.order.iter().next_back()?;
        let mut fq = self.detach(flow).expect("order and flows in sync"); // lint:allow(panic-path): the order set and the flow map are updated together
                                                                          // Within the victim flow, drop the packet with the largest rank;
                                                                          // newest arrival among ties.
        let (idx, _) =
            fq.q.iter()
                .enumerate()
                .max_by_key(|(_, qp)| (qp.rank, qp.arrival_seq))
                .expect("non-empty"); // lint:allow(panic-path): max_by_key over a non-empty queue returns Some
        let victim = fq.q.remove(idx).expect("index in range"); // lint:allow(panic-path): idx came from enumerate over this same queue
        fq.recompute_min();
        self.attach(flow, fq);
        self.account_out(&victim);
        Some(victim)
    }

    fn name(&self) -> &'static str {
        "SRPT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Header, Packet};
    use crate::sched::testutil::{pkt_with, service_order, Bench};

    fn remaining(id: u64, flow: u64, rem: u64) -> Packet {
        pkt_with(
            id,
            flow,
            100,
            Header {
                flow_size: rem,
                remaining: rem,
                ..Header::default()
            },
        )
    }

    #[test]
    fn picks_flow_with_least_remaining() {
        let mut s = Srpt::new();
        let order = service_order(
            &mut s,
            vec![
                remaining(1, 1, 10_000),
                remaining(2, 2, 500),
                remaining(3, 3, 2_000),
            ],
        );
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn starvation_prevention_serves_flow_head_first() {
        // Flow 1 queues three packets with decreasing remaining; flow 2 has
        // one packet in between. The *earliest* packet of the
        // highest-priority flow must go first even though a later packet of
        // that flow carries the smaller rank.
        let mut b = Bench::new(Srpt::new());
        b.enqueue_at(remaining(1, 1, 3_000), SimTime::ZERO, 0);
        b.enqueue_at(remaining(2, 2, 2_500), SimTime::ZERO, 1);
        b.enqueue_at(remaining(3, 1, 2_000), SimTime::ZERO, 2);
        b.enqueue_at(remaining(4, 1, 1_000), SimTime::ZERO, 3);
        // Flow 1 min remaining = 1000 < flow 2's 2500, so flow 1 wins and
        // its head (packet 1) is served first, then 3, then 4, then flow 2.
        assert_eq!(b.drain_ids(SimTime::ZERO), vec![1, 3, 4, 2]);
    }

    #[test]
    fn accounting_stays_consistent() {
        let mut b = Bench::new(Srpt::new());
        for i in 0..10 {
            b.enqueue_at(remaining(i, i % 3, 1000 - i), SimTime::ZERO, i);
        }
        assert_eq!(b.s.len(), 10);
        assert_eq!(b.s.queued_bytes(), 1000);
        let mut n = 0;
        while b.dequeue_at(SimTime::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(b.s.len(), 0);
        assert_eq!(b.s.queued_bytes(), 0);
        assert!(b.s.peek_rank().is_none());
    }

    #[test]
    fn drop_takes_largest_remaining_flow() {
        let mut b = Bench::new(Srpt::new());
        b.enqueue_at(remaining(1, 1, 100), SimTime::ZERO, 0);
        b.enqueue_at(remaining(2, 2, 90_000), SimTime::ZERO, 1);
        b.enqueue_at(remaining(3, 2, 89_000), SimTime::ZERO, 2);
        assert_eq!(b.drop_id(), Some(2), "largest-rank packet of worst flow");
        assert_eq!(b.s.len(), 2);
        // Flow 2 still serviceable afterwards.
        assert_eq!(b.drain_ids(SimTime::ZERO), vec![1, 3]);
    }
}
