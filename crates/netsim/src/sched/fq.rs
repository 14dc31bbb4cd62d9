//! Fair queueing via start-time fair queueing tags.

use std::collections::HashMap;

use super::rank_queue::{Rank, RankQueue};
use crate::arena::PacketArena;
use crate::id::FlowId;
use crate::packet::Packet;
use crate::queue::{PortCtx, QueuedPacket};
use crate::time::SimTime;

/// Packet-level fair queueing in the spirit of Demers–Keshav–Shenker [12],
/// realized with start-time fair queueing (SFQ) virtual tags: each flow's
/// packet gets a start tag `S = max(v, F_flow)` and finish tag
/// `F_flow = S + size`, where the virtual time `v` is the start tag of the
/// packet most recently put into service. Packets are served in start-tag
/// order.
///
/// SFQ allocates bandwidth in proportion to weights (all 1 here) with a
/// one-MTU-per-flow fairness bound — plenty for the paper's uses: an
/// original schedule in Table 1, a half-FQ/half-FIFO+ network, and the
/// fairness reference ("FQ") of Figure 4.
pub type FairQueueing = RankQueue<FqRank>;

/// [`FairQueueing`]'s rank — the SFQ start tag — and the per-port tags it
/// is drawn from.
#[derive(Debug, Default)]
pub struct FqRank {
    /// Last assigned finish tag per flow, in virtual byte units.
    // lint:allow(hash-container): per-packet hot path, lookup-only —
    // never iterated, so map order cannot reach the schedule.
    finish: HashMap<FlowId, i128>,
    /// Virtual time: start tag of the packet last dequeued.
    vtime: i128,
}

impl Rank for FqRank {
    fn admit(&mut self, p: &Packet, _now: SimTime, _ctx: PortCtx) -> i128 {
        let prev_finish = self.finish.get(&p.flow).copied().unwrap_or(i128::MIN);
        let start = prev_finish.max(self.vtime);
        self.finish.insert(p.flow, start + p.size as i128);
        start
    }

    fn on_serve(
        &mut self,
        qp: &QueuedPacket,
        _arena: &mut PacketArena,
        _now: SimTime,
        _ctx: PortCtx,
    ) {
        self.vtime = qp.rank;
    }

    /// Idle period: reset tags so a returning flow doesn't inherit stale
    /// credit/debt against flows that were active long ago.
    fn on_idle(&mut self) {
        self.finish.clear();
    }

    fn name(&self) -> &'static str {
        "FQ"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{pkt, Bench};

    /// Two backlogged flows with equal packet sizes must be served in
    /// strict alternation after the first round.
    #[test]
    fn alternates_between_backlogged_flows() {
        let mut b = Bench::new(FairQueueing::new());
        let mut seq = 0;
        // Flow 1 dumps 6 packets first, then flow 2 dumps 6: a FIFO would
        // serve 111111 222222, FQ must interleave once both are present.
        for i in 0..6 {
            b.enqueue_at(pkt(100 + i, 1, 1000), SimTime::ZERO, seq);
            seq += 1;
        }
        for i in 0..6 {
            b.enqueue_at(pkt(200 + i, 2, 1000), SimTime::ZERO, seq);
            seq += 1;
        }
        let mut flows: Vec<u64> = Vec::new();
        while let Some(qp) = b.dequeue_at(SimTime::ZERO) {
            flows.push(b.arena.get(qp.pkt).flow.0);
        }
        // First packet of flow 1 was already "owed"; thereafter service
        // alternates 1,2,1,2,... with at most one extra flow-1 packet up
        // front (the SFQ one-packet fairness bound).
        let ones = flows.iter().filter(|&&f| f == 1).count();
        assert_eq!(ones, 6);
        // In any prefix, the imbalance between the two flows is at most 2
        // packets (1 MTU bound + the head packet in service).
        let mut c1 = 0i32;
        let mut c2 = 0i32;
        for f in &flows {
            if *f == 1 {
                c1 += 1;
            } else {
                c2 += 1;
            }
            assert!((c1 - c2).abs() <= 2, "prefix imbalance: {c1} vs {c2}");
        }
    }

    /// A flow sending small packets gets proportionally more packets than a
    /// flow sending large ones — fairness is in bytes, not packets.
    #[test]
    fn byte_fairness_not_packet_fairness() {
        let mut b = Bench::new(FairQueueing::new());
        let mut seq = 0;
        for i in 0..20 {
            b.enqueue_at(pkt(100 + i, 1, 500), SimTime::ZERO, seq);
            seq += 1;
        }
        for i in 0..10 {
            b.enqueue_at(pkt(200 + i, 2, 1000), SimTime::ZERO, seq);
            seq += 1;
        }
        // Serve 15 packets: byte-fair split is 10 small (5000 B) vs 5
        // large (5000 B).
        let mut small = 0;
        let mut big = 0;
        for _ in 0..15 {
            let qp = b.dequeue_at(SimTime::ZERO).unwrap();
            if b.arena.get(qp.pkt).flow.0 == 1 {
                small += 1;
            } else {
                big += 1;
            }
        }
        assert!(
            (small - 10i32).abs() <= 1 && (big - 5i32).abs() <= 1,
            "got {small} small / {big} big"
        );
    }

    /// A newly active flow must not be starved by a long-backlogged one,
    /// and must not get credit for its idle past either.
    #[test]
    fn late_flow_joins_at_current_virtual_time() {
        let mut b = Bench::new(FairQueueing::new());
        for i in 0..50 {
            b.enqueue_at(pkt(i, 1, 1000), SimTime::ZERO, i);
        }
        for _ in 0..10 {
            b.dequeue_at(SimTime::ZERO);
        }
        b.enqueue_at(pkt(999, 2, 1000), SimTime::ZERO, 50);
        // The new flow's packet must be served within two dequeues.
        let qa = b.dequeue_at(SimTime::ZERO).unwrap();
        let a = b.arena.get(qa.pkt).flow.0;
        let qb = b.dequeue_at(SimTime::ZERO).unwrap();
        let bf = b.arena.get(qb.pkt).flow.0;
        assert!(a == 2 || bf == 2, "late flow served promptly, got {a},{bf}");
    }
}
