//! Deficit round robin.

use std::collections::VecDeque;

use crate::arena::{PacketArena, PacketRef};
use crate::id::FlowId;
use crate::queue::{PortCtx, QueuedPacket, Scheduler};
use crate::time::SimTime;

/// Deficit round robin \[27\]: O(1) byte-fair scheduling with per-flow
/// queues, a round-robin active list and per-flow deficit counters.
///
/// Not used in any headline experiment, but the paper's introduction calls
/// it out as one of the "complicated mechanisms to achieve fairness" a UPS
/// would subsume, so it is available both as an original-schedule
/// discipline and as an ablation reference for Figure 4.
#[derive(Debug)]
pub struct Drr {
    #[expect(
        clippy::disallowed_types,
        reason = "per-packet hot path; service order comes from the ring, and the one iteration (select_drop) uses a total (bytes, flow id) key, so map order never escapes"
    )]
    flows: std::collections::HashMap<FlowId, VecDeque<QueuedPacket>>,
    /// Round-robin ring of active flows with their deficit counters.
    ring: VecDeque<(FlowId, u64)>,
    quantum: u64,
    len: usize,
    bytes: u64,
}

impl Drr {
    /// New DRR with the given per-round byte quantum. The quantum must be
    /// at least one MTU or a large packet could stall the ring forever;
    /// the classic recommendation is exactly one MTU.
    pub fn with_quantum(quantum: u64) -> Self {
        assert!(quantum > 0, "zero quantum would never serve anything");
        Drr {
            flows: Default::default(),
            ring: VecDeque::new(),
            quantum,
            len: 0,
            bytes: 0,
        }
    }
}

impl Scheduler for Drr {
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
        self.len += 1;
        self.bytes += p.size as u64;
        let qp = QueuedPacket {
            pkt,
            rank: 0,
            enqueued_at: now,
            arrival_seq,
            size: p.size,
        };
        let q = self.flows.entry(flow).or_default();
        if q.is_empty() {
            // (Re-)activate at the back of the ring with zero deficit.
            self.ring.push_back((flow, 0));
        }
        q.push_back(qp);
    }

    fn dequeue(
        &mut self,
        _arena: &mut PacketArena,
        _now: SimTime,
        _ctx: PortCtx,
    ) -> Option<QueuedPacket> {
        if self.len == 0 {
            return None;
        }
        loop {
            #[expect(
                clippy::expect_used,
                reason = "guarded by the len() > 0 check at entry"
            )]
            let (flow, mut deficit) = self.ring.pop_front().expect("len>0 implies active flows");
            #[expect(
                clippy::expect_used,
                reason = "ring entries and flow queues are inserted and removed together"
            )]
            let q = self.flows.get_mut(&flow).expect("ring flow has a queue");
            #[expect(
                clippy::expect_used,
                reason = "flows with empty queues are dropped from the ring on pop"
            )]
            let head_size = q.front().expect("active flow is non-empty").size as u64;
            if deficit >= head_size {
                #[expect(
                    clippy::expect_used,
                    reason = "front() on this queue just returned Some"
                )]
                let qp = q.pop_front().expect("checked non-empty");
                deficit -= head_size;
                if q.is_empty() {
                    self.flows.remove(&flow);
                    // Deficit is discarded when a flow goes idle (DRR rule).
                } else {
                    self.ring.push_front((flow, deficit));
                }
                self.len -= 1;
                self.bytes -= qp.size as u64;
                return Some(qp);
            }
            // Visit over: top up and move to the back of the ring.
            deficit += self.quantum;
            self.ring.push_back((flow, deficit));
        }
    }

    /// DRR has no global urgency order.
    fn peek_rank(&self) -> Option<i128> {
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn queued_bytes(&self) -> u64 {
        self.bytes
    }

    /// Evict the newest packet of the longest (in bytes) flow queue —
    /// "longest queue drop", the buffer policy suggested for DRR in \[27\].
    fn select_drop(&mut self) -> Option<QueuedPacket> {
        let (&flow, _) = self.flows.iter().max_by_key(|(flow, q)| {
            (
                q.iter().map(|qp| qp.size as u64).sum::<u64>(),
                flow.0, // deterministic tie-break
            )
        })?;
        #[expect(
            clippy::expect_used,
            reason = "the max_by_key scan above found this flow in the map"
        )]
        let q = self.flows.get_mut(&flow).expect("just found it");
        #[expect(
            clippy::expect_used,
            reason = "victim selection only scans non-empty queues"
        )]
        let victim = q.pop_back().expect("non-empty");
        if q.is_empty() {
            self.flows.remove(&flow);
            self.ring.retain(|&(f, _)| f != flow);
        }
        self.len -= 1;
        self.bytes -= victim.size as u64;
        Some(victim)
    }

    fn name(&self) -> &'static str {
        "DRR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::{pkt, Bench};

    #[test]
    fn equal_flows_share_equally() {
        let mut b = Bench::new(Drr::with_quantum(1000));
        let mut seq = 0;
        for i in 0..10 {
            b.enqueue_at(pkt(100 + i, 1, 1000), SimTime::ZERO, seq);
            seq += 1;
            b.enqueue_at(pkt(200 + i, 2, 1000), SimTime::ZERO, seq);
            seq += 1;
        }
        let mut flows: Vec<u64> = Vec::new();
        while let Some(qp) = b.dequeue_at(SimTime::ZERO) {
            flows.push(b.arena.get(qp.pkt).flow.0);
        }
        let mut c1 = 0i32;
        let mut c2 = 0i32;
        for f in &flows {
            if *f == 1 {
                c1 += 1
            } else {
                c2 += 1
            }
            assert!((c1 - c2).abs() <= 1, "DRR imbalance {c1} vs {c2}");
        }
        assert_eq!(flows.len(), 20);
    }

    #[test]
    fn byte_fair_with_mixed_sizes() {
        // Flow 1 sends 250 B packets, flow 2 sends 1000 B packets; over a
        // long run flow 1 gets ~4x the packets.
        let mut b = Bench::new(Drr::with_quantum(1000));
        let mut seq = 0;
        for i in 0..40 {
            b.enqueue_at(pkt(100 + i, 1, 250), SimTime::ZERO, seq);
            seq += 1;
        }
        for i in 0..10 {
            b.enqueue_at(pkt(200 + i, 2, 1000), SimTime::ZERO, seq);
            seq += 1;
        }
        let mut bytes1 = 0u64;
        let mut bytes2 = 0u64;
        for _ in 0..25 {
            let qp = b.dequeue_at(SimTime::ZERO).unwrap();
            if b.arena.get(qp.pkt).flow.0 == 1 {
                bytes1 += qp.size as u64;
            } else {
                bytes2 += qp.size as u64;
            }
        }
        let diff = bytes1.abs_diff(bytes2);
        assert!(diff <= 1000, "byte split {bytes1} vs {bytes2}");
    }

    #[test]
    fn drains_completely_and_rejects_zero_quantum() {
        let mut b = Bench::new(Drr::with_quantum(9000));
        for i in 0..7 {
            b.enqueue_at(pkt(i, i % 2, 1500), SimTime::ZERO, i);
        }
        let mut n = 0;
        while b.dequeue_at(SimTime::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, 7);
        assert_eq!(b.s.len(), 0);
        assert_eq!(b.s.queued_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "zero quantum")]
    fn zero_quantum_panics() {
        let _ = Drr::with_quantum(0);
    }

    #[test]
    fn drop_from_longest_queue() {
        let mut b = Bench::new(Drr::with_quantum(1500));
        b.enqueue_at(pkt(1, 1, 1500), SimTime::ZERO, 0);
        for i in 0..5 {
            b.enqueue_at(pkt(10 + i, 2, 1500), SimTime::ZERO, 1 + i);
        }
        let victim = b.s.select_drop().unwrap();
        let vp = b.arena.get(victim.pkt);
        assert_eq!(vp.flow.0, 2);
        assert_eq!(vp.id.0, 14, "newest packet of longest flow");
    }
}
