//! Static priority scheduling.

use super::rank_queue::{Rank, RankQueue};
use crate::packet::Packet;
use crate::queue::PortCtx;
use crate::time::SimTime;

/// Simple (static) priority scheduling: the ingress assigns `header.prio`
/// and every router serves the smallest value first, FIFO within a
/// priority level.
///
/// This is the paper's natural-but-insufficient replay candidate: it
/// replays any viable schedule with ≤ 1 congestion point per packet but
/// fails at 2 (App. F's priority cycle), and the intuitive assignment
/// `prio = o(p)` replays far worse than LSTF empirically (§2.3(7)).
pub type Priority = RankQueue<PriorityRank>;

/// [`Priority`]'s rank: `header.prio`.
#[derive(Debug, Default)]
pub struct PriorityRank {
    preemptive: bool,
}

impl Priority {
    /// Priority queue that may interrupt an ongoing transmission for a
    /// strictly better-priority arrival (the theory's UPS candidates are
    /// preemptive; §2.1 footnote 3).
    pub fn preemptive() -> Self {
        Self::with(PriorityRank { preemptive: true })
    }
}

impl Rank for PriorityRank {
    fn admit(&mut self, p: &Packet, _now: SimTime, _ctx: PortCtx) -> i128 {
        p.header.prio
    }

    fn is_preemptive(&self) -> bool {
        self.preemptive
    }

    fn name(&self) -> &'static str {
        "Priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use crate::sched::testutil::{pkt_with, service_order, Bench};

    fn prio_pkt(id: u64, prio: i128) -> Packet {
        pkt_with(
            id,
            0,
            100,
            Header {
                prio,
                ..Header::default()
            },
        )
    }

    #[test]
    fn serves_lowest_prio_value_first() {
        let mut s = Priority::new();
        let order = service_order(
            &mut s,
            vec![prio_pkt(1, 30), prio_pkt(2, 10), prio_pkt(3, 20)],
        );
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn fifo_within_level() {
        let mut s = Priority::new();
        let order = service_order(&mut s, vec![prio_pkt(1, 5), prio_pkt(2, 5), prio_pkt(3, 5)]);
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn negative_priorities_sort_first() {
        let mut s = Priority::new();
        let order = service_order(&mut s, vec![prio_pkt(1, 0), prio_pkt(2, -1)]);
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn drop_evicts_worst_priority() {
        let mut b = Bench::new(Priority::new());
        b.enqueue_at(prio_pkt(1, 1), SimTime::ZERO, 0);
        b.enqueue_at(prio_pkt(2, 99), SimTime::ZERO, 1);
        b.enqueue_at(prio_pkt(3, 50), SimTime::ZERO, 2);
        assert_eq!(b.drop_id(), Some(2));
    }
}
