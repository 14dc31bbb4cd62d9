//! Network-wide earliest deadline first (App. E).

use super::rank_queue::{Rank, RankQueue};
use crate::packet::Packet;
use crate::queue::PortCtx;
use crate::time::SimTime;

/// The static-header formulation of LSTF from Appendix E: the header
/// carries only the target output time `o(p)` (never rewritten), and each
/// router α computes a *local deadline*
///
/// ```text
/// priority(p, α) = o(p) − tmin(p, α, dest(p)) + T(p, α)
/// ```
///
/// from static topology knowledge. Appendix E proves this produces exactly
/// the same replay schedule as LSTF; `ups-core` property-tests that
/// equivalence against this implementation.
///
/// Requires packets built with a `tmin_rem` table (the routing layer
/// attaches it); panics otherwise, since silently scheduling with a wrong
/// deadline would invalidate any experiment using it.
pub type Edf = RankQueue<EdfRank>;

/// [`Edf`]'s rank: the App. E local deadline.
#[derive(Debug, Default)]
pub struct EdfRank {
    preemptive: bool,
}

impl Edf {
    /// Preemptive EDF — matches preemptive LSTF exactly (App. E).
    pub fn preemptive() -> Self {
        Self::with(EdfRank { preemptive: true })
    }
}

impl Rank for EdfRank {
    /// The App. E local deadline `o(p) − tmin(p, α, dest) + T(p, α)`.
    ///
    /// # Panics
    /// If the packet carries no `tmin_rem` table — silently scheduling
    /// with a wrong deadline would invalidate any experiment using it.
    fn admit(&mut self, p: &Packet, _now: SimTime, ctx: PortCtx) -> i128 {
        #[expect(
            clippy::expect_used,
            reason = "config contract: EDF without tmin tables must fail loudly, not misschedule"
        )]
        let tmin_rem = p
            .tmin_remaining()
            .expect("EDF needs packets with a tmin_rem table (attach via routing layer)");
        let t_here = ctx.bandwidth.tx_time(p.size);
        p.header.deadline.as_ps() as i128 - tmin_rem.as_ps() as i128 + t_here.as_ps() as i128
    }

    fn is_preemptive(&self) -> bool {
        self.preemptive
    }

    fn name(&self) -> &'static str {
        "EDF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{FlowId, NodeId, PacketId};
    use crate::packet::{Header, PacketBuilder};
    use crate::path::PathId;
    use crate::queue::Scheduler;
    use crate::sched::testutil::Bench;
    use crate::time::Dur;
    use std::sync::Arc;

    fn edf_pkt(id: u64, deadline_us: u64, tmin_rem_us: u64) -> Packet {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        let tmins: Arc<[Dur]> = vec![Dur::from_us(tmin_rem_us), Dur::ZERO].into();
        PacketBuilder::new(PacketId(id), FlowId(id), 1500, path, SimTime::ZERO)
            .header(Header {
                deadline: SimTime::from_us(deadline_us),
                ..Header::default()
            })
            .tmin_rem(tmins)
            .build()
    }

    #[test]
    fn earlier_local_deadline_first() {
        let mut b = Bench::new(Edf::new());
        // Same tmin: order by o(p).
        b.enqueue_at(edf_pkt(1, 500, 50), SimTime::ZERO, 0);
        b.enqueue_at(edf_pkt(2, 100, 50), SimTime::ZERO, 1);
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(2));
    }

    #[test]
    fn longer_remaining_path_tightens_deadline() {
        let mut b = Bench::new(Edf::new());
        // Same o(p); packet 2 has much further to go, so it is more urgent.
        b.enqueue_at(edf_pkt(1, 500, 10), SimTime::ZERO, 0);
        b.enqueue_at(edf_pkt(2, 500, 400), SimTime::ZERO, 1);
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(2));
    }

    #[test]
    fn rank_matches_appendix_e_formula() {
        let mut b = Bench::new(Edf::new());
        b.enqueue_at(edf_pkt(1, 500, 50), SimTime::ZERO, 0);
        // T(1500B @ 1Gbps) = 12us.
        let expected = (Dur::from_us(500 - 50 + 12).as_ps()) as i128;
        assert_eq!(b.s.peek_rank(), Some(expected));
    }

    #[test]
    #[should_panic(expected = "tmin_rem")]
    fn missing_tmin_table_panics() {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        let p = PacketBuilder::new(PacketId(1), FlowId(1), 100, path, SimTime::ZERO).build();
        let mut b = Bench::new(Edf::new());
        b.enqueue_at(p, SimTime::ZERO, 0);
    }
}
