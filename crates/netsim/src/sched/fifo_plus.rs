//! FIFO+ — FIFO corrected by upstream queueing excess.

use super::rank_queue::{Rank, RankQueue};
use crate::arena::PacketArena;
use crate::packet::Packet;
use crate::queue::{PortCtx, QueuedPacket};
use crate::time::SimTime;

/// FIFO+ from Clark–Shenker–Zhang \[11\] (§3.2): each hop measures the mean
/// queueing delay it imposes; a packet accumulates `(its delay − mean
/// delay)` into a header offset, and downstream hops serve packets in
/// order of *expected* arrival time — actual arrival minus accumulated
/// excess. Packets that have been unlucky so far jump ahead, which trims
/// the tail of the end-to-end delay distribution.
///
/// The paper observes (§3.2) that LSTF with a uniform initial slack is
/// identical to FIFO+ up to the per-hop mean-delay normalization; both are
/// exercised in the test suite and the Figure 3 bench.
pub type FifoPlus = RankQueue<FifoPlusRank>;

/// [`FifoPlus`]'s rank — expected arrival time — and the delay history
/// of this port it is corrected by.
#[derive(Debug, Default)]
pub struct FifoPlusRank {
    /// Running mean of queueing delays imposed by this port, in ps.
    total_wait_ps: u128,
    served: u64,
}

impl FifoPlusRank {
    fn mean_wait_ps(&self) -> i64 {
        if self.served == 0 {
            0
        } else {
            (self.total_wait_ps / self.served as u128) as i64
        }
    }
}

impl Rank for FifoPlusRank {
    /// Expected arrival = actual arrival − upstream excess. A positive
    /// offset (delayed more than average so far) ranks the packet as if
    /// it had arrived earlier.
    fn admit(&mut self, p: &Packet, now: SimTime, _ctx: PortCtx) -> i128 {
        now.as_ps() as i128 - p.header.fifo_plus_offset as i128
    }

    /// Fold this hop's excess into the header before the packet moves on.
    fn on_serve(
        &mut self,
        qp: &QueuedPacket,
        arena: &mut PacketArena,
        now: SimTime,
        _ctx: PortCtx,
    ) {
        let wait = now.saturating_since(qp.enqueued_at).as_ps();
        let mean = self.mean_wait_ps();
        arena.get_mut(qp.pkt).header.fifo_plus_offset += wait as i64 - mean;
        self.total_wait_ps += wait as u128;
        self.served += 1;
    }

    fn name(&self) -> &'static str {
        "FIFO+"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use crate::sched::testutil::{pkt, pkt_with, Bench};
    use crate::time::Dur;

    #[test]
    fn zero_offsets_reduce_to_fifo() {
        let mut b = Bench::new(FifoPlus::new());
        for i in 0..4u64 {
            b.enqueue_at(pkt(i, 0, 100), SimTime::from_us(i), i);
        }
        assert_eq!(b.drain_ids(SimTime::from_ms(1)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn delayed_upstream_packet_jumps_ahead() {
        let mut b = Bench::new(FifoPlus::new());
        // Packet 1 arrives first; packet 2 arrives 10 us later but carries
        // 20 us of upstream excess, so its expected arrival is earlier.
        b.enqueue_at(pkt(1, 0, 100), SimTime::from_us(100), 0);
        b.enqueue_at(
            pkt_with(
                2,
                0,
                100,
                Header {
                    fifo_plus_offset: Dur::from_us(20).as_ps() as i64,
                    ..Header::default()
                },
            ),
            SimTime::from_us(110),
            1,
        );
        assert_eq!(b.dequeue_id(SimTime::from_us(110)), Some(2));
    }

    #[test]
    fn offset_accumulates_wait_minus_mean() {
        let mut b = Bench::new(FifoPlus::new());
        // First packet waits 50 us with an empty history (mean 0) — its
        // offset becomes exactly +50 us.
        b.enqueue_at(pkt(1, 0, 100), SimTime::from_us(0), 0);
        let p1 = b.dequeue_at(SimTime::from_us(50)).unwrap();
        assert_eq!(
            b.arena.get(p1.pkt).header.fifo_plus_offset,
            Dur::from_us(50).as_ps() as i64
        );
        // Second packet waits 10 us against a mean of 50 us — offset −40 us.
        b.enqueue_at(pkt(2, 0, 100), SimTime::from_us(60), 1);
        let p2 = b.dequeue_at(SimTime::from_us(70)).unwrap();
        assert_eq!(
            b.arena.get(p2.pkt).header.fifo_plus_offset,
            Dur::from_us(10).as_ps() as i64 - Dur::from_us(50).as_ps() as i64
        );
    }
}
