//! Least slack time first — the paper's near-universal scheduler.

use super::rank_queue::{Rank, RankQueue};
use crate::arena::PacketArena;
use crate::packet::Packet;
use crate::queue::{PortCtx, QueuedPacket};
use crate::time::SimTime;

/// LSTF (§2.2): every packet carries its remaining slack — the queueing
/// time it can still absorb without missing its target output time — and
/// each router serves the packet with the least remaining slack. Before
/// forwarding, the router overwrites the header slack with what is left
/// after this hop's wait (dynamic packet state).
///
/// # Rank derivation
///
/// While a packet waits at one port, its remaining slack decreases at unit
/// rate, identically for every queued packet, so at any instant `t`
///
/// ```text
/// argmin slack_arrival(p) − (t − t_arrival(p))  =  argmin slack_arrival(p) + t_arrival(p)
/// ```
///
/// — a **time-invariant key**. The paper's LSTF considers the slack of the
/// packet's **last bit** (§2.2: "least remaining slack at the time when its
/// last bit is transmitted"), which adds the local serialization time
/// `T(p, α)`, so the full rank is `slack_arrival + t_arrival + T(p, α)`.
/// The queue is therefore an ordinary min-heap on that key — which is
/// *exactly* the local-deadline rank of the EDF formulation (App. E,
/// `o(p) − tmin(p, α, dest) + T(p, α)`); their equivalence, including for
/// mixed packet sizes, is checked by property tests in `ups-core`.
///
/// # Preemption
///
/// With `preemptive = true` the port may interrupt an ongoing transmission
/// when a strictly smaller-rank packet arrives (§2.3(5) ablation; the
/// paper's replay default is non-preemptive, its theory preemptive).
///
/// # Drop rule
///
/// §3: "packets with the highest slack are dropped when the buffer is
/// full".
pub type Lstf = RankQueue<LstfRank>;

/// [`Lstf`]'s rank: `header.slack` at the last bit, shifted by arrival.
#[derive(Debug)]
pub struct LstfRank {
    pub(super) preemptive: bool,
}

impl Lstf {
    /// New LSTF queue. `preemptive` allows mid-transmission preemption.
    pub fn new(preemptive: bool) -> Self {
        Self::with(LstfRank { preemptive })
    }
}

impl Rank for LstfRank {
    /// `slack + now + T(p, α)`. Less `now`, this is the remaining slack
    /// at the last transmitted bit — the stationary key
    /// [`Quantized`](super::Quantized)'s mappers read.
    fn admit(&mut self, p: &Packet, now: SimTime, ctx: PortCtx) -> i128 {
        let last_bit = ctx.bandwidth.tx_time(p.size).as_ps() as i128;
        p.header.slack + now.as_ps() as i128 + last_bit
    }

    /// Slack spent = time waited at this hop (service and propagation are
    /// accounted in tmin, not slack). This is the header rewrite of §2.2.
    /// A preempted-and-resumed packet re-enters the queue with a fresh
    /// `enqueued_at`, so each waiting episode is charged once.
    fn on_serve(
        &mut self,
        qp: &QueuedPacket,
        arena: &mut PacketArena,
        now: SimTime,
        _ctx: PortCtx,
    ) {
        let waited = now.saturating_since(qp.enqueued_at).as_ps() as i128;
        arena.get_mut(qp.pkt).header.slack -= waited;
    }

    fn is_preemptive(&self) -> bool {
        self.preemptive
    }

    fn name(&self) -> &'static str {
        if self.preemptive {
            "LSTF-P"
        } else {
            "LSTF"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use crate::queue::Scheduler;
    use crate::sched::testutil::{pkt_with, Bench};
    use crate::time::Dur;

    fn slacked(id: u64, slack_us: i64) -> Packet {
        pkt_with(
            id,
            id,
            100,
            Header {
                slack: Dur::from_us(slack_us.unsigned_abs()).as_ps() as i128
                    * slack_us.signum() as i128,
                ..Header::default()
            },
        )
    }

    #[test]
    fn least_slack_first_for_simultaneous_arrivals() {
        let mut b = Bench::new(Lstf::new(false));
        let t = SimTime::from_us(10);
        b.enqueue_at(slacked(1, 500), t, 0);
        b.enqueue_at(slacked(2, 20), t, 1);
        b.enqueue_at(slacked(3, 100), t, 2);
        assert_eq!(b.drain_ids(t), vec![2, 3, 1]);
    }

    #[test]
    fn rank_accounts_for_arrival_time() {
        // p1 arrives at t=0 with slack 100us; p2 arrives at t=90us with
        // slack 5us. p2's key (95) beats p1's (100): it would run out of
        // slack sooner.
        let mut b = Bench::new(Lstf::new(false));
        b.enqueue_at(slacked(1, 100), SimTime::ZERO, 0);
        b.enqueue_at(slacked(2, 5), SimTime::from_us(90), 1);
        assert_eq!(b.dequeue_id(SimTime::from_us(90)), Some(2));
        // Conversely an early tight packet beats a late loose one.
        let mut b = Bench::new(Lstf::new(false));
        b.enqueue_at(slacked(1, 10), SimTime::ZERO, 0);
        b.enqueue_at(slacked(2, 100), SimTime::from_us(5), 1);
        assert_eq!(b.dequeue_id(SimTime::from_us(5)), Some(1));
    }

    #[test]
    fn slack_is_rewritten_with_wait() {
        let mut b = Bench::new(Lstf::new(false));
        b.enqueue_at(slacked(1, 100), SimTime::from_us(10), 0);
        let qp = b.dequeue_at(SimTime::from_us(35)).unwrap();
        // Waited 25us of its 100us slack.
        assert_eq!(
            b.arena.get(qp.pkt).header.slack,
            Dur::from_us(75).as_ps() as i128
        );
    }

    #[test]
    fn slack_can_go_negative() {
        let mut b = Bench::new(Lstf::new(false));
        b.enqueue_at(slacked(1, 10), SimTime::ZERO, 0);
        let qp = b.dequeue_at(SimTime::from_us(25)).unwrap();
        assert_eq!(
            b.arena.get(qp.pkt).header.slack,
            -(Dur::from_us(15).as_ps() as i128)
        );
    }

    #[test]
    fn drop_rule_takes_highest_slack() {
        let mut b = Bench::new(Lstf::new(false));
        let t = SimTime::ZERO;
        b.enqueue_at(slacked(1, 5), t, 0);
        b.enqueue_at(slacked(2, 5000), t, 1);
        b.enqueue_at(slacked(3, 50), t, 2);
        assert_eq!(b.drop_id(), Some(2));
    }

    #[test]
    fn preemptive_flag() {
        assert!(!Lstf::new(false).is_preemptive());
        assert!(Lstf::new(true).is_preemptive());
    }

    #[test]
    fn fifo_tiebreak_on_equal_rank() {
        let mut b = Bench::new(Lstf::new(false));
        let t = SimTime::from_us(1);
        b.enqueue_at(slacked(1, 10), t, 0);
        b.enqueue_at(slacked(2, 10), t, 1);
        assert_eq!(b.dequeue_id(t), Some(1));
        assert_eq!(b.dequeue_id(t), Some(2));
    }
}
