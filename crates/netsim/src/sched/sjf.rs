//! Shortest job first.

use super::rank_queue::{Rank, RankQueue};
use crate::packet::Packet;
use crate::queue::PortCtx;
use crate::time::SimTime;

/// SJF: packets of smaller flows are served first ("shortest job first
/// using priorities", §2.3 and §3.1). The rank is the flow size stamped by
/// the source, so a flow's priority is fixed for its lifetime — the
/// distinction from [`Srpt`](super::Srpt), whose rank shrinks as the flow
/// drains.
///
/// Under heavy-tailed workloads SJF is near-optimal for mean FCT \[3\], which
/// is why Figure 2 uses it (with SRPT) as the benchmark LSTF must match.
pub type Sjf = RankQueue<SjfRank>;

/// [`Sjf`]'s rank: `header.flow_size`.
#[derive(Debug, Default)]
pub struct SjfRank;

impl Rank for SjfRank {
    fn admit(&mut self, p: &Packet, _now: SimTime, _ctx: PortCtx) -> i128 {
        p.header.flow_size as i128
    }

    fn name(&self) -> &'static str {
        "SJF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use crate::sched::testutil::{pkt_with, service_order, Bench};

    fn sized(id: u64, flow: u64, flow_size: u64) -> Packet {
        pkt_with(
            id,
            flow,
            100,
            Header {
                flow_size,
                ..Header::default()
            },
        )
    }

    #[test]
    fn small_flows_first() {
        let mut s = Sjf::new();
        let order = service_order(
            &mut s,
            vec![
                sized(1, 1, 1_000_000),
                sized(2, 2, 1_460),
                sized(3, 3, 50_000),
            ],
        );
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn fifo_within_a_flow() {
        let mut s = Sjf::new();
        let order = service_order(
            &mut s,
            vec![sized(1, 1, 500), sized(2, 1, 500), sized(3, 1, 500)],
        );
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn drop_evicts_largest_flow_packet() {
        let mut b = Bench::new(Sjf::new());
        b.enqueue_at(sized(1, 1, 10), SimTime::ZERO, 0);
        b.enqueue_at(sized(2, 2, 10_000), SimTime::ZERO, 1);
        assert_eq!(b.drop_id(), Some(2));
    }
}
