//! Omniscient per-hop replay scheduling (Appendix B).

use super::rank_queue::{Rank, RankQueue};
use crate::packet::Packet;
use crate::queue::PortCtx;
use crate::time::SimTime;

/// The omniscient-initialization UPS of Appendix B: the ingress writes the
/// *per-hop* scheduled output times `o(p, αᵢ)` of the original schedule
/// into an n-dimensional header vector, and every router simply uses its
/// own entry as a static priority ("earlier values of output times get
/// higher priority"). Appendix B proves this replays **any** viable
/// schedule perfectly — the existence half of the paper's theory, and the
/// upper bound its black-box impossibility results are measured against.
///
/// Also used by the counterexample reproductions to *manufacture* exact
/// original schedules from the appendix tables.
///
/// Packets scheduled through this discipline must carry
/// `header.omniscient` with one entry per path node; panics otherwise
/// (scheduling with a missing oracle would silently degrade to FIFO and
/// invalidate the experiment).
pub type Omniscient = RankQueue<OmniscientRank>;

/// [`Omniscient`]'s rank: this hop's entry of `header.omniscient`.
#[derive(Debug, Default)]
pub struct OmniscientRank;

impl Rank for OmniscientRank {
    fn admit(&mut self, p: &Packet, _now: SimTime, _ctx: PortCtx) -> i128 {
        let vec = p
            .header
            .omniscient
            .as_ref()
            .expect("Omniscient scheduling needs header.omniscient per-hop times"); // lint:allow(panic-path): config contract: omniscient headers are attached by the trace layer or the run is invalid
        assert_eq!(
            vec.len(),
            p.path.len(),
            "omniscient vector must have one entry per path node"
        );
        vec[p.hop as usize].as_ps() as i128
    }

    fn name(&self) -> &'static str {
        "Omniscient"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{FlowId, NodeId, PacketId};
    use crate::packet::{Header, PacketBuilder};
    use crate::path::PathId;
    use crate::sched::testutil::Bench;
    use std::sync::Arc;

    fn omni_pkt(id: u64, hop: u32, times_us: &[u64]) -> Packet {
        let path = PathId::from(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let times: Arc<[SimTime]> = times_us.iter().map(|&u| SimTime::from_us(u)).collect();
        let mut p = PacketBuilder::new(PacketId(id), FlowId(id), 100, path, SimTime::ZERO)
            .header(Header {
                omniscient: Some(times),
                ..Header::default()
            })
            .build();
        p.hop = hop;
        p
    }

    #[test]
    fn orders_by_this_hops_entry() {
        let mut b = Bench::new(Omniscient::new());
        // At hop 1, packet 1 was scheduled at 50us, packet 2 at 10us.
        b.enqueue_at(omni_pkt(1, 1, &[0, 50, 100]), SimTime::ZERO, 0);
        b.enqueue_at(omni_pkt(2, 1, &[5, 10, 90]), SimTime::ZERO, 1);
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(2));
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(1));
    }

    #[test]
    fn different_hops_read_different_entries() {
        let mut b = Bench::new(Omniscient::new());
        // Packet 1 at hop 0 (entry 0us) vs packet 2 at hop 2 (entry 1us).
        b.enqueue_at(omni_pkt(1, 0, &[0, 50, 100]), SimTime::ZERO, 0);
        b.enqueue_at(omni_pkt(2, 2, &[5, 10, 1]), SimTime::ZERO, 1);
        assert_eq!(b.dequeue_id(SimTime::ZERO), Some(1));
    }

    #[test]
    #[should_panic(expected = "omniscient")]
    fn missing_vector_panics() {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        let p = PacketBuilder::new(PacketId(0), FlowId(0), 100, path, SimTime::ZERO).build();
        let mut b = Bench::new(Omniscient::new());
        b.enqueue_at(p, SimTime::ZERO, 0);
    }
}
