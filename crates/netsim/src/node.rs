//! Nodes, links and output ports.
//!
//! The network is output-queued: every node has one port per outgoing
//! link, each port owns a scheduler and (optionally bounded) buffer, and
//! serializes one packet at a time onto its link. Routers are
//! store-and-forward — a packet becomes eligible for forwarding only when
//! its last bit has arrived (§2.1's network model).
//!
//! Ports never own packet bodies: they pass 4-byte [`PacketRef`]s between
//! the event list, the scheduler and the arena.

use crate::arena::{PacketArena, PacketRef};
use crate::event::{Event, EventQueue};
use crate::id::{NodeId, PortId};
use crate::queue::{PortCtx, QueuedPacket, Scheduler};
use crate::time::{Bandwidth, Dur, SimTime};
use crate::trace::{DropCause, Trace};

/// A unidirectional link: the serialization rate of the port feeding it
/// plus the propagation delay to the peer.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Serialization bandwidth.
    pub bandwidth: Bandwidth,
    /// Propagation delay to the peer node.
    pub propagation: Dur,
}

/// A packet transmission in progress.
#[derive(Debug)]
struct InFlight {
    qp: QueuedPacket,
    /// Scheduled completion.
    ends: SimTime,
    /// Generation token matching the pending `PortReady` event; stale
    /// events (after a preemption) are ignored.
    token: u64,
}

/// An output port: scheduler + bounded buffer + transmitter.
pub struct Port {
    /// The node this port belongs to.
    pub node: NodeId,
    /// This port's id within its node.
    pub id: PortId,
    /// The node at the far end of the link.
    pub peer: NodeId,
    /// Link characteristics.
    pub link: Link,
    /// Buffer capacity in bytes for *queued* packets (the packet in
    /// service is not counted); `None` = unbounded (the paper's replay
    /// experiments use buffers "large enough to ensure no packet drops").
    pub buffer_bytes: Option<u64>,
    /// Whether the link this port feeds is currently alive. Ports start
    /// up; the dynamics subsystem flips this through `LinkState` events.
    /// A down port never holds packets — they are flushed to the
    /// simulator's dead-link policy the instant the link fails.
    pub up: bool,
    scheduler: Box<dyn Scheduler>,
    inflight: Option<InFlight>,
    next_token: u64,
    arrival_seq: u64,
    busy_time: Dur,
}

impl std::fmt::Debug for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Port")
            .field("node", &self.node)
            .field("id", &self.id)
            .field("peer", &self.peer)
            .field("sched", &self.scheduler.name())
            .field("queued", &self.scheduler.len())
            .finish()
    }
}

impl Port {
    /// Build a port serving `link` towards `peer` with the given scheduler.
    pub fn new(
        node: NodeId,
        id: PortId,
        peer: NodeId,
        link: Link,
        scheduler: Box<dyn Scheduler>,
        buffer_bytes: Option<u64>,
    ) -> Self {
        Port {
            node,
            id,
            peer,
            link,
            buffer_bytes,
            up: true,
            scheduler,
            inflight: None,
            next_token: 0,
            arrival_seq: 0,
            busy_time: Dur::ZERO,
        }
    }

    /// Total time this port has spent serializing packets — drives
    /// utilization verification in workload calibration.
    pub fn busy_time(&self) -> Dur {
        self.busy_time
    }

    fn ctx(&self) -> PortCtx {
        PortCtx {
            bandwidth: self.link.bandwidth,
        }
    }

    /// Packets queued (excluding any in service).
    pub fn queue_len(&self) -> usize {
        self.scheduler.len()
    }

    /// Bytes queued (excluding any in service).
    pub fn queued_bytes(&self) -> u64 {
        self.scheduler.queued_bytes()
    }

    /// True if the port is mid-transmission.
    pub fn busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Accept a packet for transmission. May start serializing immediately,
    /// may preempt the current transmission (preemptive schedulers only),
    /// and may evict packets if the buffer overflows — evictions are
    /// recorded in `trace` and returned for the simulator to free.
    pub fn accept(
        &mut self,
        pkt: PacketRef,
        now: SimTime,
        arena: &mut PacketArena,
        events: &mut EventQueue,
        trace: &mut Trace,
    ) -> Vec<PacketRef> {
        debug_assert!(self.up, "accept() on a down port — route() must divert");
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        self.scheduler.enqueue(pkt, arena, now, seq, self.ctx());

        // Enforce the buffer bound by evicting the scheduler's designated
        // victims (drop-tail for FIFO, highest slack for LSTF, ...).
        let mut drops = Vec::new();
        if let Some(cap) = self.buffer_bytes {
            while self.scheduler.queued_bytes() > cap {
                match self.scheduler.select_drop() {
                    Some(victim) => {
                        trace.on_drop(arena, victim.pkt, DropCause::Buffer);
                        drops.push(victim.pkt);
                    }
                    None => break,
                }
            }
        }

        if self.inflight.is_none() {
            self.start_next(now, arena, events, trace);
        } else if self.scheduler.is_preemptive() {
            self.maybe_preempt(now, arena, events, trace);
        }
        drops
    }

    /// Preempt the in-flight packet if the queue now holds a strictly more
    /// urgent one (§2.3(5)).
    fn maybe_preempt(
        &mut self,
        now: SimTime,
        arena: &mut PacketArena,
        events: &mut EventQueue,
        trace: &mut Trace,
    ) {
        let Some(best) = self.scheduler.peek_rank() else {
            return;
        };
        let Some(infl) = &self.inflight else { return };
        if best >= infl.qp.rank {
            return;
        }
        let remaining = infl.ends.saturating_since(now);
        if remaining == Dur::ZERO {
            // The last bit is leaving exactly now; completion wins.
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "guarded by the inflight check directly above"
        )]
        let InFlight { qp, .. } = self.inflight.take().expect("checked above");
        arena.get_mut(qp.pkt).remaining_tx = Some(remaining);
        // Re-enter the queue: rank is recomputed from the *current* header
        // state, which for LSTF (slack already charged for past waits)
        // reproduces the correct remaining-slack order.
        let seq = self.arrival_seq;
        self.arrival_seq += 1;
        self.scheduler.enqueue(qp.pkt, arena, now, seq, self.ctx());
        self.start_next(now, arena, events, trace);
    }

    /// Begin serializing the scheduler's next pick, if any.
    fn start_next(
        &mut self,
        now: SimTime,
        arena: &mut PacketArena,
        events: &mut EventQueue,
        trace: &mut Trace,
    ) {
        debug_assert!(self.inflight.is_none());
        let Some(qp) = self.scheduler.dequeue(arena, now, self.ctx()) else {
            return;
        };
        // Universal wait accounting: queueing time at this hop, charged
        // identically under every discipline. (LSTF additionally rewrote
        // header.slack inside its dequeue.)
        let waited = now.saturating_since(qp.enqueued_at);
        let packet = arena.get_mut(qp.pkt);
        packet.cum_wait += waited;
        let tx = packet
            .remaining_tx
            .take()
            .unwrap_or_else(|| self.link.bandwidth.tx_time(packet.size));
        trace.on_tx_start(qp.pkt, self.node, now, waited);

        let ends = now + tx;
        self.busy_time += tx;
        let token = self.next_token;
        self.next_token += 1;
        events.push(
            ends,
            Event::PortReady {
                node: self.node,
                port: self.id,
                token,
            },
        );
        self.inflight = Some(InFlight { qp, ends, token });
    }

    /// Handle a `PortReady` wakeup: emit the finished packet towards its
    /// next hop (advancing `hop` in the arena) and start the next
    /// transmission. Stale tokens from preempted transmissions are
    /// ignored.
    pub fn on_ready(
        &mut self,
        token: u64,
        now: SimTime,
        arena: &mut PacketArena,
        events: &mut EventQueue,
        trace: &mut Trace,
    ) {
        match &self.inflight {
            Some(infl) if infl.token == token => {}
            _ => return, // stale wakeup from a preempted transmission
        }
        #[expect(
            clippy::expect_used,
            reason = "guarded by the inflight check directly above"
        )]
        let InFlight { qp, ends, .. } = self.inflight.take().expect("checked above");
        debug_assert_eq!(ends, now, "PortReady fired at the wrong time");
        arena.get_mut(qp.pkt).hop += 1;
        events.push(
            now + self.link.propagation,
            Event::Arrive {
                node: self.peer,
                pkt: qp.pkt,
            },
        );
        self.start_next(now, arena, events, trace);
    }

    /// The link died: abort any in-service transmission and drain the
    /// queue, returning every displaced packet in deterministic service
    /// order (in-flight first, then scheduler order) for the simulator's
    /// dead-link policy. The aborted transmission's pending `PortReady`
    /// goes stale through the token; bits already past this port (pending
    /// `Arrive`s) are on the wire and still land.
    pub(crate) fn flush_dead(&mut self, now: SimTime, arena: &mut PacketArena) -> Vec<PacketRef> {
        debug_assert!(!self.up, "flush_dead() on a live port");
        let mut out = Vec::new();
        if let Some(InFlight { qp, ends, .. }) = self.inflight.take() {
            // The unfinished tail of the transmission never happened.
            self.busy_time = self.busy_time - ends.saturating_since(now);
            arena.get_mut(qp.pkt).remaining_tx = None;
            out.push(qp.pkt);
        }
        while let Some(qp) = self.scheduler.dequeue(arena, now, self.ctx()) {
            // Universal wait accounting, as in start_next: the time spent
            // queued here was real even though service never came.
            let waited = now.saturating_since(qp.enqueued_at);
            let p = arena.get_mut(qp.pkt);
            p.cum_wait += waited;
            // A previously-preempted packet still carries its partial
            // serialization time; wherever it lands next is a different
            // link, so it must restart a full transmission there.
            p.remaining_tx = None;
            out.push(qp.pkt);
        }
        out
    }
}

/// A node: a host or router with one output port per adjacent link.
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Output ports, dense by [`PortId`].
    pub ports: Vec<Port>,
    /// `port_towards[k]` maps neighbor node → port index; kept sorted by
    /// neighbor id for deterministic, allocation-free lookup.
    port_towards: Vec<(NodeId, PortId)>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .field("ports", &self.ports.len())
            .finish()
    }
}

impl Node {
    /// A node with no ports yet.
    pub fn new(id: NodeId) -> Self {
        Node {
            id,
            ports: Vec::new(),
            port_towards: Vec::new(),
        }
    }

    /// Attach a port towards `peer`. Panics if one already exists —
    /// parallel links are not part of the paper's model.
    pub fn add_port(
        &mut self,
        peer: NodeId,
        link: Link,
        scheduler: Box<dyn Scheduler>,
        buffer_bytes: Option<u64>,
    ) -> PortId {
        assert!(
            self.port_to(peer).is_none(),
            "duplicate link {} -> {}",
            self.id,
            peer
        );
        let pid = PortId(self.ports.len() as u32);
        self.ports
            .push(Port::new(self.id, pid, peer, link, scheduler, buffer_bytes));
        #[expect(
            clippy::unwrap_used,
            reason = "the assert above rules out an existing port towards peer, so the search reports the insertion point"
        )]
        let pos = self
            .port_towards
            .binary_search_by_key(&peer, |&(n, _)| n)
            .unwrap_err();
        self.port_towards.insert(pos, (peer, pid));
        pid
    }

    /// The port facing `peer`, if the link exists.
    pub fn port_to(&self, peer: NodeId) -> Option<PortId> {
        self.port_towards
            .binary_search_by_key(&peer, |&(n, _)| n)
            .ok()
            .map(|i| self.port_towards[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{FlowId, PacketId};
    use crate::packet::{Packet, PacketBuilder};
    use crate::path::PathId;
    use crate::sched::SchedulerKind;
    use crate::trace::RecordMode;

    fn link_1g() -> Link {
        Link {
            bandwidth: Bandwidth::from_gbps(1),
            propagation: Dur::from_us(10),
        }
    }

    fn mk_port(kind: SchedulerKind, buffer: Option<u64>) -> Port {
        Port::new(
            NodeId(0),
            PortId(0),
            NodeId(1),
            link_1g(),
            kind.build(0),
            buffer,
        )
    }

    fn mk_pkt(id: u64, size: u32, slack_us: i64) -> Packet {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        PacketBuilder::new(PacketId(id), FlowId(0), size, path, SimTime::ZERO)
            .slack(Dur::from_us(slack_us as u64).as_ps() as i128)
            .build()
    }

    #[test]
    fn idle_port_transmits_immediately() {
        let mut port = mk_port(SchedulerKind::Fifo, None);
        let mut arena = PacketArena::new();
        let mut ev = EventQueue::new();
        let mut tr = Trace::new(RecordMode::Off);
        let p = arena.alloc(mk_pkt(0, 1500, 0));
        let drops = port.accept(p, SimTime::ZERO, &mut arena, &mut ev, &mut tr);
        assert!(drops.is_empty());
        assert!(port.busy());
        // PortReady at exactly the 12us serialization boundary.
        assert_eq!(ev.peek_time(), Some(SimTime::from_us(12)));
        let (t, e) = ev.pop().unwrap();
        let Event::PortReady { token, .. } = e else {
            panic!("expected PortReady")
        };
        port.on_ready(token, t, &mut arena, &mut ev, &mut tr);
        assert!(!port.busy());
        // Arrival at peer at 12us + 10us propagation, hop advanced.
        let (t2, e2) = ev.pop().unwrap();
        assert_eq!(t2, SimTime::from_us(22));
        let Event::Arrive { node, pkt } = e2 else {
            panic!("expected Arrive")
        };
        assert_eq!(node, NodeId(1));
        assert_eq!(arena.get(pkt).hop, 1);
    }

    #[test]
    fn busy_port_queues_and_chains_transmissions() {
        let mut port = mk_port(SchedulerKind::Fifo, None);
        let mut arena = PacketArena::new();
        let mut ev = EventQueue::new();
        let mut tr = Trace::new(RecordMode::Off);
        let p0 = arena.alloc(mk_pkt(0, 1500, 0));
        let p1 = arena.alloc(mk_pkt(1, 1500, 0));
        port.accept(p0, SimTime::ZERO, &mut arena, &mut ev, &mut tr);
        port.accept(p1, SimTime::ZERO, &mut arena, &mut ev, &mut tr);
        assert_eq!(port.queue_len(), 1);
        // Drain: first PortReady at 12us starts the second packet, whose
        // PortReady lands at 24us.
        let (t, e) = ev.pop().unwrap();
        let Event::PortReady { token, .. } = e else {
            panic!()
        };
        port.on_ready(token, t, &mut arena, &mut ev, &mut tr);
        let times: Vec<u64> = std::iter::from_fn(|| ev.pop())
            .map(|(t, _)| t.as_ps() / crate::time::PS_PER_US)
            .collect();
        assert!(times.contains(&22), "first arrival at 22us: {times:?}");
        assert!(times.contains(&24), "second PortReady at 24us: {times:?}");
    }

    #[test]
    fn buffer_overflow_drops_and_records() {
        // Capacity for exactly two queued 1500B packets (the third packet
        // is in service and uncounted).
        let mut port = mk_port(SchedulerKind::Fifo, Some(3000));
        let mut arena = PacketArena::new();
        let mut ev = EventQueue::new();
        let mut tr = Trace::new(RecordMode::EndToEnd);
        let mut dropped = Vec::new();
        for i in 0..4 {
            let p = mk_pkt(i, 1500, 0);
            tr.on_inject(p.id);
            let r = arena.alloc(p);
            dropped.extend(port.accept(r, SimTime::ZERO, &mut arena, &mut ev, &mut tr));
        }
        assert_eq!(dropped.len(), 1);
        assert_eq!(
            arena.get(dropped[0]).id.0,
            3,
            "FIFO drop-tail evicts the newest"
        );
        assert!(tr.get(PacketId(3)).unwrap().dropped);
        assert_eq!(port.queue_len(), 2);
    }

    #[test]
    fn preemptive_lstf_interrupts_for_smaller_slack() {
        let mut port = mk_port(SchedulerKind::Lstf { preemptive: true }, None);
        let mut arena = PacketArena::new();
        let mut ev = EventQueue::new();
        let mut tr = Trace::new(RecordMode::Off);
        // Big packet with huge slack starts at t=0 (120us serialization).
        let big = arena.alloc(mk_pkt(0, 15000, 1_000_000));
        port.accept(big, SimTime::ZERO, &mut arena, &mut ev, &mut tr);
        // Tiny-slack packet lands mid-transmission.
        let t1 = SimTime::from_us(30);
        let urgent = arena.alloc(mk_pkt(1, 1500, 0));
        port.accept(urgent, t1, &mut arena, &mut ev, &mut tr);
        assert!(port.busy());
        // The urgent packet finishes 12us after preemption...
        let mut finished = Vec::new();
        while let Some((t, e)) = ev.pop() {
            match e {
                Event::PortReady { token, .. } => {
                    port.on_ready(token, t, &mut arena, &mut ev, &mut tr);
                }
                Event::Arrive { pkt, .. } => finished.push((t, arena.get(pkt).id.0)),
                _ => {}
            }
        }
        assert_eq!(finished[0].1, 1, "urgent packet exits first");
        assert_eq!(
            finished[0].0,
            SimTime::from_us(30 + 12) + link_1g().propagation
        );
        // ...and the preempted one completes its remaining 90us afterwards.
        assert_eq!(finished[1].1, 0);
        assert_eq!(
            finished[1].0,
            SimTime::from_us(42 + 90) + link_1g().propagation
        );
    }

    #[test]
    fn non_preemptive_lstf_never_interrupts() {
        let mut port = mk_port(SchedulerKind::Lstf { preemptive: false }, None);
        let mut arena = PacketArena::new();
        let mut ev = EventQueue::new();
        let mut tr = Trace::new(RecordMode::Off);
        let big = arena.alloc(mk_pkt(0, 15000, 1_000_000));
        port.accept(big, SimTime::ZERO, &mut arena, &mut ev, &mut tr);
        let urgent = arena.alloc(mk_pkt(1, 1500, 0));
        port.accept(urgent, SimTime::from_us(30), &mut arena, &mut ev, &mut tr);
        let mut finished = Vec::new();
        while let Some((t, e)) = ev.pop() {
            match e {
                Event::PortReady { token, .. } => {
                    port.on_ready(token, t, &mut arena, &mut ev, &mut tr);
                }
                Event::Arrive { pkt, .. } => finished.push((t, arena.get(pkt).id.0)),
                _ => {}
            }
        }
        assert_eq!(finished[0].1, 0, "in-flight packet completes untouched");
    }

    #[test]
    fn node_port_lookup() {
        let mut n = Node::new(NodeId(5));
        let p2 = n.add_port(NodeId(2), link_1g(), SchedulerKind::Fifo.build(0), None);
        let p9 = n.add_port(NodeId(9), link_1g(), SchedulerKind::Fifo.build(0), None);
        let p1 = n.add_port(NodeId(1), link_1g(), SchedulerKind::Fifo.build(0), None);
        assert_eq!(n.port_to(NodeId(2)), Some(p2));
        assert_eq!(n.port_to(NodeId(9)), Some(p9));
        assert_eq!(n.port_to(NodeId(1)), Some(p1));
        assert_eq!(n.port_to(NodeId(7)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_port_panics() {
        let mut n = Node::new(NodeId(0));
        n.add_port(NodeId(1), link_1g(), SchedulerKind::Fifo.build(0), None);
        n.add_port(NodeId(1), link_1g(), SchedulerKind::Fifo.build(0), None);
    }
}
