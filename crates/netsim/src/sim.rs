//! The simulator: event loop, network construction, agents.
//!
//! A [`Simulator`] owns the node/port arenas, the packet arena, the
//! future-event list, the schedule [`Trace`] and any registered [`Agent`]s
//! (transport endpoints). It is single-threaded and fully deterministic:
//! identical inputs and seeds produce bit-identical traces, which the
//! replay methodology requires.
//!
//! ## Zero-copy hot path
//!
//! A packet body is moved exactly twice in its lifetime: into the
//! [`PacketArena`] at injection, and out of it at final-hop delivery
//! (or dropped in place). Everything between — the event list, port
//! queues, scheduler heaps — handles 4-byte [`PacketRef`]s.
//!
//! A hop finds its output port in a per-path egress table: the port out of
//! every hop of a [`PathId`], resolved and checked once, the first time
//! the simulator forwards a packet along that path.

use ups_obs::{Counter, Phase, SharedProbe, SimSample};

use crate::arena::{PacketArena, PacketRef};
use crate::event::{Event, EventQueue};
use crate::id::{AgentId, NodeId, PacketId, PortId};
use crate::node::{Link, Node};
use crate::packet::Packet;
use crate::path::PathId;
use crate::queue::Scheduler;
use crate::time::{Dur, SimTime};
use crate::trace::{DropCause, RecordMode, Trace};

/// What happens to a packet that needs a dead link — the in-flight policy
/// of the dynamics subsystem. Applies both to packets flushed out of a
/// failing port and to packets that arrive at a hop whose next link is
/// already down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadLinkPolicy {
    /// Lose the packet (recorded with [`DropCause::DeadLink`]).
    #[default]
    Drop,
    /// Ask the registered [`RerouteOracle`] for a fresh path from the
    /// packet's current hop; drop only when no alternative exists.
    Reroute,
}

/// The routing brain the simulator consults when churn invalidates a
/// packet's precomputed path. Implemented by `ups-dynamics`'s
/// epoch-based `DynamicRouting`; the simulator core stays topology-free.
///
/// The simulator notifies the oracle of every link-state change *before*
/// applying it to its ports, so the oracle's view of the alive link set
/// is always in sync with the ports' `up` flags.
pub trait RerouteOracle: Send {
    /// The link `a — b` just changed state (both directions).
    fn link_state_changed(&mut self, a: NodeId, b: NodeId, up: bool, now: SimTime);

    /// A fresh path `here ..= dst` over currently-alive links, or `None`
    /// when `dst` is unreachable. The first element must be `here`, the
    /// last `dst`, and every consecutive pair an alive link.
    fn reroute(&mut self, here: NodeId, dst: NodeId, now: SimTime) -> Option<PathId>;
}

/// Run-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Trace detail level.
    pub record: RecordMode,
    /// Trace spill capacities `(records per chunk, sealed chunks kept in
    /// memory)`. `Some` records through a chunked log that spills to disk,
    /// at any detail; `None` keeps the trace resident, except under
    /// [`RecordMode::Streaming`], which spills at built-in defaults. Tests
    /// use tiny caps to force spill behaviour on small runs.
    pub trace_spill_caps: Option<(usize, usize)>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            record: RecordMode::EndToEnd,
            trace_spill_caps: None,
        }
    }
}

/// Aggregate run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets injected at their ingress.
    pub injected: u64,
    /// Packets whose last bit reached their destination.
    pub delivered: u64,
    /// Packets lost: buffer evictions plus dead-link losses.
    pub dropped: u64,
    /// Of `dropped`, packets lost at a dead link (flushed under the Drop
    /// policy, or unroutable after a failure disconnected their
    /// destination).
    pub dropped_dead_link: u64,
    /// Packets the dynamics layer rerouted at their current hop.
    pub rerouted: u64,
    /// `LinkState` events processed.
    pub link_events: u64,
    /// Events processed.
    pub events: u64,
}

/// A transport/application endpoint attached to a node.
///
/// Agents receive the packets delivered to their node and may inject new
/// packets or arm timers through the [`SimApi`]. All agent interaction is
/// deterministic: callbacks fire in event order. Delivery moves the packet
/// *out of the arena* — the agent owns it.
pub trait Agent: Send {
    /// A packet's last bit arrived at this agent's node.
    fn on_packet(&mut self, packet: Packet, api: &mut SimApi<'_>);
    /// A timer armed via [`SimApi::set_timer`] fired.
    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>);
}

/// Capabilities handed to agent callbacks.
pub struct SimApi<'a> {
    now: SimTime,
    agent: AgentId,
    events: &'a mut EventQueue,
    arena: &'a mut PacketArena,
    next_packet_id: &'a mut u64,
}

impl SimApi<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Allocate a globally unique packet id.
    pub fn alloc_packet_id(&mut self) -> PacketId {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        PacketId(id)
    }

    /// Inject `packet` at the current instant. The packet enters the
    /// network at `packet.path[0]`, which must be this agent's node for
    /// transport semantics to make sense (not enforced — test harnesses
    /// inject from anywhere).
    pub fn inject(&mut self, mut packet: Packet) {
        packet.injected_at = self.now;
        packet.hop = 0;
        let pkt = self.arena.alloc(packet);
        self.events.push(self.now, Event::Inject(pkt));
    }

    /// Arm a timer that calls this agent's `on_timer(key)` after `delay`.
    pub fn set_timer(&mut self, delay: Dur, key: u64) {
        self.events.push(
            self.now + delay,
            Event::Timer {
                agent: self.agent,
                key,
            },
        );
    }
}

/// [`Simulator::egress_at`]'s mark for a path not forwarded yet.
const NO_EGRESS: u32 = u32::MAX;

/// The discrete-event network simulator.
pub struct Simulator {
    nodes: Vec<Node>,
    /// By [`PathId::index`]: where the path's ports start in
    /// `egress_ports`, or [`NO_EGRESS`]. Lookup only — the index never
    /// orders anything.
    egress_at: Vec<u32>,
    /// Path after path, the port out of each hop but the last.
    egress_ports: Vec<PortId>,
    arena: PacketArena,
    events: EventQueue,
    agents: Vec<Box<dyn Agent>>,
    agent_at: Vec<Option<AgentId>>,
    trace: Trace,
    stats: SimStats,
    next_packet_id: u64,
    dead_link_policy: DeadLinkPolicy,
    oracle: Option<Box<dyn RerouteOracle>>,
    probe: Option<SharedProbe>,
    /// Cached `probe.interval_ps()` so a tick never takes the probe's
    /// lock twice.
    probe_interval_ps: u64,
    /// Virtual time of the next sample tick; `u64::MAX` with no probe
    /// attached, so the per-event check is one always-false compare.
    next_sample_ps: u64,
}

impl Simulator {
    /// An empty network.
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            nodes: Vec::new(),
            egress_at: Vec::new(),
            egress_ports: Vec::new(),
            arena: PacketArena::new(),
            events: EventQueue::new(),
            agents: Vec::new(),
            agent_at: Vec::new(),
            trace: Trace::with_spill_caps(config.record, config.trace_spill_caps),
            stats: SimStats::default(),
            next_packet_id: 0,
            dead_link_policy: DeadLinkPolicy::default(),
            oracle: None,
            probe: None,
            probe_interval_ps: 0,
            next_sample_ps: u64::MAX,
        }
    }

    /// Attach a sampler (see [`ups_obs::SharedProbe`]). The probe is
    /// driven on its own virtual-time interval and only ever *reads*
    /// aggregate state — attaching one cannot change the schedule, which
    /// the `obs_determinism` test pins.
    pub fn set_probe(&mut self, probe: SharedProbe) {
        let interval = probe.interval_ps();
        self.probe_interval_ps = interval;
        self.next_sample_ps = self.now().as_ps().saturating_add(interval);
        self.probe = Some(probe);
    }

    /// Set the in-flight policy applied at dead links (default: `Drop`).
    pub fn set_dead_link_policy(&mut self, policy: DeadLinkPolicy) {
        self.dead_link_policy = policy;
    }

    /// Install the routing oracle the `Reroute` policy consults. Without
    /// one, `Reroute` degrades to `Drop`.
    pub fn set_reroute_oracle(&mut self, oracle: Box<dyn RerouteOracle>) {
        self.oracle = Some(oracle);
    }

    /// Schedule a bidirectional link-state change at `at`. Both direction
    /// ports flip together; on a down transition every packet queued or
    /// in service at either port is handed to the dead-link policy.
    ///
    /// # Panics
    /// If either direction port does not exist, or (on processing) if the
    /// event is redundant — the failure-schedule layer emits strictly
    /// alternating down/up events per link.
    pub fn schedule_link_state(&mut self, at: SimTime, a: NodeId, b: NodeId, up: bool) {
        for (from, to) in [(a, b), (b, a)] {
            assert!(
                self.nodes[from.index()].port_to(to).is_some(), // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
                "link-state event for missing link {from} -> {to}"
            );
        }
        self.events.push(at, Event::LinkState { a, b, up });
    }

    /// Add a node; ids are dense and sequential.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id));
        self.agent_at.push(None);
        id
    }

    /// Add a *unidirectional* link `from → to` with its own scheduler and
    /// buffer. Bidirectional links are two calls (they may differ — e.g.
    /// data direction LSTF, ack direction FIFO).
    pub fn add_oneway_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        link: Link,
        scheduler: Box<dyn Scheduler>,
        buffer_bytes: Option<u64>,
    ) {
        assert!(from.index() < self.nodes.len(), "unknown node {from}");
        assert!(to.index() < self.nodes.len(), "unknown node {to}");
        assert_ne!(from, to, "self-links are not allowed");
        self.nodes[from.index()].add_port(to, link, scheduler, buffer_bytes); // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
    }

    /// Attach `agent` to `node`; packets destined to `node` are delivered
    /// to it. One agent per node.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        assert!(
            self.agent_at[node.index()].is_none(), // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
            "node {node} already has an agent"
        );
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(agent);
        self.agent_at[node.index()] = Some(id); // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
        id
    }

    /// Schedule a pre-built packet to enter the network at
    /// `packet.injected_at`. This is the packet body's one move into the
    /// arena; everything downstream carries a [`PacketRef`].
    pub fn inject(&mut self, packet: Packet) {
        self.next_packet_id = self.next_packet_id.max(packet.id.0 + 1);
        let at = packet.injected_at;
        let pkt = self.arena.alloc(packet);
        self.events.push(at, Event::Inject(pkt));
    }

    /// Arm an agent timer from outside a callback — how transports kick
    /// their flows at the flow start times.
    pub fn schedule_timer(&mut self, agent: AgentId, at: SimTime, key: u64) {
        assert!(agent.index() < self.agents.len(), "unknown agent {agent}");
        self.events.push(at, Event::Timer { agent, key });
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Run counters so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The recorded schedule so far.
    ///
    /// A trace records a packet when it is delivered or dropped, so
    /// borrowed mid-run it lists no packet still in flight;
    /// [`Self::into_trace`] adds those.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consume the simulator, yielding the recorded schedule. Every
    /// injected packet still in flight is recorded here, open: not
    /// exited, no wait charged, its as-executed path.
    pub fn into_trace(mut self) -> Trace {
        if self.trace.mode() == RecordMode::Off {
            return self.trace;
        }
        let mut in_flight = Vec::new();
        if !self.arena.is_empty() {
            // A packet whose `Inject` event has not fired is not in the
            // schedule yet.
            let mut unfired = vec![false; self.arena.capacity()];
            while let Some((_, event)) = self.events.pop() {
                if let Event::Inject(pkt) = event {
                    // lint:allow(panic-path): a live ref's slot is below the arena's capacity
                    unfired[pkt.slot() as usize] = true;
                }
            }
            in_flight.extend(self.arena.iter().filter(|(pkt, _)| {
                // lint:allow(panic-path): a live ref's slot is below the arena's capacity
                !unfired[pkt.slot() as usize]
            }));
        }
        // With nothing in flight too: the hand-over frees the hop table.
        self.trace.hand_over(in_flight);
        self.trace
    }

    /// Immutable access to a node (topology inspection in tests/metrics).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()] // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Packets currently in flight (arena occupancy).
    pub fn packets_in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Process events until the queue is empty. Most paper experiments use
    /// [`Self::run_until`]; this is for closed workloads that drain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run to completion while pulling packets from `packets` on demand
    /// instead of injecting the whole workload up front. The iterator must
    /// be sorted by `injected_at` (ties in any order); each packet is
    /// injected exactly when the event clock is about to pass its
    /// injection time, so the event queue — and therefore memory — holds
    /// only in-flight work, never the full future workload.
    ///
    /// Streamed injection is its own determinism domain: same-time events
    /// fire in push order, and pulling packets lazily interleaves pushes
    /// differently than [`Self::inject`]-all-then-[`Self::run`]. Two runs
    /// are comparable bit-for-bit when both use the same injection style;
    /// the streaming pipeline uses this one end to end.
    ///
    /// # Panics
    /// If the iterator yields a packet whose `injected_at` is earlier
    /// than one already consumed (debug builds).
    pub fn run_with_injections(&mut self, packets: impl IntoIterator<Item = Packet>) {
        let mut pending = packets.into_iter().peekable();
        let mut last_injected = SimTime::ZERO;
        loop {
            let due_now = match (pending.peek(), self.events.peek_time()) {
                (Some(p), Some(next)) => p.injected_at <= next,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if due_now {
                let p = pending.next().expect("peeked"); // lint:allow(panic-path): peek on the same iterator returned Some
                debug_assert!(
                    p.injected_at >= last_injected,
                    "run_with_injections needs an injection-time-sorted stream"
                );
                last_injected = p.injected_at;
                self.inject(p);
            } else {
                self.step();
            }
        }
    }

    /// Process all events up to and including time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(next) = self.events.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
    }

    /// Process one event if the next one is due at or before `t`.
    /// Returns false when the queue is exhausted or the next event lies
    /// beyond `t` — a single-step [`Self::run_until`], for callers that
    /// need to check state between events without overshooting a horizon.
    pub fn step_within(&mut self, t: SimTime) -> bool {
        match self.events.peek_time() {
            Some(next) if next <= t => self.step(),
            _ => false,
        }
    }

    /// Process one event. Returns false when the queue is exhausted.
    ///
    /// The observability hooks (`ups_obs::timer`/`count`/`count_max`) cost
    /// one relaxed load and a predictable branch each while the gate is
    /// off, and none of them mutates engine state.
    pub fn step(&mut self) -> bool {
        let _dispatch = ups_obs::timer(Phase::Dispatch);
        let Some((now, event)) = self.events.pop() else {
            return false;
        };
        self.stats.events += 1;
        ups_obs::count(
            match event {
                Event::Inject(_) => Counter::EventsInject,
                Event::Arrive { .. } => Counter::EventsArrive,
                Event::PortReady { .. } => Counter::EventsPortReady,
                Event::Timer { .. } => Counter::EventsTimer,
                Event::LinkState { .. } => Counter::EventsLinkState,
            },
            1,
        );
        match event {
            Event::Inject(pkt) => {
                self.stats.injected += 1;
                ups_obs::count_max(Counter::ArenaHighWater, self.arena.live() as u64);
                debug_assert_eq!(
                    self.arena.get(pkt).injected_at,
                    now,
                    "i(p) is the inject time"
                );
                self.trace.on_inject(self.arena.get(pkt).id);
                self.route(pkt, now);
            }
            Event::Arrive { node, pkt } => {
                let packet = self.arena.get(pkt);
                debug_assert_eq!(packet.current_node(), node, "packet routed to wrong node");
                if packet.at_destination() {
                    self.deliver(node, pkt, now);
                } else {
                    self.route(pkt, now);
                }
            }
            Event::PortReady { node, port, token } => {
                let _t = ups_obs::timer(Phase::Dequeue);
                // lint:allow(panic-path): node and port ids are dense handles issued by this simulator
                self.nodes[node.index()].ports[port.index()].on_ready(
                    token,
                    now,
                    &mut self.arena,
                    &mut self.events,
                    &mut self.trace,
                );
            }
            Event::Timer { agent, key } => {
                let mut api = SimApi {
                    now,
                    agent,
                    events: &mut self.events,
                    arena: &mut self.arena,
                    next_packet_id: &mut self.next_packet_id,
                };
                self.agents[agent.index()].on_timer(key, &mut api); // lint:allow(panic-path): agent ids are dense handles issued by this simulator
            }
            Event::LinkState { a, b, up } => self.apply_link_state(a, b, up, now),
        }
        if now.as_ps() >= self.next_sample_ps {
            self.sample(now);
        }
        true
    }

    /// Record one [`SimSample`] on the attached probe, folding every
    /// port into the queue totals. Out of line — this runs once per
    /// sample interval, not per event.
    #[cold]
    fn sample(&mut self, now: SimTime) {
        let Some(probe) = self.probe.as_ref() else {
            return;
        };
        let mut queued_packets = 0u64;
        let mut queued_bytes = 0u64;
        let mut max_port_depth = 0u64;
        for node in &self.nodes {
            for port in &node.ports {
                let depth = port.queue_len() as u64;
                queued_packets += depth;
                queued_bytes += port.queued_bytes();
                max_port_depth = max_port_depth.max(depth);
            }
        }
        probe.record(SimSample {
            t_ps: now.as_ps(),
            in_flight: self.arena.live() as u64,
            pending_events: self.events.len() as u64,
            queued_packets,
            queued_bytes,
            max_port_depth,
            events: self.stats.events,
        });
        // Next boundary strictly after `now`; idle gaps are not
        // backfilled (a quiet network yields no rows, not zero rows).
        self.next_sample_ps = now.as_ps().saturating_add(self.probe_interval_ps);
    }

    /// Flip both direction ports of link `a — b`, flushing displaced
    /// packets through the dead-link policy on a down transition. The
    /// oracle hears about the change first so its reroutes never use the
    /// newly-dead link; both ports are marked before any packet is
    /// diverted so a reroute cannot sneak through the reverse direction.
    fn apply_link_state(&mut self, a: NodeId, b: NodeId, up: bool, now: SimTime) {
        self.stats.link_events += 1;
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.link_state_changed(a, b, up, now);
        }
        let mut displaced = Vec::new();
        for (from, to) in [(a, b), (b, a)] {
            let pid = self.nodes[from.index()] // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
                .port_to(to)
                .unwrap_or_else(|| panic!("link-state event for missing link {from} -> {to}")); // lint:allow(panic-path): link-state schedules only reference links the builder created
            let port = &mut self.nodes[from.index()].ports[pid.index()]; // lint:allow(panic-path): port id was just resolved on this same node
            assert_ne!(
                port.up,
                up,
                "redundant link-state event {from} -> {to} (already {})",
                if up { "up" } else { "down" }
            );
            port.up = up;
            if !up {
                displaced.extend(port.flush_dead(now, &mut self.arena));
            }
        }
        for pkt in displaced {
            self.divert(pkt, now);
        }
    }

    /// Apply the dead-link policy to a packet whose next link is down:
    /// reroute it at its current hop (splicing the oracle's fresh path
    /// onto the executed prefix) or drop it with [`DropCause::DeadLink`].
    fn divert(&mut self, pkt: PacketRef, now: SimTime) {
        let _t = ups_obs::timer(Phase::Reroute);
        let (here, dst) = {
            let p = self.arena.get(pkt);
            (p.current_node(), p.dst())
        };
        let suffix = if self.dead_link_policy == DeadLinkPolicy::Reroute {
            // Temporarily lift the oracle out so it can't alias the arena.
            let mut oracle = self.oracle.take();
            let s = oracle.as_mut().and_then(|o| o.reroute(here, dst, now));
            self.oracle = oracle;
            s
        } else {
            None
        };
        match suffix {
            Some(suffix) => {
                debug_assert_eq!(suffix.first(), Some(&here), "suffix must start here");
                debug_assert_eq!(suffix.last(), Some(&dst), "suffix must end at dst");
                let p = self.arena.get_mut(pkt);
                let mut path: Vec<NodeId> = p.path[..p.hop as usize].to_vec();
                path.extend_from_slice(&suffix);
                p.path = PathId::intern(&path);
                // Any minimum-transit table was computed for the old path.
                p.tmin_rem = None;
                self.stats.rerouted += 1;
                self.forward(pkt, now);
            }
            None => {
                self.stats.dropped += 1;
                self.stats.dropped_dead_link += 1;
                self.trace.on_drop(&self.arena, pkt, DropCause::DeadLink);
                self.arena.free(pkt);
            }
        }
    }

    /// Record the hop arrival and enqueue `pkt` at the output port of its
    /// current node towards its next hop.
    fn route(&mut self, pkt: PacketRef, now: SimTime) {
        self.trace.on_arrive_at_hop(&self.arena, pkt, now);
        self.forward(pkt, now);
    }

    /// [`Self::route`] minus the hop-arrival record — also the re-entry
    /// point after a reroute, whose hop arrival was already recorded when
    /// the packet first reached this node.
    fn forward(&mut self, pkt: PacketRef, now: SimTime) {
        let packet = self.arena.get(pkt);
        let (path, hop) = (packet.path, packet.hop as usize);
        assert!(
            hop + 1 < path.len(),
            "forward() called on a packet at its destination"
        );
        let here = path[hop];
        let base = match self.egress_at.get(path.index()) {
            Some(&base) if base != NO_EGRESS => base,
            _ => self.resolve_egress(path),
        };
        // lint:allow(panic-path): the path's entry holds a port per hop but the last, and hop is not the last
        let port = self.egress_ports[base as usize + hop];
        // lint:allow(panic-path): node and port ids are dense handles issued by this simulator
        if !self.nodes[here.index()].ports[port.index()].up {
            // The precomputed path runs over a dead link.
            self.divert(pkt, now);
            return;
        }
        let drops = {
            let _t = ups_obs::timer(Phase::Enqueue);
            // lint:allow(panic-path): node and port ids are dense handles issued by this simulator
            self.nodes[here.index()].ports[port.index()].accept(
                pkt,
                now,
                &mut self.arena,
                &mut self.events,
                &mut self.trace,
            )
        };
        self.stats.dropped += drops.len() as u64;
        for victim in drops {
            self.arena.free(victim);
        }
    }

    /// Build `path`'s egress entry: the port out of each hop, checked
    /// once. Ports are never removed, so an entry stays valid for the
    /// simulator's life. Returns where the entry starts.
    #[cold]
    fn resolve_egress(&mut self, path: PathId) -> u32 {
        let base = self.egress_ports.len() as u32;
        for w in path.windows(2) {
            let (here, next) = (w[0], w[1]);
            let port = self.nodes[here.index()] // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
                .port_to(next)
                .unwrap_or_else(|| panic!("no link {here} -> {next} for packet path")); // lint:allow(panic-path): routed paths only traverse existing links
            self.egress_ports.push(port);
        }
        if path.index() >= self.egress_at.len() {
            self.egress_at.resize(path.index() + 1, NO_EGRESS);
        }
        self.egress_at[path.index()] = base; // lint:allow(panic-path): the table was just grown past the index
        base
    }

    /// Final-hop delivery: record exit, move the packet out of the arena,
    /// hand it to the node's agent.
    fn deliver(&mut self, node: NodeId, pkt: PacketRef, now: SimTime) {
        self.stats.delivered += 1;
        self.trace.on_exit(&self.arena, pkt, now);
        let packet = self.arena.take(pkt);
        // lint:allow(panic-path): NodeIds are issued densely by this simulator; index is in range by construction
        if let Some(agent) = self.agent_at[node.index()] {
            let mut api = SimApi {
                now,
                agent,
                events: &mut self.events,
                arena: &mut self.arena,
                next_packet_id: &mut self.next_packet_id,
            };
            self.agents[agent.index()].on_packet(packet, &mut api); // lint:allow(panic-path): agent ids are dense handles issued by this simulator
        }
    }

    /// Fraction of `[0, until]` each port spent transmitting, as
    /// `(node, peer, busy_fraction)` — used to verify workload calibration.
    pub fn port_utilizations(&self, until: SimTime) -> Vec<(NodeId, NodeId, f64)> {
        // lint:allow(ps-narrowing): calibration diagnostic — a busy
        // *fraction*; f64 rounding of the operands moves it by ~1e-16.
        let total = until.as_ps() as f64;
        self.nodes
            .iter()
            .flat_map(|n| {
                n.ports.iter().map(move |p| {
                    // lint:allow(ps-narrowing): same dimensionless fraction.
                    (n.id, p.peer, p.busy_time().as_ps() as f64 / total)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::FlowId;
    use crate::packet::{PacketBuilder, PacketKind};
    use crate::sched::SchedulerKind;
    use crate::time::Bandwidth;

    fn line_network(n: usize, kind: SchedulerKind) -> Simulator {
        // n nodes in a line, 1Gbps links, 10us propagation, both directions.
        let mut sim = Simulator::new(SimConfig {
            record: RecordMode::PerHop,
            ..SimConfig::default()
        });
        let link = Link {
            bandwidth: Bandwidth::from_gbps(1),
            propagation: Dur::from_us(10),
        };
        let ids: Vec<NodeId> = (0..n).map(|_| sim.add_node()).collect();
        for w in ids.windows(2) {
            sim.add_oneway_link(w[0], w[1], link, kind.build(1), None);
            sim.add_oneway_link(w[1], w[0], link, kind.build(2), None);
        }
        sim
    }

    fn pkt_on(path: &[u32], id: u64, at: SimTime) -> Packet {
        let path: PathId = path.iter().map(|&i| NodeId(i)).collect();
        PacketBuilder::new(PacketId(id), FlowId(id), 1500, path, at).build()
    }

    #[test]
    fn single_packet_end_to_end_timing() {
        let mut sim = line_network(3, SchedulerKind::Fifo);
        sim.inject(pkt_on(&[0, 1, 2], 0, SimTime::ZERO));
        sim.run();
        // Two store-and-forward hops: 2 × (12us tx + 10us prop) = 44us.
        let r = sim.trace().get(PacketId(0)).unwrap();
        assert_eq!(r.exited, Some(SimTime::from_us(44)));
        assert_eq!(r.total_wait, Dur::ZERO);
        assert_eq!(r.congestion_points(), 0);
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().injected, 1);
        assert_eq!(sim.packets_in_flight(), 0, "arena drained after delivery");
    }

    #[test]
    fn two_packets_queue_at_shared_port() {
        let mut sim = line_network(2, SchedulerKind::Fifo);
        sim.inject(pkt_on(&[0, 1], 0, SimTime::ZERO));
        sim.inject(pkt_on(&[0, 1], 1, SimTime::ZERO));
        sim.run();
        let r0 = sim.trace().get(PacketId(0)).unwrap();
        let r1 = sim.trace().get(PacketId(1)).unwrap();
        assert_eq!(r0.exited, Some(SimTime::from_us(22)));
        // Second packet waits 12us for the first.
        assert_eq!(r1.exited, Some(SimTime::from_us(34)));
        assert_eq!(r1.total_wait, Dur::from_us(12));
        assert_eq!(r1.congestion_points(), 1);
    }

    #[test]
    fn reverse_direction_uses_other_port() {
        let mut sim = line_network(2, SchedulerKind::Fifo);
        sim.inject(pkt_on(&[0, 1], 0, SimTime::ZERO));
        sim.inject(pkt_on(&[1, 0], 1, SimTime::ZERO));
        sim.run();
        // No interference: both exit at 22us.
        assert_eq!(
            sim.trace().get(PacketId(0)).unwrap().exited,
            Some(SimTime::from_us(22))
        );
        assert_eq!(
            sim.trace().get(PacketId(1)).unwrap().exited,
            Some(SimTime::from_us(22))
        );
    }

    struct Echo {
        /// node this agent sits on; replies retrace the packet's path.
        delivered: u64,
    }

    impl Agent for Echo {
        fn on_packet(&mut self, packet: Packet, api: &mut SimApi<'_>) {
            self.delivered += 1;
            if packet.kind == PacketKind::Data {
                // Send a 40B ack back along the reversed path.
                let rev: PathId = packet.path.iter().rev().copied().collect();
                let id = api.alloc_packet_id();
                let ack = PacketBuilder::new(id, packet.flow, 40, rev, api.now())
                    .ack()
                    .build();
                api.inject(ack);
            }
        }
        fn on_timer(&mut self, _key: u64, _api: &mut SimApi<'_>) {}
    }

    #[test]
    fn agent_echo_round_trip() {
        let mut sim = line_network(3, SchedulerKind::Fifo);
        sim.add_agent(NodeId(2), Box::new(Echo { delivered: 0 }));
        sim.add_agent(NodeId(0), Box::new(Echo { delivered: 0 }));
        sim.inject(pkt_on(&[0, 1, 2], 0, SimTime::ZERO));
        sim.run();
        // Data: 44us. Ack (40B): tx 0.32us/hop → 44 + 2*(0.32+10) us.
        assert_eq!(sim.stats().delivered, 2);
        let ack = sim.trace().get(PacketId(1)).unwrap();
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(
            ack.exited,
            Some(SimTime::from_us(44) + Dur::from_ns(2 * 10_320))
        );
    }

    struct TimerAgent {
        fired: Vec<u64>,
    }
    impl Agent for TimerAgent {
        fn on_packet(&mut self, _p: Packet, _api: &mut SimApi<'_>) {}
        fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
            self.fired.push(key);
            if key < 3 {
                api.set_timer(Dur::from_us(5), key + 1);
            }
        }
    }

    #[test]
    fn timers_chain() {
        let mut sim = line_network(2, SchedulerKind::Fifo);
        let _aid = sim.add_agent(NodeId(0), Box::new(TimerAgent { fired: vec![] }));
        // Bootstrap a timer by injecting through the event queue directly:
        sim.events.push(
            SimTime::from_us(1),
            Event::Timer {
                agent: AgentId(0),
                key: 0,
            },
        );
        sim.run();
        assert_eq!(sim.now(), SimTime::from_us(16));
        assert_eq!(sim.stats().events, 4);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = line_network(2, SchedulerKind::Fifo);
        sim.inject(pkt_on(&[0, 1], 0, SimTime::ZERO));
        sim.inject(pkt_on(&[0, 1], 1, SimTime::from_ms(5)));
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(sim.stats().delivered, 1);
        sim.run_until(SimTime::from_ms(10));
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn utilization_accounting() {
        let mut sim = line_network(2, SchedulerKind::Fifo);
        // 50 packets × 12us = 600us busy.
        for i in 0..50 {
            sim.inject(pkt_on(&[0, 1], i, SimTime::ZERO));
        }
        sim.run();
        let utils = sim.port_utilizations(SimTime::from_us(1200));
        let fwd = utils
            .iter()
            .find(|(a, b, _)| *a == NodeId(0) && *b == NodeId(1))
            .unwrap();
        assert!((fwd.2 - 0.5).abs() < 1e-9, "expected 50% got {}", fwd.2);
    }

    #[test]
    fn dropped_packets_free_their_arena_slots() {
        let mut sim = Simulator::new(SimConfig::default());
        let a = sim.add_node();
        let b = sim.add_node();
        let link = Link {
            bandwidth: Bandwidth::from_gbps(1),
            propagation: Dur::ZERO,
        };
        // Tiny buffer: one queued packet only.
        sim.add_oneway_link(a, b, link, SchedulerKind::Fifo.build(0), Some(1500));
        for i in 0..5 {
            sim.inject(pkt_on(&[0, 1], i, SimTime::ZERO));
        }
        sim.run();
        assert!(sim.stats().dropped > 0);
        assert_eq!(
            sim.stats().delivered + sim.stats().dropped,
            sim.stats().injected
        );
        assert_eq!(sim.packets_in_flight(), 0, "drops must free arena slots");
    }

    /// A fixed-answer oracle: reroutes everything via the given path.
    struct CannedOracle {
        path: Option<Vec<NodeId>>,
        changes: Vec<(NodeId, NodeId, bool)>,
    }

    impl RerouteOracle for CannedOracle {
        fn link_state_changed(&mut self, a: NodeId, b: NodeId, up: bool, _now: SimTime) {
            self.changes.push((a, b, up));
        }
        fn reroute(&mut self, here: NodeId, dst: NodeId, _now: SimTime) -> Option<PathId> {
            self.path.as_ref().map(|p| {
                assert_eq!(p.first(), Some(&here));
                assert_eq!(p.last(), Some(&dst));
                PathId::intern(p)
            })
        }
    }

    /// Triangle 0-1-2 with all three bidirectional links; traffic 0→2
    /// via the direct link, detour via 1 available.
    fn triangle(kind: SchedulerKind) -> Simulator {
        triangle_recording(kind, RecordMode::EndToEnd)
    }

    fn triangle_recording(kind: SchedulerKind, record: RecordMode) -> Simulator {
        let mut sim = Simulator::new(SimConfig {
            record,
            ..SimConfig::default()
        });
        let link = Link {
            bandwidth: Bandwidth::from_gbps(1),
            propagation: Dur::from_us(10),
        };
        let ids: Vec<NodeId> = (0..3).map(|_| sim.add_node()).collect();
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            sim.add_oneway_link(ids[a], ids[b], link, kind.build(1), None);
            sim.add_oneway_link(ids[b], ids[a], link, kind.build(2), None);
        }
        sim
    }

    #[test]
    fn dead_link_drop_policy_loses_queued_packets_with_cause() {
        let mut sim = triangle(SchedulerKind::Fifo);
        // Two packets on the direct 0→2 link; it dies while the second
        // still queues (first is mid-serialization at 6us).
        sim.inject(pkt_on(&[0, 2], 0, SimTime::ZERO));
        sim.inject(pkt_on(&[0, 2], 1, SimTime::ZERO));
        sim.schedule_link_state(SimTime::from_us(6), NodeId(0), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped, 2);
        assert_eq!(sim.stats().dropped_dead_link, 2);
        assert_eq!(sim.stats().link_events, 1);
        assert_eq!(sim.packets_in_flight(), 0, "dead-link drops free slots");
        let r = sim.trace().get(PacketId(0)).unwrap();
        assert!(r.dropped);
        assert_eq!(r.drop_cause, Some(DropCause::DeadLink));
    }

    #[test]
    fn bits_already_on_the_wire_still_land() {
        let mut sim = triangle(SchedulerKind::Fifo);
        // The packet's last bit leaves node 0 at 12us; the link dies at
        // 13us while the packet is in propagation. It must still arrive.
        sim.inject(pkt_on(&[0, 2], 0, SimTime::ZERO));
        sim.schedule_link_state(SimTime::from_us(13), NodeId(0), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn reroute_policy_splices_the_detour_and_updates_the_trace() {
        let mut sim = triangle(SchedulerKind::Fifo);
        sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
        sim.set_reroute_oracle(Box::new(CannedOracle {
            path: Some(vec![NodeId(0), NodeId(1), NodeId(2)]),
            changes: Vec::new(),
        }));
        sim.inject(pkt_on(&[0, 2], 0, SimTime::ZERO));
        // Dies at 6us, mid-serialization: the transmission aborts and the
        // packet re-enters at node 0 towards node 1.
        sim.schedule_link_state(SimTime::from_us(6), NodeId(0), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().rerouted, 1);
        assert_eq!(sim.stats().dropped, 0);
        let r = sim.trace().get(PacketId(0)).unwrap();
        let want: Vec<NodeId> = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(&*r.path, &want[..], "as-executed path recorded");
        // Detour timing: abort at 6us, fresh 12us tx to 1, 10us prop,
        // then 12us tx + 10us prop to 2 = 50us.
        assert_eq!(r.exited, Some(SimTime::from_us(50)));
    }

    #[test]
    fn displaced_preempted_packet_restarts_a_full_transmission() {
        // Regression: a packet preempted mid-transmission carries
        // remaining_tx when it is re-queued; if its link then dies and it
        // is rerouted, it must serialize *in full* on the detour — the
        // partial-transmission credit belonged to the dead link.
        let mut sim = triangle(SchedulerKind::Lstf { preemptive: true });
        sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
        sim.set_reroute_oracle(Box::new(CannedOracle {
            path: Some(vec![NodeId(0), NodeId(1), NodeId(2)]),
            changes: Vec::new(),
        }));
        // Big lazy packet starts at t=0 (15000B = 120us tx).
        let path = PathId::from(vec![NodeId(0), NodeId(2)]);
        sim.inject(
            PacketBuilder::new(PacketId(0), FlowId(0), 15000, path, SimTime::ZERO)
                .slack(Dur::from_secs(1).as_ps() as i128)
                .build(),
        );
        // Urgent packet preempts it at 30us; big re-queues with 90us of
        // transmission left.
        sim.inject(
            PacketBuilder::new(PacketId(1), FlowId(1), 1500, path, SimTime::from_us(30)).build(),
        );
        // The direct link dies at 35us: urgent (in flight) aborts, big
        // (queued, remaining_tx = Some(90us)) flushes; both reroute.
        sim.schedule_link_state(SimTime::from_us(35), NodeId(0), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().delivered, 2);
        assert_eq!(sim.stats().rerouted, 2);
        // Urgent: fresh 12us tx from 35us on 0→1, 10us prop, 12us tx on
        // 1→2, 10us prop = 79us.
        assert_eq!(
            sim.trace().get(PacketId(1)).unwrap().exited,
            Some(SimTime::from_us(79))
        );
        // Big: waits for urgent (until 47us), then a FULL 120us tx on
        // 0→1 — not the leftover 90us — then 120us on 1→2:
        // 47 + 120 + 10 + 120 + 10 = 307us.
        assert_eq!(
            sim.trace().get(PacketId(0)).unwrap().exited,
            Some(SimTime::from_us(307))
        );
    }

    #[test]
    fn arriving_at_a_dead_next_link_diverts_too() {
        let mut sim = triangle(SchedulerKind::Fifo);
        sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
        sim.set_reroute_oracle(Box::new(CannedOracle {
            path: Some(vec![NodeId(1), NodeId(0), NodeId(2)]),
            changes: Vec::new(),
        }));
        // Path 0→1→2; the 1→2 link dies before the packet reaches 1.
        sim.inject(pkt_on(&[0, 1, 2], 0, SimTime::ZERO));
        sim.schedule_link_state(SimTime::from_us(1), NodeId(1), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().rerouted, 1);
        let r = sim.trace().get(PacketId(0)).unwrap();
        let want: Vec<NodeId> = vec![NodeId(0), NodeId(1), NodeId(0), NodeId(2)];
        assert_eq!(&*r.path, &want[..], "detour may backtrack");
    }

    /// A rerouted packet's hop list follows the links it crossed: sized
    /// for the routed path on its first hop, it grows when the splice
    /// makes the path longer.
    #[test]
    fn per_hop_record_of_a_rerouted_packet_lists_its_executed_hops() {
        let mut sim = triangle_recording(SchedulerKind::Fifo, RecordMode::PerHop);
        sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
        sim.set_reroute_oracle(Box::new(CannedOracle {
            path: Some(vec![NodeId(1), NodeId(0), NodeId(2)]),
            changes: Vec::new(),
        }));
        sim.inject(pkt_on(&[0, 1, 2], 0, SimTime::ZERO));
        sim.schedule_link_state(SimTime::from_us(1), NodeId(1), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().rerouted, 1);
        let r = sim.trace().get(PacketId(0)).unwrap();
        assert_eq!(r.hops.len(), r.path.len() - 1);
        let hops: Vec<(NodeId, SimTime)> = r.hops.iter().map(|h| (h.node, h.arrived)).collect();
        // 12us tx + 10us prop per link, no queueing.
        let want = [(0, 0), (1, 22), (0, 44)].map(|(n, t)| (NodeId(n), SimTime::from_us(t)));
        assert_eq!(hops, want);
    }

    /// Every `PerHop` record holds one hop per link of its path in one
    /// exact allocation, whatever the path's length; an `EndToEnd` record
    /// allocates no hop list at all.
    #[test]
    fn hop_lists_are_exact_under_per_hop_and_unallocated_otherwise() {
        let paths: [&[u32]; 3] = [&[0, 1, 2, 3], &[3, 2, 1], &[1, 2]];
        let mut sim = line_network(4, SchedulerKind::Fifo);
        for i in 0..30 {
            sim.inject(pkt_on(paths[i as usize % 3], i, SimTime::from_us(i / 4)));
        }
        sim.run();
        // `get` reads the stored record; a stream would hand out clones.
        let trace = sim.into_trace();
        let records: Vec<_> = (0..30).map(|i| trace.get(PacketId(i)).unwrap()).collect();
        for (id, r) in records.iter().enumerate() {
            assert!(r.exited.is_some(), "packet {id}");
            assert_eq!(r.hops.len(), r.path.len() - 1, "packet {id}");
            assert_eq!(r.hops.capacity(), r.hops.len(), "packet {id}");
        }
        assert!(records.iter().any(|r| r.congestion_points() > 0));

        let mut sim = triangle(SchedulerKind::Fifo);
        for i in 0..10 {
            sim.inject(pkt_on(&[0, 1, 2], i, SimTime::ZERO));
        }
        sim.run();
        let trace = sim.into_trace();
        for i in 0..10 {
            let r = trace.get(PacketId(i)).unwrap();
            assert!(r.exited.is_some() && r.hops.capacity() == 0, "packet {i}");
        }
    }

    #[test]
    fn reroute_without_an_alternative_drops() {
        let mut sim = triangle(SchedulerKind::Fifo);
        sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
        sim.set_reroute_oracle(Box::new(CannedOracle {
            path: None, // "destination unreachable"
            changes: Vec::new(),
        }));
        sim.inject(pkt_on(&[0, 2], 0, SimTime::ZERO));
        sim.schedule_link_state(SimTime::from_us(3), NodeId(0), NodeId(2), false);
        sim.run();
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped_dead_link, 1);
        assert_eq!(sim.packets_in_flight(), 0);
    }

    #[test]
    fn link_comes_back_up_and_serves_again() {
        let mut sim = triangle(SchedulerKind::Fifo);
        sim.schedule_link_state(SimTime::from_us(1), NodeId(0), NodeId(2), false);
        sim.schedule_link_state(SimTime::from_us(100), NodeId(0), NodeId(2), true);
        // Injected during the outage: dropped. Injected after recovery:
        // delivered over the restored link.
        sim.inject(pkt_on(&[0, 2], 0, SimTime::from_us(50)));
        sim.inject(pkt_on(&[0, 2], 1, SimTime::from_us(200)));
        sim.run();
        assert_eq!(sim.stats().dropped_dead_link, 1);
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(
            sim.trace().get(PacketId(1)).unwrap().exited,
            Some(SimTime::from_us(222))
        );
        assert_eq!(sim.stats().link_events, 2);
    }

    #[test]
    #[should_panic(expected = "redundant link-state event")]
    fn redundant_link_events_are_rejected() {
        let mut sim = triangle(SchedulerKind::Fifo);
        sim.schedule_link_state(SimTime::from_us(1), NodeId(0), NodeId(2), true);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "missing link")]
    fn link_state_on_missing_link_panics() {
        let mut sim = line_network(2, SchedulerKind::Fifo);
        sim.schedule_link_state(SimTime::ZERO, NodeId(0), NodeId(7), false);
    }

    #[test]
    fn oracle_hears_every_change_before_flush() {
        let mut sim = triangle(SchedulerKind::Fifo);
        sim.set_dead_link_policy(DeadLinkPolicy::Reroute);
        sim.set_reroute_oracle(Box::new(CannedOracle {
            path: Some(vec![NodeId(0), NodeId(1), NodeId(2)]),
            changes: Vec::new(),
        }));
        sim.schedule_link_state(SimTime::from_us(1), NodeId(0), NodeId(2), false);
        sim.schedule_link_state(SimTime::from_us(2), NodeId(0), NodeId(2), true);
        sim.run();
        // The oracle is consumed with the simulator; verify indirectly:
        // both events processed without panic and stats counted them.
        assert_eq!(sim.stats().link_events, 2);
    }

    #[test]
    fn probe_samples_without_changing_the_schedule() {
        let run = |probed: bool| {
            let mut sim = line_network(2, SchedulerKind::Lstf { preemptive: false });
            let shared = ups_obs::SharedProbe::new(12_000_000); // 12 µs: one tx time
            if probed {
                sim.set_probe(shared.clone());
            }
            for i in 0..20 {
                sim.inject(pkt_on(&[0, 1], i, SimTime::ZERO));
            }
            sim.run();
            (sim.stats(), sim.into_trace(), shared)
        };
        let (stats_off, trace_off, _) = run(false);
        let (stats_on, trace_on, shared) = run(true);
        assert_eq!(stats_off, stats_on, "probe must not alter stats");
        assert_eq!(trace_off, trace_on, "probe must not alter the schedule");
        let series = shared.take_series();
        assert!(!series.rows.is_empty(), "20 tx × 12us crosses ticks");
        assert!(series.rows[0].queued_packets > 0);
        // Ticks advance in virtual time and never repeat.
        for w in series.rows.windows(2) {
            assert!(w[1].t_ps > w[0].t_ps);
        }
    }

    #[test]
    fn egress_ports_are_resolved_once_per_path() {
        let mut sim = line_network(4, SchedulerKind::Fifo);
        for i in 0..20 {
            let path: &[u32] = if i % 2 == 0 {
                &[0, 1, 2, 3]
            } else {
                &[3, 2, 1]
            };
            sim.inject(pkt_on(path, i, SimTime::from_us(i)));
        }
        sim.run();
        assert_eq!(sim.stats().delivered, 20);
        // Three hops out of the first path and two out of the second,
        // however many packets took them.
        assert_eq!(sim.egress_ports.len(), 5);
        let forward = PathId::from(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let base = sim.egress_at[forward.index()] as usize;
        for (hop, w) in forward.windows(2).enumerate() {
            assert_eq!(
                Some(sim.egress_ports[base + hop]),
                sim.node(w[0]).port_to(w[1])
            );
        }
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn missing_link_panics() {
        let mut sim = Simulator::new(SimConfig::default());
        let a = sim.add_node();
        let b = sim.add_node();
        let _c = sim.add_node();
        sim.add_oneway_link(
            a,
            b,
            Link {
                bandwidth: Bandwidth::from_gbps(1),
                propagation: Dur::ZERO,
            },
            SchedulerKind::Fifo.build(0),
            None,
        );
        // Path 0 -> 2 has no link.
        sim.inject(pkt_on(&[0, 2], 0, SimTime::ZERO));
        sim.run();
    }
}
