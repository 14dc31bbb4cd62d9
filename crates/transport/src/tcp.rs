//! A simplified TCP (Reno family) for the §3 experiments.
//!
//! The paper's Figure 2 (mean FCT) and Figure 4 (fairness) drive the
//! network with ns-2 TCP flows; what those experiments need from the
//! transport is **self-clocking** (acks gate the send window),
//! **loss-driven backoff** (5 MB FIFO buffers drop under 70% load) and
//! **bandwidth probing** (long-lived flows must converge to the
//! bottleneck share). This implementation provides slow start,
//! congestion avoidance, triple-duplicate-ack fast retransmit, RTO with
//! exponential backoff and go-back-N recovery.
//!
//! Deliberate simplifications (recorded in DESIGN.md §4): no handshake or
//! teardown, no SACK, no delayed acks, no receive-window limit, fast
//! recovery collapses to `cwnd = ssthresh`. None of these change which
//! scheduler wins in Figures 2/4 — they shift absolute FCTs only.
//!
//! ## Header stamping
//!
//! Every data packet is stamped with `flow_size`/`remaining` (so SJF and
//! SRPT routers can prioritize) and with a slack per the configured
//! [`SlackPolicy`] — this is where the §3 heuristics meet the wire.

use std::collections::BTreeMap;
use std::sync::Arc;

use ups_core::FairnessSlackAssigner;
use ups_netsim::prelude::{
    Agent, Dur, FlowId, NodeId, Packet, PacketBuilder, PacketKind, SimApi, SimTime, Simulator,
};
use ups_topology::{Routing, Topology};
use ups_workload::FlowSpec;

use crate::stats::{FlowCompletion, TransportStats};

/// Segment size in bytes (on-wire packet size; the paper's MTU).
const MSS: u32 = ups_workload::MTU;
/// Ack packet size in bytes.
const ACK_SIZE: u32 = 40;
/// Initial congestion window in segments.
const INIT_CWND_SEGMENTS: u32 = 10;
/// Upper bound for the RTO after backoff.
const RTO_MAX: Dur = Dur::from_secs(4);

/// Transport-level tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Lower bound for the retransmission timeout. Sim-scale default
    /// (10 ms) rather than RFC 6298's 1 s — the experiments simulate
    /// fractions of a second.
    pub rto_min: Dur,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            rto_min: Dur::from_ms(10),
        }
    }
}

/// How data-packet slack headers are initialized (§3).
#[derive(Debug, Clone)]
pub enum SlackPolicy {
    /// Leave headers zero — for FIFO/FQ/SJF/SRPT networks that don't read
    /// slack.
    None,
    /// §3.1: `slack = flow_size × D` (D = 1 s). LSTF approximates SJF.
    FctSjf,
    /// §3.2: every packet gets the same slack — LSTF becomes FIFO+.
    Constant(i128),
    /// §3.3: Virtual-Clock accumulation with the given `r_est` (bits/s).
    Fairness(u64),
    /// §3.3's weighted extension: base `r_est` plus per-flow weights
    /// (flows not listed default to weight 1). A weight-w flow converges
    /// to w× the base share.
    WeightedFairness {
        /// Base fair-rate estimate in bits/s.
        rest_bps: u64,
        /// (flow, weight) overrides.
        weights: Vec<(FlowId, f64)>,
    },
}

/// Per-host TCP endpoint: all senders and receivers living on one host.
struct TcpHost {
    node: NodeId,
    config: TcpConfig,
    policy: SlackPolicy,
    fairness: FairnessSlackAssigner,
    senders: Vec<TcpSender>,
    sender_index: BTreeMap<FlowId, usize>,
    receivers: BTreeMap<FlowId, TcpReceiver>,
    stats: TransportStats,
}

/// Timer keys: flow-local index × 2 (+1 for RTO, +0 for start).
const KEY_START: u64 = 0;
const KEY_RTO: u64 = 1;

struct TcpSender {
    flow: FlowId,
    size: u64,
    start: SimTime,
    path: Arc<[NodeId]>,
    next_seq: u64,
    acked: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    /// seq → (send time, was retransmitted) for RTT sampling.
    send_times: BTreeMap<u64, (SimTime, bool)>,
    srtt: Option<Dur>,
    rttvar: Dur,
    rto: Dur,
    rto_deadline: Option<SimTime>,
    timer_armed: bool,
    /// Fast-retransmit high-water mark: no second fast retransmit until
    /// acks pass this.
    recovery_until: u64,
    /// Highest byte ever sent (`next_seq` rewinds on RTO; this doesn't).
    /// Any segment below it is a retransmission — fast retransmit and
    /// go-back-N alike — for both Karn's rule and the retransmit counter.
    high_seq: u64,
    started: bool,
}

struct TcpReceiver {
    flow: FlowId,
    size: u64,
    started: SimTime,
    reverse_path: Arc<[NodeId]>,
    expected: u64,
    /// Out-of-order segments: seq → len.
    ooo: BTreeMap<u64, u32>,
    completed: bool,
}

impl TcpSender {
    fn new(spec: &FlowSpec) -> Self {
        TcpSender {
            flow: spec.id,
            size: spec.size,
            start: spec.start,
            path: spec.path.clone(),
            next_seq: 0,
            acked: 0,
            cwnd: (INIT_CWND_SEGMENTS * MSS) as f64,
            ssthresh: f64::MAX,
            dupacks: 0,
            send_times: BTreeMap::new(),
            srtt: None,
            rttvar: Dur::ZERO,
            rto: Dur::from_ms(100),
            rto_deadline: None,
            timer_armed: false,
            recovery_until: 0,
            high_seq: 0,
            started: false,
        }
    }

    fn inflight(&self) -> u64 {
        // `next_seq` can transiently sit below `acked` when a late ack
        // (for data sent before an RTO rollback) arrives; see `on_ack`.
        self.next_seq.saturating_sub(self.acked)
    }

    fn done(&self) -> bool {
        self.size != u64::MAX && self.acked >= self.size
    }

    fn rtt_sample(&mut self, sample: Dur, rto_min: Dur) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = Dur::from_ps(sample.as_ps() / 2);
            }
            Some(srtt) => {
                let diff = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = Dur::from_ps((3 * self.rttvar.as_ps() + diff.as_ps()) / 4);
                self.srtt = Some(Dur::from_ps((7 * srtt.as_ps() + sample.as_ps()) / 8));
            }
        }
        let candidate = self.srtt.expect("just set")
            + Dur::from_ps((4 * self.rttvar.as_ps()).max(Dur::from_ms(1).as_ps()));
        self.rto = candidate.clamp(rto_min, RTO_MAX);
    }
}

impl TcpHost {
    fn stamp_header(
        &mut self,
        sender_idx: usize,
        seq: u64,
        len: u32,
        now: SimTime,
    ) -> (i128, u64, u64) {
        let s = &self.senders[sender_idx];
        let remaining = if s.size == u64::MAX {
            u64::MAX
        } else {
            s.size.saturating_sub(seq)
        };
        let slack = match self.policy {
            SlackPolicy::None => 0,
            SlackPolicy::FctSjf => {
                if s.size == u64::MAX {
                    ups_core::fct_slack(u64::MAX / 2, ups_core::FCT_D)
                } else {
                    ups_core::fct_slack(s.size, ups_core::FCT_D)
                }
            }
            SlackPolicy::Constant(c) => c,
            SlackPolicy::Fairness(_) | SlackPolicy::WeightedFairness { .. } => {
                let before = self.fairness.out_of_order_arrivals();
                let slack = self.fairness.slack_for(s.flow, now, len);
                let clamped = self.fairness.out_of_order_arrivals() - before;
                if clamped > 0 {
                    // Surfaced as a run-level warning counter: the §3.3
                    // recurrence was fed against arrival order.
                    self.stats.record_slack_out_of_order(clamped);
                }
                slack
            }
        };
        (slack, s.size, remaining)
    }

    /// Transmit as much new data as the window allows.
    fn pump(&mut self, idx: usize, api: &mut SimApi<'_>) {
        loop {
            let s = &self.senders[idx];
            if s.done() {
                return;
            }
            let remaining_bytes = if s.size == u64::MAX {
                u64::MAX
            } else {
                s.size.saturating_sub(s.next_seq)
            };
            if remaining_bytes == 0 {
                return;
            }
            let len = remaining_bytes.min(MSS as u64) as u32;
            if s.inflight() + len as u64 > s.cwnd as u64 {
                return;
            }
            let seq = s.next_seq;
            self.send_segment(idx, seq, len, api);
            let s = &mut self.senders[idx];
            s.next_seq += len as u64;
        }
    }

    fn send_segment(&mut self, idx: usize, seq: u64, len: u32, api: &mut SimApi<'_>) {
        let now = api.now();
        let (slack, flow_size, remaining) = self.stamp_header(idx, seq, len, now);
        // Anything below the historic high-water mark is a re-send: the
        // fast-retransmit segment, and every go-back-N segment `pump`
        // re-emits after an RTO rewound `next_seq`.
        let retransmit = seq < self.senders[idx].high_seq;
        if retransmit {
            self.stats.record_retransmit(self.senders[idx].flow);
        }
        let s = &mut self.senders[idx];
        s.high_seq = s.high_seq.max(seq + len as u64);
        let id = api.alloc_packet_id();
        let pkt = PacketBuilder::new(id, s.flow, len, s.path.clone(), now)
            .seq(seq)
            .flow_bytes(flow_size, remaining)
            .slack(slack)
            .build();
        api.inject(pkt);
        s.send_times
            .entry(seq)
            .and_modify(|e| *e = (now, true))
            .or_insert((now, retransmit));
        // Arm/refresh the retransmission deadline.
        s.rto_deadline = Some(now + s.rto);
        if !s.timer_armed {
            s.timer_armed = true;
            let key = (idx as u64) << 1 | KEY_RTO;
            api.set_timer(s.rto, key);
        }
    }

    fn on_ack(&mut self, idx: usize, ack: u64, api: &mut SimApi<'_>) {
        let rto_min = self.config.rto_min;
        let s = &mut self.senders[idx];
        if s.done() {
            return;
        }
        if ack > s.acked {
            // New data acknowledged.
            // RTT sample from the oldest fully-acked, never-retransmitted
            // segment (Karn's rule).
            let covered: Vec<u64> = s.send_times.range(..ack).map(|(&seq, _)| seq).collect();
            let now = api.now();
            for seq in covered {
                let (sent, retx) = s.send_times.remove(&seq).expect("key exists");
                if !retx {
                    let sample = now.saturating_since(sent);
                    s.rtt_sample(sample, rto_min);
                }
            }
            let newly = ack - s.acked;
            s.acked = ack;
            // A late ack may cover data beyond an RTO rollback point;
            // never re-send what the receiver already has.
            s.next_seq = s.next_seq.max(ack);
            s.dupacks = 0;
            // Window growth: slow start below ssthresh, else AIMD.
            if s.cwnd < s.ssthresh {
                s.cwnd += newly as f64;
            } else {
                s.cwnd += (MSS as f64) * (newly as f64) / s.cwnd;
            }
            if s.acked >= s.recovery_until {
                s.recovery_until = 0;
            }
            // Refresh RTO horizon.
            s.rto_deadline = if s.inflight() > 0 {
                Some(api.now() + s.rto)
            } else {
                None
            };
            if s.done() {
                s.rto_deadline = None;
                return self.pump_next_done(idx);
            }
            self.pump(idx, api);
        } else if ack == s.acked && s.inflight() > 0 {
            s.dupacks += 1;
            if s.dupacks == 3 && s.acked >= s.recovery_until {
                // Fast retransmit + simplified recovery.
                let inflight = s.inflight() as f64;
                s.ssthresh = (inflight / 2.0).max(2.0 * MSS as f64);
                s.cwnd = s.ssthresh;
                s.recovery_until = s.next_seq;
                let seq = s.acked;
                let len = self.segment_len(idx, seq);
                self.send_segment(idx, seq, len, api);
            }
        }
    }

    fn segment_len(&self, idx: usize, seq: u64) -> u32 {
        let s = &self.senders[idx];
        let remaining = if s.size == u64::MAX {
            u64::MAX
        } else {
            s.size.saturating_sub(seq)
        };
        remaining.min(MSS as u64) as u32
    }

    fn pump_next_done(&mut self, _idx: usize) {
        // Sender finished; receiver-side completion is recorded at the
        // destination host. Nothing further to do.
    }

    fn on_rto_timer(&mut self, idx: usize, api: &mut SimApi<'_>) {
        let s = &mut self.senders[idx];
        s.timer_armed = false;
        let Some(deadline) = s.rto_deadline else {
            return; // everything acked meanwhile
        };
        let now = api.now();
        if now < deadline {
            // Deadline moved forward since the timer was armed; re-arm.
            s.timer_armed = true;
            let key = (idx as u64) << 1 | KEY_RTO;
            api.set_timer(deadline - now, key);
            return;
        }
        if s.done() || s.inflight() == 0 {
            s.rto_deadline = None;
            return;
        }
        // Timeout: multiplicative backoff, shrink to one segment,
        // go-back-N from the last cumulative ack.
        self.stats.record_timeout(s.flow);
        let s = &mut self.senders[idx];
        let inflight = s.inflight() as f64;
        s.ssthresh = (inflight / 2.0).max(2.0 * MSS as f64);
        s.cwnd = MSS as f64;
        s.rto = Dur::from_ps((s.rto.as_ps() * 2).min(RTO_MAX.as_ps()));
        s.dupacks = 0;
        s.recovery_until = 0;
        s.next_seq = s.acked;
        s.send_times.clear();
        self.pump(idx, api);
    }

    fn on_data(&mut self, pkt: &Packet, api: &mut SimApi<'_>) {
        let Some(r) = self.receivers.get_mut(&pkt.flow) else {
            return; // stray packet (e.g. after test teardown)
        };
        if r.completed {
            // Still ack so the sender can finish cleanly.
        }
        let seq = pkt.seq;
        let len = pkt.size;
        let before = r.expected;
        if seq <= r.expected && seq + len as u64 > r.expected {
            r.expected = seq + len as u64;
            // Drain contiguous out-of-order segments.
            while let Some((&s, &l)) = r.ooo.first_key_value() {
                if s <= r.expected {
                    r.ooo.remove(&s);
                    r.expected = r.expected.max(s + l as u64);
                } else {
                    break;
                }
            }
        } else if seq > r.expected {
            r.ooo.insert(seq, len);
        }
        let advanced = r.expected - before;
        if advanced > 0 {
            self.stats.record_goodput(pkt.flow, api.now(), advanced);
        }
        if !r.completed && r.size != u64::MAX && r.expected >= r.size {
            r.completed = true;
            self.stats.record_completion(FlowCompletion {
                flow: r.flow,
                bytes: r.size,
                started: r.started,
                finished: api.now(),
            });
        }
        // Cumulative ack; acks carry the ack number in `seq` and are
        // maximally urgent (zero slack) so transport control never starves.
        let id = api.alloc_packet_id();
        let ack = PacketBuilder::new(id, r.flow, ACK_SIZE, r.reverse_path.clone(), api.now())
            .seq(r.expected)
            .ack()
            .build();
        api.inject(ack);
    }
}

impl Agent for TcpHost {
    fn on_packet(&mut self, packet: Packet, api: &mut SimApi<'_>) {
        debug_assert_eq!(packet.dst(), self.node, "delivered to the wrong host");
        match packet.kind {
            PacketKind::Data => self.on_data(&packet, api),
            PacketKind::Ack => {
                if let Some(&idx) = self.sender_index.get(&packet.flow) {
                    self.on_ack(idx, packet.seq, api);
                }
            }
        }
    }

    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        let idx = (key >> 1) as usize;
        if idx >= self.senders.len() {
            return;
        }
        if key & 1 == KEY_RTO {
            self.on_rto_timer(idx, api);
        } else if key & 1 == KEY_START && !self.senders[idx].started {
            self.senders[idx].started = true;
            self.pump(idx, api);
        }
    }
}

/// Install TCP endpoints for `flows` into `sim`: one agent per involved
/// host, senders kicked at their flow start times. Returns nothing; all
/// measurement flows through `stats`.
pub fn install_tcp(
    sim: &mut Simulator,
    _topo: &Topology,
    routing: &mut Routing,
    flows: &[FlowSpec],
    config: TcpConfig,
    policy: SlackPolicy,
    stats: &TransportStats,
) {
    // Group flows by src and dst host.
    let mut hosts: BTreeMap<NodeId, TcpHost> = BTreeMap::new();
    let rest = match &policy {
        SlackPolicy::Fairness(r) => *r,
        SlackPolicy::WeightedFairness { rest_bps, .. } => *rest_bps,
        _ => 1, // unused
    };
    let mk_fairness = || {
        let mut f = FairnessSlackAssigner::new(rest);
        if let SlackPolicy::WeightedFairness { weights, .. } = &policy {
            for &(flow, w) in weights {
                f.set_weight(flow, w);
            }
        }
        f
    };
    let host_entry = |hosts: &mut BTreeMap<NodeId, TcpHost>, node: NodeId| {
        hosts.entry(node).or_insert_with(|| TcpHost {
            node,
            config,
            policy: policy.clone(),
            fairness: mk_fairness(),
            senders: Vec::new(),
            sender_index: BTreeMap::new(),
            receivers: BTreeMap::new(),
            stats: stats.clone(),
        });
    };
    for f in flows {
        host_entry(&mut hosts, f.src);
        host_entry(&mut hosts, f.dst);
        let sender_host = hosts.get_mut(&f.src).expect("just inserted");
        let idx = sender_host.senders.len();
        sender_host.senders.push(TcpSender::new(f));
        sender_host.sender_index.insert(f.id, idx);
        let reverse_path = routing.path(f.dst, f.src);
        let recv_host = hosts.get_mut(&f.dst).expect("just inserted");
        recv_host.receivers.insert(
            f.id,
            TcpReceiver {
                flow: f.id,
                size: f.size,
                started: f.start,
                reverse_path,
                expected: 0,
                ooo: BTreeMap::new(),
                completed: false,
            },
        );
    }
    // Register agents (deterministic order) and kick senders.
    let mut nodes: Vec<NodeId> = hosts.keys().copied().collect();
    nodes.sort();
    for node in nodes {
        let host = hosts.remove(&node).expect("key from map");
        let starts: Vec<(usize, SimTime)> = host
            .senders
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.start))
            .collect();
        let agent = sim.add_agent(node, Box::new(host));
        for (idx, at) in starts {
            sim.schedule_timer(agent, at, (idx as u64) << 1 | KEY_START);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_metrics::jain_index;
    use ups_netsim::prelude::*;
    use ups_topology::{build_simulator, dumbbell, BuildOptions, SchedulerAssignment};

    fn two_host_setup(
        bottleneck_gbps: u64,
        buffer: Option<u64>,
        kind: SchedulerKind,
    ) -> (ups_topology::Topology, Simulator, TransportStats) {
        let topo = dumbbell(
            2,
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(bottleneck_gbps),
            Dur::from_ms(1),
        );
        let sim = build_simulator(
            &topo,
            &SchedulerAssignment::uniform(kind),
            &BuildOptions {
                router_buffer_bytes: buffer,
                ..BuildOptions::default()
            },
        );
        let stats = TransportStats::new(Dur::from_ms(1));
        (topo, sim, stats)
    }

    fn flow(
        routing: &mut Routing,
        topo: &ups_topology::Topology,
        id: u64,
        src: usize,
        dst: usize,
        size: u64,
        start: SimTime,
    ) -> FlowSpec {
        let hosts = topo.hosts();
        FlowSpec {
            id: FlowId(id),
            src: hosts[src],
            dst: hosts[dst],
            size,
            start,
            path: routing.path(hosts[src], hosts[dst]),
        }
    }

    #[test]
    fn single_flow_completes_without_loss() {
        let (topo, mut sim, stats) = two_host_setup(1, None, SchedulerKind::Fifo);
        let mut routing = Routing::new(&topo);
        let f = flow(&mut routing, &topo, 0, 0, 2, 1_000_000, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f],
            TcpConfig::default(),
            SlackPolicy::None,
            &stats,
        );
        sim.run_until(SimTime::from_secs(5));
        let c = stats.completions();
        assert_eq!(c.len(), 1, "flow must complete");
        assert_eq!(c[0].bytes, 1_000_000);
        // 1MB over a 1Gbps bottleneck with ~4ms RTT: at least the
        // serialization time (8ms), at most a second.
        let fct = c[0].fct();
        assert!(fct >= Dur::from_ms(8), "fct {fct}");
        assert!(fct < Dur::from_secs(1), "fct {fct}");
    }

    #[test]
    fn completes_under_heavy_loss() {
        // A buffer of just 2 packets forces repeated drops; TCP must
        // still deliver everything via retransmissions.
        let (topo, mut sim, stats) = two_host_setup(1, Some(3_000), SchedulerKind::Fifo);
        let mut routing = Routing::new(&topo);
        let f = flow(&mut routing, &topo, 0, 0, 2, 300_000, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f],
            TcpConfig::default(),
            SlackPolicy::None,
            &stats,
        );
        sim.run_until(SimTime::from_secs(30));
        let c = stats.completions();
        assert_eq!(c.len(), 1, "flow must survive drops");
        assert!(sim.stats().dropped > 0, "the test must actually drop");
        assert!(
            stats.retransmits_total() > 0,
            "drops imply recorded retransmissions"
        );
        assert_eq!(stats.retransmits(FlowId(0)), stats.retransmits_total());
        // Every RTO rewinds and re-sends at least one segment below the
        // high-water mark, so go-back-N resends must be counted too.
        assert!(
            stats.timeouts_total() == 0 || stats.retransmits_total() >= stats.timeouts_total(),
            "RTO recovery must count its go-back-N resends ({} RTOs, {} retx)",
            stats.timeouts_total(),
            stats.retransmits_total()
        );
    }

    #[test]
    fn two_flows_share_a_fifo_bottleneck() {
        let (topo, mut sim, stats) = two_host_setup(1, Some(100_000), SchedulerKind::Fifo);
        let mut routing = Routing::new(&topo);
        let f1 = flow(&mut routing, &topo, 0, 0, 2, 2_000_000, SimTime::ZERO);
        let f2 = flow(&mut routing, &topo, 1, 1, 3, 2_000_000, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f1, f2],
            TcpConfig::default(),
            SlackPolicy::None,
            &stats,
        );
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(stats.completions().len(), 2);
    }

    #[test]
    fn long_lived_flows_converge_to_fair_share_under_fq() {
        let (topo, mut sim, stats) = two_host_setup(1, Some(150_000), SchedulerKind::Fq);
        let mut routing = Routing::new(&topo);
        let f1 = flow(&mut routing, &topo, 0, 0, 2, u64::MAX, SimTime::ZERO);
        let f2 = flow(&mut routing, &topo, 1, 1, 3, u64::MAX, SimTime::from_ms(2));
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f1, f2],
            TcpConfig::default(),
            SlackPolicy::None,
            &stats,
        );
        sim.run_until(SimTime::from_ms(400));
        let m = stats.goodput_matrix(&[FlowId(0), FlowId(1)]);
        // Steady-state (second half) goodput should be near-equal.
        let half = m[0].len() / 2;
        let g1: u64 = m[0][half..].iter().sum();
        let g2: u64 = m[1][half..].iter().sum();
        let j = jain_index(&[g1 as f64, g2 as f64]);
        assert!(j > 0.95, "late-window Jain {j} (g1={g1}, g2={g2})");
        // And the bottleneck should be fully used: ~1Gbps over the window.
        let window_secs = (half as f64) * 1e-3;
        let rate = (g1 + g2) as f64 * 8.0 / window_secs;
        assert!(rate > 0.7e9, "aggregate goodput {rate}");
    }

    #[test]
    fn srpt_headers_decrease_within_flow() {
        // White-box: the stamped `remaining` must shrink as data is sent.
        let (topo, mut sim, stats) = two_host_setup(1, None, SchedulerKind::Srpt);
        let mut routing = Routing::new(&topo);
        let f = flow(&mut routing, &topo, 0, 0, 2, 15_000, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f],
            TcpConfig::default(),
            SlackPolicy::FctSjf,
            &stats,
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(stats.completions().len(), 1);
        // Inspect the trace: data packets of the flow carry decreasing
        // remaining, and slack = size × 1s.
        // (Header contents aren't traced; completion + SRPT scheduling
        // having worked is the observable.)
    }

    #[test]
    fn infinite_flow_never_completes_but_moves_data() {
        let (topo, mut sim, stats) = two_host_setup(1, Some(100_000), SchedulerKind::Fifo);
        let mut routing = Routing::new(&topo);
        let f = flow(&mut routing, &topo, 0, 0, 2, u64::MAX, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f],
            TcpConfig::default(),
            SlackPolicy::None,
            &stats,
        );
        sim.run_until(SimTime::from_ms(300));
        assert!(stats.completions().is_empty());
        let m = stats.goodput_matrix(&[FlowId(0)]);
        let total: u64 = m[0].iter().sum();
        assert!(total > 1_000_000, "moved {total} bytes");
    }

    #[test]
    fn weighted_fairness_splits_bandwidth_by_weight() {
        // Two long-lived flows, weights 2:1, sharing a 1 Gbps LSTF
        // bottleneck: goodput should split ~2:1 (§3.3's weighted
        // extension). Buffers unbounded, as in the paper's fairness
        // experiments ("buffer size is kept large so that the fairness
        // is dominated by the scheduling policy").
        let (topo, mut sim, stats) =
            two_host_setup(1, None, SchedulerKind::Lstf { preemptive: false });
        let mut routing = Routing::new(&topo);
        let f1 = flow(&mut routing, &topo, 0, 0, 2, u64::MAX, SimTime::ZERO);
        let f2 = flow(&mut routing, &topo, 1, 1, 3, u64::MAX, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f1, f2],
            TcpConfig::default(),
            SlackPolicy::WeightedFairness {
                rest_bps: 300_000_000,
                weights: vec![(FlowId(0), 2.0)],
            },
            &stats,
        );
        sim.run_until(SimTime::from_ms(300));
        let m = stats.goodput_matrix(&[FlowId(0), FlowId(1)]);
        let half = m[0].len() / 2;
        let g1: u64 = m[0][half..].iter().sum();
        let g2: u64 = m[1][half..].iter().sum();
        let ratio = g1 as f64 / g2.max(1) as f64;
        assert!(
            (1.4..=3.0).contains(&ratio),
            "weight-2 flow should get ~2x: {g1} vs {g2} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn fairness_policy_stamps_accumulating_slack() {
        // Just exercises the Fairness policy path end-to-end.
        let (topo, mut sim, stats) =
            two_host_setup(1, Some(100_000), SchedulerKind::Lstf { preemptive: false });
        let mut routing = Routing::new(&topo);
        let f1 = flow(&mut routing, &topo, 0, 0, 2, u64::MAX, SimTime::ZERO);
        let f2 = flow(&mut routing, &topo, 1, 1, 3, u64::MAX, SimTime::ZERO);
        install_tcp(
            &mut sim,
            &topo,
            &mut routing,
            &[f1, f2],
            TcpConfig::default(),
            SlackPolicy::Fairness(500_000_000),
            &stats,
        );
        sim.run_until(SimTime::from_ms(200));
        let m = stats.goodput_matrix(&[FlowId(0), FlowId(1)]);
        let half = m[0].len() / 2;
        let g1: u64 = m[0][half..].iter().sum();
        let g2: u64 = m[1][half..].iter().sum();
        let j = jain_index(&[g1 as f64, g2 as f64]);
        assert!(j > 0.9, "LSTF-fairness Jain {j} (g1={g1}, g2={g2})");
    }
}
