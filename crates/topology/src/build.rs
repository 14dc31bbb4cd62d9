//! Instantiating a [`Simulator`] from a [`Topology`].
//!
//! This is where the paper's "collection of scheduling algorithms {Aα}"
//! (§2.1) is expressed: a [`SchedulerAssignment`] maps each node to the
//! discipline its output ports run. The replay methodology swaps only this
//! assignment (and header initialization) between the original run and the
//! replay run — topology and injected packets stay identical.

use std::collections::BTreeMap;

use ups_netsim::prelude::{Link, NodeId, RecordMode, SchedulerKind, SimConfig, Simulator};

use crate::graph::{NodeRole, Topology};

/// Which scheduler each node's output ports run.
#[derive(Debug, Clone)]
pub struct SchedulerAssignment {
    default: SchedulerKind,
    per_node: BTreeMap<NodeId, SchedulerKind>,
}

impl SchedulerAssignment {
    /// Every node runs `kind` — the paper's usual setting ("a UPS must use
    /// the same scheduling logic at every router", and the original
    /// schedules of Table 1 are also uniform except for the FQ/FIFO+ row).
    pub fn uniform(kind: SchedulerKind) -> Self {
        SchedulerAssignment {
            default: kind,
            per_node: BTreeMap::new(),
        }
    }

    /// Override one node's discipline.
    pub fn with(mut self, node: NodeId, kind: SchedulerKind) -> Self {
        self.per_node.insert(node, kind);
        self
    }

    /// Table 1's mixed row: "half of the routers run FIFO+ and the other
    /// half run fair queuing". Routers (edge + core) alternate by id
    /// parity; hosts keep `host_kind` (their NIC is a trivial queue).
    pub fn half_half(
        topo: &Topology,
        even: SchedulerKind,
        odd: SchedulerKind,
        host_kind: SchedulerKind,
    ) -> Self {
        let mut a = SchedulerAssignment::uniform(host_kind);
        for n in topo.nodes() {
            if topo.role(n) != NodeRole::Host {
                a.per_node.insert(n, if n.0 % 2 == 0 { even } else { odd });
            }
        }
        a
    }

    /// The discipline node `n` runs.
    pub fn kind_for(&self, n: NodeId) -> SchedulerKind {
        self.per_node.get(&n).copied().unwrap_or(self.default)
    }
}

/// Options for simulator construction.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Trace detail.
    pub record: RecordMode,
    /// Router port buffer in bytes; `None` = unbounded (§2.3 replay runs
    /// "use large buffer sizes that ensure no packet drops"). Host NICs
    /// are always unbounded (sources self-limit).
    pub router_buffer_bytes: Option<u64>,
    /// Base seed; each port derives an independent deterministic stream
    /// (only `Random` consumes it).
    pub seed: u64,
    /// Streaming-trace spill capacities `(records per chunk, sealed
    /// chunks in memory)`; `None` = defaults. Only read when `record` is
    /// [`RecordMode::Streaming`] — tests use tiny caps to force spill
    /// behaviour on small runs.
    pub trace_spill_caps: Option<(usize, usize)>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            record: RecordMode::EndToEnd,
            router_buffer_bytes: None,
            seed: 1,
            trace_spill_caps: None,
        }
    }
}

/// SplitMix64 — tiny, well-mixed hash for deriving per-port seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Build a simulator whose nodes, links and schedulers mirror `topo`.
pub fn build_simulator(
    topo: &Topology,
    assign: &SchedulerAssignment,
    opts: &BuildOptions,
) -> Simulator {
    let mut sim = Simulator::new(SimConfig {
        record: opts.record,
        trace_spill_caps: opts.trace_spill_caps,
    });
    for _ in topo.nodes() {
        sim.add_node();
    }
    for link in topo.links() {
        for (from, to) in [(link.a, link.b), (link.b, link.a)] {
            let kind = assign.kind_for(from);
            let seed = splitmix64(opts.seed ^ ((from.0 as u64) << 32) ^ (to.0 as u64));
            let buffer = if topo.role(from) == NodeRole::Host {
                None
            } else {
                opts.router_buffer_bytes
            };
            sim.add_oneway_link(
                from,
                to,
                Link {
                    bandwidth: link.bandwidth,
                    propagation: link.propagation,
                },
                kind.build(seed),
                buffer,
            );
        }
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::line;
    use crate::routing::Routing;
    use ups_netsim::prelude::*;

    #[test]
    fn builder_mirrors_topology() {
        let topo = line(3, Bandwidth::from_gbps(1), Dur::from_us(10));
        let sim = build_simulator(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            &BuildOptions::default(),
        );
        assert_eq!(sim.node_count(), topo.node_count());
        // Interior router has two ports, hosts one.
        assert_eq!(sim.node(NodeId(0)).ports.len(), 1);
        assert_eq!(sim.node(NodeId(2)).ports.len(), 2);
    }

    #[test]
    fn packets_flow_through_built_network() {
        let topo = line(2, Bandwidth::from_gbps(1), Dur::from_us(10));
        let mut routing = Routing::new(&topo);
        let hosts = topo.hosts();
        let mut sim = build_simulator(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            &BuildOptions::default(),
        );
        let path = routing.path(hosts[0], hosts[1]);
        sim.inject(PacketBuilder::new(PacketId(0), FlowId(0), 1500, path, SimTime::ZERO).build());
        sim.run();
        // 3 links: 3 × (12us + 10us) = 66us.
        assert_eq!(
            sim.trace().get(PacketId(0)).unwrap().exited,
            Some(SimTime::from_us(66))
        );
    }

    #[test]
    fn half_half_alternates_routers_only() {
        let topo = line(4, Bandwidth::from_gbps(1), Dur::ZERO);
        let a = SchedulerAssignment::half_half(
            &topo,
            SchedulerKind::Fq,
            SchedulerKind::FifoPlus,
            SchedulerKind::Fifo,
        );
        // Nodes: 0=host, 1..=4 routers, 5=host.
        assert_eq!(a.kind_for(NodeId(0)), SchedulerKind::Fifo);
        assert_eq!(a.kind_for(NodeId(5)), SchedulerKind::Fifo);
        assert_eq!(a.kind_for(NodeId(1)), SchedulerKind::FifoPlus);
        assert_eq!(a.kind_for(NodeId(2)), SchedulerKind::Fq);
        assert_eq!(a.kind_for(NodeId(3)), SchedulerKind::FifoPlus);
        assert_eq!(a.kind_for(NodeId(4)), SchedulerKind::Fq);
    }

    #[test]
    fn per_node_override() {
        let assign =
            SchedulerAssignment::uniform(SchedulerKind::Fifo).with(NodeId(2), SchedulerKind::Lifo);
        assert_eq!(assign.kind_for(NodeId(1)), SchedulerKind::Fifo);
        assert_eq!(assign.kind_for(NodeId(2)), SchedulerKind::Lifo);
    }

    #[test]
    fn random_ports_get_distinct_streams() {
        // Two different ports must not mirror each other's choices: build
        // a fan topology where host sends through two Random routers and
        // check the seeds differ by construction.
        let s1 = splitmix64(7 ^ (1u64 << 32) ^ 2);
        let s2 = splitmix64(7 ^ (2u64 << 32) ^ 1);
        assert_ne!(s1, s2);
    }

    #[test]
    fn host_vs_router_buffers() {
        let topo = line(1, Bandwidth::from_gbps(1), Dur::ZERO);
        let opts = BuildOptions {
            router_buffer_bytes: Some(3000),
            ..BuildOptions::default()
        };
        let mut sim = build_simulator(
            &topo,
            &SchedulerAssignment::uniform(SchedulerKind::Fifo),
            &opts,
        );
        // Host 0 -> router 1 -> host 2. Flood the router port: only 2
        // packets fit its queue (plus 1 in service); host side absorbs all.
        let mut routing = Routing::new(&topo);
        let path = routing.path(NodeId(0), NodeId(2));
        for i in 0..10 {
            sim.inject(
                PacketBuilder::new(PacketId(i), FlowId(0), 1500, path.clone(), SimTime::ZERO)
                    .build(),
            );
        }
        sim.run();
        // Host link and router link are equal speed, so the router queue
        // never builds up — no drops. Now flood via a faster host link
        // would drop; here we just assert the plumbing ran.
        assert_eq!(sim.stats().injected, 10);
        assert_eq!(sim.stats().delivered + sim.stats().dropped, 10);
    }
}
