//! Micro-topologies: test chains, dumbbells, and the paper's appendix
//! counterexample networks (Figures 5, 6 and 7).
//!
//! # Modelling the appendix networks
//!
//! The appendix uses single-server nodes: a congestion point α has *one*
//! transmission resource of time `T` shared by everything passing through
//! it, while white routers forward instantly. Our simulator (like real
//! routers) is output-queued, so a node with two outgoing links would give
//! each its own queue and the appendix contention would vanish. Each
//! congestion point is therefore built as a **node + mux** pair: the α
//! node has a single output link of serialization time `T` to a mux node,
//! and the mux fans out over effectively-instant links (12 Tbps ⇒ 1 ns per
//! 1500 B packet, vs. the 1 ms scheduling unit — five orders of magnitude
//! below anything the counterexamples measure).

use std::collections::BTreeMap;

use ups_netsim::prelude::{Bandwidth, Dur, NodeId};

use crate::graph::{NodeRole, Topology};

/// One appendix "time unit": 1 ms.
pub const UNIT: Dur = Dur::from_ms(1);
/// Packet size used by all appendix scenarios.
pub const UNIT_PKT: u32 = 1500;
/// Effectively-instant link (1 ns per packet).
pub const FAST: Bandwidth = Bandwidth::from_bps(12_000_000_000_000);

/// Bandwidth giving a serialization time of `num/den` UNITs for a
/// [`UNIT_PKT`]-byte packet. `congested_bw(1, 1)` = 12 Mbps ⇒ exactly 1 ms.
pub fn congested_bw(num: u64, den: u64) -> Bandwidth {
    assert!(num > 0 && den > 0);
    // tx = 12000 bits / bw = num/den ms  =>  bw = 12e6 * den / num.
    Bandwidth::from_bps(12_000_000 * den / num)
}

/// A named micro-topology: the graph plus a name → node map so tests can
/// speak the paper's language ("SA", "a0", ...).
pub struct NamedTopology {
    /// The graph.
    pub topo: Topology,
    names: BTreeMap<&'static str, NodeId>,
}

impl NamedTopology {
    /// Node id of `name`. Panics on unknown names — a typo in a
    /// counterexample script should fail loudly.
    pub fn node(&self, name: &str) -> NodeId {
        *self
            .names
            .get(name)
            .unwrap_or_else(|| panic!("unknown node name {name:?}"))
    }

    /// Translate a list of names into a path.
    pub fn path(&self, names: &[&str]) -> Vec<NodeId> {
        names.iter().map(|n| self.node(n)).collect()
    }
}

struct Builder {
    topo: Topology,
    names: BTreeMap<&'static str, NodeId>,
}

impl Builder {
    fn new(name: &str) -> Self {
        Builder {
            topo: Topology::new(name),
            names: BTreeMap::new(),
        }
    }
    fn host(&mut self, name: &'static str) -> NodeId {
        let id = self.topo.add_node(NodeRole::Host);
        self.names.insert(name, id);
        id
    }
    /// Congestion point: node + mux, joined by a `t_num/t_den` UNIT link.
    fn congestion(&mut self, name: &'static str, mux: &'static str, t_num: u64, t_den: u64) {
        let a = self.topo.add_node(NodeRole::Core);
        let m = self.topo.add_node(NodeRole::Edge);
        self.names.insert(name, a);
        self.names.insert(mux, m);
        self.topo
            .add_link(a, m, congested_bw(t_num, t_den), Dur::ZERO);
    }
    fn fast(&mut self, a: &'static str, b: &'static str) {
        self.fast_prop(a, b, Dur::ZERO);
    }
    fn fast_prop(&mut self, a: &'static str, b: &'static str, prop: Dur) {
        let (a, b) = (self.names[a], self.names[b]);
        self.topo.add_link(a, b, FAST, prop);
    }
    fn finish(self) -> NamedTopology {
        self.topo.validate();
        NamedTopology {
            topo: self.topo,
            names: self.names,
        }
    }
}

/// Appendix C, Figure 5: the network showing **no UPS exists under
/// black-box initialization**. Five congestion points `a0..a4` (T = 1
/// each); flows A and X share `a0` and then diverge; flows B, C, Y, Z
/// provide the downstream interactions that make the two cases demand
/// opposite orders at `a0`.
///
/// Paths (paper's notation → ours):
/// * a: SA → a0 → a1 → a2 → DA
/// * x: SX → a0 → a3 → a4 → DX
/// * b: SB → a1 → DB, c: SC → a2 → DC, y: SY → a3 → DY, z: SZ → a4 → DZ
pub fn appendix_c() -> NamedTopology {
    let mut b = Builder::new("AppendixC-Fig5");
    for h in [
        "SA", "SX", "SB", "SC", "SY", "SZ", "DA", "DX", "DB", "DC", "DY", "DZ",
    ] {
        b.host(h);
    }
    b.congestion("a0", "m0", 1, 1);
    b.congestion("a1", "m1", 1, 1);
    b.congestion("a2", "m2", 1, 1);
    b.congestion("a3", "m3", 1, 1);
    b.congestion("a4", "m4", 1, 1);
    b.fast("SA", "a0");
    b.fast("SX", "a0");
    b.fast("m0", "a1");
    b.fast("m0", "a3");
    b.fast("SB", "a1");
    b.fast("m1", "a2");
    b.fast("m1", "DB");
    b.fast("SC", "a2");
    b.fast("m2", "DA");
    b.fast("m2", "DC");
    b.fast("SY", "a3");
    b.fast("m3", "a4");
    b.fast("m3", "DY");
    b.fast("SZ", "a4");
    b.fast("m4", "DX");
    b.fast("m4", "DZ");
    b.finish()
}

/// Appendix F, Figure 6: **simple priorities fail with two congestion
/// points per packet** — the priority cycle `prio(a) < prio(b) < prio(c)
/// < prio(a)`. Congestion points: `a1` (T = 1), `a2` (T = ½), `a3`
/// (T = ⅕); the link `a1 → a3` (the figure's `L`) has a 2-UNIT
/// propagation delay.
///
/// Paths:
/// * a: SA → a1 → a3 → DA (via L)
/// * b: SB → a1 → a2 → DB
/// * c: SC → a2 → a3 → DC
pub fn appendix_f() -> NamedTopology {
    let mut b = Builder::new("AppendixF-Fig6");
    for h in ["SA", "SB", "SC", "DA", "DB", "DC"] {
        b.host(h);
    }
    b.congestion("a1", "m1", 1, 1);
    b.congestion("a2", "m2", 1, 2);
    b.congestion("a3", "m3", 1, 5);
    b.fast("SA", "a1");
    b.fast("SB", "a1");
    b.fast("m1", "a2");
    b.fast_prop("m1", "a3", UNIT.times(2)); // the figure's link L
    b.fast("SC", "a2");
    b.fast("m2", "DB");
    b.fast("m2", "a3");
    b.fast("m3", "DA");
    b.fast("m3", "DC");
    b.finish()
}

/// Appendix G.3, Figure 7: **LSTF replay failure with three congestion
/// points** for flow A. Congestion points `a0`, `a1`, `a2`, all T = 1.
///
/// Paths:
/// * a: SA → a0 → a1 → a2 → DA
/// * b: SB → a0 → DB
/// * c1, c2: SC → a1 → DC
/// * d1, d2: SD → a2 → DD
pub fn appendix_g() -> NamedTopology {
    let mut b = Builder::new("AppendixG-Fig7");
    for h in ["SA", "SB", "SC", "SD", "DA", "DB", "DC", "DD"] {
        b.host(h);
    }
    b.congestion("a0", "m0", 1, 1);
    b.congestion("a1", "m1", 1, 1);
    b.congestion("a2", "m2", 1, 1);
    b.fast("SA", "a0");
    b.fast("SB", "a0");
    b.fast("m0", "a1");
    b.fast("m0", "DB");
    b.fast("SC", "a1");
    b.fast("m1", "a2");
    b.fast("m1", "DC");
    b.fast("SD", "a2");
    b.fast("m2", "DA");
    b.fast("m2", "DD");
    b.finish()
}

/// A chain `host – r1 – r2 – … – rN – host` with uniform links; the
/// workhorse of unit and property tests.
pub fn line(routers: usize, bandwidth: Bandwidth, propagation: Dur) -> Topology {
    assert!(routers >= 1);
    let mut t = Topology::new(format!("Line({routers})"));
    let h1 = t.add_node(NodeRole::Host);
    let mut prev = h1;
    for _ in 0..routers {
        let r = t.add_node(NodeRole::Core);
        t.add_link(prev, r, bandwidth, propagation);
        prev = r;
    }
    let h2 = t.add_node(NodeRole::Host);
    t.add_link(prev, h2, bandwidth, propagation);
    t.validate();
    t
}

/// A dumbbell: `n` hosts on each side of a single bottleneck link —
/// the canonical congestion-control topology.
pub fn dumbbell(
    hosts_per_side: usize,
    access_bw: Bandwidth,
    bottleneck_bw: Bandwidth,
    propagation: Dur,
) -> Topology {
    assert!(hosts_per_side >= 1);
    let mut t = Topology::new(format!("Dumbbell({hosts_per_side})"));
    let left = t.add_node(NodeRole::Core);
    let right = t.add_node(NodeRole::Core);
    t.add_link(left, right, bottleneck_bw, propagation);
    for side in [left, right] {
        for _ in 0..hosts_per_side {
            let h = t.add_node(NodeRole::Host);
            t.add_link(side, h, access_bw, Dur::from_us(5));
        }
    }
    t.validate();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{tmin, Routing};

    #[test]
    fn congested_bw_serialization_times() {
        assert_eq!(congested_bw(1, 1).tx_time(UNIT_PKT), UNIT);
        assert_eq!(congested_bw(1, 2).tx_time(UNIT_PKT), Dur::from_us(500));
        assert_eq!(congested_bw(1, 5).tx_time(UNIT_PKT), Dur::from_us(200));
        assert_eq!(FAST.tx_time(UNIT_PKT), Dur::from_ns(1));
    }

    #[test]
    fn appendix_c_paths_route_as_drawn() {
        let net = appendix_c();
        let r = Routing::new(&net.topo);
        let pa = r.path(net.node("SA"), net.node("DA"));
        assert_eq!(
            &*pa,
            &net.path(&["SA", "a0", "m0", "a1", "m1", "a2", "m2", "DA"])[..]
        );
        let px = r.path(net.node("SX"), net.node("DX"));
        assert_eq!(
            &*px,
            &net.path(&["SX", "a0", "m0", "a3", "m3", "a4", "m4", "DX"])[..]
        );
        // a's uncongested transit: 3 congested hops of 1 UNIT each plus
        // nanosecond noise from the fast hops.
        let t = tmin(&net.topo, &pa, UNIT_PKT);
        let lo = UNIT.times(3);
        assert!(t >= lo && t < lo + Dur::from_us(1), "tmin(a) = {t}");
    }

    #[test]
    fn appendix_f_l_link_has_two_unit_delay() {
        let net = appendix_f();
        let l = net
            .topo
            .neighbor_link(net.node("m1"), net.node("a3"))
            .unwrap();
        assert_eq!(l.propagation, UNIT.times(2));
        // b's path goes a1 then a2.
        let r = Routing::new(&net.topo);
        let pb = r.path(net.node("SB"), net.node("DB"));
        assert_eq!(&*pb, &net.path(&["SB", "a1", "m1", "a2", "m2", "DB"])[..]);
    }

    #[test]
    fn appendix_g_flow_a_sees_three_congestion_points() {
        let net = appendix_g();
        let r = Routing::new(&net.topo);
        let pa = r.path(net.node("SA"), net.node("DA"));
        let congested: Vec<NodeId> = ["a0", "a1", "a2"].iter().map(|n| net.node(n)).collect();
        let crossed = pa.iter().filter(|n| congested.contains(n)).count();
        assert_eq!(crossed, 3);
    }

    #[test]
    fn line_and_dumbbell_shapes() {
        let l = line(3, Bandwidth::from_gbps(1), Dur::from_us(10));
        assert_eq!(l.node_count(), 5);
        assert_eq!(l.hosts().len(), 2);

        let d = dumbbell(
            4,
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(1),
            Dur::from_ms(1),
        );
        assert_eq!(d.hosts().len(), 8);
        assert_eq!(d.bottleneck_bandwidth(), Bandwidth::from_gbps(1));
        let r = Routing::new(&d);
        let hosts = d.hosts();
        assert_eq!(r.hop_count(hosts[0], hosts[4]), 3);
    }
}
