//! The simplified Internet2 topology of the paper's evaluation (§2.3).
//!
//! "We use a simplified Internet-2 topology, identical to the one used in
//! \[21\] (consisting of 10 routers and 16 links in the core). We connect
//! each core router to 10 edge routers using 1Gbps links and each edge
//! router is attached to an end host via a 10Gbps link."
//!
//! The core is an Abilene-like 10-city backbone with geographically
//! plausible propagation delays (the exact link map of \[21\] is not
//! published; hop counts per packet land in the paper's 4–7 range —
//! asserted by tests). Core links default to 10 Gbps — the real
//! Internet2 backbone rate — which is what gives the evaluation its
//! congestion structure: at 70% mean core utilization the workload
//! calibrates to thousands of flows per second, so core ports see many
//! concurrent access-paced streams and packets hit congestion at
//! *multiple* hops (the regime where replay is non-trivial). The three
//! bandwidth variants of Table 1:
//!
//! * `1Gbps-10Gbps` (default): access (edge→core) links slower than the
//!   core — packets are paced at the edge before aggregating.
//! * `1Gbps-1Gbps`: host links slowest — packets paced at the host,
//!   fewest congestion points, best replay.
//! * `10Gbps-10Gbps`: access and edge at core rate — bursts reach the
//!   core unpaced and one overdue packet cascades into followers, worst
//!   replay.

use ups_netsim::prelude::{Bandwidth, Dur, NodeId};

use crate::graph::{NodeRole, Topology};

/// Tunable parameters for the Internet2 family.
#[derive(Debug, Clone, Copy)]
pub struct Internet2Params {
    /// Host ↔ edge-router bandwidth (paper default 10 Gbps).
    pub host_bw: Bandwidth,
    /// Edge-router ↔ core bandwidth — the "access" links (default 1 Gbps).
    pub edge_bw: Bandwidth,
    /// Core ↔ core bandwidth (default 10 Gbps; see module docs).
    pub core_bw: Bandwidth,
    /// Edge routers per core router (paper: 10).
    pub edges_per_core: usize,
    /// Hosts per edge router (paper: 1).
    pub hosts_per_edge: usize,
    /// Host ↔ edge propagation delay.
    pub host_prop: Dur,
    /// Edge ↔ core propagation delay.
    pub edge_prop: Dur,
    /// Divide the geographic core delays by this (Figure 4 "reduce\[s\] the
    /// propagation delay to make the experiment more scalable").
    pub core_prop_divisor: u64,
}

impl Default for Internet2Params {
    fn default() -> Self {
        Internet2Params {
            host_bw: Bandwidth::from_gbps(10),
            edge_bw: Bandwidth::from_gbps(1),
            core_bw: Bandwidth::from_gbps(10),
            edges_per_core: 10,
            hosts_per_edge: 1,
            host_prop: Dur::from_us(5),
            edge_prop: Dur::from_us(100),
            core_prop_divisor: 1,
        }
    }
}

/// The 10 backbone cities, in node-id order.
pub const I2_CITIES: [&str; 10] = [
    "Seattle",
    "Sunnyvale",
    "LosAngeles",
    "Denver",
    "KansasCity",
    "Houston",
    "Chicago",
    "Indianapolis",
    "Atlanta",
    "WashingtonDC",
];

/// The 16 core links as (city index, city index, propagation in µs) —
/// one-way fiber delays at ~5 µs/km over approximate route miles.
const I2_CORE_LINKS: [(u32, u32, u64); 16] = [
    (0, 1, 4100), // Seattle–Sunnyvale
    (0, 3, 6600), // Seattle–Denver
    (1, 2, 1800), // Sunnyvale–LosAngeles
    (1, 3, 5100), // Sunnyvale–Denver
    (2, 3, 4200), // LosAngeles–Denver
    (2, 5, 7100), // LosAngeles–Houston
    (3, 4, 3100), // Denver–KansasCity
    (3, 5, 4400), // Denver–Houston
    (4, 5, 3700), // KansasCity–Houston
    (4, 6, 2700), // KansasCity–Chicago
    (4, 7, 2200), // KansasCity–Indianapolis
    (5, 8, 4000), // Houston–Atlanta
    (6, 7, 1000), // Chicago–Indianapolis
    (6, 9, 3500), // Chicago–WashingtonDC
    (7, 8, 2700), // Indianapolis–Atlanta
    (8, 9, 3100), // Atlanta–WashingtonDC
];

/// Build an Internet2 topology with the given parameters.
pub fn internet2(params: Internet2Params) -> Topology {
    let mut t = Topology::new(format!("I2:{}-{}", params.edge_bw, params.host_bw));
    // Core routers first: ids 0..10 match I2_CITIES.
    let cores: Vec<NodeId> = (0..10).map(|_| t.add_node(NodeRole::Core)).collect();
    for &(a, b, us) in &I2_CORE_LINKS {
        t.add_link(
            cores[a as usize],
            cores[b as usize],
            params.core_bw,
            Dur::from_us(us / params.core_prop_divisor.max(1)),
        );
    }
    // Edge routers and hosts.
    for &core in &cores {
        for _ in 0..params.edges_per_core {
            let edge = t.add_node(NodeRole::Edge);
            t.add_link(core, edge, params.edge_bw, params.edge_prop);
            for _ in 0..params.hosts_per_edge {
                let host = t.add_node(NodeRole::Host);
                t.add_link(edge, host, params.host_bw, params.host_prop);
            }
        }
    }
    t.validate();
    t
}

/// The paper's default: `I2:1Gbps-10Gbps`.
pub fn i2_default() -> Topology {
    internet2(Internet2Params::default())
}

/// `I2:1Gbps-1Gbps` — host links reduced to 1 Gbps (Table 1 row 3a).
pub fn i2_1g_1g() -> Topology {
    internet2(Internet2Params {
        host_bw: Bandwidth::from_gbps(1),
        ..Internet2Params::default()
    })
}

/// `I2:10Gbps-10Gbps` — access links raised to 10 Gbps (Table 1 row 3b).
pub fn i2_10g_10g() -> Topology {
    internet2(Internet2Params {
        edge_bw: Bandwidth::from_gbps(10),
        ..Internet2Params::default()
    })
}

/// The Figure 4 fairness variant: 10 Gbps edges and hosts so "all the
/// congestion is happening at the core", 13 Gbps core links so the fair
/// share of a core link carrying ~13 flows is ≈ 1 Gbps, and core
/// propagation shrunk 100× for experiment scalability.
pub fn i2_fairness() -> Topology {
    let mut t = internet2(Internet2Params {
        host_bw: Bandwidth::from_gbps(10),
        edge_bw: Bandwidth::from_gbps(10),
        core_bw: Bandwidth::from_gbps(13),
        core_prop_divisor: 100,
        host_prop: Dur::from_us(1),
        edge_prop: Dur::from_us(2),
        ..Internet2Params::default()
    });
    t.name = "I2:fairness".into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Routing;

    #[test]
    fn default_shape_matches_paper() {
        let t = i2_default();
        // 10 core + 100 edge + 100 hosts.
        assert_eq!(t.node_count(), 210);
        assert_eq!(t.hosts().len(), 100);
        assert_eq!(t.core_links().len(), 16);
        assert_eq!(t.nodes_with_role(NodeRole::Core).len(), 10);
        assert_eq!(t.nodes_with_role(NodeRole::Edge).len(), 100);
        // Bottleneck is the 1G access link → T = 12us for 1500B.
        assert_eq!(t.bottleneck_bandwidth(), Bandwidth::from_gbps(1));
    }

    #[test]
    fn hop_counts_match_paper_range() {
        // "The number of hops per packet is in the range of 4 to 7,
        // excluding the end hosts" — i.e. host-to-host paths have 4..=7
        // router hops = 5..=8 links.
        let t = i2_default();
        let mut r = Routing::new(&t);
        let hosts = t.hosts();
        let mut min_routers = usize::MAX;
        let mut max_routers = 0;
        for (i, &a) in hosts.iter().enumerate() {
            for &b in hosts.iter().skip(i + 1).step_by(7) {
                let links = r.hop_count(a, b);
                let routers = links - 1; // nodes excluding the two hosts
                min_routers = min_routers.min(routers);
                max_routers = max_routers.max(routers);
            }
        }
        assert!(min_routers >= 2, "min router hops {min_routers}");
        assert!(
            (4..=7).contains(&max_routers),
            "max router hops {max_routers} outside the paper's 4–7"
        );
    }

    #[test]
    fn variants_set_expected_bandwidths() {
        let v11 = i2_1g_1g();
        assert_eq!(v11.bottleneck_bandwidth(), Bandwidth::from_gbps(1));
        let host_link = v11
            .neighbor_link(
                v11.hosts()[0],
                v11.neighbors(v11.hosts()[0]).next().unwrap(),
            )
            .unwrap();
        assert_eq!(host_link.bandwidth, Bandwidth::from_gbps(1));

        let v1010 = i2_10g_10g();
        // Everything runs at the core rate: zero headroom anywhere.
        assert_eq!(v1010.bottleneck_bandwidth(), Bandwidth::from_gbps(10));

        let fair = i2_fairness();
        assert_eq!(fair.core_links()[0].bandwidth, Bandwidth::from_gbps(13));
        // Core propagation shrunk 100x: Seattle–Sunnyvale 4100us -> 41us.
        assert_eq!(fair.core_links()[0].propagation, Dur::from_us(41));
    }

    #[test]
    fn scaled_down_variant_for_tests() {
        let t = internet2(Internet2Params {
            edges_per_core: 2,
            ..Internet2Params::default()
        });
        assert_eq!(t.node_count(), 10 + 20 + 20);
        t.validate();
    }
}
