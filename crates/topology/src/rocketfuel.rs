//! A RocketFuel-like ISP backbone (Table 1 row 4).
//!
//! The paper uses "a bigger Rocketfuel topology (with 83 routers and 131
//! links in the core)" measured by \[29\]. Raw RocketFuel maps are not
//! redistributable, so this module synthesizes a **seeded, deterministic**
//! graph with exactly 83 core routers and 131 core links via preferential
//! attachment — reproducing the two properties the evaluation actually
//! exercises (DESIGN.md §4):
//!
//! 1. *scale*: more routers/links ⇒ longer paths ⇒ more potential
//!    congestion points per packet, and
//! 2. *bandwidth skew*: "half of the core links in the Rocketfuel topology
//!    are set to have bandwidths smaller than the access links", which is
//!    what degrades replay relative to the Internet2 default.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ups_netsim::prelude::{Bandwidth, Dur, NodeId};

use crate::graph::{NodeRole, Topology};

/// Parameters for the synthetic RocketFuel-like backbone.
#[derive(Debug, Clone, Copy)]
pub struct RocketFuelParams {
    /// Core routers (paper: 83).
    pub core_routers: usize,
    /// Core links (paper: 131).
    pub core_links: usize,
    /// Edge routers hung off each core router. The paper reuses its
    /// default access pattern; we default to 2 per core (166 hosts total)
    /// to keep bench runtimes sane — the replay behaviour is driven by the
    /// core, not by host count.
    pub edges_per_core: usize,
    /// Host ↔ edge bandwidth.
    pub host_bw: Bandwidth,
    /// Edge ↔ core ("access") bandwidth.
    pub edge_bw: Bandwidth,
    /// Fast core links (the other half are `slow_core_bw`).
    pub fast_core_bw: Bandwidth,
    /// Slow core links — *below* `edge_bw` per the paper's description.
    pub slow_core_bw: Bandwidth,
    /// RNG seed for the graph structure, delays and bandwidth placement.
    pub seed: u64,
}

impl Default for RocketFuelParams {
    fn default() -> Self {
        RocketFuelParams {
            core_routers: 83,
            core_links: 131,
            edges_per_core: 2,
            host_bw: Bandwidth::from_gbps(10),
            edge_bw: Bandwidth::from_gbps(1),
            fast_core_bw: Bandwidth::from_gbps(3),
            slow_core_bw: Bandwidth::from_mbps(500),
            seed: 0x20C4E7F,
        }
    }
}

/// Build the synthetic backbone.
pub fn rocketfuel(params: RocketFuelParams) -> Topology {
    let n = params.core_routers;
    let m = params.core_links;
    assert!(n >= 3, "need at least a triangle");
    assert!(
        m >= n - 1,
        "need at least a spanning tree: {m} links for {n} routers"
    );
    assert!(
        m <= n * (n - 1) / 2,
        "more links than node pairs: {m} for {n}"
    );
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut t = Topology::new(format!("RocketFuel({n}r/{m}l)"));
    let cores: Vec<NodeId> = (0..n).map(|_| t.add_node(NodeRole::Core)).collect();

    // Preferential-attachment spanning structure: node i attaches to an
    // existing node chosen with probability ∝ (degree + 1), giving the
    // heavy-tailed degree distribution characteristic of measured ISP maps.
    let mut degree = vec![0usize; n];
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(m);
    let connected = |a: usize, b: usize, pairs: &[(usize, usize)]| {
        pairs.iter().any(|&(x, y)| (x, y) == (a.min(b), a.max(b)))
    };
    for i in 1..n {
        let total: usize = degree[..i].iter().map(|d| d + 1).sum();
        let mut pick = rng.gen_range(0..total);
        let mut j = 0;
        while pick > degree[j] {
            pick -= degree[j] + 1;
            j += 1;
        }
        pairs.push((j.min(i), j.max(i)));
        degree[i] += 1;
        degree[j] += 1;
    }
    // Extra links up to m, still degree-biased, no duplicates.
    while pairs.len() < m {
        let total: usize = degree.iter().map(|d| d + 1).sum();
        let pick_node = |rng: &mut SmallRng, degree: &[usize]| {
            let mut pick = rng.gen_range(0..total);
            let mut j = 0;
            while pick > degree[j] {
                pick -= degree[j] + 1;
                j += 1;
            }
            j
        };
        let a = pick_node(&mut rng, &degree);
        let b = pick_node(&mut rng, &degree);
        if a == b || connected(a, b, &pairs) {
            continue;
        }
        pairs.push((a.min(b), a.max(b)));
        degree[a] += 1;
        degree[b] += 1;
    }

    // Half the core links slow, half fast, placed by seeded shuffle.
    let mut slow = vec![false; m];
    for s in slow.iter_mut().take(m / 2) {
        *s = true;
    }
    for i in (1..m).rev() {
        let j = rng.gen_range(0..=i);
        slow.swap(i, j);
    }
    for (idx, &(a, b)) in pairs.iter().enumerate() {
        let bw = if slow[idx] {
            params.slow_core_bw
        } else {
            params.fast_core_bw
        };
        // ISP-scale one-way delays: 0.5–7 ms.
        let prop = Dur::from_us(rng.gen_range(500..7000));
        t.add_link(cores[a], cores[b], bw, prop);
    }

    // Access trees, as in the Internet2 default.
    for &core in &cores {
        for _ in 0..params.edges_per_core {
            let edge = t.add_node(NodeRole::Edge);
            t.add_link(core, edge, params.edge_bw, Dur::from_us(100));
            let host = t.add_node(NodeRole::Host);
            t.add_link(edge, host, params.host_bw, Dur::from_us(5));
        }
    }
    t.validate();
    t
}

/// The default 83-router / 131-link backbone.
pub fn rocketfuel_default() -> Topology {
    rocketfuel(RocketFuelParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_shape() {
        let t = rocketfuel_default();
        assert_eq!(t.nodes_with_role(NodeRole::Core).len(), 83);
        assert_eq!(t.core_links().len(), 131);
        assert_eq!(t.hosts().len(), 166);
        t.validate();
    }

    #[test]
    fn half_the_core_links_are_slower_than_access() {
        let t = rocketfuel_default();
        let access = Bandwidth::from_gbps(1);
        let slow = t
            .core_links()
            .iter()
            .filter(|l| l.bandwidth < access)
            .count();
        assert_eq!(slow, 131 / 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = rocketfuel_default();
        let b = rocketfuel_default();
        assert_eq!(a.links().len(), b.links().len());
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!((la.a, la.b, la.bandwidth), (lb.a, lb.b, lb.bandwidth));
            assert_eq!(la.propagation, lb.propagation);
        }
    }

    #[test]
    fn different_seed_different_graph() {
        let a = rocketfuel_default();
        let b = rocketfuel(RocketFuelParams {
            seed: 99,
            ..RocketFuelParams::default()
        });
        let differs = a
            .links()
            .iter()
            .zip(b.links())
            .any(|(la, lb)| (la.a, la.b) != (lb.a, lb.b) || la.propagation != lb.propagation);
        assert!(differs);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Preferential attachment should create at least one hub with
        // degree well above the mean (~3.2).
        let t = rocketfuel_default();
        let max_degree = t
            .nodes_with_role(NodeRole::Core)
            .iter()
            .map(|&n| {
                t.neighbors(n)
                    .filter(|&m| t.role(m) == NodeRole::Core)
                    .count()
            })
            .max()
            .unwrap();
        assert!(max_degree >= 8, "expected a hub, max degree {max_degree}");
    }
}
