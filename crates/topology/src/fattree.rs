//! Full-bisection-bandwidth k-ary fat-tree (the pFabric datacenter
//! topology of Table 1's last row, \[3\]).

use ups_netsim::prelude::{Bandwidth, Dur, NodeId};

use crate::graph::{NodeRole, Topology};

/// Parameters for the fat-tree family.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeParams {
    /// Pod fan-out; must be even. k pods, (k/2)² core switches, k²/2
    /// aggregation + edge switches, k³/4 hosts.
    pub k: usize,
    /// Uniform link bandwidth (paper: 10 Gbps).
    pub bandwidth: Bandwidth,
    /// Uniform per-link propagation delay (datacenter scale).
    pub propagation: Dur,
}

impl Default for FatTreeParams {
    fn default() -> Self {
        FatTreeParams {
            k: 4,
            bandwidth: Bandwidth::from_gbps(10),
            propagation: Dur::from_us(1),
        }
    }
}

/// Build a k-ary fat-tree.
///
/// Node layout (dense ids): core switches, then per pod: aggregation
/// switches, edge switches, hosts. Aggregation switch `a` of each pod
/// connects to core switches `a·(k/2) .. a·(k/2)+k/2`; every edge switch
/// connects to every aggregation switch in its pod and to k/2 hosts. This
/// is the standard Al-Fares construction with full bisection bandwidth.
///
/// Routing (hop-count BFS, deterministic tie-break) yields the canonical
/// host–edge–agg–core–agg–edge–host paths; there is no ECMP spreading —
/// a substitution recorded in DESIGN.md (the paper's claims don't depend
/// on multipath).
pub fn fattree(params: FatTreeParams) -> Topology {
    let k = params.k;
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree k must be even, got {k}"
    );
    let half = k / 2;
    let mut t = Topology::new(format!("FatTree(k={k})"));

    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| t.add_node(NodeRole::Core))
        .collect();
    for _pod in 0..k {
        let aggs: Vec<NodeId> = (0..half).map(|_| t.add_node(NodeRole::Core)).collect();
        let edges: Vec<NodeId> = (0..half).map(|_| t.add_node(NodeRole::Edge)).collect();
        for (a, &agg) in aggs.iter().enumerate() {
            for j in 0..half {
                t.add_link(
                    agg,
                    cores[a * half + j],
                    params.bandwidth,
                    params.propagation,
                );
            }
            for &edge in &edges {
                t.add_link(agg, edge, params.bandwidth, params.propagation);
            }
        }
        for &edge in &edges {
            for _ in 0..half {
                let host = t.add_node(NodeRole::Host);
                t.add_link(edge, host, params.bandwidth, params.propagation);
            }
        }
    }
    t.validate();
    t
}

/// The default datacenter topology used by the Table 1 bench (k = 4 for
/// test scale; the bench harness can request larger k).
pub fn fattree_default() -> Topology {
    fattree(FatTreeParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Routing;

    #[test]
    fn k4_shape() {
        let t = fattree_default();
        // 4 core, 8 agg, 8 edge, 16 hosts.
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.node_count(), 4 + 8 + 8 + 16);
        // Links: core-agg 4*... each agg connects to 2 cores (8*2=16), each
        // edge to 2 aggs (8*2=16), each host to 1 edge (16).
        assert_eq!(t.links().len(), 16 + 16 + 16);
        assert_eq!(t.bottleneck_bandwidth(), Bandwidth::from_gbps(10));
    }

    #[test]
    fn k8_scales() {
        let t = fattree(FatTreeParams {
            k: 8,
            ..FatTreeParams::default()
        });
        assert_eq!(t.hosts().len(), 8 * 8 * 8 / 4);
        t.validate();
    }

    #[test]
    fn path_lengths_are_canonical() {
        let t = fattree_default();
        let r = Routing::new(&t);
        let hosts = t.hosts();
        // Same edge switch: host-edge-host = 2 links.
        // (hosts under one edge are consecutive ids in this construction)
        let same_edge = r.hop_count(hosts[0], hosts[1]);
        assert_eq!(same_edge, 2);
        // Cross-pod: host-edge-agg-core-agg-edge-host = 6 links.
        let cross_pod = r.hop_count(hosts[0], *hosts.last().unwrap());
        assert_eq!(cross_pod, 6);
        // Same pod, different edge: 4 links.
        let same_pod = r.hop_count(hosts[0], hosts[2]);
        assert_eq!(same_pod, 4);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_k_rejected() {
        let _ = fattree(FatTreeParams {
            k: 3,
            ..FatTreeParams::default()
        });
    }
}
