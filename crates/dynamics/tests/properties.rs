//! Property tests for the dynamics subsystem.
//!
//! The two invariants the ISSUE names, plus the zero-failure identity:
//!
//! 1. **post-failure epoch tables never route over a failed link** — for
//!    any topology and any random subset of dead router links, every path
//!    the epoch table answers avoids every dead link;
//! 2. **all failover paths are loop-free** — no node repeats within one
//!    answered path (reroute *splices* may legitimately backtrack across
//!    epochs, but a single epoch's answer is a simple shortest path);
//! 3. a `DynamicRouting` with zero failures answers exactly the static
//!    `Routing` paths (the scheduler-level bit-identity counterpart
//!    lives in `src/run.rs` and the failures bench).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::{collection, sample};
use ups_dynamics::DynamicRouting;
use ups_netsim::prelude::NodeId;
use ups_topology::{topology_by_name, NodeRole, Routing, Topology};

/// Topologies with enough path diversity to survive cuts.
const TOPOS: [&str; 4] = ["FatTree(k=4)", "I2:1Gbps-10Gbps", "I2:small", "RocketFuel"];

fn norm(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Router–router links of `topo`, the set failure schedules draw from.
fn router_links(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    topo.links()
        .iter()
        .filter(|l| topo.role(l.a) != NodeRole::Host && topo.role(l.b) != NodeRole::Host)
        .map(|l| (l.a, l.b))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn epoch_tables_avoid_dead_links_and_are_loop_free(
        topo_name in sample::select(&TOPOS),
        // Indices into the router-link list (modulo its length) to kill.
        kill in collection::vec(0usize..4096, 0..12),
        pair_seed in 0u64..1 << 32,
    ) {
        let topo = Arc::new(topology_by_name(topo_name).expect("registered"));
        let links = router_links(&topo);
        let mut dynamic = DynamicRouting::new(topo.clone());
        let mut dead: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for k in &kill {
            let (a, b) = links[k % links.len()];
            if dead.insert(norm(a, b)) {
                dynamic.set_link(a, b, false);
            }
        }
        prop_assert_eq!(dynamic.epoch(), dead.len() as u64);

        // Probe a deterministic spread of host pairs.
        let hosts = topo.hosts();
        for i in 0..6u64 {
            let src = hosts[((pair_seed >> (i * 5)) as usize) % hosts.len()];
            let dst = hosts[(src.index() + 1 + (pair_seed as usize >> 7) % (hosts.len() - 1))
                % hosts.len()];
            if src == dst {
                continue;
            }
            let Some(path) = dynamic.path(src, dst) else {
                continue; // the cut disconnected them — a legal answer
            };
            prop_assert_eq!(path[0], src);
            prop_assert_eq!(path[path.len() - 1], dst);
            // (1) never over a failed link;
            for w in path.windows(2) {
                prop_assert!(
                    topo.neighbor_link(w[0], w[1]).is_some(),
                    "path uses a non-link"
                );
                prop_assert!(
                    !dead.contains(&norm(w[0], w[1])),
                    "epoch table routed over dead link {}-{}", w[0], w[1]
                );
            }
            // (2) loop-free.
            let distinct: BTreeSet<NodeId> = path.iter().copied().collect();
            prop_assert_eq!(distinct.len(), path.len(), "failover path revisits a node");
        }
    }

    #[test]
    fn recovery_restores_static_routing_exactly(
        topo_name in sample::select(&TOPOS),
        kill in collection::vec(0usize..4096, 1..8),
        pair_seed in 0u64..1 << 32,
    ) {
        // Fail a set of links, then bring every one back: epoch tables
        // must answer exactly the static hash-spread paths again.
        let topo = Arc::new(topology_by_name(topo_name).expect("registered"));
        let links = router_links(&topo);
        let mut dynamic = DynamicRouting::new(topo.clone());
        let fixed = Routing::new(&topo);
        let mut dead: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for k in &kill {
            let (a, b) = links[k % links.len()];
            if dead.insert(norm(a, b)) {
                dynamic.set_link(a, b, false);
            }
        }
        for &(a, b) in &dead {
            dynamic.set_link(a, b, true);
        }
        prop_assert_eq!(dynamic.dead_links().len(), 0);
        let hosts = topo.hosts();
        for i in 0..4u64 {
            let src = hosts[((pair_seed >> (i * 6)) as usize) % hosts.len()];
            let dst = hosts[(src.index() + 1) % hosts.len()];
            if src == dst {
                continue;
            }
            let dynamic_path = dynamic.path(src, dst).expect("connected again");
            prop_assert_eq!(&*dynamic_path, &*fixed.path(src, dst));
        }
    }
}
