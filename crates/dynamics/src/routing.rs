//! Epoch-based routing over a churning topology.
//!
//! A run is divided into *epochs*: maximal intervals with a fixed alive
//! link set. [`DynamicRouting`] recomputes its hash-spread BFS tables at
//! every epoch boundary (lazily, one source at a time — reroutes are
//! rare relative to packet events) and answers the simulator's reroute
//! requests from the current epoch's tables only. Paths therefore never
//! cross a link that is dead *now*; they may cross a link that dies
//! later, in which case the packet is simply diverted again at that hop.
//!
//! With an empty dead set the tables are exactly the static
//! [`ups_topology::Routing`] tables: both run the same BFS and the same
//! `walk_back` tie-break (see `ups_topology::shortest_path_avoiding`),
//! which the zero-failure bit-identity tests pin end to end.

use std::collections::BTreeMap;
use std::sync::Arc;

use ups_netsim::prelude::{NodeId, PathId, RerouteOracle, SimTime};
use ups_topology::{bfs_dist_avoiding, shortest_path_from_dist, Topology};

/// Normalized (undirected) link key.
fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The epoch-based routing oracle the churn runner installs into the
/// simulator.
pub struct DynamicRouting {
    topo: Arc<Topology>,
    dead: Vec<(NodeId, NodeId)>,
    epoch: u64,
    /// Per-epoch source → BFS distance field; cleared at every epoch
    /// change. A burst failure diverts many packets from one node to
    /// many destinations — one BFS per source serves them all.
    dist_cache: BTreeMap<NodeId, Arc<Vec<u32>>>,
    /// Per-epoch (src, dst) → path cache; cleared at every epoch change.
    cache: BTreeMap<(NodeId, NodeId), Option<PathId>>,
}

impl DynamicRouting {
    /// Routing over `topo` with every link initially alive (epoch 0).
    pub fn new(topo: Arc<Topology>) -> Self {
        DynamicRouting {
            topo,
            dead: Vec::new(),
            epoch: 0,
            dist_cache: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    /// The current epoch number: how many link-state changes have been
    /// applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Links currently dead, normalized `(min, max)` and sorted.
    pub fn dead_links(&self) -> &[(NodeId, NodeId)] {
        &self.dead
    }

    /// Apply one link-state change, opening a new epoch.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, up: bool) {
        let k = key(a, b);
        match self.dead.binary_search(&k) {
            Ok(i) => {
                assert!(up, "link {a}–{b} is already down");
                self.dead.remove(i);
            }
            Err(i) => {
                assert!(!up, "link {a}–{b} is already up");
                self.dead.insert(i, k);
            }
        }
        self.epoch += 1;
        self.dist_cache.clear();
        self.cache.clear();
    }

    /// True when the link `a — b` is alive in the current epoch.
    pub fn is_alive(&self, a: NodeId, b: NodeId) -> bool {
        self.dead.binary_search(&key(a, b)).is_err()
    }

    /// The current epoch's path from `src` to `dst`, or `None` when the
    /// surviving links disconnect them. The BFS distance field is cached
    /// per source and the answer per (src, dst), both for the epoch's
    /// lifetime.
    pub fn path(&mut self, src: NodeId, dst: NodeId) -> Option<PathId> {
        if let Some(&p) = self.cache.get(&(src, dst)) {
            return p;
        }
        let dead = &self.dead;
        let alive = move |a: NodeId, b: NodeId| dead.binary_search(&key(a, b)).is_err();
        let dist = match self.dist_cache.get(&src) {
            Some(d) => d.clone(),
            None => {
                let d = Arc::new(bfs_dist_avoiding(&self.topo, src, &alive));
                self.dist_cache.insert(src, d.clone());
                d
            }
        };
        let p = shortest_path_from_dist(&self.topo, &dist, src, dst, &alive);
        self.cache.insert((src, dst), p);
        p
    }
}

impl RerouteOracle for DynamicRouting {
    fn link_state_changed(&mut self, a: NodeId, b: NodeId, up: bool, _now: SimTime) {
        self.set_link(a, b, up);
    }

    fn reroute(&mut self, here: NodeId, dst: NodeId, _now: SimTime) -> Option<PathId> {
        self.path(here, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_topology::{topology_by_name, Routing};

    #[test]
    fn zero_failure_tables_match_static_routing() {
        let topo = Arc::new(topology_by_name("I2:1Gbps-10Gbps").unwrap());
        let mut dynamic = DynamicRouting::new(topo.clone());
        let fixed = Routing::new(&topo);
        let hosts = topo.hosts();
        for &src in hosts.iter().take(6) {
            for &dst in hosts.iter().rev().take(6) {
                if src == dst {
                    continue;
                }
                let d = dynamic.path(src, dst).expect("connected");
                assert_eq!(&*d, &*fixed.path(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn epoch_changes_invalidate_and_restore() {
        let topo = Arc::new(topology_by_name("FatTree(k=4)").unwrap());
        let mut dynamic = DynamicRouting::new(topo.clone());
        let hosts = topo.hosts();
        let (src, dst) = (hosts[0], hosts[12]);
        let before = dynamic.path(src, dst).unwrap();
        assert_eq!(dynamic.epoch(), 0);
        // Kill the first *router* link of the chosen path (the host
        // access link has no alternative): the next epoch's path must
        // avoid it.
        let (a, b) = (before[1], before[2]);
        dynamic.set_link(a, b, false);
        assert_eq!(dynamic.epoch(), 1);
        assert!(!dynamic.is_alive(a, b));
        let during = dynamic.path(src, dst).expect("fat-tree is redundant");
        assert!(
            !during.windows(2).any(|w| key(w[0], w[1]) == key(a, b)),
            "epoch table routed over the dead link"
        );
        // Recovery restores the original choice (same tie-break hash).
        dynamic.set_link(a, b, true);
        assert_eq!(dynamic.epoch(), 2);
        let after = dynamic.path(src, dst).unwrap();
        assert_eq!(&*after, &*before);
    }

    #[test]
    #[should_panic(expected = "already down")]
    fn double_down_is_rejected() {
        let topo = Arc::new(topology_by_name("Line(3)").unwrap());
        let l = topo.links()[1];
        let mut dynamic = DynamicRouting::new(topo);
        dynamic.set_link(l.a, l.b, false);
        dynamic.set_link(l.b, l.a, false);
    }
}
