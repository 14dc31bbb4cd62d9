//! Shortest-path routing and minimum-transit (`tmin`) computation.
//!
//! The paper's model fixes `path(p)` per packet (§2.1); we derive paths by
//! hop-count BFS. Among equal-cost shortest paths the choice is a
//! **deterministic hash of (src, dst)** — ECMP-style spreading without
//! randomness, so every run (and both runs of a replay pair) routes
//! identically while offered load spreads across the mesh instead of
//! piling onto the lowest-numbered links. A (src, dst) pair always maps
//! to exactly one path, interned once per topology core as a
//! [`PathId`].

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use ups_netsim::packet::Packet;
use ups_netsim::prelude::{Dur, NodeId, PathId};

use crate::graph::{LinkSpec, NodeRole, Topology};

/// The topology-only half of utilization calibration (§2.3's "70 %"): how
/// uniformly chosen host pairs load the links utilization is measured on.
///
/// With `f_l` the share of ordered host pairs whose path crosses
/// calibration link `l`, a flow arrival rate `λ` of `F`-bit flows gives a
/// mean utilization of `(λ·F/L) · Σ_l f_l/bw_l`; this is `L` and the sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSummary {
    /// `L`: the number of calibration links.
    pub links: usize,
    /// `Σ_l f_l / bw_l`, in seconds per bit, summed in link order.
    pub sum_f_over_bw: f64,
}

/// The shareable part of [`Routing`]: per-source BFS distance fields, a
/// sorted adjacency copy, the path memo and the [`CalibrationSummary`].
/// The BFS is the O(V·(V+E)) cost of routing and the summary walks every
/// host pair; the sweep engine builds one core **per distinct topology**
/// and shares it across jobs behind an `Arc`, so a path is walked once
/// per topology, by whichever job asks first.
pub struct RoutingCore {
    /// `dist[s][n]` = hop distance from source `s` to `n`.
    dist: Vec<Vec<u32>>,
    /// Sorted adjacency copy (path reconstruction needs neighbor sets
    /// without borrowing the topology).
    adjacency: Vec<Vec<NodeId>>,
    /// Hosts, in id order.
    hosts: Vec<NodeId>,
    /// `paths[src][dst]`: the interned path, filled on first ask. A
    /// source's row of `V` slots is allocated when that source is first
    /// asked for, so building the core touches `V` slots, not `V²`.
    paths: Vec<OnceLock<Box<[OnceLock<PathId>]>>>,
    /// The links utilization is calibrated against, as `(a, b, bits/s)` in
    /// `Topology::links` order: the core–core links, or every
    /// router–router link when there are none (a network of edge routers
    /// only — calibrate on the global bottleneck instead).
    calibration_links: Vec<(NodeId, NodeId, f64)>,
    /// Computed by the first [`Routing::calibration`] through any clone of
    /// the `Arc`, never in `new`: a topology whose jobs all run long-lived
    /// flows never pays for it, and building the core stays BFS-only.
    calibration: OnceLock<CalibrationSummary>,
}

impl RoutingCore {
    /// All-pairs BFS over `topo`.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut dist = Vec::with_capacity(n);
        for s in topo.nodes() {
            dist.push(bfs_dist(topo, s, &alive_all));
        }
        let adjacency = topo.nodes().map(|u| topo.neighbors(u).collect()).collect();
        let rated = |l: &LinkSpec| (l.a, l.b, l.bandwidth.as_bps() as f64);
        let mut calibration_links: Vec<_> = topo.core_links().into_iter().map(rated).collect();
        if calibration_links.is_empty() {
            calibration_links = topo
                .links()
                .iter()
                .filter(|l| topo.role(l.a) != NodeRole::Host && topo.role(l.b) != NodeRole::Host)
                .map(rated)
                .collect();
        }
        RoutingCore {
            dist,
            adjacency,
            hosts: topo.hosts(),
            paths: (0..n).map(|_| OnceLock::new()).collect(),
            calibration_links,
            calibration: OnceLock::new(),
        }
    }

    /// Count, per calibration link, the ordered host pairs routed across
    /// it, and fold the counts into the summary. Each pair is walked
    /// straight off the BFS field into one reused buffer, and each hop
    /// finds its link through a table parallel to the adjacency lists, so
    /// the pass is O(pairs · hops).
    fn calibrate(&self) -> CalibrationSummary {
        const NO_LINK: u32 = u32::MAX;
        let links = &self.calibration_links;
        assert!(!links.is_empty(), "no router-router links to calibrate on");
        // link_at[u][i] = the calibration link between u and adjacency[u][i].
        let mut link_at: Vec<Vec<u32>> = self
            .adjacency
            .iter()
            .map(|adj| vec![NO_LINK; adj.len()])
            .collect();
        for (i, &(a, b, _)) in links.iter().enumerate() {
            for (u, v) in [(a, b), (b, a)] {
                let at = self.adjacency[u.index()]
                    .binary_search(&v)
                    .expect("a link's endpoints are neighbors");
                link_at[u.index()][at] = i as u32;
            }
        }

        let adjacency = &self.adjacency;
        let neighbors = |cur: NodeId, out: &mut Vec<NodeId>| {
            out.extend_from_slice(&adjacency[cur.index()]);
        };
        let mut crossings = vec![0u64; links.len()];
        let (mut path, mut candidates) = (Vec::new(), Vec::new());
        for &s in &self.hosts {
            let dist = &self.dist[s.index()];
            for &d in &self.hosts {
                if s == d {
                    continue;
                }
                assert_ne!(dist[d.index()], u32::MAX, "{d} unreachable from {s}");
                // Reversed (d → s): a crossing is unordered, so it counts
                // the same from either end.
                walk_back(dist, s, d, neighbors, &mut candidates, &mut path);
                for w in path.windows(2) {
                    let u = w[0].index();
                    let at = adjacency[u]
                        .binary_search(&w[1])
                        .expect("consecutive path nodes are neighbors");
                    let i = link_at[u][at];
                    if i != NO_LINK {
                        crossings[i as usize] += 1;
                    }
                }
            }
        }

        let n_pairs = (self.hosts.len() * self.hosts.len().saturating_sub(1)) as f64;
        let sum_f_over_bw: f64 = links
            .iter()
            .zip(&crossings)
            .map(|(&(_, _, bw), &c)| (c as f64 / n_pairs) / bw)
            .sum();
        CalibrationSummary {
            links: links.len(),
            sum_f_over_bw,
        }
    }
}

/// All-pairs routing over a topology: hash-spread paths out of a shared
/// [`RoutingCore`], which memoizes each (src, dst) pair.
pub struct Routing {
    core: Arc<RoutingCore>,
}

/// SplitMix64 — deterministic tie-break hash for equal-cost choices.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The trivial link filter: everything is alive.
fn alive_all(_a: NodeId, _b: NodeId) -> bool {
    true
}

/// Walk backwards from `dst` along a BFS distance field rooted at `src`:
/// at every step the candidates are the (alive) neighbors one hop closer
/// to `src`, picked by the (src, dst)-seeded hash. This single function
/// is the tie-break rule — static [`Routing`] and the dynamics layer's
/// failover routing both call it, so a zero-failure dynamic table is the
/// static table by construction.
///
/// `neighbors_of(cur, out)` must fill `out` with `cur`'s neighbors whose
/// link to `cur` is alive, in ascending-id order. The walk is left in
/// `rev` **reversed** (`dst` first, `src` last); `candidates` is scratch.
/// Both are cleared here, so a caller walking many pairs reuses them.
fn walk_back(
    dist: &[u32],
    src: NodeId,
    dst: NodeId,
    mut neighbors_of: impl FnMut(NodeId, &mut Vec<NodeId>),
    candidates: &mut Vec<NodeId>,
    rev: &mut Vec<NodeId>,
) {
    let seed = mix(((src.0 as u64) << 32) | dst.0 as u64);
    rev.clear();
    rev.push(dst);
    let mut cur = dst;
    while cur != src {
        let want = dist[cur.index()] - 1;
        candidates.clear();
        neighbors_of(cur, candidates);
        candidates.retain(|n| dist[n.index()] == want);
        debug_assert!(!candidates.is_empty(), "broken BFS field");
        let pick = mix(seed ^ cur.0 as u64) as usize % candidates.len();
        cur = candidates[pick];
        rev.push(cur);
    }
}

/// One [`walk_back`] as an interned `src → dst` path.
fn walk_back_path(
    dist: &[u32],
    src: NodeId,
    dst: NodeId,
    neighbors_of: impl FnMut(NodeId, &mut Vec<NodeId>),
) -> PathId {
    let mut rev = Vec::with_capacity(dist[dst.index()] as usize + 1);
    walk_back(dist, src, dst, neighbors_of, &mut Vec::new(), &mut rev);
    rev.reverse();
    PathId::intern(&rev)
}

impl Routing {
    /// Compute routing for `topo`. O(V·(V+E)); instantaneous at the
    /// paper's scales (≤ a few thousand nodes).
    pub fn new(topo: &Topology) -> Self {
        Routing::from_core(Arc::new(RoutingCore::new(topo)))
    }

    /// Wrap an already-computed (typically shared) core; paths come out
    /// of the core's memo, shared with every `Routing` over it.
    pub fn from_core(core: Arc<RoutingCore>) -> Self {
        Routing { core }
    }

    /// The unique deterministic path from `src` to `dst`, inclusive.
    ///
    /// # Panics
    /// If `dst` is unreachable (canned topologies are validated connected).
    pub fn path(&self, src: NodeId, dst: NodeId) -> PathId {
        assert_ne!(src, dst, "degenerate path {src} -> {src}");
        let core = &*self.core;
        let row = core.paths[src.index()]
            .get_or_init(|| core.adjacency.iter().map(|_| OnceLock::new()).collect());
        *row[dst.index()].get_or_init(|| {
            let dist = &core.dist[src.index()];
            assert_ne!(dist[dst.index()], u32::MAX, "{dst} unreachable from {src}");
            walk_back_path(dist, src, dst, |cur, out| {
                out.extend_from_slice(&core.adjacency[cur.index()])
            })
        })
    }

    /// The shared core's [`CalibrationSummary`], computed by whichever
    /// `Routing` over that core asks first.
    ///
    /// # Panics
    /// If the topology has no router–router link, or a host pair is
    /// disconnected.
    pub fn calibration(&self) -> CalibrationSummary {
        *self.core.calibration.get_or_init(|| self.core.calibrate())
    }

    /// Hop count (number of links) between two nodes.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> usize {
        self.path(src, dst).len() - 1
    }
}

/// Hash-spread shortest path from `src` to `dst` over the links `alive`
/// admits, or `None` when the surviving graph disconnects them — the
/// primitive behind the dynamics layer's per-epoch failover routing.
/// With an all-true filter this returns exactly [`Routing::path`]'s
/// answer (same BFS, same `walk_back` tie-break).
pub fn shortest_path_avoiding(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    alive: &dyn Fn(NodeId, NodeId) -> bool,
) -> Option<PathId> {
    shortest_path_from_dist(topo, &bfs_dist_avoiding(topo, src, alive), src, dst, alive)
}

/// The BFS half of [`shortest_path_avoiding`]: hop distances from `src`
/// over the links `alive` admits. The field depends only on the source
/// and the alive set, so callers answering many destinations per source
/// (the dynamics layer's burst reroutes) compute it once and reconstruct
/// per destination with [`shortest_path_from_dist`].
pub fn bfs_dist_avoiding(
    topo: &Topology,
    src: NodeId,
    alive: &dyn Fn(NodeId, NodeId) -> bool,
) -> Vec<u32> {
    bfs_dist(topo, src, alive)
}

/// The reconstruction half of [`shortest_path_avoiding`]: walk a
/// precomputed distance field (from [`bfs_dist_avoiding`] with the same
/// `src` and `alive`) back from `dst` with the hash-spread tie-break.
pub fn shortest_path_from_dist(
    topo: &Topology,
    dist: &[u32],
    src: NodeId,
    dst: NodeId,
    alive: &dyn Fn(NodeId, NodeId) -> bool,
) -> Option<PathId> {
    assert_ne!(src, dst, "degenerate path {src} -> {src}");
    if dist[dst.index()] == u32::MAX {
        return None;
    }
    Some(walk_back_path(dist, src, dst, |cur, out| {
        out.extend(topo.neighbors(cur).filter(|&n| alive(n, cur)));
    }))
}

/// BFS hop distances from `s` over the links `alive` admits.
fn bfs_dist(topo: &Topology, s: NodeId, alive: &dyn Fn(NodeId, NodeId) -> bool) -> Vec<u32> {
    let n = topo.node_count();
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    dist[s.index()] = 0;
    let mut q = VecDeque::new();
    q.push_back(s);
    while let Some(u) = q.pop_front() {
        for v in topo.neighbors(u) {
            if dist[v.index()] == u32::MAX && alive(u, v) {
                dist[v.index()] = dist[u.index()] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// `tmin(p, path[from], dst)` for a packet of `size` bytes along `path`
/// (paper App. A): the empty-network transit time — every hop's
/// serialization plus every link's propagation, store-and-forward.
pub fn tmin_suffix(topo: &Topology, path: &[NodeId], size: u32, from: usize) -> Dur {
    assert!(from < path.len());
    let mut total = Dur::ZERO;
    for w in path.windows(2).skip(from) {
        let link = topo
            .neighbor_link(w[0], w[1])
            .unwrap_or_else(|| panic!("path uses missing link {}–{}", w[0], w[1]));
        total += link.bandwidth.tx_time(size) + link.propagation;
    }
    total
}

/// Full-path `tmin(p, src, dst)`.
pub fn tmin(topo: &Topology, path: &[NodeId], size: u32) -> Dur {
    tmin_suffix(topo, path, size, 0)
}

/// The per-hop remaining-transit table `tmin_rem[i] = tmin(p, path[i],
/// dst)` that EDF needs (App. E). `tmin_rem[last] = 0`.
pub fn tmin_rem_table(topo: &Topology, path: &[NodeId], size: u32) -> Arc<[Dur]> {
    let n = path.len();
    let mut out = vec![Dur::ZERO; n];
    // Suffix sums from the back.
    for i in (0..n - 1).rev() {
        let link = topo
            .neighbor_link(path[i], path[i + 1])
            .unwrap_or_else(|| panic!("path uses missing link {}–{}", path[i], path[i + 1]));
        out[i] = out[i + 1] + link.bandwidth.tx_time(size) + link.propagation;
    }
    out.into()
}

/// Attach a `tmin_rem` table to a packet in place (needed before running
/// it through EDF ports).
pub fn attach_tmin(topo: &Topology, packet: &mut Packet) {
    packet.tmin_rem = Some(tmin_rem_table(topo, &packet.path, packet.size));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeRole;
    use ups_netsim::prelude::Bandwidth;

    /// Diamond: 0 - {1,2} - 3, plus a slow detour 0-4-3.
    fn diamond() -> Topology {
        let mut t = Topology::new("diamond");
        for _ in 0..5 {
            t.add_node(NodeRole::Core);
        }
        let bw = Bandwidth::from_gbps(1);
        t.add_link(NodeId(0), NodeId(1), bw, Dur::from_us(10));
        t.add_link(NodeId(0), NodeId(2), bw, Dur::from_us(10));
        t.add_link(NodeId(1), NodeId(3), bw, Dur::from_us(10));
        t.add_link(NodeId(2), NodeId(3), bw, Dur::from_us(10));
        t.add_link(NodeId(0), NodeId(4), bw, Dur::from_us(10));
        t.add_link(NodeId(4), NodeId(3), bw, Dur::from_us(10));
        t
    }

    #[test]
    fn picks_a_shortest_path_deterministically() {
        let r = Routing::new(&diamond());
        // 0->3 has three 2-hop options via 1, 2 or 4.
        let p = r.path(NodeId(0), NodeId(3));
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], NodeId(0));
        assert_eq!(p[2], NodeId(3));
        assert!([NodeId(1), NodeId(2), NodeId(4)].contains(&p[1]));
        assert_eq!(r.hop_count(NodeId(0), NodeId(3)), 2);
        // The memoized path is the same id.
        assert_eq!(p, r.path(NodeId(0), NodeId(3)));
        // A fresh Routing instance picks the same path (pure hash).
        let r2 = Routing::new(&diamond());
        assert_eq!(&*r2.path(NodeId(0), NodeId(3)), &*p);
    }

    #[test]
    fn ecmp_spreads_over_equal_cost_paths() {
        // Fan topology: many (src, dst) pairs across the 0–3 diamond must
        // not all pick the same middle node.
        let mut t = diamond();
        let bw = Bandwidth::from_gbps(1);
        // Hang leaf nodes off 0 and 3 to create distinct pairs.
        let leaves_a: Vec<NodeId> = (0..6)
            .map(|_| {
                let l = t.add_node(NodeRole::Core);
                t.add_link(l, NodeId(0), bw, Dur::from_us(1));
                l
            })
            .collect();
        let leaves_b: Vec<NodeId> = (0..6)
            .map(|_| {
                let l = t.add_node(NodeRole::Core);
                t.add_link(l, NodeId(3), bw, Dur::from_us(1));
                l
            })
            .collect();
        let r = Routing::new(&t);
        let mut middles = std::collections::HashSet::new();
        for &a in &leaves_a {
            for &b in &leaves_b {
                let p = r.path(a, b);
                middles.insert(p[2]);
            }
        }
        assert!(
            middles.len() >= 2,
            "36 pairs should spread over ≥2 of the 3 equal-cost middles, got {middles:?}"
        );
    }

    #[test]
    fn tmin_adds_tx_and_propagation_per_hop() {
        let t = diamond();
        let path = [NodeId(0), NodeId(1), NodeId(3)];
        // Two hops: 2 × (12us tx @1G for 1500B + 10us prop) = 44us.
        assert_eq!(tmin(&t, &path, 1500), Dur::from_us(44));
        assert_eq!(tmin_suffix(&t, &path, 1500, 1), Dur::from_us(22));
    }

    #[test]
    fn tmin_rem_table_is_suffix_sums() {
        let t = diamond();
        let path = [NodeId(0), NodeId(1), NodeId(3)];
        let table = tmin_rem_table(&t, &path, 1500);
        assert_eq!(&*table, &[Dur::from_us(44), Dur::from_us(22), Dur::ZERO]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_self_path() {
        let r = Routing::new(&diamond());
        let _ = r.path(NodeId(1), NodeId(1));
    }

    #[test]
    fn filtered_path_with_everything_alive_matches_static_routing() {
        let t = diamond();
        let r = Routing::new(&t);
        for (src, dst) in [(0u32, 3u32), (3, 0), (1, 4), (4, 2), (0, 1)] {
            let (src, dst) = (NodeId(src), NodeId(dst));
            let filtered = shortest_path_avoiding(&t, src, dst, &|_, _| true).expect("connected");
            assert_eq!(&*filtered, &*r.path(src, dst), "{src}->{dst}");
        }
    }

    #[test]
    fn filtered_path_detours_around_dead_links() {
        let t = diamond();
        let r = Routing::new(&t);
        let via = r.path(NodeId(0), NodeId(3))[1];
        // Kill the first hop of the chosen path: the detour must avoid it
        // and still be a 2-hop shortest path through another middle node.
        let dead = (NodeId(0), via);
        let alive = move |a: NodeId, b: NodeId| !((a, b) == dead || (b, a) == dead);
        let p = shortest_path_avoiding(&t, NodeId(0), NodeId(3), &alive).expect("still connected");
        assert_eq!(p.len(), 3);
        assert_ne!(p[1], via, "detour must not use the dead link");
    }

    #[test]
    fn filtered_path_reports_disconnection() {
        // Line 0-1-2: killing 1-2 cuts 0 off from 2.
        let mut t = Topology::new("cut");
        for _ in 0..3 {
            t.add_node(NodeRole::Core);
        }
        let bw = Bandwidth::from_gbps(1);
        t.add_link(NodeId(0), NodeId(1), bw, Dur::from_us(1));
        t.add_link(NodeId(1), NodeId(2), bw, Dur::from_us(1));
        let alive = |a: NodeId, b: NodeId| {
            !((a, b) == (NodeId(1), NodeId(2)) || (a, b) == (NodeId(2), NodeId(1)))
        };
        assert!(shortest_path_avoiding(&t, NodeId(0), NodeId(2), &alive).is_none());
        assert!(shortest_path_avoiding(&t, NodeId(0), NodeId(1), &alive).is_some());
    }

    #[test]
    fn shared_core_yields_identical_paths() {
        let t = diamond();
        let core = Arc::new(RoutingCore::new(&t));
        let a = Routing::from_core(core.clone());
        let b = Routing::from_core(core);
        let fresh = Routing::new(&t);
        assert_eq!(
            &*a.path(NodeId(0), NodeId(3)),
            &*fresh.path(NodeId(0), NodeId(3))
        );
        assert_eq!(
            &*b.path(NodeId(4), NodeId(1)),
            &*fresh.path(NodeId(4), NodeId(1))
        );
    }

    #[test]
    fn routings_over_one_core_return_the_same_path_ids() {
        let t = diamond();
        let core = Arc::new(RoutingCore::new(&t));
        let a = Routing::from_core(core.clone());
        let b = Routing::from_core(core.clone());
        let pairs: Vec<(NodeId, NodeId)> = t
            .nodes()
            .flat_map(|s| t.nodes().map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .collect();
        // `a` fills the memo in one order and `b` reads it in the other.
        let from_a: Vec<PathId> = pairs.iter().map(|&(s, d)| a.path(s, d)).collect();
        let from_b: Vec<PathId> = pairs.iter().rev().map(|&(s, d)| b.path(s, d)).collect();
        assert!(from_a.iter().eq(from_b.iter().rev()));
        // One walk per pair, shared: the memo holds exactly the pairs asked.
        let rows = core.paths.iter().filter_map(OnceLock::get);
        let filled = rows.flat_map(|row| row.iter().filter_map(OnceLock::get));
        assert_eq!(filled.count(), pairs.len());
        // A separate core walks its own memo to the same content, which
        // interns to the same ids.
        let fresh = Routing::new(&t);
        for (&(s, d), &id) in pairs.iter().zip(&from_a) {
            assert_eq!(fresh.path(s, d), id, "{s}->{d}");
            assert_eq!(id.index(), fresh.path(s, d).index());
        }
    }
}
