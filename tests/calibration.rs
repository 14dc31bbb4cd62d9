//! Utilization calibration against its reference.
//!
//! `calibrate_flow_rate` is `target·L / (F·Σ_l f_l/bw_l)` over a summary
//! that `RoutingCore` computes once per topology, lazily, by walking every
//! host pair off the BFS field. The contract is bit-identity with the
//! calibration it replaced — every generated flow list, and through them
//! every committed record, depends on λ to the last bit — so this file
//! keeps that calibration as the oracle: all ordered host pairs through
//! `Routing::path`, every hop scanned against every calibration link.

use std::sync::{Arc, Barrier};

use ups::netsim::prelude::{Bandwidth, Dur, NodeId};
use ups::topology::{NodeRole, Routing, RoutingCore, Topology, TOPOLOGIES};
use ups::workload::calibrate_flow_rate;

/// `(mean_flow_bytes, target)`: small flows at light load to large flows
/// near saturation.
const CASES: [(f64, f64); 3] = [(10_000.0, 0.3), (100_000.0, 0.7), (1_500_000.0, 0.9)];

// Shared across worker threads by construction; a `Cell`/`Rc` slipping
// into the core fails this file's compilation, not a sweep.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<RoutingCore>();

/// The O(hosts²·hops·links) calibration, as it stood before the summary
/// moved into `RoutingCore`. Reference only.
fn reference_flow_rate(
    topo: &Topology,
    routing: &Routing,
    mean_flow_bytes: f64,
    target: f64,
) -> f64 {
    let hosts = topo.hosts();
    let core: Vec<(NodeId, NodeId, f64)> = topo
        .core_links()
        .iter()
        .map(|l| (l.a, l.b, l.bandwidth.as_bps() as f64))
        .collect();
    // Fall back to *all* links if the topology has no core-core links
    // (dumbbells, lines): calibrate on the global bottleneck instead.
    let use_all = core.is_empty();
    let links: Vec<(NodeId, NodeId, f64)> = if use_all {
        topo.links()
            .iter()
            .filter(|l| topo.role(l.a) != NodeRole::Host && topo.role(l.b) != NodeRole::Host)
            .map(|l| (l.a, l.b, l.bandwidth.as_bps() as f64))
            .collect()
    } else {
        core
    };
    assert!(!links.is_empty(), "no router-router links to calibrate on");

    let n_pairs = (hosts.len() * (hosts.len() - 1)) as f64;
    // Count path crossings per link (unordered match on consecutive nodes).
    let mut crossings = vec![0u64; links.len()];
    for &s in &hosts {
        for &d in &hosts {
            if s == d {
                continue;
            }
            let path = routing.path(s, d);
            for w in path.windows(2) {
                for (i, &(a, b, _)) in links.iter().enumerate() {
                    if (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a) {
                        crossings[i] += 1;
                    }
                }
            }
        }
    }
    let sum_f_over_bw: f64 = links
        .iter()
        .zip(&crossings)
        .map(|(&(_, _, bw), &c)| (c as f64 / n_pairs) / bw)
        .sum();
    let mean_flow_bits = mean_flow_bytes * 8.0;
    let lambda = target * links.len() as f64 / (mean_flow_bits * sum_f_over_bw);
    assert!(lambda.is_finite() && lambda > 0.0, "calibration failed");
    lambda
}

/// The reference λ bits for every case on `topo`.
fn reference_bits(topo: &Topology) -> [u64; 3] {
    let routing = Routing::new(topo);
    CASES.map(|(bytes, target)| reference_flow_rate(topo, &routing, bytes, target).to_bits())
}

fn calibrated_bits(topo: &Topology, routing: &Routing) -> [u64; 3] {
    CASES.map(|(bytes, target)| calibrate_flow_rate(topo, routing, bytes, target).to_bits())
}

/// Four edge routers in a ring with a chord, two hosts each, unequal
/// bandwidths. Every registry topology (`Line` and `Dumbbell` included)
/// is built from `Core` routers, so this is the one input here that takes
/// the router–router fallback of the calibration link set.
fn edge_only_ring() -> Topology {
    let mut t = Topology::new("edge-only-ring");
    let routers: Vec<NodeId> = (0..4).map(|_| t.add_node(NodeRole::Edge)).collect();
    for (i, &r) in routers.iter().enumerate() {
        let next = routers[(i + 1) % routers.len()];
        let bw = Bandwidth::from_gbps(1 + i as u64);
        t.add_link(r, next, bw, Dur::from_us(10));
        for _ in 0..2 {
            let h = t.add_node(NodeRole::Host);
            t.add_link(h, r, Bandwidth::from_gbps(1), Dur::from_us(1));
        }
    }
    t.add_link(
        routers[0],
        routers[2],
        Bandwidth::from_mbps(500),
        Dur::from_us(10),
    );
    t.validate();
    assert!(t.core_links().is_empty());
    t
}

#[test]
fn every_registry_topology_calibrates_to_the_reference_bits() {
    let named = TOPOLOGIES.iter().map(|e| (e.name, e.build()));
    for (name, topo) in named.chain([("edge-only-ring", edge_only_ring())]) {
        let want = reference_bits(&topo);

        let fresh = Routing::new(&topo);
        assert_eq!(calibrated_bits(&topo, &fresh), want, "{name}: fresh core");

        // Two routings over one core: the first computes the summary, the
        // second finds it.
        let core = Arc::new(RoutingCore::new(&topo));
        for which in ["first", "second"] {
            let routing = Routing::from_core(core.clone());
            assert_eq!(
                calibrated_bits(&topo, &routing),
                want,
                "{name}: {which} routing over a shared core"
            );
        }
    }
}

#[test]
fn eight_threads_racing_for_one_summary_all_get_the_reference() {
    const THREADS: usize = 8;
    for name in ["RocketFuel", "I2:1Gbps-10Gbps"] {
        let topo = ups::topology::topology_by_name(name).expect("registered");
        let want = reference_bits(&topo);
        // Never calibrated through: every thread arrives at an
        // un-initialised summary, released together by the barrier.
        let core = Arc::new(RoutingCore::new(&topo));
        let start = Barrier::new(THREADS);
        let got: Vec<[u64; 3]> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let routing = Routing::from_core(core.clone());
                    let (topo, start) = (&topo, &start);
                    scope.spawn(move || {
                        start.wait();
                        calibrated_bits(topo, &routing)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("calibrating thread panicked"))
                .collect()
        });
        assert_eq!(got, vec![want; THREADS], "{name}");
    }
}
