//! An enumerable registry of named workload profiles, plus the shared
//! calibrated-workload builders the benches and the sweep engine use.
//!
//! A *profile* names a flow-size distribution; combined with a topology,
//! a utilization target, an arrival window and a seed it fully determines
//! a packet set (Poisson arrivals over random host pairs, calibrated
//! against the topology's core links — §2.3 of the paper). Grids in
//! `ups-sweep` reference profiles by name.

use ups_netsim::prelude::Dur;
use ups_topology::{Routing, Topology};

use crate::dist::{BoundedPareto, Empirical, Fixed, SizeDist};
use crate::flows::{long_lived_flows, FlowSpec, PoissonWorkload};
use crate::udp::{flows_with_floor, MTU};

/// How a profile turns (topology, utilization, window, seed) into flows.
enum ProfileKind {
    /// Utilization-calibrated Poisson arrivals with sizes drawn from the
    /// named distribution — realizable open-loop (UDP trains) or
    /// closed-loop (TCP endpoints).
    Poisson(fn() -> Box<dyn SizeDist>),
    /// Persistent (`size == u64::MAX`) flows that never finish — the
    /// Figure 4 regime. Only a closed-loop transport can realize these;
    /// the flow count scales with the utilization axis (see
    /// [`WorkloadProfile::flows`]).
    LongLived,
}

/// One named workload profile.
pub struct WorkloadProfile {
    /// Stable registry name (grids reference this).
    pub name: &'static str,
    /// One-line description for listings.
    pub description: &'static str,
    kind: ProfileKind,
}

/// Every registered profile, in listing order.
pub const PROFILES: &[WorkloadProfile] = &[
    WorkloadProfile {
        name: "web-search",
        description: "empirical web-search flow sizes [4] (paper default)",
        kind: ProfileKind::Poisson(|| Box::new(Empirical::web_search())),
    },
    WorkloadProfile {
        name: "data-mining",
        description: "empirical data-mining flow sizes [5]",
        kind: ProfileKind::Poisson(|| Box::new(Empirical::data_mining())),
    },
    WorkloadProfile {
        name: "pareto",
        description: "bounded-Pareto heavy tail",
        kind: ProfileKind::Poisson(|| Box::new(BoundedPareto::traffic_default())),
    },
    WorkloadProfile {
        name: "fixed-mtu",
        description: "every flow exactly one MTU (pure scheduling stress)",
        kind: ProfileKind::Poisson(|| Box::new(Fixed(MTU as u64))),
    },
    WorkloadProfile {
        name: "long-lived",
        description: "persistent flows, never complete (closed-loop only; Fig. 4 regime)",
        kind: ProfileKind::LongLived,
    },
];

/// All registered names, in listing order.
pub fn profile_names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p.name).collect()
}

/// Look a profile up by name.
pub fn profile_by_name(name: &str) -> Option<&'static WorkloadProfile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// A utilization-calibrated workload grown to a packet floor; its UDP
/// train is [`crate::udp_packet_stream`] over `flows`.
pub struct CalibratedTrain {
    /// The flows, in start order.
    pub flows: Vec<FlowSpec>,
    /// The arrival window actually used (relevant when grown to a floor).
    pub window: Dur,
}

impl WorkloadProfile {
    /// True when only a closed-loop transport can realize this profile
    /// (its flows never complete, so there is no finite packet train).
    /// Grids must reject `open-loop × closed-loop-only` combinations.
    pub fn closed_loop_only(&self) -> bool {
        matches!(self.kind, ProfileKind::LongLived)
    }

    /// Whether [`WorkloadProfile::flows`] can generate this profile at
    /// `utilization`, or why not: Poisson profiles panic outside
    /// [`PoissonWorkload::accepts`], and long-lived ones would clamp a
    /// non-finite or non-positive value to two flows.
    pub fn check_utilization(&self, utilization: f64) -> Result<(), String> {
        let (ok, range) = match self.kind {
            ProfileKind::Poisson(_) => (PoissonWorkload::accepts(utilization), "(0, 1.5)"),
            ProfileKind::LongLived => (utilization.is_finite() && utilization > 0.0, "(0, inf)"),
        };
        let name = self.name;
        ok.then_some(()).ok_or_else(|| {
            format!(
                "utilization {utilization} is outside {range}, the range profile {name:?} accepts"
            )
        })
    }

    /// Instantiate this profile's size distribution.
    ///
    /// # Panics
    /// For closed-loop-only profiles, which have no size distribution.
    pub fn sizes(&self) -> Box<dyn SizeDist> {
        match self.kind {
            ProfileKind::Poisson(sizes) => sizes(),
            ProfileKind::LongLived => {
                panic!(
                    "profile {:?} has no size distribution (long-lived)",
                    self.name
                )
            }
        }
    }

    /// Generate the flow list for this profile.
    ///
    /// Poisson profiles calibrate the arrival rate so expected mean
    /// core-link utilization hits the target. Long-lived profiles
    /// instead scale the *flow count* with the utilization axis
    /// (`⌈2 · hosts · utilization⌉`, at least 2) and jitter starts over
    /// the window — more "utilization" means more competing persistent
    /// flows, the quantity Figure 4 varies.
    pub fn flows(
        &self,
        topo: &Topology,
        routing: &Routing,
        utilization: f64,
        window: Dur,
        seed: u64,
    ) -> Vec<FlowSpec> {
        match self.kind {
            ProfileKind::Poisson(sizes) => {
                let sizes = sizes();
                PoissonWorkload::at_utilization(utilization, window, seed).generate(
                    topo,
                    routing,
                    sizes.as_ref(),
                )
            }
            ProfileKind::LongLived => {
                let n = ((topo.hosts().len() as f64 * 2.0 * utilization).ceil() as usize).max(2);
                long_lived_flows(topo, routing, n, window, seed)
            }
        }
    }

    /// Grow the arrival window (doubling from `start_window`) until the
    /// packetized workload clears `min_packets` — [`flows_with_floor`]
    /// over this profile.
    ///
    /// # Panics
    /// If the floor is still unmet at 1024× the starting window.
    pub fn udp_train_with_floor(
        &self,
        topo: &Topology,
        utilization: f64,
        min_packets: usize,
        start_window: Dur,
        seed: u64,
    ) -> CalibratedTrain {
        // One all-pairs BFS and one calibration, however often the window
        // doubles.
        let routing = Routing::new(topo);
        let (flows, window) = flows_with_floor(
            min_packets as u64,
            start_window,
            start_window.times(1024),
            |window| self.flows(topo, &routing, utilization, window, seed),
        );
        CalibratedTrain { flows, window }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::{train_packets, udp_packet_train};
    use ups_netsim::prelude::{Bandwidth, SimTime};
    use ups_topology::line;

    fn tiny_topo() -> Topology {
        line(2, Bandwidth::from_gbps(1), Dur::from_us(10))
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let names = profile_names();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(n), "duplicate profile {n}");
            assert!(profile_by_name(n).is_some());
        }
        assert!(profile_by_name("bimodal").is_none());
    }

    #[test]
    fn profiles_generate_deterministic_trains() {
        let topo = tiny_topo();
        for p in PROFILES.iter().filter(|p| !p.closed_loop_only()) {
            // Window sized for the profile's mean: the empirical mixes
            // have multi-MB means, so a 2-host line needs a long window
            // before the Poisson process emits anything.
            let window = Dur::from_ms(if p.name == "fixed-mtu" { 2 } else { 400 });
            let train =
                || udp_packet_train(&p.flows(&topo, &Routing::new(&topo), 0.5, window, 7), MTU);
            let (a, b) = (train(), train());
            assert!(!a.is_empty(), "{} generated nothing", p.name);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", p.name);
        }
    }

    #[test]
    fn long_lived_profile_is_closed_loop_only_and_scales_with_utilization() {
        let p = profile_by_name("long-lived").unwrap();
        assert!(p.closed_loop_only());
        assert!(!profile_by_name("web-search").unwrap().closed_loop_only());
        let topo = tiny_topo();
        let routing = ups_topology::Routing::new(&topo);
        let lo = p.flows(&topo, &routing, 0.3, Dur::from_ms(5), 3);
        let hi = p.flows(&topo, &routing, 0.9, Dur::from_ms(5), 3);
        assert!(lo.len() >= 2);
        assert!(hi.len() >= lo.len(), "{} vs {}", hi.len(), lo.len());
        for f in lo.iter().chain(&hi) {
            assert_eq!(f.size, u64::MAX, "long-lived flows never complete");
            assert!(f.start <= SimTime::from_ms(5));
        }
        // Deterministic per seed.
        let again = p.flows(&topo, &routing, 0.3, Dur::from_ms(5), 3);
        assert_eq!(lo.len(), again.len());
        assert!(lo
            .iter()
            .zip(&again)
            .all(|(a, b)| (a.src, a.dst, a.start) == (b.src, b.dst, b.start)));
    }

    #[test]
    fn floor_growth_reaches_target() {
        let topo = tiny_topo();
        let profile = profile_by_name("fixed-mtu").unwrap();
        let train = profile.udp_train_with_floor(&topo, 0.5, 2_000, Dur::from_ms(1), 3);
        assert!(train_packets(&train.flows) >= 2_000);
        assert!(train.window > Dur::from_ms(1), "window must have grown");
        // The routing kept across doublings changes nothing: a fresh one
        // at the final window gives the same train, packet for packet.
        let direct = profile.flows(&topo, &Routing::new(&topo), 0.5, train.window, 3);
        assert_eq!(
            format!("{:?}", udp_packet_train(&train.flows, MTU)),
            format!("{:?}", udp_packet_train(&direct, MTU))
        );
    }
}
