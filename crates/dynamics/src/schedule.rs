//! Deterministic seeded link-failure schedules.
//!
//! A [`FailureSchedule`] is a sorted list of alternating link-down /
//! link-up events over a run window, generated as a pure function of
//! `(topology, profile, rate, window, seed)` — the sweep engine's
//! determinism contract extends to churn. Host access links are never
//! failed: a degree-1 host behind a dead link could only ever drop, which
//! measures topology pruning, not scheduling under churn.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ups_netsim::prelude::{Dur, NodeId, SimTime};
use ups_topology::{NodeRole, Topology};

/// A named family of failure patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureProfile {
    /// Each failed link is any router–router link, with independent
    /// outage start and duration scattered over the window.
    RandomLinks,
    /// Like `RandomLinks` but restricted to core–core links — the
    /// backbone cuts that force the most rerouting.
    CoreLinks,
    /// A correlated event: every selected router–router link goes down at
    /// 35% of the window and recovers at 65% — the "shared conduit cut".
    Burst,
}

impl FailureProfile {
    /// Stable registry name.
    pub fn name(self) -> &'static str {
        match self {
            FailureProfile::RandomLinks => "random-links",
            FailureProfile::CoreLinks => "core-links",
            FailureProfile::Burst => "burst",
        }
    }

    /// Parse a registry name.
    pub fn from_name(name: &str) -> Option<FailureProfile> {
        FAILURE_PROFILES
            .iter()
            .find(|(p, _)| p.name() == name)
            .map(|&(p, _)| p)
    }

    /// Rate used when a spec names a profile without `:rate`.
    pub const DEFAULT_RATE: f64 = 0.3;
}

/// Every registered profile with a one-line description (`sweep --list`).
pub const FAILURE_PROFILES: &[(FailureProfile, &str)] = &[
    (
        FailureProfile::RandomLinks,
        "independent outages on random router-router links",
    ),
    (
        FailureProfile::CoreLinks,
        "independent outages restricted to core-core links",
    ),
    (
        FailureProfile::Burst,
        "correlated cut: all selected links down together mid-run",
    ),
];

/// Parse a `--failures` axis value: `PROFILE` or `PROFILE:RATE`, where
/// `RATE` ∈ [0, 1] is the fraction of eligible links that fail during
/// the run (default [`FailureProfile::DEFAULT_RATE`]).
pub fn parse_failure_spec(spec: &str) -> Result<(FailureProfile, f64), String> {
    let (name, rate) = match spec.split_once(':') {
        Some((name, rate)) => {
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("bad failure rate {rate:?} in {spec:?}"))?;
            (name, rate)
        }
        None => (spec, FailureProfile::DEFAULT_RATE),
    };
    let profile = FailureProfile::from_name(name).ok_or_else(|| {
        format!(
            "unknown failure profile {name:?} (known: {})",
            FAILURE_PROFILES
                .iter()
                .map(|(p, _)| p.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("failure rate {rate} out of [0, 1] in {spec:?}"));
    }
    Ok((profile, rate))
}

/// One bidirectional link-state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// New state.
    pub up: bool,
}

/// A generated failure schedule: events sorted by time, strictly
/// alternating (down before up) per link.
#[derive(Debug, Clone, Default)]
pub struct FailureSchedule {
    /// The events, sorted by `(at, a, b)`.
    pub events: Vec<LinkEvent>,
}

impl FailureSchedule {
    /// No failures — the static-network degenerate case.
    pub fn none() -> Self {
        FailureSchedule::default()
    }

    /// Generate the schedule for `profile` at `rate` over `window`.
    ///
    /// `rate` is the fraction of the profile's eligible links that fail
    /// during the run; outage times scale with `window` (the flow-arrival
    /// window of the workload under test). Deterministic in all inputs.
    pub fn generate(
        topo: &Topology,
        profile: FailureProfile,
        rate: f64,
        window: Dur,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of [0, 1]");
        let eligible: Vec<(NodeId, NodeId)> = topo
            .links()
            .iter()
            .filter(|l| {
                let router_router =
                    topo.role(l.a) != NodeRole::Host && topo.role(l.b) != NodeRole::Host;
                match profile {
                    FailureProfile::RandomLinks | FailureProfile::Burst => router_router,
                    FailureProfile::CoreLinks => {
                        topo.role(l.a) == NodeRole::Core && topo.role(l.b) == NodeRole::Core
                    }
                }
            })
            .map(|l| (l.a, l.b))
            .collect();
        let count = ((eligible.len() as f64 * rate).round() as usize).min(eligible.len());
        if count == 0 {
            return FailureSchedule::none();
        }
        // Partial Fisher–Yates over the (topology-ordered, hence
        // deterministic) eligible list.
        let mut rng = SmallRng::seed_from_u64(seed ^ ((profile as u64) << 56) ^ 0xD1CE);
        let mut pool = eligible;
        let mut events = Vec::with_capacity(2 * count);
        // Failure windows are bounded by the run horizon (minutes of sim
        // time, well inside the f64-exact range), and the product only
        // seeds down/up offsets.
        let w = window.as_ps_f64();
        for k in 0..count {
            let pick = rng.gen_range(k..pool.len());
            pool.swap(k, pick);
            let (a, b) = pool[k];
            let (down, up) = match profile {
                FailureProfile::RandomLinks | FailureProfile::CoreLinks => {
                    let down = w * rng.gen_range(0.10..0.70);
                    let outage = w * rng.gen_range(0.15..0.40);
                    (down, down + outage)
                }
                FailureProfile::Burst => (w * 0.35, w * 0.65),
            };
            events.push(LinkEvent {
                at: SimTime::from_ps(down as u64),
                a,
                b,
                up: false,
            });
            events.push(LinkEvent {
                at: SimTime::from_ps(up as u64),
                a,
                b,
                up: true,
            });
        }
        events.sort_by_key(|e| (e.at, e.a, e.b, e.up));
        FailureSchedule { events }
    }

    /// Distinct links this schedule takes down at least once.
    pub fn links_failed(&self) -> u64 {
        let mut links: Vec<(NodeId, NodeId)> = self
            .events
            .iter()
            .filter(|e| !e.up)
            .map(|e| (e.a, e.b))
            .collect();
        links.sort();
        links.dedup();
        links.len() as u64
    }

    /// True when no link ever fails.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ups_topology::topology_by_name;

    #[test]
    fn parse_specs() {
        assert_eq!(
            parse_failure_spec("random-links:0.5"),
            Ok((FailureProfile::RandomLinks, 0.5))
        );
        assert_eq!(
            parse_failure_spec("burst"),
            Ok((FailureProfile::Burst, FailureProfile::DEFAULT_RATE))
        );
        assert!(parse_failure_spec("random-links:1.5").is_err());
        assert!(parse_failure_spec("random-links:x").is_err());
        assert!(parse_failure_spec("meteor-strike").is_err());
        for (p, _) in FAILURE_PROFILES {
            assert_eq!(FailureProfile::from_name(p.name()), Some(*p));
        }
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let w = Dur::from_ms(10);
        let s1 = FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.4, w, 7);
        let s2 = FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.4, w, 7);
        assert_eq!(s1.events, s2.events, "pure function of inputs");
        assert!(!s1.is_empty());
        assert!(s1.links_failed() > 0);
        // Sorted, alternating per link, down strictly before up, and no
        // host access link is ever touched.
        assert!(s1.events.windows(2).all(|w| w[0].at <= w[1].at));
        for e in &s1.events {
            assert_ne!(topo.role(e.a), NodeRole::Host);
            assert_ne!(topo.role(e.b), NodeRole::Host);
        }
        let mut down_at = std::collections::BTreeMap::new();
        for e in &s1.events {
            let prev = down_at.insert((e.a, e.b), e.up);
            match prev {
                None => assert!(!e.up, "first event for a link must be down"),
                Some(was_up) => assert_ne!(was_up, e.up, "events must alternate"),
            }
        }
        // A different seed reshuffles.
        let s3 = FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.4, w, 8);
        assert_ne!(s1.events, s3.events);
    }

    #[test]
    fn zero_rate_is_empty_and_rate_scales_link_count() {
        let topo = topology_by_name("I2:1Gbps-10Gbps").unwrap();
        let w = Dur::from_ms(10);
        let zero = FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.0, w, 1);
        assert!(zero.is_empty());
        let lo = FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.2, w, 1);
        let hi = FailureSchedule::generate(&topo, FailureProfile::RandomLinks, 0.9, w, 1);
        assert!(lo.links_failed() < hi.links_failed());
    }

    #[test]
    fn core_links_profile_restricts_to_core_core() {
        let topo = topology_by_name("I2:1Gbps-10Gbps").unwrap();
        let s =
            FailureSchedule::generate(&topo, FailureProfile::CoreLinks, 1.0, Dur::from_ms(5), 3);
        for e in &s.events {
            assert_eq!(topo.role(e.a), NodeRole::Core);
            assert_eq!(topo.role(e.b), NodeRole::Core);
        }
        assert_eq!(s.links_failed() as usize, topo.core_links().len());
    }

    #[test]
    fn burst_profile_fails_everything_at_once() {
        let topo = topology_by_name("FatTree(k=4)").unwrap();
        let w = Dur::from_ms(10);
        let s = FailureSchedule::generate(&topo, FailureProfile::Burst, 0.5, w, 9);
        let downs: Vec<_> = s.events.iter().filter(|e| !e.up).collect();
        assert!(downs.len() > 1);
        assert!(downs.iter().all(|e| e.at == downs[0].at), "correlated cut");
    }
}
