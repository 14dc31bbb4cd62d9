//! Runners for the §3 objective experiments (Figures 2, 3, 4).

use ups_metrics::{jain_series, Cdf};
use ups_netsim::prelude::{Dur, FlowId, PacketKind, RecordMode, SchedulerKind, SimTime};
use ups_sweep::{JobSpec, TrafficMode};
use ups_topology::{i2_fairness, BuildOptions, Routing, SchedulerAssignment, Topology};
use ups_transport::{run_tcp, SlackPolicy, TcpConfig, TcpScenario};

use crate::scenarios::{map_jobs, replay_job};

/// One Figure 2 curve as a sweep job: closed-loop TCP web-search flows at
/// 70% with 5 MB per router (§3.1) under `scheduler` — `FIFO`, `SRPT`,
/// `SJF`, or `LSTF`, which the sweep engine stamps with
/// `slack = flow_size × D` ([`ups_sweep::slack_policy_for`]). No replay:
/// the figure reads the summary's `fct_mean_s` and `fct_buckets`.
pub fn fct_job(topology: &str, scheduler: &str, window: Dur, horizon: Dur, seed: u64) -> JobSpec {
    JobSpec {
        traffic: TrafficMode::ClosedLoop,
        horizon: Some(horizon),
        buffer_bytes: Some(5_000_000),
        replay: false,
        ..replay_job(topology, 0.7, scheduler, window, seed)
    }
}

/// One Figure 3 curve as a sweep job: open-loop web-search UDP at 70%
/// under `scheduler` — `FIFO`, or `LSTF` with the constant slack of §3.2
/// (≡ FIFO+). LSTF ranks by `slack + now + tx_time`, so a uniform slack
/// shifts every rank equally and the job's zero slack serves the same
/// schedule as any other constant. No replay: the figure reads the
/// original run's delays ([`tail_delays`]).
pub fn tail_job(topology: &str, scheduler: &str, window: Dur, seed: u64) -> JobSpec {
    JobSpec {
        replay: false,
        ..replay_job(topology, 0.7, scheduler, window, seed)
    }
}

/// Run `jobs` through the job body on the sweep pool and keep each
/// original run's end-to-end data-packet delays, in seconds.
pub fn tail_delays(jobs: &[JobSpec]) -> Vec<Cdf> {
    map_jobs(jobs, RecordMode::EndToEnd, &[], |run| {
        Cdf::new(
            run.original
                .stream()
                .filter(|(_, r)| r.kind == PacketKind::Data)
                .filter_map(|(_, r)| r.delay())
                .map(Dur::as_secs_f64)
                .collect(),
        )
    })
    .0
}

/// Figure 4 scheme under test.
#[derive(Debug, Clone, Copy)]
pub enum FairnessScheme {
    /// Baseline unfairness.
    Fifo,
    /// Fair-queueing reference.
    Fq,
    /// LSTF with the §3.3 slack assignment at the given `r_est` (bits/s).
    Lstf(u64),
}

impl FairnessScheme {
    /// Display label matching Figure 4's legend.
    pub fn label(self) -> String {
        match self {
            FairnessScheme::Fifo => "FIFO".into(),
            FairnessScheme::Fq => "FQ".into(),
            FairnessScheme::Lstf(rest) => {
                format!("LSTF@{}Gbps", rest as f64 / 1e9)
            }
        }
    }

    fn scheduler(self) -> SchedulerKind {
        match self {
            FairnessScheme::Fifo => SchedulerKind::Fifo,
            FairnessScheme::Fq => SchedulerKind::Fq,
            FairnessScheme::Lstf(_) => SchedulerKind::Lstf { preemptive: false },
        }
    }

    fn policy(self) -> SlackPolicy {
        match self {
            FairnessScheme::Lstf(rest) => SlackPolicy::Fairness(rest),
            _ => SlackPolicy::None,
        }
    }
}

/// The Figure 4 flow placement. The paper engineers its 90 long-lived
/// flows so that "the fair share rate of each flow on each link in the
/// core network ... is around 1Gbps"; with our 13 Gbps fairness-variant
/// core we achieve *exactly* equal shares by loading `flows_per_link`
/// flows onto each of five disjoint core links (adjacent city pairs), so
/// the fair share is `13 Gbps / flows_per_link` for every flow and a
/// perfectly fair scheduler drives Jain to 1.0.
pub fn fairness_flow_set(
    topo: &Topology,
    routing: &mut Routing,
    flows_per_link: usize,
    max_jitter: Dur,
    seed: u64,
) -> Vec<ups_workload::FlowSpec> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use ups_topology::NodeRole;

    // Host → its core router (host—edge—core access tree).
    let core_of = |host: ups_netsim::prelude::NodeId| {
        let edge = topo.neighbors(host).next().expect("host has an edge");
        topo.neighbors(edge)
            .find(|&n| topo.role(n) == NodeRole::Core)
            .expect("edge connects to a core")
    };
    let hosts = topo.hosts();
    let mut under: std::collections::HashMap<_, Vec<_>> = std::collections::HashMap::new();
    for &h in &hosts {
        under.entry(core_of(h)).or_default().push(h);
    }
    // Five disjoint adjacent core pairs of the Internet2 backbone.
    let pairs = [(0u32, 1u32), (2, 3), (4, 5), (6, 7), (8, 9)];
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut flows = Vec::new();
    for (a, b) in pairs {
        let (na, nb) = (
            ups_netsim::prelude::NodeId(a),
            ups_netsim::prelude::NodeId(b),
        );
        assert!(
            topo.neighbor_link(na, nb).is_some(),
            "cores {a}–{b} must be adjacent"
        );
        let src_hosts = &under[&na];
        let dst_hosts = &under[&nb];
        for i in 0..flows_per_link {
            let src = src_hosts[i % src_hosts.len()];
            let dst = dst_hosts[(i * 3 + 1) % dst_hosts.len()];
            let jitter = rng.gen_range(0..=max_jitter.as_ps());
            let id = FlowId(flows.len() as u64);
            flows.push(ups_workload::FlowSpec {
                id,
                src,
                dst,
                size: u64::MAX,
                start: SimTime::from_ps(jitter),
                path: routing.path(src, dst),
            });
        }
    }
    flows
}

/// Figure 4: long-lived TCP flows on the fairness variant of Internet2
/// (see [`fairness_flow_set`]); returns the per-millisecond Jain-index
/// series. The paper runs 90 flows with links shared by up to 13; we run
/// `flows_per_link` flows on each of 5 disjoint core links (default 13 ⇒
/// 65 flows, each with an exactly-1 Gbps fair share).
pub fn run_fairness_experiment(
    scheme: FairnessScheme,
    flows_per_link: usize,
    horizon: Dur,
    seed: u64,
) -> Vec<f64> {
    let topo = i2_fairness();
    let mut routing = Routing::new(&topo);
    let flows = fairness_flow_set(&topo, &mut routing, flows_per_link, Dur::from_ms(5), seed);
    let flow_ids: Vec<FlowId> = flows.iter().map(|f| f.id).collect();
    let scenario = TcpScenario {
        topo: &topo,
        assign: &SchedulerAssignment::uniform(scheme.scheduler()),
        opts: BuildOptions {
            record: RecordMode::Off,
            // "the buffer size is kept large so that the fairness is
            // dominated by the scheduling policy" (§3.3).
            router_buffer_bytes: None,
            ..BuildOptions::default()
        },
        flows: &flows,
        config: TcpConfig {
            // Short-RTT variant: the topology shrinks propagation 100x.
            rto_min: Dur::from_ms(2),
        },
        policy: scheme.policy(),
        horizon,
        max_packets: None,
    };
    let run = run_tcp(&scenario, &mut routing);
    let matrix = run.stats.goodput_matrix(&flow_ids);
    jain_series(&matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::run_jobs;
    use ups_metrics::FIG2_BUCKETS;

    #[test]
    fn fct_lstf_close_to_sjf_and_better_than_fifo() {
        // Scaled-down Figure 2: the *ordering* FIFO > LSTF ≈ SJF must
        // already show at small scale.
        let window = Dur::from_ms(60);
        let horizon = Dur::from_secs(6);
        let jobs = ["FIFO", "SJF", "LSTF"].map(|s| fct_job("I2:small", s, window, horizon, 7));
        let (rows, _) = run_jobs(&jobs, RecordMode::Off, &[]);
        let [fifo, sjf, lstf] = [0, 1, 2].map(|i| &rows[i].0);
        let completed = fifo.transport.as_ref().unwrap().completed_flows;
        assert!(completed > 20, "need completions, got {completed}");
        let (mf, ms, ml) = (fifo.fct_mean_s, sjf.fct_mean_s, lstf.fct_mean_s);
        assert!(ms < mf, "SJF {ms} must beat FIFO {mf}");
        assert!(ml < mf, "LSTF {ml} must beat FIFO {mf}");
        let rel = (ml - ms).abs() / ms;
        assert!(rel < 0.35, "LSTF {ml} vs SJF {ms}: rel diff {rel}");
        // Bucketing machinery works on real output (+1: overflow bucket).
        assert_eq!(lstf.fct_buckets.len(), FIG2_BUCKETS.len() + 1);
    }

    #[test]
    fn tail_lstf_shrinks_the_tail_not_the_mean() {
        let window = Dur::from_ms(25);
        let jobs = ["FIFO", "LSTF"].map(|s| tail_job("I2:small", s, window, 5));
        let delays = tail_delays(&jobs);
        let (fifo, lstf) = (&delays[0], &delays[1]);
        assert!(fifo.len() > 1000);
        assert_eq!(fifo.len(), lstf.len(), "same workload");
        let (f99, l99) = (fifo.quantile(0.999), lstf.quantile(0.999));
        assert!(
            l99 <= f99 * 1.02,
            "LSTF 99.9%ile {l99} must not exceed FIFO {f99}"
        );
        // Means comparable (within 15%).
        let (fm, lm) = (fifo.mean(), lstf.mean());
        assert!((lm - fm).abs() / fm < 0.15, "means {lm} vs {fm}");
    }

    #[test]
    fn fairness_lstf_converges_like_fq() {
        let horizon = Dur::from_ms(20);
        let per_link = 6; // scaled-down: 30 flows, ~2.2 Gbps fair share
        let fq = run_fairness_experiment(FairnessScheme::Fq, per_link, horizon, 9);
        let lstf =
            run_fairness_experiment(FairnessScheme::Lstf(1_000_000_000), per_link, horizon, 9);
        let fifo = run_fairness_experiment(FairnessScheme::Fifo, per_link, horizon, 9);
        let tail = |v: &[f64]| {
            let n = v.len();
            v[n.saturating_sub(5)..].iter().sum::<f64>() / v[n.saturating_sub(5)..].len() as f64
        };
        let (jf, jl, jo) = (tail(&fq), tail(&lstf), tail(&fifo));
        assert!(jf > 0.9, "FQ should be fair, Jain {jf}");
        assert!(jl > 0.85, "LSTF should converge, Jain {jl}");
        assert!(jo < jl, "FIFO {jo} must be less fair than LSTF {jl}");
    }

    #[test]
    fn fairness_flow_set_is_balanced() {
        let topo = i2_fairness();
        let mut routing = Routing::new(&topo);
        let flows = fairness_flow_set(&topo, &mut routing, 13, Dur::from_ms(5), 1);
        assert_eq!(flows.len(), 65);
        // Every flow's path crosses exactly one core-core link.
        for f in &flows {
            let core_hops = f
                .path
                .windows(2)
                .filter(|w| {
                    use ups_topology::NodeRole;
                    topo.role(w[0]) == NodeRole::Core && topo.role(w[1]) == NodeRole::Core
                })
                .count();
            assert_eq!(core_hops, 1, "flow {} crosses {core_hops} core links", f.id);
            assert_eq!(f.size, u64::MAX);
        }
    }
}
