//! Cross-crate integration tests: topology + workload + netsim + core
//! replay + transport + metrics working together, end to end.

use ups::prelude::*;
use ups::topology::{fattree, internet2, FatTreeParams, Internet2Params};

fn small_i2() -> Topology {
    internet2(Internet2Params {
        edges_per_core: 2,
        ..Internet2Params::default()
    })
}

/// The full replay pipeline on a realistic topology: generate → record →
/// re-initialize → replay → compare. The headline property at any scale:
/// almost every packet meets its target and violations are bounded by
/// the non-preemption slot.
#[test]
fn replay_pipeline_end_to_end() {
    let topo = small_i2();
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(6), 11).generate(
        &topo,
        &routing,
        &Empirical::web_search(),
    );
    let packets = udp_packet_train(&flows, MTU);
    assert!(packets.len() > 1_000);

    let outcome = ReplayExperiment {
        topo: &topo,
        original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
        init: HeaderInit::LstfSlack,
        preemptive: false,
        record: RecordMode::EndToEnd,
        seed: 3,
    }
    .run(&packets, Dur::ZERO);

    assert_eq!(outcome.report.total, packets.len(), "nothing may vanish");
    assert!(
        outcome.report.frac_overdue() < 0.05,
        "overdue {}",
        outcome.report.frac_overdue()
    );
    // Non-preemptive LSTF misses by at most ~one max-size blocking
    // transmission per congestion point; on this topology that is the
    // 12us access-link slot, compounded rarely.
    assert!(
        outcome.report.max_lateness <= Dur::from_us(48),
        "max lateness {}",
        outcome.report.max_lateness
    );
}

/// Replays are bit-deterministic across runs — the property everything
/// else (paper comparisons, CI) rests on.
#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let topo = small_i2();
        let routing = Routing::new(&topo);
        let flows = PoissonWorkload::at_utilization(0.5, Dur::from_ms(4), 5).generate(
            &topo,
            &routing,
            &Empirical::web_search(),
        );
        let packets = udp_packet_train(&flows, MTU);
        let outcome = ReplayExperiment {
            topo: &topo,
            original_assign: SchedulerAssignment::uniform(SchedulerKind::Random),
            init: HeaderInit::LstfSlack,
            preemptive: false,
            record: RecordMode::EndToEnd,
            seed: 9,
        }
        .run(&packets, Dur::ZERO);
        let exits: Vec<_> = outcome
            .replay
            .stream()
            .filter(|(_, r)| r.exited.is_some())
            .map(|(id, r)| (id, r.exited))
            .collect();
        (outcome.report.overdue, exits)
    };
    let (o1, e1) = run();
    let (o2, e2) = run();
    assert_eq!(o1, o2);
    assert_eq!(e1, e2);
}

/// TCP over the built Internet2 with every §3 scheduler: flows complete
/// under FIFO, SJF, SRPT and LSTF with the FCT slack policy.
#[test]
fn tcp_completes_under_every_objective_scheduler() {
    for (kind, policy) in [
        (SchedulerKind::Fifo, SlackPolicy::None),
        (SchedulerKind::Sjf, SlackPolicy::None),
        (SchedulerKind::Srpt, SlackPolicy::None),
        (
            SchedulerKind::Lstf { preemptive: false },
            SlackPolicy::FctSjf,
        ),
    ] {
        let topo = small_i2();
        let routing = Routing::new(&topo);
        let flows = PoissonWorkload::at_utilization(0.4, Dur::from_ms(15), 2).generate(
            &topo,
            &routing,
            &Empirical::web_search(),
        );
        let n_flows = flows.len();
        let mut sim = build_simulator(
            &topo,
            &SchedulerAssignment::uniform(kind),
            &BuildOptions {
                record: RecordMode::Off,
                router_buffer_bytes: Some(5_000_000),
                ..BuildOptions::default()
            },
        );
        let stats = TransportStats::new(Dur::from_ms(1));
        install_tcp(
            &mut sim,
            &topo,
            &routing,
            &flows,
            TcpConfig::default(),
            policy,
            &stats,
        );
        sim.run_until(SimTime::from_secs(20));
        let done = stats.completions().len();
        assert!(
            done as f64 >= 0.9 * n_flows as f64,
            "{}: only {done}/{n_flows} flows completed",
            kind.name()
        );
    }
}

/// The fat-tree datacenter path: workload calibration, routing and replay
/// all function on the pFabric topology.
#[test]
fn datacenter_replay_works() {
    let topo = fattree(FatTreeParams::default());
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.6, Dur::from_ms(4), 8).generate(
        &topo,
        &routing,
        &Empirical::data_mining(),
    );
    let packets = udp_packet_train(&flows, MTU);
    assert!(!packets.is_empty());
    let outcome = ReplayExperiment {
        topo: &topo,
        original_assign: SchedulerAssignment::uniform(SchedulerKind::Fifo),
        init: HeaderInit::LstfSlack,
        preemptive: false,
        record: RecordMode::EndToEnd,
        seed: 8,
    }
    .run(&packets, Dur::ZERO);
    assert_eq!(outcome.report.total, packets.len());
    assert!(outcome.report.frac_overdue() < 0.2);
}

/// Acks flow against data through LSTF ports without starving either
/// direction: a bidirectional TCP pair over one bottleneck.
#[test]
fn bidirectional_tcp_over_lstf() {
    let topo = ups::topology::dumbbell(
        2,
        Bandwidth::from_gbps(10),
        Bandwidth::from_gbps(1),
        Dur::from_ms(1),
    );
    let routing = Routing::new(&topo);
    let hosts = topo.hosts();
    let flows = vec![
        FlowSpec {
            id: FlowId(0),
            src: hosts[0],
            dst: hosts[2],
            size: 400_000,
            start: SimTime::ZERO,
            path: routing.path(hosts[0], hosts[2]),
        },
        FlowSpec {
            id: FlowId(1),
            src: hosts[3],
            dst: hosts[1],
            size: 400_000,
            start: SimTime::ZERO,
            path: routing.path(hosts[3], hosts[1]),
        },
    ];
    let mut sim = build_simulator(
        &topo,
        &SchedulerAssignment::uniform(SchedulerKind::Lstf { preemptive: false }),
        &BuildOptions {
            record: RecordMode::Off,
            router_buffer_bytes: Some(500_000),
            ..BuildOptions::default()
        },
    );
    let stats = TransportStats::new(Dur::from_ms(1));
    install_tcp(
        &mut sim,
        &topo,
        &routing,
        &flows,
        TcpConfig::default(),
        SlackPolicy::FctSjf,
        &stats,
    );
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(stats.completions().len(), 2, "both directions complete");
}

/// Metrics glue: replay queueing ratios feed the report sketch, FCTs feed the
/// bucketing, goodput feeds Jain — types line up and values are sane.
#[test]
fn metrics_integration() {
    let topo = small_i2();
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.6, Dur::from_ms(4), 13).generate(
        &topo,
        &routing,
        &Empirical::web_search(),
    );
    let packets = udp_packet_train(&flows, MTU);
    let outcome = ReplayExperiment {
        topo: &topo,
        original_assign: SchedulerAssignment::uniform(SchedulerKind::Fifo),
        init: HeaderInit::LstfSlack,
        preemptive: false,
        record: RecordMode::EndToEnd,
        seed: 21,
    }
    .run(&packets, Dur::ZERO);
    let ratios = &outcome.report.queueing_ratios;
    if !ratios.is_empty() {
        // Figure 1's claim: replay queueing mostly no worse than original
        // (exact read: 1.0 is a sketch bucket edge).
        assert!(ratios.fraction_le(1.0) > 0.5);
    }
    let samples: Vec<FlowSample> = flows
        .iter()
        .map(|f| FlowSample {
            size: f.size,
            fct_secs: 0.01,
        })
        .collect();
    let buckets = mean_fct_by_bucket(&samples, &ups::metrics::FIG2_BUCKETS);
    let counted: usize = buckets.iter().map(|&(_, _, c)| c).sum();
    assert_eq!(counted, flows.len());
}
