//! Integration tests for the paper's theoretical landmarks, exercised
//! through the public facade (`ups::...`) exactly as a downstream user
//! would.

use ups::core::replay::priorities_from_schedule;
use ups::core::{appendix_c_case, appendix_f_schedule, appendix_g_schedule, overdue_threshold};
use ups::prelude::*;

/// §2.2's hierarchy on the appendix schedules, through the facade:
/// priorities < LSTF < omniscient.
#[test]
fn the_universality_hierarchy() {
    // Level 1: priorities die at two congestion points (Fig. 6).
    let f = appendix_f_schedule();
    assert!(priorities_from_schedule(&f.net.topo, &f.original_trace()).is_none());
    assert!(f.replay(HeaderInit::LstfSlack, true).report.perfect());

    // Level 2: LSTF dies at three congestion points (Fig. 7)...
    let g = appendix_g_schedule();
    assert!(!g.replay(HeaderInit::LstfSlack, true).report.perfect());
    // ...but priorities *can* be assigned there (it's not a cycle issue).
    assert!(priorities_from_schedule(&g.net.topo, &g.original_trace()).is_some());

    // Level 3: nothing deterministic black-box survives Appendix C.
    let fails = [1u8, 2]
        .iter()
        .filter(|&&c| {
            !appendix_c_case(c)
                .replay(HeaderInit::LstfSlack, true)
                .report
                .perfect()
        })
        .count();
    assert!(fails >= 1);
}

/// Slack accounting is exact: on an uncontended path the recorded slack
/// equals o − i − tmin and survives the trip unspent.
#[test]
fn slack_bookkeeping_is_exact() {
    let topo = ups::topology::line(3, Bandwidth::from_gbps(1), Dur::from_us(10));
    let routing = Routing::new(&topo);
    let hosts = topo.hosts();
    let path = routing.path(hosts[0], hosts[1]);
    let tmin = ups::topology::tmin(&topo, &path, 1500);

    let packets =
        vec![PacketBuilder::new(PacketId(0), FlowId(0), 1500, path, SimTime::from_us(100)).build()];
    let outcome = ReplayExperiment {
        topo: &topo,
        original_assign: SchedulerAssignment::uniform(SchedulerKind::Fifo),
        init: HeaderInit::LstfSlack,
        preemptive: false,
        record: RecordMode::PerHop,
        seed: 0,
    }
    .run(&packets, Dur::ZERO);
    let rec = outcome.original.get(PacketId(0)).unwrap();
    // Alone in the network: o = i + tmin exactly, slack would be zero.
    assert_eq!(rec.exited, Some(SimTime::from_us(100) + tmin));
    assert!(outcome.report.perfect());
}

/// The replay threshold `T` matches the paper's 12 µs on every
/// 1 Gbps-bottleneck topology.
#[test]
fn threshold_is_one_bottleneck_transmission() {
    for topo in [
        ups::topology::i2_default(),
        ups::topology::i2_1g_1g(),
        ups::topology::rocketfuel_default(),
    ] {
        let t = overdue_threshold(&topo);
        assert!(
            t >= Dur::from_us(12),
            "{}: T = {t} below the paper's 12us",
            topo.name
        );
    }
    assert_eq!(
        overdue_threshold(&ups::topology::i2_default()),
        Dur::from_us(12)
    );
}

/// The §3 heuristics are exposed and consistent through the facade.
#[test]
fn heuristics_facade() {
    assert_eq!(fct_slack(1, FCT_D), PS_PER_SEC as i128);
    assert_eq!(tail_slack(), PS_PER_SEC as i128);
    let mut f = FairnessSlackAssigner::new(1_000_000_000);
    assert_eq!(f.slack_for(FlowId(9), SimTime::ZERO, 1500), 0);
    assert!(f.slack_for(FlowId(9), SimTime::ZERO, 1500) > 0);
}
