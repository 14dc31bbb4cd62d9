//! The future-event list's `(time, push sequence)` contract, in tier-1.
//!
//! `cargo test -q` at the root runs only these integration tests, not
//! `ups-netsim`'s unit tests, so the timing wheel is pinned here twice:
//! directly, against a sorted reference over randomized operations that
//! reach every tier (the bucket being drained, level 0, an epoch
//! boundary, level 1, the far heap), run twice on one queue so the second
//! run reuses the first's level-0 storage, and end to end, as bit-identical
//! traces on workloads whose events live in the upper tiers — millisecond
//! propagation delays (level 1) and multi-second retransmission timers
//! (the far heap) — in both determinism domains (inject-all-then-`run`
//! and `run_with_injections`).

use std::collections::BTreeSet;

use ups::netsim::event::{Event, EventQueue};
use ups::prelude::*;
use ups::topology::{dumbbell, i2_default};

fn timer(key: u64) -> Event {
    Event::Timer {
        agent: AgentId(0),
        key,
    }
}

#[test]
fn event_queue_matches_a_sorted_reference_over_every_tier() {
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut q = EventQueue::new();
    // Twice on one queue: the second run starts seconds into the clock,
    // on level-0 storage freed by the first.
    for run in 0..2 {
        reference_run(&mut q, &mut next, run);
    }
}

/// 60,000 random pushes and pops on `q`, checked against a sorted
/// reference, then a full drain.
fn reference_run(q: &mut EventQueue, next: &mut impl FnMut() -> u64, run: u32) {
    // Pending `(time in ps, push index)`; push indexes rise with the
    // queue's own sequence numbers, so its order is the contract's.
    let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
    let (mut pushed, mut popped) = (0u64, 0u64);
    // Pushes per tier, told apart as the queue does: by the highest bit
    // in which the 131 ns bucket number (`ps >> 17`) differs from the
    // clock's — none, within an epoch (12 bits), within an era (24).
    let mut tiers = [0u64; 5];
    for _ in 0..60_000 {
        let now = q.now().as_ps();
        if next() % 8 < 5 {
            // A delta of 0 (same instant, often into the bucket being
            // drained), or uniform below 2^e ps for e in 1..=43:
            // nanoseconds up to ~8.8 s, past the 2.2 s era.
            let delta = match next() % 6 {
                0 => 0,
                _ => next() % (1u64 << (1 + next() % 43)),
            };
            let at = now + delta;
            tiers[match (at >> 17) ^ (now >> 17) {
                0 => 0,
                d if d >> 12 == 0 => 1,
                d if d >> 24 == 0 && (at >> 29) - (now >> 29) == 1 => 2,
                d if d >> 24 == 0 => 3,
                _ => 4,
            }] += 1;
            q.push(SimTime::from_ps(at), timer(pushed));
            reference.insert((at, pushed));
            pushed += 1;
        } else {
            let got = q.pop().map(|(t, e)| match e {
                Event::Timer { key, .. } => (t.as_ps(), key),
                other => panic!("only timers were pushed, got {other:?}"),
            });
            assert_eq!(got, reference.pop_first(), "run {run}, pop {popped}");
            popped += u64::from(got.is_some());
        }
        assert_eq!(
            q.peek_time().map(SimTime::as_ps),
            reference.first().map(|&(t, _)| t),
            "run {run}: peek_time after {pushed} pushes and {popped} pops"
        );
        assert_eq!(q.len(), reference.len());
    }
    assert!(
        tiers.iter().all(|&n| n > 500),
        "run {run}: every tier must be exercised (drain, epoch, next epoch, era, far): {tiers:?}"
    );
    while let Some((t, Event::Timer { key, .. })) = q.pop() {
        assert_eq!(Some((t.as_ps(), key)), reference.pop_first());
        assert_eq!(
            q.peek_time().map(SimTime::as_ps),
            reference.first().map(|&(t, _)| t)
        );
    }
    assert!(reference.is_empty() && q.is_empty());
}

/// Internet2: core propagation delays are milliseconds, so nearly every
/// core `Arrive` is pushed beyond the current 0.54 ms epoch.
fn i2_workload() -> (Topology, Vec<Packet>) {
    let topo = i2_default();
    let routing = Routing::new(&topo);
    let flows = PoissonWorkload::at_utilization(0.7, Dur::from_ms(20), 11).generate(
        &topo,
        &routing,
        &Empirical::web_search() as &dyn SizeDist,
    );
    let packets = udp_packet_train(&flows, MTU);
    assert!(packets.len() > 2_000, "workload too small to be convincing");
    (topo, packets)
}

fn i2_run(topo: &Topology, packets: &[Packet], lazy: bool) -> Trace {
    let mut sim = build_simulator(
        topo,
        &SchedulerAssignment::uniform(SchedulerKind::Fifo),
        &BuildOptions {
            record: RecordMode::PerHop,
            ..BuildOptions::default()
        },
    );
    if lazy {
        sim.run_with_injections(packets.iter().cloned());
    } else {
        for p in packets.iter().cloned() {
            sim.inject(p);
        }
        sim.run();
    }
    assert_eq!(sim.stats().delivered, packets.len() as u64);
    sim.into_trace()
}

#[test]
fn level_one_arrivals_replay_bit_identically_eager_and_lazy() {
    let (topo, packets) = i2_workload();
    for lazy in [false, true] {
        let a = i2_run(&topo, &packets, lazy);
        let b = i2_run(&topo, &packets, lazy);
        assert!(a == b, "lazy={lazy}: trace differs between identical runs");
    }
}

/// A closed-loop TCP job whose retransmission timers are armed 3 s out:
/// past the 2.2 s era, so every one of them goes through the far heap
/// and comes back when the clock crosses into the next era.
fn tcp_run() -> TcpRun {
    let topo = dumbbell(
        3,
        Bandwidth::from_gbps(10),
        Bandwidth::from_gbps(1),
        Dur::from_us(200),
    );
    let routing = Routing::new(&topo);
    let hosts = topo.hosts();
    let flows: Vec<FlowSpec> = (0..3usize)
        .map(|i| FlowSpec {
            id: FlowId(i as u64),
            src: hosts[i],
            dst: hosts[3 + i],
            size: 400_000,
            start: SimTime::from_us(50 * i as u64),
            path: routing.path(hosts[i], hosts[3 + i]),
        })
        .collect();
    let assign = SchedulerAssignment::uniform(SchedulerKind::Fifo);
    run_tcp(
        &TcpScenario {
            topo: &topo,
            assign: &assign,
            opts: BuildOptions {
                record: RecordMode::PerHop,
                // Small enough that the three flows overflow it and
                // some timers really fire.
                router_buffer_bytes: Some(30_000),
                ..BuildOptions::default()
            },
            flows: &flows,
            config: TcpConfig {
                rto_min: Dur::from_secs(3),
            },
            policy: SlackPolicy::None,
            horizon: Dur::from_secs(30),
            max_packets: None,
        },
        &routing,
    )
}

#[test]
fn far_tier_retransmission_timers_replay_bit_identically() {
    let a = tcp_run();
    let b = tcp_run();
    assert!(a.sim.delivered > 500, "the flows must make progress");
    assert!(
        a.stats.timeouts_total() > 0,
        "a 3 s timer must fire, or the far tier was never drained"
    );
    assert_eq!(a.stats.timeouts_total(), b.stats.timeouts_total());
    assert_eq!(a.sim, b.sim);
    assert!(a.trace == b.trace, "trace differs between identical runs");
}
