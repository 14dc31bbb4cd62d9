//! Criterion microbenchmarks of the simulation engine: per-discipline
//! enqueue/dequeue throughput, event-queue operations, end-to-end
//! simulator event rate, and utilization calibration. These are
//! engineering benchmarks (not paper artifacts) — they track the cost of
//! the LSTF/EDF machinery against FIFO, the paper's §5 "no more complex
//! than fine-grained priorities" claim in microcosm.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

use ups_netsim::prelude::*;

fn mk_packet(id: u64, slack: i128) -> Packet {
    let path: Arc<[NodeId]> = vec![NodeId(0), NodeId(1)].into();
    PacketBuilder::new(PacketId(id), FlowId(id % 16), 1500, path, SimTime::ZERO)
        .slack(slack)
        .flow_bytes(10_000 + id, 10_000 + id)
        .prio(id as i128 % 97)
        .build()
}

fn bench_schedulers(c: &mut Criterion) {
    let kinds = [
        SchedulerKind::Fifo,
        SchedulerKind::Lifo,
        SchedulerKind::Random,
        SchedulerKind::Priority { preemptive: false },
        SchedulerKind::Sjf,
        SchedulerKind::Srpt,
        SchedulerKind::Fq,
        SchedulerKind::Drr,
        SchedulerKind::FifoPlus,
        SchedulerKind::Lstf { preemptive: false },
    ];
    let ctx = PortCtx {
        bandwidth: Bandwidth::from_gbps(1),
    };
    let mut group = c.benchmark_group("scheduler_enqueue_dequeue_1k");
    for kind in kinds {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, &kind| {
                b.iter_batched(
                    || {
                        let s = kind.build(7);
                        let mut arena = PacketArena::new();
                        let refs: Vec<PacketRef> = (0..1000)
                            .map(|i| arena.alloc(mk_packet(i, (i as i128 * 37) % 5000)))
                            .collect();
                        (s, arena, refs)
                    },
                    |(mut s, mut arena, refs)| {
                        let mut t = SimTime::ZERO;
                        for (i, r) in refs.into_iter().enumerate() {
                            s.enqueue(r, &arena, t, i as u64, ctx);
                            t += Dur::from_ns(100);
                        }
                        while let Some(qp) = s.dequeue(&mut arena, t, ctx) {
                            black_box(arena.get(qp.pkt).id);
                        }
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    use ups_netsim::event::{Event, EventQueue};
    let timer = |key| Event::Timer {
        agent: AgentId(0),
        key,
    };
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_ns((i * 7919) % 1_000_000), timer(i));
            }
            let mut n = 0u64;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    // What `run_with_injections` does with one 30 MB UDP flow: 20,000
    // pushes at one instant with a `peek_time` after each, then the drain,
    // every pop followed by a peek and a push 1.2 µs on (the port's next
    // `PortReady`). Quadratic when the head is found by scanning.
    c.bench_function("event_queue_same_instant_burst_20k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let at = SimTime::from_us(700);
            for i in 0..20_000u64 {
                q.push(at, timer(i));
                black_box(q.peek_time());
            }
            let mut n = 0u64;
            while let Some((now, Event::Timer { key, .. })) = q.pop() {
                if key < 20_000 {
                    q.push(now + Dur::from_ns(1_200), timer(key + 20_000));
                }
                black_box(q.peek_time());
                n += 1;
            }
            black_box(n)
        })
    });

    // Hold model at 1,000 pending events — pop the earliest, push one a
    // pseudo-random delay later — with the delay bounded by 131 µs (level
    // 0: port and link events), 32 ms (level 1: an eagerly injected
    // train, WAN propagation) and 8 s (the far heap: backed-off
    // retransmission timers).
    let mut group = c.benchmark_group("event_queue_hold_1k");
    for (label, max_delay_ns) in [("131us", 1u64 << 17), ("32ms", 1 << 25), ("8s", 1 << 33)] {
        let mut q = EventQueue::new();
        let mut state = 7u64;
        for i in 0..1_000 {
            q.push(SimTime::from_ns(i * max_delay_ns / 1_000), timer(i));
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let (at, _) = q.pop().expect("the queue holds 1,000 events");
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let delay = (state >> 20) & (max_delay_ns - 1);
                q.push(at + Dur::from_ns(delay), timer(delay));
            })
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    // A small line network pushing 2k packets: measures whole-engine
    // events/second for FIFO vs LSTF ports.
    for kind in [
        SchedulerKind::Fifo,
        SchedulerKind::Lstf { preemptive: false },
    ] {
        c.bench_function(&format!("line_sim_2k_packets_{}", kind.name()), |b| {
            b.iter(|| {
                let topo = ups_topology::line(3, Bandwidth::from_gbps(10), Dur::from_us(5));
                let mut routing = ups_topology::Routing::new(&topo);
                let hosts = topo.hosts();
                let mut sim = ups_topology::build_simulator(
                    &topo,
                    &ups_topology::SchedulerAssignment::uniform(kind),
                    &ups_topology::BuildOptions::default(),
                );
                let path = routing.path(hosts[0], hosts[1]);
                for i in 0..2000u64 {
                    sim.inject(
                        PacketBuilder::new(
                            PacketId(i),
                            FlowId(i % 8),
                            1500,
                            path.clone(),
                            SimTime::from_ns(i * 300),
                        )
                        .slack((i as i128 * 131) % 100_000)
                        .build(),
                    );
                }
                sim.run();
                black_box(sim.stats().events)
            })
        });
    }
}

fn bench_calibration(c: &mut Criterion) {
    // Utilization calibration on the three topologies the paper grid and
    // the streaming replay calibrate on. `fresh_core` is what the first
    // job of a topology pays (the one-time host-pair pass; the BFS is in
    // the untimed set-up), `shared_core` what every later one does. Both
    // rows include dropping the job's `Routing`.
    use ups_topology::{Routing, RoutingCore};
    let mut group = c.benchmark_group("calibrate_flow_rate");
    for name in ["I2:1Gbps-10Gbps", "RocketFuel", "FatTree(k=8)"] {
        let topo = ups_topology::topology_by_name(name).expect("registered topology");
        let calibrate = |mut routing: Routing| {
            ups_workload::calibrate_flow_rate(&topo, &mut routing, black_box(100_000.0), 0.7)
        };
        group.bench_function(&format!("{name}/fresh_core"), |b| {
            b.iter_batched(
                || Routing::new(&topo),
                calibrate,
                criterion::BatchSize::SmallInput,
            )
        });
        let core = Arc::new(RoutingCore::new(&topo));
        calibrate(Routing::from_core(core.clone()));
        group.bench_function(&format!("{name}/shared_core"), |b| {
            b.iter(|| calibrate(Routing::from_core(core.clone())))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows: these are coarse engineering trackers,
    // not statistical studies, and the experiment benches dominate the
    // run budget.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_schedulers, bench_event_queue, bench_end_to_end, bench_calibration
}
criterion_main!(benches);
