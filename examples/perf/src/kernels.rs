//! Kernel rows: isolated loops over the data structures under the
//! simulator loop, each reported as nanoseconds per operation, plus the
//! calibration kernel that cross-machine comparisons are taken against.
//! They are the same on every workload; what differs per workload is how
//! often the traced rep performs each operation (the `est_share` column).

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ups::metrics::QuantileSketch;
use ups::netsim::event::{Event, EventQueue};
use ups::netsim::prelude::{
    AgentId, Bandwidth, Dur, FlowId, Header, MapperKind, NodeId, Packet, PacketArena,
    PacketBuilder, PacketId, PacketRef, PortCtx, QueuedPacket, SchedulerKind, SimTime,
};
use ups::netsim::queue::RankHeap;

use crate::harness::median;

/// Queue depth every kernel holds while it measures.
const DEPTH: u64 = 1_000;
/// Operations per timed batch.
const BATCH: u64 = 20_000;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median nanoseconds per operation over batches of `batch()`, which runs
/// [`BATCH`] operations; at least five batches, then until `slice` is used.
fn ns_per_op(slice: Duration, mut batch: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < slice {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&samples)
}

/// The fixed pure-CPU kernel: a SplitMix64 chain driving pop-and-push churn
/// on a one-million-entry binary heap. Nanoseconds per iteration.
pub fn calibration() -> f64 {
    let mut state = 42u64;
    let mut heap: BinaryHeap<u64> = (0..1_000_000).map(|_| splitmix64(&mut state)).collect();
    ns_per_op(Duration::from_millis(150), || {
        for _ in 0..BATCH {
            let top = heap.pop().unwrap_or(0);
            heap.push(top ^ splitmix64(&mut state));
        }
        black_box(heap.len());
    })
}

/// A packet every discipline can rank: slack, priority, flow sizes, a
/// deadline with its `tmin` table (EDF) and a per-hop vector (Omniscient).
fn packet(i: u64) -> Packet {
    let path: Arc<[NodeId]> = vec![NodeId(0), NodeId(1)].into();
    let tmin: Arc<[Dur]> = vec![Dur::from_us(12), Dur::ZERO].into();
    let hops: Arc<[SimTime]> = vec![SimTime::from_ns(i * 37 % 5_000), SimTime::MAX].into();
    PacketBuilder::new(PacketId(i), FlowId(i % 16), 1500, path, SimTime::ZERO)
        .header(Header {
            slack: (i as i128 * 37) % 5_000_000,
            deadline: SimTime::from_us(500 + i % 97),
            prio: i as i128 % 97,
            flow_size: 10_000 + i,
            remaining: 10_000 + i,
            omniscient: Some(hops),
            ..Header::default()
        })
        .tmin_rem(tmin)
        .build()
}

fn queued(pkt: PacketRef, rank: u64, seq: u64) -> QueuedPacket {
    QueuedPacket {
        pkt,
        rank: rank as i128,
        enqueued_at: SimTime::ZERO,
        arrival_seq: seq,
        size: 1500,
    }
}

/// `name` with the characters a metric name may not hold spelled out.
fn metric_name(kind: SchedulerKind) -> String {
    let label = match kind {
        SchedulerKind::Quantized { mapper, .. } => format!("Quantized-{}", mapper.name()),
        other => other.name().replace('+', "plus"),
    };
    format!("netsim.sched.{label}_ns")
}

/// One enqueue and one dequeue at depth [`DEPTH`], the dequeued packet
/// going straight back in with the clock advanced.
fn scheduler(kind: SchedulerKind, slice: Duration) -> f64 {
    let ctx = PortCtx {
        bandwidth: Bandwidth::from_gbps(10),
    };
    let mut arena = PacketArena::new();
    let mut sched = kind.build(7);
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    let mut spare = arena.alloc(packet(DEPTH));
    for i in 0..DEPTH {
        let r = arena.alloc(packet(i));
        sched.enqueue(r, &arena, now, seq, ctx);
        seq += 1;
    }
    ns_per_op(slice, || {
        for _ in 0..BATCH {
            now += Dur::from_ns(100);
            sched.enqueue(spare, &arena, now, seq, ctx);
            seq += 1;
            spare = sched
                .dequeue(&mut arena, now, ctx)
                .expect("the queue holds DEPTH packets")
                .pkt;
        }
    })
}

/// Every kernel row as `(metric name, ns per operation)`, each measured
/// for about `slice`.
pub fn run(slice: Duration) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    let mut state = 7u64;

    // Calendar queue: hold model — pop the earliest event, push one a
    // pseudo-random 0..131 µs later, at DEPTH pending events.
    let mut q = EventQueue::new();
    let timer = |key| Event::Timer {
        agent: AgentId(0),
        key,
    };
    for i in 0..DEPTH {
        q.push(SimTime::from_ns(i * 131), timer(i));
    }
    rows.push((
        "netsim.eventq_push_pop_ns".to_string(),
        ns_per_op(slice, || {
            for _ in 0..BATCH {
                let (at, _) = q.pop().expect("the queue holds DEPTH events");
                let delta = splitmix64(&mut state) % 131_072;
                q.push(at + Dur::from_ns(delta), timer(delta));
            }
        }),
    ));
    rows.push((
        "netsim.eventq_peek_ns".to_string(),
        ns_per_op(slice, || {
            for _ in 0..BATCH {
                black_box(black_box(&q).peek_time());
            }
        }),
    ));

    // Arena: one alloc and one free with DEPTH packets live. The packets
    // are built outside the timed batch.
    let mut arena = PacketArena::new();
    for i in 0..DEPTH {
        arena.alloc(packet(i));
    }
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed() < slice {
        let fresh: Vec<Packet> = (0..BATCH).map(packet).collect();
        let t = Instant::now();
        for p in fresh {
            let r = arena.alloc(p);
            arena.free(r);
        }
        samples.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    rows.push(("netsim.arena_alloc_free_ns".to_string(), median(&samples)));

    // Rank heap: push then pop the minimum (service), or push then pop
    // the maximum (buffer eviction), at DEPTH entries.
    let pkt = arena.alloc(packet(0));
    for (name, evict) in [
        ("netsim.rankheap_push_pop_ns", false),
        ("netsim.rankheap_pop_max_ns", true),
    ] {
        let mut heap = RankHeap::new();
        let mut seq = 0u64;
        for _ in 0..DEPTH {
            heap.push(queued(pkt, splitmix64(&mut state) >> 24, seq));
            seq += 1;
        }
        rows.push((
            name.to_string(),
            ns_per_op(slice, || {
                for _ in 0..BATCH {
                    heap.push(queued(pkt, splitmix64(&mut state) >> 24, seq));
                    seq += 1;
                    black_box(if evict {
                        heap.pop_max()
                    } else {
                        heap.pop_min()
                    });
                }
            }),
        ));
    }

    // The twelve disciplines (a preemptive variant queues exactly like its
    // plain form) and quantized LSTF under each mapper.
    let disciplines = SchedulerKind::ALL
        .into_iter()
        .filter(|k| {
            !matches!(
                k,
                SchedulerKind::Priority { preemptive: true }
                    | SchedulerKind::Lstf { preemptive: true }
                    | SchedulerKind::Edf { preemptive: true }
            )
        })
        .chain(MapperKind::ALL.map(|m| SchedulerKind::quantized_lstf(8, m)));
    for kind in disciplines {
        rows.push((metric_name(kind), scheduler(kind, slice)));
    }

    let mut sketch = QuantileSketch::new();
    rows.push((
        "metrics.sketch_insert_ns".to_string(),
        ns_per_op(slice, || {
            for _ in 0..BATCH {
                sketch.insert((splitmix64(&mut state) >> 40) as f64 / 1024.0);
            }
        }),
    ));
    rows
}
