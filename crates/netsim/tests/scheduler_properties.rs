//! Property tests for the scheduler suite: invariants every discipline
//! must uphold regardless of input sequence. Packets live in a
//! [`PacketArena`], as in the simulator; schedulers only ever see refs.

use proptest::prelude::*;

use ups_netsim::prelude::*;

/// All general-purpose disciplines (the oracle-dependent EDF/Omniscient
/// need per-packet tables and are covered by ups-core tests), plus the
/// quantized-LSTF presets — one per rank→queue mapper.
fn all_kinds() -> Vec<SchedulerKind> {
    let mut kinds = vec![
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
    kinds.extend(SchedulerKind::QUANTIZED_SAMPLES);
    kinds
}

fn ctx() -> PortCtx {
    PortCtx {
        bandwidth: Bandwidth::from_gbps(1),
    }
}

/// (flow, size, slack_us, prio, flow_size) drives every header field any
/// discipline reads.
#[derive(Debug, Clone)]
struct Op {
    flow: u64,
    size: u32,
    slack_us: u32,
    prio: i64,
    flow_bytes: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u64..6,
        40u32..1501,
        0u32..10_000,
        -50i64..50,
        1u64..1_000_000,
    )
        .prop_map(|(flow, size, slack_us, prio, flow_bytes)| Op {
            flow,
            size,
            slack_us,
            prio,
            flow_bytes,
        })
}

fn packet(i: usize, op: &Op) -> Packet {
    let path = PathId::from(vec![NodeId(0), NodeId(1)]);
    PacketBuilder::new(
        PacketId(i as u64),
        FlowId(op.flow),
        op.size,
        path,
        SimTime::ZERO,
    )
    .slack(Dur::from_us(op.slack_us as u64).as_ps() as i128)
    .prio(op.prio as i128)
    .flow_bytes(op.flow_bytes, op.flow_bytes.saturating_sub(i as u64 * 100))
    .build()
}

/// Allocate and enqueue in one step.
fn enq(
    s: &mut dyn Scheduler,
    arena: &mut PacketArena,
    p: Packet,
    now: SimTime,
    seq: u64,
) -> PacketRef {
    let r = arena.alloc(p);
    s.enqueue(r, arena, now, seq, ctx());
    r
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Conservation: every enqueued packet comes out exactly once, byte
    /// and length accounting return to zero, and `is_empty` agrees.
    #[test]
    fn conservation_across_all_disciplines(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        for kind in all_kinds() {
            let mut arena = PacketArena::new();
            let mut s = kind.build(11);
            let mut total_bytes = 0u64;
            for (i, op) in ops.iter().enumerate() {
                enq(&mut *s, &mut arena, packet(i, op), SimTime::from_us(i as u64), i as u64);
                total_bytes += op.size as u64;
            }
            prop_assert_eq!(s.len(), ops.len(), "{} len", s.name());
            prop_assert_eq!(s.queued_bytes(), total_bytes, "{} bytes", s.name());
            let mut seen: Vec<u64> = Vec::new();
            let t = SimTime::from_ms(10);
            while let Some(qp) = s.dequeue(&mut arena, t, ctx()) {
                seen.push(arena.get(qp.pkt).id.0);
            }
            seen.sort_unstable();
            let expected: Vec<u64> = (0..ops.len() as u64).collect();
            prop_assert_eq!(seen, expected, "{} must emit each packet once", s.name());
            prop_assert_eq!(s.queued_bytes(), 0u64);
            prop_assert!(s.is_empty());
        }
    }

    /// Interleaving dequeues with enqueues never corrupts accounting or
    /// loses packets (the port does exactly this).
    #[test]
    fn interleaved_operations_stay_consistent(
        ops in proptest::collection::vec((op_strategy(), proptest::bool::ANY), 2..80)
    ) {
        for kind in all_kinds() {
            let mut arena = PacketArena::new();
            let mut s = kind.build(3);
            let mut in_flight = 0usize;
            let mut emitted = 0usize;
            let mut enqueued = 0usize;
            for (i, (op, do_dequeue)) in ops.iter().enumerate() {
                let now = SimTime::from_us(i as u64);
                enq(&mut *s, &mut arena, packet(i, op), now, i as u64);
                enqueued += 1;
                in_flight += 1;
                if *do_dequeue {
                    if let Some(_qp) = s.dequeue(&mut arena, now, ctx()) {
                        in_flight -= 1;
                        emitted += 1;
                    }
                }
                prop_assert_eq!(s.len(), in_flight, "{}", s.name());
            }
            while s.dequeue(&mut arena, SimTime::from_ms(1), ctx()).is_some() {
                emitted += 1;
            }
            prop_assert_eq!(emitted, enqueued, "{}", s.name());
        }
    }

    /// Buffer eviction (`select_drop`) removes exactly one packet and
    /// keeps accounting exact; repeated eviction empties the queue.
    #[test]
    fn select_drop_accounting(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        for kind in all_kinds() {
            let mut arena = PacketArena::new();
            let mut s = kind.build(5);
            for (i, op) in ops.iter().enumerate() {
                enq(&mut *s, &mut arena, packet(i, op), SimTime::ZERO, i as u64);
            }
            let mut dropped = 0usize;
            while let Some(victim) = s.select_drop() {
                dropped += 1;
                prop_assert!(victim.size > 0);
                arena.free(victim.pkt);
            }
            prop_assert_eq!(dropped, ops.len(), "{}", s.name());
            prop_assert_eq!(s.queued_bytes(), 0u64, "{}", s.name());
            prop_assert!(s.dequeue(&mut arena, SimTime::from_ms(1), ctx()).is_none());
            prop_assert!(arena.is_empty(), "{} leaked arena slots", s.name());
        }
    }

    /// FIFO emits in arrival order; LIFO in reverse — exactly, for any
    /// input.
    #[test]
    fn fifo_and_lifo_orders(ops in proptest::collection::vec(op_strategy(), 1..50)) {
        let drain = |kind: SchedulerKind| {
            let mut arena = PacketArena::new();
            let mut s = kind.build(0);
            for (i, op) in ops.iter().enumerate() {
                enq(&mut *s, &mut arena, packet(i, op), SimTime::from_us(i as u64), i as u64);
            }
            let mut order = Vec::new();
            while let Some(qp) = s.dequeue(&mut arena, SimTime::from_ms(1), ctx()) {
                order.push(arena.get(qp.pkt).id.0);
            }
            order
        };
        let fifo = drain(SchedulerKind::Fifo);
        prop_assert!(fifo.windows(2).all(|w| w[0] < w[1]));
        let lifo = drain(SchedulerKind::Lifo);
        prop_assert!(lifo.windows(2).all(|w| w[0] > w[1]));
    }

    /// Priority dequeues in nondecreasing `prio` among simultaneous
    /// arrivals; LSTF in nondecreasing slack (same-size packets, one
    /// instant — the regime where rank order is exactly slack order).
    #[test]
    fn rank_disciplines_sort_their_key(ops in proptest::collection::vec(op_strategy(), 1..50)) {
        let t = SimTime::from_us(5);
        let mut prio_arena = PacketArena::new();
        let mut lstf_arena = PacketArena::new();
        let mut prio_s = SchedulerKind::Priority { preemptive: false }.build(0);
        let mut lstf_s = SchedulerKind::Lstf { preemptive: false }.build(0);
        for (i, op) in ops.iter().enumerate() {
            let mut p = packet(i, op);
            p.size = 1000; // uniform size isolates the slack key
            enq(&mut *prio_s, &mut prio_arena, p.clone(), t, i as u64);
            enq(&mut *lstf_s, &mut lstf_arena, p, t, i as u64);
        }
        let mut last = i128::MIN;
        while let Some(qp) = prio_s.dequeue(&mut prio_arena, t, ctx()) {
            let prio = prio_arena.get(qp.pkt).header.prio;
            prop_assert!(prio >= last);
            last = prio;
        }
        let mut last_slack = i128::MIN;
        while let Some(qp) = lstf_s.dequeue(&mut lstf_arena, t, ctx()) {
            // dequeue rewrote slack by the wait (zero here: same instant).
            let slack = lstf_arena.get(qp.pkt).header.slack;
            prop_assert!(slack >= last_slack);
            last_slack = slack;
        }
    }

    /// The tentpole contract of the quantization layer: with the dynamic
    /// (queue-remapping) mapper and K at least the number of distinct
    /// ranks in the run, quantized LSTF serves in *exactly* the order
    /// exact LSTF does — per-packet, for any slack/size/arrival mix —
    /// and applies the identical slack rewrite.
    #[test]
    fn quantized_lstf_is_exact_when_k_covers_distinct_ranks(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let k = ops.len() as u32; // ≥ #distinct ranks, trivially
        let mut exact_arena = PacketArena::new();
        let mut quant_arena = PacketArena::new();
        let mut exact = SchedulerKind::Lstf { preemptive: false }.build(0);
        let mut quant = SchedulerKind::quantized_lstf(k, MapperKind::Dynamic).build(0);
        for (i, op) in ops.iter().enumerate() {
            let now = SimTime::from_us(i as u64);
            enq(&mut *exact, &mut exact_arena, packet(i, op), now, i as u64);
            enq(&mut *quant, &mut quant_arena, packet(i, op), now, i as u64);
        }
        let mut t = SimTime::from_ms(1);
        loop {
            let a = exact.dequeue(&mut exact_arena, t, ctx());
            let b = quant.dequeue(&mut quant_arena, t, ctx());
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    let (pa, pb) = (exact_arena.get(a.pkt), quant_arena.get(b.pkt));
                    prop_assert_eq!(pa.id, pb.id, "service order diverged");
                    prop_assert_eq!(a.rank, b.rank, "rank computation diverged");
                    prop_assert_eq!(
                        pa.header.slack, pb.header.slack,
                        "slack rewrite diverged"
                    );
                }
                (a, b) => prop_assert!(false, "queue lengths diverged: {a:?} vs {b:?}"),
            }
            t += Dur::from_us(3);
        }
    }

    /// Random is reproducible per seed and emits a permutation.
    #[test]
    fn random_is_seeded_permutation(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        let drain = |seed: u64| {
            let mut arena = PacketArena::new();
            let mut s = SchedulerKind::Random.build(seed);
            for (i, op) in ops.iter().enumerate() {
                enq(&mut *s, &mut arena, packet(i, op), SimTime::ZERO, i as u64);
            }
            let mut order = Vec::new();
            while let Some(qp) = s.dequeue(&mut arena, SimTime::ZERO, ctx()) {
                order.push(arena.get(qp.pkt).id.0);
            }
            order
        };
        let a = drain(seed);
        let b = drain(seed);
        prop_assert_eq!(&a, &b, "same seed, same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let expected: Vec<u64> = (0..ops.len() as u64).collect();
        prop_assert_eq!(sorted, expected, "a permutation of the input");
    }

    /// FQ never lets one backlogged flow lag another by more than one
    /// MTU-equivalent of service among equal-size packets.
    #[test]
    fn fq_bounded_unfairness(n_each in 2usize..20) {
        let mut arena = PacketArena::new();
        let mut s = SchedulerKind::Fq.build(0);
        let mut idx = 0u64;
        for i in 0..n_each {
            for flow in [1u64, 2] {
                let op = Op { flow, size: 1000, slack_us: 0, prio: 0, flow_bytes: 1 };
                enq(&mut *s, &mut arena, packet(i * 2 + flow as usize - 1, &op), SimTime::ZERO, idx);
                idx += 1;
            }
        }
        let (mut c1, mut c2) = (0i64, 0i64);
        while let Some(qp) = s.dequeue(&mut arena, SimTime::ZERO, ctx()) {
            if arena.get(qp.pkt).flow.0 == 1 { c1 += 1 } else { c2 += 1 }
            prop_assert!((c1 - c2).abs() <= 2, "imbalance {c1} vs {c2}");
        }
    }
}

/// FNV-1a over the bytes of one served or evicted packet.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash of the (packet id, rank, rewritten slack) sequence quantized LSTF
/// emits over a seeded stream of enqueues, dequeues and evictions. A
/// few enqueues send a served packet round again, so the keys
/// of later arrivals read slack the queue itself rewrote. Returns the
/// hash and the number of distinct ranks admitted.
fn quantized_order_hash(k: u32, mapper: MapperKind) -> (u64, usize) {
    let mut arena = PacketArena::new();
    let mut s = SchedulerKind::quantized_lstf(k, mapper).build(0);
    let mut state = 0x5DEE_CE66_D1CE_5EEDu64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut served: Vec<PacketRef> = Vec::new();
    let mut ranks = std::collections::BTreeSet::new();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    for step in 0..4_000u64 {
        now += Dur::from_ns(next() % 3_000);
        // Enqueue-heavy, then drain-heavy, so the depth wanders.
        let grow = if (step / 250) % 2 == 0 { 10 } else { 6 };
        let op = next() % 16;
        if op < grow {
            let pkt = if op < 3 && !served.is_empty() {
                served.swap_remove((next() % served.len() as u64) as usize)
            } else {
                // Slacks from −50 µs to ~4 ms, log-spread so every log
                // bucket and the sub-granule bucket see traffic.
                let slack_ps = (1i128 << (next() % 33)) - 50_000_000;
                let op = Op {
                    flow: next() % 6,
                    size: 64 + (next() % 1437) as u32,
                    slack_us: 0,
                    prio: 0,
                    flow_bytes: 1,
                };
                let mut p = packet(seq as usize, &op);
                p.header.slack = slack_ps;
                arena.alloc(p)
            };
            s.enqueue(pkt, &arena, now, seq, ctx());
            seq += 1;
        } else {
            let (tag, qp) = if op < 15 {
                (0u8, s.dequeue(&mut arena, now, ctx()))
            } else {
                (1u8, s.select_drop())
            };
            let Some(qp) = qp else { continue };
            ranks.insert(qp.rank);
            let p = arena.get(qp.pkt);
            fnv(&mut h, &[tag]);
            fnv(&mut h, &p.id.0.to_le_bytes());
            fnv(&mut h, &qp.rank.to_le_bytes());
            fnv(&mut h, &p.header.slack.to_le_bytes());
            if tag == 0 {
                served.push(qp.pkt);
            } else {
                arena.free(qp.pkt);
            }
        }
    }
    (h, ranks.len())
}

/// Pins the lossy quantized orders: every mapper at K ∈ {1, 2, 8}, where
/// the dynamic mapper is short of the distinct ranks in flight and must
/// coerce. The exact-when-K-covers property and the K=1 FIFO test only
/// reach the lossless ends; this reaches the orders in between.
#[test]
fn quantized_lstf_lossy_orders_are_pinned() {
    let want: [(u32, MapperKind, u64); 9] = [
        (1, MapperKind::Log, 0x78a9841e854e27a5),
        (2, MapperKind::Log, 0x57a398701de52108),
        (8, MapperKind::Log, 0x81e29e5a5f1066aa),
        (1, MapperKind::SpPifo, 0x78a9841e854e27a5),
        (2, MapperKind::SpPifo, 0x0cc042d623a4ae07),
        (8, MapperKind::SpPifo, 0xbb5d24c9161eaec1),
        (1, MapperKind::Dynamic, 0x78a9841e854e27a5),
        (2, MapperKind::Dynamic, 0xc73a4c8bc9736193),
        (8, MapperKind::Dynamic, 0x7e33e5b2d34089f0),
    ];
    let mut got = Vec::new();
    for (k, mapper, _) in want {
        let (hash, distinct) = quantized_order_hash(k, mapper);
        assert!(
            distinct > 8 * k as usize,
            "K={k} {mapper:?}: only {distinct} distinct ranks, too few to be lossy"
        );
        got.push((k, mapper, hash));
    }
    assert_eq!(got, want, "quantized LSTF order changed");
}
