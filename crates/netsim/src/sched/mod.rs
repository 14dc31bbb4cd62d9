//! Per-port packet scheduling disciplines.
//!
//! Everything the paper's evaluation schedules with lives here:
//!
//! * the **original-schedule** disciplines of Table 1 — [`Fifo`], [`Lifo`],
//!   [`Random`], [`FairQueueing`], [`Sjf`], [`FifoPlus`] — plus [`Srpt`],
//!   which Fig. 2 runs, and [`Drr`], offered as an original discipline
//!   that no paper experiment runs,
//! * the **replay candidates** — [`Lstf`] (non-preemptive and preemptive),
//!   [`Edf`] (the equivalent static-header formulation, App. E) and
//!   [`Priority`] (the simple-priorities baseline of §2.3(7) and App. F),
//!   plus [`Quantized`], non-preemptive LSTF on the K strict-priority
//!   FIFO queues a real switch has.
//!
//! Each port owns one scheduler instance, built from a [`SchedulerKind`]
//! so that per-port state (virtual time, DRR rounds, RNG streams, FIFO+
//! delay averages) is never shared across ports.
//!
//! Seven of them — [`Priority`], [`Sjf`], [`Edf`], [`Lstf`], [`FifoPlus`],
//! [`Omniscient`], [`FairQueueing`] — are one queue body (`rank_queue`)
//! under seven ranks; each of their files holds only the rank.

mod drr;
mod edf;
mod fifo;
mod fifo_plus;
mod fq;
mod lifo;
mod lstf;
mod omniscient;
mod priority;
mod quantized;
mod random;
mod rank_queue;
mod sjf;
mod srpt;

pub use drr::Drr;
pub use edf::Edf;
pub use fifo::Fifo;
pub use fifo_plus::FifoPlus;
pub use fq::FairQueueing;
pub use lifo::Lifo;
pub use lstf::Lstf;
pub use omniscient::Omniscient;
pub use priority::Priority;
pub use quantized::{MapperKind, Quantized, LOG_GRANULARITY_PS, MAX_FIXED_QUEUES};
pub use random::Random;
pub use sjf::Sjf;
pub use srpt::Srpt;

use crate::queue::Scheduler;

/// Which discipline to instantiate at a port. `build` stamps out a fresh,
/// independent scheduler; `seed` individualizes stochastic disciplines
/// (only [`Random`] uses it) so different ports draw independent streams
/// while the whole run stays reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-in first-out (drop-tail).
    Fifo,
    /// Last-in first-out.
    Lifo,
    /// Uniformly random pick among queued packets (§2.3 default original
    /// schedule — "completely arbitrary schedules").
    Random,
    /// Static priorities from `header.prio` (lower first).
    Priority {
        /// Allow interrupting an ongoing transmission for a strictly
        /// better priority (theory-mode replay candidates).
        preemptive: bool,
    },
    /// Shortest job first: priority = flow size (§3.1).
    Sjf,
    /// Shortest remaining processing time with pFabric-style starvation
    /// prevention (§3.1, \[3\]).
    Srpt,
    /// Start-time fair queueing approximation of bit-by-bit round robin
    /// fair queueing \[12\].
    Fq,
    /// Deficit round robin \[27\].
    Drr,
    /// FIFO+ \[11\]: FIFO reordered by upstream queueing excess (§3.2).
    FifoPlus,
    /// Least slack time first (§2.2) — the near-universal replay scheduler.
    Lstf {
        /// Allow interrupting an ongoing transmission for a smaller-slack
        /// arrival (§2.3(5) ablation). The paper's default replay is
        /// non-preemptive.
        preemptive: bool,
    },
    /// Earliest deadline first, network-wide form of App. E. Requires
    /// packets to carry `tmin_rem` tables.
    Edf {
        /// Preemptive variant (matches preemptive LSTF exactly).
        preemptive: bool,
    },
    /// Omniscient per-hop replay (App. B). Requires packets to carry
    /// `header.omniscient` vectors.
    Omniscient,
    /// Finite-priority-queue emulation of non-preemptive LSTF: LSTF's
    /// rank is mapped onto `k` strict-priority drop-tail FIFO queues by
    /// `mapper` (the hardware model real switches expose; see
    /// [`Quantized`]).
    Quantized {
        /// Number of strict-priority queues.
        k: u32,
        /// The rank→queue mapping policy.
        mapper: MapperKind,
    },
}

/// Non-preemptive LSTF, the paper's default replay scheduler.
pub const LSTF: SchedulerKind = SchedulerKind::Lstf { preemptive: false };

impl SchedulerKind {
    /// Instantiate a scheduler of this kind.
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fifo => Box::new(Fifo::new()),
            SchedulerKind::Lifo => Box::new(Lifo::new()),
            SchedulerKind::Random => Box::new(Random::new(seed)),
            SchedulerKind::Priority { preemptive: false } => Box::new(Priority::new()),
            SchedulerKind::Priority { preemptive: true } => Box::new(Priority::preemptive()),
            SchedulerKind::Sjf => Box::new(Sjf::new()),
            SchedulerKind::Srpt => Box::new(Srpt::new()),
            SchedulerKind::Fq => Box::new(FairQueueing::new()),
            SchedulerKind::Drr => Box::new(Drr::with_quantum(9000)),
            SchedulerKind::FifoPlus => Box::new(FifoPlus::new()),
            SchedulerKind::Lstf { preemptive } => Box::new(Lstf::new(preemptive)),
            SchedulerKind::Edf { preemptive: false } => Box::new(Edf::new()),
            SchedulerKind::Edf { preemptive: true } => Box::new(Edf::preemptive()),
            SchedulerKind::Omniscient => Box::new(Omniscient::new()),
            SchedulerKind::Quantized { k, mapper } => Box::new(Quantized::new(k, mapper)),
        }
    }

    /// Quantized LSTF at `k` strict-priority queues — the
    /// finite-priority-queue replay candidate the sweep's `--queues` axis
    /// and the `quantized` bench instantiate.
    pub const fn quantized_lstf(k: u32, mapper: MapperKind) -> SchedulerKind {
        SchedulerKind::Quantized { k, mapper }
    }

    /// Representative quantized kinds — one per mapper at K = 8 —
    /// enumerated alongside [`Self::ALL`] by the Send audit and the
    /// scheduler property tests (`ALL` itself stays the closed set of
    /// nameable base disciplines: quantized kinds are parameterized and
    /// have no bare-name round trip).
    pub const QUANTIZED_SAMPLES: [SchedulerKind; 3] = [
        SchedulerKind::quantized_lstf(8, MapperKind::Log),
        SchedulerKind::quantized_lstf(8, MapperKind::SpPifo),
        SchedulerKind::quantized_lstf(8, MapperKind::Dynamic),
    ];

    /// Every kind, in a stable listing order (the sweep grids and the
    /// Send audit enumerate disciplines through this).
    pub const ALL: [SchedulerKind; 15] = [
        SchedulerKind::Fifo,
        SchedulerKind::Lifo,
        SchedulerKind::Random,
        SchedulerKind::Priority { preemptive: false },
        SchedulerKind::Priority { preemptive: true },
        SchedulerKind::Sjf,
        SchedulerKind::Srpt,
        SchedulerKind::Fq,
        SchedulerKind::Drr,
        SchedulerKind::FifoPlus,
        SchedulerKind::Lstf { preemptive: false },
        SchedulerKind::Lstf { preemptive: true },
        SchedulerKind::Edf { preemptive: false },
        SchedulerKind::Edf { preemptive: true },
        SchedulerKind::Omniscient,
    ];

    /// Parse a display name back into a kind — the exact inverse of
    /// [`Self::name`], so declarative scenario grids can reference
    /// disciplines by the labels the paper's tables use.
    pub fn from_name(name: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "FIFO",
            SchedulerKind::Lifo => "LIFO",
            SchedulerKind::Random => "Random",
            SchedulerKind::Priority { preemptive: false } => "Priority",
            SchedulerKind::Priority { preemptive: true } => "Priority-P",
            SchedulerKind::Sjf => "SJF",
            SchedulerKind::Srpt => "SRPT",
            SchedulerKind::Fq => "FQ",
            SchedulerKind::Drr => "DRR",
            SchedulerKind::FifoPlus => "FIFO+",
            SchedulerKind::Lstf { preemptive: false } => "LSTF",
            SchedulerKind::Lstf { preemptive: true } => "LSTF-P",
            SchedulerKind::Edf { preemptive: false } => "EDF",
            SchedulerKind::Edf { preemptive: true } => "EDF-P",
            SchedulerKind::Omniscient => "Omniscient",
            // Parameterized; experiment tables label the (k, mapper)
            // pair themselves. Not in `ALL`, so `from_name`
            // never has to invert this.
            SchedulerKind::Quantized { .. } => "Quantized",
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by the per-discipline unit tests.
    use crate::arena::{PacketArena, PacketRef};
    use crate::id::{FlowId, NodeId, PacketId};
    use crate::packet::{Header, Packet, PacketBuilder};
    use crate::path::PathId;
    use crate::queue::{PortCtx, QueuedPacket, Scheduler};
    use crate::time::{Bandwidth, SimTime};

    /// 1 Gbps context.
    pub fn ctx() -> PortCtx {
        PortCtx {
            bandwidth: Bandwidth::from_gbps(1),
        }
    }

    /// A data packet with the given id/flow/size on a trivial 2-node path.
    pub fn pkt(id: u64, flow: u64, size: u32) -> Packet {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        PacketBuilder::new(PacketId(id), FlowId(flow), size, path, SimTime::ZERO).build()
    }

    /// Same but with a custom header.
    pub fn pkt_with(id: u64, flow: u64, size: u32, header: Header) -> Packet {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        PacketBuilder::new(PacketId(id), FlowId(flow), size, path, SimTime::ZERO)
            .header(header)
            .build()
    }

    /// A scheduler under test together with the arena its packets live in —
    /// the per-discipline tests' stand-in for the simulator.
    pub struct Bench<S> {
        /// Packet storage.
        pub arena: PacketArena,
        /// The discipline under test.
        pub s: S,
    }

    impl<S: Scheduler> Bench<S> {
        /// Wrap a scheduler with an empty arena.
        pub fn new(s: S) -> Self {
            Bench {
                arena: PacketArena::new(),
                s,
            }
        }

        /// Allocate `p` and enqueue it at `now` with the given seq.
        pub fn enqueue_at(&mut self, p: Packet, now: SimTime, seq: u64) -> PacketRef {
            let r = self.arena.alloc(p);
            self.s.enqueue(r, &self.arena, now, seq, ctx());
            r
        }

        /// Dequeue at `now`.
        pub fn dequeue_at(&mut self, now: SimTime) -> Option<QueuedPacket> {
            self.s.dequeue(&mut self.arena, now, ctx())
        }

        /// Dequeue at `now`, returning the packet id.
        pub fn dequeue_id(&mut self, now: SimTime) -> Option<u64> {
            self.dequeue_at(now).map(|qp| self.arena.get(qp.pkt).id.0)
        }

        /// `select_drop`, returning the victim's packet id.
        pub fn drop_id(&mut self) -> Option<u64> {
            self.s.select_drop().map(|qp| self.arena.get(qp.pkt).id.0)
        }

        /// Drain at fixed `now`, returning packet ids in service order.
        pub fn drain_ids(&mut self, now: SimTime) -> Vec<u64> {
            std::iter::from_fn(|| self.dequeue_id(now)).collect()
        }
    }

    /// Feed `packets` in order at t=0,1,2,... µs, then drain and return the
    /// service order (packet ids).
    pub fn service_order(s: &mut dyn Scheduler, packets: Vec<Packet>) -> Vec<u64> {
        let mut arena = PacketArena::new();
        for (i, p) in packets.into_iter().enumerate() {
            let r = arena.alloc(p);
            s.enqueue(r, &arena, SimTime::from_us(i as u64), i as u64, ctx());
        }
        let mut order = Vec::new();
        let mut t = SimTime::from_ms(1);
        while let Some(qp) = s.dequeue(&mut arena, t, ctx()) {
            order.push(arena.get(qp.pkt).id.0);
            t += crate::time::Dur::from_us(1);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{pkt, Bench};
    use super::*;
    use crate::queue::{QueuedPacket, RankHeap};
    use crate::time::SimTime;

    /// FIFO and LIFO are deques because the port's monotone `arrival_seq`
    /// already is their order. The reference is what they were before: a
    /// [`RankHeap`] ordered by the rank each one reports.
    fn matches_rank_heap<S: Scheduler>(s: S, rank_of: fn(u64) -> i128) {
        let mut b = Bench::new(s);
        let mut reference = RankHeap::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut seq = 0u64;
        let same = |got: Option<QueuedPacket>, want: Option<QueuedPacket>| {
            let fields =
                |qp: QueuedPacket| (qp.pkt, qp.rank, qp.enqueued_at, qp.arrival_seq, qp.size);
            assert_eq!(got.map(fields), want.map(fields));
        };
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let now = SimTime::from_ns(step);
            // Enqueue-heavy, then drain-heavy, so the depth wanders.
            let grow = if (step / 200) % 2 == 0 { 5 } else { 3 };
            match (state >> 60) % 8 {
                op if op < grow => {
                    let size = 40 + ((state >> 20) % 1461) as u32;
                    let pkt = b.enqueue_at(pkt(seq, 0, size), now, seq);
                    reference.push(QueuedPacket {
                        pkt,
                        rank: rank_of(seq),
                        enqueued_at: now,
                        arrival_seq: seq,
                        size,
                    });
                    seq += 1;
                }
                7 => same(b.s.select_drop(), reference.pop_max()),
                _ => same(b.dequeue_at(now), reference.pop_min()),
            }
            assert_eq!(b.s.peek_rank(), reference.peek_rank());
            assert_eq!(b.s.len(), reference.len());
            assert_eq!(b.s.queued_bytes(), reference.bytes());
        }
        assert!(seq > 5_000);
    }

    #[test]
    fn deque_fifo_and_lifo_match_a_rank_heap_reference() {
        matches_rank_heap(Fifo::new(), |_| 0);
        matches_rank_heap(Lifo::new(), |seq| -(seq as i128));
    }

    #[test]
    fn kinds_build_and_name() {
        let kinds = [
            SchedulerKind::Fifo,
            SchedulerKind::Lifo,
            SchedulerKind::Random,
            SchedulerKind::Priority { preemptive: false },
            SchedulerKind::Priority { preemptive: true },
            SchedulerKind::Sjf,
            SchedulerKind::Srpt,
            SchedulerKind::Fq,
            SchedulerKind::Drr,
            SchedulerKind::FifoPlus,
            SchedulerKind::Lstf { preemptive: false },
            SchedulerKind::Lstf { preemptive: true },
            SchedulerKind::Edf { preemptive: false },
            SchedulerKind::Edf { preemptive: true },
        ];
        for k in kinds.into_iter().chain(SchedulerKind::QUANTIZED_SAMPLES) {
            let s = k.build(42);
            assert!(s.is_empty(), "{} starts empty", s.name());
            assert_eq!(s.queued_bytes(), 0);
        }
        assert_eq!(SchedulerKind::Lstf { preemptive: true }.name(), "LSTF-P");
        assert_eq!(
            SchedulerKind::quantized_lstf(8, MapperKind::Log).name(),
            "Quantized"
        );
        assert_eq!(
            SchedulerKind::quantized_lstf(4, MapperKind::SpPifo)
                .build(0)
                .name(),
            "Quantized/sppifo"
        );
    }
}
