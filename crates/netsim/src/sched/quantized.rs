//! Finite-priority-queue emulation of LSTF.
//!
//! The paper's LSTF/replay results assume a scheduler that compares
//! arbitrary-precision ranks; real switches expose a small number **K**
//! of strict-priority drop-tail FIFO queues. [`Quantized`] emulates
//! non-preemptive LSTF on exactly that hardware model:
//!
//! 1. on arrival, LSTF's exact rank is computed (`LstfRank::admit`), and
//!    the mapper key is that rank less `now`: the remaining slack at the
//!    last bit, which does not drift with simulation time;
//! 2. a pluggable [`MapperKind`] maps the key (or, for
//!    [`MapperKind::Dynamic`], the exact rank) to one of K queues;
//! 3. service is strict priority across queues, FIFO within a queue, and
//!    buffer overflow drops from the tail of the lowest-priority queue;
//! 4. on dequeue LSTF's slack rewrite (`LstfRank::on_serve`) still runs,
//!    so the slack carried to the next hop stays exact.
//!
//! The emulation never preempts: hardware FIFO queues cannot reorder what
//! they already hold.

use std::collections::{BTreeMap, VecDeque};

use super::lstf::LstfRank;
use super::rank_queue::Rank;
use crate::arena::{PacketArena, PacketRef};
use crate::queue::{PortCtx, QueuedPacket, Scheduler};
use crate::time::SimTime;

/// How LSTF's ranks are mapped onto the K strict-priority queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapperKind {
    /// Static log-spaced bucketing of the stationary key (remaining slack
    /// at the last bit): queue 0 holds keys up to one granule
    /// ([`LOG_GRANULARITY_PS`] ≈ 1 µs), and each further queue doubles
    /// the range. Boundaries never move; tuned for picosecond slacks.
    Log,
    /// SP-PIFO-style adaptation (Alcoz et al., NSDI'20) on the stationary
    /// key: per-queue bounds, *push-up* (a queue's bound rises to
    /// the rank it just admitted) and *push-down* (an arrival smaller than
    /// every bound lowers all bounds by the inversion cost).
    SpPifo,
    /// Chameleon-style dynamic queue remapping on the **exact** rank: at
    /// most K distinct rank levels are bound to queues at once, levels
    /// are freed as queues drain, and an arrival that finds all K levels
    /// taken is coerced into the level with the greatest rank not above
    /// its own (or the top level when every bound is above it) — it is
    /// served slightly *too early*, and the inversion is paid by the
    /// earlier packets of that level. Exact — bit-identical to exact
    /// LSTF — whenever K covers the distinct ranks in flight.
    Dynamic,
}

impl MapperKind {
    /// Every mapper, in a stable listing order.
    pub const ALL: [MapperKind; 3] = [MapperKind::Log, MapperKind::SpPifo, MapperKind::Dynamic];

    /// Stable axis label (`--mapper` values of the sweep CLI).
    pub fn name(self) -> &'static str {
        match self {
            MapperKind::Log => "log",
            MapperKind::SpPifo => "sppifo",
            MapperKind::Dynamic => "dynamic",
        }
    }

    /// Parse an axis label — the exact inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<MapperKind> {
        MapperKind::ALL.into_iter().find(|m| m.name() == name)
    }

    /// One-line description for registry listings (`sweep --list`).
    pub fn description(self) -> &'static str {
        match self {
            MapperKind::Log => "static log-spaced buckets over a ~1us granule",
            MapperKind::SpPifo => "SP-PIFO push-up/push-down on the stationary key (default)",
            MapperKind::Dynamic => {
                "Chameleon-style rank->queue remapping; exact when K covers the ranks"
            }
        }
    }
}

/// Granule of the [`MapperKind::Log`] boundaries: ~1.05 µs in
/// picoseconds. Queue 0 holds keys ≤ one granule; queue i holds keys in
/// `(g·2^{i−1}, g·2^i]`; the last queue absorbs the rest.
pub const LOG_GRANULARITY_PS: i128 = 1 << 20;

/// Physical-queue storage: fixed strict-priority queues for the bucketing
/// mappers, or rank-level-bound queues for the dynamic mapper.
#[derive(Debug)]
enum Queues {
    /// Index 0 is the highest priority. `bounds` is used by SP-PIFO only.
    Fixed {
        queues: Vec<VecDeque<QueuedPacket>>,
        bounds: Vec<i128>,
    },
    /// Rank level → FIFO queue; at most `k` levels simultaneously.
    Dynamic {
        levels: BTreeMap<i128, VecDeque<QueuedPacket>>,
    },
}

/// Non-preemptive LSTF emulated on K strict-priority drop-tail FIFO
/// queues (see the module docs). Built via
/// [`SchedulerKind::Quantized`](super::SchedulerKind::Quantized).
#[derive(Debug)]
pub struct Quantized {
    lstf: LstfRank,
    mapper: MapperKind,
    k: usize,
    queues: Queues,
    len: usize,
    bytes: u64,
}

/// The bucketing mappers allocate their queues eagerly; beyond this K the
/// emulation question is moot (use [`MapperKind::Dynamic`], which scales
/// to unbounded K without allocation).
pub const MAX_FIXED_QUEUES: u32 = 4096;

impl Quantized {
    /// LSTF on `k` strict-priority queues under `mapper`.
    ///
    /// # Panics
    /// If `k == 0`, or if a bucketing mapper (`log`/`sppifo`) is asked
    /// for more than [`MAX_FIXED_QUEUES`] queues.
    pub fn new(k: u32, mapper: MapperKind) -> Self {
        assert!(k >= 1, "a quantized scheduler needs at least one queue");
        let queues = match mapper {
            MapperKind::Log | MapperKind::SpPifo => {
                assert!(
                    k <= MAX_FIXED_QUEUES,
                    "mapper {:?} allocates {k} physical queues (max {MAX_FIXED_QUEUES}); \
                     use the dynamic mapper for larger K",
                    mapper.name()
                );
                Queues::Fixed {
                    queues: vec![VecDeque::new(); k as usize],
                    bounds: vec![0; k as usize],
                }
            }
            MapperKind::Dynamic => Queues::Dynamic {
                levels: BTreeMap::new(),
            },
        };
        Quantized {
            lstf: LstfRank { preemptive: false },
            mapper,
            k: k as usize,
            queues,
            len: 0,
            bytes: 0,
        }
    }
}

/// [`MapperKind::Log`]: static log-spaced buckets above
/// [`LOG_GRANULARITY_PS`]; non-positive and sub-granule keys are maximally
/// urgent.
fn log_bucket(key: i128, k: usize) -> usize {
    if key <= LOG_GRANULARITY_PS {
        return 0;
    }
    // key ∈ (g·2^{i−1}, g·2^i] ⇒ bucket i.
    let bucket = ((key - 1) / LOG_GRANULARITY_PS).ilog2() as usize + 1;
    bucket.min(k - 1)
}

/// [`MapperKind::SpPifo`]: admit into the lowest-priority queue whose
/// bound does not exceed the key (push-up), or push every bound down when
/// the key undercuts them all.
fn sppifo_bucket(bounds: &mut [i128], key: i128) -> usize {
    for i in (0..bounds.len()).rev() {
        if key >= bounds[i] {
            bounds[i] = key; // push-up
            return i;
        }
    }
    // Inversion at the top queue: push-down by its magnitude.
    let cost = bounds[0] - key;
    for b in bounds.iter_mut() {
        *b -= cost;
    }
    0
}

impl Scheduler for Quantized {
    fn enqueue(
        &mut self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        arrival_seq: u64,
        ctx: PortCtx,
    ) {
        let p = arena.get(pkt);
        let rank = self.lstf.admit(p, now, ctx);
        let qp = QueuedPacket {
            pkt,
            rank,
            enqueued_at: now,
            arrival_seq,
            size: p.size,
        };
        self.len += 1;
        self.bytes += qp.size as u64;
        match &mut self.queues {
            Queues::Fixed { queues, bounds } => {
                let key = rank - now.as_ps() as i128;
                let idx = match self.mapper {
                    MapperKind::Log => log_bucket(key, queues.len()),
                    MapperKind::SpPifo => sppifo_bucket(bounds, key),
                    MapperKind::Dynamic => unreachable!("dynamic uses level storage"),
                };
                queues[idx].push_back(qp);
            }
            Queues::Dynamic { levels } => {
                if let Some(q) = levels.get_mut(&rank) {
                    q.push_back(qp);
                } else if levels.len() < self.k {
                    levels.insert(rank, VecDeque::from([qp]));
                } else {
                    // All K queues bound to other rank levels: coerce
                    // into the level with the greatest rank ≤ this one
                    // (the top level when every bound is above it). The
                    // packet is served too early — the bounded inversion
                    // real queue remapping pays.
                    #[expect(
                        clippy::expect_used,
                        reason = "the constructor enforces k >= 1 levels"
                    )]
                    let target = levels
                        .range(..=rank)
                        .next_back()
                        .map(|(&r, _)| r)
                        .unwrap_or_else(|| *levels.keys().next().expect("k ≥ 1 levels"));
                    #[expect(
                        clippy::expect_used,
                        reason = "the target key was just taken from this map's keys"
                    )]
                    levels
                        .get_mut(&target)
                        .expect("target chosen from keys")
                        .push_back(qp);
                }
            }
        }
    }

    fn dequeue(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        ctx: PortCtx,
    ) -> Option<QueuedPacket> {
        let qp = match &mut self.queues {
            #[expect(
                clippy::expect_used,
                reason = "the scan above found this level non-empty"
            )]
            Queues::Fixed { queues, .. } => queues
                .iter_mut()
                .find(|q| !q.is_empty())?
                .pop_front()
                .expect("found non-empty"),
            Queues::Dynamic { levels } => {
                let mut entry = levels.first_entry()?;
                #[expect(
                    clippy::expect_used,
                    reason = "levels with emptied queues are removed eagerly"
                )]
                let qp = entry.get_mut().pop_front().expect("levels are non-empty");
                if entry.get().is_empty() {
                    entry.remove(); // frees the queue for a new rank level
                }
                qp
            }
        };
        self.len -= 1;
        self.bytes -= qp.size as u64;
        self.lstf.on_serve(&qp, arena, now, ctx);
        Some(qp)
    }

    fn peek_rank(&self) -> Option<i128> {
        match &self.queues {
            Queues::Fixed { queues, .. } => queues.iter().find_map(|q| q.front()).map(|qp| qp.rank),
            Queues::Dynamic { levels } => levels
                .first_key_value()
                .and_then(|(_, q)| q.front())
                .map(|qp| qp.rank),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn queued_bytes(&self) -> u64 {
        self.bytes
    }

    /// Drop-tail on the lowest-priority backlogged queue: the newest
    /// arrival of the least-urgent bucket.
    fn select_drop(&mut self) -> Option<QueuedPacket> {
        let victim = match &mut self.queues {
            #[expect(
                clippy::expect_used,
                reason = "the scan above found this level non-empty"
            )]
            Queues::Fixed { queues, .. } => queues
                .iter_mut()
                .rev()
                .find(|q| !q.is_empty())?
                .pop_back()
                .expect("found non-empty"),
            Queues::Dynamic { levels } => {
                let mut entry = levels.last_entry()?;
                #[expect(
                    clippy::expect_used,
                    reason = "levels with emptied queues are removed eagerly"
                )]
                let qp = entry.get_mut().pop_back().expect("levels are non-empty");
                if entry.get().is_empty() {
                    entry.remove();
                }
                qp
            }
        };
        self.len -= 1;
        self.bytes -= victim.size as u64;
        Some(victim)
    }

    /// Hardware FIFO queues cannot reorder what they already hold.
    fn is_preemptive(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        match self.mapper {
            MapperKind::Log => "Quantized/log",
            MapperKind::SpPifo => "Quantized/sppifo",
            MapperKind::Dynamic => "Quantized/dynamic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Header, Packet};
    use crate::sched::testutil::{pkt_with, Bench};
    use crate::sched::Lstf;
    use crate::time::Dur;

    fn slacked(id: u64, slack_us: u64) -> Packet {
        pkt_with(
            id,
            id,
            100,
            Header {
                slack: Dur::from_us(slack_us).as_ps() as i128,
                ..Header::default()
            },
        )
    }

    #[test]
    fn log_buckets_are_log_spaced() {
        let g = LOG_GRANULARITY_PS;
        assert_eq!(log_bucket(i128::MIN / 2, 8), 0);
        assert_eq!(log_bucket(0, 8), 0);
        assert_eq!(log_bucket(g, 8), 0);
        assert_eq!(log_bucket(g + 1, 8), 1);
        assert_eq!(log_bucket(2 * g, 8), 1);
        assert_eq!(log_bucket(2 * g + 1, 8), 2);
        assert_eq!(log_bucket(4 * g, 8), 2);
        assert_eq!(log_bucket(i128::MAX / 2, 8), 7, "overflow bucket");
        assert_eq!(log_bucket(i128::MAX / 2, 1), 0, "K=1 has one bucket");
    }

    #[test]
    fn sppifo_pushes_up_and_down() {
        let mut bounds = vec![0i128; 3];
        // First arrivals land in the lowest-priority queue and push its
        // bound up.
        assert_eq!(sppifo_bucket(&mut bounds, 10), 2);
        assert_eq!(bounds, vec![0, 0, 10]);
        // A smaller rank fails the bottom bound and climbs.
        assert_eq!(sppifo_bucket(&mut bounds, 5), 1);
        assert_eq!(bounds, vec![0, 5, 10]);
        assert_eq!(sppifo_bucket(&mut bounds, 3), 0);
        assert_eq!(bounds, vec![3, 5, 10]);
        // An inversion at the top queue pushes every bound down by cost.
        assert_eq!(sppifo_bucket(&mut bounds, 1), 0);
        assert_eq!(bounds, vec![1, 3, 8]);
    }

    #[test]
    fn one_queue_degrades_to_fifo() {
        for mapper in MapperKind::ALL {
            let mut b = Bench::new(Quantized::new(1, mapper));
            let t = SimTime::ZERO;
            b.enqueue_at(slacked(1, 500), t, 0);
            b.enqueue_at(slacked(2, 20), t, 1);
            b.enqueue_at(slacked(3, 100), t, 2);
            assert_eq!(
                b.drain_ids(t),
                vec![1, 2, 3],
                "{:?}: K=1 is arrival order",
                mapper
            );
        }
    }

    #[test]
    fn dynamic_with_enough_queues_matches_exact_lstf() {
        let slacks = [500u64, 20, 100, 20, 7, 100, 3000, 1];
        let mut exact = Bench::new(Lstf::new(false));
        let mut quant = Bench::new(Quantized::new(slacks.len() as u32, MapperKind::Dynamic));
        for (i, &s) in slacks.iter().enumerate() {
            let t = SimTime::from_us(i as u64);
            exact.enqueue_at(slacked(i as u64, s), t, i as u64);
            quant.enqueue_at(slacked(i as u64, s), t, i as u64);
        }
        let t = SimTime::from_ms(1);
        assert_eq!(exact.drain_ids(t), quant.drain_ids(t));
    }

    #[test]
    fn dynamic_coerces_when_out_of_queues() {
        // K=2: ranks 10 and 30 bind the two levels; a rank-20 arrival is
        // coerced into the level below it (10), a rank-5 arrival into the
        // top level.
        let mut b = Bench::new(Quantized::new(2, MapperKind::Dynamic));
        let t = SimTime::ZERO;
        b.enqueue_at(slacked(1, 10), t, 0);
        b.enqueue_at(slacked(2, 30), t, 1);
        b.enqueue_at(slacked(3, 20), t, 2); // coerced behind id 1
        b.enqueue_at(slacked(4, 5), t, 3); // coerced behind id 3
        assert_eq!(b.drain_ids(t), vec![1, 3, 4, 2]);
    }

    #[test]
    fn strict_priority_across_log_buckets_fifo_within() {
        let mut b = Bench::new(Quantized::new(8, MapperKind::Log));
        let t = SimTime::ZERO;
        // Two far-apart slack magnitudes and an in-bucket tie.
        b.enqueue_at(slacked(1, 5_000), t, 0); // high bucket
        b.enqueue_at(slacked(2, 2), t, 1); // low bucket
        b.enqueue_at(slacked(3, 3), t, 2); // same low bucket, after 2
        assert_eq!(b.drain_ids(t), vec![2, 3, 1]);
    }

    #[test]
    fn select_drop_takes_tail_of_least_urgent_queue() {
        for mapper in MapperKind::ALL {
            let mut b = Bench::new(Quantized::new(4, mapper));
            let t = SimTime::ZERO;
            b.enqueue_at(slacked(1, 1), t, 0);
            b.enqueue_at(slacked(2, 40_000), t, 1);
            b.enqueue_at(slacked(3, 40_000), t, 2);
            assert_eq!(
                b.drop_id(),
                Some(3),
                "{mapper:?}: newest arrival of the worst bucket"
            );
            assert_eq!(b.s.len(), 2);
            assert_eq!(b.s.queued_bytes(), 200);
        }
    }

    #[test]
    fn slack_rewrite_survives_quantization() {
        let mut b = Bench::new(Quantized::new(8, MapperKind::Log));
        b.enqueue_at(slacked(1, 100), SimTime::from_us(10), 0);
        let qp = b.dequeue_at(SimTime::from_us(35)).unwrap();
        // Waited 25us of its 100us slack — same rewrite exact LSTF does.
        assert_eq!(
            b.arena.get(qp.pkt).header.slack,
            Dur::from_us(75).as_ps() as i128
        );
    }

    #[test]
    fn never_preemptive() {
        assert!(!Quantized::new(8, MapperKind::Log).is_preemptive());
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_rejected() {
        let _ = Quantized::new(0, MapperKind::Log);
    }

    #[test]
    fn mapper_names_round_trip() {
        for m in MapperKind::ALL {
            assert_eq!(MapperKind::from_name(m.name()), Some(m));
        }
        assert_eq!(MapperKind::from_name("afq"), None);
    }
}
