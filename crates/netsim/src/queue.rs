//! The scheduler abstraction: every per-port queueing discipline in the
//! paper implements [`Scheduler`].
//!
//! A scheduler owns the *references* to packets queued at one output port
//! and decides which to serve next. Packet bodies live in the simulator's
//! [`PacketArena`]; queue entries are small [`QueuedPacket`] records
//! carrying a 4-byte [`PacketRef`] plus the scheduling metadata (rank,
//! arrival bookkeeping, cached size), so heap sift operations move ~48
//! bytes instead of the full packet.
//!
//! Ranks are `i128` with *lower = served earlier*; ties break FIFO via a
//! per-port arrival sequence number, matching the paper's footnote 14
//! ("ties are broken ... by using FCFS").

use crate::arena::{PacketArena, PacketRef};
use crate::time::{Bandwidth, SimTime};

/// Static per-port context handed to schedulers on every operation.
#[derive(Debug, Clone, Copy)]
pub struct PortCtx {
    /// Bandwidth of the link this port feeds — needed for `T(p, α)` in the
    /// EDF rank (App. E).
    pub bandwidth: Bandwidth,
}

/// A queued packet reference, together with its scheduling metadata.
#[derive(Debug, Clone, Copy)]
pub struct QueuedPacket {
    /// Handle to the packet in the simulator's arena.
    pub pkt: PacketRef,
    /// Scheduler rank; lower is served earlier. Meaning is
    /// scheduler-specific (slack+arrival for LSTF, local deadline for EDF,
    /// virtual finish tag for FQ, ...).
    pub rank: i128,
    /// When the packet (re-)entered this queue; waiting time is measured
    /// from here.
    pub enqueued_at: SimTime,
    /// Per-port monotone arrival counter for deterministic FIFO
    /// tie-breaking.
    pub arrival_seq: u64,
    /// Packet size in bytes, cached so byte accounting and drop policies
    /// never touch the arena.
    pub size: u32,
}

impl QueuedPacket {
    #[inline]
    fn key(&self) -> (i128, u64) {
        (self.rank, self.arrival_seq)
    }
}

/// A per-port packet scheduler.
///
/// The port drives the scheduler through `enqueue`/`dequeue`; dynamic
/// packet state that is *scheduler-specific* (FIFO+'s offset, LSTF's
/// slack) is updated by the scheduler through the arena in `dequeue`,
/// while universal state (cumulative wait) is updated by the port so it is
/// measured identically under every discipline.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Accept a packet that arrived at `now`. The scheduler reads whatever
    /// header fields its rank needs through `arena`; `arrival_seq` is the
    /// port's monotone counter.
    fn enqueue(
        &mut self,
        pkt: PacketRef,
        arena: &PacketArena,
        now: SimTime,
        arrival_seq: u64,
        ctx: PortCtx,
    );

    /// Hand over the next packet to serialize, applying any
    /// scheduler-specific header updates through `arena`. `now` is the
    /// instant service starts.
    fn dequeue(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        ctx: PortCtx,
    ) -> Option<QueuedPacket>;

    /// Rank of the packet `dequeue` would return, if meaningful. Ports use
    /// this for preemption decisions; schedulers with no total order (DRR,
    /// Random) return `None` and are never preemptive.
    fn peek_rank(&self) -> Option<i128>;

    /// Number of queued packets.
    fn len(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total queued bytes (drives buffer-occupancy drop decisions).
    fn queued_bytes(&self) -> u64;

    /// Remove and return the packet to sacrifice when the buffer is full.
    /// Contract: the *least urgent* packet — e.g. highest slack for LSTF
    /// (§3) or the newest arrival for FIFO (classic drop-tail).
    fn select_drop(&mut self) -> Option<QueuedPacket>;

    /// Whether the port may interrupt an ongoing transmission when a more
    /// urgent packet arrives (§2.3(5)'s preemptive-LSTF ablation).
    fn is_preemptive(&self) -> bool {
        false
    }

    /// Human-readable discipline name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Shared rank-heap storage: the queue under `sched::rank_queue`, and so
// under Priority, SJF, EDF, LSTF, FQ, FIFO+ and Omniscient.
// ---------------------------------------------------------------------------

/// Explicit binary min-heap of [`QueuedPacket`]s on `(rank, arrival_seq)`
/// with byte accounting; the storage behind most disciplines.
///
/// Hand-rolled (rather than `std::collections::BinaryHeap`) so that
/// [`RankHeap::pop_max`] — the buffer-overflow eviction path — can locate
/// its victim among the leaves and remove it *in place* with one
/// `swap_remove` and a sift, instead of tearing the whole heap into a
/// `Vec` and rebuilding it while the port is congested.
#[derive(Default, Clone)]
pub struct RankHeap {
    v: Vec<QueuedPacket>,
    bytes: u64,
}

impl std::fmt::Debug for RankHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankHeap")
            .field("len", &self.v.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl RankHeap {
    /// Empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a ranked packet. O(log n).
    pub fn push(&mut self, qp: QueuedPacket) {
        self.bytes += qp.size as u64;
        self.v.push(qp);
        self.sift_up(self.v.len() - 1);
    }

    /// Remove the minimum-rank packet. O(log n).
    pub fn pop_min(&mut self) -> Option<QueuedPacket> {
        if self.v.is_empty() {
            return None;
        }
        let last = self.v.len() - 1;
        self.v.swap(0, last);
        let qp = self.v.pop().expect("non-empty"); // lint:allow(panic-path): caller checked non-empty before popping
        self.sift_down(0);
        self.bytes -= qp.size as u64;
        Some(qp)
    }

    /// Rank of the minimum-rank packet.
    pub fn peek_rank(&self) -> Option<i128> {
        self.v.first().map(|qp| qp.rank)
    }

    /// Remove the maximum-rank packet (the least urgent; ties broken
    /// toward the newest arrival). The maximum of a min-heap lives in a
    /// leaf, so this scans only the bottom half and repairs the heap with
    /// a single `swap_remove` + sift — no allocation, no rebuild.
    pub fn pop_max(&mut self) -> Option<QueuedPacket> {
        if self.v.is_empty() {
            return None;
        }
        let first_leaf = self.v.len() / 2;
        let idx = (first_leaf..self.v.len())
            .max_by_key(|&i| self.v[i].key())
            .expect("leaf range non-empty for non-empty heap"); // lint:allow(panic-path): a non-empty d-ary heap has a non-empty leaf range
        let victim = self.v.swap_remove(idx);
        if idx < self.v.len() {
            // The relocated ex-tail element may violate either direction.
            self.sift_down(idx);
            self.sift_up(idx);
        }
        self.bytes -= victim.size as u64;
        Some(victim)
    }

    /// Queued packet count.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Queued bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn sift_up(&mut self, mut i: usize) {
        let mut steps = 0u64;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.v[i].key() < self.v[parent].key() {
                self.v.swap(i, parent);
                i = parent;
                steps += 1;
            } else {
                break;
            }
        }
        ups_obs::count(ups_obs::Counter::RankHeapSiftSteps, steps);
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.v.len();
        let mut steps = 0u64;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let smallest = if r < n && self.v[r].key() < self.v[l].key() {
                r
            } else {
                l
            };
            if self.v[smallest].key() < self.v[i].key() {
                self.v.swap(i, smallest);
                i = smallest;
                steps += 1;
            } else {
                break;
            }
        }
        ups_obs::count(ups_obs::Counter::RankHeapSiftSteps, steps);
    }

    #[cfg(test)]
    fn assert_heap_invariant(&self) {
        for i in 1..self.v.len() {
            let parent = (i - 1) / 2;
            assert!(
                self.v[parent].key() <= self.v[i].key(),
                "heap violated at {i}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp(id: u64, rank: i128, seq: u64) -> QueuedPacket {
        QueuedPacket {
            pkt: test_ref(id),
            rank,
            enqueued_at: SimTime::ZERO,
            arrival_seq: seq,
            size: 100,
        }
    }

    /// Heap tests never dereference refs, so a raw slot id is enough.
    fn test_ref(id: u64) -> PacketRef {
        PacketRef(id as u32)
    }

    fn ids(h: &mut RankHeap) -> Vec<u64> {
        std::iter::from_fn(|| h.pop_min())
            .map(|q| q.pkt.slot() as u64)
            .collect()
    }

    #[test]
    fn pops_by_rank_then_fifo() {
        let mut h = RankHeap::new();
        h.push(qp(1, 5, 0));
        h.push(qp(2, 3, 1));
        h.push(qp(3, 3, 2));
        h.push(qp(4, 9, 3));
        assert_eq!(ids(&mut h), vec![2, 3, 1, 4]);
    }

    #[test]
    fn byte_accounting() {
        let mut h = RankHeap::new();
        h.push(qp(1, 1, 0));
        h.push(qp(2, 2, 1));
        assert_eq!(h.bytes(), 200);
        h.pop_min();
        assert_eq!(h.bytes(), 100);
        h.pop_max();
        assert_eq!(h.bytes(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn pop_max_takes_least_urgent() {
        let mut h = RankHeap::new();
        h.push(qp(1, 5, 0));
        h.push(qp(2, 30, 1));
        h.push(qp(3, 10, 2));
        assert_eq!(h.pop_max().unwrap().pkt.slot(), 2);
        assert_eq!(h.len(), 2);
        // remaining order intact
        assert_eq!(h.pop_min().unwrap().pkt.slot(), 1);
        assert_eq!(h.pop_min().unwrap().pkt.slot(), 3);
    }

    #[test]
    fn pop_max_ties_break_on_newest_arrival() {
        let mut h = RankHeap::new();
        h.push(qp(1, 7, 0));
        h.push(qp(2, 7, 1));
        assert_eq!(h.pop_max().unwrap().pkt.slot(), 2);
    }

    #[test]
    fn pop_max_preserves_heap_under_churn() {
        // Deterministic pseudo-random interleaving of pushes, pop_min and
        // pop_max; the heap invariant must hold throughout and every
        // element must come out exactly once.
        let mut h = RankHeap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = 0u64;
        let mut in_heap = 0i64;
        let mut popped = 0u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let op = state >> 61;
            if op < 5 || in_heap == 0 {
                let rank = ((state >> 16) % 1000) as i128;
                h.push(qp(next, rank, next));
                next += 1;
                in_heap += 1;
            } else if op == 5 {
                assert!(h.pop_min().is_some());
                popped += 1;
                in_heap -= 1;
            } else {
                assert!(h.pop_max().is_some());
                popped += 1;
                in_heap -= 1;
            }
            h.assert_heap_invariant();
        }
        while h.pop_max().is_some() {
            popped += 1;
            h.assert_heap_invariant();
        }
        assert_eq!(popped, next, "every pushed element popped exactly once");
        assert_eq!(h.bytes(), 0);
    }

    #[test]
    fn pop_min_is_globally_sorted() {
        let mut h = RankHeap::new();
        for i in 0..200u64 {
            h.push(qp(i, ((i * 7919) % 101) as i128, i));
        }
        let mut last = (i128::MIN, 0u64);
        while let Some(q) = h.pop_min() {
            assert!((q.rank, q.arrival_seq) > last);
            last = (q.rank, q.arrival_seq);
        }
    }
}
