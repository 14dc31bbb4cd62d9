//! The discrete-event core: event types and the future-event list.
//!
//! Determinism contract: events are ordered by `(time, push sequence)`, so
//! two events scheduled for the same instant fire in the order they were
//! scheduled. Nothing in the simulator ever depends on bucket-internal
//! ordering, hash iteration order, or wall-clock time.
//!
//! ## Structure
//!
//! The future-event list is an **epoch-aligned two-level timing wheel**
//! with a heap behind it:
//!
//! * **level 0** is `2^12` buckets of `2^17` ps (131 ns) covering the
//!   current *epoch* (`2^29` ps, 0.54 ms). A bucket is an unsorted chain
//!   of nodes in one slab shared by every slot, whose freed nodes are
//!   reused first, so level-0 storage is bounded by the most level-0
//!   events ever pending at once. A chain is copied out and sorted by
//!   `(time, seq)` once, when the cursor reaches it. At 131 ns a bucket
//!   holds a handful of events, mostly pushed in time order already, so
//!   that sort is a short insertion sort;
//! * **level 1** is `2^12` unsorted buckets, one per epoch, covering the
//!   current *era* (`2^41` ps, 2.2 s). When the cursor crosses into an
//!   epoch, that epoch's bucket is scattered into level 0 and its storage
//!   is released;
//! * the **far tier** is a binary heap for events beyond the current era
//!   (long retransmission timers); an era's events move to level 1 when
//!   the cursor enters it.
//!
//! Both levels are aligned to their span, not sliding: the slot of a
//! time is a bit field of it, the tier of a push is the highest bit in
//! which its bucket number differs from the cursor's, and an occupancy
//! scan runs from the cursor to the end of the level and never wraps.
//! A push is O(1) at any distance short of the far tier.
//!
//! The bucket under the cursor lives outside the wheel (`drain`, sorted
//! and consumed front to back); a push that lands in it while it drains
//! goes to a small side heap (`late`), and a pop takes the earlier of the
//! two heads.
//! A same-instant push carries the largest sequence number so far, so it
//! pops after every equal-time entry already pending: push order.
//!
//! The earliest pending time is cached (`head`): a push lowers it, a pop
//! re-derives it from the two heads or, when both ran dry, from the first
//! entry of the next occupied bucket — every wheel bucket keeps an entry
//! of minimum time first — so [`EventQueue::peek_time`] is O(1).
//!
//! Events themselves are small: packets are carried as 4-byte
//! [`PacketRef`]s into the simulator's arena, not by value.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::arena::PacketRef;
use crate::id::{AgentId, NodeId, PortId};
use crate::time::SimTime;

/// A simulation event. Small and `Copy`: packets are referenced, not
/// embedded.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet enters the network at its source node (the paper's `i(p)`).
    Inject(PacketRef),
    /// The last bit of a packet arrives at `node` (store-and-forward: a
    /// router may only act on a packet once it holds all of it).
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// The packet, with `hop` already advanced to `node`.
        pkt: PacketRef,
    },
    /// The output port finished serializing its current packet. `token`
    /// guards against stale wakeups after a preemption rescheduled the
    /// port.
    PortReady {
        /// Node owning the port.
        node: NodeId,
        /// Which port.
        port: PortId,
        /// Transmission generation; stale tokens are ignored.
        token: u64,
    },
    /// An agent timer (transport retransmission timers, app pacing, ...).
    Timer {
        /// The agent whose `on_timer` fires.
        agent: AgentId,
        /// Caller-chosen discriminator.
        key: u64,
    },
    /// A bidirectional link between `a` and `b` goes down (`up: false`)
    /// or comes back up (`up: true`) at this instant — the network
    /// dynamics subsystem's churn events. State changes take effect in
    /// the event list's usual `(time, seq)` order, so a link event
    /// and a packet event at the same instant resolve deterministically.
    LinkState {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// New state for both direction ports.
        up: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }

    /// Absolute level-0 bucket number of this entry's time.
    #[inline]
    fn bucket(&self) -> u64 {
        self.time.as_ps() >> L0_SHIFT
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse so the earliest
        // (time, seq) pops first.
        other.key().cmp(&self.key())
    }
}

/// log2 of the level-0 bucket width in picoseconds (131 ns).
const L0_SHIFT: u32 = 17;
/// log2 of the slot count of each level (4096: a 0.54 ms epoch of
/// level-0 buckets, a 2.2 s era of epochs).
const LEVEL_BITS: u32 = 12;
const SLOTS: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const _: () = assert!(SLOTS == 64 * 64, "one summary word covers 64 words");

/// Level-0 slot of absolute bucket number `bucket`.
#[inline]
fn l0_slot(bucket: u64) -> usize {
    (bucket & SLOT_MASK) as usize
}

/// Level-1 slot (epoch within its era) of absolute bucket number `bucket`.
#[inline]
fn l1_slot(bucket: u64) -> usize {
    ((bucket >> LEVEL_BITS) & SLOT_MASK) as usize
}

/// Which slots of a wheel level are occupied: a bit per slot under a
/// one-word summary (a bit per bitmap word), so the next occupied slot is
/// two `trailing_zeros` away.
struct Occupancy {
    words: [u64; 64],
    summary: u64,
}

impl Occupancy {
    fn new() -> Self {
        Occupancy {
            words: [0; 64],
            summary: 0,
        }
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        let word = slot >> 6;
        self.words[word] |= 1 << (slot & 63);
        self.summary |= 1 << word;
    }

    fn clear(&mut self, slot: usize) {
        let word = slot >> 6;
        self.words[word] &= !(1 << (slot & 63));
        if self.words[word] == 0 {
            self.summary &= !(1 << word);
        }
    }

    /// The first occupied slot at or after `from` (`from` may be `SLOTS`).
    #[inline]
    fn first_from(&self, from: usize) -> Option<usize> {
        let word = from >> 6;
        let here = self.words.get(word)? & (!0 << (from & 63));
        if here != 0 {
            return Some((word << 6) | here.trailing_zeros() as usize);
        }
        // Words strictly after `word`; two shifts because word + 1 may be 64.
        let later = self.summary & ((!0 << word) << 1);
        if later == 0 {
            return None;
        }
        let word = later.trailing_zeros() as usize;
        Some((word << 6) | self.words[word].trailing_zeros() as usize)
    }
}

/// A level-0 entry in the slab, and the next node of its chain.
#[derive(Clone, Copy)]
struct Node {
    entry: Entry,
    next: u32,
}

/// The end of a chain.
const NIL: u32 = u32::MAX;

// Every pending event is one of these: a new `Event` variant that grows
// them grows every simulator's event footprint.
const _: () = assert!(std::mem::size_of::<Entry>() == 40);
const _: () = assert!(std::mem::size_of::<Node>() == 48);

/// Level 0: a chain per slot through one slab of nodes. A chain keeps an
/// entry of minimum time at its head; the rest is unordered. Taken nodes
/// go on a LIFO free list and are reused before the slab grows, so the
/// slab is as long as the most level-0 entries ever pending at once.
struct Chains {
    /// First node of each slot's chain, or `NIL`.
    heads: Box<[u32]>,
    nodes: Vec<Node>,
    /// Indexes of the free nodes. A stack rather than a list threaded
    /// through `next`: taking a node then reads no cold node, which
    /// saves a cache miss per insert when an epoch's events are scattered.
    free: Vec<u32>,
    occupied: Occupancy,
}

impl Chains {
    fn new() -> Self {
        Chains {
            heads: vec![NIL; SLOTS].into_boxed_slice(),
            nodes: Vec::new(),
            free: Vec::new(),
            occupied: Occupancy::new(),
        }
    }

    /// A node holding `entry` and `next`: the last freed one, or a new one.
    #[inline]
    fn alloc(&mut self, entry: Entry, next: u32) -> u32 {
        let node = Node { entry, next };
        if let Some(n) = self.free.pop() {
            self.nodes[n as usize] = node;
            return n;
        }
        let n = self.nodes.len();
        assert!(n < NIL as usize, "level-0 slab full");
        self.nodes.push(node);
        n as u32
    }

    /// File `entry` under `slot`: as the chain's head if it is earlier
    /// than the head (or the chain is empty), else right after the head.
    #[inline]
    fn insert(&mut self, slot: usize, entry: Entry) {
        let head = self.heads[slot];
        match self.nodes.get(head as usize) {
            Some(min) if min.entry.time <= entry.time => {
                let n = self.alloc(entry, min.next);
                self.nodes[head as usize].next = n;
            }
            _ => {
                self.heads[slot] = self.alloc(entry, head);
                self.occupied.mark(slot);
            }
        }
    }

    /// Earliest time in occupied slot `slot`.
    fn min_time(&self, slot: usize) -> SimTime {
        let head = self.heads[slot] as usize;
        self.nodes.get(head).map_or(SimTime::MAX, |n| n.entry.time)
    }

    /// Copy occupied slot `slot`'s entries into the empty `into` and free
    /// its nodes.
    fn take(&mut self, slot: usize, into: &mut Vec<Entry>) {
        debug_assert!(into.is_empty());
        let head = std::mem::replace(&mut self.heads[slot], NIL);
        self.occupied.clear(slot);
        let mut n = head;
        while let Some(node) = self.nodes.get(n as usize) {
            into.push(node.entry);
            self.free.push(n);
            n = node.next;
        }
        // Each insert after the head went right after it, so the rest of
        // the chain is in about reverse push order: turned back, it is
        // close to time order and the caller's sort has little to do.
        if let Some(rest) = into.get_mut(1..) {
            rest.reverse();
        }
    }
}

/// Level 1: a bucket per slot, unsorted except that an occupied bucket
/// keeps an entry of minimum time at index 0. A bucket fills during one
/// era and is released whole when its epoch opens, so it keeps no
/// storage between eras.
struct Buckets {
    buckets: Vec<Vec<Entry>>,
    occupied: Occupancy,
}

impl Buckets {
    fn new() -> Self {
        Buckets {
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: Occupancy::new(),
        }
    }

    #[inline]
    fn insert(&mut self, slot: usize, e: Entry) {
        let bucket = &mut self.buckets[slot];
        let earliest = bucket.first().is_some_and(|min| e.time < min.time);
        bucket.push(e);
        if earliest {
            let last = bucket.len() - 1;
            bucket.swap(0, last);
        }
        self.occupied.mark(slot);
    }

    /// Earliest time in occupied slot `slot`.
    fn min_time(&self, slot: usize) -> SimTime {
        self.buckets[slot].first().map_or(SimTime::MAX, |e| e.time)
    }

    /// Slot `slot`'s entries, storage and all.
    fn release(&mut self, slot: usize) -> Vec<Entry> {
        self.occupied.clear(slot);
        std::mem::take(&mut self.buckets[slot])
    }
}

/// Future-event list with deterministic same-time ordering.
pub struct EventQueue {
    /// The current epoch, one bucket per 131 ns.
    l0: Chains,
    /// The current era, one bucket per epoch after the current one.
    l1: Buckets,
    /// Events beyond the current era, earliest first.
    far: BinaryHeap<Entry>,
    /// The bucket under the cursor, taken out of level 0 and sorted by
    /// `(time, seq)`; `drain[drained..]` is still pending.
    drain: Vec<Entry>,
    drained: usize,
    /// Pushes that landed in the cursor's bucket since, earliest first.
    late: BinaryHeap<Entry>,
    /// Absolute level-0 bucket number under the cursor; after any pop,
    /// the bucket of `now`. Its level-0 slot and its epoch's level-1 slot
    /// are always empty.
    cursor: u64,
    /// Earliest pending time; `SimTime::MAX` while the queue is empty.
    head: SimTime,
    next_seq: u64,
    now: SimTime,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            l0: Chains::new(),
            l1: Buckets::new(),
            far: BinaryHeap::new(),
            drain: Vec::new(),
            drained: 0,
            late: BinaryHeap::new(),
            cursor: 0,
            head: SimTime::MAX,
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event
    /// (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// If `at` is in the past — the simulator never time-travels; a panic
    /// here always indicates a logic bug in a component, so failing loudly
    /// beats silently reordering history.
    // Always inlined so the caller builds the entry in place: out of line,
    // the event is stored field by field and reloaded 16 bytes at a time,
    // a store-forwarding stall on every call (~5 ns of a ~30 ns push+pop).
    #[inline(always)]
    pub fn push(&mut self, at: SimTime, event: Event) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let e = Entry {
            time: at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        self.head = self.head.min(at);
        self.len += 1;
        // The highest bit in which the bucket numbers differ names the
        // tier: none — the bucket being drained; within the low
        // LEVEL_BITS — this epoch; within the next LEVEL_BITS — this era.
        let bucket = e.bucket();
        debug_assert!(bucket >= self.cursor, "push behind the cursor");
        let differs = bucket ^ self.cursor;
        if differs == 0 {
            self.late.push(e);
        } else if differs >> LEVEL_BITS == 0 {
            self.l0.insert(l0_slot(bucket), e);
        } else if differs >> (2 * LEVEL_BITS) == 0 {
            self.l1.insert(l1_slot(bucket), e);
        } else {
            self.far.push(e);
        }
    }

    /// Move the cursor to the next occupied level-0 bucket and make it
    /// `drain`. Precondition: `drain` is used up, `late` is empty and
    /// `len > 0`.
    fn advance(&mut self) {
        let mut from = l0_slot(self.cursor) + 1;
        let slot = loop {
            if let Some(slot) = self.l0.occupied.first_from(from) {
                break slot;
            }
            self.open_next_epoch();
            from = 0;
        };
        self.drain.clear();
        self.drained = 0;
        self.l0.take(slot, &mut self.drain);
        self.cursor = (self.cursor & !SLOT_MASK) | slot as u64;
        self.drain.sort_unstable_by_key(Entry::key);
    }

    /// Level 0 ran dry: put the cursor on the first bucket of the next
    /// occupied epoch and scatter that epoch's level-1 bucket into level 0.
    fn open_next_epoch(&mut self) {
        let mut from = l1_slot(self.cursor) + 1;
        let slot = loop {
            if let Some(slot) = self.l1.occupied.first_from(from) {
                break slot;
            }
            self.open_next_era();
            from = 0;
        };
        let era = self.cursor >> (2 * LEVEL_BITS);
        self.cursor = ((era << LEVEL_BITS) | slot as u64) << LEVEL_BITS;
        for e in self.l1.release(slot) {
            self.l0.insert(l0_slot(e.bucket()), e);
        }
    }

    /// Level 1 ran dry too: put the cursor on the first bucket of the far
    /// tier's earliest era and file that era's events under level 1.
    fn open_next_era(&mut self) {
        let era_of = |e: &Entry| e.bucket() >> (2 * LEVEL_BITS);
        let Some(era) = self.far.peek().map(era_of) else {
            unreachable!("advance() called on an empty queue")
        };
        self.cursor = era << (2 * LEVEL_BITS);
        while let Some(e) = self.far.peek().copied().filter(|e| era_of(e) == era) {
            self.far.pop();
            self.l1.insert(l1_slot(e.bucket()), e);
        }
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.len == 0 {
            return None;
        }
        if self.drained == self.drain.len() && self.late.is_empty() {
            self.advance();
        }
        let e = match (self.drain.get(self.drained), self.late.peek()) {
            (Some(d), Some(l)) if l.key() < d.key() => self.late.pop(),
            (Some(&d), _) => {
                self.drained += 1;
                Some(d)
            }
            (None, _) => self.late.pop(),
        }
        .expect("the cursor's bucket is non-empty"); // lint:allow(panic-path): advance() only stops on an occupied bucket, and len > 0 guarantees one
        self.len -= 1;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.head = match (self.drain.get(self.drained), self.late.peek()) {
            (Some(d), Some(l)) => d.time.min(l.time),
            (Some(next), None) | (None, Some(next)) => next.time,
            (None, None) => self.next_bucket_time(),
        };
        Some((e.time, e.event))
    }

    /// Earliest time beyond the cursor's bucket: the first entry of the
    /// bucket `advance` would stop on.
    fn next_bucket_time(&self) -> SimTime {
        if let Some(slot) = self.l0.occupied.first_from(l0_slot(self.cursor) + 1) {
            return self.l0.min_time(slot);
        }
        if let Some(slot) = self.l1.occupied.first_from(l1_slot(self.cursor) + 1) {
            return self.l1.min_time(slot);
        }
        self.far.peek().map_or(SimTime::MAX, |e| e.time)
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then_some(self.head)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn timer(key: u64) -> Event {
        Event::Timer {
            agent: AgentId(0),
            key,
        }
    }

    fn key_of(e: &Event) -> u64 {
        match e {
            Event::Timer { key, .. } => *key,
            _ => panic!("expected timer"),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(5), timer(5));
        q.push(SimTime::from_us(1), timer(1));
        q.push(SimTime::from_us(3), timer(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn same_time_events_fire_in_push_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        for k in 0..100 {
            q.push(t, timer(k));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ms(2), timer(0));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(2)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ms(2));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(10), timer(0));
        q.pop();
        q.push(SimTime::from_us(5), timer(1));
    }

    #[test]
    fn same_instant_push_during_drain_preserves_push_order() {
        // Fill one instant, pop half, push more at the *same* instant
        // (the mid-drain side-heap path), and verify global
        // (time, seq) order end to end.
        let mut q = EventQueue::new();
        let t = SimTime::from_us(3);
        for k in 0..10 {
            q.push(t, timer(k));
        }
        let mut order = Vec::new();
        for _ in 0..5 {
            order.push(key_of(&q.pop().unwrap().1));
        }
        for k in 10..15 {
            q.push(t, timer(k));
        }
        q.push(t + Dur::from_ns(1), timer(99));
        while let Some((_, e)) = q.pop() {
            order.push(key_of(&e));
        }
        assert_eq!(order, (0..15).chain([99]).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_route_through_the_upper_tiers() {
        // Level 1 (later epochs of this era) and the far heap (later
        // eras): retransmission-timer territory.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(7), timer(5));
        q.push(SimTime::from_ms(100), timer(2));
        q.push(SimTime::from_us(1), timer(0));
        q.push(SimTime::from_ms(50), timer(1));
        q.push(SimTime::from_secs(3), timer(4));
        q.push(SimTime::from_secs(2), timer(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn epoch_and_era_boundaries_keep_order_and_head() {
        // One event on each side of the first epoch boundary (2^29 ps) and
        // of the first era boundary (2^41 ps), pushed latest first, with
        // a same-instant pair straddling nothing: order, ties and the
        // cached head must all survive the hand-offs.
        let epoch = 1u64 << (L0_SHIFT + LEVEL_BITS);
        let era = epoch << LEVEL_BITS;
        let times = [era, era - 1, epoch, epoch, epoch - 1, 0];
        let mut q = EventQueue::new();
        for (k, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), timer(k as u64));
        }
        let mut popped = Vec::new();
        while let Some(head) = q.peek_time() {
            let (t, e) = q.pop().unwrap();
            assert_eq!(t, head, "peek_time names the next pop");
            popped.push((t.as_ps(), key_of(&e)));
        }
        assert_eq!(
            popped,
            vec![
                (0, 5),
                (epoch - 1, 4),
                (epoch, 2),
                (epoch, 3),
                (era - 1, 1),
                (era, 0)
            ]
        );
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        // Mimics the event loop: every popped event schedules new ones a
        // little into the future; ordering and the clock must never
        // regress.
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, timer(0));
        let mut popped = 0u64;
        let mut last = (SimTime::ZERO, 0u64);
        let mut next_key = 1u64;
        while let Some((t, e)) = q.pop() {
            let k = key_of(&e);
            assert!(t >= last.0, "time regressed");
            last = (t, k);
            popped += 1;
            if popped < 5_000 {
                // Fan out: one near event, one far, one same-instant.
                q.push(t + Dur::from_ns(1_700), timer(next_key));
                next_key += 1;
                if popped.is_multiple_of(7) {
                    q.push(t + Dur::from_ms(20), timer(next_key));
                    next_key += 1;
                }
                if popped.is_multiple_of(11) {
                    q.push(t, timer(next_key));
                    next_key += 1;
                }
            }
        }
        assert!(popped >= 5_000);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn matches_reference_heap_on_dense_workload() {
        // Differential test against a plain sorted reference over a
        // deterministic pseudo-random schedule mixing tiers.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, key)
        let mut state = 12345u64;
        let mut now = 0u64;
        let mut key = 0u64;
        let mut popped = Vec::new();
        for round in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let choice = state >> 62;
            if choice < 3 {
                // Push at now + jitter (ns to tens of ms).
                let exp = (state >> 40) % 43; // deltas up to ~4.4 s: every tier
                let delta = (state >> 8) % (1u64 << exp.max(1));
                let t = now + delta;
                q.push(SimTime::from_ps(t), timer(key));
                reference.push((t, key));
                key += 1;
            } else if let Some((t, e)) = q.pop() {
                now = t.as_ps();
                popped.push((t.as_ps(), key_of(&e)));
            }
            let _ = round;
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t.as_ps(), key_of(&e)));
        }
        // Reference order: (time, push order). Keys were assigned in push
        // order, so a stable sort by time alone reproduces it.
        reference.sort_by_key(|&(t, _)| t);
        assert_eq!(popped.len(), reference.len());
        assert_eq!(popped, reference);
    }

    #[test]
    fn level_zero_storage_follows_pending_events_not_past_bursts() {
        // A 1,000-event burst into a different level-0 bucket in each of
        // 24 epochs, with a trickle across every epoch. Per-slot buffers
        // that keep their capacity would end up holding about
        // epochs × burst entries; the slab holds at most what was
        // pending at once.
        const BURST: u64 = 1_000;
        let bucket = 1u64 << L0_SHIFT;
        let epoch = bucket << LEVEL_BITS;
        let mut q = EventQueue::new();
        let (mut peak, mut popped) = (0, 0);
        for e in 0..24u64 {
            let start = e * epoch;
            let burst = start + (e * 131 + 7) % SLOTS as u64 * bucket;
            for k in 0..BURST {
                q.push(SimTime::from_ps(burst + k % bucket), timer(k));
            }
            for k in 0..64 {
                q.push(SimTime::from_ps(start + (k * 64 + 32) * bucket), timer(k));
            }
            peak = peak.max(q.len());
            while q.pop().is_some() {
                popped += 1;
            }
        }
        assert_eq!(popped, 24 * (BURST as usize + 64));
        assert!(
            q.l0.nodes.len() <= peak,
            "slab of {} nodes for at most {peak} pending events",
            q.l0.nodes.len()
        );
    }

    #[test]
    fn every_slab_node_is_free_once_the_queue_drains() {
        let mut q = EventQueue::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in 0..30_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 62 == 0 {
                q.pop();
            } else {
                // Up to ~34 ms ahead: the drained bucket, level 0 and
                // level 1, with epoch hand-offs refilling level 0.
                let delta = (state >> 8) % (1u64 << ((state >> 40) % 36));
                q.push(q.now() + Dur::from_ps(delta), timer(k));
            }
        }
        while q.pop().is_some() {}
        let mut free = q.l0.free.clone();
        free.sort_unstable();
        let every: Vec<u32> = (0..q.l0.nodes.len() as u32).collect();
        assert!(every.len() > 1_000, "the run must fill the slab");
        assert_eq!(free, every, "each node must be free exactly once");
        assert!(q.l0.heads.iter().all(|&h| h == NIL));
    }
}
