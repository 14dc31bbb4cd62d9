//! The packet arena: slab storage for every packet in flight.
//!
//! The hot path of the simulator never moves a [`Packet`] after injection.
//! A packet is written into the arena exactly once (at `inject`), every
//! event and every scheduler queue entry carries a 4-byte [`PacketRef`],
//! and the struct leaves the arena exactly once — moved out whole on
//! final-hop delivery (handed to the destination agent) or freed on a
//! buffer drop. Compare the seed architecture, which moved the `Packet`
//! (then ~200 bytes, its path an `Arc` whose refcount every copy touched)
//! by value through the future-event list *and* through every per-port
//! heap on every hop; a slot now holds a 176-byte `Packet` whose path is
//! a `Copy` [`PathId`](crate::path::PathId).
//!
//! Slots are recycled through a free list, so arena memory is bounded by
//! the peak number of in-flight packets, not by the total injected count.
//!
//! Refs are not generation-checked: the simulator's event structure
//! guarantees each `PacketRef` is consumed exactly once (a packet is
//! referenced by exactly one event or one queue entry at any instant).
//! Debug builds catch use-after-free through the `Option` occupancy check.

use crate::packet::Packet;

/// A 4-byte handle to a packet slot owned by a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(pub(crate) u32);

impl PacketRef {
    /// The raw slot index (diagnostics only).
    #[inline]
    pub const fn slot(self) -> u32 {
        self.0
    }
}

/// Slab arena of in-flight packets with slot recycling.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `n` packets before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        PacketArena {
            slots: Vec::with_capacity(n),
            free: Vec::new(),
        }
    }

    /// Move `packet` into the arena, returning its handle.
    #[inline]
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(
                    self.slots[idx as usize].is_none(),
                    "free-list slot occupied"
                );
                self.slots[idx as usize] = Some(packet);
                PacketRef(idx)
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = ">u32::MAX packets in flight exceeds the PacketRef format; fail fast beats a silent wrap"
                )]
                let idx =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX packets in flight");
                self.slots.push(Some(packet));
                PacketRef(idx)
            }
        }
    }

    /// Shared access to a live packet.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a stale ref is a simulator logic bug the generation check must surface loudly"
    )]
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slots[r.0 as usize]
            .as_ref()
            .expect("stale PacketRef: slot already freed")
    }

    /// Exclusive access to a live packet (header rewrites, hop advance).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a stale ref is a simulator logic bug the generation check must surface loudly"
    )]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.slots[r.0 as usize]
            .as_mut()
            .expect("stale PacketRef: slot already freed")
    }

    /// Move the packet out (final delivery), freeing its slot.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        #[expect(
            clippy::expect_used,
            reason = "a stale ref is a simulator logic bug the generation check must surface loudly"
        )]
        let p = self.slots[r.0 as usize]
            .take()
            .expect("stale PacketRef: slot already freed");
        self.free.push(r.0);
        p
    }

    /// Discard the packet (buffer drop), freeing its slot.
    #[inline]
    pub fn free(&mut self, r: PacketRef) {
        let _ = self.take(r);
    }

    /// Every live packet with its handle, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PacketRef, &Packet)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (PacketRef(i as u32), p)))
    }

    /// Number of live packets.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (peak in-flight watermark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{FlowId, NodeId, PacketId};
    use crate::packet::PacketBuilder;
    use crate::path::PathId;
    use crate::time::SimTime;

    fn pkt(id: u64) -> Packet {
        let path = PathId::from(vec![NodeId(0), NodeId(1)]);
        PacketBuilder::new(PacketId(id), FlowId(0), 100, path, SimTime::ZERO).build()
    }

    #[test]
    fn alloc_get_take_roundtrip() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(5));
        assert_eq!(a.get(r).id, PacketId(5));
        a.get_mut(r).hop = 1;
        let p = a.take(r);
        assert_eq!(p.hop, 1);
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut a = PacketArena::new();
        let r0 = a.alloc(pkt(0));
        let r1 = a.alloc(pkt(1));
        assert_eq!(a.capacity(), 2);
        a.free(r0);
        let r2 = a.alloc(pkt(2));
        assert_eq!(r2.slot(), r0.slot(), "freed slot reused");
        assert_eq!(a.capacity(), 2, "no growth while free slots exist");
        assert_eq!(a.live(), 2);
        assert_eq!(a.get(r1).id, PacketId(1));
        assert_eq!(a.get(r2).id, PacketId(2));
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_ref_is_caught() {
        let mut a = PacketArena::new();
        let r = a.alloc(pkt(0));
        a.free(r);
        let _ = a.get(r);
    }

    #[test]
    fn live_tracks_alloc_and_free() {
        let mut a = PacketArena::with_capacity(8);
        let refs: Vec<PacketRef> = (0..5).map(|i| a.alloc(pkt(i))).collect();
        assert_eq!(a.live(), 5);
        for r in refs {
            a.free(r);
        }
        assert_eq!(a.live(), 0);
        assert!(a.is_empty());
    }
}
