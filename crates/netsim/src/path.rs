//! Interned packet paths.
//!
//! In the paper's model `path(p)` is part of the input and never changes
//! while the packet is in flight (§2.1), so a path is plain shared data.
//! A [`PathId`] names one distinct node list: it is `Copy`, 8 bytes, and
//! derefs to `&[NodeId]` without a lock or a refcount, so a packet, its
//! trace record and the flow it came from all carry the same handle.
//!
//! Storage is one process-wide, append-only interner. It is touched only
//! when a path is *made* — by routing, a transport, a reroute splice or a
//! test — never per packet or per hop. Entries are leaked `'static`, so
//! the table is bounded by the number of distinct paths a process builds
//! (a few hundred to a few tens of thousands on this repository's
//! workloads), and a `PathId` stays valid for the life of the process.
//!
//! Equal node lists intern to the same id, so `==` is equal content.
//! `Ord`, `Hash` and `Debug` behave like the node slice. [`PathId::index`]
//! is a dense number that keys per-simulator tables (the egress ports, the
//! spill dictionary); it depends on the order paths were interned across
//! threads, so it must never reach an artifact, an ordering or a
//! tie-break.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::id::NodeId;

/// One interned node list and its dense index.
struct Entry {
    index: usize,
    nodes: Box<[NodeId]>,
}

/// Every interned path by content. Interning holds the lock for one
/// lookup (and, on first sight, one insert); nothing reads it afterwards.
static TABLE: Mutex<BTreeMap<&'static [NodeId], PathId>> = Mutex::new(BTreeMap::new());

/// An interned node path `src ..= dst` (see the [module docs](self)).
#[derive(Clone, Copy)]
pub struct PathId(&'static Entry);

impl PathId {
    /// The id of `nodes`, interning it on first sight.
    pub fn intern(nodes: &[NodeId]) -> PathId {
        // The table only ever gains complete entries, so a panic in
        // another thread cannot leave it half-updated.
        let mut table = TABLE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&id) = table.get(nodes) {
            return id;
        }
        let entry: &'static Entry = Box::leak(Box::new(Entry {
            index: table.len(),
            nodes: nodes.into(),
        }));
        table.insert(&entry.nodes, PathId(entry));
        PathId(entry)
    }

    /// A dense number for this path, unique among interned paths: index a
    /// `Vec` with it. It reflects interning order across every thread of
    /// the process, so it never orders, breaks a tie or is written out.
    #[inline]
    pub fn index(self) -> usize {
        self.0.index
    }
}

impl Deref for PathId {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        &self.0.nodes
    }
}

impl PartialEq for PathId {
    /// Equal content interns to one entry, so identity is equality.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for PathId {}

impl Ord for PathId {
    /// The node slices' lexicographic order.
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        self.0.nodes.cmp(&other.0.nodes)
    }
}

impl PartialOrd for PathId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for PathId {
    /// Hashes the node slice, never the index.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.nodes.hash(state);
    }
}

impl fmt::Debug for PathId {
    /// Formats as the node slice.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.nodes[..], f)
    }
}

impl From<Vec<NodeId>> for PathId {
    fn from(nodes: Vec<NodeId>) -> Self {
        PathId::intern(&nodes)
    }
}

impl From<Arc<[NodeId]>> for PathId {
    fn from(nodes: Arc<[NodeId]>) -> Self {
        PathId::intern(&nodes)
    }
}

impl FromIterator<NodeId> for PathId {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        PathId::intern(&iter.into_iter().collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::sync::Barrier;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn is_eight_bytes_and_copy() {
        assert_eq!(std::mem::size_of::<PathId>(), 8);
        assert_eq!(std::mem::size_of::<Option<PathId>>(), 8);
        let a = PathId::from(nodes(&[3, 1, 4]));
        let b = a;
        assert_eq!(a, b);
        assert_eq!(&*a, &nodes(&[3, 1, 4])[..]);
    }

    #[test]
    fn equal_content_is_one_id_from_every_constructor() {
        let list = nodes(&[9_001, 9_002, 9_003]);
        let arc: Arc<[NodeId]> = list.clone().into();
        let ids = [
            PathId::intern(&list),
            PathId::from(list.clone()),
            PathId::from(arc),
            list.iter().copied().collect(),
        ];
        assert!(ids.iter().all(|&id| id == ids[0]));
        assert!(ids.iter().all(|id| id.index() == ids[0].index()));
        assert_ne!(ids[0], PathId::from(nodes(&[9_001, 9_003])));
    }

    #[test]
    fn eq_ord_hash_and_debug_match_the_node_slice() {
        let lists = [
            nodes(&[40_001, 40_002]),
            nodes(&[40_001, 40_002, 40_003]),
            nodes(&[40_001, 40_003]),
            nodes(&[40_000, 40_007, 40_007, 40_002]),
            nodes(&[40_002]),
        ];
        // Interned in reverse, so index order is not content order:
        // nothing below may follow the index.
        let ids: Vec<PathId> = lists.iter().rev().map(|l| PathId::intern(l)).collect();
        let ids: Vec<PathId> = ids.into_iter().rev().collect();
        assert!(ids.windows(2).all(|w| w[0].index() > w[1].index()));
        for (a, la) in ids.iter().zip(&lists) {
            assert_eq!(format!("{a:?}"), format!("{la:?}"));
            assert_eq!(format!("{a:#?}"), format!("{la:#?}"));
            assert_eq!(hash_of(a), hash_of(&la[..]));
            for (b, lb) in ids.iter().zip(&lists) {
                assert_eq!(a == b, la == lb, "{la:?} vs {lb:?}");
                assert_eq!(a.cmp(b), la.cmp(lb), "{la:?} vs {lb:?}");
                assert_eq!(a.partial_cmp(b), la.partial_cmp(lb));
            }
        }
        let mut sorted = ids.clone();
        sorted.sort();
        let mut want = lists.to_vec();
        want.sort();
        assert_eq!(sorted.iter().map(|p| p.to_vec()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn threads_interning_overlapping_sets_agree() {
        const THREADS: usize = 4;
        const PATHS: u32 = 300;
        // Path `k`: a content no other test builds, shared by every thread.
        let content = |k: u32| nodes(&[70_000 + k, 70_000 + k % 7, 71_000 + k]);
        let barrier = Barrier::new(THREADS);
        let per_thread: Vec<Vec<(u32, PathId)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        // Each thread walks the set in its own order and
                        // skips a different fifth of it.
                        let mut order: Vec<u32> =
                            (0..PATHS).filter(|k| k % 5 != t as u32).collect();
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        order.rotate_left(t * PATHS as usize / THREADS);
                        barrier.wait();
                        order
                            .into_iter()
                            .map(|k| (k, PathId::intern(&content(k))))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("an interning thread panicked"))
                .collect()
        });
        let mut by_content: BTreeMap<u32, PathId> = BTreeMap::new();
        for (k, id) in per_thread.into_iter().flatten() {
            assert_eq!(&*id, &content(k)[..], "id derefs to its content");
            assert_eq!(*by_content.entry(k).or_insert(id), id, "one id per content");
        }
        assert_eq!(by_content.len(), PATHS as usize);
        // Indexes are unique, and dense: every index below the table's
        // length names exactly one interned path.
        let mut indexes: Vec<usize> = by_content.values().map(|id| id.index()).collect();
        indexes.sort_unstable();
        indexes.dedup();
        assert_eq!(indexes.len(), PATHS as usize);
        let table = TABLE.lock().expect("no test panics holding the table");
        let mut all: Vec<usize> = table.values().map(|id| id.index()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..table.len()).collect::<Vec<_>>());
        for (nodes, id) in table.iter() {
            assert_eq!(*nodes, &**id);
        }
    }
}
