//! Model `Mutex` and atomics: API-compatible with the [`crate::sync`]
//! shim, but every operation is a scheduling decision.
//!
//! The mutex wraps a `std::sync::Mutex` and only ever calls
//! `try_lock` while holding the scheduler token, so the real lock is
//! never contended — contention is *modeled*: a failed try blocks the
//! thread in the runtime until an unlock makes it runnable, and the
//! waiter re-contends (so unfair handoff interleavings are explored
//! too). Poisoning is inherited from std: a panic while holding the
//! guard poisons the inner mutex during unwind, and later lockers see
//! the same `LockResult` surface production code handles.

use super::with_ctx;
use std::ops::{Deref, DerefMut};
use std::sync::{LockResult, TryLockError};

/// The model's `lock` returns std's `LockResult`, so poisoning is
/// handled by the same type in both backends.
pub use std::sync::PoisonError;

/// A mutex whose lock/unlock are decision points.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Stable within one execution: model state is keyed by address.
    fn key(&self) -> usize {
        self as *const Self as usize
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let key = self.key();
        loop {
            with_ctx(|exec, tid| exec.yield_point(tid));
            match self.inner.try_lock() {
                Ok(g) => {
                    return Ok(MutexGuard {
                        inner: Some(g),
                        key,
                    })
                }
                Err(TryLockError::Poisoned(p)) => {
                    // Acquired, but poisoned — mirror std's lock().
                    return Err(PoisonError::new(MutexGuard {
                        inner: Some(p.into_inner()),
                        key,
                    }));
                }
                Err(TryLockError::WouldBlock) => {
                    with_ctx(|exec, tid| exec.block_on_mutex(tid, key));
                }
            }
        }
    }
}

/// Guard for the model mutex; the unlock on drop is a decision point
/// (after waking blocked contenders).
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    key: usize,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live until drop")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first so a woken waiter's try_lock
        // succeeds, then tell the runtime.
        drop(self.inner.take());
        let key = self.key;
        with_ctx(|exec, tid| exec.mutex_unlocked(tid, key));
    }
}

/// Model atomics. The orderings are std's.
pub mod atomic {
    use super::with_ctx;
    pub use std::sync::atomic::Ordering;

    /// Model `AtomicU64`: operations optionally interleave
    /// ([`crate::Config::preempt_atomics`]). The cell
    /// itself uses the requested ordering on a std atomic; since only
    /// one modeled thread runs at a time and the scheduler handoff is a
    /// mutex (a happens-before edge), `Relaxed` here is as strong as
    /// `SeqCst`.
    #[derive(Debug, Default)]
    pub struct AtomicU64 {
        cell: std::sync::atomic::AtomicU64,
    }

    impl AtomicU64 {
        pub const fn new(v: u64) -> Self {
            AtomicU64 {
                cell: std::sync::atomic::AtomicU64::new(v),
            }
        }

        pub fn load(&self, order: Ordering) -> u64 {
            with_ctx(|exec, tid| exec.atomic_op(tid));
            self.cell.load(order)
        }

        pub fn store(&self, v: u64, order: Ordering) {
            with_ctx(|exec, tid| exec.atomic_op(tid));
            self.cell.store(v, order)
        }

        pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
            with_ctx(|exec, tid| exec.atomic_op(tid));
            self.cell.fetch_add(v, order)
        }

        pub fn fetch_max(&self, v: u64, order: Ordering) -> u64 {
            with_ctx(|exec, tid| exec.atomic_op(tid));
            self.cell.fetch_max(v, order)
        }
    }

    /// Model `AtomicBool`, same contract as [`AtomicU64`].
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        cell: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            AtomicBool {
                cell: std::sync::atomic::AtomicBool::new(v),
            }
        }

        pub fn load(&self, order: Ordering) -> bool {
            with_ctx(|exec, tid| exec.atomic_op(tid));
            self.cell.load(order)
        }

        pub fn store(&self, v: bool, order: Ordering) {
            with_ctx(|exec, tid| exec.atomic_op(tid));
            self.cell.store(v, order)
        }
    }
}
