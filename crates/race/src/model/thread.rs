//! Model threads: spawn/scope/join/park/unpark as scheduling decisions.
//!
//! Spawned closures run on real OS threads, but each waits for the
//! scheduler's token before executing anything, so creation order and
//! OS scheduling never leak into an execution. `park_timeout` ignores
//! the duration — in the model, "the timeout fires" is a scheduling
//! *choice* (budgeted per thread), not a clock event; see the runtime
//! docs for the forced-fire rule that keeps heartbeat loops live.
//!
//! Scoped threads run on the OS threads of a real `std::thread::scope`,
//! which joins them before returning. Those threads only make progress
//! when the model schedules them, so [`scope`] first joins every child
//! the closure left unjoined *in the model*, then lets std's scope
//! return.

use super::{enter_thread, panic_message, with_ctx, AbortMarker};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex, PoisonError};
use std::time::Duration;

/// Nothing to model: the host's answer, as in std.
pub use std::thread::available_parallelism;

/// Where a model thread leaves its closure's result for `join`.
type ResultSlot<T> = Arc<StdMutex<Option<std::thread::Result<T>>>>;

/// Handle to a model thread, mirroring `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    thread: Thread,
    result: ResultSlot<T>,
}

/// Mirror of `std::thread::Thread` — just enough to `unpark`.
#[derive(Debug, Clone)]
pub struct Thread {
    tid: usize,
}

impl Thread {
    pub fn unpark(&self) {
        let target = self.tid;
        with_ctx(|exec, tid| exec.unpark(tid, target));
    }
}

impl<T> JoinHandle<T> {
    pub fn thread(&self) -> &Thread {
        &self.thread
    }

    /// Block until the thread finishes; a panic in its closure comes
    /// back as `Err(payload)`, exactly like `std::thread`.
    pub fn join(self) -> std::thread::Result<T> {
        let target = self.thread.tid;
        with_ctx(|exec, tid| exec.join(tid, target));
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("model thread stored its result before finishing")
    }
}

/// Register a child with the running execution; returns its tid, its
/// result slot and the body its OS thread must run.
fn register<T, F>(f: F) -> (usize, ResultSlot<T>, impl FnOnce() + Send)
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let (exec, child) = with_ctx(|exec, _| (Arc::clone(exec), exec.register_thread()));
    let result: ResultSlot<T> = Arc::new(StdMutex::new(None));
    let slot = Arc::clone(&result);
    let body = move || {
        // enter_thread inside the catch: an abort while waiting for the
        // first grant must still reach exit_thread.
        let r = catch_unwind(AssertUnwindSafe(|| {
            enter_thread(Arc::clone(&exec), child);
            f()
        }));
        let panic = match &r {
            Ok(_) => None,
            Err(p) if p.is::<AbortMarker>() => None,
            Err(p) => Some(panic_message(p.as_ref())),
        };
        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
        exec.exit_thread(child, panic);
    };
    (child, result, body)
}

/// The decision point *after* an OS thread is started lets the explorer
/// run the child before the parent's next operation.
fn started<T>(tid: usize, result: ResultSlot<T>) -> JoinHandle<T> {
    with_ctx(|exec, me| exec.yield_point(me));
    JoinHandle {
        thread: Thread { tid },
        result,
    }
}

fn os_thread(tid: usize) -> std::thread::Builder {
    std::thread::Builder::new().name(format!("ups-race-{tid}"))
}

/// Spawn a model thread.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (tid, result, body) = register(f);
    os_thread(tid)
        .spawn(body)
        .expect("spawn OS thread for model execution");
    started(tid, result)
}

/// Mirror of `std::thread::Scope`: the real scope the children's OS
/// threads run in, plus their tids for the model join in [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    os: &'scope std::thread::Scope<'scope, 'env>,
    children: StdMutex<Vec<usize>>,
}

/// Mirror of `std::thread::ScopedJoinHandle`.
pub struct ScopedJoinHandle<'scope, T> {
    handle: JoinHandle<T>,
    scope: PhantomData<&'scope ()>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// As [`JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<T> {
        self.handle.join()
    }
}

impl<'scope> Scope<'scope, '_> {
    /// Spawn a model thread that may borrow from outside the scope.
    pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let (tid, result, body) = register(f);
        self.children
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(tid);
        os_thread(tid)
            .spawn_scoped(self.os, body)
            .expect("spawn OS thread for model execution");
        ScopedJoinHandle {
            handle: started(tid, result),
            scope: PhantomData,
        }
    }
}

/// Model `std::thread::scope`: every child is joined before it returns,
/// and a child that panicked without being joined panics the caller.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|os| {
        // `f` needs a `&'scope Scope`, which no local outlives; one small
        // leak per call keeps this model-only path free of `unsafe`.
        let scope = &*Box::leak(Box::new(Scope {
            os,
            children: StdMutex::new(Vec::new()),
        }));
        match catch_unwind(AssertUnwindSafe(|| f(scope))) {
            // The execution is over; the children unwind on their own.
            Err(p) if p.is::<AbortMarker>() => resume_unwind(p),
            Err(p) => {
                join_children(scope);
                resume_unwind(p)
            }
            Ok(v) => {
                if join_children(scope) {
                    panic!("a scoped thread panicked");
                }
                v
            }
        }
    })
}

/// Model-join every child of `scope`; true if one had an unjoined panic.
fn join_children(scope: &Scope<'_, '_>) -> bool {
    let children = std::mem::take(
        &mut *scope
            .children
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
    );
    let mut panicked = false;
    for child in children {
        panicked |= with_ctx(|exec, me| exec.join(me, child));
    }
    panicked
}

/// Model `park_timeout`: the duration is ignored; waking by timeout is
/// a budgeted scheduling choice.
pub fn park_timeout(_dur: Duration) {
    with_ctx(|exec, tid| exec.park(tid));
}

/// Model `yield_now`: a plain decision point.
pub fn yield_now() {
    with_ctx(|exec, tid| exec.yield_point(tid));
}
