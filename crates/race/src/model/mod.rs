//! The model runtime: a controlled scheduler that owns every context
//! switch of an execution-under-test.
//!
//! Modeled code runs on real OS threads, but only **one modeled thread
//! executes at a time**: each holds a token granted by the runtime, and
//! every operation on a model primitive ([`sync::Mutex`],
//! [`sync::atomic`], [`thread::spawn`], [`thread::scope`], join) first
//! reaches a *decision point* where the scheduler picks which thread
//! performs the next operation. Between decision points a thread runs
//! ordinary sequential Rust, so an execution is a pure function of the
//! decision sequence — which is what makes schedules recordable,
//! replayable and enumerable.
//!
//! Blocking is modeled, not real: a thread that would block (contended
//! lock, join on a live thread) waits in the runtime and the scheduler
//! must pick someone else. If no thread can run while some are still
//! unfinished, that is a **deadlock** and the execution fails with its
//! schedule attached.
//!
//! Aborting an execution (deadlock found, budget exceeded) unwinds the
//! running thread with `AbortMarker` while it holds the scheduler
//! lock, so every runtime lock is poison-tolerant by construction and
//! the recorded state stays readable afterwards.
//!
//! Memory model fidelity: operations interleave at decision-point
//! granularity; weak-memory reordering is *not* simulated (see the
//! crate docs for why that is the honest trade for this workspace).

pub mod sync;
pub mod thread;

use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

use crate::explore::Config;

/// Marker payload used to unwind modeled threads when an execution
/// aborts (deadlock found, budget exceeded). Filtered by the panic
/// hook, never reported as a thread panic.
pub(crate) struct AbortMarker;

/// How the scheduler resolves decision points.
pub(crate) enum Script {
    /// Follow these choices, then fall back to the default policy
    /// (keep running the current thread; else lowest-tid candidate).
    Fixed(Vec<usize>),
    /// Seeded uniform choice among the candidates.
    Random(SplitMix64),
}

/// One scheduling decision, as recorded for the explorer.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    /// Schedulable candidates (sorted by tid) at this point.
    pub enabled: Vec<usize>,
    /// The tid that was granted the next operation.
    pub chosen: usize,
    /// The thread that hit the decision point.
    pub current: usize,
    /// Whether `current` could simply have continued (if so, choosing
    /// another candidate is a *preemption*). False at blocking
    /// decisions — switching away from a blocked thread is forced and
    /// free.
    pub current_enabled: bool,
    /// Preemptions already spent strictly before this decision.
    pub preemptions_before: usize,
}

/// Everything the explorer learns from one finished execution.
pub(crate) struct RunResult {
    /// Chosen tid at every decision point, in order.
    pub schedule: Vec<usize>,
    /// Full decision records (same length as `schedule`).
    pub decisions: Vec<Decision>,
    /// The first failure, if the execution failed.
    pub failure: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TState {
    Runnable,
    /// Blocked on the mutex whose stable in-execution key this is.
    BlockedMutex(usize),
    /// Blocked joining this tid.
    BlockedJoin(usize),
    Finished,
}

struct Slot {
    state: TState,
    /// Panic message if the thread's closure panicked.
    panic: Option<String>,
    /// Whether a `join` consumed that panic (it becomes the joiner's
    /// problem, exactly as with `std::thread`).
    panic_consumed: bool,
}

struct ExecState {
    threads: Vec<Slot>,
    /// Which tid currently holds the run token (`None` once everything
    /// finished).
    running: Option<usize>,
    aborted: bool,
    failure: Option<String>,
    schedule: Vec<usize>,
    decisions: Vec<Decision>,
    script: Script,
    script_pos: usize,
    preemptions: usize,
    /// [`Config::max_steps`].
    max_steps: usize,
    /// [`Config::preempt_atomics`].
    preempt_atomics: bool,
}

/// One execution's shared runtime. Modeled threads hold an `Arc` to it
/// through their thread-local context.
pub(crate) struct Exec {
    state: StdMutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

/// Run `op` with the calling thread's execution context, or panic with
/// a usable message — model primitives only work under [`Exec::run`].
pub(crate) fn with_ctx<R>(op: impl FnOnce(&Arc<Exec>, usize) -> R) -> R {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (exec, tid) = b
            .as_ref()
            .expect("ups-race model primitive used outside explore()/replay()");
        op(exec, *tid)
    })
}

/// Ensure the process panic hook swallows [`AbortMarker`] unwinds
/// (they are control flow, not failures) and defers everything else to
/// the previously installed hook.
fn install_abort_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortMarker>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// Render a panic payload the way the sweep pool does.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

impl Exec {
    /// Run `f` as the root modeled thread (tid 0) under `script`,
    /// driving every spawned thread to completion, and report the
    /// recorded schedule plus any failure.
    pub(crate) fn run(cfg: &Config, script: Script, f: &(dyn Fn() + Sync)) -> RunResult {
        install_abort_filter();
        let exec = Arc::new(Exec {
            state: StdMutex::new(ExecState {
                threads: Vec::new(),
                running: Some(0),
                aborted: false,
                failure: None,
                schedule: Vec::new(),
                decisions: Vec::new(),
                script,
                script_pos: 0,
                preemptions: 0,
                max_steps: cfg.max_steps,
                preempt_atomics: cfg.preempt_atomics,
            }),
            cv: Condvar::new(),
        });
        let root = exec.register_thread();
        debug_assert_eq!(root, 0);
        std::thread::scope(|s| {
            let exec_for_root = Arc::clone(&exec);
            let h = s.spawn(move || {
                // enter_thread sits inside the catch: an abort while
                // waiting for the first grant must still unwind into
                // exit_thread, or the harness would hang.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    enter_thread(Arc::clone(&exec_for_root), 0);
                    f()
                }));
                let panic = match &r {
                    Ok(()) => None,
                    Err(p) if p.downcast_ref::<AbortMarker>().is_some() => None,
                    Err(p) => Some(panic_message(p.as_ref())),
                };
                exec_for_root.exit_thread(0, panic);
            });
            exec.wait_all_finished();
            h.join().expect("root wrapper catches all panics");
        });
        let st = exec.lock_state();
        let mut failure = st.failure.clone();
        if failure.is_none() {
            for (tid, slot) in st.threads.iter().enumerate() {
                if let Some(msg) = &slot.panic {
                    if !slot.panic_consumed {
                        failure = Some(if tid == 0 {
                            format!("root thread panicked: {msg}")
                        } else {
                            format!("thread {tid} panicked (never joined): {msg}")
                        });
                        break;
                    }
                }
            }
        }
        RunResult {
            schedule: st.schedule.clone(),
            decisions: st.decisions.clone(),
            failure,
        }
    }

    /// Poison-tolerant state lock: aborts unwind while holding it, and
    /// the state they leave behind is exactly what we want to read.
    fn lock_state(&self) -> StdGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_cv<'a>(&self, st: StdGuard<'a, ExecState>) -> StdGuard<'a, ExecState> {
        self.cv.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a new modeled thread; returns its tid. The thread
    /// starts `Runnable` and runs when first scheduled.
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        st.threads.push(Slot {
            state: TState::Runnable,
            panic: None,
            panic_consumed: false,
        });
        tid
    }

    fn wait_all_finished(&self) {
        let mut st = self.lock_state();
        while !st.threads.iter().all(|t| t.state == TState::Finished) {
            st = self.wait_cv(st);
        }
    }

    /// A non-blocking decision point: the running `tid` is about to
    /// perform an operation; the scheduler may hand the token to
    /// someone else first. Returns once `tid` may proceed.
    pub(crate) fn yield_point(&self, tid: usize) {
        let mut st = self.lock_state();
        self.abort_check(&st);
        debug_assert_eq!(st.running, Some(tid), "yield by a thread without the token");
        let chosen = self.decide(&mut st, tid, true);
        if chosen != tid {
            st.running = Some(chosen);
            self.cv.notify_all();
            self.wait_for_turn(st, tid);
        }
    }

    /// A blocking decision point: `tid` transitions to `blocked` and
    /// someone else runs. Returns once `tid` is runnable *and*
    /// scheduled again.
    fn block_point(&self, tid: usize, blocked: TState) {
        let mut st = self.lock_state();
        self.abort_check(&st);
        debug_assert_eq!(st.running, Some(tid));
        st.threads[tid].state = blocked;
        let chosen = self.decide(&mut st, tid, false);
        debug_assert_ne!(chosen, tid, "a blocked thread cannot be scheduled");
        st.running = Some(chosen);
        self.cv.notify_all();
        self.wait_for_turn(st, tid);
    }

    /// Wait until `tid` holds the token again; panics with
    /// [`AbortMarker`] if the execution aborted meanwhile.
    fn wait_for_turn(&self, mut st: StdGuard<'_, ExecState>, tid: usize) {
        while !st.aborted && st.running != Some(tid) {
            st = self.wait_cv(st);
        }
        self.abort_check(&st);
        debug_assert_eq!(st.threads[tid].state, TState::Runnable);
    }

    fn abort_check(&self, st: &ExecState) {
        if st.aborted {
            abort_unwind();
        }
    }

    /// The scheduler: record a decision point and pick the next tid.
    /// `may_continue` is false at blocking decisions — there the
    /// switch is forced and costs no preemption budget.
    fn decide(&self, st: &mut ExecState, current: usize, may_continue: bool) -> usize {
        if st.schedule.len() >= st.max_steps {
            let max = st.max_steps;
            self.fail(
                st,
                format!("step budget exceeded ({max} decision points) — livelock or runaway loop"),
            );
        }
        let enabled: Vec<usize> = (0..st.threads.len())
            .filter(|&tid| st.threads[tid].state == TState::Runnable)
            .collect();
        if enabled.is_empty() {
            let held: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state != TState::Finished)
                .map(|(tid, t)| format!("thread {tid} {}", describe_state(&t.state)))
                .collect();
            self.fail(st, format!("deadlock: {}", held.join(", ")));
        }
        let current_enabled = may_continue && enabled.contains(&current);
        let chosen = if st.script_pos < fixed_len(&st.script) {
            let c = fixed_at(&st.script, st.script_pos);
            if !enabled.contains(&c) {
                let pos = st.script_pos;
                self.fail(
                    st,
                    format!(
                        "schedule replay diverged at step {pos}: thread {c} not schedulable \
                         (candidates {enabled:?})"
                    ),
                );
            }
            c
        } else {
            match &mut st.script {
                Script::Random(rng) => enabled[(rng.next() % enabled.len() as u64) as usize],
                Script::Fixed(_) if current_enabled => current,
                Script::Fixed(_) => enabled[0],
            }
        };
        st.script_pos += 1;
        let preemptions_before = st.preemptions;
        if current_enabled && chosen != current {
            st.preemptions += 1;
        }
        st.schedule.push(chosen);
        st.decisions.push(Decision {
            enabled,
            chosen,
            current,
            current_enabled,
            preemptions_before,
        });
        chosen
    }

    /// Record the execution's first failure, abort every thread, and
    /// unwind the caller.
    fn fail(&self, st: &mut ExecState, msg: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborted = true;
        self.cv.notify_all();
        abort_unwind()
    }

    /// The running thread is about to finish (closure returned or
    /// panicked): release join-waiters, hand the token onward.
    pub(crate) fn exit_thread(&self, tid: usize, panic: Option<String>) {
        let mut st = self.lock_state();
        st.threads[tid].panic = panic;
        st.threads[tid].state = TState::Finished;
        for t in st.threads.iter_mut() {
            if t.state == TState::BlockedJoin(tid) {
                t.state = TState::Runnable;
            }
        }
        if st.aborted {
            self.cv.notify_all();
            return;
        }
        if st.threads.iter().all(|t| t.state == TState::Finished) {
            st.running = None;
            self.cv.notify_all();
            return;
        }
        // Hand off; if this deadlocks or exhausts the step budget the
        // unwind is caught right here — the thread is already exiting.
        let handoff = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.decide(&mut st, tid, false)
        }));
        if let Ok(chosen) = handoff {
            debug_assert_ne!(chosen, tid, "finished thread cannot be scheduled");
            st.running = Some(chosen);
        }
        self.cv.notify_all();
    }

    // --- Primitive protocols (called from model/sync.rs, model/thread.rs) ---

    /// Decision point for an atomic op (no-op unless configured).
    pub(crate) fn atomic_op(&self, tid: usize) {
        let preempt = {
            let st = self.lock_state();
            self.abort_check(&st);
            st.preempt_atomics
        };
        if preempt {
            self.yield_point(tid);
        }
    }

    /// `tid` failed to acquire the mutex keyed `key`: block until an
    /// unlock makes it runnable again.
    pub(crate) fn block_on_mutex(&self, tid: usize, key: usize) {
        self.block_point(tid, TState::BlockedMutex(key));
    }

    /// An unlock of `key`: every blocked waiter becomes runnable and
    /// re-contends; then a decision point. Called from the guard's
    /// `Drop`, so it must never panic while the thread is unwinding.
    pub(crate) fn mutex_unlocked(&self, tid: usize, key: usize) {
        {
            let mut st = self.lock_state();
            if st.aborted {
                return;
            }
            for t in st.threads.iter_mut() {
                if t.state == TState::BlockedMutex(key) {
                    t.state = TState::Runnable;
                }
            }
        }
        if std::thread::panicking() {
            // Poisoning unwind: waiters are runnable; the token moves
            // on when this thread reaches exit_thread.
            return;
        }
        self.yield_point(tid);
    }

    /// `join(target)`: block until it finishes; marks its panic (if
    /// any) consumed — the caller receives it as `Err`, std-style.
    /// Returns whether this join consumed a panic no earlier join had.
    pub(crate) fn join(&self, tid: usize, target: usize) -> bool {
        loop {
            {
                let mut st = self.lock_state();
                self.abort_check(&st);
                let slot = &mut st.threads[target];
                if slot.state == TState::Finished {
                    let fresh = slot.panic.is_some() && !slot.panic_consumed;
                    slot.panic_consumed = true;
                    return fresh;
                }
            }
            self.block_point(tid, TState::BlockedJoin(target));
        }
    }
}

/// Set up the thread-local context and wait for the first grant.
pub(crate) fn enter_thread(exec: Arc<Exec>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    let st = exec.lock_state();
    exec.wait_for_turn(st, tid);
}

/// Unwind the modeled thread with the abort marker. Callers guarantee
/// they are not inside a `Drop` of an unwinding thread.
fn abort_unwind() -> ! {
    std::panic::panic_any(AbortMarker)
}

fn describe_state(s: &TState) -> String {
    match s {
        TState::Runnable => "runnable (scheduler invariant violated)".into(),
        TState::BlockedMutex(_) => "blocked on a mutex".into(),
        TState::BlockedJoin(t) => format!("blocked joining thread {t}"),
        TState::Finished => "finished".into(),
    }
}

fn fixed_len(s: &Script) -> usize {
    match s {
        Script::Fixed(v) => v.len(),
        Script::Random(_) => 0,
    }
}

fn fixed_at(s: &Script, i: usize) -> usize {
    match s {
        Script::Fixed(v) => v[i],
        Script::Random(_) => unreachable!("fixed_at under Random script"),
    }
}

/// The crate's only RNG: SplitMix64, for seeded random schedules.
/// (Vendored `rand` is not used — this crate stays dependency-free.)
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
