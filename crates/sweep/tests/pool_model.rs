//! Model checks on the pool that ships: `pool::run_jobs_telemetry` and
//! the heartbeat it runs, compiled against the `ups_race` model backend
//! and driven across interleavings — exhaustive bounded-preemption DFS
//! on small configs, seeded random schedules beyond them. On every
//! explored schedule:
//!
//! 1. every job's result appears exactly once (and nothing deadlocks,
//!    which the runtime checks on its own);
//! 2. Σ per-worker `jobs` = total, and the heartbeat's final tick
//!    reports `done` = total;
//! 3. a panicking job is re-raised naming the job, and 2 still holds.
//!
//! The pool itself asserts Σ per-worker `jobs` = `done` = total (and the
//! final tick) once per sweep, before it returns or re-raises. On the
//! panic configs that assertion is what checks 2: a lost bill replaces
//! the job's own panic, which fails 3.
//!
//! The model backend needs the cfg (DESIGN.md §14):
//! `RUSTFLAGS="--cfg ups_race_model" cargo test --release -p ups-sweep
//! --test pool_model --target-dir target/model`. A plain `cargo test`
//! builds the shim as `std`, so the explorer sees no decision point and
//! each exploration is one run of the same checks on OS threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use ups_race::{explore, explore_random, Config, Outcome};
use ups_sweep::{run_jobs_telemetry, HeartbeatConfig};

/// DFS preemptions per execution (the CHESS bound; DESIGN.md §14).
const PREEMPTION_BOUND: usize = 2;
/// Executions per seeded random exploration.
const RANDOM_SCHEDULES: u64 = 64;

#[derive(Clone, Copy)]
struct Pool {
    workers: usize,
    jobs: usize,
    /// A job that panics, for the panic-isolation check.
    panic_job: Option<usize>,
    /// Run a heartbeat beside the pool.
    heartbeat: bool,
}

impl Pool {
    fn new(workers: usize, jobs: usize) -> Pool {
        Pool {
            workers,
            jobs,
            panic_job: None,
            heartbeat: false,
        }
    }
}

fn cfg() -> Config {
    Config {
        preemption_bound: PREEMPTION_BOUND,
        ..Config::default()
    }
}

/// `cfg()` with atomic operations as decision points too: the job
/// cursor and the telemetry cells are the pool's only shared state.
fn atomics_cfg() -> Config {
    Config {
        preempt_atomics: true,
        ..cfg()
    }
}

/// One execution: the real pool over `jobs` trivial jobs, then checks
/// 1–3. Panics (failing the execution) on a violation.
fn check(pool: Pool) {
    let jobs: Vec<usize> = (0..pool.jobs).collect();
    let total = pool.jobs as u64;
    let runs: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
    let heartbeat = pool.heartbeat.then(|| HeartbeatConfig {
        interval: Duration::from_millis(1),
        progress: false,
        jsonl: None,
    });
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_jobs_telemetry(
            &jobs,
            pool.workers,
            |i, _| format!("model-{i}"),
            heartbeat,
            |_, &j| {
                runs[j].fetch_add(1, Relaxed);
                if pool.panic_job == Some(j) {
                    panic!("model job {j} panicked");
                }
                2 * j + 1
            },
        )
    }));
    // The pool has stopped its heartbeat by the time it returns or
    // re-raises, so no check below can race a live heartbeat thread.
    match (run, pool.panic_job) {
        (Ok((out, stats)), None) => {
            let want: Vec<usize> = jobs.iter().map(|j| 2 * j + 1).collect();
            assert_eq!(out, want, "results out of job order");
            assert_eq!(stats.jobs, pool.jobs);
            let billed: u64 = stats.per_worker.iter().map(|w| w.jobs).sum();
            assert_eq!(billed, total, "per-worker jobs lost a job");
            match stats.ticks.last() {
                Some(tick) => assert_eq!(tick.done, total, "final heartbeat tick misses jobs"),
                None => assert!(!pool.heartbeat, "the completion tick always fires"),
            }
        }
        (Err(payload), Some(j)) => {
            let msg = payload
                .downcast_ref::<String>()
                .expect("the pool re-raises with a String");
            let want = format!("sweep job {j} (model-{j}) panicked: model job {j} panicked");
            assert_eq!(*msg, want, "re-raised panic must name the job");
        }
        (Ok(_), Some(j)) => panic!("job {j} panicked but the pool returned normally"),
        (Err(_), None) => panic!("the pool panicked without a panicking job"),
    }
    for (j, n) in runs.iter().enumerate() {
        let n = n.load(Relaxed);
        assert!(n == 1, "job {j} executed {n} times (want exactly once)");
    }
}

fn assert_complete(out: &Outcome) {
    out.assert_pass();
    assert!(out.complete, "DFS must exhaust the bounded search space");
    println!("complete after {} executions", out.executions);
}

/// Deadlock freedom, exactly-once and conservation on every
/// interleaving within the bound.
///
/// The cursor is lock-free, so atomics are decision points here:
/// without them only spawn, join and exit would branch, and the races
/// between two workers each claiming and billing several jobs would go
/// unexplored.
#[test]
fn dfs_pool_2_workers_4_jobs() {
    let out = explore(&atomics_cfg(), || check(Pool::new(2, 4)));
    assert_complete(&out);
    // The std shim runs each exploration once; under the model the
    // claim/bill interleavings must branch well beyond that.
    assert!(
        !cfg!(ups_race_model) || out.executions > 10,
        "pool schedules must branch under the model (got {})",
        out.executions
    );
}

/// Wider pool than jobs: one worker is clamped away.
#[test]
fn dfs_pool_3_workers_2_jobs() {
    assert_complete(&explore(&cfg(), || check(Pool::new(3, 2))));
}

/// Job 1 panics on every interleaving: the workers survive, the other
/// jobs still run, the panic is re-raised naming job 1, and the
/// panicking job still counts toward jobs/done. Atomics are decision
/// points, so the bill of the panicking job races the other worker's
/// claims and bills on every interleaving within the bound.
#[test]
fn dfs_pool_panic_isolation() {
    let pool = Pool {
        panic_job: Some(1),
        ..Pool::new(2, 3)
    };
    assert_complete(&explore(&atomics_cfg(), || check(pool)));
}

/// The heartbeat beside the pool: its final tick sees every job, on
/// schedules where the park timeout fires early, late or not at all.
#[test]
fn dfs_pool_with_heartbeat() {
    // One voluntary timeout fire keeps the branching tractable; the
    // forced fire (nothing else runnable) is exercised regardless.
    let cfg = Config {
        max_timeout_fires: 1,
        ..cfg()
    };
    let pool = Pool {
        heartbeat: true,
        ..Pool::new(2, 2)
    };
    assert_complete(&explore(&cfg, || check(pool)));
}

/// Atomic operations as decision points too: telemetry increments
/// interleave every which way and conservation must still hold.
#[test]
fn dfs_pool_preempt_atomics() {
    assert_complete(&explore(&atomics_cfg(), || check(Pool::new(2, 2))));
}

/// Seeded random schedules over a config larger than DFS could
/// exhaust, covering interleavings beyond the preemption bound.
#[test]
fn random_pool_3_workers_8_jobs() {
    let pool = Pool {
        heartbeat: true,
        ..Pool::new(3, 8)
    };
    explore_random(&cfg(), 0x5eed, RANDOM_SCHEDULES, || check(pool)).assert_pass();
}

/// Random schedules with a panicking job, a heartbeat and atomics
/// preempted — the adversarial end of the config space.
#[test]
fn random_pool_panic_and_atomics() {
    let pool = Pool {
        workers: 2,
        jobs: 6,
        panic_job: Some(3),
        heartbeat: true,
    };
    explore_random(&atomics_cfg(), 0xdead, RANDOM_SCHEDULES, || check(pool)).assert_pass();
}
