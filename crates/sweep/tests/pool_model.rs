//! Model checks on the pool that ships: `pool::run_jobs_telemetry` and
//! `telemetry::Heartbeat`, compiled against the `ups_race` model backend
//! and driven across interleavings — exhaustive bounded-preemption DFS
//! on small configs, seeded random schedules beyond them. On every
//! explored schedule:
//!
//! 1. every job's result appears exactly once (and nothing deadlocks,
//!    which the runtime checks on its own);
//! 2. Σ per-worker `jobs` = `done` = total, and Σ `steals` = Σ
//!    `stolen_from`;
//! 3. a panicking job is re-raised naming the job, and 2 still holds;
//! 4. the heartbeat's final tick reports `done` = total.
//!
//! The model backend needs the cfg (DESIGN.md §14):
//! `RUSTFLAGS="--cfg ups_race_model" cargo test --release -p ups-sweep
//! --test pool_model --target-dir target/model`. A plain `cargo test`
//! builds the shim as `std`, so the explorer sees no decision point and
//! each exploration is one run of the same checks on OS threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use ups_race::{explore, explore_random, Config, Outcome};
use ups_sweep::{effective_workers, run_jobs_telemetry, Heartbeat, HeartbeatConfig, PoolTelemetry};

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

/// One execution: the real pool over `jobs` trivial jobs, then checks
/// 1–4. Panics (failing the execution) on a violation.
fn check(pool: Pool) {
    let jobs: Vec<usize> = (0..pool.jobs).collect();
    let total = pool.jobs as u64;
    let runs: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
    let tel = Arc::new(PoolTelemetry::new(effective_workers(
        pool.workers,
        pool.jobs,
    )));
    let heartbeat = pool.heartbeat.then(|| {
        Heartbeat::start(
            Arc::clone(&tel),
            HeartbeatConfig {
                total,
                interval: Duration::from_millis(1),
                progress: false,
                jsonl: None,
            },
        )
    });
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_jobs_telemetry(
            &jobs,
            pool.workers,
            Some(&tel),
            |i, _| format!("model-{i}"),
            |_, &j| {
                runs[j].fetch_add(1, Relaxed);
                if pool.panic_job == Some(j) {
                    panic!("model job {j} panicked");
                }
                2 * j + 1
            },
        )
    }));
    // Stop the heartbeat before any check can fail: a root that panics
    // past a live heartbeat would surface as a livelock instead.
    let last_tick = heartbeat.map(|hb| {
        let records = hb.finish();
        records
            .last()
            .expect("the completion tick always fires")
            .done
    });
    match (run, pool.panic_job) {
        (Ok((out, stats)), None) => {
            let want: Vec<usize> = jobs.iter().map(|j| 2 * j + 1).collect();
            assert_eq!(out, want, "results out of job order");
            assert_eq!(stats.jobs, pool.jobs);
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
    let rows = tel.snapshot();
    let sum = |cell: fn(&ups_sweep::WorkerStats) -> u64| rows.iter().map(cell).sum::<u64>();
    let (billed, done) = (sum(|w| w.jobs), tel.done());
    assert!(
        billed == total && done == total,
        "telemetry conservation violated: per-worker jobs sum {billed}, done {done}, dealt {total}"
    );
    let (steals, stolen) = (sum(|w| w.steals), sum(|w| w.stolen_from));
    assert!(
        steals == stolen,
        "steal attribution violated: thief-side steals {steals} != victim-side stolen_from {stolen}"
    );
    if let Some(done) = last_tick {
        assert_eq!(done, total, "final heartbeat tick misses jobs");
    }
}

fn assert_complete(out: &Outcome) {
    out.assert_pass();
    assert!(out.complete, "DFS must exhaust the bounded search space");
    println!("complete after {} executions", out.executions);
}

/// Deadlock freedom, exactly-once and conservation on every
/// interleaving within the bound.
#[test]
fn dfs_pool_2_workers_4_jobs() {
    let out = explore(&cfg(), || check(Pool::new(2, 4)));
    assert_complete(&out);
    assert!(
        !cfg!(ups_race_model) || out.executions > 10,
        "pool schedules must branch under the model (got {})",
        out.executions
    );
}

/// Wider pool than jobs: one worker is clamped away, the others steal.
#[test]
fn dfs_pool_3_workers_2_jobs() {
    assert_complete(&explore(&cfg(), || check(Pool::new(3, 2))));
}

/// Job 1 panics on every interleaving: the workers survive, the other
/// jobs still run, the panic is re-raised naming job 1, and the
/// panicking job still counts toward jobs/done.
#[test]
fn dfs_pool_panic_isolation() {
    let pool = Pool {
        panic_job: Some(1),
        ..Pool::new(2, 3)
    };
    assert_complete(&explore(&cfg(), || check(pool)));
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
    let cfg = Config {
        preempt_atomics: true,
        ..cfg()
    };
    assert_complete(&explore(&cfg, || check(Pool::new(2, 2))));
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
    let cfg = Config {
        preempt_atomics: true,
        ..cfg()
    };
    let pool = Pool {
        workers: 2,
        jobs: 6,
        panic_job: Some(3),
        heartbeat: true,
    };
    explore_random(&cfg, 0xdead, RANDOM_SCHEDULES, || check(pool)).assert_pass();
}
