//! Stress rounds on the pool that ships: `run_jobs_telemetry` over small
//! job sets on real threads, many rounds per config, so the claims, bills
//! and tick reads of different workers overlap in as many orders as the
//! OS scheduler produces. Each test is one config; every round checks:
//!
//! 1. every job ran exactly once, and the results come back in job order;
//! 2. Σ per-worker `jobs` = total, and the heartbeat's final tick reports
//!    `done` = total;
//! 3. a panicking job is re-raised as exactly
//!    `sweep job {j} ({j}) panicked: boom`.
//!
//! The pool itself asserts Σ per-worker `jobs` = `done` = total (and the
//! final tick) once per sweep, before it returns or re-raises. On the
//! panic configs that assertion is what checks 2: a lost bill replaces
//! the job's own panic, which fails 3. DESIGN.md §14 lists the pool
//! mutations these tests and the unit tests in `pool.rs` catch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ups_sweep::{run_jobs_telemetry, HeartbeatConfig};

/// Pool runs per config.
const ROUNDS: usize = 200;

#[derive(Clone, Copy)]
struct Pool {
    workers: usize,
    jobs: usize,
    /// A job that panics, for the panic-isolation check.
    panic_job: Option<usize>,
    /// Take heartbeat ticks at job completions.
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

/// `ROUNDS` runs of the real pool over `pool.jobs` trivial jobs, each
/// followed by checks 1–3. Panics on a violation.
fn stress(pool: Pool) {
    for _ in 0..ROUNDS {
        round(pool);
    }
}

fn round(pool: Pool) {
    let jobs: Vec<usize> = (0..pool.jobs).collect();
    let total = pool.jobs as u64;
    let runs: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
    let heartbeat = pool
        .heartbeat
        .then_some(HeartbeatConfig { progress: false });
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_jobs_telemetry(
            &jobs,
            pool.workers,
            |i, _| format!("{i}"),
            heartbeat,
            |_, &j| {
                runs[j].fetch_add(1, Relaxed);
                if pool.panic_job == Some(j) {
                    panic!("boom");
                }
                2 * j + 1
            },
        )
    }));
    // Every worker has joined by the time the pool returns or re-raises,
    // so no check below can race a tick.
    for (j, n) in runs.iter().enumerate() {
        let n = n.load(Relaxed);
        assert_eq!(n, 1, "job {j} ran {n} times (want exactly once)");
    }
    match (run, pool.panic_job) {
        (Ok((out, stats)), None) => {
            let want: Vec<usize> = jobs.iter().map(|j| 2 * j + 1).collect();
            assert_eq!(out, want, "results out of job order");
            assert_eq!(stats.jobs, pool.jobs);
            let billed: u64 = stats.per_worker.iter().map(|w| w.jobs).sum();
            assert_eq!(billed, total, "per-worker jobs lost a job");
            let last = stats.ticks.last().map(|t| t.done);
            assert_eq!(last, pool.heartbeat.then_some(total), "final tick");
        }
        (Err(payload), Some(j)) => {
            let msg = payload
                .downcast_ref::<String>()
                .expect("the pool re-raises with a String");
            assert_eq!(*msg, format!("sweep job {j} ({j}) panicked: boom"));
        }
        (Ok(_), Some(j)) => panic!("job {j} panicked but the pool returned normally"),
        (Err(_), None) => panic!("the pool panicked without a panicking job"),
    }
}

/// Two workers each claiming and billing several jobs off the cursor.
#[test]
fn dfs_pool_2_workers_4_jobs() {
    stress(Pool::new(2, 4));
}

/// Wider pool than jobs: one worker is clamped away.
#[test]
fn dfs_pool_3_workers_2_jobs() {
    stress(Pool::new(3, 2));
}

/// Job 1 panics: the workers survive, the other jobs still run, the
/// panic is re-raised naming job 1, and the panicking job still counts
/// toward `jobs`/`done` while the other worker keeps claiming.
#[test]
fn dfs_pool_panic_isolation() {
    stress(Pool {
        panic_job: Some(1),
        ..Pool::new(2, 3)
    });
}

/// Heartbeat ticks at completions: two workers contend on the tick lock,
/// and the completion tick still sees every job.
#[test]
fn dfs_pool_with_heartbeat() {
    stress(Pool {
        heartbeat: true,
        ..Pool::new(2, 2)
    });
}

/// One job per worker: the two workers' claims and bills race on the
/// cursor and the telemetry cells, and conservation must still hold.
#[test]
fn dfs_pool_preempt_atomics() {
    stress(Pool::new(2, 2));
}

/// Three workers over eight jobs with a heartbeat.
#[test]
fn random_pool_3_workers_8_jobs() {
    stress(Pool {
        heartbeat: true,
        ..Pool::new(3, 8)
    });
}

/// A panicking job with a heartbeat on: the bill of job 3 and its tick
/// race the other worker's claims.
#[test]
fn random_pool_panic_and_atomics() {
    stress(Pool {
        workers: 2,
        jobs: 6,
        panic_job: Some(3),
        heartbeat: true,
    });
}
