//! The sweep pool: `std::thread` workers over one shared job cursor.
//!
//! The environment is offline (no rayon/crossbeam), and the workload —
//! tens of independent multi-second simulation jobs — needs no queues:
//! each worker claims the next job index with one `fetch_add` on a shared
//! cursor until the cursor passes the last job. Whichever worker goes
//! idle first takes the next job, so a slow job never holds others back
//! behind it. The only lock is the heartbeat's, taken once per finished
//! job and only when a heartbeat is configured.
//!
//! Determinism: jobs are pure functions of their [`JobSpec`] and results
//! are returned indexed by job id, so worker count and claim order affect
//! wall time only, never the result vector. The cross-thread determinism
//! test in `tests/determinism.rs` pins this.
//!
//! [`JobSpec`]: crate::grid::JobSpec

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::telemetry::{HeartbeatConfig, HeartbeatRecord, Ticker, WorkerRow};

/// Aggregate pool accounting for the sweep report.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Always 0: workers claim jobs from one cursor, so nothing is
    /// stolen. Kept for the benchmark's `sweep.steals` row.
    pub steals: u64,
    /// Per-worker rows over the pool's wall time, indexed by worker id.
    pub per_worker: Vec<WorkerRow>,
    /// Every heartbeat tick, the completion tick last; empty when the
    /// sweep ran without a heartbeat.
    pub ticks: Vec<HeartbeatRecord>,
}

/// One worker's live counters.
#[derive(Debug, Default)]
struct Cells {
    jobs: AtomicU64,
    busy_ns: AtomicU64,
}

/// Live, shared pool accounting: per-worker relaxed-atomic cells plus a
/// global done-jobs counter. Workers update it as they go, and a heartbeat
/// tick reads it while other workers still run. Values are monotone, so a
/// mid-run read is a consistent lower bound even though cells are read
/// without synchronization.
#[derive(Debug)]
struct PoolTelemetry {
    cells: Vec<Cells>,
    done: AtomicU64,
}

impl PoolTelemetry {
    fn new(workers: usize) -> Self {
        PoolTelemetry {
            cells: (0..workers).map(|_| Cells::default()).collect(),
            done: AtomicU64::new(0),
        }
    }

    /// Jobs finished so far, across all workers.
    fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// The heartbeat tick for a sweep of `total` jobs, `t_s` seconds in.
    fn tick(&self, total: u64, t_s: f64) -> HeartbeatRecord {
        HeartbeatRecord::at(t_s, self.done(), total, self.rows(t_s))
    }

    /// Every worker row, utilization taken over `t_s` elapsed seconds.
    fn rows(&self, t_s: f64) -> Vec<WorkerRow> {
        self.cells
            .iter()
            .enumerate()
            .map(|(worker, c)| {
                let busy_s = c.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
                WorkerRow {
                    worker,
                    jobs: c.jobs.load(Ordering::Relaxed),
                    busy_s,
                    utilization: if t_s > 0.0 { busy_s / t_s } else { 0.0 },
                }
            })
            .collect()
    }
}

/// Render a `catch_unwind` payload (the panic message is almost always a
/// `String` or `&'static str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Execute `f` over every job on `workers` threads; returns results in
/// job order (index `i` holds `f(i, &jobs[i])`) plus pool stats.
///
/// `f` runs concurrently on multiple threads — it must be `Sync` and is
/// given the job index so callers can stream per-job output as jobs
/// finish (completion order is nondeterministic; the *returned vector*
/// is not).
///
/// # Panics
/// A job that panics is caught on its worker (the rest of the sweep
/// still runs) and re-raised from the collector with the job id attached
/// — use [`run_jobs_telemetry`] to also name the scenario.
pub fn run_jobs<J, R, F>(jobs: &[J], workers: usize, f: F) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    run_jobs_telemetry(jobs, workers, |i, _| format!("job {i}"), None, f)
}

/// [`run_jobs`] with a diagnostic label per job and an optional
/// heartbeat.
///
/// When job *i* panics, the re-raised collector panic reads
/// `"sweep job {i} ({label}) panicked: {original message}"` instead of a
/// bogus bookkeeping error, so the failing scenario is identifiable from
/// the report alone. With `heartbeat`, the worker that finishes a job
/// takes a progress tick — on the first completion, then at most one a
/// second — and the pool takes a completion tick after the last join;
/// every tick comes back in [`PoolStats::ticks`]. No tick is taken
/// between completions.
///
/// # Panics
/// Besides re-raising a job panic: if the accounting loses a job — the
/// per-worker `jobs` rows, the done counter and the heartbeat's final
/// tick must each count every job, panicking ones included.
pub fn run_jobs_telemetry<J, R, F, L>(
    jobs: &[J],
    workers: usize,
    label: L,
    heartbeat: Option<HeartbeatConfig>,
    f: F,
) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    L: Fn(usize, &J) -> String + Sync,
{
    // Never spawn a worker with nothing to claim.
    let workers = workers.clamp(1, jobs.len().max(1));
    let total = jobs.len() as u64;
    let tel = PoolTelemetry::new(workers);
    let ticker = heartbeat.map(|config| Mutex::new(Ticker::new(config)));
    let cursor = AtomicU64::new(0);
    #[expect(
        clippy::disallowed_types,
        reason = "the one clock of the per-worker rows and the heartbeat ticks; jobs never read it"
    )]
    let t0 = std::time::Instant::now();

    let mut slots: Vec<Option<Result<R, String>>> =
        std::iter::repeat_with(|| None).take(jobs.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cursor, tel, ticker, f) = (&cursor, &tel, &ticker, &f);
                scope.spawn(move || {
                    let mut done: Vec<(usize, Result<R, String>)> = Vec::new();
                    loop {
                        // Relaxed: a claim publishes no data (the RMW alone
                        // makes indices unique); results come back through
                        // `join`.
                        let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                        if i >= jobs.len() {
                            return done;
                        }
                        // Catch per job: a panicking scenario must surface
                        // as *its own* failure, not as the collector's "job
                        // never executed". Billing happens after the catch,
                        // so a panicking job counts like any other.
                        #[expect(
                            clippy::disallowed_types,
                            reason = "worker busy-time telemetry only; jobs never read it"
                        )]
                        let start = std::time::Instant::now();
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &jobs[i])))
                            .map_err(|payload| panic_message(payload.as_ref()));
                        let cells = &tel.cells[w];
                        let busy_ns = start.elapsed().as_nanos() as u64;
                        cells.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
                        cells.jobs.fetch_add(1, Ordering::Relaxed);
                        tel.done.fetch_add(1, Ordering::Relaxed);
                        if let Some(ticker) = ticker {
                            // Read the counters under the lock, so ticks
                            // stay monotone.
                            let mut ticker = ticker.lock().unwrap_or_else(PoisonError::into_inner);
                            ticker.completed(tel.tick(total, t0.elapsed().as_secs_f64()));
                        }
                        done.push((i, r));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked outside a job") {
                debug_assert!(slots[i].is_none(), "job {i} executed twice");
                slots[i] = Some(r);
            }
        }
    });
    let t_s = t0.elapsed().as_secs_f64();
    let per_worker = tel.rows(t_s);
    let ticks = ticker.map_or_else(Vec::new, |ticker| {
        let mut ticker = ticker.lock().unwrap_or_else(PoisonError::into_inner);
        ticker.finish(tel.tick(total, t_s))
    });

    let billed: u64 = per_worker.iter().map(|w| w.jobs).sum();
    let (done, last_tick) = (tel.done(), ticks.last().map(|t| t.done));
    assert!(
        billed == total && done == total && last_tick.is_none_or(|d| d == total),
        "pool accounting lost a job: per-worker jobs sum {billed}, done {done}, \
         final tick {last_tick:?}, jobs {total}"
    );
    let results: Vec<R> = slots
        .into_iter()
        .enumerate()
        .map(
            |(i, r)| match r.unwrap_or_else(|| panic!("job {i} never executed")) {
                Ok(r) => r,
                Err(msg) => panic!("sweep job {i} ({}) panicked: {msg}", label(i, &jobs[i])),
            },
        )
        .collect();
    let stats = PoolStats {
        workers,
        jobs: jobs.len(),
        steals: 0,
        per_worker,
        ticks,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 3, 8, 200] {
            let (out, stats) = run_jobs(&jobs, workers, |i, &j| {
                assert_eq!(i as u64, j);
                j * j
            });
            assert_eq!(out, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
            assert_eq!(stats.jobs, 97);
            assert!(stats.workers <= 97);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..500).collect();
        let (out, _) = run_jobs(&jobs, 4, |_, &j| {
            count.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn panicking_job_reports_its_id_and_label_not_a_collector_error() {
        // Regression: a worker panic used to tear the thread down and
        // surface as the collector's misleading "job {i} never executed".
        let jobs: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_telemetry(
                &jobs,
                2,
                |i, &j| format!("scenario-{j}/seed-{i}"),
                None,
                |_, &j| {
                    if j == 5 {
                        panic!("bottleneck bandwidth must be positive");
                    }
                    j
                },
            )
        }))
        .expect_err("the job panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert!(msg.contains("sweep job 5"), "bad message: {msg}");
        assert!(msg.contains("scenario-5/seed-5"), "bad message: {msg}");
        assert!(
            msg.contains("bottleneck bandwidth must be positive"),
            "original panic text lost: {msg}"
        );
        assert!(
            !msg.contains("never executed"),
            "bogus collector error: {msg}"
        );
    }

    #[test]
    fn other_jobs_still_run_when_one_panics() {
        let count = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..20).collect();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs(&jobs, 4, |_, &j| {
                count.fetch_add(1, Ordering::Relaxed);
                if j == 0 {
                    panic!("boom");
                }
                j
            })
        }));
        assert_eq!(
            count.load(Ordering::Relaxed),
            20,
            "a panic must not take the worker's remaining jobs down with it"
        );
    }

    #[test]
    fn telemetry_conservation_holds_when_a_job_panics() {
        // Audit of the panic path: every accounting update (per-worker
        // jobs/busy_ns and the global done counter) happens *after* the
        // catch_unwind, so a panicking job is billed like any other. The
        // pool asserts Σ per-worker jobs == done == jobs before it
        // re-raises; a lost bill would surface here as that assertion
        // instead of the job's own panic. This is the full-size
        // regression test; `tests/pool_model.rs` repeats it on small
        // two-worker configs, round after round.
        let jobs: Vec<usize> = (0..30).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_telemetry(
                &jobs,
                3,
                |i, _| format!("{i}"),
                Some(HeartbeatConfig { progress: false }),
                |_, &j| {
                    if j == 7 {
                        panic!("boom");
                    }
                    j
                },
            )
        }))
        .expect_err("the job panic must propagate");
        let msg = panic_message(caught.as_ref());
        assert_eq!(msg, "sweep job 7 (7) panicked: boom");
    }

    #[test]
    fn first_heartbeat_tick_counts_its_own_completion() {
        // The worker bills `done` before it takes the tick, so the first
        // tick already counts the job that triggered it. One worker makes
        // that tick deterministic: it follows job 0 and nothing else.
        let (_, stats) = run_jobs_telemetry(
            &[0, 1, 2],
            1,
            |i, _| format!("{i}"),
            Some(HeartbeatConfig { progress: false }),
            |_, &j| j,
        );
        assert_eq!(stats.ticks.first().map(|t| t.done), Some(1));
    }

    #[test]
    fn per_worker_rows_bill_every_job_and_its_busy_time() {
        // Every other job is slow; the rows must still add up to every
        // job, and the sleeps must show up as busy time.
        let jobs: Vec<usize> = (0..40).collect();
        let (_, stats) = run_jobs(&jobs, 2, |i, _| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        });
        assert_eq!(stats.per_worker.len(), 2);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.per_worker.iter().map(|w| w.jobs).sum::<u64>(), 40);
        assert!(
            stats.per_worker.iter().any(|w| w.busy_s > 0.0),
            "sleeping jobs must accrue busy time"
        );
        assert!(stats.ticks.is_empty(), "no heartbeat, no ticks");
    }

    #[test]
    fn zero_workers_clamps_to_one_and_empty_jobs_is_fine() {
        let (out, stats) = run_jobs(&[1, 2, 3], 0, |_, &j| j);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(stats.workers, 1);
        let (out, _) = run_jobs::<u32, u32, _>(&[], 4, |_, &j| j);
        assert!(out.is_empty());
    }
}
