//! A hand-rolled work-stealing thread pool over `std::thread`.
//!
//! The environment is offline (no rayon/crossbeam), and the workload —
//! tens of multi-second simulation jobs — doesn't need lock-free deques:
//! a `Mutex<VecDeque>` per worker is locked a handful of times per
//! *second*, not per microsecond. What matters here is the scheduling
//! shape: each worker owns a queue seeded round-robin, pops its own work
//! from the front, and steals from the *back* of a victim's queue when it
//! runs dry, so long-running jobs at the back of one queue migrate to
//! idle workers instead of serializing the tail of the sweep.
//!
//! Determinism: jobs are pure functions of their [`JobSpec`] and results
//! are returned indexed by job id, so worker count and steal order affect
//! wall time only, never the result vector. The cross-thread determinism
//! test in `tests/determinism.rs` pins this.
//!
//! [`JobSpec`]: crate::grid::JobSpec

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::time::Instant;
use ups_race::sync::atomic::{AtomicU64, Ordering};
use ups_race::sync::Mutex;

/// One worker's accounting after (or during) a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Wall nanoseconds spent inside job closures.
    pub busy_ns: u64,
    /// Jobs this worker stole from another worker's queue.
    pub steals: u64,
    /// Jobs stolen *from* this worker's queue — the victim side, so a
    /// skewed deal shows up on the row that was overloaded.
    pub stolen_from: u64,
}

/// Aggregate pool accounting for the sweep report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs that ran on a worker other than the one they were dealt to
    /// (equals both the sum of per-worker `steals` and of `stolen_from`).
    pub steals: u64,
    /// Per-worker rows, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

/// The worker count [`run_jobs`] actually uses for a given request —
/// clamped to `[1, jobs]` so idle threads are never spawned. Exposed so
/// a [`PoolTelemetry`] can be sized before the pool starts.
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    requested.clamp(1, jobs.max(1))
}

/// Live, shared pool accounting: one set of relaxed-atomic cells per
/// worker plus a global done-jobs counter. Workers update it as they go;
/// a heartbeat thread may read it concurrently through
/// [`PoolTelemetry::snapshot`]/[`PoolTelemetry::done`] while the sweep
/// runs. Values are monotone, so a mid-run snapshot is a consistent
/// lower bound even though cells are read without synchronization.
#[derive(Debug)]
pub struct PoolTelemetry {
    cells: Vec<[AtomicU64; 4]>, // [jobs, busy_ns, steals, stolen_from]
    done: AtomicU64,
}

impl PoolTelemetry {
    const JOBS: usize = 0;
    const BUSY_NS: usize = 1;
    const STEALS: usize = 2;
    const STOLEN_FROM: usize = 3;

    /// Telemetry for a pool of exactly `workers` threads (use
    /// [`effective_workers`] to match what the pool will spawn).
    pub fn new(workers: usize) -> Self {
        PoolTelemetry {
            cells: (0..workers)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            done: AtomicU64::new(0),
        }
    }

    /// Worker rows this telemetry was sized for.
    pub fn workers(&self) -> usize {
        self.cells.len()
    }

    /// Jobs finished so far, across all workers.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn add(&self, worker: usize, cell: usize, n: u64) {
        self.cells[worker][cell].fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every worker row.
    pub fn snapshot(&self) -> Vec<WorkerStats> {
        self.cells
            .iter()
            .enumerate()
            .map(|(worker, c)| WorkerStats {
                worker,
                jobs: c[Self::JOBS].load(Ordering::Relaxed),
                busy_ns: c[Self::BUSY_NS].load(Ordering::Relaxed),
                steals: c[Self::STEALS].load(Ordering::Relaxed),
                stolen_from: c[Self::STOLEN_FROM].load(Ordering::Relaxed),
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
    run_jobs_telemetry(jobs, workers, None, |i, _| format!("job {i}"), f)
}

/// [`run_jobs`] with a diagnostic label per job and live accounting.
///
/// When job *i* panics, the re-raised collector panic reads
/// `"sweep job {i} ({label}) panicked: {original message}"` instead of a
/// bogus bookkeeping error, so the failing scenario is identifiable from
/// the report alone. Accounting is published into `telemetry` as the
/// sweep runs, so a heartbeat thread can report progress and per-worker
/// utilization mid-flight; when `telemetry` is `None` an internal one is
/// used (the final [`PoolStats::per_worker`] rows are filled either way).
///
/// # Panics
/// If a provided telemetry was sized for a different worker count than
/// [`effective_workers`]`(workers, jobs.len())`.
pub fn run_jobs_telemetry<J, R, F, L>(
    jobs: &[J],
    workers: usize,
    telemetry: Option<&PoolTelemetry>,
    label: L,
    f: F,
) -> (Vec<R>, PoolStats)
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
    L: Fn(usize, &J) -> String + Sync,
{
    let workers = effective_workers(workers, jobs.len());
    let internal;
    let tel = match telemetry {
        Some(t) => {
            assert_eq!(
                t.workers(),
                workers,
                "telemetry sized for {} workers, pool uses {workers}",
                t.workers()
            );
            t
        }
        None => {
            internal = PoolTelemetry::new(workers);
            &internal
        }
    };
    // Deal jobs round-robin so every queue starts with a similar mix.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..jobs.len()).step_by(workers).collect()))
        .collect();

    let mut slots: Vec<Option<Result<R, String>>> =
        std::iter::repeat_with(|| None).take(jobs.len()).collect();
    ups_race::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let f = &f;
                scope.spawn(move || {
                    let mut done: Vec<(usize, Result<R, String>)> = Vec::new();
                    loop {
                        // Own queue first (front: dealt order)...
                        let next = queues[w].lock().expect("queue poisoned").pop_front();
                        // ...then steal from the back of the first
                        // non-empty victim. No new jobs are ever produced,
                        // so "every queue empty" is a stable exit.
                        let next = next.or_else(|| {
                            (1..workers).find_map(|off| {
                                let victim = (w + off) % workers;
                                let got = queues[victim].lock().expect("queue poisoned").pop_back();
                                if got.is_some() {
                                    // Attribute both sides: the thief's
                                    // `steals` and the victim's
                                    // `stolen_from`.
                                    tel.add(w, PoolTelemetry::STEALS, 1);
                                    tel.add(victim, PoolTelemetry::STOLEN_FROM, 1);
                                }
                                got
                            })
                        });
                        match next {
                            Some(i) => {
                                // Catch per job: a panicking scenario must
                                // surface as *its own* failure, not as the
                                // collector's "job never executed".
                                // lint:allow(wall-clock): worker busy-time
                                // telemetry only; jobs never read it.
                                let t0 = Instant::now();
                                let r =
                                    std::panic::catch_unwind(AssertUnwindSafe(|| f(i, &jobs[i])))
                                        .map_err(|payload| panic_message(payload.as_ref()));
                                tel.add(w, PoolTelemetry::BUSY_NS, t0.elapsed().as_nanos() as u64);
                                tel.add(w, PoolTelemetry::JOBS, 1);
                                tel.done.fetch_add(1, Ordering::Relaxed);
                                done.push((i, r));
                            }
                            None => return done,
                        }
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
    let per_worker = tel.snapshot();
    let stats = PoolStats {
        workers,
        jobs: jobs.len(),
        steals: per_worker.iter().map(|ws| ws.steals).sum(),
        per_worker,
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
    fn stealing_rebalances_a_skewed_queue() {
        // Worker 0's dealt share (jobs 0, 2, 4, ...) is made slow; with 2
        // workers the fast worker must steal some of it.
        let jobs: Vec<usize> = (0..40).collect();
        let (_, stats) = run_jobs(&jobs, 2, |i, _| {
            if i % 2 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        });
        assert_eq!(stats.workers, 2);
        // Not asserting an exact count (timing-dependent) — only that the
        // mechanism exists and fired under a 60 ms imbalance.
        assert!(stats.steals > 0, "no steals under skewed load");
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
                None,
                |i, &j| format!("scenario-{j}/seed-{i}"),
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
            "a panic must not take the worker's remaining queue down with it"
        );
    }

    #[test]
    fn telemetry_conservation_holds_when_a_job_panics() {
        // Audit of the panic path: every accounting update (per-worker
        // jobs/busy_ns and the global done counter) happens *after* the
        // catch_unwind, so a panicking job is billed like any other and
        // Σ per-worker jobs == done == dealt must survive a panic. The
        // ups-race model pins the same invariant on small configs
        // (fixtures::check_pool with panic_job); this is the full-size
        // production-pool regression test.
        let jobs: Vec<usize> = (0..30).collect();
        let tel = PoolTelemetry::new(effective_workers(3, jobs.len()));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_jobs_telemetry(
                &jobs,
                3,
                Some(&tel),
                |i, _| format!("{i}"),
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
        assert!(msg.contains("sweep job 7"), "bad message: {msg}");
        let rows = tel.snapshot();
        let jobs_sum: u64 = rows.iter().map(|w| w.jobs).sum();
        assert_eq!(
            jobs_sum, 30,
            "panicking job must still count in its worker row"
        );
        assert_eq!(tel.done(), 30, "panicking job must still count in done");
        let steals: u64 = rows.iter().map(|w| w.steals).sum();
        let stolen: u64 = rows.iter().map(|w| w.stolen_from).sum();
        assert_eq!(steals, stolen, "steal attribution must survive a panic");
    }

    #[test]
    fn per_worker_rows_attribute_steals_to_both_sides() {
        // Same skew as above: worker 0's dealt share is slow, worker 1
        // must steal from it. Every steal must show up twice — on the
        // thief's `steals` row and the victim's `stolen_from` row.
        let jobs: Vec<usize> = (0..40).collect();
        let tel = PoolTelemetry::new(effective_workers(2, jobs.len()));
        let (_, stats) = run_jobs_telemetry(
            &jobs,
            2,
            Some(&tel),
            |i, _| format!("job {i}"),
            |i, _| {
                if i % 2 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
            },
        );
        assert_eq!(stats.per_worker.len(), 2);
        assert!(stats.steals > 0, "no steals under skewed load");
        let stolen: u64 = stats.per_worker.iter().map(|w| w.stolen_from).sum();
        let steals: u64 = stats.per_worker.iter().map(|w| w.steals).sum();
        assert_eq!(steals, stats.steals, "thief-side attribution");
        assert_eq!(stolen, stats.steals, "victim-side attribution");
        assert_eq!(stats.per_worker.iter().map(|w| w.jobs).sum::<u64>(), 40);
        assert_eq!(tel.done(), 40);
        assert!(
            stats.per_worker.iter().any(|w| w.busy_ns > 0),
            "sleeping jobs must accrue busy time"
        );
    }

    #[test]
    #[should_panic(expected = "telemetry sized for")]
    fn mis_sized_telemetry_is_rejected() {
        let tel = PoolTelemetry::new(7);
        let jobs: Vec<usize> = (0..4).collect();
        let _ = run_jobs_telemetry(&jobs, 2, Some(&tel), |i, _| format!("{i}"), |_, _| ());
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
