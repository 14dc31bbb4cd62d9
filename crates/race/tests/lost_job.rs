//! Positive control: the explorer catches a real, seeded concurrency
//! bug.
//!
//! [`concurrent_deal_pool`] is a deliberately broken work-stealing pool:
//! jobs are dealt concurrently with the workers, and a worker exits on
//! "every queue empty" without checking that dealing finished. Under
//! the right interleaving the workers get ahead of the dealer, exit,
//! and strand a job — which the exactly-once check turns into a failure
//! with a printed, replayable schedule. The bug lives only in this test
//! file; the pool that ships is checked by
//! `crates/sweep/tests/pool_model.rs`.

use std::collections::VecDeque;
use std::sync::Arc;
use ups_race::model::sync::atomic::{AtomicU64, Ordering::Relaxed};
use ups_race::model::sync::Mutex;
use ups_race::model::thread;
use ups_race::{explore, explore_random, replay, Config, Schedule};

const WORKERS: usize = 2;
const JOBS: usize = 2;

/// The committed counterexample: found once by [`dfs_finds_lost_job`],
/// then pinned here as a regression fixture. The root (0) spawns both
/// workers; worker 2 then worker 1 each drain their empty queues and
/// exit before the root deals a single job — both jobs are stranded.
const LOST_JOB_SCHEDULE: &str = "ups-race/v1:0x4,2x9,1x5,0x2";

/// Own queue's front first, then a victim's back.
fn claim(w: usize, queues: &[Mutex<VecDeque<usize>>]) -> Option<usize> {
    (0..queues.len()).find_map(|off| {
        let mut q = queues[(w + off) % queues.len()].lock().expect("queue");
        if off == 0 {
            q.pop_front()
        } else {
            q.pop_back()
        }
    })
}

fn concurrent_deal_pool() {
    let queues: Arc<Vec<Mutex<VecDeque<usize>>>> =
        Arc::new((0..WORKERS).map(|_| Mutex::default()).collect());
    let runs: Arc<Vec<AtomicU64>> = Arc::new((0..JOBS).map(|_| AtomicU64::new(0)).collect());
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let (queues, runs) = (Arc::clone(&queues), Arc::clone(&runs));
            // BUG: "every queue empty" is not "no more work" — the
            // dealer may still be dealing.
            thread::spawn(move || {
                while let Some(j) = claim(w, &queues) {
                    runs[j].fetch_add(1, Relaxed);
                }
            })
        })
        .collect();
    for j in 0..JOBS {
        queues[j % WORKERS].lock().expect("queue").push_back(j);
    }
    for h in workers {
        h.join().expect("worker");
    }
    for (j, n) in runs.iter().enumerate() {
        let n = n.load(Relaxed);
        assert!(n == 1, "job {j} executed {n} times (want exactly once)");
    }
}

/// Bounded DFS must find the lost-job race and hand back a schedule
/// that parses and replays.
#[test]
fn dfs_finds_lost_job() {
    let out = explore(&Config::default(), concurrent_deal_pool);
    let failure = out
        .failure
        .expect("the injected lost-job race must be found");
    assert!(
        failure.message.contains("executed 0 times"),
        "failure should come from the exactly-once check, got: {}",
        failure.message
    );
    // The schedule string is the whole point: print it the way a
    // developer would see it, then prove it replays.
    let text = failure.schedule.to_string();
    println!("lost-job counterexample: {text}");
    let parsed: Schedule = text.parse().expect("printed schedule parses");
    replay(&Config::default(), &parsed, concurrent_deal_pool)
        .expect_err("replaying the counterexample must reproduce the failure");
}

/// The committed schedule keeps reproducing the bug — a regression
/// fixture for the replay machinery.
#[test]
fn committed_counterexample_still_reproduces() {
    let schedule: Schedule = LOST_JOB_SCHEDULE
        .parse()
        .expect("committed schedule parses");
    let failure = replay(&Config::default(), &schedule, concurrent_deal_pool)
        .expect_err("committed counterexample must still fail");
    assert!(
        failure.message.contains("executed 0 times"),
        "got: {}",
        failure.message
    );
}

/// Same bug, found without DFS: seeded random schedules also catch it
/// (the race has many witnesses).
#[test]
fn random_schedules_find_lost_job() {
    let out = explore_random(&Config::default(), 7, 512, concurrent_deal_pool);
    assert!(
        out.failure.is_some(),
        "512 random schedules should witness the lost-job race"
    );
}
