//! Explorer mechanics: schedule round-trips, determinism and
//! resumability of DFS, deadlock detection as a positive control,
//! replay of recorded counterexamples, and the model's scoped threads.

use ups_race::model::sync::Mutex;
use ups_race::model::thread;
use ups_race::{explore, explore_random, replay, Config, Schedule};

use std::sync::Arc;
use std::time::Duration;

/// A textbook lock-order inversion, as a positive control for the
/// runtime's deadlock detection: thread 1 takes `a` then `b`, the
/// root takes `b` then `a`. Some schedule interleaves the first locks
/// and the explorer must report a deadlock with both holders blocked.
fn deadlock_demo() {
    let a = Arc::new(Mutex::new(0u64));
    let b = Arc::new(Mutex::new(0u64));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t = thread::spawn(move || {
        let ga = a2.lock().expect("model mutex a");
        let mut gb = b2.lock().expect("model mutex b");
        *gb += *ga;
    });
    {
        let gb = b.lock().expect("model mutex b");
        let mut ga = a.lock().expect("model mutex a");
        *ga += *gb;
    }
    t.join().expect("inversion thread");
}

#[test]
fn schedule_display_parse_round_trip() {
    let cases: &[&[usize]] = &[
        &[],
        &[0],
        &[0, 0, 0],
        &[0, 1, 0, 1],
        &[0, 0, 0, 1, 1, 2, 0],
        &[3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
    ];
    for c in cases {
        let s = Schedule::new(c.to_vec());
        let text = s.to_string();
        assert!(
            text.starts_with("ups-race/v1:"),
            "schedule string {text:?} missing version prefix"
        );
        let back = Schedule::parse(&text).expect("round trip parse");
        assert_eq!(back, s, "round trip through {text:?}");
    }
    // Spot-check the run-length encoding itself.
    assert_eq!(
        Schedule::new(vec![0, 0, 0, 1, 2, 2]).to_string(),
        "ups-race/v1:0x3,1,2x2"
    );
    assert_eq!(
        Schedule::parse("ups-race/v1:0x3,1,2x2")
            .expect("parse literal")
            .choices(),
        &[0, 0, 0, 1, 2, 2]
    );
    assert!(Schedule::parse("0,1,2").is_err(), "prefix is mandatory");
    assert!(Schedule::parse("ups-race/v1:0x0").is_err(), "zero count");
    assert!(Schedule::parse("ups-race/v1:zebra").is_err(), "bad tid");
}

/// Two threads increment a counter under a model mutex: exhaustive DFS
/// must pass (no bug to find) and visit more than one interleaving.
#[test]
fn dfs_explores_mutex_counter_and_passes() {
    let cfg = Config::default();
    let out = explore(&cfg, || {
        let n = Arc::new(Mutex::new(0u64));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            *n2.lock().expect("model mutex") += 1;
        });
        *n.lock().expect("model mutex") += 1;
        t.join().expect("model thread");
        assert_eq!(*n.lock().expect("model mutex"), 2);
    });
    assert!(out.complete, "search space must be exhausted");
    assert!(
        out.failure.is_none(),
        "unexpected failure: {:?}",
        out.failure
    );
    assert!(
        out.executions > 1,
        "spawn/lock interleavings must branch (got {} executions)",
        out.executions
    );
}

/// The same exploration twice is execution-for-execution identical.
#[test]
fn dfs_is_deterministic() {
    let run = || {
        let trace = Arc::new(std::sync::Mutex::new(Vec::new()));
        let trace2 = Arc::clone(&trace);
        let out = explore(&Config::default(), move || {
            let n = Arc::new(Mutex::new(0u64));
            let n2 = Arc::clone(&n);
            let t = thread::spawn(move || {
                *n2.lock().expect("model mutex") += 10;
            });
            let mine = {
                let mut g = n.lock().expect("model mutex");
                *g += 1;
                *g
            };
            t.join().expect("model thread");
            trace2.lock().expect("trace").push(mine);
        });
        let t = trace.lock().expect("trace").clone();
        (out.executions, t)
    };
    let (e1, t1) = run();
    let (e2, t2) = run();
    assert_eq!(e1, e2, "execution counts differ between identical runs");
    assert_eq!(
        t1, t2,
        "observed interleavings differ between identical runs"
    );
}

/// Random exploration is deterministic in the seed and differs across
/// seeds (on a fixture with enough schedule entropy).
#[test]
fn random_schedules_are_seed_deterministic() {
    let observe = |seed: u64| {
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let order2 = Arc::clone(&order);
        let out = explore_random(&Config::default(), seed, 8, move || {
            let n = Arc::new(Mutex::new(Vec::new()));
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let n = Arc::clone(&n);
                    thread::spawn(move || n.lock().expect("model mutex").push(i))
                })
                .collect();
            for h in handles {
                h.join().expect("model thread");
            }
            let got = n.lock().expect("model mutex").clone();
            order2.lock().expect("order").push(got);
        });
        assert!(
            out.failure.is_none(),
            "unexpected failure: {:?}",
            out.failure
        );
        assert_eq!(out.executions, 8);
        let o = order.lock().expect("order").clone();
        o
    };
    let a1 = observe(42);
    let a2 = observe(42);
    assert_eq!(a1, a2, "same seed must reproduce the same schedules");
    let b = observe(1337);
    assert_ne!(a1, b, "different seeds should explore differently");
}

/// Positive control: the runtime must *detect* deadlocks, not hang.
/// `deadlock_demo` is a textbook lock-order inversion; DFS must find
/// the interleaving where both threads hold one lock and want the
/// other, and the failure must replay from its schedule string.
#[test]
fn dfs_finds_lock_order_inversion_deadlock() {
    let cfg = Config::default();
    let out = explore(&cfg, deadlock_demo);
    let failure = out.failure.expect("lock-order inversion must deadlock");
    assert!(
        failure.message.contains("deadlock"),
        "failure should be a deadlock, got: {}",
        failure.message
    );
    assert!(
        failure.message.contains("blocked on a mutex"),
        "deadlock report should describe the blocked threads, got: {}",
        failure.message
    );
    // The printed schedule is a replayable counterexample.
    let text = failure.schedule.to_string();
    let parsed: Schedule = text.parse().expect("schedule string parses");
    let replayed = replay(&cfg, &parsed, deadlock_demo)
        .expect_err("replaying the counterexample must reproduce the deadlock");
    assert!(
        replayed.message.contains("deadlock"),
        "replay reproduced a different failure: {}",
        replayed.message
    );
}

/// A failing assertion inside the closure surfaces as a failure with
/// the panic message and a schedule.
#[test]
fn root_assertion_failure_is_reported_with_schedule() {
    let out = explore(&Config::default(), || {
        let n = Arc::new(Mutex::new(0u64));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            *n2.lock().expect("model mutex") += 1;
        });
        t.join().expect("model thread");
        // Deliberately wrong on every interleaving.
        assert_eq!(*n.lock().expect("model mutex"), 2, "wrong on purpose");
    });
    let failure = out.failure.expect("assertion must fail");
    assert!(
        failure.message.contains("wrong on purpose"),
        "panic message must reach the failure report, got: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty(), "failure carries its schedule");
}

/// resume_from pins a schedule prefix: exploration stays in that
/// subtree and (for a full-length schedule) runs exactly one
/// execution.
#[test]
fn resume_from_pins_the_subtree() {
    let body = || {
        let n = Arc::new(Mutex::new(0u64));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            *n2.lock().expect("model mutex") += 1;
        });
        *n.lock().expect("model mutex") += 1;
        t.join().expect("model thread");
    };
    let full = explore(&Config::default(), body);
    assert!(full.complete && full.failure.is_none());
    // Re-run pinned to the very first execution's complete schedule:
    // the subtree under a leaf is just that leaf.
    let probe = ups_race::replay(&Config::default(), &Schedule::new(vec![]), body);
    assert!(probe.is_ok(), "empty-script default run passes");
    // Capture the default run's schedule by exploring with a budget of
    // one execution.
    let first = explore(
        &Config {
            max_executions: 1,
            ..Config::default()
        },
        body,
    );
    assert!(!first.complete, "budget of one cannot exhaust the tree");
    let resumed = explore(
        &Config {
            resume_from: Some(Schedule::new(
                // Default policy first execution: re-derive by replay
                // recording is internal, so pin a one-choice prefix
                // instead: thread 0 keeps running at the first
                // decision.
                vec![0],
            )),
            ..Config::default()
        },
        body,
    );
    assert!(resumed.complete && resumed.failure.is_none());
    assert!(
        resumed.executions < full.executions,
        "pinning a prefix must shrink the search ({} vs {})",
        resumed.executions,
        full.executions
    );
}

/// The livelock guard: a spin loop that never terminates under the
/// model must fail the step budget, not hang the suite.
#[test]
fn step_budget_catches_livelock() {
    let cfg = Config {
        max_steps: 200,
        max_executions: 4,
        ..Config::default()
    };
    let out = explore(&cfg, || {
        // Spin on a model yield forever: no modeled wake will come.
        loop {
            thread::yield_now();
        }
    });
    let failure = out.failure.expect("livelock must trip the step budget");
    assert!(
        failure.message.contains("step budget exceeded"),
        "got: {}",
        failure.message
    );
}

/// [`explore`] on its own thread, failing instead of hanging when an
/// execution wedges on an OS thread the model never schedules.
fn explore_within_a_minute(f: fn()) -> ups_race::Outcome {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(explore(&Config::default(), f));
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("exploration hung: a scoped child was never joined in the model")
}

/// The same inversion between two *scoped* children: the root waits in
/// `scope`'s model join, and the deadlock report names both children.
#[test]
fn scoped_lock_order_inversion_is_a_deadlock() {
    let out = explore_within_a_minute(|| {
        let (a, b) = (Mutex::new(0u64), Mutex::new(0u64));
        thread::scope(|s| {
            s.spawn(|| {
                let ga = a.lock().expect("model mutex a");
                *b.lock().expect("model mutex b") += *ga;
            });
            s.spawn(|| {
                let gb = b.lock().expect("model mutex b");
                *a.lock().expect("model mutex a") += *gb;
            });
        });
    });
    let failure = out.failure.expect("lock-order inversion must deadlock");
    for blocked in [
        "deadlock",
        "thread 0 blocked joining thread 1",
        "thread 1 blocked on a mutex",
        "thread 2 blocked on a mutex",
    ] {
        assert!(
            failure.message.contains(blocked),
            "report should say {blocked:?}, got: {}",
            failure.message
        );
    }
}

/// A scoped child's panic is the joiner's: `join` returns it as `Err`,
/// and the runtime does not also report it as an unjoined panic.
#[test]
fn scoped_child_panic_comes_back_from_join() {
    let out = explore(&Config::default(), || {
        thread::scope(|s| {
            let h = s.spawn(|| panic!("scoped child panics on purpose"));
            let payload = h.join().expect_err("the child's panic comes back");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"scoped child panics on purpose")
            );
        });
    });
    out.assert_pass();
    assert!(out.complete, "search space must be exhausted");
}

/// A child the closure never joins is joined in the model before
/// `scope` returns: its write is visible afterwards, and no execution
/// hangs on std's own join of an OS thread the model never scheduled.
#[test]
fn unjoined_scoped_child_is_joined_before_scope_returns() {
    let out = explore_within_a_minute(|| {
        let n = Mutex::new(0u64);
        thread::scope(|s| {
            s.spawn(|| *n.lock().expect("model mutex") += 1);
        });
        assert_eq!(*n.lock().expect("model mutex"), 1, "child ran after scope");
    });
    out.assert_pass();
    assert!(out.complete, "search space must be exhausted");
    assert!(out.executions > 1, "spawn/lock interleavings must branch");
}
