//! The sweep layer's extension of the repository determinism contract
//! (`tests/determinism.rs` at the root pins bit-identical *traces*; this
//! pins bit-identical *result records* across worker counts).
//!
//! A job is a pure function of its `JobSpec`, so executing the same
//! `ScenarioGrid` with 1 worker and with 4 workers must produce
//! byte-identical sorted result records — regardless of which worker
//! claimed which job, or in what order.

use ups_dynamics::FailureProfile;
use ups_netsim::prelude::{DeadLinkPolicy, Dur, MapperKind};
use ups_sweep::{
    pool, runner, store, Failures, JobSpec, PoolStats, Queues, ScenarioGrid, Scheduler, TrafficMode,
};

fn tiny_grid() -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec!["Line(3)".into(), "Dumbbell(4)".into()],
        profiles: vec!["fixed-mtu".into()],
        schedulers: vec!["FIFO".into(), "Random".into()],
        // The determinism contract must hold for TCP-driven jobs too: a
        // mixed grid runs every combination both open- and closed-loop.
        traffic: vec!["open-loop".into(), "closed-loop".into()],
        rest_bps: Vec::new(),
        utilizations: vec![0.7],
        seeds: vec![1, 2],
        window: Dur::from_ms(2),
        horizon: Some(Dur::from_ms(30)),
        buffer_bytes: None,
        replay: true,
        // Every job also runs the K=8 quantized replay, so the
        // cross-thread contract covers the finite-priority-queue path.
        queues: vec![8],
        mapper: "sppifo".into(),
        failures: Vec::new(),
        inflight: "reroute".into(),
        max_packets: Some(3_000),
        excludes: Vec::new(),
        max_jobs: None,
    }
}

/// An open-loop grid sweeping the failure axis: a static baseline plus a
/// reroute-heavy churn row on a path-diverse topology.
fn failure_grid() -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec!["FatTree(k=4)".into(), "I2:small".into()],
        profiles: vec!["fixed-mtu".into()],
        schedulers: vec!["FIFO".into(), "Random".into()],
        traffic: vec!["open-loop".into()],
        rest_bps: Vec::new(),
        utilizations: vec![0.7],
        seeds: vec![1, 2],
        window: Dur::from_ms(2),
        horizon: None,
        buffer_bytes: None,
        replay: true,
        queues: Vec::new(),
        mapper: "sppifo".into(),
        failures: vec!["none".into(), "random-links:0.5".into()],
        inflight: "reroute".into(),
        max_packets: Some(3_000),
        excludes: Vec::new(),
        max_jobs: None,
    }
}

/// Run the grid with `workers` threads and return the sorted record
/// lines, timing stripped (wall time is the one field that may differ).
fn sorted_records(workers: usize) -> (Vec<String>, PoolStats) {
    let jobs = tiny_grid().expand().expect("grid expands");
    assert_eq!(
        jobs.len(),
        16,
        "2 topologies × 2 schedulers × 2 traffic modes × 2 seeds"
    );
    // Nothing cached: every job builds its own topology on demand.
    let cold = runner::SharedScenarios::for_jobs(&[]);
    let (records, stats) = pool::run_jobs(&jobs, workers, |_, spec| {
        runner::run_job_shared(spec, &cold)
    });
    let mut lines: Vec<String> = records.iter().map(|r| r.to_json(false)).collect();
    lines.sort();
    (lines, stats)
}

#[test]
fn one_worker_and_four_workers_agree_byte_for_byte() {
    let (serial, s1) = sorted_records(1);
    let (parallel, s4) = sorted_records(4);
    assert_eq!(s1.workers, 1);
    assert_eq!(s4.workers, 4);
    assert_eq!(
        serial, parallel,
        "sorted result records must be byte-identical across worker counts"
    );
    // The records actually carry simulation output, not just zeros.
    assert!(serial.iter().all(|l| l.contains(r#""delivered":"#)));
    assert!(
        serial
            .iter()
            .any(|l| l.contains(r#""replay_match_rate":0"#))
            || serial
                .iter()
                .any(|l| l.contains(r#""replay_match_rate":1"#)),
        "replay ran somewhere in the grid"
    );
    // The quantized sub-replay ran and serialized on every record.
    assert!(serial.iter().all(|l| l.contains(r#""queues":8"#)));
    assert!(
        serial
            .iter()
            .any(|l| l.contains(r#""quantized_match_rate":0"#)
                || l.contains(r#""quantized_match_rate":1"#)),
        "quantized replay reported a rate somewhere in the grid"
    );
    // Both traffic modes produced records, and the closed-loop ones
    // carry transport blocks with actual completions.
    assert!(serial
        .iter()
        .any(|l| l.contains(r#""traffic":"open-loop""#)));
    let closed: Vec<&String> = serial
        .iter()
        .filter(|l| l.contains(r#""traffic":"closed-loop""#))
        .collect();
    assert_eq!(closed.len(), 8);
    assert!(closed.iter().all(|l| l.contains(r#""transport":{"#)));
    assert!(
        closed.iter().any(|l| !l.contains(r#""completed_flows":0"#)),
        "TCP flows completed somewhere in the closed sub-grid"
    );
}

/// Run the failure grid with `workers` threads through the shared
/// topology cache (the memoized path is the one the CLI uses).
fn sorted_failure_records(workers: usize) -> Vec<String> {
    let jobs = failure_grid().expand().expect("grid expands");
    assert_eq!(
        jobs.len(),
        16,
        "2 topologies × 2 schedulers × 2 seeds × 2 failure-axis values"
    );
    let shared = runner::SharedScenarios::for_jobs(&jobs);
    let (records, _) = pool::run_jobs(&jobs, workers, |_, spec| {
        runner::run_job_shared(spec, &shared)
    });
    let mut lines: Vec<String> = records.iter().map(|r| r.to_json(false)).collect();
    lines.sort();
    lines
}

#[test]
fn failure_axis_grid_is_deterministic_across_worker_counts() {
    let serial = sorted_failure_records(1);
    let parallel = sorted_failure_records(4);
    assert_eq!(
        serial, parallel,
        "churn records must be byte-identical across worker counts"
    );
    // The churn rows actually churned: every failure record carries a
    // disruption block, and rerouting happened somewhere in the grid.
    let churn: Vec<&String> = serial
        .iter()
        .filter(|l| l.contains(r#""failures":"random-links:0.5""#))
        .collect();
    assert_eq!(churn.len(), 8);
    assert!(churn.iter().all(|l| l.contains(r#""disruption":{"#)));
    assert!(churn.iter().all(|l| l.contains(r#""inflight":"reroute""#)));
    assert!(
        churn.iter().any(|l| !l.contains(r#""rerouted":0"#)),
        "a 50% cut must reroute something somewhere"
    );
    assert!(
        churn
            .iter()
            .any(|l| l.contains(r#""churn_replay_match_rate":0"#)
                || l.contains(r#""churn_replay_match_rate":1"#)),
        "churn replay reported a rate somewhere"
    );
    // The static rows are plain records with a null disruption.
    let baseline: Vec<&String> = serial
        .iter()
        .filter(|l| l.contains(r#""failures":null"#))
        .collect();
    assert_eq!(baseline.len(), 8);
    assert!(baseline.iter().all(|l| l.contains(r#""disruption":null"#)));
}

/// Large-host topologies (RocketFuel: 166 hosts, 27,390 ordered pairs),
/// where the calibration summary a topology's jobs share is worth racing
/// for: the first workers to reach a topology find its core un-calibrated.
fn large_host_grid() -> ScenarioGrid {
    ScenarioGrid {
        topologies: vec!["RocketFuel".into(), "I2:1Gbps-10Gbps".into()],
        schedulers: vec!["FIFO".into(), "LSTF".into()],
        failures: Vec::new(),
        max_packets: Some(2_000),
        // fixed-mtu, open-loop, seeds {1, 2}, 2 ms window, replay on.
        ..failure_grid()
    }
}

#[test]
fn workers_racing_for_a_calibration_summary_change_nothing() {
    let jobs = large_host_grid().expand().expect("grid expands");
    assert_eq!(jobs.len(), 8, "2 topologies × 2 schedulers × 2 seeds");
    let sorted = |mut lines: Vec<String>| {
        lines.sort();
        lines
    };
    // A fresh cache per run, so every run starts from un-calibrated cores.
    let through_one_cache = |workers: usize| {
        let shared = runner::SharedScenarios::for_jobs(&jobs);
        let (records, _) = pool::run_jobs(&jobs, workers, |_, spec| {
            runner::run_job_shared(spec, &shared)
        });
        sorted(records.iter().map(|r| r.to_json(false)).collect())
    };
    let serial = through_one_cache(1);
    assert_eq!(serial, through_one_cache(4));
    // Nothing cached: a core, and so a summary, per job.
    let cold = runner::SharedScenarios::for_jobs(&[]);
    let per_job = jobs
        .iter()
        .map(|spec| runner::run_job_shared(spec, &cold).to_json(false));
    assert_eq!(serial, sorted(per_job.collect()));
    assert!(serial.iter().all(|l| l.contains(r#""delivered":"#)));
}

#[test]
fn repeated_parallel_runs_agree_too() {
    // Same worker count twice: claim order may differ run to run, the
    // records must not.
    let (a, _) = sorted_records(4);
    let (b, _) = sorted_records(4);
    assert_eq!(a, b);
}

#[test]
fn aggregate_artifact_from_parallel_run_validates() {
    let grid = tiny_grid();
    let jobs = grid.expand().unwrap();
    let t0 = std::time::Instant::now();
    let shared = runner::SharedScenarios::for_jobs(&jobs);
    let (records, stats) =
        pool::run_jobs(&jobs, 4, |_, spec| runner::run_job_shared(spec, &shared));
    let doc = store::bench_sweep_json(&grid, &records, &stats, t0.elapsed().as_secs_f64());
    let digest = store::validate_bench_sweep(&doc)
        .expect("artifact conforms to ups-sweep/v5 with ups-sweep-record/v5 lines");
    assert_eq!(digest.jobs, 16);
    assert!(digest.jobs_per_sec > 0.0);
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const K1_DYNAMIC: Queues = Queues {
    k: 1,
    mapper: MapperKind::Dynamic,
};

const RANDOM_LINKS_06_REROUTE: Failures = Failures {
    profile: FailureProfile::RandomLinks,
    rate: 0.6,
    inflight: DeadLinkPolicy::Reroute,
};

/// The open-loop `fixed-mtu` job on `Line(3)` that `runner.rs`'s unit
/// tests build; the other three flavours are struct updates of it.
fn line_spec(scheduler: &str) -> JobSpec {
    JobSpec {
        job_id: 0,
        topology: "Line(3)",
        profile: "fixed-mtu",
        scheduler: Scheduler::from_name(scheduler).unwrap(),
        traffic: TrafficMode::OpenLoop,
        rest_bps: None,
        utilization: 0.6,
        seed: 11,
        window: Dur::from_ms(4),
        horizon: None,
        buffer_bytes: None,
        replay: true,
        queues: None,
        failures: None,
        max_packets: None,
    }
}

/// Records as they were **before** the replay pipeline became one entry
/// (taken at 8b572ab): the eager form (open-loop exact, quantized,
/// closed-loop as-executed) and the lazy form (churn) each still produce
/// the bytes they produced when every call site assembled its own replay.
#[test]
fn four_record_flavours_match_their_pre_refactor_golden() {
    let flavours = [
        (
            "open-loop exact",
            line_spec("Random"),
            0xb03e_99c2_9a93_71ab_u64,
        ),
        (
            "quantized K=1 dynamic",
            JobSpec {
                queues: Some(K1_DYNAMIC),
                ..line_spec("Random")
            },
            0xf2ad_69bc_9281_2a56,
        ),
        (
            "churn random-links:0.6 reroute",
            JobSpec {
                topology: "FatTree(k=4)",
                failures: Some(RANDOM_LINKS_06_REROUTE),
                ..line_spec("FIFO")
            },
            0xf9b9_7bd8_8773_7a16,
        ),
        (
            "closed-loop",
            JobSpec {
                traffic: TrafficMode::ClosedLoop,
                horizon: Some(Dur::from_ms(80)),
                ..line_spec("FIFO")
            },
            0x71a7_562e_0878_2bb3,
        ),
    ];
    let cold = runner::SharedScenarios::for_jobs(&[]);
    for (label, spec, golden) in flavours {
        let line = runner::run_job_shared(&spec, &cold).to_json(false);
        assert!(
            line.contains(r#""replay_match_rate":0"#) || line.contains(r#""replay_match_rate":1"#),
            "{label}: the replay ran"
        );
        assert_eq!(
            fnv1a(line.as_bytes()),
            golden,
            "{label}: record bytes moved — {line}"
        );
    }
}

/// `explain.rs` promises that "the re-run reproduces the sweep's numbers":
/// for each of the executor's three replay branches, the report `sweep
/// explain` prints (per-hop records) carries the counts `run_job_shared`
/// wrote into the record (end-to-end records) for the same spec.
#[test]
fn explain_reports_the_counts_the_record_carries() {
    let fattree = JobSpec {
        topology: "FatTree(k=4)",
        ..line_spec("Random")
    };
    let flavours = [
        ("exact", fattree),
        (
            "quantized K=1 dynamic",
            JobSpec {
                queues: Some(K1_DYNAMIC),
                ..fattree
            },
        ),
        (
            "churn random-links:0.6 reroute",
            JobSpec {
                failures: Some(RANDOM_LINKS_06_REROUTE),
                ..fattree
            },
        ),
    ];
    for (label, spec) in flavours {
        let shared = runner::SharedScenarios::for_jobs([&spec]);
        let summary = runner::run_job_shared(&spec, &shared).summary;
        let report = ups_sweep::explain_job(&spec, &shared, false)
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .report;
        assert!(report.overdue > 0, "{label}: nothing diverged");

        // The record states the comparison as rates over the delivered
        // packets plus the divergence block's integer counts.
        let (match_rate, frac_gt_t) = match spec.queues {
            Some(_) => (summary.quantized_match_rate, summary.quantized_frac_gt_t),
            None => (summary.replay_match_rate, summary.replay_frac_gt_t),
        };
        let blamed = summary.divergence.expect("the replay ran");
        assert_eq!(report.total as u64, summary.delivered, "{label}: total");
        assert_eq!(report.overdue as u64, blamed.mismatches, "{label}: overdue");
        assert_eq!(report.match_rate(), match_rate, "{label}: match rate");
        assert_eq!(report.frac_gt_t_rate(), frac_gt_t, "{label}: overdue_gt_t");
        assert_eq!(
            (report.overdue_gt_t - report.missing) as u64,
            blamed.overdue_beyond_t,
            "{label}: overdue_gt_t against the cause counts"
        );
        assert_eq!(
            report.missing as u64,
            blamed.missing_in_replay + blamed.dead_link_drop + blamed.buffer_drop,
            "{label}: missing"
        );
    }
}
