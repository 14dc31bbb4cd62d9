//! Round trip between the two halves of the telemetry plumbing: records
//! are *emitted* by `ups-obs` (hand-rolled JSON) and *parsed* by this
//! crate's minimal parser — the pair must agree on every field,
//! including the `eta_s: null` case. Then the same plumbing end to end:
//! a real (tiny) sweep through `run_jobs_telemetry` with its heartbeat
//! produces a run-level document that `validate_artifact` accepts.

use std::time::Duration;

use ups_obs::{HeartbeatRecord, WorkerRow};
use ups_sweep::json::{parse, JsonValue};
use ups_sweep::{pool, validate_artifact, HeartbeatConfig};

fn worker_back(v: &JsonValue) -> WorkerRow {
    let num = |f: &str| v.get(f).and_then(JsonValue::as_f64).expect(f);
    WorkerRow {
        worker: num("worker") as usize,
        jobs: num("jobs") as u64,
        busy_s: num("busy_s"),
        utilization: num("utilization"),
    }
}

fn record_back(line: &str) -> HeartbeatRecord {
    let v = parse(line).expect("heartbeat line parses");
    assert_eq!(
        v.get("schema").and_then(JsonValue::as_str),
        Some(ups_obs::HEARTBEAT_SCHEMA)
    );
    let num = |f: &str| v.get(f).and_then(JsonValue::as_f64).expect(f);
    HeartbeatRecord {
        t_s: num("t_s"),
        done: num("done") as u64,
        total: num("total") as u64,
        jobs_per_sec: num("jobs_per_sec"),
        eta_s: v.get("eta_s").and_then(JsonValue::as_f64),
        workers: v
            .get("workers")
            .and_then(JsonValue::as_array)
            .expect("workers")
            .iter()
            .map(worker_back)
            .collect(),
    }
}

#[test]
fn heartbeat_record_round_trips_through_the_parser() {
    let r = HeartbeatRecord {
        t_s: 2.125,
        done: 37,
        total: 60,
        jobs_per_sec: 17.5,
        eta_s: Some(1.3125),
        workers: vec![
            WorkerRow {
                worker: 0,
                jobs: 20,
                busy_s: 1.75,
                utilization: 0.875,
            },
            WorkerRow {
                worker: 1,
                jobs: 17,
                busy_s: 1.5,
                utilization: 0.75,
            },
        ],
    };
    assert_eq!(record_back(&r.to_json()), r);
    // `eta_s` is the only nullable field; null must come back as None.
    let unstarted = HeartbeatRecord {
        done: 0,
        eta_s: None,
        ..r
    };
    assert_eq!(record_back(&unstarted.to_json()), unstarted);
}

#[test]
fn live_sweep_timeseries_document_validates() {
    let jobs: Vec<u64> = (0..12).collect();
    let heartbeat = HeartbeatConfig {
        interval: Duration::from_millis(2),
        progress: false,
        jsonl: None,
    };
    let (results, stats) = pool::run_jobs_telemetry(
        &jobs,
        3,
        |i, _| format!("job {i}"),
        Some(heartbeat),
        |_, &n| {
            std::thread::sleep(Duration::from_millis(1 + n % 3));
            n * 2
        },
    );
    let ticks = &stats.ticks;
    assert_eq!(results.len(), jobs.len());
    assert!(!ticks.is_empty());
    assert_eq!(ticks.last().unwrap().done, jobs.len() as u64);

    let doc = ups_obs::heartbeat::timeseries_json(ticks, stats.workers, 0.05);
    let line = validate_artifact(&doc).expect("live telemetry document validates");
    let want = format!(
        "{} heartbeat ticks over 0.05s, {} jobs on {} workers",
        ticks.len(),
        jobs.len(),
        stats.workers
    );
    assert_eq!(line, want);
}
