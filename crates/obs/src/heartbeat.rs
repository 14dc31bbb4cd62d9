//! Sweep heartbeat records and the run-level time-series artifact.
//!
//! A sweep running with `--telemetry BASE` appends one
//! [`HeartbeatRecord`] JSON line (schema [`HEARTBEAT_SCHEMA`]) to
//! `BASE.heartbeat.jsonl` every tick — jobs done/total, throughput, ETA,
//! per-worker utilization — and, at completion, writes the whole tick
//! history as one `BASE.timeseries.json` document (schema
//! [`TIMESERIES_SCHEMA`]) that `sweep --validate` checks like any other
//! `BENCH_*` artifact.
//!
//! Emission is hand-rolled here; *parsing* lives with the sweep crate's
//! minimal JSON parser (`ups_sweep::json`), which the round-trip test
//! drives both ways.

use ups_metrics::json_num;

/// Schema tag of one heartbeat JSONL line.
pub const HEARTBEAT_SCHEMA: &str = "ups-obs-heartbeat/v2";

/// Schema tag of the run-level time-series artifact.
pub const TIMESERIES_SCHEMA: &str = "ups-obs-timeseries/v2";

/// One worker's accounting at a heartbeat tick (cumulative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerRow {
    /// Worker index.
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Wall seconds this worker spent inside jobs.
    pub busy_s: f64,
    /// `busy_s / elapsed_s` — 1.0 is a saturated worker.
    pub utilization: f64,
}

impl WorkerRow {
    /// One JSON object, flat.
    // lint:schema(ups-obs-heartbeat/v2)
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"worker\": {}, \"jobs\": {}, \"busy_s\": {}, ",
                "\"utilization\": {}}}"
            ),
            self.worker,
            self.jobs,
            json_num(self.busy_s),
            json_num(self.utilization)
        )
    }
}

/// One heartbeat tick: sweep progress plus per-worker rows.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatRecord {
    /// Wall seconds since the sweep started.
    pub t_s: f64,
    /// Jobs finished.
    pub done: u64,
    /// Jobs in the sweep.
    pub total: u64,
    /// Aggregate throughput so far (`done / t_s`).
    pub jobs_per_sec: f64,
    /// Estimated seconds to completion (`None` until one job finished).
    pub eta_s: Option<f64>,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerRow>,
}

impl HeartbeatRecord {
    /// One self-describing JSON line (no trailing newline).
    // lint:schema(ups-obs-heartbeat/v2)
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self.workers.iter().map(|w| w.to_json()).collect();
        format!(
            concat!(
                "{{\"schema\": \"{}\", \"t_s\": {}, \"done\": {}, \"total\": {}, ",
                "\"jobs_per_sec\": {}, \"eta_s\": {}, \"workers\": [{}]}}"
            ),
            HEARTBEAT_SCHEMA,
            json_num(self.t_s),
            self.done,
            self.total,
            json_num(self.jobs_per_sec),
            ups_metrics::json_opt_num(self.eta_s),
            workers.join(", ")
        )
    }
}

/// Render the run-level `ups-obs-timeseries/v2` document from the tick
/// history. `workers` is the finished pool's width; `wall_s` the whole
/// sweep.
// lint:schema(ups-obs-timeseries/v2)
pub fn timeseries_json(records: &[HeartbeatRecord], workers: usize, wall_s: f64) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"{}\",\n",
            "  \"workers\": {},\n",
            "  \"wall_s\": {},\n",
            "  \"heartbeats\": [\n{}\n  ]\n",
            "}}\n"
        ),
        TIMESERIES_SCHEMA,
        workers,
        json_num(wall_s),
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_json_shape() {
        let r = HeartbeatRecord {
            t_s: 1.5,
            done: 3,
            total: 12,
            jobs_per_sec: 2.0,
            eta_s: Some(4.5),
            workers: vec![WorkerRow {
                worker: 0,
                jobs: 3,
                busy_s: 1.2,
                utilization: 0.8,
            }],
        };
        let j = r.to_json();
        assert!(j.starts_with(&format!("{{\"schema\": \"{HEARTBEAT_SCHEMA}\"")));
        assert!(j.contains("\"eta_s\": 4.5"));
        assert!(j.contains("\"utilization\": 0.8}]"));
        let none = HeartbeatRecord { eta_s: None, ..r };
        assert!(none.to_json().contains("\"eta_s\": null"));
    }

    #[test]
    fn timeseries_doc_carries_schema_and_rows() {
        let r = HeartbeatRecord {
            t_s: 0.1,
            done: 1,
            total: 1,
            jobs_per_sec: 10.0,
            eta_s: Some(0.0),
            workers: vec![],
        };
        let doc = timeseries_json(&[r], 2, 0.1);
        assert!(doc.contains(TIMESERIES_SCHEMA));
        assert!(doc.contains("\"heartbeats\": ["));
    }
}
