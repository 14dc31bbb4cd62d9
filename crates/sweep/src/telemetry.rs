//! The sweep heartbeat: [`HeartbeatRecord`] ticks — done/total,
//! jobs/sec, ETA, per-worker utilization — taken by the pool on the
//! worker that has just billed a job: on the first completion, then at
//! least a second apart, plus one completion tick after the last join.
//! The counters a tick reports change only when a job finishes, so no
//! tick is written between completions. Each tick becomes a throttled
//! stderr progress line and one untagged row of the run-level
//! [`timeseries_json`] document, whose one tag is [`TIMESERIES_SCHEMA`].
//! Ticks only read counters, so they cannot perturb job results.

use ups_metrics::{json_num, json_opt_num};

/// Schema tag of the run-level time-series artifact, the one tag its
/// ticks and worker rows travel under.
pub const TIMESERIES_SCHEMA: &str = "ups-obs-timeseries/v3";

/// Least wall time between two ticks taken at job completions, in
/// seconds.
const INTERVAL_S: f64 = 1.0;

/// How the pool's heartbeat reports (see
/// [`run_jobs_telemetry`](crate::pool::run_jobs_telemetry)).
#[derive(Debug)]
pub struct HeartbeatConfig {
    /// Print a `# progress ...` line to stderr each tick.
    pub progress: bool,
}

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
    /// The tick for `done` of `total` jobs, `t_s` seconds into the sweep.
    pub(crate) fn at(t_s: f64, done: u64, total: u64, workers: Vec<WorkerRow>) -> HeartbeatRecord {
        let done = done.min(total);
        let jobs_per_sec = if t_s > 0.0 { done as f64 / t_s } else { 0.0 };
        let eta_s = (done > 0 && jobs_per_sec > 0.0).then(|| (total - done) as f64 / jobs_per_sec);
        HeartbeatRecord {
            t_s,
            done,
            total,
            jobs_per_sec,
            eta_s,
            workers,
        }
    }

    /// One row of the time-series document, on one line (no trailing
    /// newline). The envelope carries the tag; the row carries none.
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self.workers.iter().map(|w| w.to_json()).collect();
        format!(
            concat!(
                "{{\"t_s\": {}, \"done\": {}, \"total\": {}, ",
                "\"jobs_per_sec\": {}, \"eta_s\": {}, \"workers\": [{}]}}"
            ),
            json_num(self.t_s),
            self.done,
            self.total,
            json_num(self.jobs_per_sec),
            json_opt_num(self.eta_s),
            workers.join(", ")
        )
    }
}

/// Render the run-level `ups-obs-timeseries/v3` document from the tick
/// history. `workers` is the finished pool's width; `wall_s` the whole
/// sweep.
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

fn progress_line(r: &HeartbeatRecord) {
    let eta = match r.eta_s {
        Some(e) => format!(", eta {e:.0}s"),
        None => String::new(),
    };
    eprintln!(
        "# progress {}/{} jobs ({:.2} jobs/sec{eta})",
        r.done, r.total, r.jobs_per_sec
    );
}

/// The heartbeat's state: where ticks go and every tick so far. The pool
/// keeps it behind one lock and hands it a record at each completion.
pub(crate) struct Ticker {
    config: HeartbeatConfig,
    ticks: Vec<HeartbeatRecord>,
}

impl Ticker {
    pub(crate) fn new(config: HeartbeatConfig) -> Ticker {
        Ticker {
            config,
            ticks: Vec::new(),
        }
    }

    /// A job was billed and `r` read the counters: keep it as a tick if
    /// it is the first, or if at least a second has passed since the
    /// last one.
    pub(crate) fn completed(&mut self, r: HeartbeatRecord) {
        if self
            .ticks
            .last()
            .is_none_or(|last| r.t_s - last.t_s >= INTERVAL_S)
        {
            self.emit(r);
        }
    }

    /// Emit the completion tick `r` and hand back every tick recorded
    /// (so at least one).
    pub(crate) fn finish(&mut self, r: HeartbeatRecord) -> Vec<HeartbeatRecord> {
        self.emit(r);
        std::mem::take(&mut self.ticks)
    }

    fn emit(&mut self, r: HeartbeatRecord) {
        if self.config.progress {
            progress_line(&r);
        }
        self.ticks.push(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticker() -> Ticker {
        Ticker::new(HeartbeatConfig { progress: false })
    }

    fn tick(t_s: f64, done: u64) -> HeartbeatRecord {
        let row = WorkerRow {
            worker: 0,
            jobs: done,
            busy_s: t_s,
            utilization: 1.0,
        };
        HeartbeatRecord::at(t_s, done, 4, vec![row])
    }

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
        assert!(j.starts_with("{\"t_s\": 1.5, "), "rows carry no tag: {j}");
        assert!(j.contains("\"eta_s\": 4.5"));
        assert!(j.contains("\"utilization\": 0.8}]"));
        let none = HeartbeatRecord { eta_s: None, ..r };
        assert!(none.to_json().contains("\"eta_s\": null"));
    }

    #[test]
    fn timeseries_doc_carries_schema_and_rows() {
        let doc = timeseries_json(&[tick(0.1, 4)], 2, 0.1);
        assert!(doc.contains(TIMESERIES_SCHEMA));
        assert!(doc.contains("\"heartbeats\": ["));
        assert_eq!(doc.matches("\"schema\"").count(), 1, "one tag: {doc}");
    }

    #[test]
    fn heartbeat_always_records_a_final_tick() {
        let records = ticker().finish(tick(0.0, 4));
        assert_eq!(records.len(), 1, "completion tick must always fire");
        assert_eq!(records[0].total, 4);
        assert_eq!(records[0].eta_s, None, "no rate at t = 0");
    }

    #[test]
    fn completions_tick_on_the_first_then_once_per_interval() {
        let mut t = ticker();
        for (t_s, done) in [(0.25, 1), (0.5, 2), (1.3, 3)] {
            t.completed(tick(t_s, done));
        }
        let done: Vec<u64> = t.finish(tick(1.4, 4)).iter().map(|r| r.done).collect();
        assert_eq!(done, [1, 3, 4], "0.5 s is within a second of 0.25 s");
    }
}
