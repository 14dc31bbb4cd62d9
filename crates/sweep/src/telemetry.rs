//! The sweep heartbeat: a background thread the pool runs beside its
//! workers, turning the live pool counters into
//! [`ups_obs::HeartbeatRecord`]s — a throttled stderr progress line
//! (done/total, jobs/sec, ETA), an optional `*.heartbeat.jsonl` stream,
//! and the tick history behind the run-level
//! `ups-obs-timeseries/v2` artifact.
//!
//! The heartbeat only ever *reads* relaxed counters; it cannot perturb
//! job results (jobs are pure functions of their specs) and is therefore
//! outside the determinism surface.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ups_race::sync::atomic::{AtomicBool, Ordering};

use ups_obs::HeartbeatRecord;

use crate::pool::PoolTelemetry;

/// How the pool's heartbeat reports (see
/// [`run_jobs_telemetry`](crate::pool::run_jobs_telemetry)).
#[derive(Debug)]
pub struct HeartbeatConfig {
    /// Tick period. Sub-second keeps short CI sweeps from finishing
    /// between ticks; the work per tick is a few atomic loads.
    pub interval: Duration,
    /// Print a `# progress ...` line to stderr each tick.
    pub progress: bool,
    /// Append one heartbeat JSON line per tick to this open file. A
    /// failed write ends the stream with one stderr line; the ticks are
    /// still recorded.
    pub jsonl: Option<File>,
}

/// Build the record for "now" from the live pool counters.
// lint:allow(wall-clock): heartbeat telemetry — observes the pool,
// never feeds back into job execution or any record's determinism
// surface (heartbeats are obs artifacts).
fn record_now(tel: &PoolTelemetry, total: u64, t0: Instant) -> HeartbeatRecord {
    let t_s = t0.elapsed().as_secs_f64();
    let done = tel.done().min(total);
    let jobs_per_sec = if t_s > 0.0 { done as f64 / t_s } else { 0.0 };
    let eta_s = (done > 0 && jobs_per_sec > 0.0).then(|| (total - done) as f64 / jobs_per_sec);
    HeartbeatRecord {
        t_s,
        done,
        total,
        jobs_per_sec,
        eta_s,
        workers: tel.rows(t_s),
    }
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

/// A running heartbeat thread, started and finished by the pool — the
/// final tick is always recorded, so even a sweep shorter than one
/// interval yields a non-empty record history.
pub(crate) struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: ups_race::thread::JoinHandle<Vec<HeartbeatRecord>>,
}

impl Heartbeat {
    /// Spawn the heartbeat over `telemetry` for a sweep of `total` jobs.
    pub(crate) fn start(
        telemetry: Arc<PoolTelemetry>,
        total: u64,
        config: HeartbeatConfig,
    ) -> Heartbeat {
        let mut jsonl = config.jsonl.map(BufWriter::new);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = ups_race::thread::spawn(move || {
            // lint:allow(wall-clock): heartbeat clock; see record_now.
            let t0 = Instant::now();
            let mut records = Vec::new();
            let mut emit = |records: &mut Vec<HeartbeatRecord>| {
                let r = record_now(&telemetry, total, t0);
                if let Some(out) = jsonl.as_mut() {
                    if let Err(e) = writeln!(out, "{}", r.to_json()).and_then(|()| out.flush()) {
                        eprintln!("sweep: heartbeat stream stopped: {e}");
                        jsonl = None;
                    }
                }
                if config.progress {
                    progress_line(&r);
                }
                records.push(r);
            };
            while !stop_flag.load(Ordering::Relaxed) {
                ups_race::thread::park_timeout(config.interval);
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                emit(&mut records);
            }
            // The completion tick: records the final counters even when
            // the whole sweep fit inside one interval.
            emit(&mut records);
            records
        });
        Heartbeat { stop, handle }
    }

    /// Stop the thread and return every tick recorded (at least one).
    pub(crate) fn finish(self) -> Vec<HeartbeatRecord> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        self.handle.join().expect("heartbeat thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(interval: Duration, jsonl: Option<File>) -> HeartbeatConfig {
        HeartbeatConfig {
            interval,
            progress: false,
            jsonl,
        }
    }

    #[test]
    fn heartbeat_always_records_a_final_tick() {
        let tel = Arc::new(PoolTelemetry::new(2));
        // An hour-long interval never ticks on its own.
        let hb = Heartbeat::start(tel, 4, config(Duration::from_secs(3600), None));
        let records = hb.finish();
        assert_eq!(records.len(), 1, "completion tick must always fire");
        assert_eq!(records[0].total, 4);
        assert_eq!(records[0].workers.len(), 2);
    }

    #[test]
    fn heartbeat_jsonl_lines_parse_back() {
        let dir = std::env::temp_dir().join(format!("ups-obs-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.heartbeat.jsonl");
        let tel = Arc::new(PoolTelemetry::new(1));
        let file = File::create(&path).unwrap();
        let hb = Heartbeat::start(tel, 1, config(Duration::from_millis(5), Some(file)));
        std::thread::sleep(Duration::from_millis(30));
        let records = hb.finish();
        assert!(!records.is_empty());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), records.len());
        for line in lines {
            let v = crate::json::parse(line).expect("heartbeat line parses");
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some(ups_obs::HEARTBEAT_SCHEMA)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_heartbeat_write_ends_the_stream_not_the_sweep() {
        // Every write to /dev/full fails with ENOSPC.
        let Ok(full) = File::options().write(true).open("/dev/full") else {
            return;
        };
        let tel = Arc::new(PoolTelemetry::new(1));
        let hb = Heartbeat::start(tel, 3, config(Duration::from_millis(1), Some(full)));
        std::thread::sleep(Duration::from_millis(10));
        let records = hb.finish();
        assert!(!records.is_empty(), "ticks are recorded past the failure");
        assert_eq!(records.last().unwrap().total, 3);
    }
}
