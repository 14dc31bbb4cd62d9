//! The `sweep` binary end to end on small grids, every output under a
//! fresh temporary directory.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Output;

use ups_sweep::json::JsonValue;

/// A per-test scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ups-sweep-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// `sweep` over a small open-loop grid — two schedulers × two seeds at
/// utilization 0.6 on two workers, four jobs — writing `--out` and
/// `--jsonl` into `dir`. `args` come last, so they may replace an axis.
fn sweep(dir: &Path, args: &[&OsStr]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--topos", "Line(3)", "--profiles", "web-search"])
        .args(["--scheds", "FIFO,LSTF", "--traffic", "open-loop"])
        .args(["--utils", "0.6", "--seeds", "1,2", "--workers", "2"])
        .args(["--window-ms", "1", "--max-packets", "200", "--quiet"])
        .arg("--out")
        .arg(dir.join("out.json"))
        .arg("--jsonl")
        .arg(dir.join("records.jsonl"))
        .args(args)
        .output()
        .expect("run the sweep binary")
}

/// [`sweep`] with `--telemetry telemetry`.
fn sweep_with_telemetry(dir: &Path, telemetry: &Path) -> Output {
    sweep(dir, &["--telemetry".as_ref(), telemetry.as_os_str()])
}

#[test]
fn an_uncreatable_telemetry_path_exits_1_before_any_job_runs() {
    let tmp = TempDir::new("bad-telemetry");
    let out = sweep_with_telemetry(&tmp.0, &tmp.0.join("missing-dir").join("t"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("sweep: cannot open"), "stderr: {stderr}");
    assert!(stderr.contains("t.heartbeat.jsonl"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        !tmp.0.join("records.jsonl").exists(),
        "--jsonl must not be touched when telemetry cannot open"
    );
}

/// A utilization the workload cannot generate used to panic every job
/// (exit 101) after `--jsonl` was created; now the grid rejects it.
#[test]
fn an_out_of_range_utilization_exits_1_before_any_output_opens() {
    for util in ["2.0", "nan"] {
        let tmp = TempDir::new(&format!("bad-util-{util}"));
        let out = sweep(&tmp.0, &["--utils".as_ref(), util.as_ref()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--utils {util}: {stderr}");
        assert!(stderr.contains("sweep: bad --utils value"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            !tmp.0.join("records.jsonl").exists(),
            "--jsonl must not be created for a grid that cannot run"
        );
    }
}

#[test]
fn telemetry_writes_a_stream_and_a_valid_timeseries() {
    let tmp = TempDir::new("telemetry");
    let out = sweep_with_telemetry(&tmp.0, &tmp.0.join("t"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let doc = std::fs::read_to_string(tmp.0.join("t.timeseries.json")).expect("timeseries");
    let line = ups_sweep::validate_artifact(&doc).expect("timeseries validates");
    assert!(line.contains("4 jobs on 2 workers"), "{line}");

    // The stream and the artifact are the same ticks, line for line.
    let doc = ups_sweep::json::parse(&doc).expect("timeseries parses");
    let ticks = doc
        .get("heartbeats")
        .and_then(JsonValue::as_array)
        .expect("heartbeats");
    let stream = std::fs::read_to_string(tmp.0.join("t.heartbeat.jsonl")).expect("heartbeat jsonl");
    let lines: Vec<JsonValue> = stream
        .lines()
        .map(|l| ups_sweep::json::parse(l).expect("heartbeat line parses"))
        .collect();
    assert_eq!(lines, ticks, "stream lines != timeseries heartbeats");
    let last = ticks.last().expect("the completion tick");
    let done = last.get("done").and_then(JsonValue::as_f64);
    assert_eq!(done, Some(4.0), "the last tick counts every job");
}

fn ph(e: &JsonValue) -> &str {
    e.get("ph").and_then(|p| p.as_str()).unwrap_or("")
}

fn ts(e: &JsonValue) -> f64 {
    e.get("ts").and_then(|t| t.as_f64()).expect("ts")
}

/// The CI's quantized `sweep explain --perfetto` run, parsed back: a
/// Trace Event Format document with one counter track per sampled field
/// on a non-decreasing virtual-time axis, and divergence markers pinned
/// at their own virtual time.
#[test]
fn explain_perfetto_export_is_valid_trace_event_json() {
    let tmp = TempDir::new("perfetto");
    let path = tmp.0.join("explain.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("explain")
        .args(["--topos", "Line(3)", "--profiles", "fixed-mtu"])
        .args(["--scheds", "Random", "--traffic", "open-loop"])
        .args(["--utils", "0.6", "--seeds", "11", "--window-ms", "4"])
        .args(["--max-packets", "4000", "--top", "5"])
        .args(["--queues", "1", "--mapper", "dynamic"])
        .arg("--perfetto")
        .arg(&path)
        .output()
        .expect("run the sweep binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");

    let doc = std::fs::read_to_string(&path).expect("perfetto export written");
    let doc = ups_sweep::json::parse(&doc).expect("export is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("a traceEvents array");

    let mut tracks: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for e in events.iter().filter(|e| ph(e) == "C") {
        let name = e.get("name").and_then(|n| n.as_str()).expect("track name");
        tracks.entry(name).or_default().push(ts(e));
    }
    let mut fields = [
        "in_flight",
        "pending_events",
        "queued_packets",
        "queued_bytes",
        "max_port_depth",
        "events",
    ];
    fields.sort_unstable();
    assert_eq!(tracks.keys().copied().collect::<Vec<_>>(), fields);
    for (name, stamps) in &tracks {
        assert!(!stamps.is_empty(), "{name} has no samples");
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "{name} goes back in time"
        );
    }

    let on_their_own_time = events.iter().filter(|e| ph(e) == "i").filter(|e| {
        let t_virtual = e.get("args").and_then(|a| a.get("t_virtual_us"));
        t_virtual.and_then(|t| t.as_f64()) == Some(ts(e))
    });
    assert!(
        on_their_own_time.count() >= 1,
        "no divergence marker at its virtual time"
    );
}
