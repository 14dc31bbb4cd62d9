//! The `sweep` binary end to end on a one-job grid, every output under a
//! fresh temporary directory.

use std::path::{Path, PathBuf};
use std::process::Output;

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

/// `sweep` over one small open-loop job, writing `--out` and `--jsonl`
/// into `dir` and `--telemetry` to `telemetry`.
fn sweep(dir: &Path, telemetry: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--topos", "Line(3)", "--profiles", "web-search"])
        .args(["--scheds", "FIFO", "--traffic", "open-loop"])
        .args(["--utils", "0.6", "--seeds", "1"])
        .args(["--window-ms", "1", "--max-packets", "200", "--quiet"])
        .arg("--out")
        .arg(dir.join("out.json"))
        .arg("--jsonl")
        .arg(dir.join("records.jsonl"))
        .arg("--telemetry")
        .arg(telemetry)
        .output()
        .expect("run the sweep binary")
}

#[test]
fn an_uncreatable_telemetry_path_exits_1_before_any_job_runs() {
    let tmp = TempDir::new("bad-telemetry");
    let out = sweep(&tmp.0, &tmp.0.join("missing-dir").join("t"));
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

#[test]
fn telemetry_writes_a_stream_and_a_valid_timeseries() {
    let tmp = TempDir::new("telemetry");
    let out = sweep(&tmp.0, &tmp.0.join("t"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stream = std::fs::read_to_string(tmp.0.join("t.heartbeat.jsonl")).expect("heartbeat jsonl");
    assert!(
        stream.lines().count() >= 1,
        "the completion tick is streamed"
    );
    let doc = std::fs::read_to_string(tmp.0.join("t.timeseries.json")).expect("timeseries");
    let line = ups_sweep::validate_artifact(&doc).expect("timeseries validates");
    assert!(line.contains("1 jobs on 1 workers"), "{line}");
}
