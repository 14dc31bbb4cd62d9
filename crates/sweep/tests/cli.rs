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

/// `flag` names a path under a directory that does not exist: the sweep
/// must exit 1 naming that path before any job runs, so `--jsonl` is
/// never created.
fn refuses_uncreatable(flag: &str) {
    let tmp = TempDir::new(&format!("bad{flag}"));
    let bad = tmp.0.join("missing-dir").join("t.json");
    let out = sweep(&tmp.0, &[flag.as_ref(), bad.as_os_str()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
    let want = format!("sweep: cannot open {}", bad.display());
    assert!(stderr.contains(&want), "{flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    assert!(
        !tmp.0.join("records.jsonl").exists(),
        "--jsonl must not be touched when {flag} cannot open"
    );
}

#[test]
fn an_uncreatable_telemetry_path_exits_1_before_any_job_runs() {
    refuses_uncreatable("--telemetry");
}

#[test]
fn an_uncreatable_out_path_exits_1_before_any_job_runs() {
    refuses_uncreatable("--out");
}

/// A run that fails after opening `flag`'s file (here: `--jsonl` cannot
/// be created) leaves that file as it found it: absent if it was absent,
/// byte-identical if it existed.
fn a_failed_run_leaves_as_found(flag: &str, body: &str) {
    let tmp = TempDir::new(&format!("failed{flag}"));
    let bad_jsonl = tmp.0.join("missing-dir").join("r.jsonl");
    let path = tmp.0.join("kept.json");
    for existing in [None, Some(body)] {
        if let Some(body) = existing {
            std::fs::write(&path, body).expect("seed the file");
        }
        let args = [
            flag.as_ref(),
            path.as_os_str(),
            "--jsonl".as_ref(),
            bad_jsonl.as_os_str(),
        ];
        let out = sweep(&tmp.0, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        let want = format!("sweep: cannot open {}", bad_jsonl.display());
        assert!(stderr.contains(&want), "{stderr}");
        match existing {
            None => assert!(!path.exists(), "a failed run created {flag}"),
            Some(body) => assert_eq!(
                std::fs::read_to_string(&path).expect("read the file back"),
                body,
                "a failed run changed an existing {flag}"
            ),
        }
    }
}

#[test]
fn a_failed_run_leaves_out_as_it_found_it() {
    a_failed_run_leaves_as_found("--out", "{\"kept\": true}\n");
}

#[test]
fn a_failed_run_leaves_telemetry_as_it_found_it() {
    a_failed_run_leaves_as_found("--telemetry", "{\"old\": 1}\n");
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
fn telemetry_writes_one_valid_timeseries() {
    let tmp = TempDir::new("telemetry");
    let path = tmp.0.join("t.json");
    let out = sweep(&tmp.0, &["--telemetry".as_ref(), path.as_os_str()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let mut files: Vec<_> = std::fs::read_dir(&tmp.0)
        .expect("list temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    files.sort();
    assert_eq!(files, ["out.json", "records.jsonl", "t.json"]);
    let doc = std::fs::read_to_string(&path).expect("timeseries");
    let line = ups_sweep::validate_artifact(&doc).expect("timeseries validates");
    assert!(line.contains("4 jobs on 2 workers"), "{line}");

    let doc = ups_sweep::json::parse(&doc).expect("timeseries parses");
    let ticks = doc
        .get("heartbeats")
        .and_then(JsonValue::as_array)
        .expect("heartbeats");
    assert!(
        ticks.iter().all(|t| t.get("schema").is_none()),
        "ticks are untagged rows of the one envelope"
    );
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

/// The CI's quantized `sweep explain` run, exporting to `perfetto`.
fn explain(perfetto: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("explain")
        .args(["--topos", "Line(3)", "--profiles", "fixed-mtu"])
        .args(["--scheds", "Random", "--traffic", "open-loop"])
        .args(["--utils", "0.6", "--seeds", "11", "--window-ms", "4"])
        .args(["--max-packets", "4000", "--top", "5"])
        .args(["--queues", "1", "--mapper", "dynamic"])
        .arg("--perfetto")
        .arg(perfetto)
        .output()
        .expect("run the sweep binary")
}

/// A `--perfetto` path that cannot be created is refused before the job
/// is re-run: exit 1, and no blame tables on stdout.
#[test]
fn an_uncreatable_perfetto_path_exits_1_before_the_rerun() {
    let tmp = TempDir::new("bad-perfetto");
    let bad = tmp.0.join("missing-dir").join("explain.json");
    let out = explain(&bad);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let want = format!("sweep: cannot open {}", bad.display());
    assert!(stderr.contains(&want), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "the job ran before the open");
}

/// The CI's quantized `sweep explain --perfetto` run, parsed back: a
/// Trace Event Format document with one counter track per sampled field
/// on a non-decreasing virtual-time axis, and divergence markers pinned
/// at their own virtual time.
#[test]
fn explain_perfetto_export_is_valid_trace_event_json() {
    let tmp = TempDir::new("perfetto");
    let path = tmp.0.join("explain.json");
    let out = explain(&path);
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
