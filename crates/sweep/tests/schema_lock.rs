//! The committed artifacts, the validators and `SCHEMAS.lock` must
//! agree: every JSON key a committed `BENCH_*.json` artifact actually
//! carries appears in the lockfile surface of its schema tag. The lock
//! is extracted from the *emitters* (the `lint:schema` annotations), so
//! this closes the triangle — emitter annotations ↔ lockfile ↔ shipped
//! artifacts. A key in an artifact but missing from the lock means an
//! emitter lost its annotation (or the artifact was written by code the
//! lock does not cover); both deserve a red test.
//!
//! The lock may be a *superset* of any one artifact: optional fields
//! (`disruption`, `eta_s`, quantized metrics) appear only under some
//! scenarios.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use ups_lint::schemas::json_keys;
use ups_lint::{parse_lock, SurfaceMap};

fn repo_root() -> PathBuf {
    // crates/sweep → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn lock() -> SurfaceMap {
    let text = fs::read_to_string(repo_root().join("SCHEMAS.lock"))
        .expect("SCHEMAS.lock is committed at the repo root");
    parse_lock(&text).expect("SCHEMAS.lock parses")
}

/// Every `BENCH_*.json` at the repository root with its text, sorted by
/// name: the directory is the list of committed artifacts.
fn artifacts() -> Vec<(String, String)> {
    let root = repo_root();
    let mut found: Vec<(String, String)> = fs::read_dir(&root)
        .expect("repository root")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .map(|name| {
            let text = fs::read_to_string(root.join(&name))
                .unwrap_or_else(|e| panic!("committed artifact {name}: {e}"));
            (name, text)
        })
        .collect();
    found.sort();
    found
}

/// Every `"schema": "<tag>"` value in `text`: the envelope's tag plus
/// the tag of each embedded document (a sweep artifact's record lines,
/// a forensics block per row).
fn schema_tags(text: &str) -> BTreeSet<&str> {
    text.split("\"schema\"")
        .filter_map(|part| part.trim_start().strip_prefix(':'))
        .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
        .collect()
}

/// Each artifact is covered by the tags it declares: every tag is in the
/// lock, and every key the artifact carries is in the union of their
/// surfaces. The artifacts are trusted well-formed here — structure and
/// values are `validate_artifact`'s business (`tests/artifacts.rs`).
#[test]
fn committed_artifacts_are_covered_by_the_lock() {
    let lock = lock();
    let artifacts = artifacts();
    assert!(
        !artifacts.is_empty(),
        "no BENCH_*.json at the repository root"
    );
    for (artifact, text) in &artifacts {
        let tags = schema_tags(text);
        assert!(!tags.is_empty(), "{artifact} carries no schema tag");
        let mut allowed: BTreeSet<&str> = BTreeSet::new();
        for tag in &tags {
            let surface = lock.get(*tag).unwrap_or_else(|| {
                panic!("{artifact} declares schema {tag:?} which SCHEMAS.lock does not cover")
            });
            allowed.extend(surface.iter().map(String::as_str));
        }
        let missing: Vec<String> = json_keys(text)
            .into_iter()
            .filter(|k| !allowed.contains(k.as_str()))
            .collect();
        assert!(
            missing.is_empty(),
            "{artifact} carries keys outside the SCHEMAS.lock surface of {tags:?}: {missing:?} — \
             an emitter lost its lint:schema annotation, or the lock is stale \
             (cargo run -p ups-lint -- --update)"
        );
    }
}

#[test]
fn validator_required_fields_are_locked() {
    // The hand-maintained validators in store.rs demand these fields by
    // name; each must be part of the locked emitter surface, or the
    // validator would reject what the emitters produce.
    let lock = lock();
    let envelope = &lock["ups-sweep/v4"];
    for field in [
        "schema",
        "grid",
        "workers",
        "steals",
        "jobs",
        "wall_s",
        "jobs_per_sec",
        "results",
    ] {
        assert!(
            envelope.contains(field),
            "ups-sweep/v4 lock misses required field {field}"
        );
    }
    let record = &lock["ups-sweep-record/v5"];
    for field in [
        "schema",
        "job_id",
        "scenario",
        "metrics",
        "failures",
        "inflight",
        "disruption",
        "divergence",
    ] {
        assert!(
            record.contains(field),
            "ups-sweep-record/v5 lock misses required field {field}"
        );
    }
    // The forensics block's conservation-checked fields.
    let forensics = &lock["ups-forensics/v1"];
    for field in [
        "mismatches",
        "overdue_within_t",
        "bucket_collision",
        "exit_only",
        "top_nodes",
    ] {
        assert!(
            forensics.contains(field),
            "ups-forensics/v1 lock misses required field {field}"
        );
    }
}
