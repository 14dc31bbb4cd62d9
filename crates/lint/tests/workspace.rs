//! Workspace-level gates: the real repo is lint-clean, the output is
//! byte-identical across runs, and a seeded violation in a synthetic
//! workspace actually turns the gate red (so CI's failure path is itself
//! tested).

use std::fs;
use std::path::{Path, PathBuf};

use ups_lint::{render, Workspace};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_is_lint_clean() {
    let ws = Workspace::load(&repo_root()).expect("load workspace");
    assert!(
        ws.files.len() > 100,
        "walker saw only {} files — directory layout changed?",
        ws.files.len()
    );
    let findings = ws.check();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        render(&findings)
    );
}

#[test]
fn lint_output_is_byte_identical_across_runs() {
    let root = repo_root();
    let runs: Vec<String> = (0..2)
        .map(|_| {
            let ws = Workspace::load(&root).expect("load workspace");
            let findings = ws.check();
            format!("{}files={}", render(&findings), ws.files.len())
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

/// Build a minimal synthetic workspace under the target tmpdir.
fn synthetic_workspace(name: &str, core_src: &str) -> PathBuf {
    let dir = repo_root()
        .join("target")
        .join("lint-test-workspaces")
        .join(format!("{name}-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    fs::create_dir_all(&src_dir).expect("mkdir");
    fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("manifest");
    fs::write(src_dir.join("lib.rs"), core_src).expect("seed source");
    dir
}

#[test]
fn a_seeded_violation_turns_the_gate_red() {
    let dir = synthetic_workspace(
        "seeded",
        "pub fn t() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let ws = Workspace::load(&dir).expect("load synthetic workspace");
    let findings = ws.check();
    assert_eq!(findings.len(), 2, "{}", render(&findings));
    assert!(findings.iter().all(|f| f.rule == "wall-clock"));
    assert_eq!(findings[0].path, "crates/core/src/lib.rs");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn unclassified_crate_is_a_load_error() {
    let dir = synthetic_workspace("unclassified", "pub fn f() {}\n");
    let stray = dir.join("crates/mystery/src");
    fs::create_dir_all(&stray).expect("mkdir");
    fs::write(stray.join("lib.rs"), "pub fn g() {}\n").expect("seed");
    let err = match Workspace::load(&dir) {
        Err(e) => e,
        Ok(_) => panic!("unclassified crate must refuse to load"),
    };
    assert!(err.to_string().contains("mystery"));
    fs::remove_dir_all(&dir).ok();
}
