//! `ups-lint` — the workspace's determinism & schema-drift static
//! analysis.
//!
//! The repo's determinism contract (DESIGN.md §3, §13) says a replay
//! experiment is a pure function of its seed, and that every versioned
//! artifact's field surface changes only together with its `/vN` schema
//! tag. Both are easy to break silently: one `HashMap` iteration
//! feeding a record, one `Instant::now()` reaching a metric, one field
//! added to a JSON emitter without a tag bump. This crate makes those
//! hazards mechanical: a hand-rolled, dependency-free scanner
//! ([`scan`]) feeds a rule engine ([`rules`]) and a schema-surface
//! extractor ([`schemas`]), and the `ups-lint` binary gates CI.
//!
//! * `ups-lint --check` — run the determinism rules over the workspace.
//! * `ups-lint --schemas` — diff the extracted schema surfaces against
//!   `SCHEMAS.lock`.
//! * `ups-lint --update` — regenerate `SCHEMAS.lock`.
//! * `ups-lint --list` — print every rule.
//!
//! Exceptions are spelled, never silent: a suppression is written as a
//! comment holding `lint:allow(rule): reason` (reason mandatory, stale
//! suppressions are themselves findings), and an emitter is tied to its
//! schema tag by a comment holding `lint:schema(tag)` above the
//! emitting function.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;
pub mod schemas;

pub use rules::{check_file, rule_by_name, FileClass, Finding, RuleInfo, RULES};
pub use schemas::{diff_against_lock, parse_lock, render_lock, SurfaceMap};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose library code is in determinism scope: all rules apply.
/// A new crate must be added to one of these lists deliberately —
/// loading a workspace with an unlisted crate is an error, so the
/// decision cannot be made by omission.
pub const DETERMINISM_CRATES: &[&str] = &[
    "core",
    "dynamics",
    "forensics",
    "lint",
    "metrics",
    "netsim",
    "obs",
    "race",
    "sweep",
    "topology",
    "transport",
    "workload",
];

/// Crates outside determinism scope (the vendored ecosystem stand-ins
/// and the bench harness): only the general rules (`unsafe-audit`,
/// `atomic-ordering`) apply.
pub const GENERAL_CRATES: &[&str] = &["bench", "proptest", "rand"];

/// Crates whose library code must route concurrency primitives through
/// the `ups_race` shim (`raw-sync` rule): the model checker mirrors
/// exactly the shim surface, so a direct `std::sync`/`std::thread` use
/// here is a primitive the checker silently does not cover.
/// `std::sync::Arc`/`Weak` are exempt (ownership, not synchronization),
/// as are `#[cfg(test)]` regions.
pub const SYNC_SHIM_CRATES: &[&str] = &["obs", "sweep"];

/// Hot-path crates where a stray panic aborts a whole sweep job
/// (`panic-path` rule): `unwrap`/`expect`/`panic!`/computed indexing in
/// their library code must be handled or carry a
/// `lint:allow(panic-path): <why it cannot fire>` annotation.
pub const PANIC_PATH_CRATES: &[&str] = &["core", "netsim"];

/// One source file, loaded and classified.
pub struct SourceFile {
    /// Repo-relative path, `/`-separated (stable across platforms).
    pub path: String,
    /// File contents.
    pub src: String,
    /// Which rule set applies.
    pub class: FileClass,
}

/// The loaded workspace: every `.rs` file under the facade's and each
/// member crate's `src/`, `tests/`, `benches/` and `examples/`
/// directories, in sorted order.
pub struct Workspace {
    /// Workspace root (the directory holding the top-level `Cargo.toml`
    /// and `SCHEMAS.lock`).
    pub root: PathBuf,
    /// Every loaded file, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load the workspace rooted at `root`.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        load_dir(root, &root.join("src"), FileClass::Determinism, &mut files)?;
        load_dir(root, &root.join("tests"), FileClass::TestOnly, &mut files)?;
        load_dir(
            root,
            &root.join("examples"),
            FileClass::TestOnly,
            &mut files,
        )?;
        let crates_dir = root.join("crates");
        for dir in sorted_subdirs(&crates_dir)? {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let class = if DETERMINISM_CRATES.contains(&name.as_str()) {
                FileClass::Determinism
            } else if GENERAL_CRATES.contains(&name.as_str()) {
                FileClass::General
            } else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "crate `{name}` is in neither DETERMINISM_CRATES nor GENERAL_CRATES — \
                         classify it in crates/lint/src/lib.rs"
                    ),
                ));
            };
            load_dir(root, &dir.join("src"), class, &mut files)?;
            for sub in ["tests", "benches", "examples"] {
                load_dir(root, &dir.join(sub), FileClass::TestOnly, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Run the rule engine over every file.
    pub fn check(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for f in &self.files {
            findings.extend(check_file(&f.path, &f.src, f.class));
        }
        findings.sort();
        findings
    }

    /// Extract the schema field surfaces from every `lint:schema`
    /// annotation in the workspace.
    pub fn extract_schemas(&self) -> (SurfaceMap, Vec<Finding>) {
        let pairs: Vec<(String, String)> = self
            .files
            .iter()
            .map(|f| (f.path.clone(), f.src.clone()))
            .collect();
        schemas::extract_surfaces(&pairs)
    }

    /// Path of the lockfile this workspace is checked against.
    pub fn lock_path(&self) -> PathBuf {
        self.root.join("SCHEMAS.lock")
    }

    /// Diff the extracted surfaces against `SCHEMAS.lock`.
    pub fn check_schemas(&self) -> Vec<Finding> {
        let (current, mut findings) = self.extract_schemas();
        match fs::read_to_string(self.lock_path()) {
            Ok(text) => match parse_lock(&text) {
                Ok(locked) => findings.extend(diff_against_lock(&current, &locked)),
                Err(e) => findings.push(Finding {
                    path: "SCHEMAS.lock".to_string(),
                    line: 1,
                    rule: "schema-drift",
                    message: format!("unparseable lockfile: {e}"),
                }),
            },
            Err(_) => findings.push(Finding {
                path: "SCHEMAS.lock".to_string(),
                line: 1,
                rule: "schema-drift",
                message:
                    "SCHEMAS.lock missing — run `cargo run -p ups-lint -- --update` and commit it"
                        .to_string(),
            }),
        }
        findings.sort();
        findings
    }
}

/// Recursively collect `.rs` files under `dir` (sorted traversal, so
/// output order never depends on filesystem enumeration order).
fn load_dir(
    root: &Path,
    dir: &Path,
    class: FileClass,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            load_dir(root, &p, class, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile {
                path: rel,
                src: fs::read_to_string(&p)?,
                class,
            });
        }
    }
    Ok(())
}

/// Sorted subdirectories of `dir` (empty if `dir` does not exist).
fn sorted_subdirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Render findings, one per line, deterministically.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.render());
        out.push('\n');
    }
    out
}

/// The `--list` text: every rule, name-aligned, with suppressibility.
pub fn rule_list() -> String {
    let width = RULES.iter().map(|r| r.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for r in RULES {
        out.push_str(&format!(
            "{:width$}  {}{}\n",
            r.name,
            r.desc,
            if r.suppressible {
                ""
            } else {
                "  (not suppressible)"
            },
        ));
    }
    out
}

/// Walk upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_list_names_every_rule_once() {
        let list = rule_list();
        for r in RULES {
            assert_eq!(
                list.matches(&format!("{} ", r.name)).count()
                    + list.matches(&format!("{}\n", r.name)).count(),
                1,
                "rule {} listed exactly once",
                r.name
            );
        }
    }

    #[test]
    fn every_crate_classification_is_disjoint() {
        for d in DETERMINISM_CRATES {
            assert!(!GENERAL_CRATES.contains(d), "{d} in both lists");
        }
        let mut sorted = DETERMINISM_CRATES.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, DETERMINISM_CRATES, "list kept sorted");
    }

    #[test]
    fn render_is_one_line_per_finding() {
        let f = vec![
            Finding {
                path: "a.rs".into(),
                line: 1,
                rule: "wall-clock",
                message: "m".into(),
            },
            Finding {
                path: "b.rs".into(),
                line: 2,
                rule: "unsafe-audit",
                message: "n".into(),
            },
        ];
        assert_eq!(
            render(&f),
            "a.rs:1: [wall-clock] m\nb.rs:2: [unsafe-audit] n\n"
        );
    }
}
