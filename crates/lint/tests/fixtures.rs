//! Fixture corpus: each file under `fixtures/` carries deliberate
//! violations; this test pins the exact `(line, rule)` set the engine
//! must produce for each. A new rule (or a scanner change) that shifts
//! any fixture's findings must update the pins here — which is the
//! point: rule behaviour changes are reviewed, never accidental.

use std::path::Path;

use ups_lint::{check_file, FileClass, Finding};

fn fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    check_file(name, &src, FileClass::Determinism)
}

fn pins(findings: &[Finding]) -> Vec<(usize, &'static str)> {
    findings.iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn wall_clock_fixture() {
    assert_eq!(
        pins(&fixture("wall_clock.rs")),
        vec![(6, "wall-clock"), (7, "wall-clock")]
    );
}

#[test]
fn hash_container_fixture() {
    assert_eq!(
        pins(&fixture("hash_container.rs")),
        vec![(6, "hash-container"), (7, "hash-container")]
    );
}

#[test]
fn atomic_ordering_fixture() {
    assert_eq!(
        pins(&fixture("atomic_ordering.rs")),
        vec![
            (8, "atomic-ordering"),
            (9, "atomic-ordering"),
            (10, "atomic-ordering"),
            (11, "atomic-ordering"),
        ]
    );
}

#[test]
fn atomic_ordering_fires_for_every_file_class() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/atomic_ordering.rs");
    let src = std::fs::read_to_string(path).expect("fixture");
    for class in [
        FileClass::Determinism,
        FileClass::General,
        FileClass::TestOnly,
    ] {
        assert_eq!(
            check_file("atomic_ordering.rs", &src, class).len(),
            4,
            "{class:?}"
        );
    }
}

#[test]
fn ps_narrowing_fixture() {
    assert_eq!(
        pins(&fixture("ps_narrowing.rs")),
        vec![
            (5, "ps-narrowing"),
            (6, "ps-narrowing"),
            (7, "ps-narrowing")
        ]
    );
}

#[test]
fn unsafe_audit_fixture() {
    assert_eq!(pins(&fixture("unsafe_audit.rs")), vec![(5, "unsafe-audit")]);
}

#[test]
fn suppressions_fixture() {
    assert_eq!(
        pins(&fixture("suppressions.rs")),
        vec![
            (5, "bad-suppression"),
            (6, "wall-clock"),
            (10, "bad-suppression"),
            (15, "bad-suppression"),
            (20, "unused-suppression"),
            (25, "bad-suppression"),
        ]
    );
}

#[test]
fn suppressions_eof_fixture() {
    assert_eq!(
        pins(&fixture("suppressions_eof.rs")),
        vec![(7, "unused-suppression")]
    );
}

/// Check a fixture under a synthetic in-repo path so the path-scoped
/// rule (panic-path) sees it as crate library code.
fn fixture_at(name: &str, synthetic_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    check_file(synthetic_path, &src, FileClass::Determinism)
}

#[test]
fn panic_path_fixture() {
    assert_eq!(
        pins(&fixture_at(
            "panic_path.rs",
            "crates/netsim/src/panic_path.rs"
        )),
        vec![
            (7, "panic-path"),
            (11, "panic-path"),
            (15, "panic-path"),
            (19, "panic-path"),
        ]
    );
}

#[test]
fn panic_path_fixture_is_silent_outside_the_hot_path_crates() {
    // The rule itself stays quiet — which in turn makes the fixture's
    // one allow annotation stale, and that IS reported.
    assert_eq!(
        pins(&fixture("panic_path.rs")),
        vec![(35, "unused-suppression")]
    );
}

#[test]
fn scanner_edges_fixture_is_clean() {
    assert_eq!(pins(&fixture("scanner_edges.rs")), vec![]);
}

#[test]
fn fixture_findings_are_deterministic() {
    for name in [
        "wall_clock.rs",
        "hash_container.rs",
        "atomic_ordering.rs",
        "ps_narrowing.rs",
        "unsafe_audit.rs",
        "suppressions.rs",
        "suppressions_eof.rs",
        "panic_path.rs",
        "scanner_edges.rs",
    ] {
        assert_eq!(fixture(name), fixture(name), "{name}");
    }
}
