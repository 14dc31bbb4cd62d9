//! The committed `BENCH_*.json` artifacts against the store's validators,
//! through the public facade: what `sweep --validate` checks in CI, pinned
//! in the tier-1 suite.

use ups::sweep::validate_artifact;

/// Every `BENCH_*.json` at the repository root, sorted by name. The
/// directory is the list: a new artifact is covered the day it is
/// committed, and one without a `schema` tag fails
/// [`every_committed_artifact_validates`] with `$.schema missing`.
fn artifacts() -> Vec<String> {
    let root = std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).expect("repository root");
    let mut names: Vec<String> = root
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    names
}

fn committed(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `name` with its first `from` rewritten to `to` must be rejected, and the
/// message must name `field`.
fn rejects(name: &str, from: &str, to: &str, field: &str) {
    let doc = committed(name);
    assert!(doc.contains(from), "{name} no longer contains {from:?}");
    let err = validate_artifact(&doc.replacen(from, to, 1))
        .expect_err("a mutated artifact must be rejected");
    assert!(
        err.contains(field),
        "{name}: {err:?} does not name {field:?}"
    );
}

#[test]
fn every_committed_artifact_validates() {
    let names = artifacts();
    assert!(!names.is_empty(), "no BENCH_*.json at the repository root");
    for name in &names {
        let line = validate_artifact(&committed(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!line.is_empty(), "{name}: empty confirmation");
    }
}

#[test]
fn only_the_current_version_of_a_tag_is_accepted() {
    let sweep = "BENCH_sweep.json";
    rejects(sweep, "ups-sweep/v5", "ups-sweep/v4", "ups-sweep/v4");
    let (v5, v4) = ("ups-sweep-record/v5", "ups-sweep-record/v4");
    rejects(sweep, v5, v4, "$.results[0].schema \"ups-sweep-record/v4\"");
}

#[test]
fn one_mutated_field_per_family_is_named() {
    let sweep = "BENCH_sweep.json";
    rejects(sweep, r#""jain":"#, r#""gain":"#, "metrics.jain missing");
    // One cause count inflated by a leading 1: Σ causes ≠ mismatches.
    let (cause, inflated) = (r#""overdue_within_t":"#, r#""overdue_within_t":1"#);
    let degradation = "BENCH_degradation.json";
    rejects(degradation, cause, inflated, "overdue_within_t +");
    rejects(sweep, cause, inflated, "overdue_within_t +");
    // A failure-rate axis that steps back down.
    rejects(
        degradation,
        r#""rate": 0.2"#,
        r#""rate": 0.05"#,
        "failures[2].rate must ascend",
    );
    let (green, red) = (
        r#""records_identical": true"#,
        r#""records_identical": false"#,
    );
    rejects(
        "BENCH_scale.json",
        green,
        red,
        "records_identical must be true",
    );
}

/// The `k: null` and `rate: 0` rows of the degradation artifact are one
/// cell (the exact replay of the static schedule, eager and lazy): a
/// document whose axes disagree on it is rejected naming the field.
#[test]
fn degradation_axes_agree_on_their_shared_cell() {
    // "delivered" exists only on failure rows, so the first hit is rate 0.
    let cell = r#""delivered": 38025, "compared": 38025, "match_rate": 0.999711"#;
    for (field, moved) in [
        (
            "compared",
            cell.replace("compared\": 38025", "compared\": 38024"),
        ),
        ("match_rate", cell.replace("0.999711", "0.565602")),
    ] {
        let named = format!("$.failures[0].{field} is");
        rejects("BENCH_degradation.json", cell, &moved, &named);
    }
}
