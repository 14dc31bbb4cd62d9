//! README.md quotes commands; the ones that name a bench target must name
//! one that exists, or deleting a target leaves a dead command in the
//! quickstart.

fn repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_bench_the_readme_quotes_is_a_bench_target() {
    let manifest = repo_file("crates/bench/Cargo.toml");
    let targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|block| block.split("name = \"").nth(1)?.split('"').next())
        .collect();
    assert!(
        !targets.is_empty(),
        "no [[bench]] in crates/bench/Cargo.toml"
    );

    let readme = repo_file("README.md");
    let quoted: Vec<&str> = readme
        .split("cargo bench -p ups-bench --bench ")
        .skip(1)
        .filter_map(|rest| rest.split_whitespace().next())
        // Inline code closes right after the name: `… --bench fig1`.
        .map(|name| name.trim_end_matches('`'))
        .collect();
    assert!(!quoted.is_empty(), "README.md quotes no ups-bench target");
    for name in quoted {
        assert!(
            targets.contains(&name),
            "README.md quotes `--bench {name}`; crates/bench/Cargo.toml has {targets:?}"
        );
    }
}
