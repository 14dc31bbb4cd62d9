//! The schema lockfile: `SCHEMAS.lock`.
//!
//! Every versioned artifact this workspace emits (`ups-sweep-record/v5`
//! lines, `ups-sweep/v5` aggregates, the `ups-bench-*/v1` documents and
//! the `ups-obs-heartbeat/v2` and `ups-obs-timeseries/v2` streams) is built by hand-rolled JSON emitters, and
//! validated by hand-maintained checkers. Those two can silently drift:
//! PR 3/4/5 each had to bump `ups-sweep-record` *because a human
//! noticed* the field surface changed. The lockfile makes the surface
//! mechanical:
//!
//! * An emitting function is annotated `// lint:schema(<tag>)`. The
//!   extractor takes the function's body (brace-matched on blanked
//!   code), collects every string literal inside it, and pulls out the
//!   JSON keys (`"key":` occurrences). Several annotated emitters may
//!   share one tag (a record line is assembled by emitters in three
//!   crates); their keys merge.
//! * `SCHEMAS.lock` stores tag → sorted key set. `ups-lint --schemas`
//!   re-extracts and diffs: a changed surface under an unchanged tag is
//!   the v3→v4-style drift hazard and fails; bumping the tag makes both
//!   the new tag and the stale lock entry fail until `--update`
//!   regenerates the lock — so the bump *and* the lock change land in
//!   the same diff, reviewable together.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{lint_directives, Directive, Finding};
use crate::scan::{line_starts, scan, unescape_quotes, ScannedFile};

/// Tag → serialized field surface.
pub type SurfaceMap = BTreeMap<String, BTreeSet<String>>;

/// Extract the JSON keys (`"key":`) from one (unescaped) string literal.
pub fn json_keys(content: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = content.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && crate::scan::is_ident_char(bytes[j] as char) {
                j += 1;
            }
            if j > start && bytes.get(j) == Some(&b'"') && bytes.get(j + 1) == Some(&b':') {
                out.push(content[start..j].to_string());
                i = j + 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// One annotated emitter found in a file.
struct Emitter {
    tag: String,
    keys: BTreeSet<String>,
    line: usize,
}

/// Pull every `lint:schema(tag)` emitter surface out of one file.
fn emitters_in(path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) -> Vec<Emitter> {
    let starts = line_starts(&scanned.code);
    let mut out = Vec::new();
    for c in &scanned.comments {
        for (_, directive) in lint_directives(&c.text) {
            let Directive::Schema { tag } = directive else {
                continue;
            };
            if tag.is_empty() {
                findings.push(Finding {
                    path: path.to_string(),
                    line: c.start_line,
                    rule: "schema-drift",
                    message: "lint:schema with an empty tag".to_string(),
                });
                continue;
            }
            // The annotated item's body: first `{` at or after the line
            // following the comment, brace-matched. Annotate the
            // *emitting function*, not a `let` inside one.
            let body_from = starts
                .get(c.end_line)
                .copied()
                .unwrap_or(scanned.code.len());
            let Some((open, close)) = next_brace_block(&scanned.code, body_from) else {
                findings.push(Finding {
                    path: path.to_string(),
                    line: c.start_line,
                    rule: "schema-drift",
                    message: format!("lint:schema({tag}): no braced item follows the annotation"),
                });
                continue;
            };
            let open_line = crate::scan::line_of(&starts, open);
            let close_line = crate::scan::line_of(&starts, close);
            let mut keys = BTreeSet::new();
            for s in &scanned.strings {
                if s.line >= c.end_line && s.line <= close_line {
                    keys.extend(json_keys(&unescape_quotes(&s.content)));
                }
            }
            if keys.is_empty() {
                findings.push(Finding {
                    path: path.to_string(),
                    line: c.start_line,
                    rule: "schema-drift",
                    message: format!(
                        "lint:schema({tag}): no JSON keys found in the item at lines {open_line}–{close_line}"
                    ),
                });
                continue;
            }
            out.push(Emitter {
                tag,
                keys,
                line: c.start_line,
            });
        }
    }
    out
}

/// First `{ … }` block starting at or after byte `from`.
fn next_brace_block(code: &str, from: usize) -> Option<(usize, usize)> {
    let open = from + code[from..].find('{')?;
    let mut depth = 0i64;
    for (j, b) in code[open..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, open + j));
                }
            }
            _ => {}
        }
    }
    None
}

/// Extract the full surface map from `(path, source)` pairs. Also
/// verifies every annotated tag is actually emitted somewhere: the tag
/// string must appear inside a string literal in the scanned set
/// (catches a typo'd annotation that would otherwise lock a surface
/// nobody writes).
pub fn extract_surfaces(files: &[(String, String)]) -> (SurfaceMap, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut map: SurfaceMap = BTreeMap::new();
    let mut emitters: Vec<(String, Emitter)> = Vec::new();
    let mut all_literals = String::new();
    for (path, src) in files {
        let scanned = scan(src);
        for s in &scanned.strings {
            all_literals.push_str(&s.content);
            all_literals.push('\n');
        }
        for e in emitters_in(path, &scanned, &mut findings) {
            emitters.push((path.clone(), e));
        }
    }
    for (path, e) in emitters {
        if !all_literals.contains(&e.tag) {
            findings.push(Finding {
                path,
                line: e.line,
                rule: "schema-drift",
                message: format!(
                    "lint:schema({}): tag never appears in a string literal anywhere in the workspace — typo?",
                    e.tag
                ),
            });
            continue;
        }
        map.entry(e.tag).or_default().extend(e.keys);
    }
    findings.sort();
    (map, findings)
}

/// Render a surface map as the lockfile text (deterministic).
pub fn render_lock(map: &SurfaceMap) -> String {
    let mut out = String::new();
    out.push_str(
        "# SCHEMAS.lock — serialized field surface per schema tag.\n\
         #\n\
         # Generated by `cargo run -p ups-lint -- --update`; checked in CI by\n\
         # `ups-lint --schemas`. Each [tag] section lists every JSON key an\n\
         # annotated emitter (`lint:schema(tag)` in the source) writes under\n\
         # that tag. If a surface changes while its /vN tag does not, the\n\
         # check fails: bump the version tag, run --update, and commit both.\n",
    );
    for (tag, keys) in map {
        out.push('\n');
        out.push_str(&format!("[{tag}]\n"));
        for k in keys {
            out.push_str(k);
            out.push('\n');
        }
    }
    out
}

/// Parse a lockfile back into a surface map.
pub fn parse_lock(text: &str) -> Result<SurfaceMap, String> {
    let mut map: SurfaceMap = BTreeMap::new();
    let mut current: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(tag) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if map.contains_key(tag) {
                return Err(format!("line {}: duplicate section [{tag}]", i + 1));
            }
            map.insert(tag.to_string(), BTreeSet::new());
            current = Some(tag.to_string());
            continue;
        }
        match &current {
            Some(tag) => {
                map.get_mut(tag)
                    .expect("section exists")
                    .insert(line.to_string());
            }
            None => {
                return Err(format!(
                    "line {}: key {line:?} before any [tag] section",
                    i + 1
                ))
            }
        }
    }
    Ok(map)
}

/// Diff the extracted surfaces against the lock. Every divergence is a
/// `schema-drift` finding anchored on `SCHEMAS.lock`.
pub fn diff_against_lock(current: &SurfaceMap, lock: &SurfaceMap) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut f = |message: String| {
        findings.push(Finding {
            path: "SCHEMAS.lock".to_string(),
            line: 1,
            rule: "schema-drift",
            message,
        });
    };
    for (tag, keys) in current {
        match lock.get(tag) {
            None => f(format!(
                "new schema tag {tag} is not in SCHEMAS.lock — run `cargo run -p ups-lint -- --update` and commit the lock"
            )),
            Some(locked) if locked != keys => {
                let added: Vec<&str> = keys.difference(locked).map(String::as_str).collect();
                let removed: Vec<&str> = locked.difference(keys).map(String::as_str).collect();
                f(format!(
                    "field surface of {tag} changed without a version-tag bump (added: [{}], removed: [{}]) — bump the /vN tag, run --update, and commit both",
                    added.join(", "),
                    removed.join(", ")
                ));
            }
            Some(_) => {}
        }
    }
    for tag in lock.keys() {
        if !current.contains_key(tag) {
            f(format!(
                "SCHEMAS.lock entry {tag} has no annotated emitter — removed or renamed (version bump?); run --update"
            ));
        }
    }
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_extracted_from_escaped_and_raw_literal_styles() {
        assert_eq!(
            json_keys(r#"{"flows":{},"packets":{} "not a key" x":" "tail":"#),
            vec!["flows", "packets", "tail"]
        );
        // The store.rs style, after unescape_quotes.
        assert_eq!(json_keys(r#"  "schema": "{}",\n"#), vec!["schema"]);
    }

    fn files(src: &str) -> Vec<(String, String)> {
        vec![("a.rs".to_string(), src.to_string())]
    }

    #[test]
    fn annotated_fn_surface_is_extracted() {
        let src = r##"
/// Docs.
// lint:schema(demo-record/v1)
pub fn to_json(&self) -> String {
    format!(r#"{{"alpha":{},"beta":{}}}"#, self.a, self.b)
}
pub const TAG: &str = "demo-record/v1";
"##;
        let (map, findings) = extract_surfaces(&files(src));
        assert!(findings.is_empty(), "{findings:?}");
        let keys: Vec<&str> = map["demo-record/v1"].iter().map(String::as_str).collect();
        assert_eq!(keys, vec!["alpha", "beta"]);
    }

    #[test]
    fn emitters_sharing_a_tag_merge() {
        let src = r##"
// lint:schema(demo/v2)
fn a() -> String { r#"{"x":1}"#.into() }
// lint:schema(demo/v2)
fn b() -> String { r#"{"y":2,"demo/v2":0}"#.into() }
"##;
        let (map, findings) = extract_surfaces(&files(src));
        assert!(findings.is_empty(), "{findings:?}");
        // "demo/v2" appears in b's literal only as the tag-presence
        // witness; `/` is not an ident char, so it is not a key.
        let keys: Vec<&str> = map["demo/v2"].iter().map(String::as_str).collect();
        assert_eq!(keys, vec!["x", "y"]);
    }

    #[test]
    fn unemitted_tag_is_a_typo_finding() {
        let src = r##"
// lint:schema(never-written/v1)
fn a() -> String { r#"{"x":1}"#.into() }
"##;
        let (map, findings) = extract_surfaces(&files(src));
        assert!(map.is_empty());
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("typo"));
    }

    #[test]
    fn keyless_item_is_a_finding() {
        let src = "// lint:schema(demo/v1)\nfn a() { let x = 1; }\n";
        let (_, findings) = extract_surfaces(&files(src));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no JSON keys"));
    }

    #[test]
    fn lock_round_trips() {
        let src = r##"
// lint:schema(demo/v1)
fn a() -> String { r#"{"x":1,"y":2} demo/v1"#.into() }
"##;
        let (map, _) = extract_surfaces(&files(src));
        let lock = render_lock(&map);
        assert_eq!(parse_lock(&lock).unwrap(), map);
    }

    #[test]
    fn drift_without_bump_is_caught_and_bump_requires_update() {
        let mut locked: SurfaceMap = BTreeMap::new();
        locked.insert(
            "demo/v1".into(),
            ["x".to_string(), "y".to_string()].into_iter().collect(),
        );
        // Same tag, changed surface → drift.
        let mut drifted = locked.clone();
        drifted.get_mut("demo/v1").unwrap().insert("z".into());
        let f = diff_against_lock(&drifted, &locked);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("without a version-tag bump"));
        assert!(f[0].message.contains("added: [z]"));
        // Bumped tag → both the new tag and the stale entry fail until
        // --update rewrites the lock.
        let mut bumped: SurfaceMap = BTreeMap::new();
        bumped.insert("demo/v2".into(), drifted["demo/v1"].clone());
        let f = diff_against_lock(&bumped, &locked);
        assert_eq!(f.len(), 2);
        assert!(f
            .iter()
            .any(|x| x.message.contains("new schema tag demo/v2")));
        assert!(f.iter().any(|x| x.message.contains("no annotated emitter")));
        // Clean lock → clean diff.
        assert!(diff_against_lock(&locked, &locked).is_empty());
    }

    #[test]
    fn lock_parse_rejects_garbage() {
        assert!(parse_lock("stray-key\n").is_err());
        assert!(parse_lock("[a]\nx\n[a]\ny\n").is_err());
    }
}
