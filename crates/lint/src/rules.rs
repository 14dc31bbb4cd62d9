//! The rule registry and per-file rule engine.
//!
//! Rules encode this repo's determinism contract (DESIGN.md §3) as
//! mechanical checks over blanked code (see [`crate::scan`]):
//!
//! * `wall-clock` — `Instant`/`SystemTime` in determinism scope. Replay
//!   experiments must be pure functions of the seed; wall time belongs in
//!   the obs/bench layers (or behind an annotation explaining why the
//!   reading never reaches a record).
//! * `hash-container` — `HashMap`/`HashSet` in determinism scope. Their
//!   iteration order is randomized per process; one `for` loop over one
//!   of these in a path that feeds a trace, record or summary makes two
//!   identical runs disagree. `BTreeMap`/`BTreeSet`, or annotate why
//!   order never escapes (lookup-only, or sorted before exposure).
//! * `atomic-ordering` — non-`Relaxed` atomic orderings. The workspace's
//!   cross-thread protocols are mutex-based; its atomics are all
//!   monotonic counters and flags where `Relaxed` suffices. A stronger
//!   ordering signals an undocumented protocol.
//! * `ps-narrowing` — `as_ps() as <narrower>`: u64 picosecond counts
//!   overflow i64 after ~106 days of simulated time and lose precision
//!   in f64 after ~2.5 simulated hours. Widen to u128/i128, or annotate
//!   the bound that makes the cast exact.
//! * `unsafe-audit` — `unsafe` without a `// SAFETY:` comment directly
//!   above it.
//! * `bad-suppression` / `unused-suppression` — the suppression grammar
//!   policing itself.
//!
//! Suppression grammar: `// lint:allow(rule[, rule]): reason` on the
//! same line as the finding or the line(s) directly above it. The reason
//! is mandatory — an unexplained exception is itself a finding — and an
//! allow that suppresses nothing is reported so stale annotations cannot
//! accumulate.

use crate::scan::{find_word, line_of, line_starts, scan, test_regions, ScannedFile};

/// One rule: its `lint:allow` name and a one-line description
/// (`ups-lint --list`).
pub struct RuleInfo {
    /// Name as used in findings and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line description.
    pub desc: &'static str,
    /// May a `lint:allow` suppress it?
    pub suppressible: bool,
}

/// Every rule, in the order `--list` prints them.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "wall-clock",
        desc:
            "Instant/SystemTime in determinism scope — replay must be a pure function of the seed",
        suppressible: true,
    },
    RuleInfo {
        name: "hash-container",
        desc: "HashMap/HashSet in determinism scope — iteration order can leak into traces/records",
        suppressible: true,
    },
    RuleInfo {
        name: "atomic-ordering",
        desc:
            "non-Relaxed atomic ordering — the workspace's atomics are counters/flags, Relaxed-only",
        suppressible: true,
    },
    RuleInfo {
        name: "ps-narrowing",
        desc: "`as_ps() as <narrow>` — u64 picoseconds overflow i64/f64; widen to i128/u128",
        suppressible: true,
    },
    RuleInfo {
        name: "unsafe-audit",
        desc: "`unsafe` without a `// SAFETY:` comment directly above it",
        suppressible: true,
    },
    RuleInfo {
        name: "panic-path",
        desc:
            "unwrap/expect/panic!/computed index in hot-path crates — handle it, or annotate why it cannot fire",
        suppressible: true,
    },
    RuleInfo {
        name: "bad-suppression",
        desc: "malformed lint:allow — unknown rule, missing `: reason`, or unknown lint: directive",
        suppressible: false,
    },
    RuleInfo {
        name: "unused-suppression",
        desc: "lint:allow that suppressed nothing — stale annotations must not accumulate",
        suppressible: false,
    },
];

/// Look a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// How a file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code of a determinism-scoped crate: all rules, with
    /// `#[cfg(test)]` regions exempt from the determinism rules.
    Determinism,
    /// Library code outside determinism scope (vendored stand-ins, the
    /// bench harness): general rules only (unsafe-audit, atomic-ordering).
    General,
    /// Tests/benches/examples: general rules only.
    TestOnly,
}

/// One finding. Ordered by `(path, line, rule)` for deterministic output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Render as `path:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Integer types (plus floats) that cannot represent every u64
/// picosecond count.
const NARROW_TYPES: &[&str] = &[
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
];

/// A parsed `lint:allow` annotation.
struct Allow {
    rules: Vec<String>,
    /// Lines it covers: the comment's own lines plus the next code line.
    lines: Vec<usize>,
    comment_line: usize,
    used: bool,
}

/// Run every applicable rule over one file.
pub fn check_file(path: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let scanned = scan(src);
    let starts = line_starts(&scanned.code);
    let tests = test_regions(&scanned.code);
    let in_test = |line: usize| tests.iter().any(|&(a, b)| line >= a && line <= b);
    let code_lines: Vec<&str> = scanned.code.lines().collect();
    let line_text = |line: usize| code_lines.get(line - 1).copied().unwrap_or("");
    let is_use_line = |line: usize| {
        let t = line_text(line).trim_start();
        t.starts_with("use ") || t.starts_with("pub use ")
    };

    let mut findings = Vec::new();
    let mut f = |line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    // --- General rules: every class. ---
    for word in ["SeqCst", "Acquire", "Release", "AcqRel"] {
        for at in find_word(&scanned.code, word) {
            let line = line_of(&starts, at);
            f(
                line,
                "atomic-ordering",
                format!(
                    "Ordering::{word}: this workspace's atomics are Relaxed-only counters/flags"
                ),
            );
        }
    }
    for at in find_word(&scanned.code, "unsafe") {
        let line = line_of(&starts, at);
        let has_safety = scanned
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 3 >= line);
        if !has_safety {
            f(
                line,
                "unsafe-audit",
                "`unsafe` without a `// SAFETY:` comment directly above it".to_string(),
            );
        }
    }

    // --- Determinism rules: library code of determinism-scoped crates,
    // outside #[cfg(test)] regions, `use` lines exempt (the import is
    // not the hazard; the annotated/converted use site is). ---
    if class == FileClass::Determinism {
        for word in ["Instant", "SystemTime"] {
            for at in find_word(&scanned.code, word) {
                let line = line_of(&starts, at);
                if in_test(line) || is_use_line(line) {
                    continue;
                }
                f(
                    line,
                    "wall-clock",
                    format!("{word} in determinism scope: wall time must not influence simulation state"),
                );
            }
        }
        for word in ["HashMap", "HashSet"] {
            for at in find_word(&scanned.code, word) {
                let line = line_of(&starts, at);
                if in_test(line) || is_use_line(line) {
                    continue;
                }
                f(
                    line,
                    "hash-container",
                    format!("{word} in determinism scope: use BTreeMap/BTreeSet or annotate why iteration order never escapes"),
                );
            }
        }
        for at in find_word(&scanned.code, "as_ps") {
            let line = line_of(&starts, at);
            if in_test(line) {
                continue;
            }
            if let Some(ty) = narrowing_cast_after(&scanned.code, at + "as_ps".len()) {
                f(
                    line,
                    "ps-narrowing",
                    format!("as_ps() as {ty}: u64 picoseconds do not fit {ty}; widen to i128/u128 or annotate the bound"),
                );
            }
        }
    }

    // --- panic-path: hot-path crates where a stray panic kills a
    // whole sweep job. `#[cfg(test)]` regions exempt. ---
    let in_panic_scope = crate::PANIC_PATH_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if in_panic_scope {
        for needle in [".unwrap()", ".expect(", "panic!("] {
            for (at, _) in scanned.code.match_indices(needle) {
                // `panic!` must be its own token — `sweep_panic!(...)`
                // or a method named `..._expect(` is not this macro.
                if needle == "panic!("
                    && scanned.code[..at]
                        .chars()
                        .next_back()
                        .is_some_and(crate::scan::is_ident_char)
                {
                    continue;
                }
                let line = line_of(&starts, at);
                if in_test(line) {
                    continue;
                }
                let what = needle.trim_start_matches('.').trim_end_matches('(');
                f(
                    line,
                    "panic-path",
                    format!(
                        "{what} in a hot-path crate: handle the failure, or annotate why it cannot fire"
                    ),
                );
            }
        }
        for at in computed_index_sites(&scanned.code) {
            let line = line_of(&starts, at);
            if in_test(line) {
                continue;
            }
            f(
                line,
                "panic-path",
                "computed index in a hot-path crate: out-of-bounds panics here kill the sweep job — use get()/iterators, or annotate the bound".to_string(),
            );
        }
    }

    // --- Suppressions. ---
    let (mut allows, mut bad) = parse_allows(path, &scanned, &code_lines);
    findings.retain(|fi| {
        let rule = rule_by_name(fi.rule).expect("engine emits known rules");
        if !rule.suppressible {
            return true;
        }
        // When several allows cover the line (a trailing allow on the
        // previous line also reaches this one), credit the nearest —
        // otherwise its own annotation reads as unused.
        let best = allows
            .iter_mut()
            .filter(|a| a.rules.iter().any(|r| r == fi.rule) && a.lines.contains(&fi.line))
            .max_by_key(|a| a.comment_line);
        match best {
            Some(a) => {
                a.used = true;
                false
            }
            None => true,
        }
    });
    for a in &allows {
        if !a.used {
            bad.push(Finding {
                path: path.to_string(),
                line: a.comment_line,
                rule: "unused-suppression",
                message: format!(
                    "lint:allow({}) suppressed nothing — remove the stale annotation",
                    a.rules.join(", ")
                ),
            });
        }
    }
    findings.append(&mut bad);
    findings.sort();
    findings
}

/// After the `as_ps` token at `end`: does `() as <narrow-type>` follow?
fn narrowing_cast_after(code: &str, end: usize) -> Option<&'static str> {
    let bytes = code.as_bytes();
    let mut i = end;
    let mut eat = |expect: u8| -> bool {
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == expect {
            i += 1;
            true
        } else {
            false
        }
    };
    if !eat(b'(') || !eat(b')') {
        return None;
    }
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    if !code[i..].starts_with("as") {
        return None;
    }
    i += 2;
    if i >= bytes.len() || !(bytes[i] as char).is_whitespace() {
        return None; // `aside`, etc.
    }
    while i < bytes.len() && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    let rest = &code[i..];
    NARROW_TYPES
        .iter()
        .find(|t| {
            rest.starts_with(**t)
                && !rest[t.len()..]
                    .chars()
                    .next()
                    .is_some_and(crate::scan::is_ident_char)
        })
        .copied()
}

/// Byte offsets of `[` brackets that index with a *computed* expression.
///
/// An index site is a `[` whose directly-preceding byte (no whitespace
/// allowed — `let [a, b] = …` patterns and slice literals sit after
/// whitespace or punctuation) is an identifier character, `)` or `]`,
/// and whose bracketed content contains arithmetic (`+ - * / %`) or a
/// call (`(`). Plain `x[i]` lookups are left alone: the hazard the rule
/// targets is an index *derived* at the use site, where an off-by-one
/// panics mid-sweep.
fn computed_index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !(crate::scan::is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        // Attribute `#[...]` never reaches here (preceded by `#`), and a
        // type like `Vec<[u8; 4]>` is preceded by `<`.
        let mut depth = 0usize;
        let mut close = None;
        for (j, &bj) in bytes.iter().enumerate().skip(i) {
            match bj {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(close) = close else { continue };
        let content = &code[i + 1..close];
        if content.contains(['+', '-', '*', '/', '%', '(']) {
            out.push(i);
        }
    }
    out
}

/// Parse every `lint:` directive in the file's comments into allows and
/// `bad-suppression` findings.
fn parse_allows(
    path: &str,
    scanned: &ScannedFile,
    code_lines: &[&str],
) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    let next_code_line = |after: usize| -> Option<usize> {
        ((after + 1)..=code_lines.len()).find(|&l| !code_lines[l - 1].trim().is_empty())
    };
    for c in &scanned.comments {
        if let Some((off, directive)) = lint_directive(&c.text) {
            let at_line = c.start_line + c.text[..off].matches('\n').count();
            let mut err = |msg: String| {
                bad.push(Finding {
                    path: path.to_string(),
                    line: at_line,
                    rule: "bad-suppression",
                    message: msg,
                });
            };
            match directive {
                Directive::Unknown(word) => {
                    err(format!(
                        "unknown lint directive `lint:{word}` — expected lint:allow(rule): reason"
                    ));
                }
                Directive::Allow { args, reason } => {
                    let mut rules = Vec::new();
                    let mut ok = true;
                    for name in args.split(',').map(str::trim) {
                        match rule_by_name(name) {
                            Some(r) if r.suppressible => rules.push(name.to_string()),
                            Some(_) => {
                                err(format!("rule `{name}` cannot be suppressed"));
                                ok = false;
                            }
                            None => {
                                err(format!(
                                    "unknown rule `{name}` in lint:allow (see ups-lint --list)"
                                ));
                                ok = false;
                            }
                        }
                    }
                    if reason.trim().is_empty() {
                        err(
                            "lint:allow without a reason — write `lint:allow(rule): why it is safe`"
                                .to_string(),
                        );
                        ok = false;
                    }
                    if ok && !rules.is_empty() {
                        let mut lines: Vec<usize> = (c.start_line..=c.end_line).collect();
                        if let Some(next) = next_code_line(c.end_line) {
                            lines.push(next);
                        }
                        allows.push(Allow {
                            rules,
                            lines,
                            comment_line: at_line,
                            used: false,
                        });
                    }
                }
            }
        }
    }
    (allows, bad)
}

enum Directive {
    Allow { args: String, reason: String },
    Unknown(String),
}

/// The `lint:` directive a comment carries, if any, with its byte
/// offset. A directive must be **start-anchored**: only comment
/// delimiters (`/`, `*`, `!`) and whitespace may precede `lint:`, so
/// prose *describing* the grammar (like this crate's own docs) never
/// parses as an annotation.
fn lint_directive(text: &str) -> Option<(usize, Directive)> {
    let at = text.find("lint:")?;
    if !text[..at]
        .chars()
        .all(|c| c == '/' || c == '*' || c == '!' || c.is_whitespace())
    {
        return None;
    }
    let rest = &text[at + "lint:".len()..];
    let word: String = rest.chars().take_while(|c| c.is_alphabetic()).collect();
    let after_word = &rest[word.len()..];
    let directive = match word.as_str() {
        "allow" if after_word.starts_with('(') => match after_word.find(')') {
            Some(close) => {
                let args = after_word[1..close].to_string();
                let reason = after_word[close + 1..]
                    .strip_prefix(':')
                    .map(|r| r.lines().next().unwrap_or("").to_string())
                    .unwrap_or_default();
                Directive::Allow { args, reason }
            }
            None => Directive::Unknown("allow".into()),
        },
        "allow" => Directive::Unknown(word),
        // `lint:verb(...)` with an unknown verb is a typo'd directive,
        // not prose — surfacing it beats silently ignoring it.
        _ if !word.is_empty() && after_word.starts_with('(') => Directive::Unknown(word),
        _ => return None, // prose ("lint: pass") — not a directive
    };
    Some((at, directive))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(src: &str) -> Vec<Finding> {
        check_file("x.rs", src, FileClass::Determinism)
    }

    #[test]
    fn wall_clock_flags_instant_and_systemtime() {
        let f = det("fn f() { let t = Instant::now(); let s = SystemTime::now(); }\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == "wall-clock"));
    }

    #[test]
    fn use_lines_and_tests_are_exempt() {
        let src =
            "use std::time::Instant;\n#[cfg(test)]\nmod tests {\n fn t() { Instant::now(); }\n}\n";
        assert!(det(src).is_empty());
    }

    #[test]
    fn hash_container_flags_types_not_prose_or_strings() {
        let src = "// a HashMap in prose\nfn f() { let s = \"HashMap\"; let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let f = det(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "hash-container" && x.line == 2));
    }

    #[test]
    fn atomic_ordering_applies_to_all_classes() {
        let src = "fn f() { X.store(1, Ordering::SeqCst); }\n";
        assert_eq!(check_file("x.rs", src, FileClass::TestOnly).len(), 1);
        assert_eq!(check_file("x.rs", src, FileClass::General).len(), 1);
    }

    #[test]
    fn ps_narrowing_catches_narrow_not_wide() {
        let f = det("fn f(t: SimTime) { let a = t.as_ps() as f64; let b = t.as_ps() as i128; }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ps-narrowing");
        assert!(f[0].message.contains("f64"));
    }

    #[test]
    fn ps_narrowing_spans_line_breaks() {
        let f = det("fn f(t: SimTime) { let a = t.as_ps()\n    as u32; }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bare = "fn f() { unsafe { g(); } }\n";
        let f = check_file("x.rs", bare, FileClass::General);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unsafe-audit");
        let ok = "// SAFETY: g has no preconditions\nfn f() { unsafe { g(); } }\n";
        assert!(check_file("x.rs", ok, FileClass::General).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_counts_as_used() {
        let src = "// lint:allow(wall-clock): timing excluded from the record surface\nfn f() { let t = Instant::now(); }\n";
        assert!(det(src).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses_its_own_line() {
        let src =
            "fn f() { let t = Instant::now(); } // lint:allow(wall-clock): progress display only\n";
        assert!(det(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding_and_does_not_suppress() {
        let src = "// lint:allow(wall-clock)\nfn f() { let t = Instant::now(); }\n";
        let f = det(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "bad-suppression"));
        assert!(f.iter().any(|x| x.rule == "wall-clock"));
    }

    #[test]
    fn allow_for_unknown_rule_is_a_finding() {
        let src = "// lint:allow(wallclock): typo\nfn f() {}\n";
        let f = det(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bad-suppression");
        assert!(f[0].message.contains("wallclock"));
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint:allow(wall-clock): nothing here uses a clock\nfn f() {}\n";
        let f = det(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unused-suppression");
    }

    #[test]
    fn multi_rule_allow_suppresses_both() {
        let src = "// lint:allow(wall-clock, hash-container): both intentional here\nfn f() { let t = (Instant::now(), HashMap::<u8, u8>::new()); }\n";
        assert!(det(src).is_empty());
    }

    #[test]
    fn prose_mentioning_lint_colon_is_not_a_directive() {
        let src = "// ups-lint: a lint: pass over the workspace\nfn f() {}\n";
        assert!(det(src).is_empty());
    }

    #[test]
    fn a_stale_schema_annotation_is_an_unknown_directive() {
        let f = det("// lint:schema(x/v1)\nfn to_json() {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].line, f[0].rule), (1, "bad-suppression"));
        assert!(f[0]
            .message
            .contains("unknown lint directive `lint:schema`"));
    }

    #[test]
    fn mid_comment_allow_is_prose_not_annotation() {
        // Docs *describing* the grammar must not register (or count as
        // unused) — only start-anchored directives are annotations.
        let src = "// write `lint:allow(wall-clock): why` above the line\nfn f() {}\n";
        assert!(det(src).is_empty());
    }

    fn hot(src: &str) -> Vec<Finding> {
        check_file("crates/netsim/src/sim.rs", src, FileClass::Determinism)
    }

    #[test]
    fn panic_path_flags_unwrap_expect_panic() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }\n";
        let f = hot(src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "panic-path"));
    }

    #[test]
    fn panic_path_skips_lookalikes_and_tests() {
        let src = "fn f() { x.unwrap_or(0); y.expect_err(\"m\"); sweep_panic!(1); }\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); panic!(\"ok in tests\"); }\n}\n";
        assert!(hot(src).is_empty(), "{:?}", hot(src));
    }

    #[test]
    fn panic_path_flags_computed_index_not_plain_lookup() {
        let src = "fn f() { let a = xs[i]; let b = xs[i + 1]; let c = xs[idx(k)]; }\n";
        let f = hot(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("computed index")));
    }

    #[test]
    fn panic_path_ignores_patterns_literals_and_attributes() {
        let src =
            "#[derive(Clone)]\nfn f(v: [u64; 4]) { let [a, b] = split(v); let w = [x + 1, 2]; }\n";
        assert!(hot(src).is_empty(), "{:?}", hot(src));
    }

    #[test]
    fn panic_path_suppression_covers_the_next_code_line() {
        let src = "// lint:allow(panic-path): ring index is masked to capacity above\nfn f() { let x = ring[head % cap]; }\n";
        assert!(hot(src).is_empty());
    }

    #[test]
    fn findings_are_sorted_and_deterministic() {
        let src =
            "fn f() { let a = HashMap::<u8,u8>::new(); }\nfn g() { let t = Instant::now(); }\n";
        let a = det(src);
        let b = det(src);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
