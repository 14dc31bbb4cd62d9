//! The determinism rules no rustc or clippy lint expresses (DESIGN.md
//! §13): `atomic-ordering` (no `SeqCst`/`Acquire`/`Release`/`AcqRel`),
//! `ps-narrowing` (no `as_ps() as <narrower type>` in library code outside
//! `crates/netsim/src/time.rs`) and `panic-path` (no computed index such as
//! `xs[i + 1]` in `ups-core`/`ups-netsim` library code). An exception is a
//! `// lint:allow(<rule>): <reason>` comment on the flagged line or alone
//! above it; a reasonless, unknown or unused one fails. The last test
//! checks that no crate leaves the toolchain's rules by omission.

use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const RULES: [&str; 3] = ["atomic-ordering", "ps-narrowing", "panic-path"];
const ORDERINGS: [&str; 4] = ["SeqCst", "Acquire", "Release", "AcqRel"];
const CLOCKS_AND_HASHES: [&str; 4] = ["Instant", "SystemTime", "HashMap", "HashSet"];
const NARROW: &str = "u8 u16 u32 usize i8 i16 i32 i64 isize f32 f64";

/// One source line: code (comments cut, literals emptied), comment, test.
#[derive(Default)]
struct Line {
    code: String,
    comment: String,
    test: bool,
}

/// Split `src` into lines; a string keeps one quote, a char literal none.
fn lex(src: &str) -> Vec<Line> {
    let c: Vec<char> = src.chars().collect();
    let mut lines = vec![Line::default()];
    let (mut i, mut block) = (0, 0);
    while i < c.len() {
        let at = |k: usize| c.get(i + k).copied().unwrap_or(' ');
        let hashes = c[i + 1..].iter().take_while(|&&x| x == '#').count();
        let raw = (c[i] == 'r' && at(hashes + 1) == '"').then_some(hashes);
        let l = lines.last_mut().expect("a current line");
        match c[i] {
            '\n' => lines.push(Line::default()),
            '*' if block > 0 && at(1) == '/' => (block, i) = (block - 1, i + 1),
            '/' if at(1) == '*' => (block, i) = (block + 1, i + 1),
            _ if block > 0 => {}
            '/' if at(1) == '/' => {
                l.comment = c[i..].iter().take_while(|&&x| x != '\n').collect();
                i += l.comment.chars().count() - 1;
            }
            '\'' if at(1) == '\\' || at(2) == '\'' => {
                let skip = if at(1) == '\\' { 3 } else { 2 };
                i += skip + c[i + skip..].iter().position(|&x| x == '\'').unwrap_or(0);
            }
            ch if ch == '"' || raw.is_some() => {
                l.code.push('"');
                i += raw.map_or(1, |h| h + 2);
                while i < c.len() {
                    let hashes = c[i + 1..].iter().take_while(|&&x| x == '#').count();
                    match c[i] {
                        '\\' if raw.is_none() && c.get(i + 1) != Some(&'\n') => i += 1,
                        '"' if hashes >= raw.unwrap_or(0) => break,
                        '\n' => lines.push(Line::default()),
                        _ => {}
                    }
                    i += 1;
                }
                i += raw.unwrap_or(0);
            }
            ch => l.code.push(ch),
        }
        i += 1;
    }
    mark_tests(&mut lines);
    lines
}

/// Flag the lines of each item under `#[cfg(test)]`.
fn mark_tests(lines: &mut [Line]) {
    let (mut depth, mut start) = (0, None);
    for l in lines.iter_mut() {
        start = start.or((l.code.trim() == "#[cfg(test)]").then_some(depth));
        l.test = start.is_some();
        depth += l.code.matches('{').count() as i64 - l.code.matches('}').count() as i64;
        let closes = l.code.contains('}') || l.code.trim_end().ends_with(';');
        start = start.filter(|&s| s != depth || !closes);
    }
}

fn is_ident(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_'
}

/// Whether `word` stands alone somewhere in `text`.
fn has(text: &str, word: &str) -> bool {
    let alone = |(at, _): (usize, &str)| {
        !text[..at].ends_with(is_ident) && !text[at + word.len()..].starts_with(is_ident)
    };
    text.match_indices(word).any(alone)
}

/// Whether an `as_ps()` in `text[..len]` is cast narrower, maybe on the next line.
fn narrows(text: &str, len: usize) -> bool {
    text.match_indices("as_ps()").any(|(at, call)| {
        let cast = text[at + call.len()..].trim_start().strip_prefix("as ");
        let ty = cast.unwrap_or("").trim_start();
        let fits = |t: &str| ty.starts_with(t) && !ty[t.len()..].starts_with(is_ident);
        at < len && NARROW.split(' ').any(fits)
    })
}

/// Whether a `[` in `text[..len]` indexes with arithmetic or a call.
fn computed_index(text: &str, len: usize) -> bool {
    let b = text.as_bytes();
    let opens =
        |&at: &usize| b[at] == b'[' && (is_ident(b[at - 1] as char) || b")]".contains(&b[at - 1]));
    (1..len).filter(opens).any(|at| {
        let mut depth = 0;
        let close = |ch: char| {
            depth += i32::from(ch == '[') - i32::from(ch == ']');
            depth == 0
        };
        let inner = text[at..].split(close).next().unwrap_or("");
        inner.contains(['+', '-', '*', '/', '%', '('])
    })
}

/// Every finding in one file, as `path:line: [rule] message`.
fn check(path: &str, src: &str) -> Vec<String> {
    let lines = lex(src);
    let in_crate = |c: &str| path.starts_with(&format!("crates/{c}/src/"));
    let hot = in_crate("core") || in_crate("netsim");
    let facade = path.starts_with("src/");
    let outside = ["bench", "proptest", "rand"].into_iter().any(in_crate);
    let library = facade || path.starts_with("crates/") && path.contains("/src/") && !outside;
    let narrowing = library && path != "crates/netsim/src/time.rs";
    let mut out = Vec::new();
    let mut allows = Vec::new();
    for (line, l) in (1..).zip(&lines) {
        let text = l.comment.trim_start_matches(['/', '!', ' ']);
        let Some((verb, args)) = text.strip_prefix("lint:").and_then(|d| d.split_once('(')) else {
            continue;
        };
        let (names, reason) = args.split_once(')').unwrap_or((args, ""));
        let names: Vec<&str> = names.split(',').map(str::trim).collect();
        let reasoned = !reason.strip_prefix(':').unwrap_or("").trim().is_empty();
        let problem = match (verb, names.iter().all(|r| RULES.contains(r)), reasoned) {
            ("allow", true, true) => {
                let code = |k: &usize| !lines[k - 1].code.trim().is_empty();
                let covered = (line..=lines.len()).find(code).unwrap_or(0);
                allows.push((line, covered, names, false));
                continue;
            }
            ("allow", true, false) => "lint:allow without a reason",
            _ if !verb.chars().all(char::is_alphabetic) => continue,
            _ => "unknown rule or directive",
        };
        out.push(format!("{path}:{line}: [bad-suppression] {problem}"));
    }
    for (line, l) in (1..).zip(&lines) {
        let joined = format!("{} {}", l.code, lines.get(line).map_or("", |l| &l.code));
        let mut hit = |r: &str, msg: Option<&str>| {
            let Some(msg) = msg else { return };
            let allow = allows.iter_mut().find(|a| a.1 == line && a.2.contains(&r));
            match allow {
                Some(allow) => allow.3 = true,
                None => out.push(format!("{path}:{line}: [{r}] {msg}")),
            }
        };
        let word = |set: [&'static str; 4]| set.into_iter().find(|w| has(&l.code, w));
        let clock = word(CLOCKS_AND_HASHES).filter(|_| facade && !l.test);
        let narrowed = !l.test && narrowing && narrows(&joined, l.code.len());
        let indexed = !l.test && hot && computed_index(&joined, l.code.len());
        hit("atomic-ordering", word(ORDERINGS));
        hit("ps-narrowing", narrowed.then_some("as_ps() narrowed"));
        hit("panic-path", indexed.then_some("computed index: use get()"));
        hit("facade", clock);
    }
    for (line, _, names, _) in allows.iter().filter(|a| !a.3) {
        let names = names.join(",");
        out.push(format!("{path}:{line}: [unused-suppression] {names}"));
    }
    out
}

/// Every `.rs` file under `dir` with its repository-relative path.
fn sources(dir: &Path, out: &mut Vec<(String, String)>) {
    let mut paths: Vec<_> = fs::read_dir(dir).into_iter().flatten().flatten().collect();
    paths.sort_by_key(|e| e.path());
    for p in paths.iter().map(|e| e.path()) {
        if p.is_dir() && !p.ends_with("target") {
            sources(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p.to_string_lossy()[ROOT.len() + 1..].replace('\\', "/");
            out.push((rel, fs::read_to_string(&p).expect("a readable source")));
        }
    }
}

#[test]
fn the_workspace_keeps_the_source_rules() {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates"] {
        sources(&Path::new(ROOT).join(dir), &mut files);
    }
    assert!(files.len() > 100, "only {} source files found", files.len());
    let findings: Vec<String> = files.iter().flat_map(|(p, s)| check(p, s)).collect();
    assert!(findings.is_empty(), "findings:\n{}", findings.join("\n"));
}

#[test]
fn each_rule_fires_on_a_seeded_violation() {
    let src = "fn f(t: SimTime, xs: &[u8], i: usize) {\n    X.store(1, Ordering::SeqCst);\n    let a = t.as_ps()\n        as f64;\n    let b = xs[i + 1];\n    let c = xs[i]; // lint: plain lookups pass (no index math)\n    // lint:allow(panic-path): bounded by the caller\n    let d = xs[len(i)];\n    let e = xs[i - 1]; // lint:allow(panic-path)\n    // lint:allow(ps-narrowing): stale\n    let s = \"xs[i + 1] as_ps() as u8 \\\"SeqCst\"; // Acquire\n    let r = r#\"xs[\"#; let q = '\"'; let z = ['[', '\\'', 'x']; let r#type = br\"xs[\";\n    // lint:allow(wall-clock): moved to clippy\n    // lint:expect(panic-path): wrong verb\n}\n#[cfg(test)]\nmod tests {\n    fn t(xs: &[u8]) -> u8 { xs[1 + 1] }\n}\n/* xs[i + 1] /* nested */ SeqCst */ fn g() -> u64 { t.as_ps() as u128 }\n// lint:allow(panic-path): nothing follows";
    let expected = "x.rs:9: [bad-suppression] lint:allow without a reason\n\
        x.rs:13: [bad-suppression] unknown rule or directive\n\
        x.rs:14: [bad-suppression] unknown rule or directive\n\
        x.rs:2: [atomic-ordering] SeqCst\nx.rs:3: [ps-narrowing] as_ps() narrowed\n\
        x.rs:5: [panic-path] computed index: use get()\n\
        x.rs:9: [panic-path] computed index: use get()\n\
        x.rs:10: [unused-suppression] ps-narrowing\nx.rs:21: [unused-suppression] panic-path";
    let got = check("crates/netsim/src/x.rs", src).join("\n");
    assert_eq!(got.replace("crates/netsim/src/", ""), expected);
    assert!(check("crates/sweep/src/x.rs", "fn f() -> u8 { xs[i + 1] }").is_empty());
    assert!(check("crates/netsim/src/time.rs", "let x = t.as_ps() as f64;").is_empty());
    assert!(!check("src/lib.rs", "use std::collections::HashMap;").is_empty());
}

fn read(path: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifest = read("Cargo.toml");
    let list = manifest.split("members = [").nth(1).unwrap_or("");
    let list = &list[..list.find(']').unwrap_or(0)];
    let members: Vec<&str> = list.split('"').skip(1).step_by(2).collect();
    assert!(members.len() > 10, "{members:?}");
    for dir in members.into_iter().chain(["."]) {
        let lints = read(&format!("{dir}/Cargo.toml")).contains("\n[lints]\nworkspace = true\n");
        assert!(lints, "{dir} does not inherit the workspace lints");
    }
    let table = "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n\n[workspace.lints.clippy]\nallow_attributes = \"deny\"\nallow_attributes_without_reason = \"deny\"\n";
    assert!(manifest.contains(table), "the workspace lint table changed");
    let clippy = read("crates/clippy.toml");
    for ty in ["Instant", "SystemTime", "HashMap", "HashSet"] {
        assert!(clippy.contains(&format!("::{ty}\"")), "allows {ty}");
    }
    let panics = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    for lib in ["crates/core/src/lib.rs", "crates/netsim/src/lib.rs"] {
        assert!(read(lib).contains(panics), "{lib} lacks the panic lints");
    }
}
