//! The comment- and string-aware source scanner.
//!
//! Every rule in this crate works on *blanked code*: the original source
//! with the contents of comments, string literals and char literals
//! replaced by spaces (newlines preserved, so byte offsets map to the
//! original line numbers). That way a rule searching for `HashMap` or
//! `Instant` never matches prose in a doc comment or a key inside a JSON
//! format string. The scanner also keeps the comments it blanked: they
//! feed the `lint:allow` / `// SAFETY:` grammar.
//!
//! The grammar subset handled (everything this workspace uses):
//!
//! * line comments `//…` (incl. `///`, `//!`),
//! * block comments `/* … */` with **nesting**,
//! * string literals `"…"` with `\"`/`\\` escapes,
//! * raw strings `r"…"`, `r#"…"#`, … (any hash count) — but not raw
//!   identifiers (`r#type` stays code),
//! * byte strings `b"…"`, `br#"…"#`, byte chars `b'x'`,
//! * char literals `'x'`, `'\n'`, `'\''`, `'\u{1F600}'`,
//! * lifetimes `'a`, `'static`, `'_` — which stay code, not literals.

/// One comment, with the line span it occupies (1-based, inclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Line the comment starts on.
    pub start_line: usize,
    /// Line the comment ends on (same as `start_line` for `//`).
    pub end_line: usize,
    /// Full comment text, delimiters included.
    pub text: String,
}

/// A scanned source file.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// The source with comment/literal contents blanked to spaces.
    /// Same length and line structure as the input.
    pub code: String,
    /// Every comment, in source order.
    pub comments: Vec<Comment>,
}

/// Scan `src` into blanked code plus its captured comments.
pub fn scan(src: &str) -> ScannedFile {
    let chars: Vec<char> = src.chars().collect();
    let mut code = String::with_capacity(src.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Push a blanked char: newlines survive (line structure), everything
    // else becomes a space.
    fn blank(code: &mut String, line: &mut usize, c: char) {
        if c == '\n' {
            code.push('\n');
            *line += 1;
        } else {
            code.push(' ');
        }
    }
    fn keep(code: &mut String, line: &mut usize, c: char) {
        code.push(c);
        if c == '\n' {
            *line += 1;
        }
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Line comment.
        if c == '/' && next == Some('/') {
            let start_line = line;
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                blank(&mut code, &mut line, chars[i]);
                i += 1;
            }
            comments.push(Comment {
                start_line,
                end_line: start_line,
                text,
            });
            continue;
        }

        // Block comment, nesting-aware.
        if c == '/' && next == Some('*') {
            let start_line = line;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < chars.len() {
                let c = chars[i];
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    depth += 1;
                    text.push('/');
                    text.push('*');
                    blank(&mut code, &mut line, '/');
                    blank(&mut code, &mut line, '*');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    depth -= 1;
                    text.push('*');
                    text.push('/');
                    blank(&mut code, &mut line, '*');
                    blank(&mut code, &mut line, '/');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(c);
                    blank(&mut code, &mut line, c);
                    i += 1;
                }
            }
            comments.push(Comment {
                start_line,
                end_line: line,
                text,
            });
            continue;
        }

        // Raw (byte) strings: r"…", r#"…"#, br"…", br##"…"## — only when
        // the `r` does not continue an identifier (`for`, `attr`), and
        // not raw identifiers (`r#type`).
        let prev_is_ident = i > 0 && is_ident_char(chars[i - 1]);
        let raw_start = if c == 'r' && !prev_is_ident {
            Some(i + 1)
        } else if c == 'b' && next == Some('r') && !prev_is_ident {
            Some(i + 2)
        } else {
            None
        };
        if let Some(after_r) = raw_start {
            let mut j = after_r;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                let hashes = j - after_r;
                // Prefix (r/br + hashes + quote) stays code.
                for &ch in &chars[i..=j] {
                    keep(&mut code, &mut line, ch);
                }
                i = j + 1;
                // Scan to `"` followed by `hashes` hashes.
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut h = 0usize;
                        while h < hashes && chars.get(i + 1 + h) == Some(&'#') {
                            h += 1;
                        }
                        if h == hashes {
                            for &ch in &chars[i..=i + hashes] {
                                keep(&mut code, &mut line, ch);
                            }
                            i += hashes + 1;
                            break 'raw;
                        }
                    }
                    blank(&mut code, &mut line, chars[i]);
                    i += 1;
                }
                continue;
            }
            // Not a raw string (raw identifier or plain `r`): fall through.
        }

        // Normal / byte string literal.
        if c == '"' || (c == 'b' && next == Some('"') && !prev_is_ident) {
            if c == 'b' {
                keep(&mut code, &mut line, 'b');
                i += 1;
            }
            keep(&mut code, &mut line, '"');
            i += 1;
            while i < chars.len() {
                let c = chars[i];
                if c == '\\' {
                    blank(&mut code, &mut line, c);
                    i += 1;
                    if i < chars.len() {
                        blank(&mut code, &mut line, chars[i]);
                        i += 1;
                    }
                    continue;
                }
                if c == '"' {
                    keep(&mut code, &mut line, '"');
                    i += 1;
                    break;
                }
                blank(&mut code, &mut line, c);
                i += 1;
            }
            continue;
        }

        // Char literal vs lifetime. Byte char `b'x'` reduces to the same
        // case once the `b` is emitted as code.
        if c == '\'' {
            let is_char_literal = match next {
                Some('\\') => true,
                // 'x' — exactly one char then a closing quote. A
                // lifetime ('a, 'static, '_) has an ident char stream
                // with no closing quote.
                Some(ch) => chars.get(i + 2) == Some(&'\'') && ch != '\'',
                None => false,
            };
            if is_char_literal {
                keep(&mut code, &mut line, '\'');
                i += 1;
                while i < chars.len() {
                    let c = chars[i];
                    if c == '\\' {
                        blank(&mut code, &mut line, c);
                        i += 1;
                        if i < chars.len() {
                            blank(&mut code, &mut line, chars[i]);
                            i += 1;
                        }
                        continue;
                    }
                    if c == '\'' {
                        keep(&mut code, &mut line, '\'');
                        i += 1;
                        break;
                    }
                    blank(&mut code, &mut line, c);
                    i += 1;
                }
                continue;
            }
            // Lifetime: the quote and the following identifier are code.
            keep(&mut code, &mut line, '\'');
            i += 1;
            continue;
        }

        keep(&mut code, &mut line, c);
        i += 1;
    }

    ScannedFile { code, comments }
}

/// Is `c` part of an identifier?
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offset → 1-based line number table for a blanked-code string.
pub fn line_starts(code: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// The 1-based line containing byte offset `off`, given [`line_starts`].
pub fn line_of(starts: &[usize], off: usize) -> usize {
    starts.partition_point(|&s| s <= off)
}

/// Every occurrence of `word` in `code` as a whole word (not embedded in
/// a longer identifier), returned as byte offsets.
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + word.len();
        let after_ok = end >= bytes.len() || !is_ident_char(bytes[end] as char);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Line spans (1-based, inclusive) of `#[cfg(test)]`-gated blocks: from
/// the attribute to the closing brace of the item it gates. Determinism
/// rules skip these — test code may hash and time freely.
pub fn test_regions(code: &str) -> Vec<(usize, usize)> {
    let starts = line_starts(code);
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("#[cfg(test)]") {
        let at = from + pos;
        from = at + 1;
        let Some(open_rel) = code[at..].find('{') else {
            continue;
        };
        let open = at + open_rel;
        let mut depth = 0i64;
        let mut close = code.len() - 1;
        for (j, b) in code[open..].bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + j;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((line_of(&starts, at), line_of(&starts, close)));
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked_and_captured() {
        let s = scan("let x = 1; // HashMap in prose\nlet y = 2;\n");
        assert!(!s.code.contains("HashMap"));
        assert!(s.code.contains("let x = 1;"));
        assert_eq!(s.comments.len(), 1);
        assert_eq!(s.comments[0].start_line, 1);
        assert!(s.comments[0].text.contains("HashMap in prose"));
    }

    #[test]
    fn nested_block_comments_terminate_at_the_outer_close() {
        let s = scan("a /* x /* Instant::now() */ y */ b\n");
        assert!(!s.code.contains("Instant"));
        assert!(s.code.starts_with('a'));
        assert!(s.code.contains('b'), "code after the outer close survives");
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].text.contains("Instant::now()"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let s = scan("x\n/* one\ntwo\nthree */\ny\n");
        assert_eq!(s.comments[0].start_line, 2);
        assert_eq!(s.comments[0].end_line, 4);
        // Line structure preserved.
        assert_eq!(s.code.matches('\n').count(), 5);
    }

    #[test]
    fn string_contents_are_blanked_but_captured() {
        let s = scan(r#"let x = "Instant::now() \" quoted"; y"#);
        // The escaped quote does not close the literal; its delimiters
        // stay code, so the literal keeps its place and width.
        assert_eq!(s.code, r#"let x = "                        "; y"#);
    }

    #[test]
    fn raw_strings_with_hashes_scan_to_the_matching_close() {
        let src = r###"let x = r#"one "quoted" two"#; let y = HashMap::new();"###;
        let s = scan(src);
        assert!(!s.code.contains("quoted"));
        assert!(s.code.starts_with(r##"let x = r#"    "##));
        // Code after the raw string is still scanned.
        assert_eq!(find_word(&s.code, "HashMap").len(), 1);
    }

    #[test]
    fn raw_string_double_hash() {
        let src = "r##\"inner \"# still inside\"##; Instant";
        let s = scan(src);
        assert!(!s.code.contains("inside"));
        assert_eq!(find_word(&s.code, "Instant").len(), 1);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let s = scan(r##"let a = b"bytes"; let b = br#"raw "bytes""#;"##);
        assert!(!s.code.contains("bytes"));
        assert!(s.code.contains(r#"b"     ""#));
        assert!(s.code.contains(r##"br#"           "#"##));
    }

    #[test]
    fn raw_identifiers_stay_code() {
        let src = "let r#type = 1; let x = r#type;";
        assert_eq!(scan(src).code, src);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let s = scan("fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; }");
        // Lifetimes survive as code; char contents are blanked.
        assert!(s.code.contains("<'a>"));
        assert!(s.code.contains("&'a str"));
        assert!(!s.code.contains("'a'"), "char literal content blanked");
        // And scanning continued past both char literals.
        assert!(s.code.trim_end().ends_with('}'));
    }

    #[test]
    fn lifetime_static_not_mistaken_for_char() {
        let src = "fn f(x: &'static str) -> &'static str { x }";
        assert_eq!(scan(src).code, src);
    }

    #[test]
    fn char_with_escape_does_not_derail_scanning() {
        let s = scan(r"let tab = '\t'; let q = '\u{41}'; Instant::now();");
        assert_eq!(find_word(&s.code, "Instant").len(), 1);
    }

    #[test]
    fn quote_in_string_does_not_open_a_char_literal() {
        let s = scan(r#"let x = "it's fine"; HashMap"#);
        assert!(!s.code.contains("fine"));
        assert_eq!(find_word(&s.code, "HashMap").len(), 1);
    }

    #[test]
    fn find_word_respects_identifier_boundaries() {
        let code = "HashMap HashMapX XHashMap a.HashMap::<u8>";
        assert_eq!(find_word(code, "HashMap").len(), 2);
    }

    #[test]
    fn test_region_covers_the_gated_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let s = scan(src);
        assert_eq!(test_regions(&s.code), vec![(2, 5)]);
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let s = scan("let x = \"one\ntwo\";\nInstant\n");
        assert!(!s.code.contains("two"));
        let starts = line_starts(&s.code);
        let at = find_word(&s.code, "Instant")[0];
        assert_eq!(line_of(&starts, at), 3);
    }
}
