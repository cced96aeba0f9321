//! A lightweight Rust lexer: just enough to separate code from comments and
//! string literals, track brace depth, and mark `#[cfg(test)]` regions.
//!
//! hb-lint deliberately does not parse Rust. Every check it runs needs only
//! three facts about a line: what the *code* on it says (with comment text
//! and string contents blanked out so `"panic!"` in a log message is not a
//! panic), what the *comments* on it say (justification grammar lives in
//! comments), and which *string literals* start on it (the metric checks
//! read emitted literals). Token-level fidelity — nested block comments,
//! raw strings with hash fences, byte strings, char literals vs.
//! lifetimes — is required; an AST is not.

/// The lexed view of one source file.
#[derive(Debug)]
pub struct Lexed {
    /// Raw source lines, without trailing newlines (allowlist matching).
    pub raw: Vec<String>,
    /// Per-line code text: comments removed, string/char literal *contents*
    /// replaced by spaces (the delimiting quotes survive so offsets and
    /// token shapes stay recognizable).
    pub code: Vec<String>,
    /// Per-line comment text (all `//`, `///`, `//!` and the slice of any
    /// `/* .. */` that lies on the line, concatenated).
    pub comments: Vec<String>,
    /// Per-line contents of string literals that *start* on the line.
    pub strings: Vec<Vec<String>>,
    /// True for lines inside a `#[cfg(test)]` item (the guarded item's
    /// braces included).
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested block comment depth (Rust block comments nest).
    BlockComment(u32),
    /// Inside `"…"`; the flag is whether a backslash escape is pending.
    Str {
        escape: bool,
    },
    /// Inside `r"…"`/`r#"…"#`; the payload is the hash-fence length.
    RawStr {
        hashes: u32,
    },
}

impl Lexed {
    /// Lexes `source` into per-line code / comment / string views.
    pub fn lex(source: &str) -> Lexed {
        let mut raw = Vec::new();
        let mut code = Vec::new();
        let mut comments = Vec::new();
        let mut strings: Vec<Vec<String>> = Vec::new();

        let mut state = State::Code;
        // The literal currently being accumulated and the line it began on.
        let mut cur_string = String::new();
        let mut cur_string_line = 0usize;

        for (lineno, line) in source.lines().enumerate() {
            raw.push(line.to_string());
            code.push(String::new());
            comments.push(String::new());
            strings.push(Vec::new());

            let bytes: Vec<char> = line.chars().collect();
            let mut i = 0usize;
            // A line comment never spans lines.
            if state == State::LineComment {
                state = State::Code;
            }
            while i < bytes.len() {
                let c = bytes[i];
                let next = bytes.get(i + 1).copied();
                match state {
                    State::Code => match c {
                        '/' if next == Some('/') => {
                            comments[lineno].push_str(&line_tail(&bytes, i + 2));
                            state = State::LineComment;
                            i = bytes.len();
                        }
                        '/' if next == Some('*') => {
                            state = State::BlockComment(1);
                            i += 2;
                        }
                        '"' => {
                            code[lineno].push('"');
                            cur_string.clear();
                            cur_string_line = lineno;
                            state = State::Str { escape: false };
                            i += 1;
                        }
                        'r' | 'b' => {
                            // r"…", r#"…"#, br"…", b"…", b'…' — detect raw
                            // and byte literal openers without consuming
                            // ordinary identifiers that start with r/b.
                            if let Some((hashes, skip)) = raw_string_open(&bytes, i) {
                                for _ in 0..skip {
                                    code[lineno].push(' ');
                                }
                                code[lineno].push('"');
                                cur_string.clear();
                                cur_string_line = lineno;
                                state = State::RawStr { hashes };
                                i += skip + 1;
                            } else if c == 'b' && next == Some('\'') {
                                // Byte char literal: b'x' / b'\n'.
                                code[lineno].push('b');
                                i += 1; // now at the quote; fall through next loop
                            } else if ident_boundary_before(&bytes, i)
                                && c == 'b'
                                && next == Some('"')
                            {
                                // handled by raw_string_open; unreachable
                                i += 1;
                            } else {
                                code[lineno].push(c);
                                i += 1;
                            }
                        }
                        '\'' => {
                            // Char literal vs. lifetime. A char literal is
                            // 'x' or '\…'; a lifetime is '<ident> with no
                            // closing quote right after one char.
                            if next == Some('\\') {
                                // Escaped char literal: consume to closing quote.
                                code[lineno].push('\'');
                                let mut j = i + 2;
                                // Skip the escaped char (and \u{…} bodies).
                                while j < bytes.len() && bytes[j] != '\'' {
                                    code[lineno].push(' ');
                                    j += 1;
                                }
                                if j < bytes.len() {
                                    code[lineno].push('\'');
                                    j += 1;
                                }
                                i = j;
                            } else if bytes.get(i + 2) == Some(&'\'') {
                                // Plain char literal 'x'.
                                code[lineno].push('\'');
                                code[lineno].push(' ');
                                code[lineno].push('\'');
                                i += 3;
                            } else {
                                // Lifetime (or stray quote): keep as code.
                                code[lineno].push('\'');
                                i += 1;
                            }
                        }
                        _ => {
                            code[lineno].push(c);
                            i += 1;
                        }
                    },
                    State::LineComment => unreachable!("consumed at line start"),
                    State::BlockComment(depth) => {
                        if c == '*' && next == Some('/') {
                            state = if depth == 1 {
                                State::Code
                            } else {
                                State::BlockComment(depth - 1)
                            };
                            i += 2;
                        } else if c == '/' && next == Some('*') {
                            state = State::BlockComment(depth + 1);
                            i += 2;
                        } else {
                            comments[lineno].push(c);
                            i += 1;
                        }
                    }
                    State::Str { escape } => {
                        if escape {
                            cur_string.push(c);
                            code[lineno].push(' ');
                            state = State::Str { escape: false };
                            i += 1;
                        } else if c == '\\' {
                            cur_string.push(c);
                            code[lineno].push(' ');
                            state = State::Str { escape: true };
                            i += 1;
                        } else if c == '"' {
                            code[lineno].push('"');
                            strings[cur_string_line].push(std::mem::take(&mut cur_string));
                            state = State::Code;
                            i += 1;
                        } else {
                            cur_string.push(c);
                            code[lineno].push(' ');
                            i += 1;
                        }
                    }
                    State::RawStr { hashes } => {
                        if c == '"' && closes_raw(&bytes, i, hashes) {
                            code[lineno].push('"');
                            for _ in 0..hashes {
                                code[lineno].push(' ');
                            }
                            strings[cur_string_line].push(std::mem::take(&mut cur_string));
                            state = State::Code;
                            i += 1 + hashes as usize;
                        } else {
                            cur_string.push(c);
                            code[lineno].push(' ');
                            i += 1;
                        }
                    }
                }
            }
            // Multi-line strings keep accumulating; record the line break.
            match state {
                State::Str { .. } | State::RawStr { .. } => cur_string.push('\n'),
                _ => {}
            }
        }

        let in_test = mark_test_regions(&code);
        Lexed {
            raw,
            code,
            comments,
            strings,
            in_test,
        }
    }

    /// Number of lines in the file.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when the file has no lines.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }
}

fn line_tail(bytes: &[char], from: usize) -> String {
    bytes[from.min(bytes.len())..].iter().collect()
}

/// Is `bytes[i]` preceded by a non-identifier character (so an `r`/`b` here
/// can open a literal rather than continue an identifier like `attr`)?
fn ident_boundary_before(bytes: &[char], i: usize) -> bool {
    i == 0 || {
        let p = bytes[i - 1];
        !(p.is_alphanumeric() || p == '_')
    }
}

/// Detects `r"`, `r#"`, `br"`, `b"` openers at `i`. Returns the hash-fence
/// length and how many chars precede the opening quote (`r`/`b`/`#`s).
fn raw_string_open(bytes: &[char], i: usize) -> Option<(u32, usize)> {
    if !ident_boundary_before(bytes, i) {
        return None;
    }
    let mut j = i;
    match bytes[j] {
        'b' => {
            j += 1;
            if bytes.get(j) == Some(&'r') {
                j += 1;
            } else if bytes.get(j) == Some(&'"') {
                return Some((0, j - i));
            } else {
                return None;
            }
        }
        'r' => j += 1,
        _ => return None,
    }
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) == Some(&'"') {
        Some((hashes, j - i))
    } else {
        None
    }
}

/// Does the quote at `i` close a raw string with `hashes` fence chars?
fn closes_raw(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Marks every line inside a `#[cfg(test)]`-guarded item. The attribute
/// arms a pending flag; the next `{` in code opens the region, which runs
/// to its matching close brace.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut pending = false;
    // Depth of the brace that opened the active test region, or None.
    let mut region_open_depth: Option<i64> = None;
    let mut depth: i64 = 0;
    for (lineno, line) in code.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending = true;
        }
        if region_open_depth.is_some() || pending {
            in_test[lineno] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending && region_open_depth.is_none() {
                        region_open_depth = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_open_depth == Some(depth) {
                        region_open_depth = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_blanks_strings() {
        let lx = Lexed::lex("let x = \"panic!()\"; // ordering: fine\nlet y = 1;\n");
        assert!(!lx.code[0].contains("panic!"));
        assert!(lx.comments[0].contains("ordering: fine"));
        assert_eq!(lx.strings[0], vec!["panic!()".to_string()]);
        assert_eq!(lx.code[1].trim(), "let y = 1;");
    }

    #[test]
    fn raw_and_byte_strings() {
        let lx = Lexed::lex("let a = r#\"x \"q\" y\"#; let b = b\"z\";\n");
        assert_eq!(
            lx.strings[0],
            vec!["x \"q\" y".to_string(), "z".to_string()]
        );
        assert!(!lx.code[0].contains('q'));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let lx = Lexed::lex("fn f<'a>(x: &'a str) -> char { '\\n' }\nlet q = '\"';\n");
        assert!(lx.code[0].contains("fn f<'a>"));
        // The char literal's quote did not open a string.
        assert!(lx.strings[0].is_empty());
        assert!(lx.strings[1].is_empty());
    }

    #[test]
    fn nested_block_comments() {
        let lx = Lexed::lex("a /* one /* two */ still */ b\n");
        assert!(lx.code[0].contains('a'));
        assert!(lx.code[0].contains('b'));
        assert!(!lx.code[0].contains("still"));
        assert!(lx.comments[0].contains("two"));
    }

    #[test]
    fn multiline_string_attributes_to_start_line() {
        let lx = Lexed::lex("let s = \"first\nsecond\";\nlet t = 2;\n");
        assert_eq!(lx.strings[0], vec!["first\nsecond".to_string()]);
        assert!(lx.strings[1].is_empty());
        assert!(lx.code[2].contains("let t"));
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { x.unwrap(); }\n}\nfn after() {}\n";
        let lx = Lexed::lex(src);
        assert!(!lx.in_test[0]);
        assert!(lx.in_test[1] && lx.in_test[2] && lx.in_test[3] && lx.in_test[4]);
        assert!(!lx.in_test[5]);
    }
}
