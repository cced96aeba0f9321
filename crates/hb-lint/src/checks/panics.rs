//! Check 2 — panic freedom on the data plane.
//!
//! The decoder-never-panics proptest proves the property dynamically for
//! the inputs it generates; this check enforces it structurally. Inside
//! the data-plane scope — the whole of `reactor.rs`, `frame.rs`, `wire.rs`
//! and `federation.rs` (non-test), plus every `impl Handler for …` block
//! anywhere — the panic-capable constructs are denied:
//!
//! * `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!` / `assert!`-family (`debug_assert*` is exempt: it
//!   compiles out of release builds and is how data-plane invariants
//!   *should* be written down);
//! * slice/array indexing `x[..]` — the anonymous panic. Use `get`/
//!   `get_mut` and surface a protocol error, or justify the bound with
//!   `// hb-lint: allow(index): <why>`.

use super::{handler_impl_ranges, is_ident, LineRange};
use crate::lexer::Lexed;
use crate::report::{Finding, Rule};
use crate::Suppressor;

/// Files denied in full (workspace-relative path suffixes).
pub const FULL_FILES: [&str; 4] = [
    "crates/hb-net/src/reactor.rs",
    "crates/hb-net/src/frame.rs",
    "crates/hb-net/src/wire.rs",
    // Relay frames from child collectors, applied outside any Handler impl.
    "crates/hb-net/src/federation.rs",
];

const DENIED: [&str; 9] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "assert!",
    "assert_eq!",
    "assert_ne!",
];

/// Runs the panic rules on one lexed file.
pub fn check(rel: &str, lx: &Lexed, sup: &mut Suppressor, findings: &mut Vec<Finding>) {
    let mut ranges: Vec<(LineRange, &'static str)> = Vec::new();
    if FULL_FILES.iter().any(|f| rel.ends_with(f)) {
        ranges.push(((0, lx.len().saturating_sub(1)), "data-plane file"));
    } else {
        for r in handler_impl_ranges(lx) {
            ranges.push((r, "Handler impl"));
        }
    }
    for ((start, end), scope) in ranges {
        for lineno in start..=end.min(lx.len().saturating_sub(1)) {
            if lx.in_test[lineno] {
                continue;
            }
            let code = &lx.code[lineno];
            for token in DENIED {
                for at in find_denied(code, token) {
                    // `debug_assert!` contains `assert!` — exempt.
                    if token.starts_with("assert") && preceded_by_ident(code, at) {
                        continue;
                    }
                    sup.emit(
                        lx,
                        findings,
                        Finding {
                            rule: Rule::Panic,
                            file: rel.to_string(),
                            line: lineno + 1,
                            message: format!("`{token}` in {scope} (decoder-never-panics)"),
                        },
                    );
                    break; // one finding per (line, token)
                }
            }
            if !index_sites(code).is_empty() {
                // One finding per line, however many index sites it holds.
                sup.emit(
                    lx,
                    findings,
                    Finding {
                        rule: Rule::Index,
                        file: rel.to_string(),
                        line: lineno + 1,
                        message: format!(
                            "slice/array indexing in {scope} — use get()/get_mut() and surface \
                             a protocol error, or justify the bound"
                        ),
                    },
                );
            }
        }
    }
}

fn preceded_by_ident(code: &str, at: usize) -> bool {
    code[..at]
        .chars()
        .next_back()
        .map(|c| is_ident(c) || c == '_')
        .unwrap_or(false)
}

fn find_denied(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        out.push(from + rel);
        from += rel + token.len();
    }
    out
}

/// Byte offsets of `[` chars that index a value (the *immediately*
/// preceding char is an identifier char, `)`, or `]`), as opposed to array
/// literals, types, attributes, or slice patterns like `let [a, b] = …`
/// (which always have whitespace or punctuation before the bracket).
pub(crate) fn index_sites(code: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, c) in code.char_indices() {
        if c != '[' {
            continue;
        }
        if let Some(p) = code[..i].chars().next_back() {
            if is_ident(p) || p == ')' || p == ']' {
                out.push(i);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suppressor;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let lx = Lexed::lex(src);
        let mut sup = Suppressor::default();
        let mut findings = Vec::new();
        check(rel, &lx, &mut sup, &mut findings);
        findings
    }

    #[test]
    fn denies_unwrap_in_full_file() {
        let f = run(
            "crates/hb-net/src/frame.rs",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Panic);
    }

    #[test]
    fn unwrap_or_and_debug_assert_pass() {
        let f = run(
            "crates/hb-net/src/frame.rs",
            "fn f(x: Option<u8>) -> u8 { debug_assert!(true); x.unwrap_or(0) }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn indexing_flagged_and_patterns_ignored() {
        let f = run(
            "crates/hb-net/src/wire.rs",
            "fn f(b: &[u8]) -> u8 {\n    let [_a, _b] = [1, 2];\n    b[0]\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Index);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn handler_impl_scoped_in_other_files() {
        let src = "fn free(x: Option<u8>) { x.unwrap(); }\n\
                   impl Handler for H {\n    fn on_data(&mut self, x: Option<u8>) { x.unwrap(); }\n}\n";
        let f = run("crates/hb-net/src/collector.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn test_modules_exempt() {
        let f = run(
            "crates/hb-net/src/frame.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let f = run(
            "crates/hb-net/src/reactor.rs",
            "fn f(m: &Mutex<u8>) {\n    // hb-lint: allow(panic): poisoning only follows a prior panic\n    m.lock().unwrap();\n}\n",
        );
        assert!(f.is_empty());
    }
}
