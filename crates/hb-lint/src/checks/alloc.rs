//! Check 3 — hot-path allocation lint.
//!
//! `tests/ingest_alloc.rs` proves decode→ingest allocates nothing with a
//! counting allocator, but only for the path the test drives. This check
//! is the static backstop: regions bracketed by `// hb-lint: hot-path` …
//! `// hb-lint: end-hot-path` comments deny the obvious allocating calls,
//! so a `format!` slipped into the ingest loop fails review before it
//! fails the allocation test (or worse, ships on an untested branch).

use crate::lexer::Lexed;
use crate::report::{Finding, Rule};
use crate::Suppressor;

/// Marker opening a hot-path region.
pub const BEGIN: &str = "hb-lint: hot-path";
/// Marker closing a hot-path region.
pub const END: &str = "hb-lint: end-hot-path";

const DENIED: [&str; 12] = [
    "format!",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    "String::from(",
    "String::new(",
    "String::with_capacity(",
    "Vec::new(",
    "Vec::with_capacity(",
    "vec!",
    "Box::new(",
    ".collect",
];

/// Runs the hot-path allocation rules on one lexed file.
pub fn check(rel: &str, lx: &Lexed, sup: &mut Suppressor, findings: &mut Vec<Finding>) {
    let mut open: Option<usize> = None;
    for lineno in 0..lx.len() {
        let comment = &lx.comments[lineno];
        // `end-hot-path` contains `hot-path`; test for the closer first.
        if comment.contains(END) {
            if open.take().is_none() {
                findings.push(Finding {
                    rule: Rule::Alloc,
                    file: rel.to_string(),
                    line: lineno + 1,
                    message: "end-hot-path without an open hot-path region".to_string(),
                });
            }
            continue;
        }
        if comment.contains(BEGIN) {
            if open.is_some() {
                findings.push(Finding {
                    rule: Rule::Alloc,
                    file: rel.to_string(),
                    line: lineno + 1,
                    message: "nested hb-lint: hot-path region (close the previous one first)"
                        .to_string(),
                });
            }
            open = Some(lineno);
            continue;
        }
        if open.is_none() || lx.in_test[lineno] {
            continue;
        }
        let code = &lx.code[lineno];
        for token in DENIED {
            if code.contains(token) {
                sup.emit(
                    lx,
                    findings,
                    Finding {
                        rule: Rule::Alloc,
                        file: rel.to_string(),
                        line: lineno + 1,
                        message: format!("allocating call `{token}` inside a hot-path region"),
                    },
                );
            }
        }
        // `.clone()` allocates unless the receiver is refcounted; lines
        // that visibly clone an Arc (`Arc::clone`, `arc_segment.clone()`)
        // pass, anything else must justify itself.
        if code.contains(".clone()") && !code.contains("Arc") && !code.contains("arc") {
            sup.emit(
                lx,
                findings,
                Finding {
                    rule: Rule::Alloc,
                    file: rel.to_string(),
                    line: lineno + 1,
                    message: "`.clone()` on a non-Arc value inside a hot-path region".to_string(),
                },
            );
        }
    }
    if let Some(start) = open {
        findings.push(Finding {
            rule: Rule::Alloc,
            file: rel.to_string(),
            line: start + 1,
            message: "hb-lint: hot-path region never closed (missing end-hot-path)".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suppressor;

    fn run(src: &str) -> Vec<Finding> {
        let lx = Lexed::lex(src);
        let mut sup = Suppressor::default();
        let mut findings = Vec::new();
        check("f.rs", &lx, &mut sup, &mut findings);
        findings
    }

    #[test]
    fn allocation_in_region_flagged() {
        let f = run(
            "// hb-lint: hot-path\nfn f() { let s = format!(\"x\"); }\n// hb-lint: end-hot-path\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("format!"));
    }

    #[test]
    fn allocation_outside_region_passes() {
        let f = run("fn f() { let s = format!(\"x\"); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn arc_clone_passes_plain_clone_flagged() {
        let f = run("// hb-lint: hot-path\n\
             fn f(a: &Arc<u8>, v: &Vec<u8>) { let _x = Arc::clone(a); let _y = v.clone(); }\n\
             // hb-lint: end-hot-path\n");
        // The Arc on the line exempts it entirely — one line, one verdict.
        assert!(f.is_empty());
        let f = run(
            "// hb-lint: hot-path\nfn f(v: &Vec<u8>) { let _y = v.clone(); }\n// hb-lint: end-hot-path\n",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unclosed_region_flagged() {
        let f = run("// hb-lint: hot-path\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("never closed"));
    }
}
