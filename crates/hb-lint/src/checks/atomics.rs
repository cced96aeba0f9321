//! Check 1 — the atomic-ordering audit.
//!
//! Two rules over every non-test line of the scanned sources:
//!
//! * **ordering** — each line using `Ordering::` must carry a
//!   `// ordering: <why>` justification (same line or the comment run
//!   directly above). An atomic ordering is a claim about *other* code —
//!   which store a load synchronizes with, why relaxed is enough — and the
//!   claim must be written where the ordering is, or it drifts.
//! * **claim** — inside one function, a `load` followed by a `store` on a
//!   field whose name smells like an ownership watermark
//!   (`watermark`/`cursor`/`seq`) is the exact shape of the PR 9
//!   reconnect-overlap double-apply race: two sessions both read the old
//!   watermark, both decide they own the range, both store. Claiming must
//!   go through `compare_exchange`/`fetch_*` (one winner) or justify why a
//!   single writer is guaranteed via `// hb-lint: allow(claim): <why>`.

use super::{fn_bodies, ident_ending_at, token_positions};
use crate::lexer::Lexed;
use crate::report::{Finding, Rule};
use crate::Suppressor;

/// Field-name fragments treated as ownership watermarks.
const WATCHED: [&str; 3] = ["watermark", "cursor", "seq"];

/// Atomic operations that claim a value atomically (one winner).
const CLAIM_OPS: [&str; 10] = [
    ".compare_exchange",
    ".fetch_update",
    ".fetch_add",
    ".fetch_sub",
    ".fetch_or",
    ".fetch_and",
    ".fetch_xor",
    ".fetch_max",
    ".fetch_min",
    ".swap(",
];

/// Runs both rules on one lexed file.
pub fn check(rel: &str, lx: &Lexed, sup: &mut Suppressor, findings: &mut Vec<Finding>) {
    for lineno in 0..lx.len() {
        if lx.in_test[lineno] || !lx.code[lineno].contains("Ordering::") {
            continue;
        }
        if crate::allow::ordering_justified(lx, lineno) {
            continue;
        }
        sup.emit(
            lx,
            findings,
            Finding {
                rule: Rule::Ordering,
                file: rel.to_string(),
                line: lineno + 1,
                message: "atomic ordering without a `// ordering:` justification".to_string(),
            },
        );
    }

    for (fn_name, (start, end)) in fn_bodies(lx) {
        if lx.in_test[start] {
            continue;
        }
        // Per watched field: the first load line, any claim op, and the
        // stores that follow a load.
        let mut first_load: Vec<Option<usize>> = vec![None; WATCHED.len()];
        let mut claimed = [false; WATCHED.len()];
        let mut late_stores: Vec<Vec<usize>> = vec![Vec::new(); WATCHED.len()];
        for lineno in start..=end.min(lx.len().saturating_sub(1)) {
            let code = &lx.code[lineno];
            for (kind, token) in [(0u8, ".load("), (1u8, ".store(")] {
                for at in token_positions(code, token) {
                    let Some(field) = ident_ending_at(code, at) else {
                        continue;
                    };
                    // A field like `seq_watermark` matches two fragments;
                    // count it once, under the first.
                    let Some(w) = WATCHED.iter().position(|frag| field.contains(frag)) else {
                        continue;
                    };
                    if kind == 0 {
                        first_load[w].get_or_insert(lineno);
                    } else if first_load[w].is_some() {
                        late_stores[w].push(lineno);
                    }
                }
            }
            for op in CLAIM_OPS {
                for at in token_positions(code, op) {
                    if let Some(field) = ident_ending_at(code, at) {
                        if let Some(w) = WATCHED.iter().position(|frag| field.contains(frag)) {
                            claimed[w] = true;
                        }
                    }
                }
            }
        }
        for (w, frag) in WATCHED.iter().enumerate() {
            if claimed[w] {
                continue;
            }
            for &store_line in &late_stores[w] {
                sup.emit(
                    lx,
                    findings,
                    Finding {
                        rule: Rule::Claim,
                        file: rel.to_string(),
                        line: store_line + 1,
                        message: format!(
                            "load-then-store on `{frag}`-like field in `{fn_name}` — claim it \
                             with compare_exchange/fetch_update (the PR 9 reconnect-overlap \
                             double-apply shape), or justify the single writer"
                        ),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Rule;
    use crate::Suppressor;

    fn run(src: &str) -> Vec<Finding> {
        let lx = Lexed::lex(src);
        let mut sup = Suppressor::default();
        let mut findings = Vec::new();
        check("f.rs", &lx, &mut sup, &mut findings);
        findings
    }

    #[test]
    fn unjustified_ordering_flagged() {
        let f = run("fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Ordering);
    }

    #[test]
    fn justified_ordering_passes() {
        let f = run(
            "fn f(x: &AtomicU64) {\n    x.load(Ordering::Relaxed); // ordering: stats-only\n}\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn load_then_store_on_watermark_flagged() {
        let f = run("fn apply(&self) {\n\
             let w = self.seq_watermark.load(Ordering::Acquire); // ordering: w\n\
             if w < next {\n\
             self.seq_watermark.store(next, Ordering::Release); // ordering: w\n\
             }\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Claim);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn cas_claim_passes() {
        let f = run("fn apply(&self) {\n\
             let w = self.cursor.load(Ordering::Acquire); // ordering: w\n\
             // ordering: w\n\
             self.cursor.compare_exchange(w, n, Ordering::AcqRel, Ordering::Acquire).ok();\n\
             }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn allow_claim_with_reason_passes() {
        let f = run(
            "fn publish(&self) {\n\
             let s = self.slot_seq.load(Ordering::Relaxed); // ordering: single writer\n\
             // hb-lint: allow(claim): seqlock writer runs under the journal's single-writer slot claim\n\
             self.slot_seq.store(s + 1, Ordering::Release); // ordering: publish\n\
             }\n",
        );
        assert!(f.is_empty());
    }
}
