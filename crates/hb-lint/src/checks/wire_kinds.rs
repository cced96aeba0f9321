//! Check 4 — wire-kind exhaustiveness.
//!
//! The protocol's frame kinds live in four places that historically drift
//! apart: the `KIND_*` constants in `wire.rs`, the decoder match arms, the
//! kind table in `docs/WIRE.md`, and the round-trip/mangling proptests.
//! This check cross-references all four: every constant must have a
//! decoder arm and at least two non-definition references (encode +
//! decode), its frame must be named in WIRE.md, the WIRE.md discriminant
//! header must state the *current* maximum kind, and the proptests must
//! mention the frame so a new kind cannot ship untested.

use super::{is_ident, token_positions};
use crate::lexer::Lexed;
use crate::report::{Finding, Rule};
use crate::Suppressor;

/// One parsed `const KIND_X: u8 = N;`.
#[derive(Debug)]
struct Kind {
    name: String,
    value: u8,
    def_line: usize,
    /// `Frame::Variant` paired with this kind (from the encode match or a
    /// decode arm), if discoverable.
    variant: Option<String>,
}

/// Runs the wire-kind rules. `wire` is the lexed `wire.rs`; `wire_md` and
/// `proptests` are the raw texts of `docs/WIRE.md` and
/// `tests/wire_proptests.rs`.
pub fn check(
    wire_rel: &str,
    wire: &Lexed,
    wire_md: &str,
    proptests: &str,
    sup: &mut Suppressor,
    findings: &mut Vec<Finding>,
) {
    let mut kinds = collect_kinds(wire);
    if kinds.is_empty() {
        findings.push(Finding {
            rule: Rule::WireKind,
            file: wire_rel.to_string(),
            line: 0,
            message: "no `const KIND_*` declarations found".to_string(),
        });
        return;
    }
    pair_variants(wire, &mut kinds);
    let max_kind = kinds.iter().map(|k| k.value).max().unwrap_or(0);

    for kind in &kinds {
        let mut non_def_refs = 0usize;
        let mut has_arm = false;
        for (lineno, code) in wire.code.iter().enumerate() {
            if lineno == kind.def_line {
                continue;
            }
            for at in token_positions(code, &kind.name) {
                non_def_refs += 1;
                let after = code[at + kind.name.len()..].trim_start();
                if after.starts_with("=>") || after.starts_with('|') || after.starts_with("..=") {
                    has_arm = true;
                }
                let before = code[..at].trim_end();
                if before.ends_with('|') || before.ends_with("..=") {
                    has_arm = true;
                }
            }
        }
        if !has_arm {
            sup.emit(
                wire,
                findings,
                Finding {
                    rule: Rule::WireKind,
                    file: wire_rel.to_string(),
                    line: kind.def_line + 1,
                    message: format!(
                        "{} (kind {}) has no decoder match arm",
                        kind.name, kind.value
                    ),
                },
            );
        }
        if non_def_refs < 2 {
            sup.emit(
                wire,
                findings,
                Finding {
                    rule: Rule::WireKind,
                    file: wire_rel.to_string(),
                    line: kind.def_line + 1,
                    message: format!(
                        "{} (kind {}) is referenced {} time(s) outside its definition — both an \
                         encoder and a decoder should use it",
                        kind.name, kind.value, non_def_refs
                    ),
                },
            );
        }
        if let Some(variant) = &kind.variant {
            if !wire_md.contains(variant.as_str()) {
                sup.emit(
                    wire,
                    findings,
                    Finding {
                        rule: Rule::WireKind,
                        file: "docs/WIRE.md".to_string(),
                        line: 0,
                        message: format!(
                            "frame `{variant}` (kind {}) is not documented in WIRE.md",
                            kind.value
                        ),
                    },
                );
            }
            let mentioned =
                proptests.contains(variant.as_str()) || proptests.contains(kind.name.as_str());
            if !mentioned {
                sup.emit(
                    wire,
                    findings,
                    Finding {
                        rule: Rule::WireKind,
                        file: "crates/hb-net/tests/wire_proptests.rs".to_string(),
                        line: 0,
                        message: format!(
                            "frame `{variant}` (kind {}) is never mentioned in the wire \
                             proptests — new kinds must be covered by a round-trip or \
                             mangling property",
                            kind.value
                        ),
                    },
                );
            }
        }
    }

    // The discriminant header row must state the current range end, so the
    // byte-level spec cannot silently lag a new kind.
    let expect = format!("1–{max_kind}");
    let header_row = wire_md
        .lines()
        .enumerate()
        .find(|(_, l)| l.contains("frame type discriminant"));
    match header_row {
        Some((lineno, row)) if !row.contains(&expect) => {
            sup.emit(
                wire,
                findings,
                Finding {
                    rule: Rule::WireKind,
                    file: "docs/WIRE.md".to_string(),
                    line: lineno + 1,
                    message: format!(
                        "the `kind` header row does not state the current discriminant range \
                         `{expect}` (a new kind landed without a spec update?)"
                    ),
                },
            );
        }
        None => {
            sup.emit(
                wire,
                findings,
                Finding {
                    rule: Rule::WireKind,
                    file: "docs/WIRE.md".to_string(),
                    line: 0,
                    message: "WIRE.md has no `frame type discriminant` header row".to_string(),
                },
            );
        }
        _ => {}
    }
}

fn collect_kinds(wire: &Lexed) -> Vec<Kind> {
    let mut kinds = Vec::new();
    for (lineno, code) in wire.code.iter().enumerate() {
        if wire.in_test[lineno] {
            continue;
        }
        let Some(at) = code.find("const KIND_") else {
            continue;
        };
        let name: String = code[at + "const ".len()..]
            .chars()
            .take_while(|c| is_ident(*c))
            .collect();
        let Some(eq) = code.find('=') else { continue };
        let value: String = code[eq + 1..]
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(value) = value.parse::<u8>() {
            kinds.push(Kind {
                name,
                value,
                def_line: lineno,
                variant: None,
            });
        }
    }
    kinds
}

/// Pairs kinds with `Frame::Variant` names: same-arm pairs first (a
/// `Frame::X … => KIND_X` encode arm or `KIND_X => Frame::X` decode arm),
/// then a short look-ahead from match-arm lines for kinds that only appear
/// in multi-line arms like `KIND_A | KIND_B => { … Frame::A … }`.
fn pair_variants(wire: &Lexed, kinds: &mut [Kind]) {
    for kind in kinds.iter_mut() {
        let mut same_arm: Option<String> = None;
        let mut arm_line: Option<usize> = None;
        for (lineno, code) in wire.code.iter().enumerate() {
            if lineno == kind.def_line {
                continue;
            }
            let positions = token_positions(code, &kind.name);
            if positions.is_empty() {
                continue;
            }
            for &at in &positions {
                if same_arm.is_none() {
                    same_arm = variant_near(code, at, kind.name.len());
                }
            }
            if arm_line.is_none() && code.contains("=>") {
                arm_line = Some(lineno);
            }
        }
        kind.variant = same_arm.or_else(|| {
            let start = arm_line?;
            (start..(start + 6).min(wire.code.len()))
                .find_map(|l| frame_variant_at(&wire.code[l], wire.code[l].find("Frame::")?))
        });
    }
}

/// The `Frame::Variant` in the same match arm as the kind token at `at`:
/// the first `Frame::` after the token with a `=>` (and no other kind)
/// between, else the last `Frame::` before it under the same condition.
fn variant_near(code: &str, at: usize, token_len: usize) -> Option<String> {
    let after = &code[at + token_len..];
    if let Some(fa) = after.find("Frame::") {
        let gap = &after[..fa];
        if gap.contains("=>") && !gap.contains("KIND_") {
            if let Some(v) = frame_variant_at(after, fa) {
                return Some(v);
            }
        }
    }
    let before = &code[..at];
    if let Some(fb) = before.rfind("Frame::") {
        let v = frame_variant_at(before, fb)?;
        let gap = &before[fb + "Frame::".len() + v.len()..];
        if gap.contains("=>") && !gap.contains("KIND_") {
            return Some(v);
        }
    }
    None
}

fn frame_variant_at(code: &str, at: usize) -> Option<String> {
    let name: String = code[at + "Frame::".len()..]
        .chars()
        .take_while(|c| is_ident(*c))
        .collect();
    if name.is_empty() || !name.chars().next().is_some_and(|c| c.is_uppercase()) {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suppressor;

    const GOOD: &str = "const KIND_PING: u8 = 1;\n\
        const KIND_PONG: u8 = 2;\n\
        fn kind(f: &Frame) -> u8 { match f { Frame::Ping => KIND_PING, Frame::Pong => KIND_PONG } }\n\
        fn decode(k: u8) -> Frame { match k { KIND_PING => Frame::Ping, KIND_PONG => Frame::Pong, _ => panic, } }\n";

    fn run(src: &str, md: &str, pt: &str) -> Vec<Finding> {
        let lx = Lexed::lex(src);
        let mut sup = Suppressor::default();
        let mut findings = Vec::new();
        check("wire.rs", &lx, md, pt, &mut sup, &mut findings);
        findings
    }

    #[test]
    fn consistent_kinds_pass() {
        let md = "| `kind` | frame type discriminant, 1–2 |\nPing Pong\n";
        let f = run(GOOD, md, "Ping Pong roundtrip");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_arm_and_stale_doc_flagged() {
        let src = "const KIND_PING: u8 = 1;\n\
            fn kind(f: &Frame) -> u8 { match f { Frame::Ping => KIND_PING } }\n";
        let md = "| `kind` | frame type discriminant, 1–9 |\nPing\n";
        let f = run(src, md, "Ping");
        assert!(f.iter().any(|x| x.message.contains("no decoder match arm")));
        assert!(f.iter().any(|x| x.message.contains("1–1")));
    }

    #[test]
    fn undocumented_and_untested_frames_flagged() {
        let md = "| `kind` | frame type discriminant, 1–2 |\nPing\n";
        let f = run(GOOD, md, "Ping only");
        assert!(f
            .iter()
            .any(|x| x.message.contains("`Pong`") && x.message.contains("not documented")));
        assert!(f
            .iter()
            .any(|x| x.message.contains("`Pong`") && x.message.contains("proptests")));
    }
}
