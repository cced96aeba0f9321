//! The five checks plus the scanning helpers they share.

pub mod alloc;
pub mod atomics;
pub mod metrics;
pub mod panics;
pub mod wire_kinds;

use crate::lexer::Lexed;

/// Is `c` part of an identifier?
pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of `token` in `line` where the match is not embedded in a
/// longer identifier (checked on the token's first/last char only when the
/// token itself starts/ends with an identifier char).
pub(crate) fn token_positions(line: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find(token) {
        let at = from + rel;
        from = at + token.len().max(1);
        let first = token.chars().next().unwrap_or(' ');
        let last = token.chars().last().unwrap_or(' ');
        if is_ident(first) {
            if let Some(prev) = line[..at].chars().next_back() {
                if is_ident(prev) {
                    continue;
                }
            }
        }
        if is_ident(last) {
            if let Some(next) = line[at + token.len()..].chars().next() {
                if is_ident(next) {
                    continue;
                }
            }
        }
        out.push(at);
    }
    out
}

/// The identifier that ends immediately before byte offset `at` in `line`
/// (walking back over identifier chars), if any.
pub(crate) fn ident_ending_at(line: &str, at: usize) -> Option<&str> {
    let head = &line[..at];
    let start = head
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident(*c))
        .last()
        .map(|(i, _)| i)?;
    let ident = &head[start..];
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// An inclusive 0-based line range.
pub(crate) type LineRange = (usize, usize);

/// Finds the line of the brace matching the `{` at (`line`, `col`) in
/// `code`, or the last line if the file ends first.
pub(crate) fn matching_close(code: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0i64;
    for (l, text) in code.iter().enumerate().skip(line) {
        let start = if l == line { col } else { 0 };
        for (ci, c) in text.char_indices() {
            if ci < start {
                continue;
            }
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return l;
                    }
                }
                _ => {}
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Extracts the body ranges of every `fn` in the file (nested fns yield
/// nested, overlapping ranges — each is scanned independently).
pub(crate) fn fn_bodies(lx: &Lexed) -> Vec<(String, LineRange)> {
    let mut out = Vec::new();
    for lineno in 0..lx.len() {
        for at in token_positions(&lx.code[lineno], "fn") {
            let after = &lx.code[lineno][at + 2..];
            let name: String = after
                .trim_start()
                .chars()
                .take_while(|c| is_ident(*c))
                .collect();
            if name.is_empty() {
                continue; // `Fn` traits, stray matches
            }
            // Scan forward for the body `{`, bailing at a `;` (trait
            // method declaration) while outside parens/brackets. Angle
            // brackets are ignored: generics never contain a top-level
            // `;`, and tracking them would misparse `->` arrows.
            let mut nest = 0i64;
            let mut found: Option<(usize, usize)> = None;
            'scan: for l in lineno..lx.len() {
                let text = &lx.code[l];
                let start_col = if l == lineno { at + 2 } else { 0 };
                for (ci, c) in text.char_indices() {
                    if ci < start_col {
                        continue;
                    }
                    match c {
                        '(' | '[' => nest += 1,
                        ')' | ']' => nest -= 1,
                        ';' if nest <= 0 => break 'scan,
                        '{' => {
                            found = Some((l, ci));
                            break 'scan;
                        }
                        _ => {}
                    }
                }
            }
            if let Some((bl, bc)) = found {
                let end = matching_close(&lx.code, bl, bc);
                out.push((name.clone(), (lineno, end)));
            }
        }
    }
    out
}

/// Extracts `impl … Handler for …` block ranges.
pub(crate) fn handler_impl_ranges(lx: &Lexed) -> Vec<LineRange> {
    let mut out = Vec::new();
    for lineno in 0..lx.len() {
        let code = &lx.code[lineno];
        if !code.trim_start().starts_with("impl") || !code.contains(" Handler for ") {
            continue;
        }
        // Body opens at the first `{` at or after the impl line.
        'open: for l in lineno..lx.len() {
            for (ci, c) in lx.code[l].char_indices() {
                if l == lineno && ci < code.find("impl").unwrap_or(0) {
                    continue;
                }
                if c == '{' {
                    out.push((lineno, matching_close(&lx.code, l, ci)));
                    break 'open;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::Lexed;

    #[test]
    fn token_positions_respect_boundaries() {
        assert_eq!(token_positions("fn info(fn_ptr: fn())", "fn"), vec![0, 16]);
        assert_eq!(token_positions("self.seq.load(x)", "seq"), vec![5]);
    }

    #[test]
    fn ident_extraction() {
        let line = "self.next_seq.load(";
        let at = line.find(".load").unwrap();
        assert_eq!(ident_ending_at(line, at), Some("next_seq"));
    }

    #[test]
    fn fn_bodies_and_trait_decls() {
        let lx =
            Lexed::lex("trait T {\n    fn decl(&self) -> u8;\n}\nfn real() {\n    inner();\n}\n");
        let bodies = fn_bodies(&lx);
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[0].0, "real");
        assert_eq!(bodies[0].1, (3, 5));
    }

    #[test]
    fn handler_impls_found() {
        let lx = Lexed::lex(
            "impl Handler for ProducerHandler {\n    fn on_data(&mut self) {}\n}\nstruct X;\n",
        );
        assert_eq!(handler_impl_ranges(&lx), vec![(0, 2)]);
    }
}
