//! Check 5 — metric-registry drift.
//!
//! Every `hb_*` series the collector emits must carry a `# HELP` line and
//! a row in `docs/TELEMETRY.md`; every series the docs mention must still
//! be emitted. PRs 6–9 each added series, and the docs lagged more than
//! once — this check makes the documentation a registry with a machine-
//! checked contract instead of a best-effort mirror.
//!
//! Extraction is lexical: a string literal beginning `hb_` names an
//! emitted series (label blocks and value formatting are stripped); a
//! literal beginning `# HELP hb_x` registers help text, and so does a
//! `"hb_x", "help…"` argument pair — the name immediately followed by a
//! second string literal. That is the shape every registration takes: a
//! `family("hb_x", "help")` call on the exposition writer (which
//! writes that very `# HELP` line), a row of a table that feeds one, the
//! histogram renderer's `(name, help)` arguments.

use crate::lexer::Lexed;
use crate::report::{Finding, Rule};
use crate::Suppressor;
use std::collections::BTreeMap;

/// Doc tokens that look like `hb_*` series but are crate/module names.
const STOPLIST: [&str; 4] = ["hb_net", "hb_shm", "hb_bench", "hb_lint"];

/// Runs the metric-drift rules. `sources` are the lexed hb-net sources;
/// `telemetry_md` is the raw text of `docs/TELEMETRY.md`.
pub fn check(
    sources: &[(String, &Lexed)],
    telemetry_md: &str,
    sup: &mut Suppressor,
    findings: &mut Vec<Finding>,
) {
    // Emitted series → first (file, line, lexed index) that emits them.
    let mut emitted: BTreeMap<String, (String, usize, usize)> = BTreeMap::new();
    let mut helped: Vec<String> = Vec::new();
    for (src_idx, (rel, lx)) in sources.iter().enumerate() {
        for lineno in 0..lx.len() {
            if lx.in_test[lineno] {
                continue;
            }
            for (nth, lit) in lx.strings[lineno].iter().enumerate() {
                if let Some(rest) = lit.strip_prefix("# HELP ") {
                    if let Some(name) = metric_name(rest) {
                        helped.push(name);
                    }
                } else if let Some(name) = metric_name(lit) {
                    if nth == 0 && help_literal_follows(lx, lineno) {
                        helped.push(name.clone());
                    }
                    emitted
                        .entry(name)
                        .or_insert_with(|| (rel.clone(), lineno, src_idx));
                }
            }
        }
    }

    for (name, (rel, lineno, src_idx)) in &emitted {
        let lx = sources[*src_idx].1;
        if !helped.iter().any(|h| h == name) {
            sup.emit(
                lx,
                findings,
                Finding {
                    rule: Rule::Metric,
                    file: rel.clone(),
                    line: lineno + 1,
                    message: format!("series `{name}` is emitted without a `# HELP {name}` line"),
                },
            );
        }
        if !doc_mentions(telemetry_md, name) {
            sup.emit(
                lx,
                findings,
                Finding {
                    rule: Rule::Metric,
                    file: rel.clone(),
                    line: lineno + 1,
                    message: format!(
                        "series `{name}` is emitted but has no row in docs/TELEMETRY.md"
                    ),
                },
            );
        }
    }

    // Reverse direction: every hb_* token the docs mention must exist.
    for (lineno, line) in telemetry_md.lines().enumerate() {
        for token in doc_tokens(line) {
            if STOPLIST.contains(&token.as_str()) {
                continue;
            }
            let base = strip_series_suffix(&token);
            if !emitted.contains_key(&token) && !emitted.contains_key(base) {
                // Doc findings have no source line to inline-allow; route
                // through the allowlist keyed on the doc line text.
                sup.emit_doc(
                    line,
                    findings,
                    Finding {
                        rule: Rule::Metric,
                        file: "docs/TELEMETRY.md".to_string(),
                        line: lineno + 1,
                        message: format!(
                            "documented series `{token}` is never emitted by the collector"
                        ),
                    },
                );
            }
        }
    }
}

/// Is the first string literal on `lineno` immediately followed by a second
/// string-literal argument (`"hb_x", "help…"`)? The second literal may sit
/// on the next code line, where rustfmt puts wrapped arguments.
fn help_literal_follows(lx: &Lexed, lineno: usize) -> bool {
    // Literal contents are blanked in `code`: the first two quotes delimit
    // the first literal.
    let mut quotes = lx.code[lineno].match_indices('"').map(|(at, _)| at);
    let (Some(_open), Some(close)) = (quotes.next(), quotes.next()) else {
        return false;
    };
    let Some(rest) = lx.code[lineno][close + 1..].trim_start().strip_prefix(',') else {
        return false;
    };
    std::iter::once(rest)
        .chain(lx.code[lineno + 1..].iter().map(String::as_str))
        .map(str::trim_start)
        .find(|code| !code.is_empty())
        .is_some_and(|code| code.starts_with('"'))
}

/// Leading `hb_[a-z0-9_]+` of a literal, if the literal starts with one.
fn metric_name(text: &str) -> Option<String> {
    let rest = text.strip_prefix("hb_")?;
    let body: String = rest
        .chars()
        .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
        .collect();
    if body.is_empty() {
        return None;
    }
    Some(format!("hb_{body}"))
}

/// All `hb_*` tokens in a line of documentation (identifier-boundary on
/// the left, `::` paths excluded).
fn doc_tokens(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = line[from..].find("hb_") {
        let at = from + rel;
        let boundary = at == 0
            || line[..at]
                .chars()
                .next_back()
                .map(|c| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(true);
        let token = metric_name(&line[at..]);
        from = at + 3;
        let Some(token) = token else { continue };
        if !boundary {
            continue;
        }
        // A module path like `hb_net::telemetry` is not a series.
        if line[at + token.len()..].starts_with("::") {
            continue;
        }
        from = at + token.len();
        out.push(token);
    }
    out
}

/// Strips a Prometheus histogram/summary suffix so `…_seconds_count`
/// matches the `…_seconds` base series.
fn strip_series_suffix(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

/// Does the doc mention `name` as a token (not merely as a substring of a
/// longer series name)?
fn doc_mentions(doc: &str, name: &str) -> bool {
    doc.lines()
        .any(|line| doc_tokens(line).iter().any(|t| strip_series_suffix(t) == name || t == name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Suppressor;

    fn run(src: &str, md: &str) -> Vec<Finding> {
        let lx = Lexed::lex(src);
        let sources = vec![("query.rs".to_string(), &lx)];
        let mut sup = Suppressor::default();
        let mut findings = Vec::new();
        check(&sources, md, &mut sup, &mut findings);
        findings
    }

    #[test]
    fn documented_and_helped_series_pass() {
        let src = "fn f(out: &mut String) {\n\
            out.push_str(\"# HELP hb_app_rate_bps Beat rate.\\n\");\n\
            out.push_str(\"hb_app_rate_bps 1\\n\");\n}\n";
        let md = "| `hb_app_rate_bps` | gauge | beat rate |\n";
        assert!(run(src, md).is_empty());
    }

    #[test]
    fn name_help_argument_pair_registers_help_like_a_help_literal() {
        let md = "| `hb_app_rate_bps` | gauge |\n| `hb_app_alive` | gauge |\n";
        let src = "fn f(x: &mut X) {\n\
            x.family(\"hb_app_rate_bps\", \"Beat rate.\");\n\
            x.sample(\"hb_app_rate_bps\", &[], 1);\n\
            x.family(\n\
                \"hb_app_alive\",\n\
                \"Alive.\",\n\
            );\n\
            x.sample(\"hb_app_alive\", &[(\"app\", &app)], 1);\n}\n";
        assert!(run(src, md).is_empty());
        // So does a row of a table that feeds `family`.
        let src = "const T: [(&str, &str); 2] = [\n\
            (\"hb_app_rate_bps\", \"Beat rate.\"),\n\
            (\"hb_app_alive\", \"Alive.\"),\n];\n";
        assert!(run(src, md).is_empty());
        // A sample registers nothing, whatever literals follow its name.
        let src = "fn f(x: &mut X) { x.sample(\"hb_app_alive\", &[(\"app\", &a)], \"1\"); }\n";
        let f = run(src, md);
        assert!(
            f.iter().any(|x| x.message.contains("# HELP hb_app_alive")),
            "{f:?}"
        );
    }

    #[test]
    fn missing_help_and_missing_doc_row_flagged() {
        let src = "fn f(out: &mut String) { out.push_str(\"hb_app_rate_bps 1\\n\"); }\n";
        let f = run(src, "nothing here\n");
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.message.contains("# HELP")));
        assert!(f.iter().any(|x| x.message.contains("TELEMETRY.md")));
    }

    #[test]
    fn ghost_documented_series_flagged() {
        let src = "fn f(out: &mut String) {\n\
            out.push_str(\"# HELP hb_app_rate_bps Beat rate.\\n\");\n\
            out.push_str(\"hb_app_rate_bps 1\\n\");\n}\n";
        let md = "| `hb_app_rate_bps` | gauge |\n| `hb_collector_apps` | gauge |\n";
        let f = run(src, md);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("hb_collector_apps"));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn histogram_suffixes_and_paths_ignored() {
        let src = "fn f(out: &mut String) {\n\
            out.push_str(\"# HELP hb_x_seconds Latency.\\n\");\n\
            out.push_str(\"hb_x_seconds 1\\n\");\n}\n";
        let md = "`hb_x_seconds_count` and `hb_net::telemetry` and labels `hb_x_seconds{le=\"1\"}`\n";
        assert!(run(src, md).is_empty());
    }

    #[test]
    fn labels_stripped_from_emitted_names() {
        let src =
            "fn f(out: &mut String) { out.push_str(\"hb_shard_conns{shard=\\\"0\\\"} 1\\n\"); }\n";
        let f = run(src, "`hb_shard_conns{shard=\"N\"}` row\n");
        // HELP missing fires; the doc row matches despite the label block.
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("# HELP"));
    }
}
