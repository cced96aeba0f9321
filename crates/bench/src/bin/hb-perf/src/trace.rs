//! Spans recorded by the benchmark's own code around its calls into each
//! layer. They stay in memory while a workload runs and are written out
//! when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::{self, Value};

/// One timed interval. Spans of one request (one tagged beat, one query)
/// share `id`; `parent` names the span of the same request that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn new(
        name: &'static str,
        id: u64,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            id,
            parent,
            start_ns,
            // Two clocks meet in some spans (the collector stamps events
            // with wall time); never let skew produce a negative interval.
            end_ns: end_ns.max(start_ns),
        }
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where trace files go: beside the build output, which `.gitignore` covers.
pub fn trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("hb-perf")
}

/// Writes one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let line = json::obj([
            ("name", Value::Str(span.name.to_string())),
            ("id", Value::Num(span.id as f64)),
            (
                "parent",
                span.parent
                    .map_or(Value::Null, |p| Value::Str(p.to_string())),
            ),
            ("start_ns", Value::Num(span.start_ns as f64)),
            ("end_ns", Value::Num(span.end_ns as f64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// Per span name: how many, mean duration, and mean self time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub name: String,
    pub count: u64,
    pub mean_ns: f64,
    pub mean_self_ns: f64,
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover (children may overlap; the union counts once).
pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let mut children: BTreeMap<(u64, &str), Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry((span.id, parent))
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let covered = children.get_mut(&(span.id, span.name)).map_or(0, |kids| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += span.duration_ns() - covered;
    }
    totals
        .into_iter()
        .map(|(name, (count, total, own))| SpanSummary {
            name: name.to_string(),
            count,
            mean_ns: total as f64 / count as f64,
            mean_self_ns: own as f64 / count as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            Span::new("beat", 1, None, 0, 100),
            Span::new("issue", 1, Some("beat"), 0, 10),
            Span::new("on_beat", 1, Some("issue"), 2, 9),
            Span::new("transit", 1, Some("beat"), 10, 60),
            // Overlaps transit by 10 and runs past its parent by 5.
            Span::new("delivery", 1, Some("beat"), 50, 105),
            // Another request: must not be mistaken for a child of beat 1.
            Span::new("issue", 2, Some("beat"), 0, 30),
        ];
        let summary = summarize(&spans);
        let of = |name: &str| summary.iter().find(|s| s.name == name).unwrap().clone();
        assert_eq!(of("beat").mean_ns, 100.0);
        assert_eq!(of("beat").mean_self_ns, 0.0);
        assert_eq!(of("issue").count, 2);
        assert_eq!(of("issue").mean_ns, 20.0);
        // (10 - 7) for request 1, 30 for request 2.
        assert_eq!(of("issue").mean_self_ns, 16.5);
        assert_eq!(of("transit").mean_self_ns, 50.0);
    }

    #[test]
    fn skewed_clocks_never_yield_negative_spans() {
        assert_eq!(Span::new("transit", 1, None, 10, 4).end_ns, 10);
    }
}
