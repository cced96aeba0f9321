//! hb-lint — the repo's own invariant checker for the collector's
//! lock-free core.
//!
//! PR 9's reconnect-overlap double-apply race was caught dynamically, by
//! running the chaos harness and staring at ledgers — even though the
//! broken pattern (a load-then-store watermark check instead of a CAS
//! claim) was visible in the source the whole time. The paper's thesis is
//! that program health becomes observable through a simple enforced
//! convention; hb-lint applies the same idea to the codebase itself.
//! Five checks, each individually toggleable, run over the `hb-net`
//! sources with a tiny purpose-built lexer (no AST, no dependencies):
//!
//! 1. **atomics** — every `Ordering::` use carries a `// ordering:`
//!    justification; load-then-store on watermark/cursor/seq fields
//!    without a CAS claim is the PR 9 bug class and is flagged.
//! 2. **panics** — `unwrap`/`expect`/`panic!`/indexing denied on the data
//!    plane (`reactor.rs`, `frame.rs`, `wire.rs`, all `Handler` impls).
//! 3. **alloc** — deny-listed allocating calls inside
//!    `// hb-lint: hot-path` regions.
//! 4. **wire-kinds** — `KIND_*` constants vs. decoder arms vs. WIRE.md
//!    vs. the wire proptests.
//! 5. **metrics** — emitted `hb_*` series vs. `# HELP` lines vs.
//!    docs/TELEMETRY.md, in both directions.
//!
//! See `docs/LINTS.md` for the comment grammar and the allowlist format.

pub mod allow;
pub mod checks;
pub mod lexer;
pub mod report;

use allow::Allowlist;
use lexer::Lexed;
use report::{Finding, Report, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The five toggleable checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Atomic-ordering audit (rules `ordering`, `claim`).
    Atomics,
    /// Data-plane panic freedom (rules `panic`, `index`).
    Panics,
    /// Hot-path allocation lint (rule `alloc`).
    Alloc,
    /// Wire-kind exhaustiveness (rule `wire-kind`).
    WireKinds,
    /// Metric-registry drift (rule `metric`).
    Metrics,
}

impl Check {
    /// All checks, in reporting order.
    pub const ALL: [Check; 5] = [
        Check::Atomics,
        Check::Panics,
        Check::Alloc,
        Check::WireKinds,
        Check::Metrics,
    ];

    /// CLI name of the check.
    pub fn name(self) -> &'static str {
        match self {
            Check::Atomics => "atomics",
            Check::Panics => "panics",
            Check::Alloc => "alloc",
            Check::WireKinds => "wire-kinds",
            Check::Metrics => "metrics",
        }
    }

    /// Parses a CLI check name.
    pub fn parse(name: &str) -> Option<Check> {
        Check::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// What to scan and which checks to run.
#[derive(Debug)]
pub struct Options {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Enabled checks.
    pub checks: BTreeSet<Check>,
    /// Allowlist path; `None` uses `<root>/hb-lint.allow` when present.
    pub allowlist: Option<PathBuf>,
}

impl Options {
    /// All checks over `root`, with the default allowlist.
    pub fn new(root: PathBuf) -> Options {
        Options {
            root,
            checks: Check::ALL.into_iter().collect(),
            allowlist: None,
        }
    }
}

/// Suppression state shared by the checks: the allowlist plus inline
/// `hb-lint: allow(..)` comments, with a counter for reporting.
#[derive(Default)]
pub struct Suppressor {
    allowlist: Allowlist,
    /// Findings suppressed so far.
    pub suppressed: usize,
}

impl Suppressor {
    /// Wraps a parsed allowlist.
    pub fn new(allowlist: Allowlist) -> Suppressor {
        Suppressor {
            allowlist,
            suppressed: 0,
        }
    }

    /// Emits `finding` unless an inline allow or allowlist entry covers it.
    pub fn emit(&mut self, lx: &Lexed, findings: &mut Vec<Finding>, finding: Finding) {
        let lineno = finding.line.saturating_sub(1);
        if finding.line > 0 && lineno < lx.len() && allow::inline_allowed(lx, lineno, finding.rule)
        {
            self.suppressed += 1;
            return;
        }
        let raw = if finding.line > 0 && lineno < lx.len() {
            lx.raw[lineno].as_str()
        } else {
            ""
        };
        if self.allowlist.suppresses(finding.rule, &finding.file, raw) {
            self.suppressed += 1;
            return;
        }
        findings.push(finding);
    }

    /// Emits a finding anchored to a documentation line (no lexed source;
    /// only the allowlist can suppress it, keyed on the doc line's text).
    pub fn emit_doc(&mut self, raw_line: &str, findings: &mut Vec<Finding>, finding: Finding) {
        if self
            .allowlist
            .suppresses(finding.rule, &finding.file, raw_line)
        {
            self.suppressed += 1;
            return;
        }
        findings.push(finding);
    }
}

/// The source files the per-file checks (atomics, panics, alloc) scan.
fn rust_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates/hb-net/src")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs the enabled checks over the workspace at `opts.root`.
pub fn run(opts: &Options) -> std::io::Result<Report> {
    let mut report = Report::default();

    let allow_path = opts
        .allowlist
        .clone()
        .unwrap_or_else(|| opts.root.join("hb-lint.allow"));
    let allowlist = if allow_path.exists() {
        Allowlist::parse(&std::fs::read_to_string(&allow_path)?)
    } else {
        Allowlist::default()
    };
    for err in &allowlist.errors {
        report.findings.push(Finding {
            rule: Rule::Metric, // rule is moot for a malformed allowlist
            file: rel_of(&opts.root, &allow_path),
            line: 0,
            message: format!("malformed allowlist entry ({err})"),
        });
    }
    let mut sup = Suppressor::new(allowlist);

    let mut lexed: Vec<(String, Lexed)> = Vec::new();
    for path in rust_sources(&opts.root)? {
        let text = std::fs::read_to_string(&path)?;
        lexed.push((rel_of(&opts.root, &path), Lexed::lex(&text)));
    }
    report.files_scanned = lexed.len();

    for (rel, lx) in &lexed {
        if opts.checks.contains(&Check::Atomics) {
            checks::atomics::check(rel, lx, &mut sup, &mut report.findings);
        }
        if opts.checks.contains(&Check::Panics) {
            checks::panics::check(rel, lx, &mut sup, &mut report.findings);
        }
        if opts.checks.contains(&Check::Alloc) {
            checks::alloc::check(rel, lx, &mut sup, &mut report.findings);
        }
    }

    if opts.checks.contains(&Check::WireKinds) {
        let wire_rel = "crates/hb-net/src/wire.rs";
        if let Some((rel, lx)) = lexed.iter().find(|(rel, _)| rel == wire_rel) {
            let wire_md = std::fs::read_to_string(opts.root.join("docs/WIRE.md"))?;
            let proptests =
                std::fs::read_to_string(opts.root.join("crates/hb-net/tests/wire_proptests.rs"))?;
            checks::wire_kinds::check(
                rel,
                lx,
                &wire_md,
                &proptests,
                &mut sup,
                &mut report.findings,
            );
            report.files_scanned += 2;
        }
    }

    if opts.checks.contains(&Check::Metrics) {
        // The Prometheus registry is rendered by query.rs alone; scanning
        // other files would count tests and doc strings quoting the same
        // names as emissions.
        let sources: Vec<(String, &Lexed)> = lexed
            .iter()
            .filter(|(rel, _)| rel.ends_with("src/query.rs"))
            .map(|(rel, lx)| (rel.clone(), lx))
            .collect();
        let telemetry_md = std::fs::read_to_string(opts.root.join("docs/TELEMETRY.md"))?;
        checks::metrics::check(&sources, &telemetry_md, &mut sup, &mut report.findings);
        report.files_scanned += 1;
    }

    report.suppressed = sup.suppressed;
    report.stale_allows = sup.allowlist.stale();
    Ok(report)
}

/// Walks up from `start` to the workspace root (the directory that
/// contains `crates/hb-net`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("crates/hb-net/src/wire.rs").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
