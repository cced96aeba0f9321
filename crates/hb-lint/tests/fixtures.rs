//! Fixture-driven self-tests: the good tree lints clean, the bad tree
//! trips every rule with `file:line` findings, and the binary exits
//! nonzero on it. These are the linter's own known-good/known-bad pairs —
//! a check that stops firing on its bad fixture fails here, not in the
//! field.

use hb_lint::report::Rule;
use hb_lint::{run, Check, Options};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn good_fixture_is_clean() {
    let report = run(&Options::new(fixture_root("good"))).unwrap();
    assert!(report.clean(), "unexpected findings:\n{}", report.render());
    assert_eq!(report.files_scanned, 3 + 2 + 1, "{}", report.render());
}

#[test]
fn bad_fixture_trips_every_rule() {
    let report = run(&Options::new(fixture_root("bad"))).unwrap();
    for rule in [
        Rule::Ordering,
        Rule::Claim,
        Rule::Panic,
        Rule::Index,
        Rule::Alloc,
        Rule::WireKind,
        Rule::Metric,
    ] {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "rule `{}` did not fire on the bad fixture:\n{}",
            rule.name(),
            report.render()
        );
    }
    // The deliberately-unmatched allowlist entry is reported stale.
    assert_eq!(report.stale_allows.len(), 1, "{}", report.render());
    // Source-anchored findings render as file:line.
    let rendered = report.render();
    assert!(
        rendered.contains("crates/hb-net/src/wire.rs:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("crates/hb-net/src/reactor.rs:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("crates/hb-net/src/query.rs:"),
        "{rendered}"
    );
}

#[test]
fn bad_fixture_claim_finding_points_at_the_store() {
    let report = run(&Options::new(fixture_root("bad"))).unwrap();
    let claim = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::Claim)
        .expect("claim finding");
    // The store line of the load-then-store pair in fixtures/bad/.../reactor.rs.
    assert!(claim.file.ends_with("reactor.rs"), "{claim}");
    assert_eq!(claim.line, 18, "{claim}");
    assert!(claim.message.contains("compare_exchange"), "{claim}");
}

#[test]
fn single_check_toggle_scopes_findings() {
    let mut opts = Options::new(fixture_root("bad"));
    opts.checks = [Check::Alloc].into_iter().collect();
    let report = run(&opts).unwrap();
    assert!(!report.findings.is_empty());
    assert!(
        report.findings.iter().all(|f| f.rule == Rule::Alloc),
        "{}",
        report.render()
    );
}

#[test]
fn binary_exits_nonzero_with_file_line_findings_on_bad_fixture() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hb-lint"))
        .args(["--check", "--root"])
        .arg(fixture_root("bad"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("crates/hb-net/src/wire.rs:"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_good_fixture() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hb-lint"))
        .args(["--check", "--root"])
        .arg(fixture_root("good"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
}
