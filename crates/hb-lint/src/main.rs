//! CLI for hb-lint. `cargo run -p hb-lint -- --check` from anywhere in
//! the workspace; exit 0 when clean, 1 on findings, 2 on usage/IO errors.

use hb_lint::{find_root, run, Check, Options};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hb-lint — in-repo invariant checker (see docs/LINTS.md)

USAGE:
    cargo run -p hb-lint -- [--check] [OPTIONS]

OPTIONS:
    --check             run the enabled checks (the default action)
    --only LIST         comma-separated checks to run (others skipped)
    --skip LIST         comma-separated checks to skip
    --root DIR          workspace root (default: walk up from the cwd)
    --allowlist FILE    allowlist path (default: <root>/hb-lint.allow)
    --list-checks       print the check names and exit
    --help              print this help

EXIT STATUS:
    0  clean    1  findings or stale allowlist entries    2  usage/IO error
";

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hb-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_check_list(list: &str) -> Result<Vec<Check>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            Check::parse(name).ok_or_else(|| {
                let known: Vec<&str> = Check::ALL.iter().map(|c| c.name()).collect();
                format!("unknown check `{name}` (known: {})", known.join(", "))
            })
        })
        .collect()
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    let mut only: Option<Vec<Check>> = None;
    let mut skip: Vec<Check> = Vec::new();
    let mut root: Option<PathBuf> = None;
    let mut allowlist: Option<PathBuf> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {}
            "--only" => {
                let list = it.next().ok_or("--only needs a comma-separated list")?;
                only = Some(parse_check_list(&list)?);
            }
            "--skip" => {
                let list = it.next().ok_or("--skip needs a comma-separated list")?;
                skip = parse_check_list(&list)?;
            }
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--allowlist" => {
                allowlist = Some(PathBuf::from(it.next().ok_or("--allowlist needs a file")?));
            }
            "--list-checks" => {
                for check in Check::ALL {
                    println!("{}", check.name());
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_root(&cwd)
                .ok_or("not inside the workspace (crates/hb-net not found); pass --root")?
        }
    };

    let mut checks: BTreeSet<Check> = match only {
        Some(list) => list.into_iter().collect(),
        None => Check::ALL.into_iter().collect(),
    };
    for check in skip {
        checks.remove(&check);
    }

    let opts = Options {
        root,
        checks,
        allowlist,
    };
    let report = run(&opts).map_err(|e| format!("scan failed: {e}"))?;
    print!("{}", report.render());
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
