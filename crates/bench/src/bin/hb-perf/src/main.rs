//! hb-perf: one benchmark for heartbeat → collector → observer.
//!
//! `hb-perf run` drives the real pipeline over loopback, one child process
//! per workload, prints every metric by name and checks the beat ledger.
//! `hb-perf compare` judges two result files by the bounds in
//! `BENCHMARK.json`. See `README.md` beside this package.

mod compare;
mod json;
mod ledger;
mod proc;
mod rig;
mod run;
mod rungs;
mod spec;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use json::Value;
use proc::ChildEnd;
use spec::{spec, MetricSpec, Report};

const USAGE: &str = "usage:
  hb-perf run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
              [--repeat N] [--out FILE]
  hb-perf compare A.json B.json";

/// The process exit code for a run whose checks did or did not all pass.
pub fn exit_code(correct: bool) -> i32 {
    i32::from(!correct)
}

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: spec().run_seconds,
        traced: false,
        repeat: 1,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                if !spec().has_workload(value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--repeat" => parsed.repeat = number()?.max(1),
            "--trace" => parsed.traced = number()? != 0,
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn print_metrics(report: &Report, specs: &[MetricSpec]) {
    for metric in specs {
        if let Some(value) = report.get(&metric.name) {
            println!(
                "  {:<34} {:>16.4} {:<6} {}",
                metric.name,
                value,
                metric.unit,
                report.note(&metric.name)
            );
        }
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Value) -> Value {
    json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

/// A workload that hung, crashed or could not run: every operation failed.
fn failed_result() -> Value {
    result_json(false, 1, 1, json::obj::<String>([]))
}

/// Runs one workload in this process and prints its report; the last line
/// is the result.
fn child(args: &RunArgs) -> i32 {
    let name = args.workload.as_deref().expect("child runs one workload");
    let plan = workload::plan(name).expect("workload was validated");
    let outcome = match run::run_workload(&plan, args.seed, args.seconds, args.traced) {
        Ok(outcome) => outcome,
        Err(err) => {
            println!("  could not run: {err}");
            println!("{}", failed_result().render());
            return 1;
        }
    };
    println!(
        "workload {name}: seed={} seconds={} trace={} transport=loopback nproc={} io_threads={}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        proc::nproc(),
        outcome.io_threads
    );
    print_metrics(&outcome.end_to_end, &spec().end_to_end);
    let (report, specs) = match &outcome.per_layer {
        None => {
            println!("  not gated (see README):");
            print_metrics(&outcome.candidates, &spec().per_layer);
            (&outcome.end_to_end, &spec().end_to_end)
        }
        Some(layers) => {
            print_metrics(layers, &spec().per_layer);
            for span in &outcome.spans {
                println!(
                    "  span {:<29} {:>16.1} us     self {:.1} us, n={}",
                    span.name,
                    span.mean_ns / 1e3,
                    span.mean_self_ns / 1e3,
                    span.count
                );
            }
            if let Some(path) = &outcome.trace_file {
                println!("  spans written to {}", path.display());
            }
            (layers, &spec().per_layer)
        }
    };
    let mut verdict = outcome.verdict.clone();
    let (missing, extra) = report.mismatch(specs);
    if !missing.is_empty() || !extra.is_empty() {
        verdict.failed += 1;
        verdict.failures.push(format!(
            "metrics differ from BENCHMARK.json: missing {missing:?}, extra {extra:?}"
        ));
    }
    for failure in &verdict.failures {
        println!("  FAILED {failure}");
    }
    println!(
        "  checks: {} attempted, {} failed, failed_ratio {:.6}",
        verdict.attempted,
        verdict.failed,
        verdict.failed_ratio()
    );
    println!(
        "{}",
        result_json(
            verdict.correct(),
            verdict.attempted,
            verdict.failed,
            report.to_json(specs)
        )
        .render()
    );
    exit_code(verdict.correct())
}

/// Runs one workload in a child with a hard deadline and returns its
/// result; anything but a clean exit with a parseable last line is a
/// failed workload, never a stuck or half-printed run.
fn supervise(name: &str, seed: u64, args: &RunArgs) -> Value {
    let child_args: Vec<String> = [
        "child",
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.traced { "1" } else { "0" },
    ]
    .map(str::to_string)
    .to_vec();
    // Three times the planned length: set-ups, warm-up, the measured
    // seconds, quiesce and (traced) the rungs.
    let deadline = Duration::from_secs(3 * (args.seconds + 15));
    match proc::run_child(&child_args, deadline) {
        ChildEnd::Exited(code, text) => {
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            for line in lines {
                println!("{line}");
            }
            match json::parse(last) {
                Ok(result) if result.get("correct").is_some() => result,
                _ => {
                    println!("workload {name}: exited with code {code} and no result");
                    failed_result()
                }
            }
        }
        ChildEnd::TimedOut => {
            println!("workload {name}: killed after {} s", deadline.as_secs());
            failed_result()
        }
        ChildEnd::Failed(err) => {
            println!("workload {name}: {err}");
            failed_result()
        }
    }
}

fn run(args: &RunArgs) -> i32 {
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => workload::WORKLOADS.map(str::to_string).to_vec(),
    };
    println!(
        "hb-perf: git={} kernel={} nproc={} transport=loopback seed={} seconds={} trace={}",
        proc::git_sha(),
        proc::kernel(),
        proc::nproc(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut correct = true;
    let mut runs = Vec::new();
    let mut last = failed_result();
    for repeat in 0..args.repeat {
        let seed = args.seed + repeat;
        let mut results = Vec::new();
        for name in &names {
            let result = supervise(name, seed, args);
            correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
            last = result.clone();
            results.push((name.clone(), result));
        }
        runs.push(json::obj([
            ("seed", Value::Num(seed as f64)),
            ("workloads", Value::Obj(results)),
        ]));
    }
    let document = json::obj([
        (
            "meta",
            json::obj([
                ("git", Value::Str(proc::git_sha())),
                ("kernel", Value::Str(proc::kernel())),
                ("nproc", Value::Num(proc::nproc() as f64)),
                ("transport", Value::Str("loopback".into())),
                ("seconds", Value::Num(args.seconds as f64)),
                ("traced", Value::Bool(args.traced)),
            ]),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    let out = args.out.clone().map_or_else(
        || {
            trace::trace_dir().join(format!(
                "run-{}{}.json",
                args.seed,
                if args.traced { "-traced" } else { "" }
            ))
        },
        std::path::PathBuf::from,
    );
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, document.render() + "\n"));
    match written {
        Ok(()) => println!("results written to {}", out.display()),
        Err(err) => {
            println!("could not write {}: {err}", out.display());
            correct = false;
        }
    }
    if names.len() == 1 && args.repeat == 1 {
        // One workload, one run: the last line is its result.
        println!("{}", last.render());
    }
    exit_code(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if cfg!(debug_assertions) {
        eprintln!("hb-perf: refusing to measure a debug build; run with --release");
        std::process::exit(2);
    }
    let code = match args.split_first() {
        Some((command, rest)) if command == "run" || command == "child" => {
            match parse_run_args(rest) {
                Ok(parsed) if command == "child" && parsed.workload.is_some() => child(&parsed),
                Ok(parsed) if command == "run" => run(&parsed),
                Ok(_) => {
                    eprintln!("hb-perf child: --workload is required");
                    2
                }
                Err(err) => {
                    eprintln!("hb-perf: {err}\n{USAGE}");
                    2
                }
            }
        }
        Some((command, rest)) if command == "compare" && rest.len() == 2 => {
            match compare::compare_files(&rest[0], &rest[1]) {
                Ok(code) => code,
                Err(err) => {
                    eprintln!("hb-perf compare: {err}");
                    2
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_as_the_driver_passes_them() {
        let parsed = parse_run_args(&strings(&[
            "--workload",
            "fanout_push",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("fanout_push"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.traced), (7, 2, true));
        assert_eq!(parse_run_args(&[]).unwrap().seconds, spec().run_seconds);
        assert!(parse_run_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
        assert!(parse_run_args(&strings(&["--seed", "x"])).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.set("setup_s", 0.25);
        let line = result_json(true, 10, 0, report.to_json(&spec().end_to_end)).render();
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
        assert_eq!(exit_code(true), 0);
        assert_eq!(exit_code(false), 1);
    }
}
