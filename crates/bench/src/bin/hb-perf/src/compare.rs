//! `hb-perf compare`: two result files, one row per (workload, metric),
//! judged by the direction and bound `BENCHMARK.json` fixes.

use crate::json::{self, Value};
use crate::spec::{spec, Better, MetricSpec};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sides'
    /// runs overlap: the metric cannot be called unchanged.
    Unresolved,
}

impl Row {
    fn label(self) -> &'static str {
        match self {
            Row::Better => "better",
            Row::Within => "within",
            Row::Worse => "worse",
            Row::Unresolved => "unresolved",
        }
    }
}

/// Judges the runs of `b` against the runs of `a` (the parent).
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let bound = metric.bound.unwrap_or(0.0);
    let base = median(&mut a.to_vec());
    let change = median(&mut b.to_vec());
    if base == 0.0 {
        return if change == 0.0 {
            Row::Within
        } else {
            Row::Unresolved
        };
    }
    // Signed so that positive is worse.
    let worse_by = match metric.better {
        Better::Lower => (change - base) / base.abs(),
        Better::Higher => (base - change) / base.abs(),
    };
    let beats = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if spread(a).max(spread(b)) > bound {
        let all =
            |wins: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| wins(x, y)));
        return if all(&|x, y| beats(x, y)) {
            Row::Better
        } else if worse_by > bound && all(&|x, y| beats(y, x)) {
            Row::Worse
        } else {
            Row::Unresolved
        };
    }
    if worse_by > bound {
        Row::Worse
    } else if worse_by < -bound {
        Row::Better
    } else {
        Row::Within
    }
}

/// One side's runs of one workload.
struct Side {
    values: Vec<(String, Vec<f64>)>,
    failed: u64,
    incorrect: usize,
}

fn side(doc: &Value, workload: &str) -> Side {
    let mut side = Side {
        values: Vec::new(),
        failed: 0,
        incorrect: 0,
    };
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
    for result in runs
        .iter()
        .filter_map(|run| run.get("workloads")?.get(workload))
    {
        side.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            side.incorrect += 1;
        }
        for (name, metric) in result.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
            let Some(value) = metric.get("value").and_then(Value::as_f64) else {
                continue;
            };
            match side.values.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(value),
                None => side.values.push((name.clone(), vec![value])),
            }
        }
    }
    side
}

/// Prints the table; the exit code is 1 when any row is worse, or a run of
/// `b` failed its checks.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<i32, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|err| format!("{path}: {err}"))
            .and_then(|text| json::parse(&text).map_err(|err| format!("{path}: {err}")))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut worse = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "change", "spread", "bound"
    );
    for (workload, _) in &spec().workloads {
        let (side_a, side_b) = (side(&a, workload), side(&b, workload));
        if side_b.incorrect > 0 || side_b.failed > 0 {
            worse += 1;
            println!(
                "{workload:<16} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  worse ({} failed operations, {} incorrect runs)",
                "checks", side_a.failed, side_b.failed, "", "", "", side_b.failed, side_b.incorrect
            );
        }
        for metric in &spec().end_to_end {
            let find = |side: &Side| {
                side.values
                    .iter()
                    .find(|(name, _)| *name == metric.name)
                    .map(|(_, values)| values.clone())
            };
            let (Some(va), Some(vb)) = (find(&side_a), find(&side_b)) else {
                println!("{workload:<16} {:<22} missing on one side", metric.name);
                continue;
            };
            let row = judge(metric, &va, &vb);
            worse += usize::from(row == Row::Worse);
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            println!(
                "{workload:<16} {:<22} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                metric.name,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                spread(&va).max(spread(&vb)) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                row.label(),
            );
        }
    }
    println!("{worse} rows worse");
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "us".into(),
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let lower = metric(Better::Lower);
        assert_eq!(judge(&lower, &[100.0], &[109.0]), Row::Within);
        assert_eq!(judge(&lower, &[100.0], &[111.0]), Row::Worse);
        assert_eq!(judge(&lower, &[100.0], &[89.0]), Row::Better);
        let higher = metric(Better::Higher);
        assert_eq!(judge(&higher, &[100.0], &[91.0]), Row::Within);
        assert_eq!(judge(&higher, &[100.0], &[89.0]), Row::Worse);
        assert_eq!(judge(&higher, &[100.0], &[111.0]), Row::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_agrees() {
        let lower = metric(Better::Lower);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&lower, &noisy, &[95.0, 105.0, 130.0]),
            Row::Unresolved
        );
        assert_eq!(judge(&lower, &noisy, &[70.0, 75.0, 79.0]), Row::Better);
        assert_eq!(judge(&lower, &noisy, &[130.0, 150.0, 121.0]), Row::Worse);
        // Steady runs are judged by their medians alone.
        assert_eq!(
            judge(&lower, &[100.0, 101.0, 99.0], &[112.0, 113.0, 111.0]),
            Row::Worse
        );
    }
}
