//! Minimal, API-compatible subset of the `criterion` crate.
//!
//! Implements the harness surface this workspace's benches use —
//! [`criterion_group!`]/[`criterion_main!`], benchmark groups,
//! `bench_function`/`bench_with_input`, `Bencher::iter`/`iter_batched`,
//! [`BenchmarkId`], [`Throughput`] — with a simple adaptive wall-clock
//! measurement loop instead of criterion's statistical machinery. Each
//! benchmark prints `name ... time: <t> ns/iter` (plus a throughput line when
//! declared) so results remain comparable run-to-run.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export so benches can use `criterion::black_box`.
pub use std::hint::black_box;

/// Target cumulative measurement time per benchmark.
const TARGET_TIME: Duration = Duration::from_millis(300);

/// The benchmark manager handed to every `criterion_group!` target.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Honor `cargo bench -- <filter>` the way criterion does, loosely:
        // any non-flag argument filters benchmark names by substring.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && a != "--bench");
        Criterion { filter }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
            throughput: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_benchmark(self, &id.to_string(), 100, None, f);
        self
    }

    fn matches(&self, name: &str) -> bool {
        match &self.filter {
            Some(f) => name.contains(f.as_str()),
            None => true,
        }
    }
}

/// Declared units of work per iteration, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup; the shim treats all sizes identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{parameter}"),
        }
    }

    /// Parameter-only form, used inside `bench_with_input`.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId { name: name.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the work performed by one iteration for throughput output.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_benchmark(self.criterion, &full, self.sample_size, self.throughput, f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(
            self.criterion,
            &full,
            self.sample_size,
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group (formatting parity with criterion; no-op here).
    pub fn finish(self) {}
}

/// Timing harness passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, called `self.iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_benchmark<F>(
    criterion: &Criterion,
    name: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    if !criterion.matches(name) {
        return;
    }
    // Calibration pass: one iteration to estimate cost.
    let mut bencher = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let est = bencher.elapsed.max(Duration::from_nanos(1));
    // Choose an iteration count that fills the time budget, bounded by the
    // requested sample size on slow benchmarks.
    let by_time = (TARGET_TIME.as_nanos() / est.as_nanos()).clamp(1, 10_000_000) as u64;
    let iters = by_time.min(sample_size.max(1) as u64 * 1_000).max(1);
    bencher.iters = iters;
    f(&mut bencher);
    let per_iter_ns = bencher.elapsed.as_nanos() as f64 / iters as f64;
    println!(
        "{name:<60} time: {:>12.1} ns/iter  ({iters} iters)",
        per_iter_ns
    );
    if let Some(tp) = throughput {
        let (units, label) = match tp {
            Throughput::Elements(n) => (n, "elem/s"),
            Throughput::Bytes(n) => (n, "B/s"),
        };
        let per_sec = units as f64 / (per_iter_ns / 1e9);
        println!("{name:<60} thrpt: {:>12.3e} {label}", per_sec);
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_iter_measures_something() {
        let mut c = Criterion { filter: None };
        let mut ran = 0u64;
        {
            let mut group = c.benchmark_group("shim");
            group.sample_size(10);
            group.bench_function("count", |b| {
                b.iter(|| {
                    ran += 1;
                })
            });
            group.finish();
        }
        assert!(ran > 0);
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x264").to_string(), "x264");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
        };
        let mut ran = false;
        c.bench_function("other", |b| {
            ran = true;
            b.iter(|| ());
        });
        assert!(!ran);
    }
}
