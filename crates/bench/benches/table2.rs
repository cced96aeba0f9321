//! Table 2 regeneration benchmark: how long the simulated PARSEC suite takes
//! to reproduce the paper's average-heart-rate table, plus per-workload runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hb_bench::experiments;
use simcore::Machine;
use workloads::{parsec, SimWorkload, PAPER_TESTBED_CORES};

fn bench_full_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("all_benchmarks", |b| {
        b.iter(|| std::hint::black_box(experiments::table2_rows()));
    });
    group.finish();
}

fn bench_individual_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_workloads");
    for spec in [
        parsec::blackscholes(),
        parsec::x264(),
        parsec::streamcluster(),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(spec.name.clone()),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let machine = Machine::paper_testbed();
                    let mut workload = SimWorkload::new(spec.clone(), &machine);
                    std::hint::black_box(workload.run_to_completion(PAPER_TESTBED_CORES))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_full_table, bench_individual_workloads);
criterion_main!(benches);
