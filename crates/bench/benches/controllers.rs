//! Ablation A1 microbenchmarks: the cost of one controller decision and of a
//! complete scheduled run under each controller policy.

use control::{Controller, PiController, StepController};
use criterion::{criterion_group, criterion_main, Criterion};
use hb_bench::experiments;

fn bench_controller_decisions(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_decision");
    group.bench_function("step", |b| {
        let mut controller = StepController::new();
        b.iter(|| std::hint::black_box(controller.desired_level(12.0, (30.0, 35.0), 3.0)));
    });
    group.bench_function("pi", |b| {
        let mut controller = PiController::default_gains();
        b.iter(|| std::hint::black_box(controller.desired_level(12.0, (30.0, 35.0), 3.0)));
    });
    group.finish();
}

fn bench_scheduled_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_scenarios");
    group.sample_size(10);
    group.bench_function("controller_ablation_full", |b| {
        b.iter(|| std::hint::black_box(experiments::controller_ablation()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_controller_decisions,
    bench_scheduled_scenarios
);
criterion_main!(benches);
