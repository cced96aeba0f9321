//! Ablation A3 microbenchmarks: cost of windowed-rate estimation as the
//! window grows, and of the moving-average tracker the figures use.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use heartbeats::{window, BeatThreadId, HeartbeatRecord, MovingRate, Tag};

fn records(n: usize) -> Vec<HeartbeatRecord> {
    (0..n as u64)
        .map(|i| HeartbeatRecord::new(i, i * 1_000_000, Tag::new(i), BeatThreadId(0)))
        .collect()
}

fn bench_windowed_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("windowed_rate");
    for n in [10usize, 100, 1_000, 10_000] {
        let data = records(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| std::hint::black_box(window::windowed_rate(data)));
        });
    }
    group.finish();
}

fn bench_window_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_stats");
    for n in [100usize, 1_000] {
        let data = records(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| std::hint::black_box(window::window_stats(data)));
        });
    }
    group.finish();
}

fn bench_moving_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("moving_rate_push");
    for window_size in [20usize, 200] {
        group.bench_with_input(
            BenchmarkId::from_parameter(window_size),
            &window_size,
            |b, &window_size| {
                let mut tracker = MovingRate::new(window_size);
                let mut t = 0u64;
                b.iter(|| {
                    t += 1_000_000;
                    std::hint::black_box(tracker.push(t))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_windowed_rate,
    bench_window_stats,
    bench_moving_rate
);
criterion_main!(benches);
