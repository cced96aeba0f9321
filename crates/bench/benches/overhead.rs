//! Heartbeat-issue overhead (ablation A2 and the Section 5.1 claim that the
//! framework is low-overhead).
//!
//! Measures the cost of `HB_heartbeat` on the lock-free and mutex-based
//! in-memory buffers, with the file and shared-memory mirroring backends
//! attached, and the cost of `HB_current_rate` from the observer side.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hb_shm::{FileBackend, ShmBackend};
use heartbeats::{BufferKind, HeartbeatBuilder, Tag};

fn bench_heartbeat_buffers(c: &mut Criterion) {
    let mut group = c.benchmark_group("heartbeat_issue");
    for (name, kind) in [
        ("atomic_ring", BufferKind::Atomic),
        ("mutex_ring", BufferKind::Mutex),
    ] {
        let hb = HeartbeatBuilder::new(format!("bench-{name}"))
            .window(20)
            .capacity(1 << 12)
            .buffer_kind(kind)
            .build()
            .unwrap();
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(hb.heartbeat()));
        });
    }
    group.finish();
}

fn bench_heartbeat_with_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("heartbeat_issue_backends");

    let plain = HeartbeatBuilder::new("bench-plain")
        .window(20)
        .build()
        .unwrap();
    group.bench_function("no_backend", |b| {
        b.iter(|| std::hint::black_box(plain.heartbeat()));
    });

    let path = std::env::temp_dir().join(format!("hb-bench-file-{}.log", std::process::id()));
    let file_hb = HeartbeatBuilder::new("bench-file")
        .window(20)
        .backend(Arc::new(FileBackend::create(&path).unwrap()))
        .build()
        .unwrap();
    group.bench_function("file_backend", |b| {
        b.iter(|| std::hint::black_box(file_hb.heartbeat()));
    });

    let shm_name = format!("hb-bench-shm-{}", std::process::id());
    let shm_hb = HeartbeatBuilder::new("bench-shm")
        .window(20)
        .backend(Arc::new(
            ShmBackend::create(&shm_name, 1 << 12, 20).unwrap(),
        ))
        .build()
        .unwrap();
    group.bench_function("shm_backend", |b| {
        b.iter(|| std::hint::black_box(shm_hb.heartbeat()));
    });

    group.finish();
    std::fs::remove_file(&path).ok();
    hb_shm::ShmSegment::unlink(&shm_name).ok();
}

fn bench_observer_queries(c: &mut Criterion) {
    let hb = HeartbeatBuilder::new("bench-observer")
        .window(20)
        .capacity(1 << 12)
        .build()
        .unwrap();
    for i in 0..4096u64 {
        hb.heartbeat_tagged(Tag::new(i));
    }
    let reader = hb.reader();
    let mut group = c.benchmark_group("observer_queries");
    group.bench_function("current_rate_window20", |b| {
        b.iter(|| std::hint::black_box(reader.current_rate(20)));
    });
    group.bench_function("current_rate_window1000", |b| {
        b.iter(|| std::hint::black_box(reader.current_rate(1000)));
    });
    group.bench_function("history_100", |b| {
        b.iter_batched(
            || (),
            |_| std::hint::black_box(reader.history(100)),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_heartbeat_buffers,
    bench_heartbeat_with_backends,
    bench_observer_queries
);
criterion_main!(benches);
