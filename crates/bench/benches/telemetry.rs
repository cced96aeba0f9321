//! Telemetry overhead benchmarks: the same ingest workload with the
//! pipeline instrumentation enabled (the default) and disabled, at both
//! measurement scales.
//!
//! `telemetry_ingest_e2e` drives 64 real `TcpBackend` connections through
//! the reactor — the acceptance gate is instrumented-vs-uninstrumented
//! within 3% at this scale. `telemetry_ingest_embedded` isolates the
//! registry's batch path where the per-stage cost is easiest to see, and
//! `telemetry_histo_record` prices the primitive itself (three relaxed
//! `fetch_add`s).
//!
//! Results are recorded in `BENCH_telemetry.json` at the repo root.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hb_net::{
    Collector, CollectorConfig, CollectorState, LatencyHisto, TcpBackend, TcpBackendConfig,
};
use heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// Beats pumped per connection per iteration.
const BURST: u64 = 64;

/// Producer connections for the end-to-end comparison (the acceptance
/// criterion's scale).
const CONNECTIONS: usize = 64;

/// A collector plus `CONNECTIONS` connected producers, reused across
/// iterations.
struct Rig {
    _collector: Collector,
    state: Arc<CollectorState>,
    backends: Vec<Arc<TcpBackend>>,
    seq: u64,
}

impl Rig {
    fn new(telemetry: bool) -> Rig {
        let collector = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                telemetry,
                ..CollectorConfig::default()
            },
        )
        .expect("bind collector");
        let ingest = collector.ingest_addr().to_string();
        let backends: Vec<Arc<TcpBackend>> = (0..CONNECTIONS)
            .map(|i| {
                Arc::new(TcpBackend::with_config(
                    ingest.clone(),
                    format!("bench-{i}"),
                    TcpBackendConfig {
                        queue_capacity: 1 << 16,
                        ..TcpBackendConfig::default()
                    },
                ))
            })
            .collect();
        let state = collector.state();
        Rig {
            _collector: collector,
            state,
            backends,
            seq: 0,
        }
    }

    fn ingested(&self) -> u64 {
        self.state
            .snapshots()
            .iter()
            .map(|s| s.total_beats + s.producer_dropped)
            .sum()
    }

    /// Enqueues `BURST` beats on every connection and blocks until the
    /// registry accounted for all of them (delivered or shed).
    fn pump(&mut self) {
        for backend in &self.backends {
            for k in 0..BURST {
                let seq = self.seq + k;
                let record = HeartbeatRecord::new(seq, seq * 1_000_000, Tag::NONE, BeatThreadId(0));
                backend.on_beat("bench", &record, BeatScope::Global);
            }
        }
        self.seq += BURST;
        let goal = self.seq * self.backends.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while self.ingested() < goal {
            assert!(
                std::time::Instant::now() < deadline,
                "ingest stalled: {}/{goal} beats accounted for after 60s",
                self.ingested()
            );
            std::thread::yield_now();
        }
    }
}

/// End-to-end: 64 producers through socket, reactor, decode and registry,
/// instrumented vs not. The full pipeline histogram set is live in the
/// `on` case (decode span per frame, ingest span per batch, reactor thread
/// stats per loop).
fn bench_ingest_e2e(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_ingest_e2e");
    group.sample_size(10);
    for (label, telemetry) in [("off_64conn", false), ("on_64conn", true)] {
        let mut rig = Rig::new(telemetry);
        group.throughput(Throughput::Elements(CONNECTIONS as u64 * BURST));
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| rig.pump())
        });
        if telemetry {
            assert!(
                rig.state.telemetry().ingest.count() > 0,
                "instrumented run must have recorded ingest spans"
            );
        }
    }
    group.finish();
}

/// Embedded registry batch ingest, instrumented vs not: the tightest view
/// of the per-batch span cost (two `Instant::now` reads when enabled, one
/// relaxed atomic load when disabled).
fn bench_ingest_embedded(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_ingest_embedded");
    for (label, telemetry) in [("off", false), ("on", true)] {
        let state = CollectorState::new(CollectorConfig {
            telemetry,
            ..CollectorConfig::default()
        });
        state.hello("quiet", 1, 20);
        let mut next = 0u64;
        group.throughput(Throughput::Elements(BURST));
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                state.ingest_batch(
                    "quiet",
                    0,
                    (0..BURST).map(|k| hb_net::WireBeat {
                        record: HeartbeatRecord::new(
                            next + k,
                            (next + k) * 1_000_000,
                            Tag::NONE,
                            BeatThreadId(0),
                        ),
                        scope: BeatScope::Global,
                    }),
                );
                next += BURST;
                std::hint::black_box(&state)
            });
        });
    }
    group.finish();
}

/// The primitive: one histogram record (bucket + sum + count, all relaxed).
fn bench_histo_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_histo_record");
    let histo = LatencyHisto::new();
    let mut value = 1u64;
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(BenchmarkId::from_parameter("record"), &(), |b, ()| {
        b.iter(|| {
            value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
            histo.record(value >> 40);
            std::hint::black_box(&histo)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_e2e,
    bench_ingest_embedded,
    bench_histo_record
);
criterion_main!(benches);
