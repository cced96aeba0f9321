//! Collector ingest benchmarks: end-to-end beats/second through the
//! sharded event-driven reactor across a connections × io_threads matrix,
//! plus the batched vs. per-beat `TcpBackend` framing comparison.
//!
//! Each iteration enqueues a burst of beats into every producer's
//! `TcpBackend` and waits until the collector has accounted for them all,
//! so the measurement covers the full path: queue → flusher → batch
//! framing → TCP → reactor shard → frame decode → sharded registry.
//! Completion is detected with one relaxed load
//! (`CollectorState::beats_accounted`) so the spin loop does not perturb
//! the registry it is measuring.
//!
//! `HB_BENCH_SMOKE=1` (set by CI) trims the matrix to its corner points so
//! the smoke run finishes quickly while still exercising the multi-shard
//! path. Results are recorded in `BENCH_collector.json` at the repo root.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hb_net::{
    Collector, CollectorConfig, CollectorState, TcpBackend, TcpBackendConfig, UpstreamConfig,
    WireBeat,
};
use heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// Beats pumped per connection per iteration.
const BURST: u64 = 64;

fn smoke() -> bool {
    std::env::var("HB_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// A collector plus `n` connected producers, reused across iterations.
struct Rig {
    _collector: Collector,
    state: Arc<CollectorState>,
    backends: Vec<Arc<TcpBackend>>,
    seq: u64,
}

impl Rig {
    fn new(connections: usize, io_threads: usize, frame_per_beat: bool) -> Rig {
        let collector = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads,
                ..CollectorConfig::default()
            },
        )
        .expect("bind collector");
        let ingest = collector.ingest_addr().to_string();
        let backends: Vec<Arc<TcpBackend>> = (0..connections)
            .map(|i| {
                Arc::new(TcpBackend::with_config(
                    ingest.clone(),
                    format!("bench-{i}"),
                    TcpBackendConfig {
                        flush_interval: Duration::from_millis(1),
                        queue_capacity: 1 << 16,
                        frame_per_beat,
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

    /// Enqueues `BURST` beats on every connection and blocks until the
    /// collector accounted for all of them (delivered or shed).
    fn pump(&mut self) {
        for backend in &self.backends {
            for k in 0..BURST {
                let seq = self.seq + k;
                let record =
                    HeartbeatRecord::new(seq, seq * 1_000_000, Tag::NONE, BeatThreadId(0));
                backend.on_beat("bench", &record, BeatScope::Global);
            }
        }
        self.seq += BURST;
        let goal = self.seq * self.backends.len() as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while self.state.beats_accounted() < goal {
            assert!(
                std::time::Instant::now() < deadline,
                "ingest stalled: {}/{goal} beats accounted for after 60s",
                self.state.beats_accounted()
            );
            std::thread::yield_now();
        }
    }
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_ingest");
    group.sample_size(10);
    // Full matrix for BENCH_collector.json; smoke keeps the corner points
    // (fewest/most connections, single vs. most shards).
    let connections: &[usize] = if smoke() {
        &[1, 256]
    } else {
        &[1, 8, 64, 256, 1024]
    };
    let io_threads: &[usize] = if smoke() { &[1, 4] } else { &[1, 2, 4] };
    for &conns in connections {
        for &threads in io_threads {
            let mut rig = Rig::new(conns, threads, false);
            group.throughput(Throughput::Elements(conns as u64 * BURST));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{conns}conn_{threads}shard")),
                &conns,
                |b, _| b.iter(|| rig.pump()),
            );
        }
    }
    group.finish();
}

fn bench_flush_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_flush_path");
    group.sample_size(10);
    for (label, frame_per_beat) in [("batched_64conn", false), ("per_beat_64conn", true)] {
        let mut rig = Rig::new(64, 2, frame_per_beat);
        group.throughput(Throughput::Elements(64 * BURST));
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| rig.pump())
        });
    }
    group.finish();
}

/// A two-tier federation pair: a leaf collector re-exporting everything it
/// ingests to a parent over the uplink relay. Ingest goes straight into the
/// leaf registry (`ingest_batch`), so the measured path is the federation
/// overhead itself: capture tap → relay encode → TCP → parent decode →
/// namespaced absorb → cumulative ack.
struct FederationRig {
    _parent: Collector,
    _leaf: Collector,
    parent_state: Arc<CollectorState>,
    leaf_state: Arc<CollectorState>,
    apps: usize,
    seq: u64,
}

impl FederationRig {
    fn new(apps: usize) -> FederationRig {
        let parent = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads: 2,
                ..CollectorConfig::default()
            },
        )
        .expect("bind parent");
        let leaf = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads: 1,
                upstream: Some(UpstreamConfig::new(
                    parent.ingest_addr().to_string(),
                    "bench-leaf",
                )),
                ..CollectorConfig::default()
            },
        )
        .expect("bind leaf");
        let parent_state = parent.state();
        let leaf_state = leaf.state();
        FederationRig {
            _parent: parent,
            _leaf: leaf,
            parent_state,
            leaf_state,
            apps,
            seq: 0,
        }
    }

    /// Ingests `BURST` beats per app at the leaf and blocks until the
    /// parent has accounted for every re-exported beat.
    fn pump(&mut self) {
        for a in 0..self.apps {
            let app = format!("up{a:03}");
            let beats: Vec<WireBeat> = (0..BURST)
                .map(|k| {
                    let seq = self.seq + k;
                    WireBeat {
                        record: HeartbeatRecord::new(
                            seq,
                            seq * 1_000_000,
                            Tag::NONE,
                            BeatThreadId(0),
                        ),
                        scope: BeatScope::Global,
                    }
                })
                .collect();
            self.leaf_state.ingest_batch(&app, 0, beats);
        }
        self.seq += BURST;
        let goal = self.seq * self.apps as u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while self.parent_state.beats_accounted() < goal {
            assert!(
                std::time::Instant::now() < deadline,
                "uplink stalled: {}/{goal} beats at the parent after 60s",
                self.parent_state.beats_accounted()
            );
            std::thread::yield_now();
        }
    }
}

fn bench_upstream(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_upstream");
    group.sample_size(10);
    // Smoke keeps the single mid-size point; the full run also measures a
    // wide registry where every pump touches many namespaced apps.
    let apps: &[usize] = if smoke() { &[64] } else { &[8, 64, 256] };
    for &apps in apps {
        let mut rig = FederationRig::new(apps);
        group.throughput(Throughput::Elements(apps as u64 * BURST));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("leaf_reexport_{apps}apps")),
            &apps,
            |b, _| b.iter(|| rig.pump()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ingest, bench_flush_path, bench_upstream);
criterion_main!(benches);
