//! Sharded-reactor soak: 1024 producers spread over 4 independent I/O
//! shards, driven in waves so the test respects file-descriptor and
//! thread limits while still registering all 1024 applications.
//!
//! Asserts the three invariants the sharded design stands on:
//!
//! 1. **Exact accounting** — every application's server-side total matches
//!    what its producer sent, across all shards.
//! 2. **No cross-shard ingest** — a producer connection migrates to its
//!    application's home shard at hello time, so the steady-state ingest
//!    path never touches another shard's registry partition. The debug
//!    counter `CollectorState::cross_shard_ingest` must read zero after
//!    the run.
//! 3. **Per-shard counters partition the aggregates** — summing the
//!    per-shard connection and frame counters reproduces the collector's
//!    aggregate counters exactly (nothing attributed twice or dropped).

use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Tag};
use app_heartbeats::net::{Collector, CollectorConfig, TcpBackend};

const PRODUCERS: usize = 1024;
const WAVES: usize = 8;
const WAVE_SIZE: usize = PRODUCERS / WAVES;
const BEATS_PER_PRODUCER: u64 = 20;
const IO_THREADS: usize = 4;

#[test]
fn soak_1024_producers_across_4_shards() {
    let mut collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: IO_THREADS,
            // 1024 apps; keep the per-app history ring small so the test's
            // footprint stays modest.
            history_capacity: 8,
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");
    assert_eq!(collector.io_threads(), IO_THREADS);
    let ingest = collector.ingest_addr().to_string();
    let state = collector.state();

    for wave in 0..WAVES {
        let backends: Vec<Arc<TcpBackend>> = (0..WAVE_SIZE)
            .map(|i| {
                Arc::new(TcpBackend::new(
                    ingest.clone(),
                    format!("shard-soak-{}", wave * WAVE_SIZE + i),
                ))
            })
            .collect();
        for (i, backend) in backends.iter().enumerate() {
            for seq in 0..BEATS_PER_PRODUCER {
                let record = HeartbeatRecord::new(
                    seq,
                    seq * 1_000_000 + (wave * WAVE_SIZE + i) as u64,
                    Tag::NONE,
                    BeatThreadId(0),
                );
                backend.on_beat("ignored", &record, BeatScope::Global);
            }
        }

        // Wait for this wave's beats to land before tearing its
        // connections down; nothing is buffered client-side at that point.
        let expected_apps = (wave + 1) * WAVE_SIZE;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let complete = state
                .snapshots()
                .iter()
                .filter(|s| s.total_beats >= BEATS_PER_PRODUCER)
                .count();
            if complete == expected_apps {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "wave {wave}: only {complete}/{expected_apps} apps fully ingested"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        for backend in &backends {
            assert_eq!(backend.dropped_beats(), 0);
            assert_eq!(backend.sent(), BEATS_PER_PRODUCER);
        }
        drop(backends);
    }

    // Exact per-app accounting across every shard.
    let snapshots = state.snapshots();
    assert_eq!(snapshots.len(), PRODUCERS);
    for snap in &snapshots {
        assert_eq!(
            snap.total_beats, BEATS_PER_PRODUCER,
            "app {} total mismatch",
            snap.app
        );
        assert_eq!(snap.producer_dropped, 0, "app {} dropped beats", snap.app);
    }

    // Hello-time migration means the hot ingest path never crossed shards.
    assert_eq!(
        state.cross_shard_ingest(),
        0,
        "steady-state ingest must stay on each app's home shard"
    );

    // Per-shard counters are an exact partition of the aggregates.
    let shards = state.shard_counters();
    assert_eq!(shards.len(), IO_THREADS);
    let conn_sum: u64 = shards.iter().map(|(c, _)| c).sum();
    let frame_sum: u64 = shards.iter().map(|(_, f)| f).sum();
    assert_eq!(conn_sum, state.connections_total());
    assert_eq!(frame_sum, state.frames_total());
    assert_eq!(conn_sum as usize, PRODUCERS);
    // With 4 shards serving 1024 hashed apps, every shard must have seen
    // real work — the hash actually spreads load.
    for (shard, (connections, frames)) in shards.iter().enumerate() {
        assert!(*connections > 0, "shard {shard} served no connections");
        assert!(*frames > 0, "shard {shard} ingested no frames");
    }

    collector.shutdown();
}
