//! Soak test: 256 concurrent producers streaming batched beats into one
//! collector while 16 observers poll queries — the load shape the
//! event-driven reactor exists for.
//!
//! Asserts that (a) every application's server-side total matches exactly
//! what its producer sent (batches are absorbed atomically, nothing is
//! dropped or double-counted), and (b) the collector served all 272
//! sockets with its fixed, configured I/O thread pool rather than a thread
//! per connection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Tag};
use app_heartbeats::net::{Collector, CollectorConfig, RemoteReader, TcpBackend};

const PRODUCERS: usize = 256;
const OBSERVERS: usize = 16;
const BEATS_PER_PRODUCER: u64 = 100;
const IO_THREADS: usize = 2;

/// Counts live threads of this process whose name starts with `prefix`
/// (Linux: thread names are exposed in /proc/self/task/\*/comm).
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    let mut count = 0;
    for entry in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let mut path = entry.expect("task entry").path();
        path.push("comm");
        if let Ok(name) = std::fs::read_to_string(path) {
            if name.trim_end().starts_with(prefix) {
                count += 1;
            }
        }
    }
    count
}

#[test]
fn soak_256_producers_16_observers() {
    let mut collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: IO_THREADS,
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");
    assert_eq!(collector.io_threads(), IO_THREADS);
    let ingest = collector.ingest_addr().to_string();
    let query = collector.query_addr().to_string();

    // Observers poll the query port for the whole run.
    let done = Arc::new(AtomicBool::new(false));
    let observers: Vec<_> = (0..OBSERVERS)
        .map(|i| {
            let query = query.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let reader = loop {
                    match RemoteReader::connect(query.clone()) {
                        Ok(reader) => break reader,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                let mut polls = 0u64;
                while !done.load(Ordering::Relaxed) {
                    match i % 3 {
                        0 => {
                            let _ = reader.apps();
                        }
                        1 => {
                            let _ = reader.snapshot(&format!("soak-{}", i * 7 % PRODUCERS));
                        }
                        _ => {
                            let _ = reader.metrics();
                        }
                    }
                    polls += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                polls
            })
        })
        .collect();

    // 256 producers, each its own TCP connection streaming batched beats.
    let backends: Vec<Arc<TcpBackend>> = (0..PRODUCERS)
        .map(|i| {
            Arc::new(TcpBackend::new(ingest.clone(), format!("soak-{i}")))
        })
        .collect();
    for (i, backend) in backends.iter().enumerate() {
        for seq in 0..BEATS_PER_PRODUCER {
            let record = HeartbeatRecord::new(
                seq,
                seq * 1_000_000 + i as u64, // ~1 kbps, distinct per app
                Tag::NONE,
                BeatThreadId(0),
            );
            backend.on_beat("ignored", &record, BeatScope::Global);
        }
    }

    // Every beat must land: batches are delivered reliably once connected,
    // and the queues are far larger than the per-producer volume.
    let state = collector.state();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let complete = state
            .snapshots()
            .iter()
            .filter(|s| s.total_beats >= BEATS_PER_PRODUCER)
            .count();
        if complete == PRODUCERS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "only {complete}/{PRODUCERS} producers fully ingested before the deadline"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Exact per-app accounting: nothing dropped, nothing double-counted.
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
    for backend in &backends {
        assert_eq!(backend.dropped_beats(), 0);
        assert_eq!(backend.sent(), BEATS_PER_PRODUCER);
    }

    // The collector served 256 producers + 16 observers with its fixed pool.
    let reader = RemoteReader::connect(query.clone()).expect("connect stats reader");
    let stats = reader.stats().expect("STATS");
    assert_eq!(stats.io_threads as usize, IO_THREADS);
    assert_eq!(stats.connections as usize, PRODUCERS);
    assert_eq!(stats.apps as usize, PRODUCERS);
    drop(reader);

    #[cfg(target_os = "linux")]
    {
        assert_eq!(
            threads_named("hb-reactor-"),
            IO_THREADS,
            "collector must use exactly its configured I/O threads"
        );
        assert_eq!(
            threads_named("hb-collector-producer")
                + threads_named("hb-collector-observer")
                + threads_named("hb-collector-ingest")
                + threads_named("hb-collector-query"),
            0,
            "no thread-per-connection serving threads may exist"
        );
    }

    done.store(true, Ordering::Relaxed);
    for observer in observers {
        let polls = observer.join().expect("observer thread");
        assert!(polls > 0, "every observer made progress");
    }
    drop(backends);
    collector.shutdown();
}
