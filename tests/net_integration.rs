//! End-to-end loopback tests of the network telemetry subsystem:
//! producer (`TcpBackend`) → collector daemon → observer (`RemoteReader`
//! driving a `control` monitor), plus the backpressure guarantees when the
//! collector is down.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::control::{RateMonitor, RateSource};
use app_heartbeats::heartbeats::observe::{Interest, ObserveFilter};
use app_heartbeats::heartbeats::{
    Backend, BeatScope, BeatThreadId, HeartbeatBuilder, HeartbeatRecord, Tag,
};
use app_heartbeats::net::{
    Collector, CollectorConfig, RemoteReader, TcpBackend, TcpBackendConfig, WireBeat,
};

/// Polls `probe` until it returns `Some` or the timeout elapses.
fn wait_for<T>(timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return Some(value);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn producer_collector_observer_loopback() {
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").expect("bind collector");

    // Producer: a heartbeat-instrumented app mirroring to the collector.
    let backend = Arc::new(TcpBackend::with_config(
        collector.ingest_addr().to_string(),
        "pipeline",
        TcpBackendConfig {
            default_window: 20,
            ..TcpBackendConfig::default()
        },
    ));
    let hb = HeartbeatBuilder::new("pipeline")
        .window(20)
        .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
        .build()
        .expect("build heartbeat");
    hb.set_target_rate(30.0, 35.0).expect("set target");

    const BEATS: u64 = 150;
    for _ in 0..BEATS {
        std::thread::sleep(Duration::from_millis(1));
        hb.heartbeat();
    }
    hb.flush().expect("flush backends");

    // Observer: a remote reader over the query port.
    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    reader.ping().expect("collector answers ping");

    // All beats eventually land in the collector registry.
    let snapshot = wait_for(Duration::from_secs(10), || {
        reader
            .snapshot("pipeline")
            .ok()
            .flatten()
            .filter(|s| s.total_beats >= BEATS)
    })
    .expect("collector received all beats");
    assert_eq!(snapshot.total_beats, BEATS);
    assert!(snapshot.alive, "app beat recently, must be alive");
    assert_eq!(snapshot.producer_dropped, 0, "collector was up throughout");
    // The remote snapshot is the in-process one, field for field — the
    // binary reply carries what the old text line dropped.
    assert!(snapshot.mean_interval_ns.is_some());
    assert_eq!(
        Some(&snapshot),
        collector.state().snapshot("pipeline").as_ref()
    );

    // The collector's windowed rate tracks the producer's local estimate
    // within 10% (both are computed from the same beat timestamps).
    let local_rate = hb.current_rate(0).expect("local rate");
    let remote_rate = snapshot.rate_bps.expect("remote rate");
    assert!(
        (remote_rate - local_rate).abs() / local_rate < 0.10,
        "remote {remote_rate} vs local {local_rate}"
    );

    // Target propagation: the initial goal and a later change both arrive.
    assert_eq!(snapshot.target, Some((30.0, 35.0)));
    hb.set_target_rate(50.0, 60.0).expect("retarget");
    hb.flush().expect("flush target");
    let updated = wait_for(Duration::from_secs(5), || {
        reader
            .snapshot("pipeline")
            .ok()
            .flatten()
            .filter(|s| s.target == Some((50.0, 60.0)))
    });
    assert!(updated.is_some(), "target change must reach the collector");

    // The remote app drives a control-layer monitor exactly like a local
    // reader would.
    let remote = reader.app("pipeline");
    assert_eq!(remote.name(), "pipeline");
    assert_eq!(remote.total_beats(), BEATS);
    assert_eq!(remote.target(), Some((50.0, 60.0)));
    let mut monitor = RateMonitor::new(remote).with_check_every(1);
    let observation = monitor.poll().expect("observation from remote source");
    assert_eq!(observation.beat, BEATS);
    assert!(observation.rate_bps.is_some());

    // The producer-side stats account for every beat.
    let stats = wait_for(Duration::from_secs(5), || {
        let stats = backend.stats();
        (stats.mirrored == BEATS).then_some(stats)
    })
    .expect("all beats shipped");
    assert_eq!(stats.dropped, 0);

    // Registry listing and Prometheus export expose the app.
    assert_eq!(reader.apps().expect("LIST"), vec!["pipeline".to_string()]);
    let metrics = reader.metrics().expect("METRICS");
    assert!(metrics.contains("hb_app_beats_total{app=\"pipeline\"} 150"));
    assert!(metrics.contains("hb_app_target_min_bps{app=\"pipeline\"} 50"));
}

/// A Prometheus export larger than one frame payload reaches the reader
/// whole — chunked, not truncated — on a plain connection and on a
/// demux-upgraded one with pushed events interleaving between the chunks,
/// even past the collector's cap on one connection's pending replies.
#[test]
fn metrics_export_larger_than_one_frame_arrives_whole() {
    /// The lines a concurrent beat stream or a clock cannot change: every
    /// `# HELP`/`# TYPE` line and every per-app series but the live app's.
    fn stable(export: &str) -> Vec<&str> {
        export
            .lines()
            .filter(|line| line.starts_with("# ") || line.starts_with("hb_app_"))
            .filter(|line| !line.contains("app=\"live\""))
            .collect()
    }

    let collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            history_capacity: 8, // thousands of default rings would be ~250 MB
            stale_after: Duration::from_secs(3600), // `alive` must not flip mid-test
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");
    let state = collector.state();
    for i in 0..3000u32 {
        state.hello(&format!("{i:0>96}"), i, 20);
    }
    let expected = state.prometheus();
    assert!(
        expected.len() > 1 << 20,
        "export is {} bytes",
        expected.len()
    );

    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    let direct = reader.metrics().expect("chunked METRICS, direct");
    assert!(direct.len() > 1 << 20);
    assert_eq!(stable(&direct), stable(&expected));
    assert_eq!(reader.apps().expect("LIST").len(), 3000);

    // Upgrade to demux mode with a live raw-beats subscription, and keep
    // events flowing while the export is scraped again.
    let filter = ObserveFilter::new(Interest::BEATS);
    let sub = reader.subscribe("live", &filter).expect("subscribe");
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let beat = WireBeat {
                    record: HeartbeatRecord::new(seq, seq * 1_000, Tag::NONE, BeatThreadId(0)),
                    scope: BeatScope::Global,
                };
                state.ingest_batch("live", 0, [beat]);
                seq += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            seq
        })
    };
    wait_for(Duration::from_secs(5), || sub.try_next()).expect("events are flowing");
    for _ in 0..3 {
        let before = sub.try_next().is_some();
        let demuxed = reader.metrics().expect("chunked METRICS, demuxed");
        assert_eq!(stable(&demuxed), stable(&expected));
        let during = wait_for(Duration::from_secs(5), || sub.try_next()).is_some();
        assert!(before || during, "events interleave with the scrape");
    }

    // One reply may exceed the collector's pending-reply cap (two maximal
    // frames plus a query line, ~2 MiB): the cap stops a client piling up
    // questions, not one large answer. The export arrives whole and the
    // connection, with its subscription, outlives it.
    for i in 3000..5000u32 {
        state.hello(&format!("{i:0>96}"), i, 20);
    }
    let expected = state.prometheus();
    assert!(expected.len() > (2 << 20) + (64 << 10) + 28);
    let large = reader.metrics().expect("an export over the pending-reply cap");
    assert_eq!(stable(&large), stable(&expected));
    while sub.try_next().is_some() {}
    wait_for(Duration::from_secs(5), || sub.try_next()).expect("the subscription survived");

    stop.store(true, Ordering::Relaxed);
    let produced = feeder.join().expect("feeder");
    assert!(produced > 0);
    assert_eq!(sub.lost(), 0, "the demux kept up");
}

#[test]
fn on_beat_never_blocks_when_collector_is_down() {
    // Reserve a port, then free it so nothing listens there.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let dead_addr = placeholder.local_addr().expect("addr").to_string();
    drop(placeholder);

    let backend = Arc::new(TcpBackend::new(dead_addr, "orphan"));
    let hb = HeartbeatBuilder::new("orphan")
        .capacity(1 << 14)
        .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
        .build()
        .expect("build heartbeat");

    const BEATS: u64 = 100_000;
    let start = Instant::now();
    for _ in 0..BEATS {
        hb.heartbeat();
    }
    let elapsed = start.elapsed();
    assert_eq!(hb.total_beats(), BEATS, "every beat lands in local history");
    assert!(
        elapsed < Duration::from_secs(10),
        "100k beats into a dead collector took {elapsed:?}; the hot path must not block"
    );

    let stats = hb.backend_stats();
    assert!(
        stats.dropped > 0,
        "with no collector, the bounded queue must shed beats"
    );
    assert_eq!(
        stats.mirrored, 0,
        "nothing can have been delivered to a dead collector"
    );
    assert!(backend.dropped_beats() > 0);
    assert!(!backend.is_connected());
}

#[test]
fn multiple_apps_share_one_collector() {
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").expect("bind collector");
    let ingest = collector.ingest_addr().to_string();

    let apps = ["svc-a", "svc-b", "svc-c"];
    let handles: Vec<_> = apps
        .iter()
        .map(|name| {
            let ingest = ingest.clone();
            let name = name.to_string();
            std::thread::spawn(move || {
                let backend = Arc::new(TcpBackend::new(ingest, name.clone()));
                let hb = HeartbeatBuilder::new(name)
                    .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
                    .build()
                    .expect("build heartbeat");
                for _ in 0..50 {
                    std::thread::sleep(Duration::from_micros(500));
                    hb.heartbeat();
                }
                hb.flush().expect("flush");
                // Wait for delivery before dropping the backend.
                let deadline = Instant::now() + Duration::from_secs(10);
                while backend.sent() < 50 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert_eq!(backend.sent(), 50);
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("producer thread");
    }

    let state = collector.state();
    let names = state.app_names();
    assert_eq!(names, apps.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for app in apps {
        let snap = state.snapshot(app).expect("snapshot");
        assert_eq!(snap.total_beats, 50, "{app} delivered every beat");
    }
}
