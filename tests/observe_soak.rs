//! Fan-out soak: 64 push subscribers, each watching all 8 producing
//! applications through a `fan-*` glob, every beat forwarded as a raw-beat
//! event — with **exact** per-app delivery counts at every subscriber.
//!
//! This is the push plane's answer to the "N pollers hammering the
//! collector" problem: one ingest stream fans out to 64 independent
//! bounded queues, and nothing is lost as long as the subscribers keep
//! draining (every drop would be visible in the collector's
//! `events_dropped` counter and each subscription's `lost()` — both pinned
//! to zero here).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::observe::{Interest, ObserveFilter};
use app_heartbeats::heartbeats::{Backend, HeartbeatBuilder};
use app_heartbeats::net::{
    Collector, CollectorConfig, EventPayload, RemoteReader, TcpBackend,
};

const APPS: usize = 8;
const SUBSCRIBERS: usize = 64;
const BEATS_PER_APP: u64 = 200;

#[test]
fn fanout_64_subscribers_8_apps_exact_counts() {
    let collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            // Batches (not beats) bound the queue; 200-beat producers flush
            // every 2 ms, so a few hundred slots is generous headroom.
            sub_queue_capacity: 4096,
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");

    // All subscribers first: raw-beat events only cover beats ingested
    // after the subscription, and exactness needs every beat.
    let filter = ObserveFilter::new(Interest::BEATS).min_interval(Duration::ZERO);
    let subs: Vec<_> = (0..SUBSCRIBERS)
        .map(|i| {
            let reader = Arc::new(
                RemoteReader::connect(collector.query_addr().to_string())
                    .unwrap_or_else(|e| panic!("subscriber {i} connect: {e}")),
            );
            let sub = reader
                .subscribe("fan-*", &filter)
                .unwrap_or_else(|e| panic!("subscriber {i} subscribe: {e}"));
            (reader, sub)
        })
        .collect();
    assert_eq!(collector.state().subscriptions().active(), SUBSCRIBERS);

    // 8 producers beat concurrently, exactly BEATS_PER_APP times each.
    let producers: Vec<_> = (0..APPS)
        .map(|i| {
            let app = format!("fan-{i}");
            let ingest = collector.ingest_addr().to_string();
            std::thread::spawn(move || {
                let backend = Arc::new(TcpBackend::new(ingest, &app));
                let hb = HeartbeatBuilder::new(&app)
                    .backend(Arc::clone(&backend) as Arc<dyn Backend>)
                    .build()
                    .expect("build heartbeat");
                for _ in 0..BEATS_PER_APP {
                    hb.heartbeat();
                    std::thread::sleep(Duration::from_micros(200));
                }
                hb.flush().expect("flush");
                assert_eq!(backend.dropped_beats(), 0, "{app}: producer shed beats");
            })
        })
        .collect();
    for producer in producers {
        producer.join().expect("producer thread");
    }

    // Every subscriber must account for every beat of every app — exactly.
    let deadline = Instant::now() + Duration::from_secs(60);
    for (index, (_reader, sub)) in subs.iter().enumerate() {
        let mut per_app: HashMap<String, u64> = HashMap::new();
        let mut delivered: u64 = 0;
        while delivered < APPS as u64 * BEATS_PER_APP {
            let remaining = deadline.saturating_duration_since(Instant::now());
            assert!(
                !remaining.is_zero(),
                "subscriber {index}: timed out at {delivered} beats ({per_app:?})"
            );
            let event = sub
                .next_timeout(remaining.min(Duration::from_secs(5)))
                .unwrap_or_else(|| {
                    panic!("subscriber {index}: no event at {delivered} beats ({per_app:?})")
                });
            match event.payload {
                EventPayload::Beats { beats, .. } => {
                    let n = beats.len() as u64;
                    delivered += n;
                    *per_app.entry(event.app).or_default() += n;
                }
                other => panic!("subscriber {index}: unexpected event {other:?}"),
            }
        }
        for i in 0..APPS {
            assert_eq!(
                per_app.get(&format!("fan-{i}")).copied(),
                Some(BEATS_PER_APP),
                "subscriber {index}: exact per-app count"
            );
        }
        assert_eq!(sub.lost(), 0, "subscriber {index}: client queue overflowed");
    }

    let state = collector.state();
    assert_eq!(
        state.events_dropped_total(),
        0,
        "collector shed events despite draining subscribers"
    );
    assert_eq!(
        state.queries_total(),
        0,
        "the whole soak ran on pushes alone — not one poll"
    );
}
