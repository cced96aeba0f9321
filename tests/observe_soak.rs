//! Fan-out soak: 64 push subscribers, each watching all 8 producing
//! applications through a `fan-*` glob, every beat forwarded as a raw-beat
//! event — with **exact** per-app delivery counts at every subscriber.
//!
//! This is the push plane's answer to the "N pollers hammering the
//! collector" problem: one ingest stream fans out to 64 independent
//! bounded queues, and nothing is lost as long as the subscribers keep
//! draining (every drop would be visible in the collector's
//! `events_dropped` counter and each subscription's `lost()` — both pinned
//! to zero here). All 64 subscribed readers share one client thread.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::observe::{Interest, ObserveFilter};
use app_heartbeats::heartbeats::{Backend, HeartbeatBuilder};
use app_heartbeats::net::wire::{self, Frame, SubStatus};
use app_heartbeats::net::{
    Collector, CollectorConfig, EventPayload, FrameReader, RemoteReader, TcpBackend,
};

const APPS: usize = 8;
const SUBSCRIBERS: usize = 64;
const BEATS_PER_APP: u64 = 200;

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
    #[cfg(target_os = "linux")]
    {
        assert_eq!(
            threads_named("hb-net-client"),
            1,
            "every subscribed reader is served by the one client reactor thread"
        );
        assert_eq!(threads_named("hb-net-demux"), 0, "no thread per reader");
    }

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

/// Dropping the last handle of a subscribed reader closes its connection:
/// a stand-in collector that answers `VERSION` and acks the `Subscribe`
/// reads EOF on the upgraded socket within a second of the drop, not at
/// the real collector's idle eviction a minute later.
#[test]
fn dropping_a_subscribed_reader_closes_its_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stand-in");
    let addr = listener.local_addr().expect("stand-in addr").to_string();
    let (eof_tx, eof_rx) = mpsc::channel();
    let stand_in = std::thread::spawn(move || {
        let (_direct, _) = listener.accept().expect("accept the first connection");
        let (stream, _) = listener.accept().expect("accept the VERSION probe");
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .expect("read the probe");
        assert_eq!(line, "VERSION\n");
        (&stream)
            .write_all(format!("VERSION {}\n", wire::VERSION).as_bytes())
            .expect("answer the probe");
        let mut frames = FrameReader::new(&stream);
        while let Ok(Some(frame)) = frames.read_frame() {
            let sub_id = match frame {
                Frame::Subscribe(req) => req.sub_id,
                Frame::Unsubscribe { sub_id } => sub_id,
                other => panic!("unexpected frame {other:?}"),
            };
            let ack = Frame::SubAck {
                sub_id,
                status: SubStatus::Ok,
            };
            (&stream).write_all(&ack.encode()).expect("ack");
        }
        eof_tx.send(()).expect("report the EOF");
    });

    let reader = Arc::new(RemoteReader::connect(addr).expect("connect"));
    let sub = reader
        .subscribe("app", &ObserveFilter::new(Interest::BEATS))
        .expect("subscribe");
    drop(sub);
    drop(reader);
    eof_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("the upgraded connection closed within 1 s of the last handle dropping");
    stand_in.join().expect("stand-in thread");
}
