//! Push observation end to end: a producer streams heartbeats to a
//! collector, and an observer — written once against the unified `Observe`
//! trait — receives *pushed* snapshots and health transitions instead of
//! polling. The same `watch` function also runs unchanged against the
//! in-process reader, demonstrating the point of the unification.
//!
//! ```text
//! cargo run --example observe_push
//! ```

use std::sync::Arc;
use std::time::Duration;

use app_heartbeats::heartbeats::observe::{Interest, Observe, ObserveEventKind, ObserveFilter};
use app_heartbeats::heartbeats::{Backend, HeartbeatBuilder};
use app_heartbeats::net::{Collector, RemoteReader, TcpBackend};

/// One observer, any transport: subscribe, then narrate what is pushed.
/// Nothing in here knows whether `source` is local, shared-memory, or a
/// remote collector client.
fn watch(label: &str, source: &impl Observe, events: usize) {
    let filter = ObserveFilter::new(Interest::SNAPSHOTS | Interest::HEALTH)
        .min_interval(Duration::from_millis(50));
    let stream = source.subscribe(&filter).expect("subscribe");
    println!("[{label}] subscribed to {:?}", source.name());
    for event in stream.take(events) {
        match event.kind {
            ObserveEventKind::Snapshot(snapshot) => println!(
                "[{label}] {} snapshot: {} beats, rate {:?}",
                event.app, snapshot.total_beats, snapshot.rate_bps
            ),
            ObserveEventKind::Health { from, to } => {
                println!("[{label}] {} health: {from:?} -> {to:?}", event.app)
            }
            ObserveEventKind::Beats { beats, .. } => {
                println!("[{label}] {} beats: {} records", event.app, beats.len())
            }
        }
    }
}

fn main() {
    // A collector on ephemeral loopback ports.
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").expect("bind collector");

    // The producer: an ordinary heartbeat-instrumented application whose
    // beats are mirrored to the collector.
    let backend = Arc::new(TcpBackend::new(
        collector.ingest_addr().to_string(),
        "worker",
    ));
    let hb = HeartbeatBuilder::new("worker")
        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
        .build()
        .expect("build heartbeat");
    let producer = std::thread::spawn(move || {
        for _ in 0..200 {
            hb.heartbeat();
            std::thread::sleep(Duration::from_millis(5));
        }
        hb.flush().expect("flush");
    });

    // Remote observation: pushed events over a real connection — after the
    // subscription handshake the observer issues zero requests.
    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    let remote = reader.app("worker");
    watch("remote", &remote, 6);

    // Local observation with the identical code: the reader synthesizes
    // the same event stream from in-process state.
    let local_hb = HeartbeatBuilder::new("local-worker")
        .build()
        .expect("build local heartbeat");
    let local_reader = local_hb.reader();
    let beater = std::thread::spawn(move || {
        for _ in 0..100 {
            local_hb.heartbeat();
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    watch("local", &local_reader, 4);

    producer.join().expect("producer");
    beater.join().expect("beater");
    println!(
        "collector answered {} queries while pushing {} events",
        collector.state().queries_total(),
        collector.state().events_total()
    );
}
