//! Lifecycle stress: the collector must start and stop cleanly while
//! producers are concurrently connecting.
//!
//! Regression test for the PR 1 thread-per-connection engine, whose
//! `shutdown` joined connection threads under a held `Mutex` on the thread
//! list — a connection thread registering itself at the wrong moment
//! deadlocked the daemon. The reactor has a fixed thread pool and no
//! per-connection threads, so shutdown cannot race connection churn; this
//! test pins that property.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hb_net::{Collector, CollectorConfig, Frame, Hello, UpstreamConfig};

#[test]
fn start_stop_100x_under_concurrent_connects() {
    for round in 0..100 {
        let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0")
            .unwrap_or_else(|e| panic!("bind round {round}: {e}"));
        let ingest = collector.ingest_addr();
        let query = collector.query_addr();
        let stop = Arc::new(AtomicBool::new(false));

        // Connectors hammer both ports while the collector starts and stops.
        let connectors: Vec<_> = (0..3)
            .map(|i| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let hello = Frame::Hello(Hello {
                        app: format!("churn-{i}"),
                        pid: i,
                        default_window: 20,
                    })
                    .encode();
                    while !stop.load(Ordering::Relaxed) {
                        let addr = if i % 2 == 0 { ingest } else { query };
                        if let Ok(mut stream) = TcpStream::connect(addr) {
                            // Half the connections say something first; all
                            // of them disconnect abruptly.
                            if i % 2 == 0 {
                                let _ = stream.write_all(&hello);
                            } else {
                                let _ = stream.write_all(b"PING\n");
                            }
                        }
                        // Throttle so the connect loop cannot starve the
                        // reactor of CPU on small machines.
                        std::thread::sleep(Duration::from_micros(500));
                    }
                })
            })
            .collect();

        // Let a few connections land mid-flight, then shut down while the
        // connectors are still running — this must never deadlock.
        std::thread::sleep(Duration::from_millis(2));
        collector.shutdown();
        drop(collector);

        stop.store(true, Ordering::Relaxed);
        for handle in connectors {
            handle.join().expect("connector thread");
        }
    }
}

/// A leaf whose parent is unreachable spends its life in the reconnect
/// backoff; `shutdown` signals the parked supervisor instead of waiting the
/// backoff out.
#[test]
fn shutdown_does_not_wait_out_the_uplink_backoff() {
    // A port nothing listens on: every connect is refused at once.
    let parent = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("reserve a port");
    let mut collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            upstream: Some(UpstreamConfig {
                backoff_min: Duration::from_secs(120),
                backoff_max: Duration::from_secs(120),
                ..UpstreamConfig::new(parent.to_string(), "orphan")
            }),
            ..CollectorConfig::default()
        },
    )
    .expect("bind leaf");
    // Long enough for the first refused connect. The node name seeds the
    // jitter: this node's first wait is 15.6 s of the two-minute bound.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    collector.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown waited out the backoff: {:?}",
        started.elapsed()
    );
}
