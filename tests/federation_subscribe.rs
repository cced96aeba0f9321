//! Subscription propagation down the federation tree.
//!
//! A subscription placed at the root is re-issued to every linked child,
//! events flow leaf→root tagged with the root's subscription id, and the
//! root re-checks the original pattern after re-prefixing the origin — so
//! a root glob spanning two leaves sees every matching leaf event exactly
//! once. Unsubscribing at the root retracts the propagated subscriptions:
//! each child's `subscriptions` gauge returns to 0.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::observe::Interest;
use app_heartbeats::heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
use app_heartbeats::net::{Collector, CollectorConfig, EventPayload, UpstreamConfig, WireBeat};

const APPS_PER_LEAF: usize = 5;
const ROUNDS: usize = 10;
const BEATS_PER_BATCH: usize = 3;

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(10));
    }
}

fn batch(start_seq: u64, count: usize) -> Vec<WireBeat> {
    (0..count as u64)
        .map(|i| WireBeat {
            record: HeartbeatRecord::new(
                start_seq + i,
                (start_seq + i) * 10_000_000,
                Tag::NONE,
                BeatThreadId(0),
            ),
            scope: BeatScope::Global,
        })
        .collect()
}

fn uplink(parent: String, node: &str) -> UpstreamConfig {
    UpstreamConfig {
        backoff_min: Duration::from_millis(5),
        backoff_max: Duration::from_millis(80),
        ..UpstreamConfig::new(parent, node)
    }
}

fn spawn_tree() -> (Collector, Vec<Collector>) {
    let root = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 1,
            ..CollectorConfig::default()
        },
    )
    .expect("root collector");
    let leaves = ["leaf-a", "leaf-b"]
        .iter()
        .map(|node| {
            Collector::with_config(
                "127.0.0.1:0",
                "127.0.0.1:0",
                CollectorConfig {
                    io_threads: 1,
                    upstream: Some(uplink(root.ingest_addr().to_string(), node)),
                    ..CollectorConfig::default()
                },
            )
            .expect("leaf collector")
        })
        .collect();
    (root, leaves)
}

/// A root glob spanning both leaves: every leaf beat event is delivered at
/// the root exactly once, and dropping the root subscription drives each
/// child's `subscriptions` gauge back to 0.
#[test]
fn root_glob_spans_two_leaves_exactly_once() {
    let (mut root, mut leaves) = spawn_tree();
    let root_state = root.state();

    let sub = root_state
        .subscribe_local("*", Interest::BEATS, Duration::ZERO)
        .expect("root subscription");

    // The subscription must be live on every child before any beats flow —
    // event delivery happens at ingest time, not retroactively.
    assert!(
        wait_until(Duration::from_secs(20), || {
            leaves
                .iter()
                .all(|leaf| leaf.state().subscriptions().active() == 1)
        }),
        "the root subscription never propagated to both leaves"
    );

    let mut produced: HashMap<String, u64> = HashMap::new();
    let mut delivered: HashMap<String, u64> = HashMap::new();
    let drain = |delivered: &mut HashMap<String, u64>| {
        for event in sub.drain() {
            let EventPayload::Beats { beats, .. } = &event.payload else {
                continue;
            };
            *delivered.entry(event.app.clone()).or_insert(0) += beats.len() as u64;
        }
    };

    for _ in 0..ROUNDS {
        for (leaf, node) in leaves.iter().zip(["leaf-a", "leaf-b"]) {
            for a in 0..APPS_PER_LEAF {
                let app = format!("app{a}");
                let sent = produced.entry(format!("{node}/{app}")).or_insert(0);
                leaf.state()
                    .ingest_batch(&app, 0, batch(*sent, BEATS_PER_BATCH));
                *sent += BEATS_PER_BATCH as u64;
            }
        }
        drain(&mut delivered);
        thread::sleep(Duration::from_millis(2));
    }

    // Every produced beat arrives exactly once, already namespaced.
    assert!(
        wait_until(Duration::from_secs(30), || {
            drain(&mut delivered);
            delivered == produced
        }),
        "delivered {delivered:?} never converged to produced {produced:?}"
    );

    // Quiesce and look again: convergence must be stable — a late duplicate
    // (e.g. a replayed event) would push a count past production.
    thread::sleep(Duration::from_millis(300));
    drain(&mut delivered);
    assert_eq!(
        delivered, produced,
        "late events broke exactly-once delivery"
    );
    assert_eq!(sub.dropped(), 0, "the root queue must not have shed events");

    // Unsubscribe at the root; the retraction propagates and each child's
    // gauge returns to 0.
    drop(sub);
    assert!(
        wait_until(Duration::from_secs(20), || {
            leaves
                .iter()
                .all(|leaf| leaf.state().subscriptions().active() == 0)
        }),
        "unsubscribe never retracted the propagated subscriptions"
    );

    for leaf in &mut leaves {
        leaf.shutdown();
    }
    root.shutdown();
}

/// A node-scoped pattern (`leaf-a/*`) is translated for the matching child
/// only — the other leaf's events never reach the subscriber.
#[test]
fn node_scoped_pattern_selects_one_leaf() {
    let (mut root, mut leaves) = spawn_tree();
    let root_state = root.state();

    let sub = root_state
        .subscribe_local("leaf-a/*", Interest::BEATS, Duration::ZERO)
        .expect("root subscription");

    // Only leaf-a should ever see a propagated subscription; give the
    // fan-out a moment, then require leaf-a live (leaf-b may legitimately
    // stay at 0 forever, so only its final state is asserted).
    assert!(
        wait_until(Duration::from_secs(20), || {
            leaves[0].state().subscriptions().active() == 1
        }),
        "the node-scoped subscription never reached leaf-a"
    );

    let mut produced_a = 0u64;
    for round in 0..ROUNDS {
        for (leaf, node) in leaves.iter().zip(["leaf-a", "leaf-b"]) {
            let sent = (round * BEATS_PER_BATCH) as u64;
            leaf.state()
                .ingest_batch("cam", 0, batch(sent, BEATS_PER_BATCH));
            if node == "leaf-a" {
                produced_a += BEATS_PER_BATCH as u64;
            }
        }
        thread::sleep(Duration::from_millis(2));
    }

    let mut seen = 0u64;
    assert!(
        wait_until(Duration::from_secs(30), || {
            for event in sub.drain() {
                assert_eq!(
                    event.app, "leaf-a/cam",
                    "a leaf-b event leaked through a leaf-a-only pattern"
                );
                if let EventPayload::Beats { beats, .. } = &event.payload {
                    seen += beats.len() as u64;
                }
            }
            seen == produced_a
        }),
        "saw {seen} of {produced_a} leaf-a beats"
    );
    assert_eq!(
        leaves[1].state().subscriptions().active(),
        0,
        "leaf-b must never receive a leaf-a-scoped subscription"
    );

    for leaf in &mut leaves {
        leaf.shutdown();
    }
    root.shutdown();
}
