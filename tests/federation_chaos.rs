//! Federation chaos: a 3-level collector tree driven through a seeded,
//! deterministic fault schedule — partial reads, frame truncation, byte
//! corruption, injected delays, connection resets, and a hard partition —
//! and proven correct by exact accounting on both planes.
//!
//! Topology: `leaf-a, leaf-b → mid → root`, every uplink routed through an
//! [`hb_testkit::faultnet::FaultProxy`]. All four collectors share a cluster
//! secret, so every link establishment also exercises the keyed-MAC
//! challenge/response. The acceptance criteria, all reproducible from the
//! logged seed (`CHAOS_SEED=<hex> cargo test ...`):
//!
//! * **Rollup plane**: for every application, at the root,
//!   `total_beats + producer_dropped == produced` — loss under chaos is
//!   accounted exactly, retransmitted batches are never double-applied.
//! * **Event plane**: a root subscription spanning both leaves receives
//!   every produced beat exactly once despite resets mid-stream — the
//!   per-subscription cursors resume delivery, replayed duplicates are
//!   detected and discarded, and the gap counters stay at zero.
//! * **Security**: corruption never forges anything — no auth rejection
//!   fires on a correctly-keyed tree (a mangled frame dies at the CRC,
//!   surfacing as a protocol error, not a bad MAC) — while a two-node
//!   cycle and a wrong-secret child are each refused with the matching
//!   `hb_collector_uplink_rejected_total` reason.

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::observe::Interest;
use app_heartbeats::heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
use app_heartbeats::net::{Collector, CollectorConfig, EventPayload, UpstreamConfig, WireBeat};
use hb_testkit::faultnet::{FaultConfig, FaultProxy};

const SECRET: &str = "chaos-cluster-secret";
const APPS_PER_LEAF: usize = 6;
const BEATS_PER_BATCH: usize = 4;
const ROUNDS: usize = 14;
/// The mid→root proxy is partitioned from the start of this round...
const KILL_ROUND: usize = 5;
/// ...until the start of this one.
const HEAL_ROUND: usize = 9;

/// The fault schedule seed: `CHAOS_SEED` (hex or decimal) overrides the
/// default, and the chosen value is printed so any failure can be replayed
/// bit-for-bit.
fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|raw| {
            let raw = raw.trim();
            raw.strip_prefix("0x")
                .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
        })
        .unwrap_or(0xC0FF_EE00_5EED);
    eprintln!("chaos seed = {seed:#x} (set CHAOS_SEED to reproduce)");
    seed
}

fn faults(seed: u64, salt: u64) -> FaultConfig {
    FaultConfig {
        seed: seed ^ salt,
        // Keep injected delays short so the test converges quickly; the
        // schedule itself (fragment/corrupt/truncate/reset) is the default
        // hostile mix.
        max_delay: Duration::from_millis(2),
        ..FaultConfig::default()
    }
}

fn uplink(parent: String, node: &str) -> UpstreamConfig {
    UpstreamConfig {
        backoff_min: Duration::from_millis(5),
        backoff_max: Duration::from_millis(80),
        secret: Some(SECRET.into()),
        ..UpstreamConfig::new(parent, node)
    }
}

fn collector(upstream: Option<UpstreamConfig>) -> Collector {
    Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 1,
            // Generous event queues: the partition backlog must fit in the
            // replay ring so resume can close every gap (a shed event would
            // surface as a counted gap, failing the zero-gap criterion).
            sub_queue_capacity: 16_384,
            cluster_secret: Some(SECRET.into()),
            upstream,
            ..CollectorConfig::default()
        },
    )
    .expect("collector")
}

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

/// The main chaos run: both planes stay exact through the full fault
/// schedule plus a hard mid-tree partition.
#[test]
fn chaos_tree_balances_ledgers_and_resumes_events() {
    let seed = chaos_seed();

    let mut root = collector(None);
    let root_proxy = FaultProxy::spawn(root.ingest_addr().to_string(), faults(seed, 0x01));
    let mut mid = collector(Some(uplink(root_proxy.addr().to_string(), "mid")));
    let leaf_proxies: Vec<FaultProxy> = (0..2)
        .map(|i| FaultProxy::spawn(mid.ingest_addr().to_string(), faults(seed, 0x10 + i as u64)))
        .collect();
    let mut leaves: Vec<Collector> = leaf_proxies
        .iter()
        .zip(["leaf-a", "leaf-b"])
        .map(|(proxy, node)| collector(Some(uplink(proxy.addr().to_string(), node))))
        .collect();

    // The event-plane probe: a root glob spanning both leaves. It must be
    // live everywhere before beats flow — events are generated at ingest.
    let root_state = root.state();
    let sub = root_state
        .subscribe_local("*", Interest::BEATS, Duration::ZERO)
        .expect("root subscription");
    assert!(
        wait_until(Duration::from_secs(30), || {
            mid.state().subscriptions().active() == 1
                && leaves
                    .iter()
                    .all(|l| l.state().subscriptions().active() == 1)
        }),
        "the root subscription never propagated through the faulty tree"
    );

    let mut produced: HashMap<String, u64> = HashMap::new();
    let mut delivered: HashMap<String, u64> = HashMap::new();
    let drain = |delivered: &mut HashMap<String, u64>| {
        for event in sub.drain() {
            if let EventPayload::Beats { beats, .. } = &event.payload {
                *delivered.entry(event.app.clone()).or_insert(0) += beats.len() as u64;
            }
        }
    };

    for round in 0..ROUNDS {
        if round == KILL_ROUND {
            root_proxy.partition(true);
            root_proxy.sever();
        }
        if round == HEAL_ROUND {
            root_proxy.partition(false);
        }
        for (leaf, node) in leaves.iter().zip(["leaf-a", "leaf-b"]) {
            for a in 0..APPS_PER_LEAF {
                let app = format!("app{a}");
                let sent = produced.entry(format!("mid/{node}/{app}")).or_insert(0);
                leaf.state()
                    .ingest_batch(&app, 0, batch(*sent, BEATS_PER_BATCH));
                *sent += BEATS_PER_BATCH as u64;
            }
        }
        drain(&mut delivered);
        thread::sleep(Duration::from_millis(5));
    }

    // Rollup plane: every beat is delivered or accounted, never both.
    let balanced = wait_until(Duration::from_secs(120), || {
        produced.iter().all(|(app, &sent)| {
            root_state
                .snapshot(app)
                .is_some_and(|snap| snap.total_beats + snap.producer_dropped == sent)
        })
    });
    if !balanced {
        for (app, &sent) in &produced {
            let (total, dropped) = root_state
                .snapshot(app)
                .map_or((0, 0), |s| (s.total_beats, s.producer_dropped));
            if total + dropped != sent {
                eprintln!("unbalanced {app}: total {total} + dropped {dropped} != produced {sent}");
            }
        }
    }
    assert!(
        balanced,
        "root ledger never balanced under chaos (seed {seed:#x})"
    );

    // Event plane: exactly-once delivery converges despite the resets.
    let converged = wait_until(Duration::from_secs(120), || {
        drain(&mut delivered);
        delivered == produced
    });
    if !converged {
        for (state, label) in [(&root_state, "root"), (&mid.state(), "mid")] {
            for o in state.origins() {
                eprintln!(
                    "{label} origin {}: connected={} relayed_events={} stream_dups={} stream_gaps={}",
                    o.node, o.connected, o.relayed_events, o.event_stream_duplicates, o.event_stream_gaps
                );
            }
        }
        eprintln!("root sub dropped={}", sub.dropped());
    }
    assert!(
        converged,
        "event delivery never converged (seed {seed:#x}): delivered {delivered:?} vs produced {produced:?}"
    );
    // ...and stays converged: a late replayed duplicate would overshoot.
    thread::sleep(Duration::from_millis(400));
    drain(&mut delivered);
    assert_eq!(
        delivered, produced,
        "late events broke exactly-once delivery (seed {seed:#x})"
    );
    assert_eq!(sub.dropped(), 0, "the root subscriber queue must not shed");

    // Zero event-sequence gaps after resume, at every hop. Duplicates are
    // legal (retransmits after a reset) — they are counted and discarded —
    // but a gap would mean an event was lost without being accounted.
    for (state, label) in [(&root_state, "root"), (&mid.state(), "mid")] {
        for origin in state.origins() {
            assert_eq!(
                origin.event_stream_gaps, 0,
                "{label} saw a cursor gap from {} (seed {seed:#x})",
                origin.node
            );
        }
    }

    // A correctly-keyed tree under corruption must never report an auth
    // (or loop) rejection: mangled frames die at the CRC layer instead.
    for (state, label) in [
        (root.state(), "root"),
        (mid.state(), "mid"),
        (leaves[0].state(), "leaf-a"),
        (leaves[1].state(), "leaf-b"),
    ] {
        assert_eq!(
            state.uplink_rejections(),
            (0, 0),
            "{label} rejected an uplink on a healthy tree (seed {seed:#x})"
        );
    }

    // The schedule must actually have bitten: otherwise this test proves
    // nothing about resume. (With the default probabilities and this much
    // traffic, a fault-free run means the proxy is not in the path.)
    let injected: u64 = std::iter::once(&root_proxy)
        .chain(leaf_proxies.iter())
        .map(|p| p.stats().total_faults())
        .sum();
    assert!(
        injected > 0,
        "the fault schedule never fired (seed {seed:#x})"
    );

    for leaf in &mut leaves {
        leaf.shutdown();
    }
    mid.shutdown();
    root.shutdown();
}

/// Two collectors pointed at each other: whichever uplink lands second
/// carries the other's name in its path vector and must be refused with
/// `reason="loop"` — the cycle never closes.
#[test]
fn cycle_is_refused() {
    // Bind each collector first, then point them at each other through
    // passthrough proxies (no faults — this test is about the path vector).
    let seed = chaos_seed();
    let a_seat = std::net::TcpListener::bind("127.0.0.1:0").expect("seat");
    let a_ingest = a_seat.local_addr().expect("addr");
    drop(a_seat);

    let mut b = collector(Some(uplink(a_ingest.to_string(), "node-b")));
    let mut a = Collector::with_config(
        &a_ingest.to_string(),
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 1,
            cluster_secret: Some(SECRET.into()),
            upstream: Some(uplink(b.ingest_addr().to_string(), "node-a")),
            ..CollectorConfig::default()
        },
    )
    .expect("collector a");

    // One direction links; the reverse hello then carries a path that
    // contains the receiver's own name and is refused. Under flapping both
    // sides may refuse — at least one `reason="loop"` must fire somewhere.
    let refused = wait_until(Duration::from_secs(30), || {
        a.state().uplink_rejections().0 + b.state().uplink_rejections().0 >= 1
    });
    let (a_rej, b_rej) = (a.state().uplink_rejections(), b.state().uplink_rejections());
    assert!(
        refused,
        "no loop rejection fired (seed {seed:#x}): a={a_rej:?} b={b_rej:?}"
    );
    assert_eq!(
        a_rej.1 + b_rej.1,
        0,
        "a cycle must be refused as loop, not auth"
    );

    // The refusal is visible on the metrics surface too.
    let metrics = a.state().prometheus() + &b.state().prometheus();
    assert!(
        metrics.contains(r#"hb_collector_uplink_rejected_total{reason="loop"}"#),
        "loop rejections must be exported"
    );

    a.shutdown();
    b.shutdown();
}

/// A child keyed with the wrong secret answers the challenge with a MAC
/// the parent cannot verify: the link is refused with `reason="auth"` and
/// none of the child's beats are ever absorbed.
#[test]
fn wrong_secret_is_refused() {
    let seed = chaos_seed();
    let mut parent = collector(None);
    let mut child = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 1,
            cluster_secret: Some("the-wrong-secret".into()),
            upstream: Some(UpstreamConfig {
                secret: Some("the-wrong-secret".into()),
                ..uplink(parent.ingest_addr().to_string(), "impostor")
            }),
            ..CollectorConfig::default()
        },
    )
    .expect("child collector");

    let child_state = child.state();
    child_state.ingest_batch("stolen", 0, batch(0, BEATS_PER_BATCH));

    let parent_state = parent.state();
    assert!(
        wait_until(Duration::from_secs(30), || {
            parent_state.uplink_rejections().1 >= 1
        }),
        "no auth rejection fired (seed {seed:#x})"
    );
    assert_eq!(
        parent_state.uplink_rejections().0,
        0,
        "a bad MAC must be refused as auth, not loop"
    );
    // A refused handshake must retry on the full-jitter schedule, not at
    // connect speed: only failed TCP connects once backed off, so a
    // wrong-secret child hammered its parent at ~1000 attempts/s.
    let before = parent_state.uplink_rejections().1;
    std::thread::sleep(Duration::from_millis(600));
    let retries = parent_state.uplink_rejections().1 - before;
    assert!(
        retries <= 40,
        "refused uplink retried {retries} times in 600ms — handshake refusals bypass backoff"
    );
    assert!(
        parent_state.snapshot("impostor/stolen").is_none(),
        "an unauthenticated child's beats must never be absorbed"
    );
    assert!(
        parent_state
            .prometheus()
            .contains(r#"hb_collector_uplink_rejected_total{reason="auth"}"#),
        "auth rejections must be exported"
    );

    child.shutdown();
    parent.shutdown();
}
