//! Partition and recovery: the leaf→parent link dies mid-stream, the leaf
//! keeps ingesting, and after reconnect the drop counters account for the
//! loss **exactly**.
//!
//! The leaf's capture tap is deliberately tiny (`tap_capacity: 8`), so a
//! held-down uplink forces drop-oldest shedding at the tap. The contract
//! under test:
//!
//! * local ingest never blocks or loses a beat — the leaf's own ledger
//!   always equals production;
//! * the relay reconnects with bounded backoff once the parent returns;
//! * at quiesce the parent's ledger balances to the beat:
//!   `parent.total + parent.dropped == produced`, with
//!   `parent.dropped == tap.dropped_beats()` — loss is accounted, never
//!   silent, and resumed delivery never double-counts.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
use app_heartbeats::net::{Collector, CollectorConfig, UpstreamConfig, WireBeat};

const APPS: usize = 12;
const BEATS_PER_BATCH: usize = 4;

struct Proxy {
    addr: String,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    paused: Arc<AtomicBool>,
}

impl Proxy {
    fn spawn(target: String) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
        let addr = listener.local_addr().expect("proxy addr").to_string();
        let conns = Arc::new(Mutex::new(Vec::<TcpStream>::new()));
        let paused = Arc::new(AtomicBool::new(false));
        let held = Arc::clone(&conns);
        let gate = Arc::clone(&paused);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(client) = stream else { break };
                if gate.load(Ordering::SeqCst) {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let Ok(server) = TcpStream::connect(&target) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                {
                    let mut live = held.lock().unwrap();
                    live.push(client.try_clone().expect("clone"));
                    live.push(server.try_clone().expect("clone"));
                }
                let (c, s) = (client.try_clone().expect("clone"), server.try_clone().expect("clone"));
                thread::spawn(move || pipe(client, server));
                thread::spawn(move || pipe(s, c));
            }
        });
        Proxy { addr, conns, paused }
    }

    fn sever(&self) {
        let mut live = self.conns.lock().unwrap();
        for conn in live.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }
}

fn pipe(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 8192];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
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

#[test]
fn partition_recovery_accounts_loss_exactly() {
    let mut parent = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 1,
            ..CollectorConfig::default()
        },
    )
    .expect("parent collector");

    let proxy = Proxy::spawn(parent.ingest_addr().to_string());
    let mut leaf = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 1,
            upstream: Some(UpstreamConfig {
                tap_capacity: 8,
                backoff_min: Duration::from_millis(5),
                backoff_max: Duration::from_millis(80),
                ..UpstreamConfig::new(proxy.addr.clone(), "edge")
            }),
            ..CollectorConfig::default()
        },
    )
    .expect("leaf collector");

    let leaf_state = leaf.state();
    let tap = leaf_state.upstream_tap().expect("leaf tap");
    let stats = leaf_state.upstream_stats().expect("leaf stats");
    let mut produced: HashMap<String, u64> = HashMap::new();
    let feed_round = |produced: &mut HashMap<String, u64>| {
        for a in 0..APPS {
            let app = format!("svc{a:02}");
            let sent = produced.entry(app.clone()).or_insert(0);
            leaf_state.ingest_batch(&app, 0, batch(*sent, BEATS_PER_BATCH));
            *sent += BEATS_PER_BATCH as u64;
        }
    };

    // Phase 1: healthy link, a few rounds flow through.
    for _ in 0..5 {
        feed_round(&mut produced);
        thread::sleep(Duration::from_millis(3));
    }
    assert!(
        wait_until(Duration::from_secs(20), || stats.connected()),
        "uplink must come up"
    );

    // Phase 2: partition. Hold the parent down and keep feeding until the
    // 8-slot tap has demonstrably shed — ingest never blocks, the oldest
    // captures are dropped and counted.
    proxy.set_paused(true);
    proxy.sever();
    let mut outage_rounds = 0;
    while tap.dropped_beats() == 0 || outage_rounds < 10 {
        feed_round(&mut produced);
        outage_rounds += 1;
        assert!(outage_rounds < 10_000, "tap never shed despite a dead uplink");
        thread::sleep(Duration::from_millis(1));
    }
    let shed_during_outage = tap.dropped_beats();
    assert!(shed_during_outage > 0, "outage must overflow the tiny tap");

    // The leaf's own registry is untouched by the partition.
    for (app, &sent) in &produced {
        let snap = leaf_state.snapshot(app).expect("leaf snapshot");
        assert_eq!(snap.total_beats, sent, "{app}: local ingest lost beats");
    }

    // Phase 3: heal, feed a little more, and let the relay reconnect and
    // drain its backlog.
    proxy.set_paused(false);
    for _ in 0..5 {
        feed_round(&mut produced);
        thread::sleep(Duration::from_millis(3));
    }

    let parent_state = parent.state();
    let balanced = wait_until(Duration::from_secs(60), || {
        produced.iter().all(|(app, &sent)| {
            parent_state
                .snapshot(&format!("edge/{app}"))
                .is_some_and(|snap| snap.total_beats + snap.producer_dropped == sent)
        })
    });
    assert!(balanced, "parent ledger never balanced after recovery");

    assert!(
        stats.reconnects() >= 1,
        "the relay must have reconnected (saw {})",
        stats.reconnects()
    );

    // Exact accounting, per app and in aggregate: everything the parent
    // calls dropped is exactly what the tap shed; nothing is double-counted
    // (the identity is equality, not >=, so a replayed batch would fail it).
    let mut parent_total = 0u64;
    let mut parent_dropped = 0u64;
    for (app, &sent) in &produced {
        let snap = parent_state.snapshot(&format!("edge/{app}")).expect("snapshot");
        assert_eq!(
            snap.total_beats + snap.producer_dropped,
            sent,
            "edge/{app}: delivered + accounted-dropped != produced"
        );
        parent_total += snap.total_beats;
        parent_dropped += snap.producer_dropped;
    }
    assert_eq!(
        parent_dropped,
        tap.dropped_beats(),
        "parent's dropped ledger must equal exactly what the tap shed"
    );
    assert_eq!(
        parent_total + parent_dropped,
        produced.values().sum::<u64>(),
        "global ledger must balance"
    );

    // An unkeyed tree never challenges: the parent must have established
    // every (re)connect directly, with zero loop or auth rejections.
    assert_eq!(
        parent_state.uplink_rejections(),
        (0, 0),
        "an unkeyed parent must not reject its child"
    );

    // The origin row confirms the resume path: the link is up, and any
    // retransmitted duplicates were detected, counted, and not applied.
    let origins = parent_state.origins();
    assert_eq!(origins.len(), 1);
    assert_eq!(origins[0].node, "edge");
    assert!(origins[0].connected);
    assert_eq!(origins[0].relayed_beats, parent_total, "relayed == absorbed");

    leaf.shutdown();
    parent.shutdown();
}
