//! Federation soak: a 3-level collector tree proven correct by exact
//! accounting.
//!
//! Topology: 4 leaf collectors federate into one mid-tier collector, which
//! federates into one root — `leafN → mid → root`. Each leaf ingests
//! hundreds of simulated applications; the root must end up with an exact
//! per-app ledger under `mid/leafN/app` names.
//!
//! Mid-soak, the `leaf0 → mid` uplink (routed through an in-test TCP proxy)
//! is severed and held down across several feeding rounds, forcing the
//! relay through its reconnect/backoff/resume path. The acceptance
//! criterion is **zero unaccounted loss**: for every application,
//!
//! ```text
//! root.total_beats + root.producer_dropped == beats produced at the leaf
//! ```
//!
//! and globally the root's dropped sum equals exactly what the leaf and
//! mid capture taps shed — every beat is either delivered or counted,
//! never double-counted, across the forced reconnect.
//!
//! Health rolls up too: applications that go silent early must be reported
//! `Stalled` by the root's own detector, and the per-origin rollups
//! (`origin_rollups`) must reconcile against the per-app ledger.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use app_heartbeats::heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
use app_heartbeats::net::{
    Collector, CollectorConfig, HealthConfig, HealthStatus, UpstreamConfig, WireBeat,
};

const LEAVES: usize = 4;
/// Applications per leaf; the first `QUIET_PER_LEAF` beat only in round 0
/// and then fall silent (the stall class), the rest beat every round.
const APPS_PER_LEAF: usize = 150;
const QUIET_PER_LEAF: usize = 10;
const ROUNDS: usize = 20;
const BEATS_PER_BATCH: usize = 5;
/// The proxy is held down from the start of this round...
const KILL_ROUND: usize = 8;
/// ...until the start of this one.
const HEAL_ROUND: usize = 14;

/// A killable TCP proxy: the listener persists for the lifetime of the
/// test (so reconnects succeed), but `sever` cuts every live connection
/// and `set_paused(true)` makes new connections die immediately after
/// accept — simulating a parent that is reachable but dead.
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
                let (c, s) = (
                    client.try_clone().expect("clone"),
                    server.try_clone().expect("clone"),
                );
                thread::spawn(move || pipe(client, server));
                thread::spawn(move || pipe(s, c));
            }
        });
        Proxy {
            addr,
            conns,
            paused,
        }
    }

    /// Cut every live connection through the proxy.
    fn sever(&self) {
        let mut live = self.conns.lock().unwrap();
        for conn in live.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// While paused, freshly accepted connections are closed immediately,
    /// so the relay's reconnect attempts keep failing and it walks its
    /// backoff schedule.
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

/// Polls `cond` until it holds or `timeout` elapses.
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

/// The whole tree runs authenticated: every uplink in the soak also
/// exercises the keyed-MAC challenge/response on each (re)connect.
const SOAK_SECRET: &str = "soak-cluster-secret";

fn uplink(parent: String, node: &str) -> UpstreamConfig {
    UpstreamConfig {
        backoff_min: Duration::from_millis(5),
        backoff_max: Duration::from_millis(80),
        secret: Some(SOAK_SECRET.into()),
        ..UpstreamConfig::new(parent, node)
    }
}

#[test]
fn three_level_tree_exact_accounting_across_reconnect() {
    let health = HealthConfig {
        window: Duration::from_millis(400),
        ..HealthConfig::default()
    };

    let mut root = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 2,
            health: health.clone(),
            cluster_secret: Some(SOAK_SECRET.into()),
            ..CollectorConfig::default()
        },
    )
    .expect("root collector");

    let mut mid = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            io_threads: 2,
            health: health.clone(),
            cluster_secret: Some(SOAK_SECRET.into()),
            upstream: Some(uplink(root.ingest_addr().to_string(), "mid")),
            ..CollectorConfig::default()
        },
    )
    .expect("mid collector");

    // leaf0's uplink runs through the killable proxy; the others connect to
    // the mid tier directly.
    let proxy = Proxy::spawn(mid.ingest_addr().to_string());
    let mut leaves = Vec::new();
    for i in 0..LEAVES {
        let parent = if i == 0 {
            proxy.addr.clone()
        } else {
            mid.ingest_addr().to_string()
        };
        leaves.push(
            Collector::with_config(
                "127.0.0.1:0",
                "127.0.0.1:0",
                CollectorConfig {
                    io_threads: 1,
                    health: health.clone(),
                    upstream: Some(uplink(parent, &format!("leaf{i}"))),
                    ..CollectorConfig::default()
                },
            )
            .expect("leaf collector"),
        );
    }

    // Drive the soak: every round every fast app gets one batch; quiet apps
    // beat only in round 0. The leaf0 uplink is held down for rounds
    // [KILL_ROUND, HEAL_ROUND) — local ingest must keep flowing regardless.
    let mut produced: HashMap<String, u64> = HashMap::new();
    for round in 0..ROUNDS {
        if round == KILL_ROUND {
            proxy.set_paused(true);
            proxy.sever();
        }
        if round == HEAL_ROUND {
            proxy.set_paused(false);
        }
        for (i, leaf) in leaves.iter().enumerate() {
            let state = leaf.state();
            for a in 0..APPS_PER_LEAF {
                if a < QUIET_PER_LEAF && round > 0 {
                    continue;
                }
                let app = format!("cam{a:03}");
                let key = format!("mid/leaf{i}/{app}");
                let sent = produced.entry(key).or_insert(0);
                state.ingest_batch(&app, 0, batch(*sent, BEATS_PER_BATCH));
                *sent += BEATS_PER_BATCH as u64;
            }
        }
        thread::sleep(Duration::from_millis(5));
    }

    // The outage must have forced the leaf0 relay through at least one
    // reconnect (it was up before round KILL_ROUND, and converges after).
    let leaf0_stats = leaves[0]
        .state()
        .upstream_stats()
        .expect("leaf0 uplink stats");

    // Quiesce: every application's ledger at the root must balance exactly
    // — delivered plus accounted-dropped equals produced.
    let root_state = root.state();
    let converged = wait_until(Duration::from_secs(60), || {
        produced.iter().all(|(key, &sent)| {
            root_state
                .snapshot(key)
                .is_some_and(|snap| snap.total_beats + snap.producer_dropped == sent)
        })
    });
    if !converged {
        let mut missing = 0u64;
        for (key, &sent) in &produced {
            let got = root_state
                .snapshot(key)
                .map_or(0, |s| s.total_beats + s.producer_dropped);
            if got != sent {
                missing += 1;
                if missing <= 5 {
                    eprintln!("unbalanced {key}: accounted {got} != produced {sent}");
                }
            }
        }
        panic!(
            "{missing} of {} apps never balanced at the root",
            produced.len()
        );
    }

    assert!(
        leaf0_stats.reconnects() >= 1,
        "severing the uplink must force a reconnect (saw {})",
        leaf0_stats.reconnects()
    );

    // Zero unaccounted loss, globally: whatever the root records as dropped
    // is exactly what the capture taps shed while links were down. Nothing
    // vanished, nothing was counted twice.
    let root_dropped: u64 = produced
        .keys()
        .map(|key| root_state.snapshot(key).expect("snapshot").producer_dropped)
        .sum();
    let taps_shed: u64 = leaves
        .iter()
        .map(|leaf| {
            leaf.state()
                .upstream_tap()
                .expect("leaf tap")
                .dropped_beats()
        })
        .sum::<u64>()
        + mid.state().upstream_tap().expect("mid tap").dropped_beats();
    assert_eq!(
        root_dropped, taps_shed,
        "root dropped ledger must equal exactly what the taps shed"
    );
    let root_total: u64 = produced
        .keys()
        .map(|key| root_state.snapshot(key).expect("snapshot").total_beats)
        .sum();
    let sent_total: u64 = produced.values().sum();
    assert_eq!(
        root_total + root_dropped,
        sent_total,
        "global ledger must balance"
    );

    // Auth hygiene: every link in the tree carries the shared secret, so
    // the whole soak — including every forced reconnect — must complete
    // without a single uplink rejection of either kind.
    assert_eq!(
        root_state.uplink_rejections(),
        (0, 0),
        "root rejected an uplink"
    );
    assert_eq!(
        mid.state().uplink_rejections(),
        (0, 0),
        "mid rejected an uplink"
    );

    // Origin topology: the root sees exactly one connected child ("mid");
    // the mid tier sees all four leaves, all connected after the heal.
    let origins = root_state.origins();
    assert_eq!(origins.len(), 1, "root has one child: {origins:?}");
    assert_eq!(origins[0].node, "mid");
    assert!(origins[0].connected, "mid link must be up at quiesce");
    assert!(wait_until(Duration::from_secs(10), || {
        let mid_origins = mid.state().origins();
        mid_origins.len() == LEAVES && mid_origins.iter().all(|o| o.connected)
    }));

    // Per-cluster rollups reconcile against the per-app ledger.
    let rollups = root_state.origin_rollups();
    assert_eq!(rollups.len(), 1);
    let rollup = &rollups[0];
    assert_eq!(rollup.node, "mid");
    assert_eq!(rollup.apps, (LEAVES * APPS_PER_LEAF) as u64);
    assert_eq!(rollup.beats_total, root_total);
    assert_eq!(rollup.dropped_total, root_dropped);
    assert_eq!(
        rollup.health_counts.iter().sum::<u64>(),
        rollup.apps,
        "every app lands in exactly one health class"
    );

    // Health at the root: the quiet class went silent in round 0, far past
    // the 400ms health window by now — the root's own detector must call
    // them Stalled. The fast class has beats, so it can never be NoSignal.
    let stalled_ok = wait_until(Duration::from_secs(10), || {
        (0..LEAVES).all(|i| {
            (0..QUIET_PER_LEAF).all(|a| {
                root_state
                    .health(&format!("mid/leaf{i}/cam{a:03}"))
                    .is_some_and(|report| report.status == HealthStatus::Stalled)
            })
        })
    });
    assert!(
        stalled_ok,
        "quiet apps must be reported Stalled at the root"
    );
    for key in produced.keys() {
        let report = root_state.health(key).expect("health report");
        assert_ne!(
            report.status,
            HealthStatus::NoSignal,
            "{key} has beats on record, NoSignal is impossible"
        );
    }

    // Leaf ground truth: every leaf kept ingesting through the outage —
    // its local ledger holds the full production run.
    for (i, leaf) in leaves.iter().enumerate() {
        let state = leaf.state();
        for a in 0..APPS_PER_LEAF {
            let app = format!("cam{a:03}");
            let key = format!("mid/leaf{i}/{app}");
            let local = state.snapshot(&app).expect("leaf snapshot");
            assert_eq!(
                local.total_beats, produced[&key],
                "leaf{i}/{app}: local ingest must be unaffected by the uplink outage"
            );
        }
    }

    for leaf in &mut leaves {
        leaf.shutdown();
    }
    mid.shutdown();
    root.shutdown();
}
