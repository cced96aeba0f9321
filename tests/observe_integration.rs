//! End-to-end tests of the unified observer API: push subscriptions over a
//! real loopback collector, the `Observe` trait across all three transports
//! (in-process reader, shared memory, remote collector), subscription
//! lifecycle and backpressure accounting, idle-eviction exemption, and the
//! clean `Unsupported` failure against a pre-subscription collector.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::control::{DiscreteActuator, RateMonitor, StepController};
use app_heartbeats::heartbeats::observe::{
    Interest, Observe, ObserveEventKind, ObserveFilter, ObservedHealth,
};
use app_heartbeats::heartbeats::{Backend, HeartbeatBuilder};
use app_heartbeats::net::{
    Collector, CollectorConfig, HealthConfig, NetError, RemoteReader, TcpBackend,
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

/// A collector with a short health window, plus a connected producer.
fn rig(
    app: &str,
    window: Duration,
) -> (
    Collector,
    Arc<TcpBackend>,
    app_heartbeats::heartbeats::Heartbeat,
) {
    let collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            health: HealthConfig {
                window,
                // Sleep-paced test producers jitter with the scheduler; only
                // genuine pathologies should trip the detector here.
                jitter_cv: 10.0,
                ..HealthConfig::default()
            },
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");
    let backend = Arc::new(TcpBackend::new(collector.ingest_addr().to_string(), app));
    let hb = HeartbeatBuilder::new(app)
        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
        .build()
        .expect("build heartbeat");
    (collector, backend, hb)
}

/// The acceptance scenario: a control loop driven by `RemoteApp` through
/// the `Observe` trait receives **pushed** health-transition events over a
/// real loopback connection — with zero polling requests issued after the
/// subscription is acknowledged (asserted by the collector's request
/// counter) — while the same connection keeps serving interleaved polls.
#[test]
fn pushed_health_transitions_drive_observation_without_polling() {
    const WINDOW: Duration = Duration::from_millis(300);
    let (collector, _backend, hb) = rig("obs-app", WINDOW);
    hb.set_target_rate(10_000.0, 20_000.0).expect("target");
    for _ in 0..30 {
        std::thread::sleep(Duration::from_millis(2));
        hb.heartbeat();
    }
    hb.flush().expect("flush");

    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    let remote = reader.app("obs-app");

    // The same RemoteApp drives a classic polling control loop through the
    // blanket RateSource impl — unchanged consumer code over the unified
    // trait.
    let monitor = RateMonitor::new(remote.clone()).with_check_every(1);
    let mut control = app_heartbeats::control::ControlLoop::new(
        monitor,
        StepController::new(),
        DiscreteActuator::new(1, 8, 4),
    );
    wait_for(Duration::from_secs(5), || {
        let (level, _) = control.tick_guarded();
        level.is_actionable().then_some(())
    })
    .expect("remote app actionable while beating");

    // Open the push subscription through the Observe trait.
    let filter = ObserveFilter::new(Interest::HEALTH).min_interval(Duration::from_millis(20));
    let mut stream = remote.subscribe(&filter).expect("subscribe");

    // The first assessment after subscribing announces the current state.
    let first = stream
        .wait_next(Duration::from_secs(5))
        .expect("initial health transition");
    assert_eq!(first.app, "obs-app");
    let ObserveEventKind::Health { from, to } = first.kind else {
        panic!("expected a health transition, got {first:?}");
    };
    assert_eq!(from, ObservedHealth::NoSignal);
    // The sleep-paced producer sits far below its declared target, so the
    // detector may report Degraded (rate-below-target) rather than Healthy;
    // either way the stream is live.
    assert!(
        to >= ObservedHealth::Degraded,
        "initial transition lands on a live state, got {to:?}"
    );

    // From here on: ZERO polling. Every observation below is pushed.
    let state = collector.state();
    let queries_before = state.queries_total();

    // Stall the producer; the collector's sweep must originate a
    // Healthy → Stalled event (no ingest traffic can carry it).
    let stalled = wait_for(WINDOW * 10, || {
        stream.try_next().and_then(|event| match event.kind {
            ObserveEventKind::Health { from, to } if to == ObservedHealth::Stalled => {
                Some((from, to))
            }
            _ => None,
        })
    })
    .expect("pushed stall transition");
    assert!(
        stalled.0 >= ObservedHealth::Degraded,
        "stall transitions from a live state, got {:?}",
        stalled.0
    );

    // Resume; the recovery transition is assessed at ingest time and
    // pushed.
    for _ in 0..30 {
        std::thread::sleep(Duration::from_millis(2));
        hb.heartbeat();
    }
    hb.flush().expect("flush");
    wait_for(Duration::from_secs(5), || {
        stream.try_next().and_then(|event| match event.kind {
            ObserveEventKind::Health { to, .. } if to >= ObservedHealth::Degraded => Some(()),
            _ => None,
        })
    })
    .expect("pushed recovery transition");

    assert_eq!(
        state.queries_total(),
        queries_before,
        "a full stall/recovery cycle was observed without one polling request"
    );

    // Interleaved polls: the same demuxed connection still answers queries
    // while the subscription stays live.
    let snap = reader
        .snapshot("obs-app")
        .expect("poll over the subscribed connection")
        .expect("known app");
    assert!(snap.total_beats >= 60);
    assert_eq!(state.queries_total(), queries_before + 1);
    assert!(!stream.is_closed(), "subscription survives interleaved polls");
    assert_eq!(state.subscriptions().active(), 1);
}

/// Subscription lifecycle: subscribe → events flow → unsubscribe → no
/// further events (pinned by the collector's own counters, not just
/// client-side silence).
#[test]
fn subscription_lifecycle_stops_events_after_unsubscribe() {
    let (collector, _backend, hb) = rig("life-app", Duration::from_secs(5));
    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );

    let filter = ObserveFilter::new(Interest::SNAPSHOTS).min_interval(Duration::ZERO);
    let sub = reader.subscribe("life-app", &filter).expect("subscribe");

    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(1));
        hb.heartbeat();
    }
    hb.flush().expect("flush");

    // Events flow: snapshot totals grow toward 20.
    wait_for(Duration::from_secs(5), || {
        sub.try_next().and_then(|event| match event.payload {
            app_heartbeats::net::EventPayload::Snapshot { total_beats, .. }
                if total_beats >= 20 =>
            {
                Some(())
            }
            _ => None,
        })
    })
    .expect("snapshot events flow");

    // Unsubscribe synchronously; the ack guarantees the collector purged
    // the stream.
    sub.unsubscribe().expect("unsubscribe acked");
    let state = collector.state();
    assert_eq!(state.subscriptions().active(), 0, "registry emptied");
    let events_at_unsub = state.events_total();

    // More beats arrive; the collector must originate nothing new.
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(1));
        hb.heartbeat();
    }
    hb.flush().expect("flush");
    wait_for(Duration::from_secs(5), || {
        (state.snapshot("life-app")?.total_beats >= 40).then_some(())
    })
    .expect("post-unsubscribe beats ingested");
    std::thread::sleep(Duration::from_millis(100)); // pump slack
    assert_eq!(
        state.events_total(),
        events_at_unsub,
        "no events originate after the unsubscribe ack"
    );
}

/// Slow-subscriber backpressure at the collector: a bounded queue sheds its
/// oldest events and the loss is visible in `events_dropped`, STATS and the
/// Prometheus export. Uses the embedded registry (`subscribe_local`) so the
/// queue genuinely backs up instead of draining into a socket.
#[test]
fn slow_subscriber_sheds_oldest_with_accounting() {
    use app_heartbeats::heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
    use app_heartbeats::net::{CollectorState, WireBeat};

    let state = CollectorState::new(CollectorConfig {
        sub_queue_capacity: 8,
        ..CollectorConfig::default()
    });
    let sub = state
        .subscribe_local("slow-*", Interest::SNAPSHOTS, Duration::ZERO)
        .expect("local subscription");

    // 30 one-beat batches, never drained: 22 must be shed, newest 8 kept.
    for i in 0..30u64 {
        state.ingest_batch(
            "slow-app",
            0,
            vec![WireBeat {
                record: HeartbeatRecord::new(i, i * 1_000_000, Tag::NONE, BeatThreadId(0)),
                scope: BeatScope::Global,
            }],
        );
    }
    assert_eq!(sub.queued(), 8, "queue bounded at capacity");
    assert_eq!(sub.dropped(), 22, "oldest events shed, each counted");
    assert_eq!(state.events_total(), 30);
    assert_eq!(state.events_dropped_total(), 22);

    let metrics = state.prometheus();
    assert!(
        metrics.contains("hb_collector_events_dropped_total 22"),
        "metrics: {metrics}"
    );
    assert!(metrics.contains("hb_collector_events_total 30"));
    assert!(metrics.contains("hb_collector_subscriptions 1"));

    // The retained suffix is the newest 8 batches, in order.
    let events = sub.drain();
    let totals: Vec<u64> = events
        .iter()
        .map(|event| match event.payload {
            app_heartbeats::net::EventPayload::Snapshot { total_beats, .. } => total_beats,
            ref other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(totals, (23..=30).collect::<Vec<u64>>());
}

/// An embedded (in-process) subscription detects stalls through
/// `sweep_local` — the no-connection counterpart of the reactor-pump sweep
/// network subscribers get automatically.
#[test]
fn local_subscription_sweep_detects_stall() {
    use app_heartbeats::heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
    use app_heartbeats::net::{CollectorState, EventPayload, HealthStatus, WireBeat};

    let state = CollectorState::new(CollectorConfig {
        health: HealthConfig {
            window: Duration::from_millis(50),
            jitter_cv: 10.0,
            ..HealthConfig::default()
        },
        ..CollectorConfig::default()
    });
    let sub = state
        .subscribe_local("swept", Interest::HEALTH, Duration::ZERO)
        .expect("local subscription");
    state.ingest_batch(
        "swept",
        0,
        (0..5u64).map(|i| WireBeat {
            record: HeartbeatRecord::new(i, i * 10_000_000, Tag::NONE, BeatThreadId(0)),
            scope: BeatScope::Global,
        }),
    );
    let first = sub.drain();
    assert!(
        matches!(
            first.last().map(|e| &e.payload),
            Some(EventPayload::HealthTransition { .. })
        ),
        "ingest-time transition delivered: {first:?}"
    );

    // Silence past the window; only the sweep can notice.
    std::thread::sleep(Duration::from_millis(120));
    state.sweep_local(&sub);
    let swept = sub.drain();
    assert!(
        swept.iter().any(|event| matches!(
            event.payload,
            EventPayload::HealthTransition {
                to: HealthStatus::Stalled,
                ..
            }
        )),
        "sweep delivers the stall transition: {swept:?}"
    );
}

/// The idle-eviction satellite: with an idle timeout *shorter* than the gap
/// between events, a connection holding an active subscription survives,
/// while a plain idle observer connection on the same collector is
/// evicted.
#[test]
fn active_subscription_survives_idle_timeout_shorter_than_event_gap() {
    const IDLE: Duration = Duration::from_millis(300);
    let collector = Collector::with_config(
        "127.0.0.1:0",
        "127.0.0.1:0",
        CollectorConfig {
            idle_timeout: IDLE,
            health: HealthConfig {
                window: Duration::from_millis(200),
                jitter_cv: 10.0,
                ..HealthConfig::default()
            },
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");
    let state = collector.state();

    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    let filter = ObserveFilter::new(Interest::HEALTH).min_interval(Duration::from_millis(20));
    // Subscribe to an application that does not exist yet: the connection
    // stays completely silent — no events, no queries — far beyond the
    // idle timeout.
    let sub = reader.subscribe("quiet-app", &filter).expect("subscribe");

    // A control connection with no subscription goes just as silent...
    let idle_probe = std::net::TcpStream::connect(collector.query_addr()).expect("raw observer");
    // ...and is evicted.
    wait_for(Duration::from_secs(10), || {
        (state.evicted_total() >= 1).then_some(())
    })
    .expect("plain idle connection evicted");
    std::thread::sleep(IDLE * 2);
    assert_eq!(
        state.subscriptions().active(),
        1,
        "subscribed connection survives (its registry entry would vanish on close)"
    );

    // The surviving subscription still works: a producer appears and its
    // first health assessment is pushed on the original connection.
    let backend = Arc::new(TcpBackend::new(collector.ingest_addr().to_string(), "quiet-app"));
    let hb = HeartbeatBuilder::new("quiet-app")
        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
        .build()
        .expect("build heartbeat");
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(2));
        hb.heartbeat();
    }
    hb.flush().expect("flush");
    let event = wait_for(Duration::from_secs(5), || sub.try_next())
        .expect("event delivered after the idle window passed");
    assert_eq!(event.app, "quiet-app");
    drop(idle_probe);
}

/// Subscribing through a collector that predates the subscription protocol
/// fails fast with `Unsupported` — negotiated up front, never by hanging on
/// a `Subscribe` nobody will acknowledge.
#[test]
fn subscribing_to_a_v2_collector_reports_unsupported() {
    // A faithful stand-in for the old collector's query port: answers every
    // line with the old `ERR unknown command` and knows no binary frames.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake collector");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                while let Ok(n) = reader.read_line(&mut line) {
                    if n == 0 {
                        break;
                    }
                    let cmd = line.trim().to_string();
                    let mut out = stream.try_clone().expect("clone");
                    if cmd == "PING" {
                        let _ = writeln!(out, "PONG");
                    } else {
                        let _ = writeln!(out, "ERR unknown command {cmd} (try HELP)");
                    }
                    line.clear();
                }
            });
        }
    });

    let reader = Arc::new(RemoteReader::connect(addr.to_string()).expect("connect"));
    reader.ping().expect("old collector still answers pings");
    let filter = ObserveFilter::new(Interest::HEALTH);
    let started = Instant::now();
    let err = reader
        .subscribe("anything", &filter)
        .expect_err("subscribe must fail against a v2 collector");
    assert!(
        matches!(err, NetError::Unsupported(_)),
        "expected Unsupported, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "failure is immediate, not a hang"
    );
}

/// One generic observer runs unchanged across all three transports — the
/// unification the `Observe` trait exists for.
#[test]
fn one_observer_fn_runs_over_local_shm_and_remote_transports() {
    fn watch<T: Observe>(source: &T) -> (String, u64, ObservedHealth) {
        let snapshot = source.snapshot().expect("known application");
        (
            source.name().to_string(),
            snapshot.total_beats,
            source.health(),
        )
    }

    // Local, in-process.
    let hb = HeartbeatBuilder::new("tri-app").build().expect("local");
    for _ in 0..10 {
        hb.heartbeat();
    }
    let (name, total, health) = watch(&hb.reader());
    assert_eq!((name.as_str(), total), ("tri-app", 10));
    assert_eq!(health, ObservedHealth::Healthy);

    // Shared memory.
    let shm_name = format!("hb-observe-tri-{}", std::process::id());
    let shm_backend =
        app_heartbeats::shm::ShmBackend::create(&shm_name, 64, 20).expect("shm backend");
    let hb2 = HeartbeatBuilder::new("tri-app")
        .backend(Arc::new(shm_backend))
        .build()
        .expect("shm heartbeat");
    for _ in 0..10 {
        hb2.heartbeat();
    }
    let observer = app_heartbeats::shm::ShmObserver::attach(&shm_name).expect("attach");
    let (_, total, health) = watch(&observer);
    assert_eq!(total, 10);
    assert_eq!(health, ObservedHealth::Healthy);
    app_heartbeats::shm::ShmSegment::unlink(&shm_name).expect("unlink");

    // Remote, through a collector.
    let (collector, _backend, hb3) = rig("tri-app", Duration::from_secs(5));
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(1));
        hb3.heartbeat();
    }
    hb3.flush().expect("flush");
    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    let remote = reader.app("tri-app");
    wait_for(Duration::from_secs(5), || {
        (Observe::snapshot(&remote)?.total_beats >= 10).then_some(())
    })
    .expect("beats reach the collector");
    let (name, total, health) = watch(&remote);
    assert_eq!((name.as_str(), total), ("tri-app", 10));
    assert_eq!(health, ObservedHealth::Healthy);

    // And the local polling subscription synthesizes the same event shapes
    // the remote plane pushes.
    let filter = ObserveFilter::new(Interest::SNAPSHOTS | Interest::HEALTH)
        .min_interval(Duration::ZERO);
    let mut local_stream = hb.reader().subscribe(&filter).expect("local subscribe");
    let event = local_stream
        .wait_next(Duration::from_secs(1))
        .expect("synthesized event");
    assert!(matches!(
        event.kind,
        ObserveEventKind::Health { .. } | ObserveEventKind::Snapshot(_)
    ));
}
