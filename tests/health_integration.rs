//! End-to-end loopback tests of the health subsystem: a producer
//! (`TcpBackend`) streams into a collector whose history ring and windowed
//! anomaly detector are then read back three ways — binary
//! `RemoteReader::{history, health}` queries, the `HISTORY`/`HEALTH`/`HELP`
//! line protocol, and the `hb_app_health` Prometheus gauge — and finally
//! drive a health-guarded control loop.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use app_heartbeats::control::{
    DiscreteActuator, HealthLevel, HealthSource, RateMonitor, StepController,
};
use app_heartbeats::net::{
    Collector, CollectorConfig, HealthConfig, HealthStatus, RemoteReader, TcpBackend,
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
                // Sleep-paced test producers jitter with the scheduler;
                // only genuine pathologies should trip the detector here.
                jitter_cv: 10.0,
                ..HealthConfig::default()
            },
            ..CollectorConfig::default()
        },
    )
    .expect("bind collector");
    let backend = Arc::new(TcpBackend::new(collector.ingest_addr().to_string(), app));
    let hb = app_heartbeats::heartbeats::HeartbeatBuilder::new(app)
        .backend(Arc::clone(&backend) as Arc<dyn app_heartbeats::heartbeats::Backend>)
        .build()
        .expect("build heartbeat");
    (collector, backend, hb)
}

/// The acceptance scenario: a producer that stalls mid-run is reported
/// `Stalled` by `RemoteReader::health()` within one health window, then
/// `Healthy` again after resuming.
#[test]
fn stall_is_detected_and_recovery_observed() {
    const WINDOW: Duration = Duration::from_millis(400);
    let (collector, _backend, hb) = rig("stall-app", WINDOW);
    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );

    // Phase 1: steady beating -> Healthy.
    for _ in 0..30 {
        std::thread::sleep(Duration::from_millis(2));
        hb.heartbeat();
    }
    hb.flush().expect("flush");
    let healthy = wait_for(Duration::from_secs(5), || {
        reader
            .health("stall-app")
            .ok()
            .flatten()
            .filter(|r| r.status == HealthStatus::Healthy)
    })
    .expect("steady producer reported healthy");
    assert!(healthy.window_beats >= 2);
    assert!(healthy.reasons.is_empty());

    // Phase 2: the producer stalls mid-run. Within one health window (plus
    // scheduling slack) the collector must report Stalled.
    let stalled = wait_for(WINDOW * 5, || {
        reader
            .health("stall-app")
            .ok()
            .flatten()
            .filter(|r| r.status == HealthStatus::Stalled)
    })
    .expect("stalled producer reported Stalled within the window");
    assert!(
        stalled.silent_ns >= WINDOW.as_nanos() as u64,
        "stall report carries the silence duration"
    );

    // Phase 3: the producer resumes; health returns to Healthy.
    for _ in 0..30 {
        std::thread::sleep(Duration::from_millis(2));
        hb.heartbeat();
    }
    hb.flush().expect("flush");
    wait_for(Duration::from_secs(5), || {
        reader
            .health("stall-app")
            .ok()
            .flatten()
            .filter(|r| r.status == HealthStatus::Healthy)
    })
    .expect("resumed producer reported Healthy again");
}

#[test]
fn history_flows_to_remote_observers() {
    let (collector, _backend, hb) = rig("hist-app", Duration::from_secs(5));
    const BEATS: u64 = 40;
    for _ in 0..BEATS {
        std::thread::sleep(Duration::from_millis(1));
        hb.heartbeat();
    }
    hb.flush().expect("flush");

    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    // Binary path: the full ring arrives once every beat landed.
    let chunk = wait_for(Duration::from_secs(10), || {
        reader
            .history("hist-app", 0)
            .ok()
            .flatten()
            .filter(|c| c.total >= BEATS)
    })
    .expect("history reaches the remote reader");
    assert_eq!(chunk.app, "hist-app");
    assert_eq!(chunk.samples.len() as u64, chunk.total, "ring not yet full");
    let timestamps: Vec<u64> = chunk.samples.iter().map(|s| s.timestamp_ns).collect();
    let mut sorted = timestamps.clone();
    sorted.sort_unstable();
    assert_eq!(timestamps, sorted, "samples are chronological");
    assert!(
        chunk.samples.last().unwrap().rate_bps.is_some(),
        "late samples carry the at-ingest rate estimate"
    );

    // Limited query returns exactly the newest n.
    let tail = reader
        .history("hist-app", 5)
        .expect("limited history")
        .expect("known app");
    assert_eq!(tail.samples.len(), 5);
    assert_eq!(
        tail.samples.last().unwrap().timestamp_ns,
        *timestamps.last().unwrap()
    );

    // Unknown apps are None, not an error.
    assert!(reader.history("ghost", 0).expect("query ok").is_none());
    assert!(reader.health("ghost").expect("query ok").is_none());

    // Mixing line and binary queries on the same connection works.
    reader.ping().expect("ping after binary queries");
    assert_eq!(reader.apps().expect("LIST"), vec!["hist-app".to_string()]);

    // The health status also lands in the Prometheus export.
    let metrics = reader.metrics().expect("METRICS");
    assert!(
        metrics.contains("hb_app_health{app=\"hist-app\"}"),
        "metrics: {metrics}"
    );
}

/// The `HISTORY` and `HELP` line commands over a raw query-port socket.
#[test]
fn history_and_help_over_the_line_protocol() {
    let (collector, _backend, hb) = rig("line-app", Duration::from_secs(5));
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(1));
        hb.heartbeat();
    }
    hb.flush().expect("flush");

    // Wait until the collector absorbed everything.
    let state = collector.state();
    wait_for(Duration::from_secs(10), || {
        (state.snapshot("line-app")?.total_beats >= 10).then_some(())
    })
    .expect("beats ingested");

    let stream = TcpStream::connect(collector.query_addr()).expect("connect query port");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut conn = BufReader::new(stream);
    fn send(conn: &BufReader<TcpStream>, cmd: &str) {
        conn.get_ref()
            .write_all(cmd.as_bytes())
            .expect("send command");
    }
    fn lines_until_end(conn: &mut BufReader<TcpStream>) -> Vec<String> {
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            conn.read_line(&mut line).expect("read line");
            if line.trim() == "END" {
                return out;
            }
            out.push(line.trim().to_string());
        }
    }

    send(&conn, "HISTORY line-app\n");
    let history = lines_until_end(&mut conn);
    assert!(
        history[0].starts_with("HISTORY app=line-app total=10 count=10"),
        "header: {}",
        history[0]
    );
    assert_eq!(history.len(), 11, "header + one S line per sample");
    assert!(history[1].starts_with("S seq="));

    send(&conn, "HEALTH line-app\n");
    let mut health = String::new();
    conn.read_line(&mut health).expect("read health");
    assert!(
        health.starts_with("HEALTH app=line-app status="),
        "health: {health}"
    );

    send(&conn, "HELP\n");
    let help = lines_until_end(&mut conn).join("\n");
    for command in [
        "PING", "LIST", "GET", "HISTORY", "HEALTH", "METRICS", "STATS", "QUIT",
    ] {
        assert!(help.contains(command), "HELP must document {command}");
    }
}

/// A guarded control loop driven end-to-end from the collector: acts while
/// the producer is alive, holds while it is stalled.
#[test]
fn guarded_control_loop_holds_on_remote_stall() {
    const WINDOW: Duration = Duration::from_millis(300);
    let (collector, _backend, hb) = rig("ctl-app", WINDOW);
    hb.set_target_rate(10_000.0, 20_000.0).expect("target");
    for _ in 0..30 {
        std::thread::sleep(Duration::from_millis(2));
        hb.heartbeat();
    }
    hb.flush().expect("flush");

    let reader = Arc::new(
        RemoteReader::connect(collector.query_addr().to_string()).expect("connect reader"),
    );
    let remote = reader.app("ctl-app");
    wait_for(Duration::from_secs(5), || {
        remote.health_level().is_actionable().then_some(())
    })
    .expect("remote app actionable while beating");

    let monitor = RateMonitor::new(reader.app("ctl-app")).with_check_every(1);
    let mut control = app_heartbeats::control::ControlLoop::new(
        monitor,
        StepController::new(),
        DiscreteActuator::new(1, 8, 4),
    );

    // Alive and far below target: the guarded tick acts.
    let (level, event) = control.tick_guarded();
    assert!(level.is_actionable(), "level: {level:?}");
    assert!(event.is_some());

    // Stall the producer; once the collector reports it, the guarded tick
    // must hold the actuator no matter what the stale rate says.
    wait_for(WINDOW * 5, || {
        (control.tick_guarded().0 == HealthLevel::Stalled).then_some(())
    })
    .expect("guarded loop sees the stall");
    let held = control.level();
    for _ in 0..5 {
        let (level, event) = control.tick_guarded();
        assert_eq!(level, HealthLevel::Stalled);
        assert!(event.is_none(), "no action while stalled");
    }
    assert_eq!(control.level(), held, "actuator held through the stall");
}
