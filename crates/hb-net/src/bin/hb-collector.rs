//! The standalone heartbeat collector daemon.
//!
//! ```text
//! hb-collector [--ingest HOST:PORT] [--query HOST:PORT] [--print-every SECS]
//!              [--io-threads N|auto] [--idle-timeout SECS]
//!              [--history-capacity N] [--health-window SECS]
//!              [--sub-queue-capacity N] [--log-level LEVEL]
//!              [--upstream HOST:PORT --node-name NAME] [--cluster-secret SECRET]
//! ```
//!
//! Producers point a `TcpBackend` at the ingest address; observers speak the
//! line protocol (`HELP`, `LIST`, `GET <app>`, `HISTORY <app> [n]`,
//! `HEALTH [app]`, `METRICS`, `STATS`, `PING`, `QUIT`) to the query address
//! — `METRICS` returns a Prometheus-style text export, and binary
//! `HistoryReq`/`HealthReq` wire frames are answered on the same port. With
//! `--print-every N` the daemon also prints a registry summary to stdout
//! every N seconds.
//!
//! All connections are served by a sharded epoll reactor with `--io-threads`
//! independent I/O shards (default `auto` = one per available core) —
//! connection count is bounded by file descriptors, not threads. Each shard
//! owns its own epoll instance, timer wheel, and registry partition; a
//! producer connection migrates to its application's home shard at hello
//! time so steady-state ingest never crosses shards. `--idle-timeout`
//! (default 60, `0` disables) evicts connections with no traffic.
//!
//! `--history-capacity` (default 1024, `0` disables) bounds the per-app
//! ring of recent beat samples behind `HISTORY`; `--health-window` (default
//! 5) sets the span the anomaly detector judges and the silence threshold
//! past which an application is reported `stalled`.
//!
//! Observers may also open **push subscriptions** on the query port (binary
//! `Subscribe` frames — see `docs/OBSERVERS.md`); `--sub-queue-capacity`
//! (default 1024) bounds the events buffered per subscriber connection
//! before the oldest is shed (counted in `events_dropped`). Connections
//! holding an active subscription are exempt from `--idle-timeout`.
//!
//! With `--upstream HOST:PORT` (requires `--node-name NAME`) this collector
//! joins a **federation tree** as a leaf or mid tier: a background relay
//! re-exports everything it ingests to the parent collector's ingest port,
//! namespaced as `NAME/app`, reconnecting with bounded backoff and exact
//! drop-oldest accounting when the parent is unreachable — local ingest
//! never blocks. Subscriptions placed at the parent propagate down
//! automatically. With `--cluster-secret` the collector both challenges
//! incoming uplinks (rejecting children that cannot answer the keyed-MAC
//! challenge) and answers its own parent's challenges; every collector in
//! the tree must carry the same secret. See `docs/FEDERATION.md`.
//!
//! Lifecycle events (accepts, hellos, protocol errors, evictions, health
//! transitions) go to the in-process journal — replay them with `TRACE [n]`
//! on the query port. `--log-level LEVEL` (trace|debug|info|warn|error|off,
//! default `info`) additionally mirrors entries at or above LEVEL to
//! stderr; the journal itself always records everything. See
//! `docs/TELEMETRY.md`.

use hb_net::telemetry::{self, Level};
use hb_net::{Collector, CollectorConfig, UpstreamConfig};

struct Args {
    ingest: String,
    query: String,
    print_every: Option<u64>,
    io_threads: usize,
    idle_timeout: u64,
    history_capacity: usize,
    health_window: f64,
    sub_queue_capacity: usize,
    /// `None` silences the stderr mirror (`--log-level off`); the journal
    /// records at every level regardless.
    log_level: Option<Level>,
    /// Parent collector ingest address (federation uplink).
    upstream: Option<String>,
    /// This node's federation name (required with `--upstream`).
    node_name: Option<String>,
    /// Shared federation secret: uplinks are challenged and children
    /// answer with a keyed MAC (see `docs/FEDERATION.md`).
    cluster_secret: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ingest: "127.0.0.1:4560".into(),
        query: "127.0.0.1:4561".into(),
        print_every: Some(10),
        io_threads: CollectorConfig::default().io_threads,
        idle_timeout: CollectorConfig::default().idle_timeout.as_secs(),
        history_capacity: CollectorConfig::default().history_capacity,
        health_window: CollectorConfig::default().health.window.as_secs_f64(),
        sub_queue_capacity: CollectorConfig::default().sub_queue_capacity,
        log_level: Some(Level::Info),
        upstream: None,
        node_name: None,
        cluster_secret: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--ingest" => args.ingest = value("--ingest")?,
            "--query" => args.query = value("--query")?,
            "--print-every" => {
                let secs: u64 = value("--print-every")?
                    .parse()
                    .map_err(|_| "--print-every expects a number of seconds".to_string())?;
                args.print_every = (secs > 0).then_some(secs);
            }
            "--io-threads" => {
                let raw = value("--io-threads")?;
                args.io_threads = if raw.eq_ignore_ascii_case("auto") {
                    // Sentinel: the collector resolves 0 to the number of
                    // available cores at startup.
                    0
                } else {
                    raw.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "--io-threads expects a count >= 1 or 'auto'".to_string())?
                };
            }
            "--idle-timeout" => {
                args.idle_timeout = value("--idle-timeout")?
                    .parse()
                    .map_err(|_| "--idle-timeout expects a number of seconds".to_string())?;
            }
            "--history-capacity" => {
                args.history_capacity = value("--history-capacity")?.parse().map_err(|_| {
                    "--history-capacity expects a sample count (0 disables)".to_string()
                })?;
            }
            "--health-window" => {
                args.health_window = value("--health-window")?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s.is_finite() && s > 0.0)
                    .ok_or_else(|| {
                        "--health-window expects a positive number of seconds".to_string()
                    })?;
            }
            "--sub-queue-capacity" => {
                args.sub_queue_capacity = value("--sub-queue-capacity")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--sub-queue-capacity expects a count >= 1".to_string())?;
            }
            "--log-level" => {
                let raw = value("--log-level")?;
                args.log_level = if raw.eq_ignore_ascii_case("off") {
                    None
                } else {
                    Some(Level::parse(&raw).ok_or_else(|| {
                        "--log-level expects trace|debug|info|warn|error|off".to_string()
                    })?)
                };
            }
            "--upstream" => args.upstream = Some(value("--upstream")?),
            "--node-name" => {
                let raw = value("--node-name")?;
                if !hb_net::wire::valid_node_name(&raw) {
                    return Err(format!(
                        "--node-name {raw:?} is invalid: printable, no '/', no '*', \
                         at most {} bytes",
                        hb_net::wire::MAX_NODE_LEN
                    ));
                }
                args.node_name = Some(raw);
            }
            "--cluster-secret" => {
                let raw = value("--cluster-secret")?;
                if raw.is_empty() {
                    return Err("--cluster-secret must not be empty".into());
                }
                args.cluster_secret = Some(raw);
            }
            "--help" | "-h" => {
                println!(
                    "usage: hb-collector [--ingest HOST:PORT] [--query HOST:PORT] \
                     [--print-every SECS] [--io-threads N|auto] [--idle-timeout SECS] \
                     [--history-capacity N] [--health-window SECS] \
                     [--sub-queue-capacity N] [--log-level LEVEL] \
                     [--upstream HOST:PORT --node-name NAME] [--cluster-secret SECRET]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.upstream.is_some() != args.node_name.is_some() {
        return Err("--upstream and --node-name must be given together".into());
    }
    Ok(args)
}

fn main() {
    // Usage errors must reach the terminal even under `--log-level off`,
    // so the mirror starts at the default before flags are applied.
    telemetry::set_stderr_level(Some(Level::Info));
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            hb_net::log!(Level::Error, "{msg}");
            std::process::exit(2);
        }
    };
    telemetry::set_stderr_level(args.log_level);
    hb_net::log!(
        Level::Info,
        "config ingest={} query={} io_threads={} idle_timeout_s={} history_capacity={} \
         health_window_s={} sub_queue_capacity={} print_every_s={} log_level={} \
         upstream={} node_name={} cluster_secret={}",
        args.ingest,
        args.query,
        if args.io_threads == 0 {
            "auto".to_string()
        } else {
            args.io_threads.to_string()
        },
        args.idle_timeout,
        args.history_capacity,
        args.health_window,
        args.sub_queue_capacity,
        args.print_every.unwrap_or(0),
        args.log_level.map_or("off", |l| l.as_str()),
        args.upstream.as_deref().unwrap_or("none"),
        args.node_name.as_deref().unwrap_or("none"),
        if args.cluster_secret.is_some() {
            "set"
        } else {
            "none"
        },
    );
    let config = CollectorConfig {
        io_threads: args.io_threads,
        idle_timeout: std::time::Duration::from_secs(args.idle_timeout),
        history_capacity: args.history_capacity,
        sub_queue_capacity: args.sub_queue_capacity,
        health: hb_net::HealthConfig {
            window: std::time::Duration::from_secs_f64(args.health_window),
            ..hb_net::HealthConfig::default()
        },
        upstream: args
            .upstream
            .as_ref()
            .zip(args.node_name.as_ref())
            .map(|(parent, node)| {
                let mut up = UpstreamConfig::new(parent.clone(), node.clone());
                up.secret = args.cluster_secret.clone();
                up
            }),
        cluster_secret: args.cluster_secret.clone(),
        ..CollectorConfig::default()
    };
    let collector = match Collector::with_config(&args.ingest, &args.query, config) {
        Ok(collector) => collector,
        Err(err) => {
            hb_net::log!(Level::Error, "failed to bind: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "hb-collector listening: ingest={} query={} io_threads={}",
        collector.ingest_addr(),
        collector.query_addr(),
        collector.io_threads(),
    );

    let state = collector.state();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(
            args.print_every.unwrap_or(60),
        ));
        if args.print_every.is_some() {
            let snapshots = state.snapshots();
            println!(
                "-- {} app(s), {} connection(s) total, {} frame(s) --",
                snapshots.len(),
                state.connections_total(),
                state.frames_total()
            );
            for snap in snapshots {
                let rate = snap
                    .rate_bps
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "n/a".into());
                let target = snap
                    .target
                    .map(|(min, max)| format!("[{min:.1}, {max:.1}]"))
                    .unwrap_or_else(|| "unset".into());
                println!(
                    "   {:<24} rate={rate:>10} bps target={target:<16} beats={} dropped={} alive={}",
                    snap.app, snap.total_beats, snap.producer_dropped, snap.alive
                );
            }
        }
    }
}
