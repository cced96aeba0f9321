//! The query plane: every observer question is answered once, from one
//! typed reply, and rendered twice.
//!
//! An observer asks the collector something either as a line command
//! (`GET x264` — for humans and `nc`) or as a binary query frame (what
//! [`RemoteReader`](crate::RemoteReader) speaks). Both parse into one
//! [`Query`] ([`parse_line`] / [`Query::from_frame`]); [`answer`] turns it
//! into one [`Reply`] — the only place a query reads the registry, is
//! counted and is timed — and the reply is rendered as text
//! ([`render_text`]) or as frames ([`Reply::encode_into`]), whichever way
//! the question arrived. The line protocol is therefore a *formatter*, not
//! a second implementation.
//!
//! The module also owns what the replies are made of: the collector-wide
//! [`CollectorStats`] reading and the Prometheus text export
//! ([`CollectorState::prometheus`]).

use std::borrow::Cow;
use std::fmt::{self, Display, Write as _};
use std::io::{self, Write as _};
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::collector::{AppSnapshot, CollectorState, OriginSnapshot};
use crate::health::HealthReport;
use crate::telemetry::{self, JournalEntry, LatencyHisto, PipelineTelemetry};
use crate::wire::{
    Frame, HealthFrame, HistoryChunk, MAX_HISTORY_SAMPLES, MAX_NAME_LEN, MAX_PAYLOAD, VERSION,
};

/// One observer question, however it arrived.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `PING`: liveness of the collector itself.
    Ping,
    /// `VERSION`: the wire-protocol version (subscription negotiation —
    /// neither counted nor timed as a query).
    Version,
    /// `HELP`: the command list.
    Help,
    /// `LIST` / [`Frame::ListReq`]: registered application names.
    Apps,
    /// `GET <app>` / [`Frame::SnapshotReq`]: one application's snapshot.
    Snapshot(String),
    /// `HISTORY <app> [n]` / [`Frame::HistoryReq`]: the application's most
    /// recent `n` beat samples (`0` = all retained).
    History(String, u32),
    /// `HEALTH <app>` / [`Frame::HealthReq`]: one windowed classification.
    Health(String),
    /// `HEALTH`: every application's classification.
    Healths,
    /// `METRICS` / [`Frame::MetricsReq`]: the Prometheus text export.
    Metrics,
    /// `STATS` / [`Frame::StatsReq`]: collector-wide counters.
    Stats,
    /// `HEATMAP [b] [w_ms]`: the app × time-bucket beat-rate matrix.
    Heatmap {
        /// Time buckets per application (1–64).
        buckets: usize,
        /// Width of one bucket in milliseconds.
        width_ms: u64,
    },
    /// `TRACE [n]`: the newest `n` journal entries.
    Trace(usize),
    /// `QUIT`: close the connection.
    Quit,
    /// A line that is no well-formed command; carries the `ERR` text.
    Invalid(String),
}

/// Parses one line command. `None` for a blank line, which asks nothing.
pub fn parse_line(line: &str) -> Option<Query> {
    let mut parts = line.split_whitespace();
    let command = parts.next()?;
    // The next token as a number; anything else falls back to the default.
    let number = |parts: &mut std::str::SplitWhitespace<'_>| {
        parts.next().and_then(|n| n.parse::<u64>().ok())
    };
    Some(match command {
        "PING" => Query::Ping,
        "VERSION" => Query::Version,
        "HELP" => Query::Help,
        "LIST" => Query::Apps,
        "GET" => match parts.next() {
            Some(app) => Query::Snapshot(app.to_string()),
            None => Query::Invalid("unknown app".into()),
        },
        "HISTORY" => match parts.next() {
            // A limit beyond u32 is beyond any ring: same as "all retained".
            Some(app) => Query::History(
                app.to_string(),
                number(&mut parts).map_or(0, |n| u32::try_from(n).unwrap_or(0)),
            ),
            None => Query::Invalid("usage: HISTORY <app> [limit]".into()),
        },
        "HEALTH" => match parts.next() {
            Some(app) => Query::Health(app.to_string()),
            None => Query::Healths,
        },
        "METRICS" => Query::Metrics,
        "STATS" => Query::Stats,
        "HEATMAP" => Query::Heatmap {
            buckets: number(&mut parts).map_or(8, |n| n.clamp(1, 64) as usize),
            width_ms: number(&mut parts).filter(|&w| w > 0).unwrap_or(1000),
        },
        "TRACE" => Query::Trace(number(&mut parts).map_or(64, |n| n as usize)),
        "QUIT" => Query::Quit,
        other => Query::Invalid(format!("unknown command {other} (try HELP)")),
    })
}

impl Query {
    /// The query a binary frame asks, or `None` when the frame is not a
    /// query (subscription control, producer traffic, a stray reply).
    pub fn from_frame(frame: Frame) -> Option<Query> {
        Some(match frame {
            Frame::SnapshotReq { app } => Query::Snapshot(app),
            Frame::HistoryReq { app, limit } => Query::History(app, limit),
            Frame::HealthReq { app } => Query::Health(app),
            Frame::ListReq => Query::Apps,
            Frame::StatsReq => Query::Stats,
            Frame::MetricsReq => Query::Metrics,
            _ => return None,
        })
    }
}

/// The typed answer to a [`Query`], before any rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The collector is alive.
    Pong,
    /// The wire-protocol version the collector speaks.
    Version(u8),
    /// The command list.
    Help,
    /// Registered application names, sorted.
    Apps(Vec<String>),
    /// One application's snapshot (`None`: never seen).
    Snapshot(Option<AppSnapshot>),
    /// One application's retained history (`known == false`: never seen).
    History(HistoryChunk),
    /// One application's health (`known == false`: never seen).
    Health(HealthFrame),
    /// Every application's health, sorted by name.
    Healths(Vec<(String, HealthReport)>),
    /// The Prometheus text export.
    Metrics(String),
    /// The collector-wide counters.
    Stats(CollectorStats),
    /// The heat-map matrix: one `(app, rates)` row per application.
    Heatmap {
        /// Time buckets per row.
        buckets: usize,
        /// Width of one bucket in milliseconds.
        width_ms: u64,
        /// Beat rates per application, oldest bucket first.
        rows: Vec<(String, Vec<f64>)>,
    },
    /// Journal entries, oldest first.
    Trace(Vec<JournalEntry>),
    /// The connection closes after this reply.
    Bye,
    /// The question was malformed.
    Err(String),
}

/// Answers one query from the registry. Every query path — line or frame —
/// comes through here, so this is where a query reads the registry, is
/// counted (`queries_total`) and is timed (the `query` stage histogram),
/// exactly once.
pub fn answer(state: &CollectorState, query: Query) -> Reply {
    let telemetry = state.stage_telemetry();
    // VERSION is subscription negotiation, not an observation poll; it must
    // not disturb the "zero requests while pushed" accounting.
    let started = if query == Query::Version {
        None
    } else {
        state.queries_total.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        telemetry.start()
    };
    let reply = match query {
        Query::Ping => Reply::Pong,
        Query::Version => Reply::Version(VERSION),
        Query::Help => Reply::Help,
        Query::Apps => Reply::Apps(state.app_names()),
        Query::Snapshot(app) => Reply::Snapshot(state.snapshot(&app)),
        Query::History(app, limit) => {
            let found = state.history(&app, limit as usize);
            let known = found.is_some();
            let (total, mut samples) = found.unwrap_or_default();
            // Rings are clamped to MAX_HISTORY_SAMPLES at creation, so this
            // is a pure backstop against a future unclamped path.
            if samples.len() > MAX_HISTORY_SAMPLES {
                samples.drain(..samples.len() - MAX_HISTORY_SAMPLES);
            }
            Reply::History(HistoryChunk {
                app,
                known,
                total,
                samples,
            })
        }
        Query::Health(app) => {
            let report = state.health(&app);
            Reply::Health(HealthFrame {
                app,
                known: report.is_some(),
                report: report.unwrap_or_else(HealthReport::no_signal),
            })
        }
        Query::Healths => Reply::Healths(state.healths()),
        Query::Metrics => Reply::Metrics(state.prometheus()),
        Query::Stats => Reply::Stats(state.stats()),
        Query::Heatmap { buckets, width_ms } => Reply::Heatmap {
            buckets,
            width_ms,
            rows: state.heatmap(buckets, Duration::from_millis(width_ms)),
        },
        Query::Trace(limit) => Reply::Trace(telemetry::journal().latest(limit)),
        Query::Quit => Reply::Bye,
        Query::Invalid(why) => Reply::Err(why),
    };
    telemetry.observe(&telemetry.query, started);
    reply
}

/// Serves one line command end to end — parse, answer, render as text into
/// `out`. Returns `false` when the connection should close (`QUIT`).
pub fn serve_line(state: &CollectorState, line: &str, out: &mut Vec<u8>) -> bool {
    let Some(query) = parse_line(line) else {
        return true; // blank line
    };
    let reply = answer(state, query);
    render_text(&reply, out);
    reply != Reply::Bye
}

/// The `HELP` reply: every query-port command, one per line.
const HELP_TEXT: &str = "\
HELP                 this command list
PING                 liveness probe; answers PONG
VERSION              the collector's wire-protocol version (VERSION <n>)
LIST                 application names (APPS <n>, one name per line, END)
GET <app>            one-line snapshot of an application
HISTORY <app> [n]    recent beat samples, newest n (default all retained), END-terminated
HEALTH [app]         windowed health classification; without <app>, all applications, END-terminated
METRICS              Prometheus text export, END-terminated
STATS                one-line collector-wide counters
HEATMAP [b] [w_ms]   app x time-bucket beat-rate matrix from the history rings (default 8 buckets x 1000 ms), END-terminated
TRACE [n]            newest n in-process journal entries (default 64), END-terminated
QUIT                 close the connection
binary               LIST, GET, HISTORY, HEALTH <app>, METRICS and STATS are also wire-protocol query frames (magic HBWT), answered in kind: what RemoteReader speaks; Subscribe opens a push subscription; see docs/WIRE.md";

/// `Some(v)` as `v`, `None` as `na`: an optional field of the line protocol.
struct OrNa<T>(Option<T>);

impl<T: Display> Display for OrNa<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(value) => value.fmt(f),
            None => f.write_str("na"),
        }
    }
}

/// Renders `reply` as the line protocol's text, appended to `out` —
/// the formatter for humans and `nc`.
pub fn render_text(reply: &Reply, out: &mut Vec<u8>) {
    let _ = write_text(reply, out); // writing to a Vec cannot fail
}

fn write_text(reply: &Reply, out: &mut Vec<u8>) -> io::Result<()> {
    match reply {
        Reply::Pong => writeln!(out, "PONG"),
        Reply::Version(version) => writeln!(out, "VERSION {version}"),
        Reply::Help => writeln!(out, "{HELP_TEXT}\nEND"),
        Reply::Apps(names) => {
            writeln!(out, "APPS {}", names.len())?;
            for name in names {
                writeln!(out, "{name}")?;
            }
            writeln!(out, "END")
        }
        Reply::Snapshot(Some(snap)) => writeln!(
            out,
            "APP name={} pid={} total={} local={} rate={} target={} dropped={} last_ns={} \
             window={} connections={} alive={}",
            snap.app,
            snap.pid,
            snap.total_beats,
            snap.local_beats,
            OrNa(snap.rate_bps),
            OrNa(snap.target.map(|(min, max)| format!("{min},{max}"))),
            snap.producer_dropped,
            OrNa(snap.last_timestamp_ns),
            snap.window,
            snap.connections,
            u8::from(snap.alive),
        ),
        Reply::History(chunk) if chunk.known => {
            let (app, total, samples) = (&chunk.app, chunk.total, &chunk.samples);
            writeln!(
                out,
                "HISTORY app={app} total={total} count={}",
                samples.len()
            )?;
            for s in samples {
                writeln!(
                    out,
                    "S seq={} ts={} tag={} interval={} rate={}",
                    s.seq,
                    s.timestamp_ns,
                    s.tag,
                    s.interval_ns,
                    OrNa(s.rate_bps),
                )?;
            }
            writeln!(out, "END")
        }
        Reply::Health(frame) if frame.known => write_health(out, &frame.app, &frame.report),
        Reply::Snapshot(_) | Reply::History(_) | Reply::Health(_) => {
            writeln!(out, "ERR unknown app")
        }
        Reply::Healths(all) => {
            for (app, report) in all {
                write_health(out, app, report)?;
            }
            writeln!(out, "END")
        }
        Reply::Metrics(text) => {
            out.extend_from_slice(text.as_bytes());
            writeln!(out, "END")
        }
        Reply::Stats(stats) => {
            // `io_threads` and `shards` are one value: operators grep both.
            write!(
                out,
                "COLLECTOR apps={} connections={} frames={} errors={} io_threads={} evicted={} \
                 queries={} subs={} events={} events_dropped={} uptime_s={:.3} shards={} \
                 cross_shard={} origins={} origins_up={}",
                stats.apps,
                stats.connections,
                stats.frames,
                stats.protocol_errors,
                stats.io_threads,
                stats.evicted,
                stats.queries,
                stats.subscriptions,
                stats.events,
                stats.events_dropped,
                stats.uptime_s,
                stats.io_threads,
                stats.cross_shard,
                stats.origins,
                stats.origins_up,
            )?;
            if let Some(up) = &stats.upstream {
                write!(
                    out,
                    " upstream_connected={} upstream_forwarded={} upstream_dropped={} \
                     upstream_events={} upstream_reconnects={} upstream_retransmits={}",
                    u8::from(up.connected),
                    up.forwarded_beats,
                    up.dropped_beats,
                    up.forwarded_events,
                    up.reconnects,
                    up.retransmits,
                )?;
            }
            writeln!(out)
        }
        Reply::Heatmap {
            buckets,
            width_ms,
            rows,
        } => {
            writeln!(
                out,
                "HEATMAP apps={} buckets={buckets} width_ms={width_ms}",
                rows.len()
            )?;
            for (app, rates) in rows {
                write!(out, "R app={app} rates=")?;
                for (i, rate) in rates.iter().enumerate() {
                    write!(out, "{}{rate:.3}", if i == 0 { "" } else { "," })?;
                }
                writeln!(out)?;
            }
            writeln!(out, "END")
        }
        Reply::Trace(entries) => {
            writeln!(out, "TRACE count={}", entries.len())?;
            for entry in entries {
                writeln!(
                    out,
                    "J ts_ms={} level={} {}",
                    entry.ts_ms, entry.level, entry.message
                )?;
            }
            writeln!(out, "END")
        }
        Reply::Bye => writeln!(out, "BYE"),
        Reply::Err(why) => writeln!(out, "ERR {why}"),
    }
}

/// One health report as the single-line `HEALTH` response.
fn write_health(out: &mut Vec<u8>, app: &str, report: &HealthReport) -> io::Result<()> {
    let reasons: Vec<&str> = report.reasons.iter().map(|r| r.as_str()).collect();
    writeln!(
        out,
        "HEALTH app={app} status={} reasons={} beats={} rate={} jitter={} \
         missing={} duplicated={} reordered={} silent_ms={}",
        report.status,
        if reasons.is_empty() {
            "none".to_string()
        } else {
            reasons.join(",")
        },
        report.window_beats,
        OrNa(report.window_rate_bps),
        OrNa(report.jitter_cv),
        report.missing,
        report.duplicated,
        report.reordered,
        report.silent_ns / 1_000_000,
    )
}

/// Text bytes per [`Frame::Metrics`] chunk: [`MAX_PAYLOAD`] less the flag.
const METRICS_CHUNK_BYTES: usize = MAX_PAYLOAD - 1;

/// Names per [`Frame::List`] chunk: as many maximal names as always fit one
/// payload beside the chunk's own prefix.
const LIST_CHUNK_NAMES: usize = MAX_PAYLOAD / (2 + MAX_NAME_LEN) - 1;

impl Reply {
    /// Renders the reply as wire frames appended to `out`: the same reply
    /// [`render_text`] formats, in the encoding `RemoteReader` reads. Name
    /// lists and export text beyond one payload are split across frames,
    /// the last one flagged. Returns `false` for a reply that exists only
    /// on the line protocol — no binary query produces one.
    pub fn encode_into(self, out: &mut Vec<u8>) -> bool {
        match self {
            Reply::Snapshot(snapshot) => Frame::Snapshot(snapshot).encode_into(out),
            Reply::History(chunk) => Frame::History(chunk).encode_into(out),
            Reply::Health(frame) => Frame::Health(frame).encode_into(out),
            Reply::Stats(stats) => Frame::Stats(stats).encode_into(out),
            Reply::Apps(mut names) => loop {
                let tail = names.split_off(names.len().min(LIST_CHUNK_NAMES));
                let last = tail.is_empty();
                Frame::List { last, names }.encode_into(out);
                if last {
                    break;
                }
                names = tail;
            },
            Reply::Metrics(mut text) => loop {
                // Like the names above, the common one-chunk export moves
                // into its frame uncopied.
                let tail = text.split_off(text.floor_char_boundary(METRICS_CHUNK_BYTES));
                let last = tail.is_empty();
                Frame::Metrics { last, text }.encode_into(out);
                if last {
                    break;
                }
                text = tail;
            },
            _ => return false,
        }
        true
    }
}

/// Collector-wide counters: one consistent reading, served by the `STATS`
/// query ([`RemoteReader::stats`](crate::RemoteReader::stats)) and
/// rendered into the Prometheus export.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorStats {
    /// Applications currently registered.
    pub apps: u64,
    /// Producer connections accepted since the collector started.
    pub connections: u64,
    /// Frames ingested since start.
    pub frames: u64,
    /// Producer connections dropped for protocol violations.
    pub protocol_errors: u64,
    /// Reactor I/O shards (threads) the collector resolved at startup —
    /// the `io_threads=` and `shards=` tokens of the `STATS` line.
    pub io_threads: u64,
    /// Connections evicted by the idle timer.
    pub evicted: u64,
    /// Observer requests answered (query lines + binary query frames;
    /// subscription control and pushed events not included).
    pub queries: u64,
    /// Push subscriptions currently registered.
    pub subscriptions: u64,
    /// Events enqueued toward subscribers since start (always >= the drop
    /// count below).
    pub events: u64,
    /// Events shed because a subscriber queue was full.
    pub events_dropped: u64,
    /// Collector uptime in seconds.
    pub uptime_s: f64,
    /// Beats ingested on a shard other than the application's home shard —
    /// a debug counter that should stay at zero.
    pub cross_shard: u64,
    /// Federation child links this collector has ever seen.
    pub origins: u64,
    /// Federation child links currently connected.
    pub origins_up: u64,
    /// This collector's own uplink, when it federates upward.
    pub upstream: Option<UplinkStats>,
}

/// The uplink half of [`CollectorStats`] (leaf and mid tiers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UplinkStats {
    /// True while the uplink to the parent is established.
    pub connected: bool,
    /// Beats forwarded to the parent (first transmissions).
    pub forwarded_beats: u64,
    /// Beats shed from the upstream tap (exactly accounted upward).
    pub dropped_beats: u64,
    /// Propagated-subscription events forwarded to the parent.
    pub forwarded_events: u64,
    /// Uplink re-establishments after the first connect.
    pub reconnects: u64,
    /// Rollup events re-sent after a reconnect.
    pub retransmits: u64,
}

/// Escapes a string for use as a Prometheus label value. Registry keys are
/// already sanitized at ingest, so this is a second fence — it keeps the
/// export well-formed even if a future path lets a raw name through.
pub(crate) fn escape_label(value: &str) -> Cow<'_, str> {
    if !value.contains(['\\', '"', '\n']) {
        return Cow::Borrowed(value);
    }
    let mut escaped = String::with_capacity(value.len() + 4);
    for c in value.chars() {
        match c {
            '\\' => escaped.push_str("\\\\"),
            '"' => escaped.push_str("\\\""),
            '\n' => escaped.push_str("\\n"),
            other => escaped.push(other),
        }
    }
    Cow::Owned(escaped)
}

/// The writer under [`CollectorState::prometheus`]: the one output
/// `String`, written in place — a scrape allocates per export, not per
/// line.
struct Exposition(String);

/// The label set of one sample: `(key, value)` pairs, values pre-escaped.
type Labels<'a> = [(&'a str, &'a dyn Display)];

impl Exposition {
    /// Opens a metric family with its `# HELP` and `# TYPE` lines. The type
    /// follows from the name, by the Prometheus rule every series here
    /// keeps: `_total` names a counter, anything else is a gauge. `hb-lint`
    /// reads a `"hb_x", "help"` argument pair as the registration of `hb_x`.
    fn family(&mut self, name: &str, help: &str) {
        let kind = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        let _ = write!(self.0, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
    }

    /// Writes one sample line: `name{key="label",…} value`.
    fn sample(&mut self, name: &str, labels: &Labels<'_>, value: impl Display) {
        self.0.push_str(name);
        let mut open = '{';
        for (key, label) in labels {
            let _ = write!(self.0, "{open}{key}=\"{label}\"");
            open = ',';
        }
        if !labels.is_empty() {
            self.0.push('}');
        }
        let _ = writeln!(self.0, " {value}");
    }

    /// A family of one unlabelled sample.
    fn scalar(&mut self, name: &str, help: &str, value: impl Display) {
        self.family(name, help);
        self.sample(name, &[], value);
    }

    /// A family of one sample per `(label value, sample value)` pair, all
    /// under the label key `label`.
    fn series<L: Display, V: Display>(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (L, V)>,
    ) {
        self.family(name, help);
        for (key, value) in samples {
            self.sample(name, &[(label, &key)], value);
        }
    }
}

impl CollectorState {
    /// One consistent reading of every collector-wide counter, taken whole
    /// for a `STATS` reply or a `/metrics` render. The event pair comes from
    /// [`SubscriptionRegistry::event_counters`](crate::SubscriptionRegistry::event_counters),
    /// so a scrape racing an ingest can never report more drops than
    /// enqueues.
    pub fn stats(&self) -> CollectorStats {
        let (events, events_dropped) = self.subscriptions().event_counters();
        let origins = self.origins();
        CollectorStats {
            apps: self.apps_per_reactor_shard().iter().sum(),
            connections: self.connections_total(),
            frames: self.frames_total(),
            protocol_errors: self.protocol_errors(),
            io_threads: self.io_threads() as u64,
            evicted: self.evicted_total(),
            queries: self.queries_total(),
            subscriptions: self.subscriptions().active() as u64,
            events,
            events_dropped,
            uptime_s: self.started.elapsed().as_secs_f64(),
            cross_shard: self.cross_shard_ingest(),
            origins: origins.len() as u64,
            origins_up: origins.iter().filter(|o| o.connected).count() as u64,
            upstream: self.upstream_stats().map(|up| UplinkStats {
                connected: up.connected(),
                forwarded_beats: up.forwarded_beats(),
                dropped_beats: self.upstream_tap().map_or(0, |tap| tap.dropped_beats()),
                forwarded_events: up.forwarded_events(),
                reconnects: up.reconnects(),
                retransmits: up.retransmits(),
            }),
        }
    }

    /// Renders the registry as Prometheus text-format metrics: per-app
    /// gauges, collector-wide counters, per-pipeline-stage latency
    /// histograms and per-reactor-thread utilization (see
    /// `docs/TELEMETRY.md` for the full series catalogue).
    pub fn prometheus(&self) -> String {
        let mut x = Exposition(String::with_capacity(4096));
        x.family(
            "hb_app_rate_bps",
            "Windowed heartbeat rate, beats per second.",
        );
        x.family(
            "hb_app_beats_total",
            "Global beats ingested for the application.",
        );
        x.family("hb_app_target_min_bps", "Declared target rate floor.");
        x.family("hb_app_target_max_bps", "Declared target rate ceiling.");
        x.family(
            "hb_app_producer_dropped_total",
            "Beats shed producer-side before reaching the collector.",
        );
        x.family(
            "hb_app_alive",
            "1 while the application beat within the staleness window.",
        );
        let rows = self.scrape_rows();
        for (snap, _) in &rows {
            let name = escape_label(&snap.app);
            let app: &Labels<'_> = &[("app", &name)];
            if let Some(rate) = snap.rate_bps {
                x.sample("hb_app_rate_bps", app, rate);
            }
            x.sample("hb_app_beats_total", app, snap.total_beats);
            if let Some((min, max)) = snap.target {
                x.sample("hb_app_target_min_bps", app, min);
                x.sample("hb_app_target_max_bps", app, max);
            }
            x.sample("hb_app_producer_dropped_total", app, snap.producer_dropped);
            x.sample("hb_app_alive", app, u8::from(snap.alive));
        }
        // The stable HealthStatus encoding; higher is better.
        x.series(
            "hb_app_health",
            "Windowed health class: 0 nosignal, 1 stalled, 2 degraded, 3 healthy.",
            "app",
            rows.iter()
                .map(|(snap, health)| (escape_label(&snap.app), health.as_u8())),
        );
        let stats = self.stats();
        x.scalar(
            "hb_collector_connections_total",
            "Producer connections accepted since start.",
            stats.connections,
        );
        x.scalar(
            "hb_collector_frames_total",
            "Frames ingested since start.",
            stats.frames,
        );
        x.scalar(
            "hb_collector_protocol_errors_total",
            "Connections dropped for protocol violations.",
            stats.protocol_errors,
        );
        x.scalar(
            "hb_collector_io_threads",
            "Reactor I/O shards serving all sockets (resolved count).",
            stats.io_threads,
        );
        x.scalar(
            "hb_collector_cross_shard_ingest_total",
            "Ingest calls that ran off the app's home reactor shard (steady state: 0).",
            stats.cross_shard,
        );
        // Per-reactor-shard attribution: sums equal the aggregate counters.
        let shards = self.shard_counters();
        x.series(
            "hb_collector_shard_connections",
            "Producer connections attributed per reactor shard.",
            "shard",
            shards
                .iter()
                .map(|(connections, _)| connections)
                .enumerate(),
        );
        x.series(
            "hb_collector_shard_frames",
            "Frames decoded per reactor shard.",
            "shard",
            shards.iter().map(|(_, frames)| frames).enumerate(),
        );
        // The total is the sum of the same reading, so the per-shard series
        // add up to it even while applications register.
        let shard_apps = self.apps_per_reactor_shard();
        x.series(
            "hb_collector_shard_apps",
            "Applications homed per reactor shard.",
            "shard",
            shard_apps.iter().enumerate(),
        );
        x.scalar(
            "hb_collector_apps",
            "Applications currently registered.",
            shard_apps.iter().sum::<u64>(),
        );
        x.scalar(
            "hb_collector_idle_evicted_total",
            "Connections evicted by the idle timer.",
            stats.evicted,
        );
        x.scalar(
            "hb_collector_queries_total",
            "Observer requests answered.",
            stats.queries,
        );
        x.scalar(
            "hb_collector_subscriptions",
            "Push subscriptions currently registered.",
            stats.subscriptions,
        );
        x.scalar(
            "hb_collector_events_total",
            "Events enqueued toward subscribers.",
            stats.events,
        );
        x.scalar(
            "hb_collector_events_dropped_total",
            "Events shed because a subscriber queue was full.",
            stats.events_dropped,
        );
        x.scalar(
            "hb_collector_uptime_seconds",
            "Seconds since the collector started.",
            format_args!("{:.3}", stats.uptime_s),
        );
        // Leaf side of a federation tree: the uplink's counters.
        if let Some(up) = &stats.upstream {
            x.scalar(
                "hb_collector_upstream_connected",
                "1 while the uplink to the parent collector is established.",
                u8::from(up.connected),
            );
            x.scalar(
                "hb_collector_upstream_forwarded_beats_total",
                "Beats forwarded to the parent (first transmissions).",
                up.forwarded_beats,
            );
            x.scalar(
                "hb_collector_upstream_dropped_beats_total",
                "Beats shed from the upstream tap while the parent was unreachable or slow.",
                up.dropped_beats,
            );
            x.scalar(
                "hb_collector_upstream_forwarded_events_total",
                "Propagated-subscription events forwarded to the parent.",
                up.forwarded_events,
            );
            x.scalar(
                "hb_collector_upstream_reconnects_total",
                "Uplink re-establishments after the first connect.",
                up.reconnects,
            );
            x.scalar(
                "hb_collector_upstream_retransmits_total",
                "Rollup events re-sent after a reconnect.",
                up.retransmits,
            );
        }
        // Uplink admission control: refusals by reason. Rendered always
        // (both labels, even at zero) so dashboards and the chaos tests can
        // rely on the series existing before the first refusal.
        let (rejected_loop, rejected_auth) = self.uplink_rejections();
        x.series(
            "hb_collector_uplink_rejected_total",
            "Child NodeHellos refused, by reason (loop = relay cycle in the announced path, auth = failed challenge).",
            "reason",
            [("loop", rejected_loop), ("auth", rejected_auth)],
        );
        // Parent side: per-child-link counters and per-origin cluster
        // rollups (apps, beats, health class counts).
        let origins = self.origins();
        if !origins.is_empty() {
            type OriginPick = fn(&OriginSnapshot) -> u64;
            let per_link: [(&str, &str, OriginPick); 7] = [
                (
                    "hb_origin_connected",
                    "1 while the child node's relay link is established.",
                    |o| u64::from(o.connected),
                ),
                (
                    "hb_origin_last_applied_seq",
                    "Highest rollup sequence applied from the child (exactly-once watermark).",
                    |o| o.last_applied,
                ),
                (
                    "hb_origin_relayed_beats_total",
                    "Beats absorbed from the child's rollup events.",
                    |o| o.relayed_beats,
                ),
                (
                    "hb_origin_relayed_events_total",
                    "Subscription events forwarded by the child and delivered here.",
                    |o| o.relayed_events,
                ),
                (
                    "hb_origin_duplicate_events_total",
                    "Retransmitted rollup events skipped as already applied.",
                    |o| o.duplicate_events,
                ),
                (
                    "hb_origin_event_stream_duplicates_total",
                    "Cursored subscription events dropped as resume-replay overlaps.",
                    |o| o.event_stream_duplicates,
                ),
                (
                    "hb_origin_event_stream_gaps_total",
                    "Event cursors skipped on the child's streams (replay ring overflow) — accounted loss.",
                    |o| o.event_stream_gaps,
                ),
            ];
            for (name, help, pick) in per_link {
                let per_origin = origins.iter().map(|o| (escape_label(&o.node), pick(o)));
                x.series(name, help, "origin", per_origin);
            }
            x.family(
                "hb_origin_apps",
                "Applications registered under the origin's namespace.",
            );
            x.family(
                "hb_origin_beats_total",
                "Beats absorbed across the origin's applications.",
            );
            x.family(
                "hb_origin_health_apps",
                "Origin apps per health class (cluster health rollup).",
            );
            const CLASSES: [&str; 4] = ["nosignal", "stalled", "degraded", "healthy"];
            for rollup in self.origin_rollups() {
                let node = escape_label(&rollup.node);
                let origin: &Labels<'_> = &[("origin", &node)];
                x.sample("hb_origin_apps", origin, rollup.apps);
                x.sample("hb_origin_beats_total", origin, rollup.beats_total);
                for (class, count) in CLASSES.iter().zip(rollup.health_counts) {
                    let labels: &Labels<'_> = &[("origin", &node), ("status", class)];
                    x.sample("hb_origin_health_apps", labels, count);
                }
            }
        }
        // Pipeline latency histograms (empty until the matching stage has
        // run with telemetry on). Each stage merges its per-reactor-shard
        // snapshots (the merge is saturating and associative, so the
        // collapsed view is exactly what one shared histogram would hold);
        // the delivery-lag histogram is a single instance shared by every
        // shard, rendered once.
        type StagePick = fn(&PipelineTelemetry) -> &LatencyHisto;
        let stages: [(StagePick, &str, &str); 5] = [
            (
                |t| &t.decode,
                "hb_collector_decode_latency_seconds",
                "Incremental frame decode latency per yielded frame.",
            ),
            (
                |t| &t.ingest,
                "hb_collector_ingest_latency_seconds",
                "Registry ingest latency per absorbed batch (shard lock held).",
            ),
            (
                |t| &t.fanout,
                "hb_collector_fanout_latency_seconds",
                "Subscription fan-out latency per batch with watchers (encode + enqueue).",
            ),
            (
                |t| &t.pump,
                "hb_collector_pump_latency_seconds",
                "Observer pump pass latency (silence sweep + queue drain).",
            ),
            (
                |t| &t.query,
                "hb_collector_query_latency_seconds",
                "Query handling latency per request (line commands and binary queries).",
            ),
        ];
        for (pick, name, help) in stages {
            let mut merged = pick(&self.shard_telemetry[0]).snapshot();
            for shard in &self.shard_telemetry[1..] {
                merged.merge(&pick(shard).snapshot());
            }
            merged.render_prometheus(&mut x.0, name, help);
        }
        self.telemetry().delivery.snapshot().render_prometheus(
            &mut x.0,
            "hb_collector_delivery_lag_seconds",
            "Event delivery lag: enqueue to drain into the subscriber's outbound buffer.",
        );
        // Per-reactor-thread utilization: aggregates hide one hot thread;
        // per-thread series do not.
        let threads = self.reactor_threads().snapshot();
        if !threads.is_empty() {
            x.series(
                "hb_reactor_thread_busy_seconds_total",
                "Seconds the I/O thread spent working.",
                "thread",
                threads.iter().map(|t| (t.index, t.busy_ns as f64 / 1e9)),
            );
            x.series(
                "hb_reactor_thread_wait_seconds_total",
                "Seconds the I/O thread spent parked in the poller.",
                "thread",
                threads.iter().map(|t| (t.index, t.wait_ns as f64 / 1e9)),
            );
            x.series(
                "hb_reactor_thread_loops_total",
                "Readiness-loop iterations.",
                "thread",
                threads.iter().map(|t| (t.index, t.loops)),
            );
            x.series(
                "hb_reactor_thread_dispatches_total",
                "Readiness events dispatched to handlers.",
                "thread",
                threads.iter().map(|t| (t.index, t.dispatches)),
            );
            x.series(
                "hb_reactor_thread_wakeups_total",
                "Times another thread woke the I/O thread out of the poller (eventfd wake-ups consumed).",
                "thread",
                threads.iter().map(|t| (t.index, t.wakeups)),
            );
            x.family(
                "hb_reactor_thread_pumps_total",
                "Connection pump calls, by cause: wake (requested after an enqueue) or timer (the timed pass).",
            );
            for t in &threads {
                for (cause, pumps) in [("wake", t.pumps_wake), ("timer", t.pumps_timer)] {
                    let labels: &Labels<'_> = &[("thread", &t.index), ("cause", &cause)];
                    x.sample("hb_reactor_thread_pumps_total", labels, pumps);
                }
            }
            x.family(
                "hb_reactor_thread_utilization",
                "Busy fraction of observed time, 0 to 1.",
            );
            for t in &threads {
                let busy = t.utilization();
                x.sample(
                    "hb_reactor_thread_utilization",
                    &[("thread", &t.index)],
                    format_args!("{busy:.6}"),
                );
            }
        }
        x.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::CollectorConfig;
    use crate::upstream::UpstreamConfig;
    use crate::wire::{EventFrame, EventPayload, WireBeat};
    use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

    fn beats(timestamps: &[u64]) -> Vec<WireBeat> {
        timestamps
            .iter()
            .enumerate()
            .map(|(i, &ts)| WireBeat {
                record: HeartbeatRecord::new(i as u64, ts, Tag::NONE, BeatThreadId(0)),
                scope: BeatScope::Global,
            })
            .collect()
    }

    /// The embedded state the goldens under `tests/golden/` were captured
    /// from at the parent commit: a federation leaf (uplink stats), one
    /// origin (`edge`), two local apps, telemetry on, two reactor threads.
    fn fixture() -> CollectorState {
        let state = CollectorState::new(CollectorConfig {
            io_threads: 2,
            upstream: Some(UpstreamConfig::new("127.0.0.1:9", "leaf")),
            ..CollectorConfig::default()
        });
        state.hello("app-a", 41, 20);
        state.target("app-a", 30.0, 35.0);
        state.ingest_batch(
            "app-a",
            3,
            beats(&[0, 250_000_000, 500_000_000, 750_000_000]),
        );
        state.hello("app-b", 42, 10);
        let (link, _session) = state.link_hello("edge", vec!["edge".into()]);
        state.apply_relay_event(
            &link,
            1,
            EventFrame {
                sub_id: 0,
                sent_at_ns: 0,
                cursor: 0,
                app: "cam".into(),
                payload: EventPayload::Beats {
                    dropped_total: 1,
                    beats: beats(&[0, 500_000_000]),
                },
            },
        );
        state.reactor_threads().register();
        state.reactor_threads().register();
        state
    }

    /// Replaces the value of every `key=value` token with `*`: the fields
    /// that read a clock cannot be pinned.
    fn mask(text: &str, key: &str) -> String {
        let mut masked = String::new();
        let mut rest = text;
        while let Some(at) = rest.find(key) {
            let value_at = at + key.len();
            masked.push_str(&rest[..value_at]);
            masked.push('*');
            let tail = &rest[value_at..];
            rest = &tail[tail.find([' ', '\n']).unwrap_or(tail.len())..];
        }
        masked + rest
    }

    /// Reassembles the reply a sequence of encoded frames carries.
    fn decode_reply(mut bytes: &[u8]) -> Reply {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let (frame, used) = Frame::decode(bytes).expect("every chunk decodes");
            frames.push(frame);
            bytes = &bytes[used..];
        }
        let chunks = frames.len();
        let mut names = Vec::new();
        let mut text = String::new();
        for (i, frame) in frames.into_iter().enumerate() {
            let is_last = i + 1 == chunks;
            match frame {
                Frame::Snapshot(snapshot) => return Reply::Snapshot(snapshot),
                Frame::History(chunk) => return Reply::History(chunk),
                Frame::Health(frame) => return Reply::Health(frame),
                Frame::Stats(stats) => return Reply::Stats(stats),
                Frame::List { last, names: part } => {
                    assert_eq!(last, is_last, "only the final chunk is flagged");
                    names.extend(part);
                    if last {
                        return Reply::Apps(names);
                    }
                }
                Frame::Metrics { last, text: part } => {
                    assert_eq!(last, is_last, "only the final chunk is flagged");
                    text.push_str(&part);
                    if last {
                        return Reply::Metrics(text);
                    }
                }
                other => panic!("not a reply frame: {other:?}"),
            }
        }
        panic!("reply without a final chunk");
    }

    /// Every command of the line protocol renders byte-for-byte what the
    /// parent commit answered on the same state (`HELP`'s last line, which
    /// this change rewrote, excepted), and wherever the reply has a binary
    /// form the frames carry the same typed reply.
    #[test]
    fn text_matches_the_parent_goldens_and_frames_carry_the_same_reply() {
        let golden = include_str!("../tests/golden/query_replies.txt");
        let state = fixture();
        let mut binary_forms = 0;
        for section in golden.split(">>> ").skip(1) {
            let (head, expected) = section.split_once('\n').unwrap();
            let (line, keep_open) = head.rsplit_once('|').unwrap();
            let Some(query) = parse_line(line) else {
                assert_eq!(expected, "", "a blank line asks nothing");
                continue;
            };
            let reply = answer(&state, query);
            let mut out = Vec::new();
            render_text(&reply, &mut out);
            let text = String::from_utf8(out).unwrap();
            let text = mask(&mask(&text, "silent_ms="), "uptime_s=");
            assert_eq!(text, expected, "reply to {line:?}");
            assert_eq!(reply != Reply::Bye, keep_open == "1", "{line:?}");

            let mut bytes = Vec::new();
            if reply.clone().encode_into(&mut bytes) {
                binary_forms += 1;
                assert_eq!(decode_reply(&bytes), reply, "frames for {line:?}");
            } else {
                assert!(bytes.is_empty(), "{line:?} has no binary form");
            }
        }
        assert_eq!(
            binary_forms, 11,
            "GET x4, HEALTH <app> x2, HISTORY x3, LIST, STATS"
        );
    }

    /// The export is what the parent rendered for the same state: the
    /// ordered `# HELP`/`# TYPE` lines and every sample line up to its
    /// value. Histogram bucket lines are left out — which buckets exist
    /// depends on how long the fixture's own ingest took.
    #[test]
    fn prometheus_export_keeps_the_parent_shape() {
        let golden = include_str!("../tests/golden/prometheus_shape.txt");
        let export = fixture().prometheus();
        let shape: Vec<&str> = export
            .lines()
            .filter(|line| !line.contains("_bucket{"))
            .map(|line| match line.rsplit_once(' ') {
                Some((prefix, _value)) if !line.starts_with('#') => prefix,
                _ => line,
            })
            .collect();
        assert_eq!(shape, golden.lines().collect::<Vec<_>>());
        // Values, where no clock is involved.
        for line in [
            "hb_app_rate_bps{app=\"app-a\"} 4",
            "hb_app_target_max_bps{app=\"app-a\"} 35",
            "hb_app_health{app=\"edge/cam\"} 3",
            "hb_collector_shard_apps{shard=\"1\"} 2",
            "hb_origin_health_apps{origin=\"edge\",status=\"healthy\"} 1",
            "hb_reactor_thread_pumps_total{thread=\"1\",cause=\"timer\"} 0",
            "hb_reactor_thread_utilization{thread=\"0\"} 0.000000",
        ] {
            assert!(export.lines().any(|l| l == line), "missing {line:?}");
        }
    }

    #[test]
    fn oversize_replies_are_chunked_not_truncated() {
        // 'µ' is two bytes and the chunk budget is odd: a cut falls inside one.
        let text = "µ".repeat(METRICS_CHUNK_BYTES + 7);
        let mut bytes = Vec::new();
        assert!(Reply::Metrics(text.clone()).encode_into(&mut bytes));
        assert!(bytes.len() > 2 * MAX_PAYLOAD, "three frames' worth");
        assert_eq!(decode_reply(&bytes), Reply::Metrics(text));

        let names: Vec<String> = (0..5000).map(|i| format!("{i:0>250}")).collect();
        let mut bytes = Vec::new();
        assert!(Reply::Apps(names.clone()).encode_into(&mut bytes));
        assert!(bytes.len() > MAX_PAYLOAD);
        assert_eq!(decode_reply(&bytes), Reply::Apps(names));

        // Empty replies still end with a flagged frame.
        for reply in [Reply::Apps(Vec::new()), Reply::Metrics(String::new())] {
            let mut bytes = Vec::new();
            assert!(reply.clone().encode_into(&mut bytes));
            assert_eq!(decode_reply(&bytes), reply);
        }
    }

    #[test]
    fn line_only_replies_have_no_frames() {
        let state = fixture();
        for line in [
            "PING", "VERSION", "HELP", "HEALTH", "HEATMAP", "TRACE", "QUIT", "WAT",
        ] {
            let reply = answer(&state, parse_line(line).unwrap());
            let mut bytes = Vec::new();
            assert!(!reply.encode_into(&mut bytes), "{line}");
            assert!(bytes.is_empty(), "{line}");
        }
    }
}
