//! The heartbeat collector daemon: accepts many concurrent producer
//! connections, maintains a sharded per-application registry of server-side
//! rates and goals, and serves observers over a query port — answering each
//! question once through the query plane ([`crate::query`]), which renders
//! the typed reply as binary frames for [`RemoteReader`](crate::RemoteReader)
//! or as a line protocol (Prometheus-style text export included) for humans.
//!
//! The collector is the network realization of the paper's "external
//! observer": applications keep calling `HB_heartbeat` as always, a
//! [`TcpBackend`](crate::TcpBackend) mirrors the stream here, and anything —
//! a cluster scheduler, a dashboard, a [`RemoteReader`](crate::RemoteReader)
//! driving a control loop — reads progress and goals without touching the
//! producing process.
//!
//! Serving is fully event-driven: a [`Reactor`] multiplexes every producer
//! and observer socket over N independent I/O shards
//! ([`CollectorConfig::io_threads`], default = available cores), each
//! owning its own epoll instance, timer wheel and connection table, so
//! thousands of concurrent connections cost file descriptors and
//! per-connection state — not OS threads. A producer connection migrates to
//! its application's home shard at hello time (the shard its registry
//! partition maps to), so steady-state ingest runs entirely on one thread
//! with no cross-shard locks — a debug counter
//! ([`CollectorState::cross_shard_ingest`]) pins that invariant in the
//! soak tests. Producer bytes run through an incremental
//! [`FrameDecoder`] whose beat batches are yielded as borrowing
//! [`BeatsView`](crate::wire::BeatsView)s — validated in place in the
//! receive buffer, streamed into the registry through an iterator, zero
//! per-frame allocation — and absorbed under a single shard lock resolved
//! once per connection (an [`AppHandle`] cached at hello time), so observer
//! queries always see per-application counts at batch granularity. The
//! collector answers every hello with a [`Frame::HelloAck`] — the handshake
//! producers require — and refuses frames of any other wire version.
//!
//! Beyond live aggregates, every ingested global beat is also sampled into
//! a bounded per-application [`HistoryRing`] (preallocated; zero allocation
//! on the hot path), which feeds the windowed anomaly detector of
//! [`crate::health`]: observers can ask not just "how fast is this app now"
//! but "was it `healthy | degraded | stalled` over the last window" — via
//! the `HISTORY`/`HEALTH` queries or the `hb_app_health` Prometheus gauge.
//!
//! Observers need not poll at all: a [`Frame::Subscribe`] on the query
//! port opens a **push subscription** (application glob, interest mask,
//! minimum update interval). Ingested batches fan out through the
//! [`SubscriptionRegistry`] to per-subscriber bounded queues (drop-oldest
//! with `events_dropped` accounting) that the reactor's pump pass drains
//! into each connection's outbound buffer; health transitions are assessed
//! at ingest — and by a silence sweep — so only *changes* travel. The
//! zero-subscriber ingest path pays one atomic load. See
//! `docs/OBSERVERS.md`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use heartbeats::stats::OnlineStats;
use heartbeats::{BeatScope, MovingRate};

use heartbeats::observe::Interest;

use crate::frame::{FrameDecoder, FrameEvent};
use crate::health::{self, HealthConfig, HealthReport, HistoryRing, HistorySample};
use crate::query::{self, Query};
use crate::reactor::{
    Handler, ListenerSpec, OutBuf, PumpCause, PumpHandle, Reactor, ReactorConfig,
};
use crate::subscribe::{LocalSubscription, SubEntry, SubscriberQueue, SubscriptionRegistry};
use crate::telemetry::{Level, PipelineTelemetry, ReactorThreads};
use crate::upstream::{UpstreamConfig, UpstreamLink, UpstreamRelay, UpstreamStats, UpstreamTap};
use crate::wire::{
    EventFrame, EventPayload, Frame, SubStatus, SubscribeReq, WireBeat, MAX_HISTORY_SAMPLES,
    MAX_NAME_LEN, VERSION,
};

/// Tuning knobs for a [`Collector`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Number of registry shards; connections for different applications
    /// hash to different shards so they never contend.
    pub shards: usize,
    /// An application whose last beat is older than this is reported as
    /// not alive in snapshots and metrics.
    pub stale_after: Duration,
    /// Cap on the server-side rate window (guards against absurd hellos).
    pub max_window: usize,
    /// Number of reactor I/O shards serving all producer and observer
    /// sockets — each shard is one thread owning its own epoll instance,
    /// timer wheel and connection table. `0` means **auto**: resolve to
    /// `std::thread::available_parallelism()` at startup (the `--io-threads
    /// auto` flag). The resolved count is reported in `STATS`
    /// (`io_threads=`/`shards=`) and the `hb_collector_io_threads` gauge.
    pub io_threads: usize,
    /// Connections (producer or observer) idle longer than this are
    /// evicted; `Duration::ZERO` disables eviction.
    pub idle_timeout: Duration,
    /// Samples retained per application in its [`HistoryRing`]
    /// (preallocated at registration; `0` disables history and health
    /// windowing entirely). Clamped to [`MAX_HISTORY_SAMPLES`] so a full
    /// ring always fits a single [`Frame::History`] reply — "all retained"
    /// can then never be silently truncated on the wire.
    pub history_capacity: usize,
    /// Windowed anomaly detector tuning (health window, jitter threshold,
    /// tag-as-sequence checks).
    pub health: HealthConfig,
    /// Events buffered per subscriber connection before the oldest is shed
    /// (drop-oldest, counted in `events_dropped`). A slow observer loses
    /// history; it never stalls the collector.
    pub sub_queue_capacity: usize,
    /// Record pipeline latency histograms, delivery lag and per-reactor-
    /// thread utilization. When `false` every instrumented stage costs one
    /// relaxed atomic load and nothing else (pinned by the `telemetry`
    /// bench); the histogram/thread series then export empty.
    pub telemetry: bool,
    /// When set, this collector also acts as a **federation leaf**: an
    /// uplink connection re-exports everything it ingests to the configured
    /// parent collector, namespaced as `node/app` (see `docs/FEDERATION.md`
    /// and the `hb-collector --upstream/--node-name` flags).
    pub upstream: Option<UpstreamConfig>,
    /// Shared cluster secret for uplink authentication (the
    /// `--cluster-secret` flag). When set, every child NodeHello is
    /// challenged with a fresh nonce and accepted only with the matching
    /// keyed-HMAC answer; failures count in
    /// `hb_collector_uplink_rejected_total{reason="auth"}`. `None`
    /// disables the challenge (open cluster, the pre-hardening behavior).
    pub cluster_secret: Option<String>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            shards: 16,
            stale_after: Duration::from_secs(5),
            max_window: 1024,
            io_threads: 0,
            idle_timeout: Duration::from_secs(60),
            history_capacity: 1024,
            health: HealthConfig::default(),
            sub_queue_capacity: 1024,
            telemetry: true,
            upstream: None,
            cluster_secret: None,
        }
    }
}

/// Per-application state maintained server-side.
#[derive(Debug)]
struct AppEntry {
    pid: u32,
    default_window: u32,
    window: MovingRate,
    intervals: OnlineStats,
    last_timestamp_ns: Option<u64>,
    total_beats: u64,
    local_beats: u64,
    producer_dropped: u64,
    target: Option<(f64, f64)>,
    connections: u32,
    last_seen: Instant,
    /// Bounded ring of recent beats, preallocated here so the ingest hot
    /// path never allocates.
    history: HistoryRing,
    /// When the last *global beat* arrived (receiver clock) — unlike
    /// `last_seen`, hellos and target changes do not reset it, so stall
    /// detection cannot be masked by reconnects.
    last_beat_at: Option<Instant>,
}

impl AppEntry {
    fn new(pid: u32, default_window: u32, config: &CollectorConfig) -> Self {
        AppEntry {
            pid,
            default_window,
            window: MovingRate::new((default_window as usize).clamp(2, config.max_window)),
            intervals: OnlineStats::new(),
            last_timestamp_ns: None,
            total_beats: 0,
            local_beats: 0,
            producer_dropped: 0,
            target: None,
            connections: 0,
            last_seen: Instant::now(),
            // The clamp keeps every possible "all retained" reply within
            // one History frame (see CollectorConfig::history_capacity).
            history: HistoryRing::new(config.history_capacity.min(MAX_HISTORY_SAMPLES)),
            last_beat_at: None,
        }
    }

    /// Runs the windowed anomaly detector over this entry's recent history.
    fn health(&self, config: &HealthConfig) -> HealthReport {
        let window_ns = config.window.as_nanos().min(u64::MAX as u128) as u64;
        let window = self.history.window_from_newest(window_ns);
        let silent_for = match self.last_beat_at {
            Some(at) => at.elapsed(),
            // Beats may have been counted with history disabled; treat the
            // missing arrival time as total silence.
            None => Duration::MAX,
        };
        health::assess(
            &window,
            self.total_beats,
            silent_for,
            self.target,
            config,
        )
    }
}

/// A point-in-time view of one application, as served to observers.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSnapshot {
    /// Application name.
    pub app: String,
    /// Producer process id from the hello frame.
    pub pid: u32,
    /// Window (beats) used for `rate_bps`.
    pub window: u32,
    /// Global beats received so far.
    pub total_beats: u64,
    /// Local (per-thread) beats received so far.
    pub local_beats: u64,
    /// Server-side windowed heart rate, if at least two beats arrived.
    pub rate_bps: Option<f64>,
    /// Mean inter-beat interval in nanoseconds over the whole stream.
    pub mean_interval_ns: Option<f64>,
    /// The application's declared target range, if any.
    pub target: Option<(f64, f64)>,
    /// Beats the producer shed before they reached the collector.
    pub producer_dropped: u64,
    /// Timestamp (producer clock, ns) of the newest received beat.
    pub last_timestamp_ns: Option<u64>,
    /// Live producer connections for this application.
    pub connections: u32,
    /// False once no beat has arrived within the staleness threshold.
    pub alive: bool,
}

/// An event decided under the shard lock whose expensive parts (the batch
/// copy) are deferred until after it drops.
enum PendingEvent {
    /// Fully built payload (snapshots, health transitions — scalar only).
    Ready(EventPayload),
    /// A raw-beats event; the batch is attached outside the lock.
    Beats {
        /// The producer's cumulative drop counter at this batch.
        dropped_total: u64,
    },
}

/// A resolved registry address: sanitized entry key plus shard index,
/// computed once (at hello time on the network path) so per-batch ingest
/// re-runs neither the name sanitizer nor the shard hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppHandle {
    shard: usize,
    key: String,
}

impl AppHandle {
    /// The sanitized registry key the handle resolves to.
    pub fn app(&self) -> &str {
        &self.key
    }
}

/// Per-reactor-shard ingest attribution, feeding the
/// `hb_collector_shard_*` Prometheus gauges. Their sums always equal the
/// aggregate counters (pinned by tests): every producer connection and
/// every decoded frame is attributed to exactly one shard.
#[derive(Debug, Default)]
struct ShardCounters {
    connections: AtomicU64,
    frames: AtomicU64,
}

/// Shared collector state: the sharded application registry plus
/// collector-wide counters.
#[derive(Debug)]
pub struct CollectorState {
    shards: Vec<Mutex<HashMap<String, AppEntry>>>,
    config: CollectorConfig,
    pub(crate) started: Instant,
    /// Resolved reactor shard count ([`CollectorConfig::io_threads`], with
    /// `0` resolved to the available parallelism). An app whose registry
    /// partition is `p` is served by reactor shard `p % reactor_shards`.
    reactor_shards: usize,
    connections_total: AtomicU64,
    frames_total: AtomicU64,
    /// Beats accounted for by ingest — delivered beats plus newly reported
    /// producer-side drops. One relaxed add per batch; benches and tests
    /// spin on this instead of materializing full snapshots.
    beats_accounted: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    /// Ingest calls that executed on a reactor shard other than the app's
    /// home shard. Hello-time connection migration keeps steady state at
    /// zero; the soak test asserts it (debug counter, relaxed).
    cross_shard_ingest: AtomicU64,
    /// Per-reactor-shard connection/frame attribution.
    shard_counters: Vec<ShardCounters>,
    /// Observer requests answered (query lines + binary query frames).
    /// Subscription control frames and pushed events are *not* requests —
    /// the push plane exists precisely so this counter can stay flat.
    /// Bumped by [`crate::query::answer`] alone.
    pub(crate) queries_total: AtomicU64,
    /// Shared with the reactor's timer wheel, which bumps it on eviction.
    evicted_total: Arc<AtomicU64>,
    /// Push-subscription registry and fan-out queues.
    subs: Arc<SubscriptionRegistry>,
    /// Per-stage latency histograms (decode, ingest, fan-out, pump, query,
    /// delivery lag). This is shard 0's instance — kept as a named field so
    /// [`telemetry()`](Self::telemetry) stays the stable handle embedders
    /// and benches use; non-reactor threads record here too.
    telemetry: Arc<PipelineTelemetry>,
    /// One [`PipelineTelemetry`] per reactor shard (index 0 **is** the
    /// `telemetry` field above). Stages record into their own shard's
    /// instance contention-free; renders merge the snapshots
    /// ([`crate::telemetry::HistoSnapshot::merge`] is associative). All
    /// instances share one delivery-lag histogram.
    pub(crate) shard_telemetry: Vec<Arc<PipelineTelemetry>>,
    /// Per-reactor-thread utilization counters, registered by the reactor
    /// at spawn when telemetry is on (empty for embedded registries).
    reactor_threads: Arc<ReactorThreads>,
    /// Present when this collector federates upward: the bounded capture
    /// queue every ingested batch is mirrored into (see [`UpstreamTap`]).
    upstream_tap: Option<Arc<UpstreamTap>>,
    /// Uplink counters shared with the uplink's handler (leaf side).
    upstream_stats: Option<Arc<UpstreamStats>>,
    /// Parent side: one persistent [`UpstreamLink`] per child node name,
    /// surviving that child's reconnects so `last_applied` sequences keep
    /// retransmissions exactly-once.
    links: Mutex<HashMap<String, Arc<UpstreamLink>>>,
    /// Bumped whenever this collector's downstream path changes (a child
    /// connects or announces a new path). The uplink watches it and
    /// reconnects upward to re-announce the wider path, so loop detection
    /// stays correct as the tree assembles in any order.
    path_epoch: AtomicU64,
    /// Uplinks refused because the child's announced path contained this
    /// collector's own node name (a relay cycle).
    uplink_rejected_loop: AtomicU64,
    /// Uplinks refused because the challenge went unanswered or the
    /// keyed-HMAC answer did not verify.
    uplink_rejected_auth: AtomicU64,
}

impl CollectorState {
    /// Creates a standalone registry with no sockets attached — the same
    /// aggregation the daemon runs, usable embedded in another server, in
    /// tests, and in benchmarks ([`Collector`] wires one to its reactor).
    pub fn new(config: CollectorConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        let reactor_shards = Self::resolve_io_threads(config.io_threads);
        let telemetry = Arc::new(PipelineTelemetry::new(config.telemetry));
        let shard_telemetry: Vec<Arc<PipelineTelemetry>> = std::iter::once(Arc::clone(&telemetry))
            .chain((1..reactor_shards).map(|_| {
                Arc::new(PipelineTelemetry::with_delivery(
                    config.telemetry,
                    Arc::clone(&telemetry.delivery),
                ))
            }))
            .collect();
        let shard_counters = (0..reactor_shards).map(|_| ShardCounters::default()).collect();
        let upstream_tap = config
            .upstream
            .as_ref()
            .map(|up| Arc::new(UpstreamTap::new(up.tap_capacity)));
        let upstream_stats = config
            .upstream
            .as_ref()
            .map(|_| Arc::new(UpstreamStats::default()));
        CollectorState {
            shards,
            config,
            started: Instant::now(),
            reactor_shards,
            connections_total: AtomicU64::new(0),
            frames_total: AtomicU64::new(0),
            beats_accounted: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            cross_shard_ingest: AtomicU64::new(0),
            shard_counters,
            queries_total: AtomicU64::new(0),
            evicted_total: Arc::new(AtomicU64::new(0)),
            subs: Arc::new(SubscriptionRegistry::new()),
            telemetry,
            shard_telemetry,
            reactor_threads: Arc::new(ReactorThreads::new()),
            upstream_tap,
            upstream_stats,
            links: Mutex::new(HashMap::new()),
            path_epoch: AtomicU64::new(0),
            uplink_rejected_loop: AtomicU64::new(0),
            uplink_rejected_auth: AtomicU64::new(0),
        }
    }

    /// Resolves a configured `io_threads` value: `0` means auto — the
    /// machine's available parallelism, i.e. one reactor shard per core.
    fn resolve_io_threads(requested: usize) -> usize {
        if requested == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            requested
        }
    }

    /// The pipeline latency histograms (and their runtime enable switch).
    /// This is reactor shard 0's instance — the one non-reactor threads
    /// (embedders, tests, benches) record into; renders merge every shard.
    pub fn telemetry(&self) -> &Arc<PipelineTelemetry> {
        &self.telemetry
    }

    /// The telemetry instance for the reactor shard the calling thread
    /// serves (instance 0 off reactor threads) — stages record into it
    /// without cross-shard histogram contention.
    pub(crate) fn stage_telemetry(&self) -> &PipelineTelemetry {
        let shard = crate::reactor::current_shard().unwrap_or(0);
        &self.shard_telemetry[shard % self.shard_telemetry.len()]
    }

    /// The reactor shard the calling thread serves, clamped into this
    /// state's shard range (0 off reactor threads).
    fn calling_shard(&self) -> usize {
        crate::reactor::current_shard().unwrap_or(0) % self.shard_counters.len()
    }

    /// The reactor shard that serves `handle`'s application: its registry
    /// partition folded onto the reactor shard count. Producer connections
    /// migrate here after their hello.
    pub fn home_reactor_shard(&self, handle: &AppHandle) -> usize {
        handle.shard % self.reactor_shards
    }

    /// Ingest calls that ran on a reactor shard other than the app's home
    /// shard. Hello-time migration keeps steady state at zero — the soak
    /// test pins it.
    pub fn cross_shard_ingest(&self) -> u64 {
        self.cross_shard_ingest.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Per-reactor-shard `(connections, frames)` attribution, indexed by
    /// shard. Sums equal `connections_total()` / `frames_total()` once all
    /// accepted connections have been served (pinned by tests).
    pub fn shard_counters(&self) -> Vec<(u64, u64)> {
        self.shard_counters
            .iter()
            .map(|c| {
                (
                    c.connections.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                    c.frames.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                )
            })
            .collect()
    }

    /// Attributes one decoded producer frame to the calling reactor shard
    /// alongside the aggregate count, keeping the per-shard gauge sums
    /// exactly equal to `frames_total`.
    fn count_frame(&self) {
        self.frames_total.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        self.shard_counters[self.calling_shard()]
            .frames
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Attributes one producer connection to the calling reactor shard,
    /// exactly once per connection (`counted` lives in the handler): on its
    /// first `on_data` when the connection is served, or at `on_close` for
    /// connections that never produced bytes. Keeps the per-shard sums
    /// exactly equal to `connections_total`.
    fn count_connection_once(&self, counted: &mut bool) {
        if !*counted {
            *counted = true;
            self.shard_counters[self.calling_shard()]
                .connections
                .fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
    }

    /// Per-reactor-thread utilization counters. Empty unless this state
    /// serves a [`Collector`] built with telemetry on.
    pub fn reactor_threads(&self) -> &Arc<ReactorThreads> {
        &self.reactor_threads
    }

    fn shard_index(&self, app: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        app.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn shard(&self, app: &str) -> &Mutex<HashMap<String, AppEntry>> {
        &self.shards[self.shard_index(app)]
    }

    /// Resolves the registry address of `app` — name sanitation plus shard
    /// selection — once, so a connection can ingest every subsequent batch
    /// through [`ingest_batch_with`](Self::ingest_batch_with) without
    /// re-running either.
    pub fn handle(&self, app: &str) -> AppHandle {
        let key = Self::registry_key(app).into_owned();
        let shard = self.shard_index(&key);
        AppHandle { shard, key }
    }

    /// Maps a caller-supplied name onto a valid registry key. Network input
    /// is already validated by the frame decoder (the common case, kept
    /// allocation-free); the public embedding API goes through the same
    /// sanitizer [`TcpBackend`](crate::TcpBackend) uses, so a hostile name
    /// can never corrupt Prometheus labels or single-line responses.
    fn registry_key(app: &str) -> std::borrow::Cow<'_, str> {
        if crate::wire::valid_app_name(app) {
            std::borrow::Cow::Borrowed(app)
        } else {
            std::borrow::Cow::Owned(crate::wire::sanitize_app_name(app))
        }
    }

    /// Registers a producer connection for `app` (the
    /// [`Frame::Hello`] path): records identity, sizes the server-side
    /// rate window, and bumps the connection count. Names that violate the
    /// wire rules are sanitized the way
    /// [`sanitize_app_name`](crate::wire::sanitize_app_name) does. Returns
    /// the resolved [`AppHandle`] so the connection's subsequent batches
    /// skip sanitation and shard hashing.
    pub fn hello(&self, app: &str, pid: u32, default_window: u32) -> AppHandle {
        let handle = self.handle(app);
        let mut shard = self.shards[handle.shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let entry = shard
            .entry(handle.key.clone())
            .or_insert_with(|| AppEntry::new(pid, default_window, &self.config));
        entry.pid = pid;
        entry.default_window = default_window;
        entry.connections += 1;
        entry.last_seen = Instant::now();
        drop(shard);
        handle
    }

    fn goodbye(&self, app: &str) {
        let mut shard = self.shard(app).lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = shard.get_mut(app) {
            entry.connections = entry.connections.saturating_sub(1);
        }
    }

    /// Absorbs one decoded beat batch for `app` under a single shard lock
    /// (the [`Frame::Beats`] path): rates, interval statistics, totals and
    /// the history ring all advance atomically with respect to queries.
    /// Accepts any record iterator — a `Vec`, a slice, or a borrowing
    /// [`BeatsView`](crate::wire::BeatsView) straight off the receive
    /// buffer — so the caller never has to materialize the batch. Names
    /// that violate the wire rules are sanitized the way
    /// [`sanitize_app_name`](crate::wire::sanitize_app_name) does.
    pub fn ingest_batch<I>(&self, app: &str, dropped_total: u64, beats: I)
    where
        I: IntoIterator<Item = WireBeat>,
    {
        let key = Self::registry_key(app);
        let shard = self.shard_index(&key);
        self.ingest_resolved(shard, &key, dropped_total, beats);
    }

    /// [`ingest_batch`](Self::ingest_batch) through a pre-resolved
    /// [`AppHandle`]: the per-connection hot path, skipping name sanitation
    /// and shard hashing entirely.
    pub fn ingest_batch_with<I>(&self, handle: &AppHandle, dropped_total: u64, beats: I)
    where
        I: IntoIterator<Item = WireBeat>,
    {
        self.ingest_resolved(handle.shard, &handle.key, dropped_total, beats);
    }

    /// The shared ingest body behind both public entry points. When this
    /// collector federates upward, the batch is also mirrored into the
    /// [`UpstreamTap`] *after* the registry absorbed it — capture is one
    /// bounded-queue push and never blocks ingest. Without an upstream the
    /// wrapper is a single `Option` check and the iterator streams through
    /// unmaterialized.
    fn ingest_resolved<I>(&self, shard_index: usize, key: &str, dropped_total: u64, beats: I)
    where
        I: IntoIterator<Item = WireBeat>,
    {
        if let Some(tap) = &self.upstream_tap {
            let beats: Vec<WireBeat> = beats.into_iter().collect();
            self.ingest_resolved_inner(shard_index, key, dropped_total, beats.iter().copied());
            tap.capture(key, dropped_total, beats);
        } else {
            self.ingest_resolved_inner(shard_index, key, dropped_total, beats);
        }
    }

    /// [`ingest_resolved`](Self::ingest_resolved) minus the upstream tap.
    fn ingest_resolved_inner<I>(&self, shard_index: usize, key: &str, dropped_total: u64, beats: I)
    where
        I: IntoIterator<Item = WireBeat>,
    {
        // Debug invariant: on a reactor thread, ingest should only ever run
        // on the app's home shard (hello-time migration put the connection
        // there). One TLS read when off the home path; soak tests pin zero.
        if let Some(current) = crate::reactor::current_shard() {
            if current != shard_index % self.reactor_shards {
                self.cross_shard_ingest.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            }
        }
        let telemetry = self.stage_telemetry();
        let watchers = self.subs.matching(key);
        if watchers.is_empty() {
            // hb-lint: hot-path — the steady-state ingest loop; the
            // counting-allocator test (tests/ingest_alloc.rs) pins this
            // branch to zero allocations once an app is registered.
            //
            // The common, zero-subscriber path: absorb straight off the
            // iterator with no materialization. get_mut first: the common
            // case (entry already exists) costs one lookup and zero
            // allocation; only an app's first-ever batch pays the entry()
            // insert with its owned key.
            let started = telemetry.start();
            let mut shard = self.shards[shard_index]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = shard.get_mut(key) {
                let accounted = Self::absorb(entry, dropped_total, beats);
                drop(shard);
                self.beats_accounted.fetch_add(accounted, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                telemetry.observe(&telemetry.ingest, started);
                return;
            }
            let config = &self.config;
            let entry = shard
                .entry(key.to_string()) // hb-lint: allow(alloc): first-ever batch for a new app; one-time registration, off the steady-state path
                .or_insert_with(|| AppEntry::new(0, heartbeats::DEFAULT_WINDOW as u32, config));
            let accounted = Self::absorb(entry, dropped_total, beats);
            drop(shard);
            self.beats_accounted.fetch_add(accounted, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            telemetry.observe(&telemetry.ingest, started);
            return;
            // hb-lint: end-hot-path
        }
        // Subscribed path. The batch is materialized only when some
        // watcher actually wants the records; snapshot/health-only
        // subscriptions (the alerting case) keep the zero-copy absorb —
        // their events read entry scalars, never the records.
        let wants_beats = watchers
            .iter()
            .any(|watcher| watcher.wants(Interest::BEATS.bits()));
        let mut pending = Vec::new();
        if !wants_beats {
            let mut mark = telemetry.start();
            {
                let mut shard = self.shards[shard_index]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                let config = &self.config;
                let entry = match shard.get_mut(key) {
                    Some(entry) => entry,
                    None => shard.entry(key.to_string()).or_insert_with(|| {
                        AppEntry::new(0, heartbeats::DEFAULT_WINDOW as u32, config)
                    }),
                };
                let mut count = 0usize;
                let accounted = Self::absorb(
                    entry,
                    dropped_total,
                    beats.into_iter().inspect(|_| count += 1),
                );
                self.beats_accounted.fetch_add(accounted, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                self.collect_ingest_events(key, entry, count, &watchers, &mut pending);
            }
            // Lap the clock at the lock boundary: one read closes the
            // ingest span and opens the fan-out span.
            telemetry.lap(&telemetry.ingest, &mut mark);
            if pending.is_empty() {
                return;
            }
            for (watcher, event) in pending {
                if let PendingEvent::Ready(payload) = event {
                    self.journal_health(key, &payload);
                    self.subs.deliver(&watcher, key, payload);
                }
                // PendingEvent::Beats is unreachable: no watcher asked.
            }
            telemetry.observe(&telemetry.fanout, mark);
            return;
        }
        let beats: Vec<WireBeat> = beats.into_iter().collect();
        let mut mark = telemetry.start();
        {
            let mut shard = self.shards[shard_index]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let config = &self.config;
            let entry = match shard.get_mut(key) {
                Some(entry) => entry,
                None => shard
                    .entry(key.to_string())
                    .or_insert_with(|| AppEntry::new(0, heartbeats::DEFAULT_WINDOW as u32, config)),
            };
            let accounted = Self::absorb(entry, dropped_total, beats.iter().copied());
            self.beats_accounted.fetch_add(accounted, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            self.collect_ingest_events(key, entry, beats.len(), &watchers, &mut pending);
        }
        telemetry.lap(&telemetry.ingest, &mut mark);
        // Encoding and enqueueing all happen outside the shard lock:
        // fan-out work must not stall other producers of the same shard.
        if pending.is_empty() {
            return;
        }
        // Beat watchers fan out together through the encode-once path: the
        // Event frame is serialized once per distinct sub_id into a shared
        // Arc<[u8]> that every matching queue references — no
        // per-subscriber batch clone or re-serialization. All Beats events
        // of one batch share the drop counter read under the shard lock.
        let mut beat_watchers: Vec<Arc<SubEntry>> = Vec::new();
        let mut beats_dropped_total = 0;
        for (watcher, event) in pending {
            match event {
                PendingEvent::Ready(payload) => {
                    self.journal_health(key, &payload);
                    self.subs.deliver(&watcher, key, payload);
                }
                PendingEvent::Beats { dropped_total } => {
                    beats_dropped_total = dropped_total;
                    beat_watchers.push(watcher);
                }
            }
        }
        if !beat_watchers.is_empty() {
            self.subs
                .deliver_beats(&beat_watchers, key, beats_dropped_total, &beats);
        }
        telemetry.observe(&telemetry.fanout, mark);
    }

    /// Journals a health transition about to be delivered. Transitions are
    /// rare and high-signal — exactly what the `TRACE` window is for.
    fn journal_health(&self, app: &str, payload: &EventPayload) {
        if let EventPayload::HealthTransition { from, to, .. } = payload {
            crate::log!(Level::Info, "health transition app={app} {from} -> {to}");
        }
    }

    /// Decides which events one absorbed batch owes each watching
    /// subscription. Runs under the shard lock (it reads the live entry),
    /// so it only *decides and snapshots scalars* — batch copies, encoding
    /// and enqueueing happen after the lock drops.
    fn collect_ingest_events(
        &self,
        app: &str,
        entry: &AppEntry,
        batch_len: usize,
        watchers: &[Arc<SubEntry>],
        pending: &mut Vec<(Arc<SubEntry>, PendingEvent)>,
    ) {
        if batch_len == 0 {
            // Empty batches only refresh the producer drop counter; there
            // is no progress to announce.
            return;
        }
        let now = Instant::now();
        for watcher in watchers {
            // Raw beats are never throttled: counts must stay exact for any
            // subscriber fast enough to drain its queue.
            if watcher.wants(Interest::BEATS.bits()) {
                pending.push((
                    Arc::clone(watcher),
                    PendingEvent::Beats {
                        dropped_total: entry.producer_dropped,
                    },
                ));
            }
            if watcher.wants(Interest::SNAPSHOTS.bits()) && watcher.snapshot_due(app, now) {
                pending.push((
                    Arc::clone(watcher),
                    PendingEvent::Ready(EventPayload::Snapshot {
                        total_beats: entry.total_beats,
                        producer_dropped: entry.producer_dropped,
                        rate_bps: entry.window.rate(),
                        target: entry.target,
                        alive: true, // the batch in hand is the proof
                    }),
                ));
            }
            // Health transitions are detected *at ingest*, not when an
            // observer happens to poll: the assessment runs right where the
            // beat landed, and only actual transitions travel.
            if watcher.wants(Interest::HEALTH.bits()) && watcher.assess_due(app, now) {
                let report = entry.health(&self.config.health);
                if let Some(from) = watcher.health_transition(app, report.status) {
                    pending.push((
                        Arc::clone(watcher),
                        PendingEvent::Ready(EventPayload::HealthTransition {
                            from,
                            to: report.status,
                            reasons: report.reasons,
                            window_beats: report.window_beats,
                        }),
                    ));
                }
            }
        }
    }

    /// Re-assesses health for every subscription bound to `queue` without
    /// waiting for ingest traffic — silence is exactly the condition that
    /// cannot announce itself, so the observer connection's pump pass
    /// drives stall detection. Rate-limited per subscription by its own
    /// minimum update interval.
    pub fn sweep_subscriptions(&self, queue: &Arc<SubscriberQueue>) {
        let now = Instant::now();
        for entry in self.subs.entries_for(queue) {
            if !entry.wants(Interest::HEALTH.bits()) || !entry.sweep_due(now) {
                continue;
            }
            for app in self.app_names() {
                // Apps relayed from a live child are that child's to assess:
                // its own detector sees the actual beat arrivals, and its
                // transitions arrive through subscription propagation —
                // re-assessing here would emit duplicates from rollup
                // artifacts. A *dead* link is the exception: the child can
                // no longer speak for its apps, so the sweep takes over and
                // stalls surface at this tier.
                if self.under_live_origin(&app) {
                    continue;
                }
                if !entry.matches(&app) || !entry.assess_due(&app, now) {
                    continue;
                }
                let Some(report) = self.health(&app) else {
                    continue;
                };
                if let Some(from) = entry.health_transition(&app, report.status) {
                    let payload = EventPayload::HealthTransition {
                        from,
                        to: report.status,
                        reasons: report.reasons,
                        window_beats: report.window_beats,
                    };
                    self.journal_health(&app, &payload);
                    self.subs.deliver(&entry, &app, payload);
                }
            }
        }
    }

    /// Opens an in-process push subscription over this registry — the same
    /// fan-out machinery network observers use, without a socket. Events
    /// accumulate in a bounded queue (capacity
    /// [`CollectorConfig::sub_queue_capacity`], drop-oldest) until drained:
    ///
    /// ```
    /// use std::time::Duration;
    /// use hb_net::{CollectorConfig, CollectorState};
    /// use heartbeats::observe::Interest;
    ///
    /// let state = CollectorState::new(CollectorConfig::default());
    /// let sub = state
    ///     .subscribe_local("cam*", Interest::SNAPSHOTS, Duration::ZERO)
    ///     .unwrap();
    /// state.ingest_batch("cam1", 0, Vec::new());
    /// assert!(sub.drain().is_empty(), "an empty batch emits no snapshot");
    /// ```
    pub fn subscribe_local(
        &self,
        pattern: &str,
        interests: Interest,
        min_interval: Duration,
    ) -> std::result::Result<LocalSubscription, SubStatus> {
        let queue = Arc::new(SubscriberQueue::with_telemetry(
            self.config.sub_queue_capacity,
            self.config
                .telemetry
                .then(|| Arc::clone(&self.telemetry.delivery)),
        ));
        let req = SubscribeReq {
            sub_id: 0,
            pattern: pattern.to_string(),
            interests: interests.bits(),
            min_interval_ns: min_interval.as_nanos().min(u64::MAX as u128) as u64,
            resume_from: 0,
        };
        self.register_subscription(&queue, &req)?;
        Ok(LocalSubscription::new(queue, Arc::clone(&self.subs), 0))
    }

    /// [`sweep_subscriptions`](Self::sweep_subscriptions) for an in-process
    /// [`LocalSubscription`]: network subscribers get the silence sweep
    /// from the reactor's pump pass automatically, but an embedded
    /// subscriber has no connection — call this periodically (e.g. before
    /// draining) so stalls are detected without ingest traffic.
    pub fn sweep_local(&self, sub: &LocalSubscription) {
        self.sweep_subscriptions(sub.queue());
    }

    /// The push-subscription registry (active counts, event counters).
    pub fn subscriptions(&self) -> &Arc<SubscriptionRegistry> {
        &self.subs
    }

    /// The upstream capture tap, when this collector federates upward.
    pub fn upstream_tap(&self) -> Option<Arc<UpstreamTap>> {
        self.upstream_tap.clone()
    }

    /// The uplink counters, when this collector federates upward.
    pub fn upstream_stats(&self) -> Option<Arc<UpstreamStats>> {
        self.upstream_stats.clone()
    }

    /// Parent side of the federation tree: one row per child node that has
    /// ever linked — `(node, connected, last_applied, relayed_beats,
    /// relayed_events, duplicate_events, oversize_names)`, sorted by node.
    pub fn origins(&self) -> Vec<OriginSnapshot> {
        let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<OriginSnapshot> = links
            .values()
            .map(|link| {
                let (last_applied, relayed_beats, relayed_events, duplicates, oversize) =
                    link.counters();
                let (event_stream_duplicates, event_stream_gaps) = link.event_counters();
                OriginSnapshot {
                    node: link.node.clone(),
                    connected: link.is_connected(),
                    last_applied,
                    relayed_beats,
                    relayed_events,
                    duplicate_events: duplicates,
                    oversize_names: oversize,
                    event_stream_duplicates,
                    event_stream_gaps,
                }
            })
            .collect();
        drop(links);
        rows.sort_by(|a, b| a.node.cmp(&b.node));
        rows
    }

    /// Per-origin cluster rollups computed from the registry: for every
    /// linked child node, its app count, summed beats, and how many of its
    /// apps sit in each health class (indexed by
    /// [`HealthStatus::as_u8`](crate::HealthStatus::as_u8)). The federation
    /// soak reconciles these against per-leaf ground truth; `/metrics`
    /// exports them as the `hb_origin_*` series.
    pub fn origin_rollups(&self) -> Vec<OriginRollup> {
        let origins: Vec<String> = {
            let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
            links.keys().cloned().collect()
        };
        if origins.is_empty() {
            return Vec::new();
        }
        let mut rollups: HashMap<&str, OriginRollup> = origins
            .iter()
            .map(|node| {
                (
                    node.as_str(),
                    OriginRollup {
                        node: node.clone(),
                        apps: 0,
                        beats_total: 0,
                        dropped_total: 0,
                        health_counts: [0; 4],
                    },
                )
            })
            .collect();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (app, entry) in shard.iter() {
                let Some((origin, _)) = app.split_once('/') else {
                    continue;
                };
                let Some(rollup) = rollups.get_mut(origin) else {
                    continue;
                };
                rollup.apps += 1;
                rollup.beats_total += entry.total_beats;
                rollup.dropped_total += entry.producer_dropped;
                let status = entry.health(&self.config.health).status.as_u8() as usize;
                rollup.health_counts[status.min(3)] += 1;
            }
        }
        let mut rows: Vec<OriginRollup> = rollups.into_values().collect();
        rows.sort_by(|a, b| a.node.cmp(&b.node));
        rows
    }

    /// True if `app` is namespaced under a child whose link is currently
    /// up. Such apps are excluded from this tier's silence sweep (their
    /// origin's own detector is authoritative while it can still report).
    fn under_live_origin(&self, app: &str) -> bool {
        let Some((origin, _)) = app.split_once('/') else {
            return false;
        };
        let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
        links.get(origin).is_some_and(|link| link.is_connected())
    }

    /// Starts (or restarts) the link session for child `node` (the
    /// [`Frame::NodeHello`] path), records the child's announced path, and
    /// replays every active subscription down the fresh link — resuming
    /// any that already have a route (and a cursor watermark) from before
    /// the reconnect. Returns the link and the session token the serving
    /// connection must present at close.
    pub(crate) fn link_hello(&self, node: &str, path: Vec<String>) -> (Arc<UpstreamLink>, u64) {
        let link = {
            let mut links = self.links.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(
                links
                    .entry(node.to_string())
                    .or_insert_with(|| Arc::new(UpstreamLink::new(node))),
            )
        };
        link.set_path(path);
        let session = link.begin_session();
        // The downstream view widened (or at least changed): our own
        // upward announcement must follow, so the relay re-announces.
        self.path_epoch.fetch_add(1, Ordering::Release); // ordering: Release-bumps the epoch after the uplink path swap; pairs with the Acquire load in path_epoch()
        if let Some(tap) = &self.upstream_tap {
            tap.request_pump(); // the uplink's handler compares epochs when pumped
        }
        for entry in self.subs.all_active() {
            self.propagate_entry_to_link(&entry, &link);
        }
        (link, session)
    }

    /// The monotone epoch of this collector's downstream path (bumped on
    /// every child hello). The uplink's handler reconnects upward when it
    /// changes, so the announced path vector is never stale.
    pub(crate) fn path_epoch(&self) -> u64 {
        self.path_epoch.load(Ordering::Acquire) // ordering: pairs with the Release bump so a fresh epoch observes the swapped path
    }

    /// The path vector this collector announces upward: its own node name
    /// followed by every node relaying through it (children first, their
    /// subtrees flattened), deduplicated and capped at
    /// [`crate::wire::MAX_PATH_NODES`].
    pub(crate) fn downstream_path(&self, own: &str) -> Vec<String> {
        let mut path = vec![own.to_string()];
        let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
        for link in links.values() {
            if !link.is_connected() {
                continue;
            }
            for node in link.announced_path() {
                if !path.iter().any(|p| p == &node) {
                    path.push(node);
                }
            }
        }
        path.truncate(crate::wire::MAX_PATH_NODES);
        path
    }

    /// Checks a child's announced path against this collector's own node
    /// name (when it relays upward itself): a path containing our own name
    /// means accepting the uplink would close a relay cycle. Returns
    /// `true` when the hello must be refused. The tree root has no
    /// upstream and never refuses — a cycle cannot close without every
    /// participant relaying upward.
    pub(crate) fn uplink_would_loop(&self, path: &[String]) -> bool {
        let Some(upstream) = self.config.upstream.as_ref() else {
            return false;
        };
        path.iter().any(|node| node == &upstream.node)
    }

    /// Counts one refused uplink hello for `/metrics`
    /// (`hb_collector_uplink_rejected_total{reason}`).
    pub(crate) fn count_uplink_rejected(&self, reason: UplinkRejectReason) {
        match reason {
            UplinkRejectReason::Loop => &self.uplink_rejected_loop,
            UplinkRejectReason::Auth => &self.uplink_rejected_auth,
        }
        .fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// `(loop, auth)` refused-uplink counters.
    pub fn uplink_rejections(&self) -> (u64, u64) {
        (
            self.uplink_rejected_loop.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            self.uplink_rejected_auth.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
        )
    }

    /// The configured cluster secret, if uplink auth is enabled.
    pub(crate) fn cluster_secret(&self) -> Option<&str> {
        self.config.cluster_secret.as_deref()
    }

    /// Registers a subscription *and* propagates it down every connected
    /// child link whose namespace its pattern could reach. All subscription
    /// registration funnels through here (observer connections,
    /// [`subscribe_local`](Self::subscribe_local), relayed subscriptions at
    /// mid tiers — which is what makes propagation recurse).
    pub(crate) fn register_subscription(
        &self,
        queue: &Arc<SubscriberQueue>,
        req: &SubscribeReq,
    ) -> std::result::Result<Arc<SubEntry>, SubStatus> {
        let entry = self.subs.register(queue, req)?;
        let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
        for link in links.values() {
            if link.is_connected() {
                self.propagate_entry_to_link(&entry, link);
            }
        }
        Ok(entry)
    }

    /// Unregisters a subscription and retracts its downlink propagations.
    pub(crate) fn unregister_subscription(
        &self,
        queue: &Arc<SubscriberQueue>,
        sub_id: u32,
    ) -> bool {
        let entry = self
            .subs
            .entries_for(queue)
            .into_iter()
            .find(|entry| entry.sub_id() == sub_id);
        let removed = self.subs.unregister(queue, sub_id);
        if let Some(entry) = entry {
            self.retract_entry(&entry);
        }
        removed
    }

    /// Drops a closing connection's whole queue, retracting every
    /// propagated subscription it held.
    pub(crate) fn drop_queue_subscriptions(&self, queue: &Arc<SubscriberQueue>) {
        for entry in self.subs.entries_for(queue) {
            self.retract_entry(&entry);
        }
        self.subs.drop_queue(queue);
    }

    /// Pushes a translated Subscribe for `entry` onto `link`'s outbox if
    /// the pattern could match anything under that child's namespace. When
    /// a route for `entry` already exists (a reconnect), the **same**
    /// downlink id is re-subscribed with `resume_from` set one past its
    /// cursor watermark, so the child resumes the stream instead of
    /// restarting it.
    fn propagate_entry_to_link(&self, entry: &Arc<SubEntry>, link: &UpstreamLink) {
        let Some(pattern) = Self::child_pattern(entry.pattern(), &link.node) else {
            return;
        };
        let (sub_id, resume_from) = match link.route_for(entry) {
            Some((id, route)) => (id, route.last_seen_cursor() + 1),
            None => (link.add_route(Arc::clone(entry)), 0),
        };
        link.push_frame(&Frame::Subscribe(SubscribeReq {
            sub_id,
            pattern,
            interests: entry.interests(),
            min_interval_ns: entry
                .min_interval()
                .as_nanos()
                .min(u64::MAX as u128) as u64,
            resume_from,
        }));
    }

    /// Removes every downlink route feeding `entry` and queues the matching
    /// Unsubscribes, so child subscription gauges return to their prior
    /// values when an observer unsubscribes at this tier.
    fn retract_entry(&self, entry: &Arc<SubEntry>) {
        let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
        for link in links.values() {
            for sub_id in link.remove_routes_for(entry) {
                link.push_frame(&Frame::Unsubscribe { sub_id });
            }
        }
    }

    /// Translates a parent-tier pattern into the child's namespace.
    /// `node/rest` strips to `rest` exactly; a glob that merely *overlaps*
    /// the `node/` prefix (e.g. `*`, `leaf*/cam1`) conservatively becomes
    /// `*` — the child then over-delivers and
    /// [`deliver_routed_event`](Self::deliver_routed_event) re-filters with
    /// the original pattern, so delivery stays exact. `None` means the
    /// pattern can never match under this child: nothing is propagated.
    fn child_pattern(pattern: &str, node: &str) -> Option<String> {
        if let Some(rest) = pattern
            .strip_prefix(node)
            .and_then(|rest| rest.strip_prefix('/'))
        {
            return (!rest.is_empty()).then(|| rest.to_string());
        }
        crate::wire::glob_overlaps_prefix(pattern, &format!("{node}/"))
            .then(|| "*".to_string())
    }

    /// Applies one child rollup event ([`Frame::RelayEvent`]): absorbs the
    /// namespaced batch if `seq` has not been applied yet. Duplicates
    /// (retransmissions already covered by `last_applied`) are counted and
    /// skipped — together with the child's cumulative sequences this makes
    /// the rollup plane exactly-once across reconnects.
    pub(crate) fn apply_relay_event(&self, link: &UpstreamLink, seq: u64, event: EventFrame) {
        if !link.claim_seq(seq) {
            link.count_duplicate();
            return;
        }
        if let EventPayload::Beats {
            dropped_total,
            beats,
        } = event.payload
        {
            self.ingest_relayed(link, &event.app, dropped_total, beats);
        }
    }

    /// Absorbs one relayed batch as `node/app`. No subscriber fan-out: the
    /// event plane (subscription propagation) is the one delivery path for
    /// relayed activity, so fanning rollups out too would double-deliver.
    /// Re-captured into this tier's own tap when it federates further up.
    fn ingest_relayed(
        &self,
        link: &UpstreamLink,
        app: &str,
        dropped_total: u64,
        beats: Vec<WireBeat>,
    ) {
        let key = format!("{}/{app}", link.node);
        if key.len() > MAX_NAME_LEN || !crate::wire::valid_app_name(&key) {
            link.count_oversize();
            return;
        }
        let shard_index = self.shard_index(&key);
        let relayed = beats.len() as u64;
        {
            let mut shard = self.shards[shard_index]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let config = &self.config;
            let entry = shard
                .entry(key.clone())
                .or_insert_with(|| AppEntry::new(0, heartbeats::DEFAULT_WINDOW as u32, config));
            let accounted = Self::absorb(entry, dropped_total, beats.iter().copied());
            self.beats_accounted.fetch_add(accounted, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        link.count_relayed_beats(relayed);
        if let Some(tap) = &self.upstream_tap {
            tap.capture(&key, dropped_total, beats);
        }
    }

    /// Delivers a child-forwarded subscription event ([`Frame::Event`] on a
    /// link connection): looks up the downlink route, cursor-checks it
    /// against the route's watermark (resume replays overlap — duplicates
    /// are dropped here, gaps are counted), re-prefixes the app name with
    /// the child's node, re-filters against the *original* pattern (the
    /// child may hold a conservative `*` translation) and enqueues toward
    /// the subscriber. A route whose entry went inactive is retracted
    /// lazily here.
    pub(crate) fn deliver_routed_event(&self, link: &UpstreamLink, event: EventFrame) {
        let Some(route) = link.route(event.sub_id) else {
            return;
        };
        let entry = Arc::clone(&route.entry);
        if !entry.is_active() {
            self.retract_entry(&entry);
            return;
        }
        match link.check_cursor(&route, event.cursor) {
            crate::upstream::CursorVerdict::Duplicate => return,
            crate::upstream::CursorVerdict::Gap(skipped) => crate::log!(
                Level::Warn,
                "event stream gap node={} sub={} skipped={} (child ring overflow)",
                link.node,
                event.sub_id,
                skipped
            ),
            crate::upstream::CursorVerdict::Fresh => {}
        }
        let app = format!("{}/{}", link.node, event.app);
        if app.len() > MAX_NAME_LEN || !crate::wire::valid_app_name(&app) {
            link.count_oversize();
            return;
        }
        if !entry.matches(&app) {
            return;
        }
        self.journal_health(&app, &event.payload);
        self.subs.deliver(&entry, &app, event.payload);
        link.count_relayed_event();
    }

    /// The relay side of [`register_subscription`]: opens a propagated
    /// subscription under the parent-chosen downlink id with a dedicated
    /// queue (so the relay forwards its frames verbatim — sub ids already
    /// match what the parent routes on). Propagated subscriptions are
    /// **cursored**: their events carry monotone per-subscription cursors
    /// (spliced in at uplink send) and their drained frames are retained
    /// in the queue's replay ring for resume after a link failure.
    pub(crate) fn subscribe_propagated(
        &self,
        req: &SubscribeReq,
    ) -> std::result::Result<LocalSubscription, SubStatus> {
        let queue = Arc::new(SubscriberQueue::with_telemetry(
            self.config.sub_queue_capacity,
            self.config
                .telemetry
                .then(|| Arc::clone(&self.telemetry.delivery)),
        ));
        let entry = self.subs.register_cursored(&queue, req)?;
        // Propagate deeper by hand (register_subscription would register
        // uncursored): every connected child link gets the translated
        // Subscribe, recursing the propagation down the tree.
        {
            let links = self.links.lock().unwrap_or_else(|e| e.into_inner());
            for link in links.values() {
                if link.is_connected() {
                    self.propagate_entry_to_link(&entry, link);
                }
            }
        }
        Ok(LocalSubscription::new(
            queue,
            Arc::clone(&self.subs),
            req.sub_id,
        ))
    }

    /// Tears down a propagated subscription, retracting its own deeper
    /// propagations first (the explicit path; [`LocalSubscription`]'s drop
    /// alone would skip retraction, which the lazy route GC then catches).
    pub(crate) fn unsubscribe_propagated(&self, sub: &LocalSubscription) {
        self.unregister_subscription(sub.queue(), sub.sub_id());
    }

    /// The shared per-record ingest loop: allocation-free (the history ring
    /// is preallocated; statistics are fixed-size).
    /// Returns the beats this batch accounted for: records absorbed plus
    /// producer-side drops newly reported by `dropped_total` — the delta the
    /// caller adds to [`beats_accounted`](Self::beats_accounted).
    fn absorb<I>(entry: &mut AppEntry, dropped_total: u64, beats: I) -> u64
    where
        I: IntoIterator<Item = WireBeat>,
    {
        let mut accounted = dropped_total.saturating_sub(entry.producer_dropped);
        entry.producer_dropped = entry.producer_dropped.max(dropped_total);
        let now = Instant::now();
        entry.last_seen = now;
        for beat in beats {
            accounted += 1;
            match beat.scope {
                BeatScope::Global => {
                    let ts = beat.record.timestamp_ns;
                    let mut interval_ns = 0;
                    if let Some(prev) = entry.last_timestamp_ns {
                        if let Some(interval) = ts.checked_sub(prev) {
                            entry.intervals.push(interval as f64);
                            interval_ns = interval;
                        }
                    }
                    let rate_bps = entry.window.push(ts);
                    entry.last_timestamp_ns = Some(ts);
                    entry.total_beats += 1;
                    entry.last_beat_at = Some(now);
                    // Zero allocation: the ring was preallocated with the
                    // entry; a full ring overwrites its oldest slot.
                    entry.history.push(HistorySample {
                        seq: beat.record.seq,
                        timestamp_ns: ts,
                        tag: beat.record.tag.value(),
                        interval_ns,
                        rate_bps,
                    });
                }
                BeatScope::Local => entry.local_beats += 1,
            }
        }
        accounted
    }

    pub(crate) fn target(&self, app: &str, min_bps: f64, max_bps: f64) {
        let mut shard = self.shard(app).lock().unwrap_or_else(|e| e.into_inner());
        let config = &self.config;
        let entry = shard
            .entry(app.to_string())
            .or_insert_with(|| AppEntry::new(0, heartbeats::DEFAULT_WINDOW as u32, config));
        entry.target = Some((min_bps, max_bps));
        entry.last_seen = Instant::now();
    }

    fn snapshot_entry(&self, app: &str, entry: &AppEntry) -> AppSnapshot {
        AppSnapshot {
            app: app.to_string(),
            pid: entry.pid,
            window: entry.window.window() as u32,
            total_beats: entry.total_beats,
            local_beats: entry.local_beats,
            rate_bps: entry.window.rate(),
            mean_interval_ns: (entry.total_beats >= 2).then(|| entry.intervals.mean()),
            target: entry.target,
            producer_dropped: entry.producer_dropped,
            last_timestamp_ns: entry.last_timestamp_ns,
            connections: entry.connections,
            alive: entry.last_seen.elapsed() <= self.config.stale_after,
        }
    }

    /// Snapshot of one application, if it has ever registered.
    pub fn snapshot(&self, app: &str) -> Option<AppSnapshot> {
        let shard = self.shard(app).lock().unwrap_or_else(|e| e.into_inner());
        shard.get(app).map(|entry| self.snapshot_entry(app, entry))
    }

    /// Snapshots of every registered application, sorted by name.
    pub fn snapshots(&self) -> Vec<AppSnapshot> {
        let mut all: Vec<AppSnapshot> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
                shard
                    .iter()
                    .map(|(app, entry)| self.snapshot_entry(app, entry))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| a.app.cmp(&b.app));
        all
    }

    /// The retained history of one application: `(total samples ever
    /// pushed, most recent samples chronological)`, or `None` if the
    /// collector has never seen the application. `limit == 0` returns every
    /// retained sample.
    pub fn history(&self, app: &str, limit: usize) -> Option<(u64, Vec<HistorySample>)> {
        let shard = self.shard(app).lock().unwrap_or_else(|e| e.into_inner());
        shard
            .get(app)
            .map(|entry| (entry.history.total_pushed(), entry.history.latest(limit)))
    }

    /// The windowed health classification of one application, or `None` if
    /// the collector has never seen it.
    pub fn health(&self, app: &str) -> Option<HealthReport> {
        let shard = self.shard(app).lock().unwrap_or_else(|e| e.into_inner());
        shard.get(app).map(|entry| entry.health(&self.config.health))
    }

    /// Health classifications of every registered application, sorted by
    /// name.
    pub fn healths(&self) -> Vec<(String, HealthReport)> {
        let mut all: Vec<(String, HealthReport)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
                shard
                    .iter()
                    .map(|(app, entry)| (app.clone(), entry.health(&self.config.health)))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Names of all registered applications, sorted.
    pub fn app_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }

    /// Registered applications per reactor shard: an application is homed
    /// on the shard its registry partition folds onto.
    pub(crate) fn apps_per_reactor_shard(&self) -> Vec<u64> {
        let mut apps = vec![0u64; self.reactor_shards];
        for (partition, shard) in self.shards.iter().enumerate() {
            apps[partition % self.reactor_shards] +=
                shard.lock().unwrap_or_else(|e| e.into_inner()).len() as u64;
        }
        apps
    }

    /// Total producer connections accepted since start.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Total frames ingested since start.
    pub fn frames_total(&self) -> u64 {
        self.frames_total.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Beats accounted for by ingest since start: records absorbed into the
    /// registry plus producer-side drops as they were first reported. One
    /// relaxed load — cheap enough to spin on (benches do), unlike
    /// [`snapshots`](Self::snapshots) which walks every registry partition.
    pub fn beats_accounted(&self) -> u64 {
        self.beats_accounted.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Producer connections dropped for protocol violations.
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Observer requests answered since start (query lines plus binary
    /// query frames; subscription control and pushed events not included).
    pub fn queries_total(&self) -> u64 {
        self.queries_total.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Events enqueued toward subscribers since start.
    pub fn events_total(&self) -> u64 {
        self.subs.event_counters().0
    }

    /// Events shed because a subscriber queue was full.
    pub fn events_dropped_total(&self) -> u64 {
        self.subs.event_counters().1
    }

    /// Connections evicted by the reactor's idle timer.
    pub fn evicted_total(&self) -> u64 {
        self.evicted_total.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// The resolved number of reactor I/O shards (`--io-threads auto`
    /// resolves to the available parallelism at construction).
    pub fn io_threads(&self) -> usize {
        self.reactor_shards
    }
}

/// Parent-side view of one federation child link (see
/// [`CollectorState::origins`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginSnapshot {
    /// The child's node name (the `node/` prefix of its relayed apps).
    pub node: String,
    /// True while the child's relay link is established.
    pub connected: bool,
    /// Highest relay sequence applied from this child (exactly-once
    /// watermark; survives the child's reconnects).
    pub last_applied: u64,
    /// Beats absorbed from this child's rollup events.
    pub relayed_beats: u64,
    /// Subscription events forwarded from this child and delivered.
    pub relayed_events: u64,
    /// Retransmitted rollup events skipped as already applied.
    pub duplicate_events: u64,
    /// Relayed names dropped because the `node/` prefix overflowed the
    /// wire name limit.
    pub oversize_names: u64,
    /// Cursored subscription events dropped as resume-replay overlaps.
    pub event_stream_duplicates: u64,
    /// Event cursors skipped on this child's streams (its replay ring
    /// overflowed while disconnected) — accounted loss, never silent.
    pub event_stream_gaps: u64,
}

/// Why an uplink [`Frame::NodeHello`] was refused (the `reason` label of
/// `hb_collector_uplink_rejected_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UplinkRejectReason {
    /// The child's announced path contained this collector's own node
    /// name — accepting would close a relay cycle.
    Loop,
    /// The keyed-HMAC challenge went unanswered or failed verification.
    Auth,
}

/// Per-origin cluster rollup computed from the registry (see
/// [`CollectorState::origin_rollups`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginRollup {
    /// The child's node name.
    pub node: String,
    /// Applications registered under `node/`.
    pub apps: u64,
    /// Total beats absorbed across those applications.
    pub beats_total: u64,
    /// Total reported drops across those applications (producer-side plus
    /// everything shed on the way up, folded in by the relay tiers).
    pub dropped_total: u64,
    /// Apps per health class, indexed by
    /// [`HealthStatus::as_u8`](crate::HealthStatus::as_u8):
    /// `[nosignal, stalled, degraded, healthy]`.
    pub health_counts: [u64; 4],
}

/// The collector daemon: an ingest listener for producers and a query
/// listener for observers, both multiplexed over one reactor's fixed pool
/// of I/O threads.
///
/// Bind with port `0` to pick ephemeral ports (the pattern every test and
/// doctest uses); the real addresses are available afterwards:
///
/// ```
/// use hb_net::Collector;
///
/// let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
/// assert_ne!(collector.ingest_addr().port(), 0);
/// assert_ne!(collector.query_addr().port(), 0);
///
/// // In-process observers read the registry directly.
/// let state = collector.state();
/// assert!(state.app_names().is_empty());
/// assert!(state.prometheus().contains("hb_collector_uptime_seconds"));
///
/// collector.shutdown(); // joins the fixed I/O thread pool
/// ```
#[derive(Debug)]
pub struct Collector {
    state: Arc<CollectorState>,
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    reactor: Reactor,
    /// The federation uplink's supervisor, when configured ([`CollectorConfig::upstream`]).
    relay: Option<UpstreamRelay>,
}

impl Collector {
    /// Binds both listeners (use port `0` for ephemeral ports) and starts
    /// serving with default configuration.
    pub fn bind(ingest: &str, query: &str) -> io::Result<Collector> {
        Self::with_config(ingest, query, CollectorConfig::default())
    }

    /// Binds and serves with explicit configuration.
    pub fn with_config(
        ingest: &str,
        query: &str,
        config: CollectorConfig,
    ) -> io::Result<Collector> {
        let ingest_listener = TcpListener::bind(ingest)?;
        let query_listener = TcpListener::bind(query)?;
        let ingest_addr = ingest_listener.local_addr()?;
        let query_addr = query_listener.local_addr()?;

        let state = Arc::new(CollectorState::new(config));
        let reactor_config = ReactorConfig {
            io_threads: state.io_threads(),
            idle_timeout: state.config.idle_timeout,
            thread_stats: state
                .config
                .telemetry
                .then(|| Arc::clone(&state.reactor_threads)),
            ..ReactorConfig::default()
        };

        let ingest_spec = ListenerSpec {
            listener: ingest_listener,
            factory: {
                let state = Arc::clone(&state);
                Arc::new(move |peer| {
                    state.connections_total.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                    crate::log!(Level::Debug, "producer connected peer={peer}");
                    Box::new(ProducerHandler::new(Arc::clone(&state))) as Box<dyn Handler>
                })
            },
        };
        let query_spec = ListenerSpec {
            listener: query_listener,
            factory: {
                let state = Arc::clone(&state);
                Arc::new(move |peer| {
                    crate::log!(Level::Debug, "observer connected peer={peer}");
                    Box::new(ObserverHandler::new(Arc::clone(&state))) as Box<dyn Handler>
                })
            },
        };

        let reactor = Reactor::spawn(
            vec![ingest_spec, query_spec],
            reactor_config,
            Arc::clone(&state.evicted_total),
        )?;

        // The uplink lives on the last shard: shard 0 carries the acceptor.
        let relay = state.config.upstream.clone().map(|up| {
            let install = reactor.installer(reactor.io_threads() - 1);
            UpstreamRelay::spawn(Arc::clone(&state), up, install)
        });

        Ok(Collector {
            state,
            ingest_addr,
            query_addr,
            reactor,
            relay,
        })
    }

    /// Address producers connect their [`TcpBackend`](crate::TcpBackend) to.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Address observers query (line protocol / Prometheus export).
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
    }

    /// The shared registry, for in-process observers and tests.
    pub fn state(&self) -> Arc<CollectorState> {
        Arc::clone(&self.state)
    }

    /// Number of reactor I/O threads actually serving connections.
    pub fn io_threads(&self) -> usize {
        self.reactor.io_threads()
    }

    /// Stops serving: signals the fixed I/O threads and joins them. All
    /// live connections are closed with their lifecycle callbacks. Safe to
    /// call while producers are concurrently connecting — there are no
    /// per-connection threads left to race with.
    pub fn shutdown(&mut self) {
        if let Some(relay) = &mut self.relay {
            relay.stop();
        }
        self.reactor.shutdown();
    }
}

/// Per-connection state machine for one producer: an incremental frame
/// decoder plus the registry handle established by its hello frame.
struct ProducerHandler {
    state: Arc<CollectorState>,
    decoder: FrameDecoder,
    app: Option<AppHandle>,
    /// The app's home reactor shard, set at hello — the reactor migrates
    /// the connection there so every subsequent batch ingests shard-local.
    home: Option<usize>,
    /// Whether this connection has been attributed to a shard's
    /// `hb_collector_shard_connections` gauge yet (exactly once, see
    /// [`CollectorState::count_connection_once`]).
    counted: bool,
    /// Set by a [`Frame::NodeHello`]: this "producer" is a child
    /// collector's relay. The session token guards against a stale,
    /// not-yet-reaped connection racing the child's fresh reconnect.
    link: Option<(Arc<UpstreamLink>, u64)>,
    /// A NodeHello awaiting its keyed-HMAC answer: `(node, pid, path,
    /// nonce)`. Set when the collector runs with a cluster secret; the
    /// link is established only by a verifying [`Frame::NodeAuth`].
    pending_auth: Option<(String, u32, Vec<String>, [u8; crate::wire::AUTH_LEN])>,
    /// A relay event was applied this read burst; one coalesced
    /// [`Frame::RelayAck`] goes out when the decode loop drains.
    ack_due: bool,
    /// This connection's pump handle; a link session binds its outbox to it.
    pump: Option<PumpHandle>,
}

impl ProducerHandler {
    fn new(state: Arc<CollectorState>) -> Self {
        ProducerHandler {
            state,
            decoder: FrameDecoder::new(),
            app: None,
            home: None,
            counted: false,
            link: None,
            pending_auth: None,
            ack_due: false,
            pump: None,
        }
    }

    /// Establishes the child link after every admission check passed:
    /// session start, resume ack, subscription (re-)propagation.
    fn establish_link(&mut self, node: &str, pid: u32, path: Vec<String>, out: &mut OutBuf) {
        crate::log!(Level::Info, "link up node={node} pid={pid} path={path:?}");
        let (link, session) = self.state.link_hello(node, path);
        // The resume ack: tells the child which rollup sequences this
        // parent already applied, so the child retransmits exactly the gap.
        Frame::RelayAck {
            last_applied: link.last_applied(),
        }
        .encode_into(out.vec_mut());
        if let Some(pump) = &self.pump {
            link.attach_pump(pump.clone());
        }
        self.link = Some((link, session));
    }

    /// True while this connection's link session is the child's current
    /// one (a replaced session must not act for the link any more).
    fn link_current(&self) -> bool {
        self.link
            .as_ref()
            .is_some_and(|(link, session)| link.current_session() == *session)
    }
}

impl Handler for ProducerHandler {
    fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
        self.state.count_connection_once(&mut self.counted);
        self.decoder.push(input);
        loop {
            // next_event keeps beat batches as borrowing views over the
            // decoder's receive buffer: the decode→ingest path below
            // performs no per-frame Vec<WireBeat> allocation.
            let telemetry = self.state.stage_telemetry();
            let started = telemetry.start();
            match self.decoder.next_event() {
                Ok(Some(event)) => {
                    telemetry.observe(&telemetry.decode, started);
                    self.state.count_frame();
                    match event {
                        FrameEvent::Beats(view) => match &self.app {
                            Some(handle) => self.state.ingest_batch_with(
                                handle,
                                view.dropped_total(),
                                view.iter(),
                            ),
                            None => {
                                self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                crate::log!(
                                    Level::Warn,
                                    "protocol error: beats before hello, dropping producer"
                                );
                                return false;
                            }
                        },
                        FrameEvent::Control(Frame::Hello(hello)) => {
                            if self.link.is_some() {
                                self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                crate::log!(
                                    Level::Warn,
                                    "protocol error: producer hello on a link connection"
                                );
                                return false;
                            }
                            crate::log!(
                                Level::Info,
                                "hello app={} pid={} window={}",
                                hello.app,
                                hello.pid,
                                hello.default_window
                            );
                            let handle = self.state.hello(
                                &hello.app,
                                hello.pid,
                                hello.default_window,
                            );
                            self.home = Some(self.state.home_reactor_shard(&handle));
                            self.app = Some(handle);
                            // The handshake every producer waits for
                            // before it ships anything else.
                            Frame::HelloAck {
                                max_version: VERSION,
                            }
                            .encode_into(out.vec_mut());
                            // If this thread is not the app's home shard,
                            // yield now: the reactor reads `home_shard()`,
                            // migrates the connection, and the install pass
                            // on the home shard resumes this decode loop
                            // (any frames already buffered included) via an
                            // empty on_data — so no beat is ever absorbed
                            // off-shard.
                            if let Some(home) = self.home {
                                let migrating = crate::reactor::current_shard()
                                    .is_some_and(|current| current != home);
                                if migrating {
                                    return true;
                                }
                            }
                        }
                        FrameEvent::Control(Frame::Target { min_bps, max_bps }) => {
                            match &self.app {
                                Some(handle) => {
                                    self.state.target(handle.app(), min_bps, max_bps)
                                }
                                None => {
                                    self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                    crate::log!(
                                        Level::Warn,
                                        "protocol error: target before hello, dropping producer"
                                    );
                                    return false;
                                }
                            }
                        }
                        FrameEvent::Control(Frame::Bye) => {
                            crate::log!(
                                Level::Debug,
                                "bye app={}",
                                self.app.as_ref().map_or("?", |h| h.app())
                            );
                            return false;
                        }
                        FrameEvent::Control(Frame::NodeHello { node, pid, path }) => {
                            if self.app.is_some()
                                || self.link.is_some()
                                || self.pending_auth.is_some()
                            {
                                self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                crate::log!(
                                    Level::Warn,
                                    "protocol error: node hello on an established connection"
                                );
                                return false;
                            }
                            // Loop detection: a child whose downstream path
                            // already contains this collector's own node
                            // name would close a relay cycle — beats would
                            // circulate forever. Refuse at connect time.
                            if self.state.uplink_would_loop(&path) {
                                self.state.count_uplink_rejected(UplinkRejectReason::Loop);
                                crate::log!(
                                    Level::Warn,
                                    "uplink refused node={node}: path {path:?} would close a relay cycle"
                                );
                                return false;
                            }
                            if self.state.cluster_secret().is_some() {
                                // Challenge/response: hold the hello until
                                // a NodeAuth proves knowledge of the shared
                                // secret for this node name and nonce.
                                let nonce = crate::auth::fresh_nonce();
                                Frame::NodeChallenge { nonce }.encode_into(out.vec_mut());
                                self.pending_auth = Some((node, pid, path, nonce));
                            } else {
                                self.establish_link(&node, pid, path, out);
                            }
                        }
                        FrameEvent::Control(Frame::NodeAuth { mac }) => {
                            let Some((node, pid, path, nonce)) = self.pending_auth.take()
                            else {
                                self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                crate::log!(
                                    Level::Warn,
                                    "protocol error: node auth without a pending challenge"
                                );
                                return false;
                            };
                            let Some(secret) = self.state.cluster_secret() else {
                                // Secret cleared between frames — treat as
                                // a refused handshake rather than panic.
                                self.state.count_uplink_rejected(UplinkRejectReason::Auth);
                                return false;
                            };
                            let expected =
                                crate::auth::uplink_mac(secret, &nonce, &node);
                            if !crate::auth::mac_eq(&expected, &mac) {
                                self.state.count_uplink_rejected(UplinkRejectReason::Auth);
                                crate::log!(
                                    Level::Warn,
                                    "uplink refused node={node}: challenge response failed verification"
                                );
                                return false;
                            }
                            self.establish_link(&node, pid, path, out);
                        }
                        FrameEvent::Control(Frame::RelayEvent { seq, event }) => {
                            let Some((link, _)) = &self.link else {
                                self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                crate::log!(
                                    Level::Warn,
                                    "protocol error: relay event before node hello"
                                );
                                return false;
                            };
                            let link = Arc::clone(link);
                            self.state.apply_relay_event(&link, seq, event);
                            self.ack_due = true;
                        }
                        FrameEvent::Control(Frame::Event(event)) => {
                            let Some((link, _)) = &self.link else {
                                self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                                crate::log!(
                                    Level::Warn,
                                    "protocol error: forwarded event before node hello"
                                );
                                return false;
                            };
                            let link = Arc::clone(link);
                            self.state.deliver_routed_event(&link, event);
                        }
                        // Query frames belong on the query port, and
                        // HelloAck is collector → producer; receiving any
                        // of them here is a protocol violation.
                        FrameEvent::Control(_) => {
                            self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                            crate::log!(
                                Level::Warn,
                                "protocol error: unexpected control frame on ingest port app={}",
                                self.app.as_ref().map_or("?", |h| h.app())
                            );
                            return false;
                        }
                    }
                }
                Ok(None) => {
                    // One cumulative ack per read burst, however many relay
                    // events it carried.
                    if self.ack_due {
                        self.ack_due = false;
                        if let Some((link, _)) = &self.link {
                            Frame::RelayAck {
                                last_applied: link.last_applied(),
                            }
                            .encode_into(out.vec_mut());
                        }
                    }
                    return true; // need more bytes
                }
                Err(err) => {
                    self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                    crate::log!(
                        Level::Warn,
                        "protocol error: bad frame from app={}: {err:?}",
                        self.app.as_ref().map_or("?", |h| h.app())
                    );
                    return false;
                }
            }
        }
    }

    fn on_eof(&mut self, _out: &mut OutBuf) {
        if self.decoder.has_partial() {
            // The stream died mid-frame: truncation, not a clean goodbye.
            self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            crate::log!(
                Level::Warn,
                "producer stream truncated mid-frame app={}",
                self.app.as_ref().map_or("?", |h| h.app())
            );
        }
    }

    fn on_install(&mut self, pump: PumpHandle) {
        // No link to re-attach: a link connection never migrates.
        self.pump = Some(pump);
    }

    fn on_pump(&mut self, out: &mut OutBuf, _pending_out: usize, cause: PumpCause) -> bool {
        if let Some((link, _)) = &self.link {
            if self.link_current() {
                if cause == PumpCause::Timer {
                    // Retract routes whose entries went inactive without an
                    // explicit unsubscribe (dropped LocalSubscriptions):
                    // nothing announces those.
                    for sub_id in link.collect_dead_routes() {
                        link.push_frame(&Frame::Unsubscribe { sub_id });
                    }
                }
                link.drain_outbox(out.vec_mut());
            }
        }
        true
    }

    fn keep_alive(&self) -> bool {
        // A live link is legitimately silent when its child has nothing to
        // roll up; a *stale* link session gets no exemption.
        self.link_current()
    }

    fn on_close(&mut self) {
        // A connection torn down before its first on_data (e.g. a failed
        // install) still counts toward exactly one shard gauge.
        self.state.count_connection_once(&mut self.counted);
        if let Some(handle) = self.app.take() {
            self.state.goodbye(handle.app());
        }
        if let Some((link, session)) = self.link.take() {
            crate::log!(Level::Info, "link down node={}", link.node);
            link.end_session(session);
        }
    }

    fn home_shard(&self) -> Option<usize> {
        self.home
    }
}

/// Longest accepted observer query line; beyond this the connection is
/// dropped as hostile.
const MAX_QUERY_LINE: usize = 64 * 1024;

/// Cap on un-flushed reply bytes one observer may accumulate by pipelining
/// queries. The blocking engine was naturally bounded by the peer's read
/// rate; the reactor buffers replies, so a client flooding `METRICS\n`
/// lines without reading could otherwise balloon the outbound buffer within
/// a single read burst. A further query arriving while more than the cap is
/// still pending drops the connection. Sized to hold at least two maximal
/// binary `History` replies plus line chatter, so a legitimate client
/// pipelining a few full-ring queries is never cut off. It does not bound
/// one reply — a chunked `Metrics` export may exceed it — only what may be
/// pending when the next question is taken up (the reactor's own
/// `max_outbound` still bounds a truly unread backlog, and so the largest
/// single reply).
const MAX_PENDING_REPLIES: usize =
    2 * (crate::wire::MAX_PAYLOAD + crate::wire::HEADER_LEN) + MAX_QUERY_LINE;

/// Per-connection state machine for one observer.
///
/// The query port speaks two protocols on the same socket, disambiguated by
/// the first bytes of every message: a message starting with the frame
/// magic (`HBWT`) is a binary wire-protocol frame — a query
/// ([`Query::from_frame`]) or subscription control; anything else is a
/// newline-terminated line command ([`query::parse_line`]; `HELP` lists
/// them). Either way the question is answered by [`query::answer`] and only
/// the rendering differs. The two may be freely interleaved on one
/// connection.
struct ObserverHandler {
    state: Arc<CollectorState>,
    buf: Vec<u8>,
    /// Created on the first [`Frame::Subscribe`] with this connection's
    /// pump handle: every event enqueued for it asks the reactor to drain
    /// it into the outbound buffer.
    queue: Option<Arc<SubscriberQueue>>,
    pump: Option<PumpHandle>,
}

impl ObserverHandler {
    fn new(state: Arc<CollectorState>) -> Self {
        ObserverHandler {
            state,
            buf: Vec::new(),
            queue: None,
            pump: None,
        }
    }

    /// Answers one binary frame: subscription control here, queries through
    /// the query plane. Returns `false` to close.
    fn handle_frame(&mut self, frame: Frame, out: &mut OutBuf) -> bool {
        let reply = match frame {
            Frame::Subscribe(req) => {
                let state = &self.state;
                let pump = &self.pump;
                let queue = self.queue.get_or_insert_with(|| {
                    // Enrols the connection in the timed pass: the silence
                    // sweep must run even if no event is ever enqueued.
                    if let Some(pump) = pump {
                        pump.request();
                    }
                    Arc::new(
                        SubscriberQueue::with_telemetry(
                            state.config.sub_queue_capacity,
                            state
                                .config
                                .telemetry
                                .then(|| Arc::clone(&state.telemetry.delivery)),
                        )
                        .with_pump(pump.clone()),
                    )
                });
                let status = match state.register_subscription(queue, &req) {
                    Ok(_) => SubStatus::Ok,
                    Err(status) => status,
                };
                crate::log!(
                    Level::Debug,
                    "subscribe sub={} status={status:?}",
                    req.sub_id
                );
                Frame::SubAck {
                    sub_id: req.sub_id,
                    status,
                }
            }
            Frame::Unsubscribe { sub_id } => {
                // Unregistering purges the subscription's queued events, so
                // nothing for it can follow this ack. Unknown ids ack too:
                // unsubscribing is idempotent.
                if let Some(queue) = &self.queue {
                    self.state.unregister_subscription(queue, sub_id);
                }
                Frame::SubAck {
                    sub_id,
                    status: SubStatus::Ok,
                }
            }
            // Every other frame is a query, or (producer frames, unsolicited
            // responses) does not belong on the query port.
            other => {
                return Query::from_frame(other).is_some_and(|query| {
                    query::answer(&self.state, query).encode_into(out.vec_mut())
                })
            }
        };
        reply.encode_into(out.vec_mut());
        true
    }
}

impl Handler for ObserverHandler {
    fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
        self.buf.extend_from_slice(input);
        let mut consumed = 0;
        loop {
            let avail = &self.buf[consumed..]; // hb-lint: allow(index): consumed counts whole frames already parsed out of buf
            if avail.is_empty() {
                break;
            }
            // Checked before the next question, not after the last answer:
            // one reply may be any size the reactor will carry.
            if out.pending() > MAX_PENDING_REPLIES {
                return false; // pipelining flood: answers outpace the reads
            }
            // Disambiguate the next message: binary frames start with the
            // 4-byte magic; no line command does (line commands are ASCII
            // words like HELP/HISTORY, and the magic contains no newline).
            let magic = crate::wire::MAGIC.to_le_bytes();
            let prefix_len = avail.len().min(magic.len());
            if avail[..prefix_len] == magic[..prefix_len] { // hb-lint: allow(index): prefix_len is min(avail.len(), magic.len())
                if avail.len() < crate::wire::HEADER_LEN {
                    break; // could still become a frame; wait for more
                }
                let Ok((_, payload_len, _)) = Frame::decode_header(avail) else {
                    return false;
                };
                if avail.len() < crate::wire::HEADER_LEN + payload_len {
                    break; // incomplete frame; wait for more
                }
                let Ok((frame, used)) = Frame::decode(avail) else {
                    return false;
                };
                if !self.handle_frame(frame, out) {
                    return false;
                }
                consumed += used;
            } else {
                let Some(nl) = avail.iter().position(|&b| b == b'\n') else {
                    break;
                };
                let text = String::from_utf8_lossy(&avail[..nl]); // hb-lint: allow(index): nl came from a find() on avail
                let keep_open = query::serve_line(&self.state, text.trim(), out.vec_mut());
                consumed += nl + 1;
                if !keep_open {
                    return false;
                }
            }
        }
        self.buf.drain(..consumed);
        // An unterminated message longer than any real query is an attack.
        // The bound depends on what the pending bytes are: a binary frame
        // may legitimately reach HEADER_LEN + MAX_PAYLOAD, while a command
        // line is tiny.
        let magic = crate::wire::MAGIC.to_le_bytes();
        let prefix = self.buf.len().min(magic.len());
        let limit = if self.buf[..prefix] == magic[..prefix] { // hb-lint: allow(index): prefix is min(buf.len(), magic.len())
            crate::wire::HEADER_LEN + crate::wire::MAX_PAYLOAD
        } else {
            MAX_QUERY_LINE
        };
        self.buf.len() <= limit
    }

    fn on_install(&mut self, pump: PumpHandle) {
        // Precedes the first Subscribe, and observers never migrate.
        self.pump = Some(pump);
    }

    fn on_pump(&mut self, out: &mut OutBuf, pending_out: usize, cause: PumpCause) -> bool {
        let Some(queue) = &self.queue else {
            return true;
        };
        let telemetry = self.state.stage_telemetry();
        let started = telemetry.start();
        // Silence cannot announce itself through the ingest path; the timed
        // pass drives stall re-assessment for this connection's health
        // subscriptions (rate-limited per subscription). What the sweep
        // enqueues is drained right below.
        if cause == PumpCause::Timer {
            self.state.sweep_subscriptions(queue);
        }
        // Drain queued events into the outbound buffer only while the peer
        // keeps up; otherwise they stay queued and drop-oldest accounting
        // applies at the bounded queue, never at the reactor's slow-consumer
        // cap; the timed pass retries a drain skipped here. The drain moves
        // shared `Arc<[u8]>` segments — the encoded frame bytes every other
        // subscriber references — without copying.
        if pending_out < MAX_PENDING_REPLIES {
            queue.drain_into(out, MAX_PENDING_REPLIES - pending_out);
        }
        telemetry.observe(&telemetry.pump, started);
        true
    }

    fn keep_alive(&self) -> bool {
        // An observer holding live subscriptions is legitimately silent
        // between events — exempt from idle eviction exactly while its
        // subscriptions exist.
        self.queue
            .as_ref()
            .map(|queue| queue.active_subs() > 0)
            .unwrap_or(false)
    }

    fn on_close(&mut self) {
        if let Some(queue) = self.queue.take() {
            self.state.drop_queue_subscriptions(&queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{BeatThreadId, HeartbeatRecord, Tag};

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

    #[test]
    fn state_tracks_rate_from_timestamps() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("x264", 42, 20);
        // Beats every 100 ms -> 10 beats/s.
        state.ingest_batch(
            "x264",
            0,
            beats(&[0, 100_000_000, 200_000_000, 300_000_000, 400_000_000]),
        );
        let snap = state.snapshot("x264").unwrap();
        assert_eq!(snap.total_beats, 5);
        assert_eq!(snap.pid, 42);
        assert!((snap.rate_bps.unwrap() - 10.0).abs() < 1e-9);
        assert!((snap.mean_interval_ns.unwrap() - 100_000_000.0).abs() < 1e-3);
        assert!(snap.alive);
        assert_eq!(snap.connections, 1);
    }

    #[test]
    fn state_tracks_targets_and_drops() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("dedup", 1, 20);
        state.target("dedup", 30.0, 35.0);
        state.ingest_batch("dedup", 17, beats(&[0, 1_000]));
        let snap = state.snapshot("dedup").unwrap();
        assert_eq!(snap.target, Some((30.0, 35.0)));
        assert_eq!(snap.producer_dropped, 17);
    }

    #[test]
    fn local_beats_count_separately() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("ferret", 1, 20);
        let mut b = beats(&[0, 1_000]);
        b[1].scope = BeatScope::Local;
        state.ingest_batch("ferret", 0, b);
        let snap = state.snapshot("ferret").unwrap();
        assert_eq!(snap.total_beats, 1);
        assert_eq!(snap.local_beats, 1);
    }

    #[test]
    fn snapshots_are_sorted_and_complete() {
        let state = CollectorState::new(CollectorConfig::default());
        for app in ["zeta", "alpha", "mid"] {
            state.hello(app, 0, 20);
        }
        let names: Vec<String> = state.snapshots().into_iter().map(|s| s.app).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(state.app_names(), names);
    }

    #[test]
    fn unknown_app_snapshot_is_none() {
        let state = CollectorState::new(CollectorConfig::default());
        assert!(state.snapshot("ghost").is_none());
    }

    #[test]
    fn goodbye_decrements_connections() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("x", 0, 20);
        state.hello("x", 0, 20);
        assert_eq!(state.snapshot("x").unwrap().connections, 2);
        state.goodbye("x");
        assert_eq!(state.snapshot("x").unwrap().connections, 1);
        state.goodbye("x");
        state.goodbye("x"); // extra goodbye saturates at zero
        assert_eq!(state.snapshot("x").unwrap().connections, 0);
    }

    #[test]
    fn prometheus_export_contains_series() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("swaptions", 9, 20);
        state.target("swaptions", 5.0, 10.0);
        state.ingest_batch("swaptions", 0, beats(&[0, 500_000_000, 1_000_000_000]));
        let text = state.prometheus();
        assert!(text.contains("hb_app_rate_bps{app=\"swaptions\"} 2"));
        assert!(text.contains("hb_app_beats_total{app=\"swaptions\"} 3"));
        assert!(text.contains("hb_app_target_min_bps{app=\"swaptions\"} 5"));
        assert!(text.contains("hb_app_alive{app=\"swaptions\"} 1"));
        assert!(text.contains("hb_collector_uptime_seconds"));
    }

    #[test]
    fn query_protocol_responses() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("app-a", 7, 20);
        state.ingest_batch("app-a", 0, beats(&[0, 1_000_000]));

        let mut out = Vec::new();
        assert!(query::serve_line(&state, "PING", &mut out));
        assert!(query::serve_line(&state, "LIST", &mut out));
        assert!(query::serve_line(&state, "GET app-a", &mut out));
        assert!(query::serve_line(&state, "GET ghost", &mut out));
        assert!(query::serve_line(&state, "STATS", &mut out));
        assert!(query::serve_line(&state, "NONSENSE", &mut out));
        assert!(!query::serve_line(&state, "QUIT", &mut out));

        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("PONG"));
        assert!(text.contains("APPS 1"));
        assert!(text.contains("APP name=app-a pid=7 total=2"));
        assert!(text.contains("ERR unknown app"));
        assert!(text.contains("COLLECTOR apps=1"));
        assert!(text.contains("ERR unknown command NONSENSE"));
        assert!(text.contains("BYE"));
    }

    #[test]
    fn history_ring_records_ingested_beats() {
        let state = CollectorState::new(CollectorConfig {
            history_capacity: 4,
            ..CollectorConfig::default()
        });
        state.hello("vips", 1, 20);
        state.ingest_batch(
            "vips",
            0,
            beats(&[0, 100_000_000, 200_000_000, 300_000_000, 400_000_000, 500_000_000]),
        );
        let (total, samples) = state.history("vips", 0).unwrap();
        assert_eq!(total, 6);
        assert_eq!(samples.len(), 4, "ring bounded at capacity");
        let timestamps: Vec<u64> = samples.iter().map(|s| s.timestamp_ns).collect();
        assert_eq!(
            timestamps,
            vec![200_000_000, 300_000_000, 400_000_000, 500_000_000],
            "oldest overwritten, order chronological"
        );
        assert_eq!(samples[1].interval_ns, 100_000_000);
        assert!((samples[3].rate_bps.unwrap() - 10.0).abs() < 1e-9);
        // Limit trims from the front.
        let (_, last2) = state.history("vips", 2).unwrap();
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[1].timestamp_ns, 500_000_000);
        assert!(state.history("ghost", 0).is_none());
    }

    #[test]
    fn local_beats_are_not_sampled_into_history() {
        let state = CollectorState::new(CollectorConfig::default());
        let mut b = beats(&[0, 1_000_000]);
        b[1].scope = BeatScope::Local;
        state.ingest_batch("mix", 0, b);
        let (total, samples) = state.history("mix", 0).unwrap();
        assert_eq!(total, 1);
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn health_classifies_and_recovers() {
        let state = CollectorState::new(CollectorConfig {
            health: crate::health::HealthConfig {
                window: Duration::from_millis(60),
                ..Default::default()
            },
            ..CollectorConfig::default()
        });
        assert!(state.health("ghost").is_none());
        state.hello("cam", 1, 20);
        let report = state.health("cam").unwrap();
        assert_eq!(report.status, crate::health::HealthStatus::NoSignal);

        state.ingest_batch("cam", 0, beats(&[0, 10_000_000, 20_000_000, 30_000_000]));
        let report = state.health("cam").unwrap();
        assert_eq!(report.status, crate::health::HealthStatus::Healthy);
        assert_eq!(report.window_beats, 4);

        // Silence past the window stalls the app...
        std::thread::sleep(Duration::from_millis(80));
        let report = state.health("cam").unwrap();
        assert_eq!(report.status, crate::health::HealthStatus::Stalled);

        // ...and resuming beats recovers it.
        state.ingest_batch("cam", 0, beats(&[40_000_000, 50_000_000]));
        let report = state.health("cam").unwrap();
        assert_eq!(report.status, crate::health::HealthStatus::Healthy);
    }

    #[test]
    fn health_flags_rate_below_target() {
        let state = CollectorState::new(CollectorConfig::default());
        state.target("slow", 100.0, 200.0);
        // 10 bps, far below the 100 bps floor.
        state.ingest_batch("slow", 0, beats(&[0, 100_000_000, 200_000_000, 300_000_000]));
        let report = state.health("slow").unwrap();
        assert_eq!(report.status, crate::health::HealthStatus::Degraded);
        assert!(report
            .reasons
            .contains(&crate::health::HealthReason::RateBelowTarget));
    }

    #[test]
    fn history_and_health_query_lines() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("app-a", 7, 20);
        state.ingest_batch("app-a", 0, beats(&[0, 1_000_000, 2_000_000]));

        let mut out = Vec::new();
        assert!(query::serve_line(&state, "HISTORY app-a", &mut out));
        assert!(query::serve_line(&state, "HISTORY app-a 1", &mut out));
        assert!(query::serve_line(&state, "HISTORY ghost", &mut out));
        assert!(query::serve_line(&state, "HISTORY", &mut out));
        assert!(query::serve_line(&state, "HEALTH app-a", &mut out));
        assert!(query::serve_line(&state, "HEALTH ghost", &mut out));
        assert!(query::serve_line(&state, "HEALTH", &mut out));

        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HISTORY app=app-a total=3 count=3"));
        assert!(text.contains("HISTORY app=app-a total=3 count=1"));
        assert!(text.contains("S seq=0 ts=0 tag=0 interval=0 rate=na"));
        assert!(text.contains("S seq=2 ts=2000000 tag=0 interval=1000000 rate="));
        assert!(text.contains("ERR unknown app"));
        assert!(text.contains("ERR usage: HISTORY"));
        assert!(text.contains("HEALTH app=app-a status=healthy reasons=none beats=3"));
        assert!(text.contains("END"));
    }

    #[test]
    fn help_lists_every_command() {
        let state = CollectorState::new(CollectorConfig::default());
        let mut out = Vec::new();
        assert!(query::serve_line(&state, "HELP", &mut out));
        let text = String::from_utf8(out).unwrap();
        for command in [
            "HELP", "PING", "LIST", "GET", "HISTORY", "HEALTH", "METRICS", "STATS", "HEATMAP",
            "TRACE", "QUIT",
        ] {
            assert!(text.contains(command), "HELP must list {command}");
        }
        assert!(text.trim_end().ends_with("END"));
        // The pointer printed for unknown commands mentions HELP.
        let mut err = Vec::new();
        query::serve_line(&state, "WAT", &mut err);
        assert!(String::from_utf8(err).unwrap().contains("try HELP"));
    }

    #[test]
    fn prometheus_exports_health_gauge() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("quiet", 1, 20);
        state.ingest_batch("live", 0, beats(&[0, 1_000_000, 2_000_000]));
        let text = state.prometheus();
        assert!(text.contains("# TYPE hb_app_health gauge"));
        assert!(text.contains("hb_app_health{app=\"live\"} 3"), "healthy = 3");
        assert!(text.contains("hb_app_health{app=\"quiet\"} 0"), "no signal = 0");
    }

    #[test]
    fn observer_handler_answers_binary_queries() {
        let state = Arc::new(CollectorState::new(CollectorConfig::default()));
        state.ingest_batch("bin-app", 0, beats(&[0, 1_000_000, 2_000_000]));
        let mut handler = ObserverHandler::new(Arc::clone(&state));
        let mut buf = OutBuf::new();

        // A line query, then two binary queries, then another line — all
        // interleaved on one connection, split at awkward byte boundaries.
        let mut input = b"PING\n".to_vec();
        Frame::HistoryReq {
            app: "bin-app".into(),
            limit: 2,
        }
        .encode_into(&mut input);
        Frame::HealthReq {
            app: "ghost".into(),
        }
        .encode_into(&mut input);
        input.extend_from_slice(b"STATS\n");

        for chunk in input.chunks(3) {
            assert!(handler.on_data(chunk, &mut buf), "connection stays open");
        }
        let out: Vec<u8> = buf.iter_slices().flatten().copied().collect();

        // Replies: PONG line, History frame, Health frame, STATS line.
        let text_start = String::from_utf8_lossy(&out[..5]);
        assert_eq!(text_start, "PONG\n");
        let mut decoder = FrameDecoder::new();
        decoder.push(&out[5..]);
        match decoder.next_frame().unwrap().unwrap() {
            Frame::History(chunk) => {
                assert!(chunk.known);
                assert_eq!(chunk.app, "bin-app");
                assert_eq!(chunk.total, 3);
                assert_eq!(chunk.samples.len(), 2, "limit respected");
            }
            other => panic!("expected history, got {other:?}"),
        }
        match decoder.next_frame().unwrap().unwrap() {
            Frame::Health(health) => {
                assert!(!health.known);
                assert_eq!(
                    health.report.status,
                    crate::health::HealthStatus::NoSignal
                );
            }
            other => panic!("expected health, got {other:?}"),
        }
        let tail = out.len() - decoder.buffered();
        let rest = String::from_utf8_lossy(&out[tail..]);
        assert!(rest.starts_with("COLLECTOR "), "rest: {rest:?}");
    }

    /// N queries, in either protocol, move `queries_total` and the query
    /// stage histogram by exactly N: the plane counts and times each one
    /// once. The version probe, blank lines and subscription control are
    /// not queries.
    #[test]
    fn every_query_is_counted_and_timed_exactly_once() {
        let state = Arc::new(CollectorState::new(CollectorConfig::default()));
        state.ingest_batch("acct", 0, beats(&[0, 1_000_000]));
        let mut handler = ObserverHandler::new(Arc::clone(&state));
        let mut out = OutBuf::new();

        let lines = [
            "PING",
            "LIST",
            "GET acct",
            "GET ghost",
            "GET",
            "HISTORY acct 1",
            "HISTORY",
            "HEALTH",
            "HEALTH acct",
            "STATS",
            "METRICS",
            "HEATMAP",
            "TRACE 1",
            "HELP",
            "WAT",
        ];
        let frames = [
            Frame::SnapshotReq { app: "acct".into() },
            Frame::HistoryReq {
                app: "acct".into(),
                limit: 0,
            },
            Frame::HealthReq {
                app: "ghost".into(),
            },
            Frame::ListReq,
            Frame::StatsReq,
            Frame::MetricsReq,
        ];
        let mut input = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            input.extend_from_slice(format!("{line}\n").as_bytes());
            if let Some(frame) = frames.get(i) {
                frame.encode_into(&mut input); // interleave the two protocols
            }
        }
        input.extend_from_slice(b"VERSION\n\n  \n");
        Frame::Subscribe(SubscribeReq {
            sub_id: 1,
            pattern: "acct".into(),
            interests: Interest::HEALTH.bits(),
            min_interval_ns: 0,
            resume_from: 0,
        })
        .encode_into(&mut input);
        Frame::Unsubscribe { sub_id: 1 }.encode_into(&mut input);
        assert!(handler.on_data(&input, &mut out), "connection stays open");

        let expected = (lines.len() + frames.len()) as u64;
        assert_eq!(state.queries_total(), expected);
        let timed = state
            .prometheus()
            .lines()
            .find_map(|l| l.strip_prefix("hb_collector_query_latency_seconds_count "))
            .map(|n| n.parse::<u64>().unwrap());
        assert_eq!(timed, Some(expected));
    }

    #[test]
    fn observer_handler_rejects_producer_frames() {
        let state = Arc::new(CollectorState::new(CollectorConfig::default()));
        let mut handler = ObserverHandler::new(state);
        let mut out = OutBuf::new();
        let input = Frame::Bye.encode();
        assert!(
            !handler.on_data(&input, &mut out),
            "producer frames close the query connection"
        );
    }

    #[test]
    fn history_capacity_is_clamped_to_one_frame() {
        use crate::wire::MAX_HISTORY_SAMPLES;
        let state = CollectorState::new(CollectorConfig {
            history_capacity: MAX_HISTORY_SAMPLES + 1000,
            ..CollectorConfig::default()
        });
        // Push past the frame bound in chunks.
        let mut ts = 0u64;
        let total_pushes = (MAX_HISTORY_SAMPLES + 1000) as u64;
        let mut pushed = 0u64;
        while pushed < total_pushes {
            let n = (total_pushes - pushed).min(4096);
            let stamps: Vec<u64> = (0..n)
                .map(|i| {
                    ts = (pushed + i) * 1_000;
                    ts
                })
                .collect();
            state.ingest_batch("big", 0, beats(&stamps));
            pushed += n;
        }
        let (total, samples) = state.history("big", 0).unwrap();
        assert_eq!(total, total_pushes);
        assert_eq!(
            samples.len(),
            MAX_HISTORY_SAMPLES,
            "ring clamped so every reply fits one History frame"
        );
        // And the reply really does encode.
        let frame = Frame::History(crate::wire::HistoryChunk {
            app: "big".into(),
            known: true,
            total,
            samples,
        });
        assert!(Frame::decode(&frame.encode()).is_ok());
    }

    #[test]
    fn public_ingest_sanitizes_hostile_names() {
        // The embedding API must not let a name corrupt Prometheus labels
        // or single-line responses (network input is already validated by
        // the frame decoder).
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("bad\"} name\nx", 1, 20);
        state.ingest_batch("bad\"} name\nx", 0, beats(&[0, 1_000_000]));
        let names = state.app_names();
        assert_eq!(names.len(), 1);
        let key = &names[0];
        assert!(
            crate::wire::valid_app_name(key),
            "registry key {key:?} must satisfy the wire rules"
        );
        let text = state.prometheus();
        assert!(text.contains(&format!("hb_app_beats_total{{app=\"{key}\"}} 2")));
    }

    #[test]
    fn stale_entries_report_not_alive() {
        let state = CollectorState::new(CollectorConfig {
            stale_after: Duration::from_millis(10),
            ..CollectorConfig::default()
        });
        state.hello("sleepy", 0, 20);
        assert!(state.snapshot("sleepy").unwrap().alive);
        std::thread::sleep(Duration::from_millis(25));
        assert!(!state.snapshot("sleepy").unwrap().alive);
    }

    #[test]
    fn prometheus_has_help_for_every_type_and_exports_histograms() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("cam", 1, 20);
        state.ingest_batch("cam", 0, beats(&[0, 1_000_000, 2_000_000]));
        let mut sink = Vec::new();
        assert!(query::serve_line(&state, "LIST", &mut sink));
        let text = state.prometheus();
        // Every declared series carries documentation.
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(
                    text.contains(&format!("# HELP {name} ")),
                    "series {name} lacks a HELP line"
                );
            }
        }
        // All six pipeline histograms render the full triplet.
        for series in [
            "hb_collector_decode_latency_seconds",
            "hb_collector_ingest_latency_seconds",
            "hb_collector_fanout_latency_seconds",
            "hb_collector_pump_latency_seconds",
            "hb_collector_query_latency_seconds",
            "hb_collector_delivery_lag_seconds",
        ] {
            assert!(text.contains(&format!("# TYPE {series} histogram")));
            assert!(text.contains(&format!("{series}_bucket{{le=\"+Inf\"}}")));
            assert!(text.contains(&format!("{series}_sum ")));
            assert!(text.contains(&format!("{series}_count ")));
        }
        // The exercised stages recorded real samples.
        assert!(state.telemetry().ingest.count() >= 1);
        assert!(state.telemetry().query.count() >= 1);
        assert!(text.contains("hb_collector_protocol_errors_total 0"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        assert_eq!(query::escape_label("plain-name"), "plain-name");
        assert_eq!(query::escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn heatmap_buckets_beat_counts_by_age() {
        let state = CollectorState::new(CollectorConfig::default());
        state.hello("cam", 1, 20);
        // Newest sample at 3.1 s anchors the window: ages 3.1 s, 3.0 s,
        // 2.9 s, 0 s land in buckets 0, 0, 1, 3 of a 4 x 1 s matrix.
        state.ingest_batch(
            "cam",
            0,
            beats(&[0, 100_000_000, 200_000_000, 3_100_000_000]),
        );
        let rows = state.heatmap(4, Duration::from_secs(1));
        assert_eq!(rows.len(), 1);
        let (app, rates) = &rows[0];
        assert_eq!(app, "cam");
        assert_eq!(rates, &[2.0, 1.0, 0.0, 1.0]);

        let mut out = Vec::new();
        assert!(query::serve_line(&state, "HEATMAP 4 1000", &mut out));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HEATMAP apps=1 buckets=4 width_ms=1000\n"));
        assert!(text.contains("R app=cam rates=2.000,1.000,0.000,1.000\n"));
        assert!(text.trim_end().ends_with("END"));
    }

    #[test]
    fn heatmap_anchors_each_app_at_its_own_newest_sample() {
        // Producer clocks are not comparable: each app's newest beat must
        // land in the final bucket regardless of absolute timestamps.
        let state = CollectorState::new(CollectorConfig::default());
        state.ingest_batch("early-epoch", 0, beats(&[1_000, 2_000]));
        state.ingest_batch(
            "late-epoch",
            0,
            beats(&[9_000_000_000_000, 9_000_000_001_000]),
        );
        for (_, rates) in state.heatmap(8, Duration::from_secs(1)) {
            assert!(rates[7] > 0.0, "newest beat must fill the last bucket");
        }
    }

    #[test]
    fn trace_replays_journal_entries_over_the_query_port() {
        let state = CollectorState::new(CollectorConfig::default());
        crate::log!(Level::Info, "trace-test-sentinel-48151623");
        let mut out = Vec::new();
        assert!(query::serve_line(&state, "TRACE 2000", &mut out));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("TRACE count="), "got: {text}");
        assert!(
            text.contains("trace-test-sentinel-48151623"),
            "TRACE must replay the sentinel entry"
        );
        let sentinel_line = text
            .lines()
            .find(|l| l.contains("trace-test-sentinel"))
            .unwrap();
        assert!(sentinel_line.starts_with("J ts_ms="));
        assert!(sentinel_line.contains("level=info"));
        assert!(text.trim_end().ends_with("END"));
    }

    #[test]
    fn stats_and_metrics_share_one_consistent_event_reading() {
        let state = CollectorState::new(CollectorConfig::default());
        let stats = state.stats();
        assert!(stats.events >= stats.events_dropped);
        let mut out = Vec::new();
        assert!(query::serve_line(&state, "STATS", &mut out));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("COLLECTOR apps=0 "), "got: {text}");
        assert!(text.contains("events=0 events_dropped=0"));
    }

    #[test]
    fn stats_reports_resolved_shards_and_cross_shard_counter() {
        let state = CollectorState::new(CollectorConfig {
            io_threads: 3,
            ..CollectorConfig::default()
        });
        assert_eq!(state.io_threads(), 3);
        let mut out = Vec::new();
        assert!(query::serve_line(&state, "STATS", &mut out));
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("io_threads=3"), "got: {text}");
        assert!(text.contains("shards=3"), "got: {text}");
        assert!(text.contains("cross_shard=0"), "got: {text}");
    }

    #[test]
    fn io_threads_zero_resolves_to_available_parallelism() {
        let state = CollectorState::new(CollectorConfig {
            io_threads: 0,
            ..CollectorConfig::default()
        });
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(state.io_threads(), expected);
        assert_eq!(state.shard_counters().len(), expected);
    }

    #[test]
    fn shard_gauge_sums_equal_aggregate_counters() {
        // Four shards, traffic driven off-reactor (attributed to shard 0):
        // the per-shard gauges must partition the aggregates exactly.
        let state = Arc::new(CollectorState::new(CollectorConfig {
            io_threads: 4,
            ..CollectorConfig::default()
        }));
        let mut input = Vec::new();
        Frame::Hello(crate::wire::Hello {
            app: "gauge-app".into(),
            pid: 1,
            default_window: 20,
        })
        .encode_into(&mut input);
        let mut encoder = crate::wire::BatchEncoder::new();
        encoder.begin_compact(0);
        encoder.push(&WireBeat {
            record: heartbeats::HeartbeatRecord::new(
                0,
                1_000_000,
                heartbeats::Tag::NONE,
                heartbeats::BeatThreadId(0),
            ),
            scope: heartbeats::BeatScope::Global,
        });
        input.extend_from_slice(encoder.finish());
        let mut handler = ProducerHandler::new(Arc::clone(&state));
        let mut out = OutBuf::new();
        assert!(handler.on_data(&input, &mut out));
        state.connections_total.fetch_add(1, Ordering::Relaxed);
        handler.on_close();

        let counters = state.shard_counters();
        assert_eq!(counters.len(), 4);
        let connection_sum: u64 = counters.iter().map(|(c, _)| c).sum();
        let frame_sum: u64 = counters.iter().map(|(_, f)| f).sum();
        assert_eq!(connection_sum, state.connections_total());
        assert_eq!(frame_sum, state.frames_total());
        assert_eq!(frame_sum, 2, "hello + one beats frame");

        let text = state.prometheus();
        for shard in 0..4 {
            assert!(
                text.contains(&format!("hb_collector_shard_connections{{shard=\"{shard}\"}}")),
                "missing connections gauge for shard {shard}"
            );
            assert!(
                text.contains(&format!("hb_collector_shard_frames{{shard=\"{shard}\"}}")),
                "missing frames gauge for shard {shard}"
            );
            assert!(
                text.contains(&format!("hb_collector_shard_apps{{shard=\"{shard}\"}}")),
                "missing apps gauge for shard {shard}"
            );
        }
        let series_sum = |name: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(&format!("{name}{{")))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(
            series_sum("hb_collector_shard_connections"),
            state.connections_total()
        );
        assert_eq!(series_sum("hb_collector_shard_frames"), state.frames_total());
        assert_eq!(
            series_sum("hb_collector_shard_apps"),
            state.app_names().len() as u64
        );
        assert!(text.contains("hb_collector_cross_shard_ingest_total 0"));
    }

    #[test]
    fn producer_handler_reports_home_shard_after_hello() {
        let state = Arc::new(CollectorState::new(CollectorConfig {
            io_threads: 4,
            ..CollectorConfig::default()
        }));
        let mut handler = ProducerHandler::new(Arc::clone(&state));
        assert_eq!(handler.home_shard(), None, "no home before hello");
        let mut input = Vec::new();
        Frame::Hello(crate::wire::Hello {
            app: "homed".into(),
            pid: 1,
            default_window: 20,
        })
        .encode_into(&mut input);
        let mut out = OutBuf::new();
        assert!(handler.on_data(&input, &mut out));
        let home = handler.home_shard().expect("home set at hello");
        assert_eq!(home, state.home_reactor_shard(&state.handle("homed")));
        assert!(home < state.io_threads());
    }
}
