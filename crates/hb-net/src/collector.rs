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

use crate::federation::{Federation, UpstreamLink};
pub use crate::federation::{OriginRollup, OriginSnapshot, UplinkRejectReason};
use crate::frame::{split_frame, FrameDecoder, FrameEvent};
use crate::health::{
    self, HealthConfig, HealthReport, HealthStatus, HistoryRing, HistorySample, WindowStats,
};
use crate::query::{self, Query};
use crate::reactor::{
    Handler, ListenerSpec, OutBuf, PumpCause, PumpHandle, Reactor, ReactorConfig,
};
use crate::subscribe::{Due, LocalSubscription, SubEntry, SubscriberQueue, SubscriptionRegistry};
use crate::telemetry::{Level, PipelineTelemetry, ReactorThreads};
use crate::upstream::{UpstreamConfig, UpstreamRelay, UpstreamStats, UpstreamTap};
use crate::wire::{
    EventPayload, Frame, SubStatus, SubscribeReq, WireBeat, MAX_HISTORY_SAMPLES, VERSION,
};

/// Number of registry partitions; applications hash to partitions so
/// connections for different applications rarely contend.
const REGISTRY_PARTITIONS: usize = 16;

/// Cap on the server-side rate window (guards against absurd hellos).
const MAX_WINDOW: usize = 1024;

/// Tuning knobs for a [`Collector`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// An application whose last beat is older than this is reported as
    /// not alive in snapshots and metrics.
    pub stale_after: Duration,
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
            stale_after: Duration::from_secs(5),
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
    /// The health window as of the last assessment, reused by the next
    /// one unless the ring has taken a sample since.
    health_window: WindowStats,
}

impl AppEntry {
    fn new(pid: u32, default_window: u32, config: &CollectorConfig) -> Self {
        AppEntry {
            pid,
            default_window,
            window: MovingRate::new((default_window as usize).clamp(2, MAX_WINDOW)),
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
            health_window: WindowStats::default(),
        }
    }

    /// Runs the windowed anomaly detector over this entry's recent history,
    /// refreshing the kept window first if the ring has changed.
    fn health(&mut self, config: &HealthConfig) -> HealthReport {
        let window_ns = config.window.as_nanos().min(u64::MAX as u128) as u64;
        self.health_window.refresh(&self.history, window_ns);
        // No arrival time yet counts as total silence.
        let silent_for = self.last_beat_at.map_or(Duration::MAX, |at| at.elapsed());
        let window = &self.health_window;
        let mut report =
            health::classify(window, self.total_beats, silent_for, self.target, config);
        if config.sequence_tags {
            report.check_sequence(&window.window(&self.history));
        }
        report
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
/// `hb_collector_shard_*` Prometheus gauges. Every producer connection and
/// every decoded frame is attributed to exactly one shard, and the
/// aggregate counters are these sums, so the two agree by construction.
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
    pub(crate) config: CollectorConfig,
    pub(crate) started: Instant,
    /// Resolved reactor shard count ([`CollectorConfig::io_threads`], with
    /// `0` resolved to the available parallelism). An app whose registry
    /// partition is `p` is served by reactor shard `p % reactor_shards`.
    reactor_shards: usize,
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
    /// Parent side: the child links relaying into this collector.
    pub(crate) federation: Federation,
}

impl CollectorState {
    /// Creates a standalone registry with no sockets attached — the same
    /// aggregation the daemon runs, usable embedded in another server, in
    /// tests, and in benchmarks ([`Collector`] wires one to its reactor).
    pub fn new(config: CollectorConfig) -> Self {
        let shards = (0..REGISTRY_PARTITIONS)
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
        let shard_counters = (0..reactor_shards)
            .map(|_| ShardCounters::default())
            .collect();
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
            federation: Federation::default(),
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
    /// shard. `connections_total()` and `frames_total()` are their sums.
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

    /// Attributes one decoded producer frame to the calling reactor shard.
    fn count_frame(&self) {
        self.shard_counters[self.calling_shard()]
            .frames
            .fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Attributes one producer connection to the calling reactor shard,
    /// exactly once per connection (`counted` lives in the handler): on its
    /// first `on_data` when the connection is served, or at `on_close` for
    /// connections that never produced bytes.
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

    /// The one ingest body behind both public entry points. It resolves the
    /// watchers once, absorbs straight off the caller's iterator under the
    /// partition lock, and fans out after the unlock. The records outlive
    /// the lock only when a raw-beats watcher matched or this collector
    /// federates upward: then they are copied once, as they stream by, into
    /// the `Vec` the beat events and the [`UpstreamTap`] share. The tap
    /// mirrors every batch (empty ones included) *after* the registry
    /// absorbed it — one bounded-queue push that never blocks ingest.
    fn ingest_resolved<I>(&self, shard_index: usize, key: &str, dropped_total: u64, beats: I)
    where
        I: IntoIterator<Item = WireBeat>,
    {
        // hb-lint: hot-path — the steady-state ingest body up to the lock
        // boundary; the counting-allocator test (tests/ingest_alloc.rs) pins
        // a registered, unwatched app's batch to zero allocations.
        //
        // Debug invariant: on a reactor thread, ingest should only ever run
        // on the app's home shard (hello-time migration put the connection
        // there). One TLS read when off the home path; soak tests pin zero.
        if let Some(current) = crate::reactor::current_shard() {
            if current != shard_index % self.reactor_shards {
                self.cross_shard_ingest.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            }
        }
        let telemetry = self.stage_telemetry();
        let mut watchers = self.subs.matching(key);
        let wants_beats = watchers
            .iter()
            .any(|watcher| watcher.wants(Interest::BEATS.bits()));
        let keep = wants_beats || self.upstream_tap.is_some();
        let beats = beats.into_iter();
        // hb-lint: allow(alloc): an empty Vec allocates nothing; it is reserved only when the records are kept
        let mut kept = Vec::new();
        if keep {
            kept.reserve(beats.size_hint().0);
        }
        let mut count = 0usize;
        let mut mark = telemetry.start();
        let (accounted, due, producer_dropped) = {
            let mut shard = self.shards[shard_index]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            // get_mut first: an existing entry costs one lookup and no
            // allocation; only an app's first-ever batch pays the owned key.
            let entry = match shard.get_mut(key) {
                Some(entry) => entry,
                // hb-lint: allow(alloc): first-ever batch for a new app; one-time registration, off the steady-state path
                None => self.entry_in(&mut shard, key.to_string()),
            };
            let beats = beats.inspect(|beat| {
                count += 1;
                if keep {
                    kept.push(*beat);
                }
            });
            let accounted = Self::absorb(entry, dropped_total, beats);
            let due = self.due_events(key, entry, count, &watchers);
            (accounted, due, entry.producer_dropped)
        };
        // Lap the clock at the lock boundary: one read closes the ingest
        // span and opens the fan-out span.
        telemetry.lap(&telemetry.ingest, &mut mark);
        // hb-lint: end-hot-path
        // ordering: relaxed counter; read only for monitoring totals
        self.beats_accounted.fetch_add(accounted, Ordering::Relaxed);
        // Encoding and enqueueing all happen outside the shard lock:
        // fan-out work must not stall other producers of the same shard.
        // Ready events go first, in matched order. Raw beats are never
        // throttled (counts must stay exact for any subscriber fast enough
        // to drain its queue) and go out through the encode-once path.
        let beat_events = wants_beats && count > 0;
        let fan_out = beat_events || !due.is_empty();
        for (watcher, payload) in due {
            self.deliver(watcher, key, payload);
        }
        if beat_events {
            watchers.retain(|watcher| watcher.wants(Interest::BEATS.bits()));
            self.subs
                .deliver_beats(&watchers, key, producer_dropped, &kept);
        }
        if fan_out {
            telemetry.observe(&telemetry.fanout, mark);
        }
        if let Some(tap) = &self.upstream_tap {
            tap.capture(key, dropped_total, kept);
        }
    }

    /// Delivers one event toward `entry`'s subscriber, journaling it first
    /// if it is a health transition: transitions are rare and high-signal —
    /// exactly what the `TRACE` window is for.
    pub(crate) fn deliver(&self, entry: &SubEntry, app: &str, payload: EventPayload) {
        if let EventPayload::HealthTransition { from, to, .. } = &payload {
            crate::log!(Level::Info, "health transition app={app} {from} -> {to}");
        }
        self.subs.deliver(entry, app, payload);
    }

    /// Decides which snapshot and health events one absorbed batch owes its
    /// watchers, in matched order (raw beats are the caller's). Runs under
    /// the shard lock (it reads the live entry and refreshes its health
    /// window), so it only *decides and snapshots scalars* — encoding and
    /// enqueueing wait for the unlock. Allocates only when an event is due.
    fn due_events<'w>(
        &self,
        app: &str,
        entry: &mut AppEntry,
        batch_len: usize,
        watchers: &'w [Arc<SubEntry>],
    ) -> Vec<(&'w SubEntry, EventPayload)> {
        let mut due = Vec::new();
        if batch_len == 0 || watchers.is_empty() {
            // Empty batches only refresh the producer drop counter; there
            // is no progress to announce (and unwatched apps skip the
            // clock read).
            return due;
        }
        let now = Instant::now();
        for watcher in watchers {
            if watcher.wants(Interest::SNAPSHOTS.bits()) && watcher.due(Due::Snapshot, app, now) {
                let snapshot = EventPayload::Snapshot {
                    total_beats: entry.total_beats,
                    producer_dropped: entry.producer_dropped,
                    rate_bps: entry.window.rate(),
                    target: entry.target,
                    alive: true, // the batch in hand is the proof
                };
                due.push((&**watcher, snapshot));
            }
            // Health transitions are detected *at ingest*, not when an
            // observer happens to poll: the assessment runs right where the
            // beat landed, and only actual transitions travel.
            if watcher.wants(Interest::HEALTH.bits()) && watcher.due(Due::Assess, app, now) {
                let report = entry.health(&self.config.health);
                if let Some(transition) = Self::health_event(watcher, app, report) {
                    due.push((&**watcher, transition));
                }
            }
        }
        due
    }

    /// The event `watcher` owes for `app`'s fresh health `report`: a
    /// transition from the class it was last told, or nothing if unchanged.
    fn health_event(watcher: &SubEntry, app: &str, report: HealthReport) -> Option<EventPayload> {
        let from = watcher.health_transition(app, report.status)?;
        Some(EventPayload::HealthTransition {
            from,
            to: report.status,
            reasons: report.reasons,
            window_beats: report.window_beats,
        })
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
                if !entry.matches(&app) || !entry.due(Due::Assess, &app, now) {
                    continue;
                }
                let Some(report) = self.health(&app) else {
                    continue;
                };
                if let Some(payload) = Self::health_event(&entry, &app, report) {
                    self.deliver(&entry, &app, payload);
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
        let queue = Arc::new(self.subscriber_queue());
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

    /// An empty subscriber queue of the configured capacity, recording
    /// delivery lag when telemetry is on.
    pub(crate) fn subscriber_queue(&self) -> SubscriberQueue {
        let lag = self
            .config
            .telemetry
            .then(|| Arc::clone(&self.telemetry.delivery));
        SubscriberQueue::with_telemetry(self.config.sub_queue_capacity, lag)
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

    /// Absorbs one batch a child collector relayed, under its namespaced
    /// registry `key`, and re-captures it into this tier's own tap when it
    /// federates further up. No subscriber fan-out: relayed activity
    /// reaches subscribers through subscription propagation alone.
    pub(crate) fn absorb_relayed(&self, key: String, dropped_total: u64, beats: Vec<WireBeat>) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        let entry = self.entry_in(&mut shard, key.clone());
        let accounted = Self::absorb(entry, dropped_total, beats.iter().copied());
        drop(shard);
        self.beats_accounted.fetch_add(accounted, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        if let Some(tap) = &self.upstream_tap {
            tap.capture(&key, dropped_total, beats);
        }
    }

    /// `key`'s entry in its locked registry partition, registering the app
    /// on first sight (its pid and window stay unknown until a Hello).
    fn entry_in<'a>(
        &self,
        shard: &'a mut HashMap<String, AppEntry>,
        key: String,
    ) -> &'a mut AppEntry {
        let config = &self.config;
        shard
            .entry(key)
            .or_insert_with(|| AppEntry::new(0, heartbeats::DEFAULT_WINDOW as u32, config))
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
        let entry = self.entry_in(&mut shard, app.to_string());
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

    /// Visits every registered application once, one partition lock at a
    /// time, and returns `row`'s result for each, sorted by name: the one
    /// pass behind every sorted per-application listing.
    fn scan<T>(&self, mut row: impl FnMut(&str, &mut AppEntry) -> T) -> Vec<(String, T)> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            for (app, entry) in shard.iter_mut() {
                rows.push((app.clone(), row(app, entry)));
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Snapshots of every registered application, sorted by name.
    pub fn snapshots(&self) -> Vec<AppSnapshot> {
        let rows = self.scan(|app, entry| self.snapshot_entry(app, entry));
        rows.into_iter().map(|(_, snapshot)| snapshot).collect()
    }

    /// Every registered application's snapshot and health class, sorted by
    /// name: the per-application rows of a metrics scrape, read in one pass.
    pub(crate) fn scrape_rows(&self) -> Vec<(AppSnapshot, HealthStatus)> {
        let rows = self.scan(|app, entry| {
            let health = entry.health(&self.config.health).status;
            (self.snapshot_entry(app, entry), health)
        });
        rows.into_iter().map(|(_, row)| row).collect()
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
        let mut shard = self.shard(app).lock().unwrap_or_else(|e| e.into_inner());
        shard
            .get_mut(app)
            .map(|entry| entry.health(&self.config.health))
    }

    /// Health classifications of every registered application, sorted by
    /// name.
    pub fn healths(&self) -> Vec<(String, HealthReport)> {
        self.scan(|_, entry| entry.health(&self.config.health))
    }

    /// Names of all registered applications, sorted.
    pub fn app_names(&self) -> Vec<String> {
        let rows = self.scan(|_, _| ());
        rows.into_iter().map(|(app, ())| app).collect()
    }

    /// An app × time-bucket beat-rate matrix rendered from the history
    /// rings — the CloudHeatMap view of the fleet. Each application's
    /// window is anchored at its **own newest sample** (producer clocks are
    /// not comparable across hosts): bucket `buckets-1` is the `width`
    /// ending at that sample, bucket `buckets-2` the `width` before it, and
    /// so on. Returns `(app, rates)` sorted by name; `rates[i]` is in
    /// beats/second, `0.0` where the ring holds no samples that old.
    pub fn heatmap(&self, buckets: usize, width: Duration) -> Vec<(String, Vec<f64>)> {
        let buckets = buckets.clamp(1, 64);
        let width_ns = width.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let width_s = width_ns as f64 / 1e9;
        self.scan(|_, entry| {
            let newest = entry.history.iter().map(|s| s.timestamp_ns).max();
            let newest = newest.unwrap_or(0);
            let mut counts = vec![0u64; buckets];
            for sample in entry.history.iter() {
                let back = (newest - sample.timestamp_ns) / width_ns;
                if let Some(count) = counts.iter_mut().rev().nth(back as usize) {
                    *count += 1;
                }
            }
            counts.into_iter().map(|c| c as f64 / width_s).collect()
        })
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

    /// Total producer connections served since start: the sum of the
    /// per-shard counts, each taken when a connection is installed on its
    /// shard.
    pub fn connections_total(&self) -> u64 {
        self.shard_counters()
            .iter()
            .map(|(connections, _)| connections)
            .sum()
    }

    /// Total frames ingested since start: the sum of the per-shard counts.
    pub fn frames_total(&self) -> u64 {
        self.shard_counters().iter().map(|(_, frames)| frames).sum()
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

/// Who is on the far end of an ingest connection, as far as its frames
/// have shown so far.
pub(crate) enum Peer {
    /// No Hello or NodeHello yet.
    Fresh,
    /// A producer after its one Hello: the registry handle every batch
    /// ingests through, and the app's home reactor shard — the reactor
    /// migrates the connection there so every batch ingests shard-local.
    App { handle: AppHandle, home: usize },
    /// A child collector's NodeHello held until a [`Frame::NodeAuth`]
    /// answers `nonce` (the collector runs with a cluster secret).
    Challenged {
        node: String,
        pid: u32,
        path: Vec<String>,
        nonce: [u8; crate::wire::AUTH_LEN],
    },
    /// A child collector's relay. The session token guards against a
    /// stale, not-yet-reaped connection racing the child's fresh
    /// reconnect; `ack_due` is set when a relay event was applied this
    /// read burst, and one coalesced [`Frame::RelayAck`] goes out when the
    /// decode loop drains.
    Link {
        link: Arc<UpstreamLink>,
        session: u64,
        ack_due: bool,
    },
}

impl Peer {
    /// The producer's app name for the journal, `?` for any other peer.
    fn app(&self) -> &str {
        match self {
            Peer::App { handle, .. } => handle.app(),
            _ => "?",
        }
    }
}

/// Per-connection state machine for one producer: an incremental frame
/// decoder plus who its frames have shown the peer to be.
struct ProducerHandler {
    state: Arc<CollectorState>,
    decoder: FrameDecoder,
    peer: Peer,
    /// Whether this connection has been attributed to a shard's
    /// `hb_collector_shard_connections` gauge yet (exactly once, see
    /// [`CollectorState::count_connection_once`]).
    counted: bool,
    /// This connection's pump handle; a link session binds its outbox to it.
    pump: Option<PumpHandle>,
}

impl ProducerHandler {
    fn new(state: Arc<CollectorState>) -> Self {
        ProducerHandler {
            state,
            decoder: FrameDecoder::new(),
            peer: Peer::Fresh,
            counted: false,
            pump: None,
        }
    }

    /// Moves to the peer state an admission check returned; `None` refuses
    /// the connection. A link's outbox is bound to this connection's pump.
    fn admit(&mut self, next: Option<Peer>) -> bool {
        let Some(peer) = next else {
            return false;
        };
        if let (Peer::Link { link, .. }, Some(pump)) = (&peer, &self.pump) {
            link.attach_pump(pump.clone());
        }
        self.peer = peer;
        true
    }

    /// Refuses the connection for a protocol violation: counts it once
    /// and journals why.
    fn refuse(&self, why: std::fmt::Arguments<'_>) -> bool {
        self.state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        crate::log!(Level::Warn, "protocol error: {why}");
        false
    }

    /// The link this connection serves, while its session is the child's
    /// current one (a replaced session must not act for the link any more).
    fn current_link(&self) -> Option<&UpstreamLink> {
        match &self.peer {
            Peer::Link { link, session, .. } if link.current_session() == *session => Some(link),
            _ => None,
        }
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
            let event = match self.decoder.next_event() {
                Ok(Some(event)) => event,
                Ok(None) => {
                    // One cumulative ack per read burst, however many relay
                    // events it carried.
                    if let Peer::Link { link, ack_due, .. } = &mut self.peer {
                        if std::mem::take(ack_due) {
                            Frame::RelayAck {
                                last_applied: link.last_applied(),
                            }
                            .encode_into(out.vec_mut());
                        }
                    }
                    return true; // need more bytes
                }
                Err(err) => {
                    let app = self.peer.app();
                    return self.refuse(format_args!("bad frame from app={app}: {err:?}"));
                }
            };
            telemetry.observe(&telemetry.decode, started);
            self.state.count_frame();
            // The admitted (peer, frame) pairs are the ingest protocol;
            // every other pair is refused by the last arm.
            match (&mut self.peer, event) {
                (Peer::App { handle, .. }, FrameEvent::Beats(view)) => self
                    .state
                    .ingest_batch_with(handle, view.dropped_total(), view.iter()),
                (Peer::Fresh, FrameEvent::Control(Frame::Hello(hello))) => {
                    crate::log!(
                        Level::Info,
                        "hello app={} pid={} window={}",
                        hello.app,
                        hello.pid,
                        hello.default_window
                    );
                    let handle = self
                        .state
                        .hello(&hello.app, hello.pid, hello.default_window);
                    let home = self.state.home_reactor_shard(&handle);
                    self.peer = Peer::App { handle, home };
                    // The handshake every producer waits for before it
                    // ships anything else.
                    Frame::HelloAck {
                        max_version: VERSION,
                    }
                    .encode_into(out.vec_mut());
                    // If this thread is not the app's home shard, yield
                    // now: the reactor reads `home_shard()`, migrates the
                    // connection, and the install pass on the home shard
                    // resumes this decode loop (any frames already
                    // buffered included) via an empty on_data — so no beat
                    // is ever absorbed off-shard.
                    if crate::reactor::current_shard().is_some_and(|current| current != home) {
                        return true;
                    }
                }
                (
                    Peer::App { handle, .. },
                    FrameEvent::Control(Frame::Target { min_bps, max_bps }),
                ) => self.state.target(handle.app(), min_bps, max_bps),
                (_, FrameEvent::Control(Frame::Bye)) => {
                    crate::log!(Level::Debug, "bye app={}", self.peer.app());
                    return false;
                }
                (Peer::Fresh, FrameEvent::Control(Frame::NodeHello { node, pid, path })) => {
                    let next = self.state.node_hello(node, pid, path, out);
                    if !self.admit(next) {
                        return false;
                    }
                }
                (
                    Peer::Challenged {
                        node,
                        pid,
                        path,
                        nonce,
                    },
                    FrameEvent::Control(Frame::NodeAuth { mac }),
                ) => {
                    let path = std::mem::take(path);
                    let next = self.state.node_auth(node, *pid, path, nonce, &mac, out);
                    if !self.admit(next) {
                        return false;
                    }
                }
                (
                    Peer::Link { link, ack_due, .. },
                    FrameEvent::Control(Frame::RelayEvent { seq, event }),
                ) => {
                    self.state.apply_relay_event(link, seq, event);
                    *ack_due = true;
                }
                (Peer::Link { link, .. }, FrameEvent::Control(Frame::Event(event))) => {
                    self.state.deliver_routed_event(link, event)
                }
                // Out of turn (beats or a target before hello, a second
                // hello, a relay frame on a producer connection, ...), or
                // never ingest traffic at all (queries, replies).
                (_, event) => {
                    let (kind, app) = (event.kind(), self.peer.app());
                    return self
                        .refuse(format_args!("frame kind {kind} out of turn from app={app}"));
                }
            }
        }
    }

    fn on_eof(&mut self, _out: &mut OutBuf) {
        if self.decoder.buffered() > 0 {
            // The stream died mid-frame: truncation, not a clean goodbye.
            let app = self.peer.app();
            self.refuse(format_args!(
                "producer stream truncated mid-frame app={app}"
            ));
        }
    }

    fn on_install(&mut self, pump: PumpHandle) {
        // No link to re-attach: a link connection never migrates.
        self.pump = Some(pump);
    }

    fn on_pump(&mut self, out: &mut OutBuf, _pending_out: usize, cause: PumpCause) -> bool {
        if let Some(link) = self.current_link() {
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
        true
    }

    fn keep_alive(&self) -> bool {
        // A live link is legitimately silent when its child has nothing to
        // roll up; a *stale* link session gets no exemption.
        self.current_link().is_some()
    }

    fn on_close(&mut self) {
        // A connection torn down before its first on_data (e.g. a failed
        // install) still counts toward exactly one shard gauge.
        self.state.count_connection_once(&mut self.counted);
        match std::mem::replace(&mut self.peer, Peer::Fresh) {
            Peer::App { handle, .. } => self.state.goodbye(handle.app()),
            Peer::Link { link, session, .. } => {
                crate::log!(Level::Info, "link down node={}", link.node);
                link.end_session(session);
            }
            Peer::Fresh | Peer::Challenged { .. } => {}
        }
    }

    fn home_shard(&self) -> Option<usize> {
        match self.peer {
            Peer::App { home, .. } => Some(home),
            _ => None,
        }
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
                    Arc::new(state.subscriber_queue().with_pump(pump.clone()))
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

/// Whether `bytes` may be the start of a binary frame. Binary frames start
/// with the 4-byte magic; no line command does (line commands are ASCII
/// words like HELP/HISTORY, and the magic contains no newline).
fn starts_like_frame(bytes: &[u8]) -> bool {
    let magic = crate::wire::MAGIC.to_le_bytes();
    magic.starts_with(bytes.get(..magic.len()).unwrap_or(bytes))
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
            if starts_like_frame(avail) {
                let (kind, payload, used) = match split_frame(avail) {
                    Ok(Some(split)) => split,
                    Ok(None) => break, // incomplete frame; wait for more
                    Err(_) => return false,
                };
                let Ok(frame) = Frame::decode_payload_body(kind, payload) else {
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
        let limit = if starts_like_frame(&self.buf) {
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
    use crate::wire::EventFrame;
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
            beats(&[
                0,
                100_000_000,
                200_000_000,
                300_000_000,
                400_000_000,
                500_000_000,
            ]),
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
        state.ingest_batch(
            "slow",
            0,
            beats(&[0, 100_000_000, 200_000_000, 300_000_000]),
        );
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
        assert!(
            text.contains("hb_app_health{app=\"live\"} 3"),
            "healthy = 3"
        );
        assert!(
            text.contains("hb_app_health{app=\"quiet\"} 0"),
            "no signal = 0"
        );
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
                assert_eq!(health.report.status, crate::health::HealthStatus::NoSignal);
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
                text.contains(&format!(
                    "hb_collector_shard_connections{{shard=\"{shard}\"}}"
                )),
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
        assert_eq!(
            series_sum("hb_collector_shard_frames"),
            state.frames_total()
        );
        assert_eq!(
            series_sum("hb_collector_shard_apps"),
            state.app_names().len() as u64
        );
        assert!(text.contains("hb_collector_cross_shard_ingest_total 0"));
    }

    /// One encoded frame of each kind an ingest connection might be sent,
    /// named as in the refusal matrix below.
    fn matrix_frame(kind: &str) -> Vec<u8> {
        let batch = || {
            let mut encoder = crate::wire::BatchEncoder::new();
            encoder.begin_compact(0);
            for beat in beats(&[1_000, 2_000]) {
                encoder.push(&beat);
            }
            encoder.finish().to_vec()
        };
        let event = || EventFrame {
            sub_id: 1,
            sent_at_ns: 0,
            cursor: 0,
            app: "cam".into(),
            payload: EventPayload::Beats {
                dropped_total: 0,
                beats: beats(&[1_000]),
            },
        };
        let frame = match kind {
            "Beats" => return batch(),
            "Target" => Frame::Target {
                min_bps: 1.0,
                max_bps: 2.0,
            },
            "Hello" => Frame::Hello(crate::wire::Hello {
                app: "app".into(),
                pid: 1,
                default_window: 20,
            }),
            "NodeHello" => Frame::NodeHello {
                node: "leaf".into(),
                pid: 2,
                path: vec!["leaf".into()],
            },
            "NodeAuth" => Frame::NodeAuth {
                mac: [0; crate::wire::AUTH_LEN],
            },
            "RelayEvent" => Frame::RelayEvent {
                seq: 1,
                event: event(),
            },
            "Event" => Frame::Event(event()),
            "HelloAck" => Frame::HelloAck {
                max_version: VERSION,
            },
            "StatsReq" => Frame::StatsReq,
            other => panic!("no matrix frame {other}"),
        };
        frame.encode()
    }

    /// Every (connection state, frame) pair the ingest protocol does not
    /// admit is refused the same way: the connection closes, exactly one
    /// refusal counter rises, no beat is accounted, and closing leaves no
    /// app holding a connection.
    #[test]
    fn producer_refusal_matrix() {
        let columns = [
            "Beats",
            "Target",
            "Hello",
            "NodeHello",
            "NodeAuth",
            "RelayEvent",
            "Event",
            "HelloAck",
            "StatsReq",
        ];
        /// (row, prefix frames, cluster secret, frames the state admits)
        type Row = (
            &'static str,
            &'static [&'static str],
            Option<&'static str>,
            &'static [&'static str],
        );
        let rows: [Row; 4] = [
            ("fresh", &[], None, &["Hello", "NodeHello"]),
            ("app", &["Hello"], None, &["Beats", "Target"]),
            ("link", &["NodeHello"], None, &["RelayEvent", "Event"]),
            ("challenged", &["NodeHello"], Some("s3cret"), &["NodeAuth"]),
        ];
        let mut failures = Vec::new();
        for (row, prefix, secret, admitted) in rows {
            for column in columns {
                if admitted.contains(&column) {
                    continue;
                }
                let state = Arc::new(CollectorState::new(CollectorConfig {
                    io_threads: 1,
                    cluster_secret: secret.map(str::to_string),
                    ..CollectorConfig::default()
                }));
                let mut handler = ProducerHandler::new(Arc::clone(&state));
                let mut out = OutBuf::new();
                for frame in prefix {
                    assert!(handler.on_data(&matrix_frame(frame), &mut out), "{row}");
                }
                let errors = state.protocol_errors();
                let rejected = state.uplink_rejections();
                let accounted = state.beats_accounted();
                let open = handler.on_data(&matrix_frame(column), &mut out);
                let (loops, auths) = state.uplink_rejections();
                let refusals = (state.protocol_errors() - errors)
                    + (loops - rejected.0)
                    + (auths - rejected.1);
                handler.on_close();
                let held: Vec<String> = state
                    .snapshots()
                    .into_iter()
                    .filter(|snap| snap.connections != 0)
                    .map(|snap| snap.app)
                    .collect();
                if open || refusals != 1 || state.beats_accounted() != accounted || !held.is_empty()
                {
                    failures.push(format!(
                        "{row}+{column}: open={open} refusals={refusals} held={held:?}"
                    ));
                }
            }
        }
        assert!(failures.is_empty(), "admitted or miscounted: {failures:#?}");
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
