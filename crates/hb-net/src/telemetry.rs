//! Self-observation for the collector pipeline: latency histograms,
//! per-reactor-thread utilization, and a lock-free in-process event journal.
//!
//! The paper's thesis is that applications should expose their own
//! performance signals; this module turns the same lens on the collector
//! itself. Three instruments, all allocation-free on the paths they watch:
//!
//! * [`LatencyHisto`] — atomic, log-bucketed (power-of-two nanosecond
//!   boundaries) latency histograms. Recording is three relaxed atomic adds
//!   and no allocation; snapshots are mergeable and render directly as
//!   Prometheus `histogram` series. One histogram per pipeline stage lives
//!   in [`PipelineTelemetry`] (frame decode, batch ingest, subscription
//!   fan-out, pump drain, query handling, delivery lag).
//! * [`ReactorThreads`] / [`ThreadStats`] — per-I/O-thread utilization:
//!   nanoseconds spent busy vs parked in the poller, loop iterations and
//!   handler dispatches. Aggregates hide a single hot thread; per-thread
//!   series (in the spirit of the per-thread heartbeat diagnosis work) do
//!   not.
//! * [`Journal`] — a bounded, lock-free ring of recent structured log
//!   entries (connection accept/evict, negotiation outcomes, subscriber
//!   drops, health transitions), written through the leveled
//!   [`log!`](crate::log!) macro and dumped over the query port by the
//!   `TRACE [n]` line command. Writers never block and never allocate
//!   beyond the formatting scratch; readers validate a per-slot sequence
//!   number, so a torn racing write is skipped, never misreported.
//!
//! When telemetry is disabled ([`PipelineTelemetry::set_enabled`]) every
//! instrumented stage costs exactly one relaxed atomic load — the property
//! the `telemetry` bench pins.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::reactor::PumpCause;

/// Number of buckets in a [`LatencyHisto`]. Bucket `i` counts values whose
/// bit width is `i` — i.e. the half-open range `[2^(i-1), 2^i)` nanoseconds
/// (bucket 0 counts zeros) — so the top bucket absorbs everything from
/// `2^(HISTO_BUCKETS-2)` ns (~2.3 minutes) up.
pub const HISTO_BUCKETS: usize = 40;

/// An allocation-free latency histogram with power-of-two nanosecond
/// buckets.
///
/// `record` is three relaxed `fetch_add`s — safe on any hot path — and the
/// bucket index is a single `leading_zeros`, no search. Snapshots merge
/// associatively, so per-shard or per-thread histograms can be summed
/// without coordination.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto::new()
    }
}

impl LatencyHisto {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHisto {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket index `value` lands in: its bit width, clamped to the top
    /// bucket. Every `u64` lands in exactly one bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
    }

    /// The largest value bucket `index` counts (inclusive), in nanoseconds.
    /// The top bucket is unbounded (`u64::MAX`).
    #[inline]
    pub fn bucket_upper_ns(index: usize) -> u64 {
        if index >= HISTO_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        self.sum_ns.fetch_add(ns, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Records one observation of an elapsed [`Duration`].
    #[inline]
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// A point-in-time copy of the counters. Taken bucket by bucket without
    /// a lock, so a snapshot racing recorders may be off by in-flight
    /// observations — never torn within one counter.
    pub fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)), // ordering: monitoring read; staleness is acceptable
            sum_ns: self.sum_ns.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            count: self.count.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
        }
    }
}

/// A mergeable point-in-time copy of a [`LatencyHisto`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Per-bucket observation counts (see [`LatencyHisto::bucket_upper_ns`]).
    pub buckets: [u64; HISTO_BUCKETS],
    /// Sum of all recorded values, nanoseconds.
    pub sum_ns: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        HistoSnapshot {
            buckets: [0; HISTO_BUCKETS],
            sum_ns: 0,
            count: 0,
        }
    }
}

impl HistoSnapshot {
    /// Adds `other`'s counts into `self`. Merging is commutative and
    /// associative (saturating, so pathological sums cannot wrap).
    pub fn merge(&mut self, other: &HistoSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.count = self.count.saturating_add(other.count);
    }

    /// Renders this snapshot as a Prometheus `histogram` — `# HELP`,
    /// `# TYPE`, cumulative `_bucket{le="…"}` lines (seconds), `_sum` and
    /// `_count` — appended to `out`. Empty buckets above the highest
    /// populated one are elided (the mandatory `+Inf` bucket always
    /// closes the series).
    pub fn render_prometheus(&self, out: &mut String, name: &str, help: &str) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let top = self
            .buckets
            .iter()
            .rposition(|&c| c != 0)
            .map(|i| i.min(HISTO_BUCKETS - 2))
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for index in 0..=top {
            cumulative += self.buckets[index];
            let le = LatencyHisto::bucket_upper_ns(index) as f64 / 1e9;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", self.count);
        let _ = writeln!(out, "{name}_sum {}", self.sum_ns as f64 / 1e9);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }
}

/// One latency histogram per collector pipeline stage, plus the master
/// enable switch the instrumented call sites check.
#[derive(Debug)]
pub struct PipelineTelemetry {
    enabled: AtomicBool,
    /// Incremental frame decode, per frame yielded by the decoder.
    pub decode: LatencyHisto,
    /// Registry ingest (`ingest_batch`), per absorbed batch.
    pub ingest: LatencyHisto,
    /// Subscription fan-out (encode + bounded-queue enqueue), per batch
    /// with at least one watcher.
    pub fanout: LatencyHisto,
    /// Observer pump pass (silence sweep + queue drain), per pass.
    pub pump: LatencyHisto,
    /// Query handling (line commands and binary query frames), per request.
    pub query: LatencyHisto,
    /// Subscription delivery lag: event enqueue (the collector-side send
    /// timestamp) to drain into the connection's outbound buffer. `Arc`ed
    /// so subscriber queues record into the same histogram the exporter
    /// renders (see [`SubscriberQueue::with_telemetry`]); whether a queue
    /// records at all is decided at queue creation, not by the runtime
    /// enable flag.
    ///
    /// [`SubscriberQueue::with_telemetry`]: crate::subscribe::SubscriberQueue::with_telemetry
    pub delivery: std::sync::Arc<LatencyHisto>,
}

impl PipelineTelemetry {
    /// Creates the per-stage histograms, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Self::with_delivery(enabled, std::sync::Arc::new(LatencyHisto::new()))
    }

    /// Creates per-stage histograms that record delivery lag into a shared
    /// `delivery` sink. Per-reactor-shard telemetry instances use this so
    /// every shard's subscriber queues feed one delivery-lag histogram
    /// while the per-stage histograms stay contention-free per shard and
    /// merge at render time ([`HistoSnapshot::merge`]).
    pub fn with_delivery(enabled: bool, delivery: std::sync::Arc<LatencyHisto>) -> Self {
        PipelineTelemetry {
            enabled: AtomicBool::new(enabled),
            decode: LatencyHisto::new(),
            ingest: LatencyHisto::new(),
            fanout: LatencyHisto::new(),
            pump: LatencyHisto::new(),
            query: LatencyHisto::new(),
            delivery,
        }
    }

    /// True while stage timing is being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) // ordering: sampling toggle; a stale read just samples one extra loop
    }

    /// Enables or disables stage timing at runtime. Disabled stages cost
    /// one relaxed atomic load each (this flag); histograms keep whatever
    /// they already recorded.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed); // ordering: sampling toggle; a stale read just samples one extra loop
    }

    /// Starts timing one stage: `None` (and nothing else — the one atomic
    /// load) when disabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        // ordering: sampling toggle; a stale read just samples one extra loop
        if self.enabled.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the time since [`start`](Self::start) into `histo`; no-op if
    /// the stage began disabled.
    #[inline]
    pub fn observe(&self, histo: &LatencyHisto, started: Option<Instant>) {
        if let Some(at) = started {
            histo.record_duration(at.elapsed());
        }
    }

    /// Records the time since `*mark` into `histo` and advances `*mark` to
    /// now, so consecutive stages on one code path share clock reads.
    #[inline]
    pub fn lap(&self, histo: &LatencyHisto, mark: &mut Option<Instant>) {
        if let Some(at) = mark {
            let now = Instant::now();
            histo.record_duration(now.duration_since(*at));
            *mark = Some(now);
        }
    }
}

/// Utilization counters of one reactor I/O thread. All fields are written
/// by that thread only and read by anyone.
#[derive(Debug, Default)]
pub struct ThreadStats {
    busy_ns: AtomicU64,
    wait_ns: AtomicU64,
    loops: AtomicU64,
    dispatches: AtomicU64,
    wakeups: AtomicU64,
    pumps_wake: AtomicU64,
    pumps_timer: AtomicU64,
}

impl ThreadStats {
    /// Adds time spent working (everything outside the poller wait).
    #[inline]
    pub fn add_busy(&self, elapsed: Duration) {
        self.busy_ns.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed, // ordering: relaxed counter; read only for monitoring totals
        );
    }

    /// Adds time spent parked in the poller.
    #[inline]
    pub fn add_wait(&self, elapsed: Duration) {
        self.wait_ns.fetch_add(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed, // ordering: relaxed counter; read only for monitoring totals
        );
    }

    /// Counts one readiness-loop iteration and the events it dispatched.
    #[inline]
    pub fn add_loop(&self, dispatched: usize) {
        self.loops.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        self.dispatches
            .fetch_add(dispatched as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Counts one eventfd wake-up consumed by the thread.
    #[inline]
    pub fn add_wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Counts one `on_pump` call, by what caused it.
    #[inline]
    pub fn add_pump(&self, cause: PumpCause) {
        let counter = match cause {
            PumpCause::Wake => &self.pumps_wake,
            PumpCause::Timer => &self.pumps_timer,
        };
        counter.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }
}

/// A point-in-time copy of one thread's [`ThreadStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadStatsSnapshot {
    /// The thread's index within the reactor pool (`hb-reactor-<index>`).
    pub index: usize,
    /// Nanoseconds spent working since spawn.
    pub busy_ns: u64,
    /// Nanoseconds spent parked in the poller since spawn.
    pub wait_ns: u64,
    /// Readiness-loop iterations.
    pub loops: u64,
    /// Readiness events dispatched to handlers.
    pub dispatches: u64,
    /// Times another thread woke this one out of the poller (eventfd
    /// wake-ups consumed; coalesced requests count once).
    pub wakeups: u64,
    /// `on_pump` calls made because a connection's pump was requested.
    pub pumps_wake: u64,
    /// `on_pump` calls made by the timed pass.
    pub pumps_timer: u64,
}

impl ThreadStatsSnapshot {
    /// Busy fraction of the observed time, `0.0..=1.0` (0 before any loop).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns.saturating_add(self.wait_ns);
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// Registry of every I/O thread's [`ThreadStats`], shared between the
/// reactor (writers) and the collector's exporters (readers).
#[derive(Debug, Default)]
pub struct ReactorThreads {
    threads: Mutex<Vec<std::sync::Arc<ThreadStats>>>,
}

impl ReactorThreads {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ReactorThreads::default()
    }

    /// Registers one thread's counters, returning the handle it writes
    /// through. Index order follows registration order, which the reactor
    /// performs before spawning, so indices match thread names.
    pub fn register(&self) -> std::sync::Arc<ThreadStats> {
        let stats = std::sync::Arc::new(ThreadStats::default());
        self.threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(std::sync::Arc::clone(&stats));
        stats
    }

    /// Snapshots every registered thread's counters.
    pub fn snapshot(&self) -> Vec<ThreadStatsSnapshot> {
        self.threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .enumerate()
            .map(|(index, stats)| ThreadStatsSnapshot {
                index,
                busy_ns: stats.busy_ns.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                wait_ns: stats.wait_ns.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                loops: stats.loops.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                dispatches: stats.dispatches.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                wakeups: stats.wakeups.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                pumps_wake: stats.pumps_wake.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
                pumps_timer: stats.pumps_timer.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            })
            .collect()
    }
}

/// Log severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Fine-grained events (per-frame, per-drop).
    Trace = 0,
    /// Per-connection lifecycle events.
    Debug = 1,
    /// Normal operational milestones (startup, negotiation).
    Info = 2,
    /// Anomalies the collector absorbed (drops, evictions, errors).
    Warn = 3,
    /// Failures that end a connection or the process.
    Error = 4,
}

impl Level {
    /// Stable lowercase name (`trace` … `error`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn from_u8(value: u8) -> Level {
        match value {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            _ => Level::Error,
        }
    }

    /// Parses a `--log-level` value (case-insensitive level name).
    pub fn parse(text: &str) -> Option<Level> {
        match text.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Entries retained by the in-process [`Journal`].
pub const JOURNAL_CAPACITY: usize = 1024;

/// Longest journal message, bytes; longer messages are truncated at a
/// UTF-8-safe boundary when read back.
pub const JOURNAL_MSG_CAP: usize = 128;

const MSG_WORDS: usize = JOURNAL_MSG_CAP / 8;

/// One slot of the journal ring. The sequence word is a per-slot seqlock:
/// `0` empty, `2n+1` while entry `n` is being written, `2n+2` once entry
/// `n` is committed. Every field is an atomic, so racing writers and
/// readers are merely inconsistent (and detected), never undefined.
struct Slot {
    seq: AtomicU64,
    ts_ms: AtomicU64,
    /// Bits 0–7 level, bits 8–15 message length.
    meta: AtomicU64,
    msg: [AtomicU64; MSG_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts_ms: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            msg: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One recovered journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global sequence number of the entry (monotone since process start).
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the UNIX epoch.
    pub ts_ms: u64,
    /// Severity.
    pub level: Level,
    /// The formatted message (truncated to [`JOURNAL_MSG_CAP`] bytes).
    pub message: String,
}

/// Fixed-capacity formatting buffer: `fmt::Write` into a stack array,
/// truncating at capacity instead of allocating.
struct FixedBuf {
    buf: [u8; JOURNAL_MSG_CAP],
    len: usize,
}

impl fmt::Write for FixedBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let room = JOURNAL_MSG_CAP - self.len;
        let take = s.len().min(room);
        self.buf[self.len..self.len + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take;
        Ok(())
    }
}

/// A bounded, lock-free ring of recent log entries.
///
/// Writers claim a slot with one `fetch_add` and publish through the slot's
/// sequence word; they never block, never allocate, and never wait for
/// readers. Readers walk backwards from the head and re-validate each
/// slot's sequence after copying, so an entry overwritten (or mid-write)
/// during the copy is skipped rather than returned torn. A writer lapped by
/// `capacity` concurrent writers can lose its slot to a newer entry —
/// acceptable for diagnostics, impossible to observe as corruption.
pub struct Journal {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.slots.len())
            .field("written", &self.head.load(Ordering::Relaxed)) // ordering: debug display only
            .finish()
    }
}

impl Journal {
    /// Creates a ring retaining the last `capacity` entries (min 2).
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            slots: (0..capacity.max(2)).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Entries ever written (the retained window is the last
    /// `capacity` of these).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Relaxed) // ordering: monotone write count; readers tolerate staleness
    }

    /// Appends one preformatted entry.
    pub fn record(&self, level: Level, args: fmt::Arguments<'_>) {
        use fmt::Write;
        let mut buf = FixedBuf {
            buf: [0; JOURNAL_MSG_CAP],
            len: 0,
        };
        let _ = buf.write_fmt(args);
        let ts_ms = wall_clock_ns() / 1_000_000;
        let n = self.head.fetch_add(1, Ordering::Relaxed); // ordering: slot claim needs only atomicity; the odd/even seq protocol orders the payload
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        slot.seq.store(2 * n + 1, Ordering::Release); // ordering: odd seq marks the slot busy before the payload writes; pairs with the reader's Acquire
        slot.ts_ms.store(ts_ms, Ordering::Relaxed); // ordering: slot payload; ordered by the odd/even seq stores around it
        slot.meta
            .store(level as u64 | ((buf.len as u64) << 8), Ordering::Relaxed); // ordering: slot payload; ordered by the odd/even seq stores around it
        for (index, word) in slot.msg.iter().enumerate() {
            let mut chunk = [0u8; 8];
            let at = index * 8;
            if at < buf.len {
                let take = (buf.len - at).min(8);
                chunk[..take].copy_from_slice(&buf.buf[at..at + take]);
            } else if at >= buf.len.next_multiple_of(8) {
                break; // remaining words are stale; length masks them out
            }
            word.store(u64::from_le_bytes(chunk), Ordering::Relaxed); // ordering: slot payload; ordered by the odd/even seq stores around it
        }
        slot.seq.store(2 * n + 2, Ordering::Release); // ordering: even seq publishes the payload; pairs with the reader's Acquire
    }

    /// The most recent `limit` entries, oldest first. Entries overwritten
    /// or mid-write while being copied are skipped.
    pub fn latest(&self, limit: usize) -> Vec<JournalEntry> {
        let head = self.head.load(Ordering::Acquire); // ordering: snapshot of the claim counter, ordered before the slot reads
        let capacity = self.slots.len() as u64;
        let span = (limit as u64).min(capacity).min(head);
        let mut entries = Vec::with_capacity(span as usize);
        for n in (head - span)..head {
            let slot = &self.slots[(n % capacity) as usize];
            let committed = 2 * n + 2;
            // ordering: acquires the payload published by the even-seq Release store
            if slot.seq.load(Ordering::Acquire) != committed {
                continue;
            }
            let ts_ms = slot.ts_ms.load(Ordering::Relaxed); // ordering: slot payload; torn reads are rejected by the seq re-check below
            let meta = slot.meta.load(Ordering::Relaxed); // ordering: slot payload; torn reads are rejected by the seq re-check below
            let mut raw = [0u8; JOURNAL_MSG_CAP];
            for (index, word) in slot.msg.iter().enumerate() {
                raw[index * 8..(index + 1) * 8]
                    // ordering: slot payload; torn reads are rejected by the seq re-check below
                    .copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
            }
            // ordering: orders the payload reads before the seq re-check (seqlock reader idiom)
            std::sync::atomic::fence(Ordering::Acquire);
            // ordering: the fence above orders the payload reads; a relaxed re-check suffices
            if slot.seq.load(Ordering::Relaxed) != committed {
                continue; // overwritten while copying
            }
            let len = ((meta >> 8) as usize).min(JOURNAL_MSG_CAP);
            let message = String::from_utf8_lossy(&raw[..len]).into_owned();
            entries.push(JournalEntry {
                seq: n,
                ts_ms,
                level: Level::from_u8((meta & 0xff) as u8),
                message,
            });
        }
        entries
    }
}

/// Wall-clock nanoseconds since the UNIX epoch — the send-timestamp clock
/// stamped on pushed events and journal entries.
pub fn wall_clock_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Minimum level recorded into the journal; `Trace` records everything.
static JOURNAL_LEVEL: AtomicU8 = AtomicU8::new(Level::Trace as u8);

/// Minimum level echoed to stderr; `OFF` (the default for library use)
/// echoes nothing. The `hb-collector` binary sets this from `--log-level`.
static STDERR_LEVEL: AtomicU8 = AtomicU8::new(STDERR_OFF);

const STDERR_OFF: u8 = u8::MAX;

static JOURNAL: OnceLock<Journal> = OnceLock::new();

/// The process-wide journal behind [`log!`](crate::log!) and `TRACE`.
pub fn journal() -> &'static Journal {
    JOURNAL.get_or_init(|| Journal::with_capacity(JOURNAL_CAPACITY))
}

/// Sets the minimum level recorded into the journal.
pub fn set_journal_level(level: Level) {
    JOURNAL_LEVEL.store(level as u8, Ordering::Relaxed); // ordering: log-level gate; stale reads keep the old verbosity briefly
}

/// Echoes journal entries at `level` and above to stderr; `None` silences
/// stderr (the library default — embedding programs own their stderr).
pub fn set_stderr_level(level: Option<Level>) {
    STDERR_LEVEL.store(
        level.map(|l| l as u8).unwrap_or(STDERR_OFF),
        Ordering::Relaxed, // ordering: log-level gate; stale reads keep the old verbosity briefly
    );
}

/// True if `level` passes either sink's threshold — the one check the
/// [`log!`](crate::log!) macro performs before formatting anything.
#[inline]
pub fn level_enabled(level: Level) -> bool {
    level as u8 >= JOURNAL_LEVEL.load(Ordering::Relaxed) // ordering: log-level gate; stale reads keep the old verbosity briefly
        || level as u8 >= STDERR_LEVEL.load(Ordering::Relaxed) // ordering: log-level gate; stale reads keep the old verbosity briefly
}

/// Routes one formatted record to the enabled sinks. Called by
/// [`log!`](crate::log!); prefer the macro.
pub fn dispatch(level: Level, args: fmt::Arguments<'_>) {
    // ordering: log-level gate; stale reads keep the old verbosity briefly
    if level as u8 >= JOURNAL_LEVEL.load(Ordering::Relaxed) {
        journal().record(level, args);
    }
    // ordering: log-level gate; stale reads keep the old verbosity briefly
    if level as u8 >= STDERR_LEVEL.load(Ordering::Relaxed) {
        eprintln!("hb-collector[{level}] {args}");
    }
}

/// Leveled structured logging into the in-process [`Journal`] (and stderr
/// when [`set_stderr_level`] enabled it):
///
/// ```
/// use hb_net::telemetry::{self, Level};
///
/// hb_net::log!(Level::Info, "producer connected peer={}", "10.0.0.7:4122");
/// let recent = telemetry::journal().latest(8);
/// assert!(recent.iter().any(|e| e.message.contains("10.0.0.7")));
/// ```
///
/// Formatting is skipped entirely when `level` passes no sink's threshold.
#[macro_export]
macro_rules! log {
    ($level:expr, $($arg:tt)*) => {{
        let level = $level;
        if $crate::telemetry::level_enabled(level) {
            $crate::telemetry::dispatch(level, ::core::format_args!($($arg)*));
        }
    }};
}

// Make the macro reachable as `telemetry::log!` to match the module it
// belongs to (macro_export places it at the crate root).
pub use crate::log;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries_are_monotone_and_exhaustive() {
        for i in 1..HISTO_BUCKETS {
            assert!(
                LatencyHisto::bucket_upper_ns(i) > LatencyHisto::bucket_upper_ns(i - 1),
                "bucket {i} upper bound must exceed bucket {}",
                i - 1
            );
        }
        for value in [0u64, 1, 2, 3, 4, 127, 128, 1_000_000, u64::MAX] {
            let index = LatencyHisto::bucket_index(value);
            assert!(value <= LatencyHisto::bucket_upper_ns(index));
            if index > 0 {
                assert!(
                    value > LatencyHisto::bucket_upper_ns(index - 1),
                    "{value} must not also fit bucket {}",
                    index - 1
                );
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let histo = LatencyHisto::new();
        histo.record(0);
        histo.record(1);
        histo.record(1024);
        histo.record_duration(Duration::from_nanos(1024));
        let snap = histo.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_ns, 2049);
        assert_eq!(snap.buckets[LatencyHisto::bucket_index(0)], 1);
        assert_eq!(snap.buckets[LatencyHisto::bucket_index(1024)], 2);
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let mut a = HistoSnapshot::default();
        a.buckets[3] = 5;
        a.sum_ns = 50;
        a.count = 5;
        let mut b = HistoSnapshot::default();
        b.buckets[3] = 1;
        b.buckets[7] = 2;
        b.sum_ns = 300;
        b.count = 3;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 8);
        assert_eq!(ab.buckets[3], 6);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_closed() {
        let histo = LatencyHisto::new();
        histo.record(1);
        histo.record(1);
        histo.record(100);
        let mut out = String::new();
        histo
            .snapshot()
            .render_prometheus(&mut out, "hb_test_seconds", "test histogram");
        assert!(out.contains("# HELP hb_test_seconds test histogram"));
        assert!(out.contains("# TYPE hb_test_seconds histogram"));
        assert!(out.contains("hb_test_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("hb_test_seconds_count 3"));
        // Cumulative counts never decrease down the bucket list.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "cumulative counts must be monotone: {out}");
            last = count;
        }
    }

    #[test]
    fn thread_stats_snapshot_and_utilization() {
        let threads = ReactorThreads::new();
        let a = threads.register();
        let _b = threads.register();
        a.add_busy(Duration::from_nanos(300));
        a.add_wait(Duration::from_nanos(100));
        a.add_loop(7);
        let snaps = threads.snapshot();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].index, 0);
        assert_eq!(snaps[0].busy_ns, 300);
        assert_eq!(snaps[0].wait_ns, 100);
        assert_eq!(snaps[0].loops, 1);
        assert_eq!(snaps[0].dispatches, 7);
        assert!((snaps[0].utilization() - 0.75).abs() < 1e-12);
        assert_eq!(snaps[1].utilization(), 0.0);
    }

    #[test]
    fn journal_retains_latest_entries_in_order() {
        let journal = Journal::with_capacity(8);
        for i in 0..20 {
            journal.record(Level::Info, format_args!("entry {i}"));
        }
        let entries = journal.latest(100);
        assert_eq!(entries.len(), 8, "bounded at capacity");
        let messages: Vec<&str> = entries.iter().map(|e| e.message.as_str()).collect();
        assert_eq!(messages[0], "entry 12");
        assert_eq!(messages[7], "entry 19");
        assert!(entries.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        let two = journal.latest(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[1].message, "entry 19");
    }

    #[test]
    fn journal_truncates_oversized_messages() {
        let journal = Journal::with_capacity(4);
        let long = "x".repeat(JOURNAL_MSG_CAP * 2);
        journal.record(Level::Warn, format_args!("{long}"));
        let entries = journal.latest(1);
        assert_eq!(entries[0].message.len(), JOURNAL_MSG_CAP);
        assert_eq!(entries[0].level, Level::Warn);
    }

    #[test]
    fn journal_survives_concurrent_writers() {
        let journal = Arc::new(Journal::with_capacity(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let journal = Arc::clone(&journal);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        journal.record(Level::Debug, format_args!("t{t} i{i}"));
                    }
                })
            })
            .collect();
        for handle in threads {
            handle.join().unwrap();
        }
        assert_eq!(journal.written(), 4000);
        let entries = journal.latest(64);
        assert!(!entries.is_empty());
        // Every recovered message is one a writer actually produced.
        for entry in entries {
            assert!(
                entry.message.starts_with('t') && entry.message.contains(" i"),
                "torn entry leaked: {:?}",
                entry.message
            );
        }
    }

    #[test]
    fn log_macro_reaches_the_global_journal() {
        crate::log!(Level::Info, "macro smoke {}", 42);
        let entries = journal().latest(JOURNAL_CAPACITY);
        assert!(entries.iter().any(|e| e.message == "macro smoke 42"));
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::Error.to_string(), "error");
    }

    #[test]
    fn pipeline_telemetry_disabled_records_nothing() {
        let telemetry = PipelineTelemetry::new(false);
        let started = telemetry.start();
        assert!(started.is_none(), "disabled stage must not read the clock");
        telemetry.observe(&telemetry.ingest, started);
        assert_eq!(telemetry.ingest.count(), 0);
        telemetry.set_enabled(true);
        let started = telemetry.start();
        telemetry.observe(&telemetry.ingest, started);
        assert_eq!(telemetry.ingest.count(), 1);
        let mut mark = telemetry.start();
        telemetry.lap(&telemetry.decode, &mut mark);
        telemetry.lap(&telemetry.query, &mut mark);
        assert_eq!(telemetry.decode.count(), 1);
        assert_eq!(telemetry.query.count(), 1);
    }
}
