//! The [`Heartbeat`] producer handle — the Rust realization of the paper's
//! Heartbeat API (Table 1).
//!
//! | Paper function        | Rust equivalent                                     |
//! |-----------------------|-----------------------------------------------------|
//! | `HB_initialize`       | [`HeartbeatBuilder`](crate::HeartbeatBuilder)       |
//! | `HB_heartbeat`        | [`Heartbeat::heartbeat`], [`Heartbeat::beat`]       |
//! | `HB_current_rate`     | [`Heartbeat::current_rate`]                         |
//! | `HB_set_target_rate`  | [`Heartbeat::set_target_rate`]                      |
//! | `HB_get_target_min`   | [`Heartbeat::target_min`]                           |
//! | `HB_get_target_max`   | [`Heartbeat::target_max`]                           |
//! | `HB_get_history`      | [`Heartbeat::history`]                              |
//!
//! Every function accepts the paper's `local` flag through the `*_scoped`
//! variants taking a [`BeatScope`]; the plain methods operate on the global
//! (per-application) heartbeat stream.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, Weak};

use crate::backend::{Backend, BeatScope};
use crate::buffer::{AtomicRing, HistoryBuffer, MutexRing};
use crate::clock::SharedClock;
use crate::record::{BeatThreadId, HeartbeatRecord, Tag};
use crate::target::{TargetRate, TargetStatus};
use crate::window::{self, WindowStats};
use crate::Result;

/// Which ring-buffer implementation backs the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BufferKind {
    /// Lock-free per-slot seqlock ring (default; beats never block).
    #[default]
    Atomic,
    /// Mutex-protected ring (mirrors the reference C implementation).
    Mutex,
}

impl BufferKind {
    pub(crate) fn build(self, capacity: usize) -> Arc<dyn HistoryBuffer> {
        match self {
            BufferKind::Atomic => Arc::new(AtomicRing::new(capacity)),
            BufferKind::Mutex => Arc::new(MutexRing::new(capacity)),
        }
    }
}

/// Process-wide allocator of dense thread ids.
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static CACHED_THREAD_ID: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
}

/// Returns the dense id of the calling thread, allocating one on first use.
pub fn current_thread_id() -> BeatThreadId {
    CACHED_THREAD_ID.with(|cell| {
        if let Some(id) = cell.get() {
            BeatThreadId(id)
        } else {
            let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            cell.set(Some(id));
            BeatThreadId(id)
        }
    })
}

/// Process-wide allocator of unique heartbeat-instance ids (cache keys for
/// the per-thread hot-path cache; never reused, so a recycled allocation
/// can't alias a dead instance's cache entry).
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// State shared between all clones of a [`Heartbeat`] and its readers.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) name: String,
    pub(crate) clock: SharedClock,
    pub(crate) global: Arc<dyn HistoryBuffer>,
    pub(crate) locals: RwLock<HashMap<u32, Arc<dyn HistoryBuffer>>>,
    pub(crate) default_window: usize,
    pub(crate) buffer_capacity: usize,
    pub(crate) buffer_kind: BufferKind,
    pub(crate) target: TargetRate,
    pub(crate) backends: RwLock<Vec<Arc<dyn Backend>>>,
    /// Bumped (release) after every backend-list change; beat threads
    /// revalidate their cached snapshot with one acquire load, so the
    /// steady-state hot path never touches the `backends` lock.
    pub(crate) backends_epoch: AtomicU64,
    /// Unique id keying the per-thread hot-path cache.
    pub(crate) instance_id: u64,
}

impl Shared {
    pub(crate) fn next_instance_id() -> u64 {
        NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
    }
}

impl Shared {
    pub(crate) fn local_buffer(&self, thread: BeatThreadId) -> Arc<dyn HistoryBuffer> {
        if let Some(buffer) = self
            .locals
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&thread.index())
        {
            return Arc::clone(buffer);
        }
        let mut locals = self.locals.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            locals
                .entry(thread.index())
                .or_insert_with(|| self.buffer_kind.build(self.buffer_capacity)),
        )
    }

    pub(crate) fn effective_window(&self, window: usize) -> usize {
        // Window 0 means "use the default registered at initialization";
        // larger-than-retained requests are silently clipped, as permitted by
        // the paper.
        let requested = if window == 0 {
            self.default_window
        } else {
            window
        };
        requested.min(self.buffer_capacity).max(2)
    }

    pub(crate) fn rate_over(&self, buffer: &dyn HistoryBuffer, window: usize) -> Option<f64> {
        let records = buffer.last_n(self.effective_window(window));
        window::windowed_rate(&records)
    }

    pub(crate) fn notify_target(&self, min_bps: f64, max_bps: f64) {
        let backends = self.backends.read().unwrap_or_else(|e| e.into_inner());
        for backend in backends.iter() {
            backend.on_target_change(&self.name, min_bps, max_bps);
        }
    }
}

/// Per-thread, per-instance hot-path cache: the backend snapshot (validated
/// by epoch) and the calling thread's local history buffer.
///
/// `Heartbeat::beat` used to take the `backends` read lock on every beat and
/// the `locals` read lock on every local beat; under many producer threads
/// those locks are the only shared mutable state on the path. The cache
/// removes both: a steady-state beat performs one thread-local lookup and
/// one relaxed/acquire atomic load, touching a lock only when the backend
/// list actually changed (or on a thread's first local beat).
struct HotEntry {
    /// [`Shared::instance_id`] this entry belongs to.
    instance: u64,
    /// Liveness probe so dead instances can be purged from the cache.
    keepalive: Weak<Shared>,
    /// Epoch at which `backends` was snapshotted (0 = never).
    epoch: u64,
    /// Snapshot of the backend list; shared so callbacks run without
    /// holding the cache borrowed (a backend may itself produce beats).
    backends: Arc<[Arc<dyn Backend>]>,
    /// The calling thread's local history buffer, resolved once.
    local: Option<Arc<dyn HistoryBuffer>>,
}

/// Bound on cached instances per thread; oldest entries are discarded
/// beyond it (correctness is unaffected — a miss just re-resolves).
const HOT_CACHE_MAX: usize = 32;

/// Dead entries are purged at least this often (in beats), so a dropped
/// `Heartbeat`'s backends are released by threads that keep producing
/// (backends may own sockets and flusher threads that run until dropped).
const HOT_CACHE_PURGE_EVERY: u32 = 1024;

/// Per-thread hot cache: the entries plus a purge countdown.
#[derive(Default)]
struct HotCache {
    entries: Vec<HotEntry>,
    beats_since_purge: u32,
}

thread_local! {
    static HOT_CACHE: RefCell<HotCache> = RefCell::new(HotCache::default());
}

/// Finds (or creates) this thread's cache entry for `shared`, periodically
/// purging entries whose instance has been dropped.
fn hot_entry_index(cache: &mut HotCache, shared: &Arc<Shared>) -> usize {
    cache.beats_since_purge += 1;
    if cache.beats_since_purge >= HOT_CACHE_PURGE_EVERY {
        cache.beats_since_purge = 0;
        cache.entries.retain(|e| e.keepalive.strong_count() > 0);
    }
    if let Some(index) = cache
        .entries
        .iter()
        .position(|e| e.instance == shared.instance_id)
    {
        return index;
    }
    cache.entries.retain(|e| e.keepalive.strong_count() > 0);
    if cache.entries.len() >= HOT_CACHE_MAX {
        cache.entries.remove(0);
    }
    cache.entries.push(HotEntry {
        instance: shared.instance_id,
        keepalive: Arc::downgrade(shared),
        epoch: 0,
        backends: Arc::from(Vec::new().into_boxed_slice()),
        local: None,
    });
    cache.entries.len() - 1
}

/// A heartbeat producer for one application.
///
/// `Heartbeat` is cheap to clone; clones share the same history, target and
/// backends, so worker threads can each hold a handle. Producing a beat is
/// allocation-free and, with the default [`BufferKind::Atomic`] buffer,
/// lock-free: the backend list and the thread's local buffer are cached
/// per thread behind an atomic epoch, so steady-state beats touch no locks.
///
/// # Example
///
/// ```
/// use heartbeats::{HeartbeatBuilder, BeatScope};
///
/// let hb = HeartbeatBuilder::new("video-encoder")
///     .window(20)
///     .build()
///     .unwrap();
/// hb.set_target_rate(30.0, 35.0).unwrap();
///
/// for _frame in 0..100 {
///     // ... encode the frame ...
///     hb.heartbeat();
/// }
/// if let Some(rate) = hb.current_rate(0) {
///     println!("current heart rate: {rate:.1} beats/s");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Heartbeat {
    pub(crate) shared: Arc<Shared>,
}

impl Heartbeat {
    pub(crate) fn from_shared(shared: Arc<Shared>) -> Self {
        Heartbeat { shared }
    }

    /// The application name given at construction.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The default window registered at initialization (`HB_initialize`).
    pub fn default_window(&self) -> usize {
        self.shared.default_window
    }

    /// Number of records retained per history buffer.
    pub fn buffer_capacity(&self) -> usize {
        self.shared.buffer_capacity
    }

    /// Registers a global heartbeat with no tag. Returns the beat's sequence
    /// number in the global stream.
    #[inline]
    pub fn heartbeat(&self) -> u64 {
        self.beat(Tag::NONE, BeatScope::Global)
    }

    /// Registers a global heartbeat carrying `tag`.
    #[inline]
    pub fn heartbeat_tagged(&self, tag: Tag) -> u64 {
        self.beat(tag, BeatScope::Global)
    }

    /// Registers a heartbeat in the calling thread's private (local) stream.
    #[inline]
    pub fn heartbeat_local(&self, tag: Tag) -> u64 {
        self.beat(tag, BeatScope::Local)
    }

    /// Full-control beat: `HB_heartbeat(tag, local)` from the paper.
    pub fn beat(&self, tag: Tag, scope: BeatScope) -> u64 {
        let thread = current_thread_id();
        let timestamp_ns = self.shared.clock.now_ns();
        let (seq, backends) = HOT_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let entry = {
                let index = hot_entry_index(&mut cache, &self.shared);
                &mut cache.entries[index]
            };
            let seq = match scope {
                BeatScope::Global => self.shared.global.push(timestamp_ns, tag, thread),
                BeatScope::Local => entry
                    .local
                    .get_or_insert_with(|| self.shared.local_buffer(thread))
                    .push(timestamp_ns, tag, thread),
            };
            let epoch = self.shared.backends_epoch.load(Ordering::Acquire);
            if entry.epoch != epoch {
                entry.backends = Arc::from(
                    self.shared
                        .backends
                        .read()
                        .unwrap_or_else(|e| e.into_inner())
                        .clone()
                        .into_boxed_slice(),
                );
                entry.epoch = epoch;
            }
            (seq, Arc::clone(&entry.backends))
        });
        if !backends.is_empty() {
            let record = HeartbeatRecord::new(seq, timestamp_ns, tag, thread);
            // The cache borrow is released here: a backend that itself
            // produces beats (into another heartbeat) re-enters safely.
            for backend in backends.iter() {
                backend.on_beat(&self.shared.name, &record, scope);
            }
        }
        seq
    }

    /// Average heart rate over the last `window` global beats, in beats/s.
    ///
    /// Passing `0` uses the default window from initialization. Windows larger
    /// than the retained history are silently clipped. Returns `None` until at
    /// least two beats have been produced.
    pub fn current_rate(&self, window: usize) -> Option<f64> {
        self.shared.rate_over(self.shared.global.as_ref(), window)
    }

    /// Average heart rate over the calling thread's local beats.
    pub fn current_rate_local(&self, window: usize) -> Option<f64> {
        let thread = current_thread_id();
        let buffer = self.shared.local_buffer(thread);
        self.shared.rate_over(buffer.as_ref(), window)
    }

    /// Lifetime average heart rate of the global stream: total beats divided
    /// by the time elapsed since the first beat. This is the "Average Heart
    /// Rate" column of Table 2 in the paper.
    pub fn global_average_rate(&self) -> Option<f64> {
        let total = self.shared.global.total();
        let first = self.shared.global.first_timestamp_ns()?;
        window::global_rate(total, first, self.shared.clock.now_ns())
    }

    /// Interval statistics over the last `window` global beats.
    pub fn window_stats(&self, window: usize) -> Option<WindowStats> {
        let records = self
            .shared
            .global
            .last_n(self.shared.effective_window(window));
        window::window_stats(&records)
    }

    /// Declares the application's target heart-rate range
    /// (`HB_set_target_rate`).
    pub fn set_target_rate(&self, min_bps: f64, max_bps: f64) -> Result<()> {
        self.shared.target.set(min_bps, max_bps)?;
        self.shared.notify_target(min_bps, max_bps);
        Ok(())
    }

    /// Minimum target rate (`HB_get_target_min`); negative if unset.
    pub fn target_min(&self) -> f64 {
        self.shared.target.min_bps()
    }

    /// Maximum target rate (`HB_get_target_max`); negative if unset.
    pub fn target_max(&self) -> f64 {
        self.shared.target.max_bps()
    }

    /// The declared target window, if any.
    pub fn target(&self) -> Option<(f64, f64)> {
        self.shared.target.range()
    }

    /// Classifies the current windowed rate against the declared target.
    pub fn target_status(&self, window: usize) -> TargetStatus {
        match self.current_rate(window) {
            None => TargetStatus::NoTarget,
            Some(rate) => self.shared.target.classify(rate),
        }
    }

    /// Returns the last `n` global heartbeats in chronological order
    /// (`HB_get_history`). Fewer records are returned if fewer are retained.
    pub fn history(&self, n: usize) -> Vec<HeartbeatRecord> {
        self.shared.global.last_n(n)
    }

    /// Returns the last `n` heartbeats of the calling thread's local stream.
    pub fn history_local(&self, n: usize) -> Vec<HeartbeatRecord> {
        let thread = current_thread_id();
        self.shared.local_buffer(thread).last_n(n)
    }

    /// Total number of global beats ever produced.
    pub fn total_beats(&self) -> u64 {
        self.shared.global.total()
    }

    /// Total number of local beats produced by the calling thread.
    pub fn total_local_beats(&self) -> u64 {
        let thread = current_thread_id();
        self.shared.local_buffer(thread).total()
    }

    /// Timestamp (ns) of the most recent global beat, if any.
    pub fn last_beat_ns(&self) -> Option<u64> {
        self.shared.global.latest().map(|r| r.timestamp_ns)
    }

    /// Current time on the heartbeat's clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// Attaches a mirroring backend (file, shared memory, in-memory probe).
    pub fn add_backend(&self, backend: Arc<dyn Backend>) {
        self.shared
            .backends
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push(backend);
        // Invalidate every thread's cached snapshot; the release pairs with
        // the acquire load in `beat`.
        self.shared.backends_epoch.fetch_add(1, Ordering::Release);
    }

    /// Sums the mirroring counters of all attached backends, making shed
    /// beats (backpressure) observable from the producer side.
    pub fn backend_stats(&self) -> crate::BackendStats {
        let backends = self
            .shared
            .backends
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let mut total = crate::BackendStats::default();
        for backend in backends.iter() {
            let stats = backend.stats();
            total.mirrored += stats.mirrored;
            total.dropped += stats.dropped;
        }
        total
    }

    /// Flushes all attached backends.
    pub fn flush(&self) -> Result<()> {
        let backends = self
            .shared
            .backends
            .read()
            .unwrap_or_else(|e| e.into_inner());
        for backend in backends.iter() {
            backend.flush()?;
        }
        Ok(())
    }

    /// Creates a read-only observer handle sharing this heartbeat's state.
    pub fn reader(&self) -> crate::HeartbeatReader {
        crate::HeartbeatReader::from_shared(Arc::clone(&self.shared))
    }

    /// Ids of threads that have produced local beats so far.
    pub fn local_thread_ids(&self) -> Vec<BeatThreadId> {
        let mut ids: Vec<BeatThreadId> = self
            .shared
            .locals
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .map(|&id| BeatThreadId(id))
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::builder::HeartbeatBuilder;
    use crate::clock::ManualClock;

    fn manual_heartbeat(window: usize) -> (Heartbeat, ManualClock) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("test-app")
            .window(window)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        (hb, clock)
    }

    #[test]
    fn thread_ids_are_stable_within_a_thread() {
        let a = current_thread_id();
        let b = current_thread_id();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_ids_differ_across_threads() {
        let main_id = current_thread_id();
        let other = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(main_id, other);
    }

    #[test]
    fn heartbeat_assigns_sequential_numbers() {
        let (hb, clock) = manual_heartbeat(10);
        for i in 0..5 {
            clock.advance_ns(1_000_000);
            assert_eq!(hb.heartbeat(), i);
        }
        assert_eq!(hb.total_beats(), 5);
    }

    #[test]
    fn current_rate_uses_default_window_for_zero() {
        let (hb, clock) = manual_heartbeat(4);
        // 10 beats, 100 ms apart -> 10 beats/s regardless of window, but use
        // an accelerating tail to distinguish the windows.
        for _ in 0..10 {
            clock.advance_ns(100_000_000);
            hb.heartbeat();
        }
        for _ in 0..4 {
            clock.advance_ns(10_000_000); // 100 beats/s tail
            hb.heartbeat();
        }
        let default_rate = hb.current_rate(0).unwrap();
        let wide_rate = hb.current_rate(14).unwrap();
        assert!(
            default_rate > 50.0,
            "default (4-beat) window sees the fast tail"
        );
        assert!(wide_rate < default_rate);
    }

    #[test]
    fn current_rate_none_before_two_beats() {
        let (hb, clock) = manual_heartbeat(10);
        assert_eq!(hb.current_rate(0), None);
        clock.advance_ns(1);
        hb.heartbeat();
        assert_eq!(hb.current_rate(0), None);
        clock.advance_ns(1_000_000_000);
        hb.heartbeat();
        assert!(hb.current_rate(0).is_some());
    }

    #[test]
    fn global_average_rate_matches_uniform_beats() {
        let (hb, clock) = manual_heartbeat(10);
        clock.advance_ns(0);
        for _ in 0..30 {
            clock.advance_ns(100_000_000); // 10 beats/s
            hb.heartbeat();
        }
        // 30 beats over 3.0 s measured from the first beat at t=0.1 to now
        // (t=3.0): 30 / 2.9 ≈ 10.34.
        let rate = hb.global_average_rate().unwrap();
        assert!((rate - 30.0 / 2.9).abs() < 1e-9);
    }

    #[test]
    fn targets_roundtrip_and_classify() {
        let (hb, clock) = manual_heartbeat(5);
        assert!(hb.target().is_none());
        assert!(hb.target_min() < 0.0);
        hb.set_target_rate(30.0, 35.0).unwrap();
        assert_eq!(hb.target(), Some((30.0, 35.0)));
        assert_eq!(hb.target_min(), 30.0);
        assert_eq!(hb.target_max(), 35.0);

        // 10 beats/s is below the 30..35 target.
        for _ in 0..6 {
            clock.advance_ns(100_000_000);
            hb.heartbeat();
        }
        assert_eq!(hb.target_status(0), TargetStatus::BelowTarget);
    }

    #[test]
    fn invalid_target_is_rejected() {
        let (hb, _clock) = manual_heartbeat(5);
        assert!(hb.set_target_rate(10.0, 5.0).is_err());
        assert!(hb.target().is_none());
    }

    #[test]
    fn history_returns_chronological_records_with_tags() {
        let (hb, clock) = manual_heartbeat(10);
        for i in 0..8u64 {
            clock.advance_ns(1_000);
            hb.heartbeat_tagged(Tag::new(i * 7));
        }
        let hist = hb.history(3);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].tag, Tag::new(5 * 7));
        assert_eq!(hist[2].tag, Tag::new(7 * 7));
        assert!(hist[0].timestamp_ns < hist[2].timestamp_ns);
    }

    #[test]
    fn local_beats_are_per_thread() {
        let (hb, clock) = manual_heartbeat(10);
        clock.advance_ns(1_000);
        hb.heartbeat_local(Tag::new(1));
        hb.heartbeat_local(Tag::new(2));
        assert_eq!(hb.total_local_beats(), 2);
        assert_eq!(hb.total_beats(), 0, "local beats do not count globally");

        let hb2 = hb.clone();
        let other_count = std::thread::spawn(move || {
            hb2.heartbeat_local(Tag::new(3));
            hb2.total_local_beats()
        })
        .join()
        .unwrap();
        assert_eq!(other_count, 1, "other thread sees only its own beats");
        assert_eq!(hb.total_local_beats(), 2);
        assert_eq!(hb.local_thread_ids().len(), 2);
    }

    #[test]
    fn clones_share_state() {
        let (hb, clock) = manual_heartbeat(10);
        let clone = hb.clone();
        clock.advance_ns(1_000);
        hb.heartbeat();
        clone.heartbeat();
        assert_eq!(hb.total_beats(), 2);
        assert_eq!(clone.total_beats(), 2);
        clone.set_target_rate(1.0, 2.0).unwrap();
        assert_eq!(hb.target(), Some((1.0, 2.0)));
    }

    #[test]
    fn backends_receive_beats_and_targets() {
        let (hb, clock) = manual_heartbeat(10);
        let probe = Arc::new(MemoryBackend::new());
        hb.add_backend(probe.clone());
        clock.advance_ns(500);
        hb.heartbeat_tagged(Tag::new(9));
        hb.heartbeat_local(Tag::new(10));
        hb.set_target_rate(5.0, 6.0).unwrap();
        hb.flush().unwrap();

        let beats = probe.beats();
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0].scope, BeatScope::Global);
        assert_eq!(beats[0].record.tag, Tag::new(9));
        assert_eq!(beats[1].scope, BeatScope::Local);
        assert_eq!(
            probe.target_changes(),
            vec![("test-app".to_string(), 5.0, 6.0)]
        );
    }

    #[test]
    fn backend_stats_aggregate_across_backends() {
        let (hb, clock) = manual_heartbeat(10);
        hb.add_backend(Arc::new(MemoryBackend::new()));
        hb.add_backend(Arc::new(MemoryBackend::with_capacity(2)));
        for _ in 0..5 {
            clock.advance_ns(1_000);
            hb.heartbeat();
        }
        let stats = hb.backend_stats();
        // Unbounded backend mirrored 5; bounded one mirrored 2 and shed 3.
        assert_eq!(stats.mirrored, 7);
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.offered(), 10);
    }

    #[test]
    fn window_stats_reports_intervals() {
        let (hb, clock) = manual_heartbeat(10);
        for _ in 0..5 {
            clock.advance_ns(2_000_000);
            hb.heartbeat();
        }
        let stats = hb.window_stats(0).unwrap();
        assert_eq!(stats.beats, 5);
        assert_eq!(stats.min_interval_ns, 2_000_000);
        assert_eq!(stats.max_interval_ns, 2_000_000);
        assert!((stats.rate_bps - 500.0).abs() < 1e-6);
    }

    #[test]
    fn mutex_buffer_kind_behaves_identically() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("mutex-app")
            .window(5)
            .buffer_kind(BufferKind::Mutex)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        for _ in 0..10 {
            clock.advance_ns(50_000_000);
            hb.heartbeat();
        }
        assert_eq!(hb.total_beats(), 10);
        assert!((hb.current_rate(0).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn last_beat_and_now() {
        let (hb, clock) = manual_heartbeat(5);
        assert_eq!(hb.last_beat_ns(), None);
        clock.advance_ns(1_234);
        hb.heartbeat();
        assert_eq!(hb.last_beat_ns(), Some(1_234));
        clock.advance_ns(766);
        assert_eq!(hb.now_ns(), 2_000);
    }

    #[test]
    fn backend_added_mid_stream_is_picked_up() {
        // The hot-path cache snapshots the backend list per thread; adding a
        // backend must invalidate those snapshots via the epoch.
        let (hb, clock) = manual_heartbeat(10);
        let early = Arc::new(MemoryBackend::new());
        hb.add_backend(early.clone());
        clock.advance_ns(1_000);
        hb.heartbeat(); // warm this thread's cache with [early]
        let late = Arc::new(MemoryBackend::new());
        hb.add_backend(late.clone());
        clock.advance_ns(1_000);
        hb.heartbeat();
        assert_eq!(early.len(), 2, "original backend saw both beats");
        assert_eq!(late.len(), 1, "new backend sees beats after attach");
    }

    #[test]
    fn backend_added_mid_stream_reaches_other_threads() {
        let (hb, clock) = manual_heartbeat(64);
        let probe = Arc::new(MemoryBackend::new());
        let worker = {
            let hb = hb.clone();
            let clock = clock.clone();
            let probe = Arc::clone(&probe);
            std::thread::spawn(move || {
                // Warm the worker's cache with an empty backend list...
                for _ in 0..100 {
                    clock.advance_ns(10);
                    hb.heartbeat();
                }
                // ...then wait for the main thread to attach the probe.
                while probe.is_empty() {
                    clock.advance_ns(10);
                    hb.heartbeat();
                    std::thread::yield_now();
                }
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        hb.add_backend(Arc::clone(&probe) as Arc<dyn Backend>);
        worker.join().unwrap();
        assert!(!probe.is_empty(), "worker thread observed the new backend");
    }

    #[test]
    fn local_beats_use_cached_buffer_consistently() {
        // The thread-local buffer cache must resolve to the same buffer the
        // shared map holds, so readers see cached-path beats.
        let (hb, clock) = manual_heartbeat(10);
        for i in 0..50u64 {
            clock.advance_ns(1_000);
            hb.heartbeat_local(Tag::new(i));
        }
        assert_eq!(hb.total_local_beats(), 50);
        let history = hb.history_local(5);
        assert_eq!(history.len(), 5);
        assert_eq!(history[4].tag, Tag::new(49));
        // The shared map agrees (reader path, not the cache).
        assert_eq!(hb.local_thread_ids().len(), 1);
    }

    #[test]
    fn dropped_heartbeat_backends_are_released_by_continuing_threads() {
        // The hot cache snapshots backend Arcs; once the heartbeat is
        // dropped, a thread that keeps beating (on anything) must release
        // them within the purge interval — backends may own sockets and
        // threads that live until dropped.
        let clock = ManualClock::new();
        let probe: Arc<MemoryBackend> = Arc::new(MemoryBackend::new());
        let weak = Arc::downgrade(&probe);
        let hb = HeartbeatBuilder::new("short-lived")
            .window(4)
            .clock(Arc::new(clock.clone()))
            .backend(probe)
            .build()
            .unwrap();
        clock.advance_ns(1_000);
        hb.heartbeat(); // snapshot [probe] into this thread's cache
        drop(hb);
        assert!(
            weak.upgrade().is_some(),
            "cache still pins the backend right after the drop"
        );
        let other = HeartbeatBuilder::new("long-lived")
            .window(4)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        for _ in 0..2 * super::HOT_CACHE_PURGE_EVERY {
            clock.advance_ns(1_000);
            other.heartbeat();
        }
        assert!(
            weak.upgrade().is_none(),
            "purge must release the dead instance's backends"
        );
    }

    #[test]
    fn many_instances_cycle_through_the_hot_cache() {
        // More live instances than HOT_CACHE_MAX on one thread: eviction and
        // re-resolution must stay correct.
        let clock = ManualClock::new();
        let heartbeats: Vec<Heartbeat> = (0..40)
            .map(|i| {
                HeartbeatBuilder::new(format!("app-{i}"))
                    .window(4)
                    .clock(Arc::new(clock.clone()))
                    .build()
                    .unwrap()
            })
            .collect();
        for round in 0..3 {
            for hb in &heartbeats {
                clock.advance_ns(1_000);
                hb.heartbeat();
                hb.heartbeat_local(Tag::new(round));
            }
        }
        for hb in &heartbeats {
            assert_eq!(hb.total_beats(), 3);
            assert_eq!(hb.total_local_beats(), 3);
        }
    }

    #[test]
    fn concurrent_global_beats_from_many_threads() {
        let (hb, clock) = manual_heartbeat(64);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let hb = hb.clone();
                let clock = clock.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        clock.advance_ns(10);
                        hb.heartbeat();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hb.total_beats(), 4_000);
        assert!(hb.current_rate(0).is_some());
    }
}
