//! The unified observer API: one [`Observe`] trait across every transport.
//!
//! The paper's central claim is that *external* observers — schedulers,
//! system software, other applications — can consume a program's registered
//! heartbeats. This workspace grew three observer paths (the in-process
//! [`HeartbeatReader`](crate::HeartbeatReader), the `hb-shm` cross-process
//! readers, and `hb-net`'s remote collector client), and before this module
//! each exposed its own, divergent, poll-only surface. [`Observe`] is the
//! common denominator:
//!
//! * [`Observe::snapshot`] — one coherent point-in-time view
//!   ([`ObservedSnapshot`]: totals, windowed rate, declared target,
//!   liveness).
//! * [`Observe::health`] — the coarse four-level triage
//!   ([`ObservedHealth`]), aligned with the collector-side anomaly detector
//!   and `control`'s `HealthLevel`.
//! * [`Observe::subscribe`] — a **push subscription**: an [`ObserveStream`]
//!   of [`ObserveEvent`]s (snapshots, health transitions, raw beats),
//!   filtered by an [`ObserveFilter`]. Transports with a real push plane
//!   (the network collector) deliver collector-originated events; local
//!   transports synthesize the same events from polling via
//!   [`polling_stream`], so consumers are written once and run against any
//!   transport.
//!
//! `control`'s `RateSource` and `HealthSource` have blanket implementations
//! for every `T: Observe`, so a `RateMonitor` or `ControlLoop` drives
//! unchanged from a local reader, a shared-memory segment, or a remote
//! collector.

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

use crate::backend::BeatScope;
use crate::record::HeartbeatRecord;

/// Default staleness horizon used when a transport has no configured one:
/// an application silent longer than this is considered not alive
/// (matches the collector's default `stale_after`).
pub const DEFAULT_STALE_NS: u64 = 5_000_000_000;

/// Bitmask of event classes an observer wants pushed.
///
/// The numeric bit layout is stable — it is carried verbatim in `hb-net`'s
/// `Subscribe` wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interest(u8);

impl Interest {
    /// Periodic application snapshots (totals, rate, target).
    pub const SNAPSHOTS: Interest = Interest(0b001);
    /// Health-transition events (`healthy → stalled`, …).
    pub const HEALTH: Interest = Interest(0b010);
    /// Raw heartbeat records as they arrive.
    pub const BEATS: Interest = Interest(0b100);
    /// Every event class.
    pub const ALL: Interest = Interest(0b111);
    /// No event class (an inert subscription).
    pub const NONE: Interest = Interest(0);

    /// Builds a mask from its stable wire encoding; `None` if unknown bits
    /// are set.
    pub fn from_bits(bits: u8) -> Option<Interest> {
        (bits & !Self::ALL.0 == 0).then_some(Interest(bits))
    }

    /// The stable wire encoding of the mask.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True if every class in `other` is requested by `self`.
    pub fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no class is requested.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;

    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// What a subscription should deliver, and how often.
#[derive(Debug, Clone)]
pub struct ObserveFilter {
    /// Event classes wanted ([`Interest::SNAPSHOTS`] / [`Interest::HEALTH`]
    /// / [`Interest::BEATS`], OR-combined).
    pub interests: Interest,
    /// Minimum spacing between snapshot updates and health re-assessments
    /// for one application. Raw-beat events are *not* throttled by this
    /// (they are bounded by queue capacity instead), so beat counts stay
    /// exact.
    pub min_interval: Duration,
    /// For transports without their own stall detector (local reader,
    /// shared memory): a stream whose beat total stops advancing for this
    /// long is reported [`ObservedHealth::Stalled`]. Remote transports use
    /// the collector's health window instead.
    pub stall_after: Duration,
}

impl ObserveFilter {
    /// A filter for `interests` with a 100 ms minimum update interval and
    /// the default staleness horizon.
    pub fn new(interests: Interest) -> Self {
        ObserveFilter {
            interests,
            min_interval: Duration::from_millis(100),
            stall_after: Duration::from_nanos(DEFAULT_STALE_NS),
        }
    }

    /// Sets the minimum update interval.
    pub fn min_interval(mut self, interval: Duration) -> Self {
        self.min_interval = interval;
        self
    }

    /// Sets the stall horizon used by polling transports.
    pub fn stall_after(mut self, after: Duration) -> Self {
        self.stall_after = after;
        self
    }
}

impl Default for ObserveFilter {
    fn default() -> Self {
        ObserveFilter::new(Interest::SNAPSHOTS | Interest::HEALTH)
    }
}

/// One coherent point-in-time view of an observed application, independent
/// of the transport it was read through.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedSnapshot {
    /// Global (application-wide) beats produced so far.
    pub total_beats: u64,
    /// Windowed heart rate in beats/s, if at least two beats are visible.
    pub rate_bps: Option<f64>,
    /// The application's declared target range, if any.
    pub target: Option<(f64, f64)>,
    /// Beats shed before reaching this observer's transport (producer-side
    /// backpressure); `0` where the transport cannot lose beats.
    pub dropped: u64,
    /// False once the stream has been silent past the transport's staleness
    /// horizon.
    pub alive: bool,
}

/// Coarse four-level health triage, transport-neutral.
///
/// Mirrors the collector-side anomaly detector's classification and
/// `control::HealthLevel`; the numeric encoding (0–3, higher is healthier)
/// is stable across the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ObservedHealth {
    /// No beat has ever been observed (or the observation channel failed).
    NoSignal = 0,
    /// Beats used to arrive but have stopped past the stall horizon.
    Stalled = 1,
    /// Beats arrive but the stream shows an anomaly (e.g. rate below the
    /// declared target).
    Degraded = 2,
    /// Beats arrive and nothing looks wrong.
    Healthy = 3,
}

impl ObservedHealth {
    /// The stable numeric encoding.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes the stable numeric encoding.
    pub fn from_u8(value: u8) -> Option<ObservedHealth> {
        match value {
            0 => Some(ObservedHealth::NoSignal),
            1 => Some(ObservedHealth::Stalled),
            2 => Some(ObservedHealth::Degraded),
            3 => Some(ObservedHealth::Healthy),
            _ => None,
        }
    }
}

/// One heartbeat record with its scope, as carried in a beats event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedBeat {
    /// The heartbeat record.
    pub record: HeartbeatRecord,
    /// Global (application-wide) or local (per-thread) stream.
    pub scope: BeatScope,
}

/// One pushed observation event.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveEvent {
    /// The application the event describes.
    pub app: String,
    /// What happened.
    pub kind: ObserveEventKind,
}

/// The payload of an [`ObserveEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum ObserveEventKind {
    /// A periodic snapshot update.
    Snapshot(ObservedSnapshot),
    /// The health classification changed.
    Health {
        /// Classification before the transition.
        from: ObservedHealth,
        /// Classification after the transition.
        to: ObservedHealth,
    },
    /// Raw beats, in production order.
    Beats {
        /// The records, with their scopes.
        beats: Vec<ObservedBeat>,
        /// The producer's cumulative drop counter at this batch.
        dropped_total: u64,
    },
}

/// Why an observation operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObserveError {
    /// The transport (or the peer it talks to) cannot provide the requested
    /// operation — e.g. subscribing through a collector that predates the
    /// subscription protocol.
    Unsupported(String),
    /// The observation channel failed (connection lost, segment gone).
    Transport(String),
}

impl fmt::Display for ObserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserveError::Unsupported(msg) => write!(f, "observation unsupported: {msg}"),
            ObserveError::Transport(msg) => write!(f, "observation transport failed: {msg}"),
        }
    }
}

impl std::error::Error for ObserveError {}

/// Transport-specific event source behind an [`ObserveStream`].
pub trait EventStream: Send {
    /// Returns the next pending event without blocking, or `None` if none
    /// is ready yet.
    fn try_next(&mut self) -> Option<ObserveEvent>;

    /// Waits up to `timeout` for an event.
    fn wait_next(&mut self, timeout: Duration) -> Option<ObserveEvent>;

    /// True once the stream can never produce another event (subscription
    /// cancelled, connection lost). Polling streams never close.
    fn is_closed(&self) -> bool {
        false
    }
}

/// A stream of pushed [`ObserveEvent`]s — the handle returned by
/// [`Observe::subscribe`].
///
/// Use [`try_next`](Self::try_next) from a control loop that must not
/// block, [`wait_next`](Self::wait_next) with a deadline, or iterate (each
/// iteration blocks until an event arrives; iteration ends when the stream
/// closes).
pub struct ObserveStream {
    inner: Box<dyn EventStream>,
}

impl fmt::Debug for ObserveStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObserveStream")
            .field("closed", &self.inner.is_closed())
            .finish_non_exhaustive()
    }
}

impl ObserveStream {
    /// Wraps a transport-specific event source.
    pub fn new(inner: Box<dyn EventStream>) -> Self {
        ObserveStream { inner }
    }

    /// Returns the next pending event without blocking.
    pub fn try_next(&mut self) -> Option<ObserveEvent> {
        self.inner.try_next()
    }

    /// Waits up to `timeout` for an event.
    pub fn wait_next(&mut self, timeout: Duration) -> Option<ObserveEvent> {
        self.inner.wait_next(timeout)
    }

    /// True once the stream can never produce another event.
    pub fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

impl Iterator for ObserveStream {
    type Item = ObserveEvent;

    /// Blocks until the next event arrives; `None` once the stream closes.
    fn next(&mut self) -> Option<ObserveEvent> {
        loop {
            if let Some(event) = self.inner.wait_next(Duration::from_millis(250)) {
                return Some(event);
            }
            if self.inner.is_closed() {
                return None;
            }
        }
    }
}

/// The unified observer interface over one application's heartbeat stream.
///
/// Implemented by the in-process [`HeartbeatReader`](crate::HeartbeatReader),
/// `hb-shm`'s `ShmObserver`, and `hb-net`'s `RemoteApp`, so observation code
/// — control loops, dashboards, schedulers — is written once against this
/// trait and runs over any transport. `control` provides blanket
/// `RateSource`/`HealthSource` implementations for every `T: Observe`.
pub trait Observe {
    /// Name of the observed application.
    fn name(&self) -> &str;

    /// One coherent point-in-time view, or `None` if the application is
    /// unknown to the transport (never registered, collector unreachable).
    fn snapshot(&self) -> Option<ObservedSnapshot>;

    /// Coarse health triage of the stream. Transports that cannot judge
    /// health degrade to [`ObservedHealth::NoSignal`] when their channel
    /// fails, mirroring how [`snapshot`](Self::snapshot) returns `None`.
    fn health(&self) -> ObservedHealth;

    /// Windowed heart rate in beats/s (`0` = the source's default window).
    ///
    /// The default reads the snapshot's rate; transports that can re-window
    /// (the local reader) override it, transports that cannot (a remote
    /// collector tracks the producer-declared window) keep the default.
    fn rate(&self, window: usize) -> Option<f64> {
        let _ = window;
        self.snapshot().and_then(|s| s.rate_bps)
    }

    /// True if [`rate`](Self::rate) honors a non-default window. Remote
    /// transports return `false` (the collector tracks only the
    /// producer-declared window), which tells generic samplers to take the
    /// snapshot's rate instead of issuing a second — necessarily identical
    /// and possibly torn — round trip.
    fn can_rewindow(&self) -> bool {
        true
    }

    /// The global beats with sequence numbers `>= seen_total`, if the
    /// transport retains them — the hook [`polling_stream`] uses to
    /// synthesize raw-beat events. `None` when history is unavailable.
    fn beats_since(&self, seen_total: u64) -> Option<Vec<ObservedBeat>> {
        let _ = seen_total;
        None
    }

    /// Opens a push subscription filtered by `filter`.
    ///
    /// Transports with a real push plane deliver events originated at the
    /// source; polling transports synthesize the identical event stream
    /// (see [`polling_stream`]). Fails with [`ObserveError::Unsupported`]
    /// when the transport (or its peer) cannot subscribe at all.
    fn subscribe(&self, filter: &ObserveFilter) -> Result<ObserveStream, ObserveError>;
}

/// Builds an [`ObserveStream`] for a poll-only transport by sampling
/// `source` and synthesizing the push events a native plane would emit:
/// snapshot updates when beats advance (rate-limited by
/// [`ObserveFilter::min_interval`]), health transitions whenever the
/// classification changes (including a synthesized
/// [`Stalled`](ObservedHealth::Stalled) when the beat total stops advancing
/// for [`ObserveFilter::stall_after`]), and raw beats via
/// [`Observe::beats_since`].
///
/// The stream performs no background work: events materialize inside
/// `try_next`/`wait_next` calls, so an abandoned stream costs nothing.
///
/// Like the remote push plane, the stream starts *at the present*: beats
/// produced before the subscription are not replayed (the first snapshot
/// and health events still announce the current state).
pub fn polling_stream<T>(source: T, filter: ObserveFilter) -> ObserveStream
where
    T: Observe + Send + 'static,
{
    // Prime at the current total so a beats-interest subscription delivers
    // only what happens next — a remote subscriber gets exactly the same.
    let last_total = source.snapshot().map(|s| s.total_beats).unwrap_or(0);
    ObserveStream::new(Box::new(PollingStream {
        source,
        filter,
        pending: VecDeque::new(),
        last_emit: None,
        last_total,
        last_health: ObservedHealth::NoSignal,
        last_progress: Instant::now(),
    }))
}

/// Poll-to-push adapter behind [`polling_stream`].
struct PollingStream<T: Observe + Send> {
    source: T,
    filter: ObserveFilter,
    pending: VecDeque<ObserveEvent>,
    last_emit: Option<Instant>,
    last_total: u64,
    last_health: ObservedHealth,
    /// When the beat total last advanced (observer clock), for synthesizing
    /// stall transitions on transports without their own detector.
    last_progress: Instant,
}

impl<T: Observe + Send> PollingStream<T> {
    fn poll(&mut self) {
        let now = Instant::now();
        let snapshot = self.source.snapshot();
        let total = snapshot.as_ref().map(|s| s.total_beats).unwrap_or(0);
        let progressed = total != self.last_total;
        if progressed {
            self.last_progress = now;
        }

        let mut health = self.source.health();
        // Synthesize the stall: a transport that only sees a shared buffer
        // cannot judge producer liveness, but "the total stopped advancing"
        // is observable from any transport.
        if !progressed
            && total > 0
            && health > ObservedHealth::Stalled
            && now.duration_since(self.last_progress) >= self.filter.stall_after
        {
            health = ObservedHealth::Stalled;
        }

        let app = self.source.name().to_string();
        if self.filter.interests.contains(Interest::BEATS) && total > self.last_total {
            if let Some(beats) = self.source.beats_since(self.last_total) {
                if !beats.is_empty() {
                    let dropped_total = snapshot.as_ref().map(|s| s.dropped).unwrap_or(0);
                    self.pending.push_back(ObserveEvent {
                        app: app.clone(),
                        kind: ObserveEventKind::Beats {
                            beats,
                            dropped_total,
                        },
                    });
                }
            }
        }
        if self.filter.interests.contains(Interest::HEALTH) && health != self.last_health {
            self.pending.push_back(ObserveEvent {
                app: app.clone(),
                kind: ObserveEventKind::Health {
                    from: self.last_health,
                    to: health,
                },
            });
            self.last_health = health;
        }
        if self.filter.interests.contains(Interest::SNAPSHOTS) && progressed {
            if let Some(snapshot) = snapshot {
                self.pending.push_back(ObserveEvent {
                    app,
                    kind: ObserveEventKind::Snapshot(snapshot),
                });
            }
        }
        self.last_total = total;
        if !self.pending.is_empty() {
            self.last_emit = Some(now);
        }
    }
}

impl<T: Observe + Send> EventStream for PollingStream<T> {
    fn try_next(&mut self) -> Option<ObserveEvent> {
        if let Some(event) = self.pending.pop_front() {
            return Some(event);
        }
        if let Some(at) = self.last_emit {
            if at.elapsed() < self.filter.min_interval {
                return None;
            }
        }
        self.poll();
        self.pending.pop_front()
    }

    fn wait_next(&mut self, timeout: Duration) -> Option<ObserveEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(event) = self.try_next() {
                return Some(event);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn interest_mask_roundtrips_and_combines() {
        let mask = Interest::SNAPSHOTS | Interest::BEATS;
        assert!(mask.contains(Interest::SNAPSHOTS));
        assert!(mask.contains(Interest::BEATS));
        assert!(!mask.contains(Interest::HEALTH));
        assert_eq!(Interest::from_bits(mask.bits()), Some(mask));
        assert_eq!(Interest::from_bits(0b1000), None, "unknown bits rejected");
        assert!(Interest::NONE.is_empty());
        assert!(Interest::ALL.contains(mask));
    }

    #[test]
    fn observed_health_encoding_is_stable() {
        for (level, value) in [
            (ObservedHealth::NoSignal, 0),
            (ObservedHealth::Stalled, 1),
            (ObservedHealth::Degraded, 2),
            (ObservedHealth::Healthy, 3),
        ] {
            assert_eq!(level.as_u8(), value);
            assert_eq!(ObservedHealth::from_u8(value), Some(level));
        }
        assert_eq!(ObservedHealth::from_u8(4), None);
        assert!(ObservedHealth::Healthy > ObservedHealth::Stalled);
    }

    /// A scripted source: totals and health controlled by the test.
    #[derive(Clone)]
    struct Scripted {
        total: Arc<AtomicU64>,
        rate: f64,
    }

    impl Observe for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn snapshot(&self) -> Option<ObservedSnapshot> {
            Some(ObservedSnapshot {
                total_beats: self.total.load(Ordering::Relaxed),
                rate_bps: Some(self.rate),
                target: None,
                dropped: 0,
                alive: true,
            })
        }

        fn health(&self) -> ObservedHealth {
            if self.total.load(Ordering::Relaxed) == 0 {
                ObservedHealth::NoSignal
            } else {
                ObservedHealth::Healthy
            }
        }

        fn subscribe(&self, filter: &ObserveFilter) -> Result<ObserveStream, ObserveError> {
            Ok(polling_stream(self.clone(), filter.clone()))
        }
    }

    #[test]
    fn polling_stream_synthesizes_snapshots_and_health_transitions() {
        let total = Arc::new(AtomicU64::new(0));
        let source = Scripted {
            total: Arc::clone(&total),
            rate: 10.0,
        };
        let filter = ObserveFilter::new(Interest::SNAPSHOTS | Interest::HEALTH)
            .min_interval(Duration::ZERO)
            .stall_after(Duration::from_millis(60));
        let mut stream = source.subscribe(&filter).unwrap();
        assert!(stream.try_next().is_none(), "nothing before the first beat");

        total.store(3, Ordering::Relaxed);
        let first = stream.try_next().expect("health transition");
        assert_eq!(
            first.kind,
            ObserveEventKind::Health {
                from: ObservedHealth::NoSignal,
                to: ObservedHealth::Healthy,
            }
        );
        match stream.try_next().expect("snapshot follows").kind {
            ObserveEventKind::Snapshot(snapshot) => assert_eq!(snapshot.total_beats, 3),
            other => panic!("expected snapshot, got {other:?}"),
        }

        // The total stops advancing: past stall_after the stream reports a
        // synthesized stall transition even though the source says Healthy.
        std::thread::sleep(Duration::from_millis(90));
        let stalled = stream
            .wait_next(Duration::from_millis(200))
            .expect("stall transition");
        assert_eq!(
            stalled.kind,
            ObserveEventKind::Health {
                from: ObservedHealth::Healthy,
                to: ObservedHealth::Stalled,
            }
        );

        // Recovery on fresh beats.
        total.store(4, Ordering::Relaxed);
        let recovered = stream
            .wait_next(Duration::from_millis(200))
            .expect("recovery transition");
        assert_eq!(
            recovered.kind,
            ObserveEventKind::Health {
                from: ObservedHealth::Stalled,
                to: ObservedHealth::Healthy,
            }
        );
    }

    #[test]
    fn polling_stream_respects_min_interval() {
        let total = Arc::new(AtomicU64::new(1));
        let source = Scripted {
            total: Arc::clone(&total),
            rate: 1.0,
        };
        let filter =
            ObserveFilter::new(Interest::SNAPSHOTS).min_interval(Duration::from_secs(3600));
        let mut stream = source.subscribe(&filter).unwrap();
        // First poll emits (fresh progress, no prior emission)...
        total.store(2, Ordering::Relaxed);
        assert!(stream.try_next().is_some());
        // ...then the huge min_interval suppresses further polls even though
        // the total keeps advancing.
        total.store(3, Ordering::Relaxed);
        assert!(stream.try_next().is_none());
        assert!(!stream.is_closed(), "polling streams never close");
    }

    #[test]
    fn polling_stream_starts_at_the_present() {
        // 10k beats of history must not be replayed into a new stream.
        let total = Arc::new(AtomicU64::new(10_000));
        let source = Scripted {
            total: Arc::clone(&total),
            rate: 1.0,
        };
        let filter = ObserveFilter::new(Interest::SNAPSHOTS).min_interval(Duration::ZERO);
        let mut stream = source.subscribe(&filter).unwrap();
        assert!(
            stream.try_next().is_none(),
            "no event until something new happens"
        );
        total.store(10_001, Ordering::Relaxed);
        match stream.try_next().expect("fresh progress emits").kind {
            ObserveEventKind::Snapshot(snapshot) => {
                assert_eq!(snapshot.total_beats, 10_001)
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn filter_builder_sets_fields() {
        let filter = ObserveFilter::new(Interest::BEATS)
            .min_interval(Duration::from_millis(7))
            .stall_after(Duration::from_secs(9));
        assert_eq!(filter.interests, Interest::BEATS);
        assert_eq!(filter.min_interval, Duration::from_millis(7));
        assert_eq!(filter.stall_after, Duration::from_secs(9));
        let default = ObserveFilter::default();
        assert!(default.interests.contains(Interest::SNAPSHOTS));
        assert!(default.interests.contains(Interest::HEALTH));
    }

    #[test]
    fn observe_error_displays() {
        assert!(ObserveError::Unsupported("v2 peer".into())
            .to_string()
            .contains("v2 peer"));
        assert!(ObserveError::Transport("gone".into())
            .to_string()
            .contains("gone"));
    }
}
