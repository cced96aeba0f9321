//! Collector-side health: bounded per-application history rings and a
//! windowed anomaly detector.
//!
//! The paper's title promises *performance and health*; live aggregates
//! ([`AppSnapshot`](crate::collector::AppSnapshot)) answer the performance
//! question, but once a beat is folded into a rate estimate its history is
//! gone — an observer cannot ask "was this application healthy over the last
//! minute?". This module keeps the answer available:
//!
//! * [`HistoryRing`] — a fixed-capacity ring of [`HistorySample`]s recorded
//!   at ingest. The ring is preallocated when an application registers, so
//!   the beat hot path performs **zero allocation**: recording a sample is a
//!   bounds-checked store plus two index updates.
//! * [`classify`] — the windowed anomaly detector. Given the health
//!   window's [`WindowStats`] it classifies the application as
//!   [`Healthy`](HealthStatus::Healthy), [`Degraded`](HealthStatus::Degraded),
//!   [`Stalled`](HealthStatus::Stalled) or
//!   [`NoSignal`](HealthStatus::NoSignal), with machine-readable
//!   [`HealthReason`]s (stall, rate below target, jitter spike, sequence
//!   anomalies via tag-as-sequence-number, reusing
//!   [`heartbeats::analysis::check_sequence`]).
//!
//! The classifier is a pure function over `(stats, counters, silence,
//! target, config)`; [`assess`] runs it on a sample slice for unit tests
//! and offline analysis. The collector keeps each application's stats and
//! [refreshes](WindowStats::refresh) them on each look: an unchanged ring
//! reuses them, and a ring that took any sample since costs one scan of the
//! window, in place.

use std::time::Duration;

use heartbeats::analysis::check_sequence;
use heartbeats::{BeatThreadId, HeartbeatRecord, Tag};

/// One recorded beat, as kept in a collector-side [`HistoryRing`].
///
/// A sample carries everything the anomaly detector and remote observers
/// need: the producer-assigned sequence number and timestamp, the tag (which
/// doubles as an application sequence number for drop/reorder detection),
/// the inter-beat interval, and the windowed rate estimate at the moment the
/// beat was ingested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistorySample {
    /// Producer-side sequence number of the beat.
    pub seq: u64,
    /// Producer-clock timestamp of the beat in nanoseconds.
    pub timestamp_ns: u64,
    /// The beat's tag value ([`Tag::NONE`] encodes as `0`).
    pub tag: u64,
    /// Gap to the previous global beat in nanoseconds (`0` for the first).
    pub interval_ns: u64,
    /// The collector's windowed rate estimate when this beat arrived, if at
    /// least two beats had been seen.
    pub rate_bps: Option<f64>,
}

/// A fixed-capacity ring of the most recent [`HistorySample`]s.
///
/// The buffer is allocated once, at construction; pushing into a full ring
/// overwrites the oldest sample. `capacity == 0` disables history entirely
/// (every push is dropped), which turns the collector's per-beat sampling
/// cost to zero for deployments that only want live aggregates.
#[derive(Debug, Clone)]
pub struct HistoryRing {
    buf: Vec<HistorySample>,
    /// The configured bound — tracked explicitly (`Vec::capacity` may
    /// over-allocate, and `Vec::clone` shrinks to the length, so neither is
    /// a faithful record of what was asked for).
    capacity: usize,
    /// Index of the next write when the ring is full.
    head: usize,
    /// Samples ever pushed (so observers can see how many were overwritten).
    total: u64,
}

impl HistoryRing {
    /// Creates a ring holding at most `capacity` samples, preallocated so
    /// later pushes never allocate.
    pub fn new(capacity: usize) -> Self {
        HistoryRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Maximum number of samples retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples ever pushed, including those already overwritten.
    pub fn total_pushed(&self) -> u64 {
        self.total
    }

    /// Records one sample, overwriting the oldest if the ring is full.
    /// Never allocates.
    pub fn push(&mut self, sample: HistorySample) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
            self.head = (self.head + 1) % self.buf.len();
        }
    }

    /// The retained samples as two contiguous runs, older run first; the
    /// second is empty until the ring wraps.
    fn slices(&self) -> (&[HistorySample], &[HistorySample]) {
        let (newer, older) = self.buf.split_at(self.head);
        (older, newer)
    }

    /// The retained samples, oldest first.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &HistorySample> {
        let (older, newer) = self.slices();
        older.iter().chain(newer)
    }

    /// The most recent sample, if any.
    pub fn newest(&self) -> Option<&HistorySample> {
        self.iter().next_back()
    }

    /// All retained samples in chronological order (allocates; query path
    /// only).
    pub fn snapshot(&self) -> Vec<HistorySample> {
        self.latest(0)
    }

    /// The most recent `limit` samples in chronological order (`0` = all),
    /// copied as at most two contiguous runs.
    pub fn latest(&self, limit: usize) -> Vec<HistorySample> {
        let len = self.buf.len();
        let skip = len - if limit == 0 { len } else { limit.min(len) };
        let (older, newer) = self.slices();
        let mut out = Vec::with_capacity(len - skip);
        if skip < older.len() {
            out.extend_from_slice(&older[skip..]);
            out.extend_from_slice(newer);
        } else {
            out.extend_from_slice(&newer[skip - older.len()..]);
        }
        out
    }
}

/// The health window in summary: the longest run of samples, ending at the
/// newest, none older than the newest by more than the window (a sample
/// exactly one window old is in it). A gap is a sample's timestamp minus
/// its predecessor's, `0` across a descent; the gap sums are exact
/// integers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    len: u64,
    oldest_ns: u64,
    newest_ns: u64,
    /// The ring's `total_pushed()` when last refreshed.
    through: u64,
    gap_sum: u64,
    gap_sq_sum: u128,
}

impl WindowStats {
    /// Summarises `window`, a chronological sample slice, as one window.
    pub fn of(window: &[HistorySample]) -> WindowStats {
        let mut stats = WindowStats::default();
        for sample in window.iter().rev() {
            stats.push_front(sample.timestamp_ns);
        }
        stats
    }

    /// Prepends the previous sample to the window.
    fn push_front(&mut self, ts: u64) {
        if self.len == 0 {
            self.newest_ns = ts;
        } else {
            let gap = self.oldest_ns.saturating_sub(ts);
            self.gap_sum = self.gap_sum.saturating_add(gap);
            self.gap_sq_sum = self.gap_sq_sum.saturating_add(u128::from(gap).pow(2));
        }
        self.oldest_ns = ts;
        self.len += 1;
    }

    /// Brings the stats up to date with `ring` (the default describes an
    /// empty ring). An unchanged ring costs nothing; one that took a sample
    /// since the last refresh costs a walk back over the window, in place.
    pub fn refresh(&mut self, ring: &HistoryRing, window_ns: u64) {
        if self.through == ring.total_pushed() {
            return;
        }
        *self = WindowStats {
            through: ring.total_pushed(),
            ..WindowStats::default()
        };
        let newest = ring.newest().map_or(0, |s| s.timestamp_ns);
        let cutoff = newest.saturating_sub(window_ns);
        for sample in ring.iter().rev().take_while(|s| s.timestamp_ns >= cutoff) {
            self.push_front(sample.timestamp_ns);
        }
    }

    /// The window's samples, chronological, copied from `ring` (which the
    /// stats must be up to date with).
    pub(crate) fn window(&self, ring: &HistoryRing) -> Vec<HistorySample> {
        ring.latest(self.len as usize)
    }
}

/// Coarse health classification of one application over a window.
///
/// The numeric discriminants are stable: they are the values exported by the
/// `hb_app_health` Prometheus gauge and carried in
/// [`Frame::Health`](crate::wire::Frame::Health) responses. Higher is
/// healthier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HealthStatus {
    /// The application has never produced a global beat.
    NoSignal = 0,
    /// Beats used to arrive but none has arrived within the health window.
    Stalled = 1,
    /// Beats are arriving but the window shows an anomaly (rate below the
    /// declared target, interval jitter spike, or dropped/reordered
    /// sequence tags).
    Degraded = 2,
    /// Beats are arriving and the window shows no anomaly.
    Healthy = 3,
}

/// Every status with its canonical text, indexed by its numeric encoding.
const STATUSES: [(HealthStatus, &str); 4] = [
    (HealthStatus::NoSignal, "nosignal"),
    (HealthStatus::Stalled, "stalled"),
    (HealthStatus::Degraded, "degraded"),
    (HealthStatus::Healthy, "healthy"),
];

impl HealthStatus {
    /// The stable numeric encoding (also the Prometheus gauge value).
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes the stable numeric encoding.
    pub fn from_u8(value: u8) -> Option<HealthStatus> {
        STATUSES.get(usize::from(value)).map(|&(status, _)| status)
    }

    /// Canonical text form (`healthy`, `degraded`, `stalled`, `nosignal`),
    /// as served by the `HEALTH` query command.
    pub fn as_str(self) -> &'static str {
        STATUSES[self as usize].1
    }

    /// Parses the canonical text form produced by [`as_str`](Self::as_str).
    pub fn parse(text: &str) -> Option<HealthStatus> {
        STATUSES
            .iter()
            .find(|&&(_, name)| name == text)
            .map(|&(status, _)| status)
    }
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Machine-readable explanation attached to a non-healthy classification.
///
/// Each reason has a stable bit (see [`HealthReason::bit`]) so a set of
/// reasons travels on the wire as one `u16` bitmask. The variants are
/// declared in bit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthReason {
    /// No global beat has ever been received.
    NoBeats,
    /// No beat arrived within the health window.
    Silent,
    /// The windowed rate is below the declared target minimum.
    RateBelowTarget,
    /// Inter-beat interval jitter (coefficient of variation) exceeded the
    /// configured threshold.
    JitterSpike,
    /// Tag-as-sequence-number validation found dropped, duplicated or
    /// reordered beats in the window.
    SequenceAnomaly,
}

/// Every reason with its canonical text, in wire-bit order: the reason at
/// index `i` travels as bit `1 << i`.
const REASONS: [(HealthReason, &str); 5] = [
    (HealthReason::NoBeats, "no-beats"),
    (HealthReason::Silent, "silent"),
    (HealthReason::RateBelowTarget, "rate-below-target"),
    (HealthReason::JitterSpike, "jitter-spike"),
    (HealthReason::SequenceAnomaly, "sequence-anomaly"),
];

/// All reasons, in bit order.
pub const ALL_REASONS: [HealthReason; 5] = [
    REASONS[0].0,
    REASONS[1].0,
    REASONS[2].0,
    REASONS[3].0,
    REASONS[4].0,
];

impl HealthReason {
    /// The stable wire bit for this reason.
    pub fn bit(self) -> u16 {
        1 << self as u16
    }

    /// Canonical text form, as served by the `HEALTH` query command.
    pub fn as_str(self) -> &'static str {
        REASONS[self as usize].1
    }

    /// Packs a set of reasons into the wire bitmask.
    pub fn pack(reasons: &[HealthReason]) -> u16 {
        reasons.iter().fold(0, |mask, r| mask | r.bit())
    }

    /// Unpacks a wire bitmask into reasons, in bit order. Unknown bits are
    /// ignored (forward compatibility).
    pub fn unpack(mask: u16) -> Vec<HealthReason> {
        ALL_REASONS
            .iter()
            .copied()
            .filter(|r| mask & r.bit() != 0)
            .collect()
    }
}

/// Tuning knobs for the windowed anomaly detector.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// The health window: the span of recent history judged, and the
    /// silence threshold beyond which an application is `Stalled`.
    pub window: Duration,
    /// Degrade when the coefficient of variation (stddev / mean) of the
    /// window's inter-beat intervals exceeds this.
    pub jitter_cv: f64,
    /// Minimum inter-beat intervals inside the window before jitter is
    /// judged at all (small windows are statistically meaningless).
    pub min_jitter_intervals: usize,
    /// Treat tags as sequence numbers and degrade on dropped, duplicated or
    /// reordered beats (the paper's tag-as-sequence-number convention).
    /// Off by default because tags are application-defined.
    pub sequence_tags: bool,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: Duration::from_secs(5),
            jitter_cv: 1.0,
            min_jitter_intervals: 8,
            sequence_tags: false,
        }
    }
}

/// The anomaly detector's verdict over one health window.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The classification.
    pub status: HealthStatus,
    /// Why, when not [`HealthStatus::Healthy`] (empty when healthy).
    pub reasons: Vec<HealthReason>,
    /// Global beats inside the window.
    pub window_beats: u32,
    /// Rate over the window's beats, if at least two span nonzero time.
    pub window_rate_bps: Option<f64>,
    /// Coefficient of variation of the window's inter-beat intervals, if
    /// enough intervals exist.
    pub jitter_cv: Option<f64>,
    /// Sequence numbers missing from the window (tag-as-sequence).
    pub missing: u32,
    /// Sequence numbers duplicated in the window.
    pub duplicated: u32,
    /// Adjacent window pairs that arrived out of order.
    pub reordered: u32,
    /// Nanoseconds since the last global beat arrived at the collector.
    pub silent_ns: u64,
}

impl HealthReport {
    /// A report for an application that has never beaten.
    pub fn no_signal() -> HealthReport {
        HealthReport {
            status: HealthStatus::NoSignal,
            reasons: vec![HealthReason::NoBeats],
            window_beats: 0,
            window_rate_bps: None,
            jitter_cv: None,
            missing: 0,
            duplicated: 0,
            reordered: 0,
            silent_ns: 0,
        }
    }

    /// Tag-as-sequence-number validation of the window's samples (the
    /// paper's drop/reorder story), reusing the analysis machinery observers
    /// use on local histories. A stalled or silent report is left as is.
    pub(crate) fn check_sequence(&mut self, window: &[HistorySample]) {
        if self.status < HealthStatus::Degraded || window.is_empty() {
            return;
        }
        let records: Vec<HeartbeatRecord> = window
            .iter()
            .map(|s| HeartbeatRecord::new(s.seq, s.timestamp_ns, Tag::new(s.tag), BeatThreadId(0)))
            .collect();
        let start = window.iter().map(|s| s.tag).min().unwrap_or(0);
        let seq_report = check_sequence(&records, start);
        self.missing = seq_report.missing.len().min(u32::MAX as usize) as u32;
        self.duplicated = seq_report.duplicated.len().min(u32::MAX as usize) as u32;
        self.reordered = seq_report.reordered.min(u32::MAX as usize) as u32;
        if !seq_report.is_clean() {
            self.reasons.push(HealthReason::SequenceAnomaly);
            self.status = HealthStatus::Degraded;
        }
    }
}

/// [`classify`] for a health window given as its chronological samples
/// ([`WindowStats::of`] them), plus the tag-as-sequence check.
pub fn assess(
    window: &[HistorySample],
    total_beats: u64,
    silent_for: Duration,
    target: Option<(f64, f64)>,
    config: &HealthConfig,
) -> HealthReport {
    let stats = WindowStats::of(window);
    let mut report = classify(&stats, total_beats, silent_for, target, config);
    if config.sequence_tags {
        report.check_sequence(window);
    }
    report
}

/// Classifies one application over its health window.
///
/// * `window` — the health window's statistics.
/// * `total_beats` — global beats ever received for the application.
/// * `silent_for` — wall-clock time since the last global beat *arrived at
///   the collector* (receiver clock, so a producer with a bad clock still
///   stalls honestly).
/// * `target` — the application's declared target range, if any.
///
/// Classification rules, in priority order:
///
/// 1. never beaten → [`NoSignal`](HealthStatus::NoSignal)
/// 2. `silent_for >= config.window` → [`Stalled`](HealthStatus::Stalled)
/// 3. windowed rate below the target minimum, or jitter CV above
///    `config.jitter_cv` → [`Degraded`](HealthStatus::Degraded)
/// 4. otherwise → [`Healthy`](HealthStatus::Healthy)
///
/// With `config.sequence_tags`, callers follow up with the tag-as-sequence
/// check over the window's samples, as [`assess`] does.
pub fn classify(
    window: &WindowStats,
    total_beats: u64,
    silent_for: Duration,
    target: Option<(f64, f64)>,
    config: &HealthConfig,
) -> HealthReport {
    if total_beats == 0 {
        return HealthReport::no_signal();
    }
    let mut report = HealthReport {
        status: HealthStatus::Healthy,
        reasons: Vec::new(),
        window_beats: window.len.min(u64::from(u32::MAX)) as u32,
        window_rate_bps: None,
        jitter_cv: None,
        missing: 0,
        duplicated: 0,
        reordered: 0,
        silent_ns: silent_for.as_nanos().min(u64::MAX as u128) as u64,
    };

    if silent_for >= config.window {
        report.status = HealthStatus::Stalled;
        report.reasons.push(HealthReason::Silent);
        return report;
    }

    // Windowed rate from the samples' own timestamps.
    let span = window.newest_ns.saturating_sub(window.oldest_ns);
    if window.len >= 2 && span > 0 {
        report.window_rate_bps = Some((window.len - 1) as f64 / (span as f64 / 1e9));
    }
    if let (Some(rate), Some((min_bps, _))) = (report.window_rate_bps, target) {
        if rate < min_bps {
            report.reasons.push(HealthReason::RateBelowTarget);
        }
    }

    // Interval jitter: the gaps' coefficient of variation. From the exact
    // sums, the variance is (nΣx² − (Σx)²) / n², so CV = √(nΣx² − (Σx)²) / Σx.
    let intervals = window.len.saturating_sub(1);
    if intervals >= config.min_jitter_intervals as u64 && window.gap_sum > 0 {
        let sum = u128::from(window.gap_sum);
        let spread = u128::from(intervals).saturating_mul(window.gap_sq_sum);
        let cv = (spread.saturating_sub(sum * sum) as f64).sqrt() / window.gap_sum as f64;
        report.jitter_cv = Some(cv);
        if cv > config.jitter_cv {
            report.reasons.push(HealthReason::JitterSpike);
        }
    }

    if !report.reasons.is_empty() {
        report.status = HealthStatus::Degraded;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, t_ms: u64) -> HistorySample {
        HistorySample {
            seq,
            timestamp_ns: t_ms * 1_000_000,
            tag: seq,
            interval_ns: 0,
            rate_bps: None,
        }
    }

    /// `n` samples, `interval_ms` apart, starting at t=0 with tags == seqs.
    fn steady(n: u64, interval_ms: u64) -> Vec<HistorySample> {
        (0..n).map(|i| sample(i, i * interval_ms)).collect()
    }

    #[test]
    fn ring_fills_then_overwrites_oldest() {
        let mut ring = HistoryRing::new(4);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.is_empty());
        for i in 0..6 {
            ring.push(sample(i, i * 10));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.total_pushed(), 6);
        let seqs: Vec<u64> = ring.snapshot().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5], "oldest two were overwritten");
        assert_eq!(ring.newest().unwrap().seq, 5);
    }

    #[test]
    fn ring_newest_before_wraparound() {
        let mut ring = HistoryRing::new(8);
        ring.push(sample(0, 0));
        ring.push(sample(1, 10));
        assert_eq!(ring.newest().unwrap().seq, 1);
        assert_eq!(ring.len(), 2);
    }

    /// The stats of `ring`'s window, refreshed from nothing.
    fn fresh(ring: &HistoryRing, window_ns: u64) -> WindowStats {
        let mut stats = WindowStats::default();
        stats.refresh(ring, window_ns);
        stats
    }

    #[test]
    fn zero_capacity_ring_keeps_an_empty_window() {
        let mut ring = HistoryRing::new(0);
        ring.push(sample(0, 0));
        assert!(ring.is_empty());
        assert_eq!(ring.total_pushed(), 1);
        assert!(ring.newest().is_none());
        let stats = fresh(&ring, 1_000);
        assert_eq!((stats.len, stats.through), (0, 1));
        assert!(stats.window(&ring).is_empty());
    }

    #[test]
    fn latest_limits_from_the_tail() {
        let mut ring = HistoryRing::new(8);
        for i in 0..5 {
            ring.push(sample(i, i));
        }
        let last2: Vec<u64> = ring.latest(2).iter().map(|s| s.seq).collect();
        assert_eq!(last2, vec![3, 4]);
        assert_eq!(ring.latest(0).len(), 5, "0 means all");
        assert_eq!(ring.latest(99).len(), 5);
    }

    #[test]
    fn window_stats_boundary_is_inclusive() {
        // Beats at 0, 100, 200 ms; a 200 ms window from the newest must
        // include the beat at exactly t=0.
        let mut ring = HistoryRing::new(8);
        for i in 0..3 {
            ring.push(sample(i, i * 100));
        }
        let exact = fresh(&ring, 200 * 1_000_000);
        assert_eq!(exact.len, 3, "exact-boundary sample included");
        assert_eq!(exact.window(&ring), ring.latest(0));
        let tighter = fresh(&ring, 200 * 1_000_000 - 1);
        assert_eq!(tighter.len, 2);
        assert_eq!(tighter.oldest_ns, 100 * 1_000_000);
    }

    #[test]
    fn refresh_reuses_an_unchanged_ring_and_rescans_a_changed_one() {
        let window_ns = 60 * 1_000_000;
        let mut ring = HistoryRing::new(16);
        for i in 0..12 {
            ring.push(sample(i, i * i));
        }
        let mut stats = fresh(&ring, window_ns);
        let first = stats.clone();
        // Unchanged ring: a mark planted in the stats survives the refresh.
        stats.gap_sum += 1;
        stats.refresh(&ring, window_ns);
        assert_eq!(stats.gap_sum, first.gap_sum + 1, "reused, not rescanned");
        // Changed ring, wrapped, with a clock step back (130 → 125) in the
        // window: the walk back from 170 keeps everything down to 121 (the
        // cutoff is 110), the descent's gap counting as 0.
        for (i, t) in [130, 125, 135, 140, 150, 170].into_iter().enumerate() {
            ring.push(sample(12 + i as u64, t));
        }
        stats.refresh(&ring, window_ns);
        let window: Vec<HistorySample> = [121, 130, 125, 135, 140, 150, 170]
            .into_iter()
            .map(|t| sample(0, t))
            .collect();
        let expected = WindowStats {
            through: 18,
            ..WindowStats::of(&window)
        };
        assert_eq!(stats, expected);
        assert_eq!((stats.len, stats.gap_sum), (7, 54 * 1_000_000));
    }

    #[test]
    fn summary_matches_welford() {
        let mut window = steady(20, 100);
        for (i, s) in window.iter_mut().enumerate() {
            s.timestamp_ns += (i as u64 % 3) * 37_000_000;
        }
        let mut welford = heartbeats::stats::OnlineStats::new();
        for pair in window.windows(2) {
            welford.push(pair[1].timestamp_ns.saturating_sub(pair[0].timestamp_ns) as f64);
        }
        let config = HealthConfig::default();
        let report = classify(&WindowStats::of(&window), 20, Duration::ZERO, None, &config);
        let cv = report.jitter_cv.unwrap();
        let expected = welford.stddev() / welford.mean();
        assert!(
            (cv - expected).abs() <= 1e-12 * expected,
            "{cv} vs {expected}"
        );
    }

    #[test]
    fn status_codes_are_stable() {
        for (code, status, text) in [
            (0, HealthStatus::NoSignal, "nosignal"),
            (1, HealthStatus::Stalled, "stalled"),
            (2, HealthStatus::Degraded, "degraded"),
            (3, HealthStatus::Healthy, "healthy"),
        ] {
            assert_eq!(status.as_u8(), code);
            assert_eq!(status.as_str(), text);
            assert_eq!(HealthStatus::from_u8(code), Some(status));
            assert_eq!(HealthStatus::parse(text), Some(status));
            assert_eq!(status.to_string(), text);
        }
        assert_eq!(HealthStatus::from_u8(9), None);
        assert_eq!(HealthStatus::parse("fine"), None);
        assert!(HealthStatus::Healthy > HealthStatus::Stalled);
    }

    /// The wire bits and texts are protocol: pinned literally, not derived.
    #[test]
    fn reason_bits_and_texts_are_pinned() {
        let pinned = [
            (HealthReason::NoBeats, 1, "no-beats"),
            (HealthReason::Silent, 2, "silent"),
            (HealthReason::RateBelowTarget, 4, "rate-below-target"),
            (HealthReason::JitterSpike, 8, "jitter-spike"),
            (HealthReason::SequenceAnomaly, 16, "sequence-anomaly"),
        ];
        for (reason, bit, text) in pinned {
            assert_eq!((reason.bit(), reason.as_str()), (bit, text), "{reason:?}");
        }
        assert_eq!(ALL_REASONS.map(|r| r.bit()), [1, 2, 4, 8, 16]);
    }

    #[test]
    fn reason_bitmask_roundtrip() {
        let reasons = vec![HealthReason::Silent, HealthReason::JitterSpike];
        let mask = HealthReason::pack(&reasons);
        assert_eq!(mask, 0b1010);
        assert_eq!(HealthReason::unpack(mask), reasons);
        assert_eq!(HealthReason::unpack(0), vec![]);
        // Unknown high bits are ignored.
        assert_eq!(HealthReason::unpack(0x8000), vec![]);
    }

    #[test]
    fn empty_history_is_no_signal() {
        let report = assess(&[], 0, Duration::ZERO, None, &HealthConfig::default());
        assert_eq!(report.status, HealthStatus::NoSignal);
        assert_eq!(report.reasons, vec![HealthReason::NoBeats]);
        assert_eq!(report.window_beats, 0);
    }

    #[test]
    fn single_beat_is_healthy_but_unmeasured() {
        // One beat: alive (recent arrival) but no rate or jitter exists yet,
        // so nothing can be judged anomalous — even against a target.
        let window = steady(1, 100);
        let report = assess(
            &window,
            1,
            Duration::from_millis(50),
            Some((30.0, 35.0)),
            &HealthConfig::default(),
        );
        assert_eq!(report.status, HealthStatus::Healthy);
        assert_eq!(report.window_beats, 1);
        assert_eq!(report.window_rate_bps, None);
        assert_eq!(report.jitter_cv, None);
    }

    #[test]
    fn silence_beyond_the_window_is_stalled() {
        let config = HealthConfig {
            window: Duration::from_millis(500),
            ..HealthConfig::default()
        };
        let window = steady(10, 10);
        let report = assess(&window, 10, Duration::from_millis(500), None, &config);
        assert_eq!(report.status, HealthStatus::Stalled, "boundary is stalled");
        assert_eq!(report.reasons, vec![HealthReason::Silent]);
        assert!(report.silent_ns >= 500_000_000);
    }

    #[test]
    fn recovery_transitions_back_to_healthy() {
        let config = HealthConfig {
            window: Duration::from_millis(500),
            ..HealthConfig::default()
        };
        let window = steady(10, 10);
        // Stalled while silent...
        let stalled = assess(&window, 10, Duration::from_secs(3), None, &config);
        assert_eq!(stalled.status, HealthStatus::Stalled);
        // ...healthy again as soon as beats resume (silence resets).
        let recovered = assess(&window, 12, Duration::from_millis(5), None, &config);
        assert_eq!(recovered.status, HealthStatus::Healthy);
        assert!(recovered.reasons.is_empty());
    }

    #[test]
    fn rate_below_target_degrades() {
        // 10 beats at 100 ms spacing = 10 bps, target floor 30 bps.
        let window = steady(10, 100);
        let report = assess(
            &window,
            10,
            Duration::ZERO,
            Some((30.0, 35.0)),
            &HealthConfig::default(),
        );
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec![HealthReason::RateBelowTarget]);
        assert!((report.window_rate_bps.unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rate_within_target_is_healthy() {
        let window = steady(10, 100); // 10 bps
        let report = assess(
            &window,
            10,
            Duration::ZERO,
            Some((5.0, 15.0)),
            &HealthConfig::default(),
        );
        assert_eq!(report.status, HealthStatus::Healthy);
    }

    #[test]
    fn jitter_spike_degrades() {
        // 19 tight intervals plus one 10× gap: CV well above 1.0.
        let mut t = 0u64;
        let mut window = Vec::new();
        for i in 0..20u64 {
            t += if i == 10 { 1_000 } else { 100 };
            window.push(sample(i, t));
        }
        let report = assess(&window, 20, Duration::ZERO, None, &HealthConfig::default());
        assert_eq!(report.status, HealthStatus::Degraded);
        assert_eq!(report.reasons, vec![HealthReason::JitterSpike]);
        assert!(report.jitter_cv.unwrap() > 1.0);
    }

    #[test]
    fn jitter_needs_enough_intervals() {
        // The same spike with too few intervals is not judged.
        let window = vec![sample(0, 0), sample(1, 100), sample(2, 1_100)];
        let report = assess(&window, 3, Duration::ZERO, None, &HealthConfig::default());
        assert_eq!(report.status, HealthStatus::Healthy);
        assert_eq!(report.jitter_cv, None, "below min_jitter_intervals");
    }

    #[test]
    fn sequence_anomalies_degrade_when_enabled() {
        let config = HealthConfig {
            sequence_tags: true,
            ..HealthConfig::default()
        };
        // Tags 0,1,3,5: two missing. Out-of-order pair too.
        let mut window = vec![sample(0, 0), sample(1, 100), sample(3, 200), sample(5, 300)];
        window[2].tag = 5;
        window[3].tag = 3;
        let report = assess(&window, 4, Duration::ZERO, None, &config);
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(report.reasons.contains(&HealthReason::SequenceAnomaly));
        assert!(report.missing > 0);
        assert_eq!(report.reordered, 1);
    }

    #[test]
    fn sequence_checks_are_off_by_default() {
        let mut window = steady(4, 100);
        window[2].tag = 99; // wild tag would look like mass drops
        let report = assess(&window, 4, Duration::ZERO, None, &HealthConfig::default());
        assert_eq!(report.status, HealthStatus::Healthy);
        assert_eq!(report.missing, 0);
    }

    #[test]
    fn multiple_reasons_accumulate() {
        let config = HealthConfig {
            sequence_tags: true,
            min_jitter_intervals: 4,
            ..HealthConfig::default()
        };
        // Slow (vs target), jittery, and with a dropped tag.
        let mut t = 0u64;
        let mut window = Vec::new();
        for i in 0..10u64 {
            t += if i % 3 == 0 { 2_000 } else { 100 };
            let tag = if i >= 5 { i + 3 } else { i };
            let mut s = sample(i, t);
            s.tag = tag;
            window.push(s);
        }
        let report = assess(&window, 10, Duration::ZERO, Some((100.0, 200.0)), &config);
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(report.reasons.len() >= 2, "reasons: {:?}", report.reasons);
    }
}
