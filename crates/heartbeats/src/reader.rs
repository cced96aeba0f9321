//! Read-only observer handles.
//!
//! An external observer (the OS scheduler in Section 5.3 of the paper, a
//! cloud manager, a hardware model, or the application's own control thread)
//! holds a [`HeartbeatReader`]: it can query rates, history and targets but
//! cannot produce beats or change the application's declared goals.

use std::sync::Arc;

use crate::heartbeat::Shared;
use crate::record::{BeatThreadId, HeartbeatRecord};
use crate::target::TargetStatus;
use crate::window::{self, WindowStats};

/// Health of a heartbeat stream as seen by an observer.
///
/// The paper motivates heartbeats for failure detection: "a lack of
/// heartbeats from a particular node would indicate that it has failed, and
/// slow or erratic heartbeats could indicate that a machine is about to
/// fail". [`HeartbeatReader::health`] encodes that triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// No beat has ever been observed.
    NeverBeat,
    /// Beats are arriving and the last one is recent.
    Alive,
    /// The last beat is older than the staleness threshold; the application
    /// may have hung, deadlocked or crashed.
    Stalled,
}

/// A read-only view of one application's heartbeat state.
///
/// Cloning is cheap; readers share the producer's buffers and never copy the
/// history until asked.
#[derive(Debug, Clone)]
pub struct HeartbeatReader {
    shared: Arc<Shared>,
}

impl HeartbeatReader {
    pub(crate) fn from_shared(shared: Arc<Shared>) -> Self {
        HeartbeatReader { shared }
    }

    /// The observed application's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The default window the application registered.
    pub fn default_window(&self) -> usize {
        self.shared.default_window
    }

    /// Average heart rate over the last `window` global beats
    /// (`HB_current_rate` from the observer side). `0` means the default
    /// window.
    pub fn current_rate(&self, window: usize) -> Option<f64> {
        self.shared.rate_over(self.shared.global.as_ref(), window)
    }

    /// Lifetime average heart rate (Table 2's metric).
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

    /// The last `n` global heartbeats in chronological order.
    pub fn history(&self, n: usize) -> Vec<HeartbeatRecord> {
        self.shared.global.last_n(n)
    }

    /// The last `n` local heartbeats of a specific thread, if that thread has
    /// produced any.
    pub fn history_of_thread(&self, thread: BeatThreadId, n: usize) -> Vec<HeartbeatRecord> {
        match self
            .shared
            .locals
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&thread.index())
        {
            Some(buffer) => buffer.last_n(n),
            None => Vec::new(),
        }
    }

    /// Threads that have produced local beats.
    pub fn local_threads(&self) -> Vec<BeatThreadId> {
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

    /// Total number of global beats produced so far.
    pub fn total_beats(&self) -> u64 {
        self.shared.global.total()
    }

    /// Minimum target rate declared by the application (negative if unset).
    pub fn target_min(&self) -> f64 {
        self.shared.target.min_bps()
    }

    /// Maximum target rate declared by the application (negative if unset).
    pub fn target_max(&self) -> f64 {
        self.shared.target.max_bps()
    }

    /// The declared target window, if any.
    pub fn target(&self) -> Option<(f64, f64)> {
        self.shared.target.range()
    }

    /// Classifies the current rate (over `window` beats) against the
    /// application's declared target.
    pub fn target_status(&self, window: usize) -> TargetStatus {
        match self.current_rate(window) {
            None => TargetStatus::NoTarget,
            Some(rate) => self.shared.target.classify(rate),
        }
    }

    /// Timestamp of the most recent global beat, if any.
    pub fn last_beat_ns(&self) -> Option<u64> {
        self.shared.global.latest().map(|r| r.timestamp_ns)
    }

    /// Nanoseconds elapsed since the most recent global beat.
    pub fn time_since_last_beat_ns(&self) -> Option<u64> {
        let last = self.last_beat_ns()?;
        Some(self.shared.clock.now_ns().saturating_sub(last))
    }

    /// Health triage: has the application ever beat, and is its last beat
    /// more recent than `stale_after_ns`?
    pub fn health(&self, stale_after_ns: u64) -> HealthStatus {
        match self.time_since_last_beat_ns() {
            None => HealthStatus::NeverBeat,
            Some(age) if age > stale_after_ns => HealthStatus::Stalled,
            Some(_) => HealthStatus::Alive,
        }
    }

    /// Current time on the observed application's clock (ns).
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }
}

impl crate::observe::Observe for HeartbeatReader {
    fn name(&self) -> &str {
        HeartbeatReader::name(self)
    }

    fn snapshot(&self) -> Option<crate::observe::ObservedSnapshot> {
        Some(crate::observe::ObservedSnapshot {
            total_beats: self.total_beats(),
            rate_bps: self.current_rate(0),
            target: self.target(),
            dropped: 0, // the in-process buffers never shed beats
            alive: self.health(crate::observe::DEFAULT_STALE_NS) == HealthStatus::Alive,
        })
    }

    fn health(&self) -> crate::observe::ObservedHealth {
        use crate::observe::ObservedHealth;
        match HeartbeatReader::health(self, crate::observe::DEFAULT_STALE_NS) {
            HealthStatus::NeverBeat => ObservedHealth::NoSignal,
            HealthStatus::Stalled => ObservedHealth::Stalled,
            HealthStatus::Alive => {
                // Mirror the collector's rate-below-target anomaly so local
                // and remote observers agree on what "degraded" means.
                match (self.current_rate(0), self.target()) {
                    (Some(rate), Some((min, _))) if rate < min => ObservedHealth::Degraded,
                    _ => ObservedHealth::Healthy,
                }
            }
        }
    }

    fn rate(&self, window: usize) -> Option<f64> {
        self.current_rate(window)
    }

    fn beats_since(&self, seen_total: u64) -> Option<Vec<crate::observe::ObservedBeat>> {
        let total = self.total_beats();
        let fresh = total.saturating_sub(seen_total);
        if fresh == 0 {
            return Some(Vec::new());
        }
        // The bounded history may have already evicted the oldest of the
        // fresh beats; return what is retained (sequence numbers make any
        // gap visible to the consumer).
        Some(
            self.history(fresh.min(usize::MAX as u64) as usize)
                .into_iter()
                .filter(|record| record.seq >= seen_total)
                .map(|record| crate::observe::ObservedBeat {
                    record,
                    scope: crate::backend::BeatScope::Global,
                })
                .collect(),
        )
    }

    fn subscribe(
        &self,
        filter: &crate::observe::ObserveFilter,
    ) -> Result<crate::observe::ObserveStream, crate::observe::ObserveError> {
        // No push plane in-process: synthesize the identical event stream
        // from polling (cheap — the reader shares the producer's buffers).
        Ok(crate::observe::polling_stream(self.clone(), filter.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HeartbeatBuilder;
    use crate::clock::ManualClock;
    use crate::record::Tag;
    use crate::target::TargetStatus;
    use std::sync::Arc;

    fn setup() -> (crate::Heartbeat, HeartbeatReader, ManualClock) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("observed-app")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        let reader = hb.reader();
        (hb, reader, clock)
    }

    #[test]
    fn reader_sees_producer_beats() {
        let (hb, reader, clock) = setup();
        assert_eq!(reader.total_beats(), 0);
        for _ in 0..5 {
            clock.advance_ns(100_000_000);
            hb.heartbeat();
        }
        assert_eq!(reader.total_beats(), 5);
        assert!((reader.current_rate(0).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(reader.history(2).len(), 2);
        assert_eq!(reader.name(), "observed-app");
        assert_eq!(reader.default_window(), 10);
    }

    #[test]
    fn reader_sees_targets() {
        let (hb, reader, clock) = setup();
        assert!(reader.target().is_none());
        hb.set_target_rate(2.5, 3.5).unwrap();
        assert_eq!(reader.target(), Some((2.5, 3.5)));
        assert_eq!(reader.target_min(), 2.5);
        assert_eq!(reader.target_max(), 3.5);

        // Produce beats at 10/s -> above the target window.
        for _ in 0..6 {
            clock.advance_ns(100_000_000);
            hb.heartbeat();
        }
        assert_eq!(reader.target_status(0), TargetStatus::AboveTarget);
    }

    #[test]
    fn reader_health_triage() {
        let (hb, reader, clock) = setup();
        assert_eq!(reader.health(1_000_000), HealthStatus::NeverBeat);
        clock.advance_ns(10);
        hb.heartbeat();
        assert_eq!(reader.health(1_000_000), HealthStatus::Alive);
        clock.advance_ns(2_000_000);
        assert_eq!(reader.health(1_000_000), HealthStatus::Stalled);
        assert_eq!(reader.time_since_last_beat_ns(), Some(2_000_000));
    }

    #[test]
    fn reader_local_thread_histories() {
        let (hb, reader, clock) = setup();
        clock.advance_ns(10);
        hb.heartbeat_local(Tag::new(7));
        let threads = reader.local_threads();
        assert_eq!(threads.len(), 1);
        let hist = reader.history_of_thread(threads[0], 10);
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].tag, Tag::new(7));
        // Unknown thread yields an empty history.
        assert!(reader
            .history_of_thread(crate::record::BeatThreadId(9_999), 10)
            .is_empty());
    }

    #[test]
    fn reader_window_stats_and_average() {
        let (hb, reader, clock) = setup();
        for _ in 0..10 {
            clock.advance_ns(50_000_000); // 20 beats/s
            hb.heartbeat();
        }
        let stats = reader.window_stats(0).unwrap();
        assert!((stats.rate_bps - 20.0).abs() < 1e-9);
        assert!(reader.global_average_rate().unwrap() > 20.0);
        assert!(reader.now_ns() >= reader.last_beat_ns().unwrap());
    }

    #[test]
    fn reader_clone_is_independent_handle() {
        let (hb, reader, clock) = setup();
        let reader2 = reader.clone();
        clock.advance_ns(5);
        hb.heartbeat();
        assert_eq!(reader.total_beats(), 1);
        assert_eq!(reader2.total_beats(), 1);
    }
}
