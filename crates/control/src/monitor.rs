//! Heart-rate monitoring on top of a [`HeartbeatReader`].
//!
//! Observers in the paper do not react to every single beat: the adaptive
//! encoder "checks its heart rate every 40 frames", and the external
//! scheduler samples the rate between scheduling decisions. [`RateMonitor`]
//! encapsulates that cadence: it polls the reader, and only when enough new
//! beats have arrived does it emit an [`Observation`] for a controller to act
//! on.

use heartbeats::{HeartbeatReader, TargetStatus};

/// Anything a [`RateMonitor`] can sample: an in-process
/// [`HeartbeatReader`], or a remote view such as `hb-net`'s collector client.
///
/// The paper's observers only ever need this small read-only surface — total
/// beats, a windowed rate, and the declared goal — so abstracting it lets one
/// control loop drive adaptation from a local reader, a shared-memory
/// observer, or a network collector without changing the policy code.
pub trait RateSource {
    /// Name of the observed application.
    fn name(&self) -> &str;

    /// Total beats the application has produced so far.
    fn total_beats(&self) -> u64;

    /// Windowed heart rate in beats/s (`0` = the source's default window).
    /// `None` until at least two beats are visible.
    fn current_rate(&self, window: usize) -> Option<f64>;

    /// The application's declared target range, if any.
    fn target(&self) -> Option<(f64, f64)>;

    /// Classifies the current rate against the declared target.
    fn target_status(&self, window: usize) -> TargetStatus {
        classify(self.current_rate(window), self.target())
    }

    /// Takes one coherent sample of `(total beats, rate, target)`.
    ///
    /// The default composes the fine-grained accessors, which is already
    /// coherent for in-process sources. Remote sources should override it
    /// with a single round trip so a monitor's observation is not torn
    /// across several network requests (and several collector states).
    fn sample(&self, window: usize) -> RateSample {
        RateSample {
            total_beats: self.total_beats(),
            rate_bps: self.current_rate(window),
            target: self.target(),
        }
    }
}

/// One coherent `(total beats, rate, target)` measurement from a
/// [`RateSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSample {
    /// Total beats at the sample.
    pub total_beats: u64,
    /// Windowed rate at the sample, if measurable.
    pub rate_bps: Option<f64>,
    /// Declared target range at the sample, if any.
    pub target: Option<(f64, f64)>,
}

/// Classifies a measured rate against a declared target range.
fn classify(rate: Option<f64>, target: Option<(f64, f64)>) -> TargetStatus {
    match (rate, target) {
        (None, _) | (_, None) => TargetStatus::NoTarget,
        (Some(rate), Some((min, max))) => {
            if rate < min {
                TargetStatus::BelowTarget
            } else if rate > max {
                TargetStatus::AboveTarget
            } else {
                TargetStatus::WithinTarget
            }
        }
    }
}

/// Every [`Observe`](heartbeats::Observe) transport is a [`RateSource`]:
/// the unified observer trait carries everything a monitor samples, so one
/// blanket implementation covers the in-process reader, the shared-memory
/// observer and the network collector client alike. (Because of this
/// blanket, new sources implement `Observe` — never `RateSource` directly.)
impl<T: heartbeats::Observe> RateSource for T {
    fn name(&self) -> &str {
        heartbeats::Observe::name(self)
    }

    fn total_beats(&self) -> u64 {
        self.snapshot().map(|s| s.total_beats).unwrap_or(0)
    }

    fn current_rate(&self, window: usize) -> Option<f64> {
        self.rate(window)
    }

    fn target(&self) -> Option<(f64, f64)> {
        self.snapshot().and_then(|s| s.target)
    }

    fn sample(&self, window: usize) -> RateSample {
        // One snapshot call per sample: beats, rate and target are never
        // torn across transport round trips. Re-windowing (window != 0)
        // asks the transport again only where it actually honors the
        // window (can_rewindow — cheap in-process reads); a remote source
        // keeps the snapshot's own rate, coherent with its totals.
        match self.snapshot() {
            Some(snapshot) => RateSample {
                total_beats: snapshot.total_beats,
                rate_bps: if window == 0 || !self.can_rewindow() {
                    snapshot.rate_bps
                } else {
                    self.rate(window)
                },
                target: snapshot.target,
            },
            None => RateSample {
                total_beats: 0,
                rate_bps: None,
                target: None,
            },
        }
    }
}

/// One sampled view of an application's performance.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Total beats the application had produced when the sample was taken.
    pub beat: u64,
    /// Windowed heart rate at the sample, if at least two beats existed.
    pub rate_bps: Option<f64>,
    /// The application's declared target range, if any.
    pub target: Option<(f64, f64)>,
    /// Relationship of the rate to the target.
    pub status: TargetStatus,
}

/// Samples an application's heart rate every `check_every` beats.
///
/// Generic over the [`RateSource`] being sampled; defaults to the in-process
/// [`HeartbeatReader`] so existing call sites read unchanged, while a
/// network-collector client slots in for remote control loops.
#[derive(Debug, Clone)]
pub struct RateMonitor<S: RateSource = HeartbeatReader> {
    reader: S,
    window: usize,
    check_every: u64,
    last_checked_beat: u64,
}

impl<S: RateSource> RateMonitor<S> {
    /// Creates a monitor that uses the application's default window and
    /// samples on every new beat.
    pub fn new(reader: S) -> Self {
        RateMonitor {
            reader,
            window: 0,
            check_every: 1,
            last_checked_beat: 0,
        }
    }

    /// Sets the window (in beats) used for rate estimation; 0 = the
    /// application's default window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets how many new beats must arrive between samples (minimum 1).
    /// The paper's adaptive encoder uses 40.
    pub fn with_check_every(mut self, beats: u64) -> Self {
        self.check_every = beats.max(1);
        self
    }

    /// The rate source being monitored.
    pub fn reader(&self) -> &S {
        &self.reader
    }

    /// The sampling interval in beats.
    pub fn check_every(&self) -> u64 {
        self.check_every
    }

    /// Returns an observation if at least `check_every` beats have arrived
    /// since the last observation (or since the monitor was created).
    pub fn poll(&mut self) -> Option<Observation> {
        let sample = self.reader.sample(self.window);
        if sample.total_beats < self.last_checked_beat + self.check_every {
            return None;
        }
        self.last_checked_beat = sample.total_beats;
        Some(Self::observation_from(sample))
    }

    /// Takes an observation unconditionally, without affecting the sampling
    /// cadence bookkeeping.
    pub fn observe_now(&self) -> Observation {
        Self::observation_from(self.reader.sample(self.window))
    }

    /// Builds an observation from one coherent sample, so every field
    /// (beats, rate, target, status) describes the same instant.
    fn observation_from(sample: RateSample) -> Observation {
        Observation {
            beat: sample.total_beats,
            rate_bps: sample.rate_bps,
            target: sample.target,
            status: classify(sample.rate_bps, sample.target),
        }
    }

    /// Resets the cadence so the next poll requires `check_every` fresh beats.
    pub fn reset(&mut self) {
        self.last_checked_beat = self.reader.total_beats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{HeartbeatBuilder, ManualClock};
    use std::sync::Arc;

    fn setup(check_every: u64) -> (heartbeats::Heartbeat, ManualClock, RateMonitor) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("monitored")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        let monitor = RateMonitor::new(hb.reader())
            .with_window(0)
            .with_check_every(check_every);
        (hb, clock, monitor)
    }

    #[test]
    fn poll_waits_for_enough_beats() {
        let (hb, clock, mut monitor) = setup(5);
        assert_eq!(monitor.check_every(), 5);
        assert!(monitor.poll().is_none(), "no beats yet");
        for _ in 0..4 {
            clock.advance_ns(100_000_000);
            hb.heartbeat();
        }
        assert!(monitor.poll().is_none(), "only 4 of 5 beats have arrived");
        clock.advance_ns(100_000_000);
        hb.heartbeat();
        let obs = monitor.poll().expect("fifth beat triggers the sample");
        assert_eq!(obs.beat, 5);
        assert!((obs.rate_bps.unwrap() - 10.0).abs() < 1e-9);
        assert!(monitor.poll().is_none(), "cadence restarts after a sample");
    }

    #[test]
    fn observation_includes_target_and_status() {
        let (hb, clock, mut monitor) = setup(1);
        hb.set_target_rate(30.0, 35.0).unwrap();
        for _ in 0..6 {
            clock.advance_ns(100_000_000); // 10 beats/s < 30
            hb.heartbeat();
        }
        let obs = monitor.poll().unwrap();
        assert_eq!(obs.target, Some((30.0, 35.0)));
        assert_eq!(obs.status, TargetStatus::BelowTarget);
    }

    #[test]
    fn observe_now_does_not_consume_cadence() {
        let (hb, clock, mut monitor) = setup(3);
        for _ in 0..3 {
            clock.advance_ns(1_000_000);
            hb.heartbeat();
        }
        let eager = monitor.observe_now();
        assert_eq!(eager.beat, 3);
        assert!(
            monitor.poll().is_some(),
            "poll still fires after observe_now"
        );
    }

    #[test]
    fn reset_requires_fresh_beats() {
        let (hb, clock, mut monitor) = setup(2);
        for _ in 0..2 {
            clock.advance_ns(1_000_000);
            hb.heartbeat();
        }
        monitor.reset();
        assert!(monitor.poll().is_none(), "reset consumed the pending beats");
        for _ in 0..2 {
            clock.advance_ns(1_000_000);
            hb.heartbeat();
        }
        assert!(monitor.poll().is_some());
    }

    #[test]
    fn zero_check_every_is_clamped_to_one() {
        let (hb, clock, _m) = setup(1);
        let mut monitor = RateMonitor::new(hb.reader()).with_check_every(0);
        clock.advance_ns(1);
        hb.heartbeat();
        assert!(monitor.poll().is_some());
    }

    #[test]
    fn reader_accessor_names_the_app() {
        let (_hb, _clock, monitor) = setup(1);
        assert_eq!(monitor.reader().name(), "monitored");
    }
}
