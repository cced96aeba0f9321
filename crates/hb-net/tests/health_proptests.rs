//! Randomized property tests for kept health windows: seeded ingest
//! scripts drive a registry, and every `health()` / `healths()` answer —
//! each of which reuses the app's health-window statistics unless its ring
//! took a beat since the last look — must equal a from-scratch reference
//! that copies the whole ring, walks back to the window's inclusive cutoff
//! and runs Welford over the gaps.

use std::time::Duration;

use proptest::prelude::*;

use hb_net::{
    CollectorConfig, CollectorState, HealthConfig, HealthReason, HealthReport, HealthStatus,
    HistorySample, WireBeat,
};
use heartbeats::analysis::check_sequence;
use heartbeats::stats::OnlineStats;
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// SplitMix64: the script generator, expanded from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// One producer's clock and sequence state.
#[derive(Default)]
struct Producer {
    ts: u64,
    seq: u64,
    tag: u64,
}

impl Producer {
    /// The next beat after a gap; tags mostly count up, with the odd drop,
    /// duplicate or jump back for the tag-as-sequence check.
    fn beat(&mut self, rng: &mut Rng, gap: u64, scope: BeatScope) -> WireBeat {
        self.ts = self.ts.saturating_add(gap);
        self.seq += 1;
        self.tag = match rng.below(40) {
            0 => self.tag + 2,
            1 => self.tag,
            2 => self.tag.saturating_sub(1),
            _ => self.tag + 1,
        };
        WireBeat {
            record: HeartbeatRecord::new(self.seq, self.ts, Tag::new(self.tag), BeatThreadId(0)),
            scope,
        }
    }

    /// One batch in one of the script's shapes.
    fn batch(&mut self, rng: &mut Rng, capacity: u64, window_ns: u64) -> Vec<WireBeat> {
        let base = 100_000_000; // 100 ms
        let len = match rng.below(8) {
            0 => 1 + rng.below(2 * capacity + 3), // possibly past the ring
            _ => 1 + rng.below(6),
        };
        let shape = rng.below(6);
        let mut beats = Vec::with_capacity(len as usize);
        for i in 0..len {
            let gap = match shape {
                // Equal timestamps.
                0 => 0,
                // A clock step back, then a monotone run.
                1 if i == 0 => {
                    self.ts = self.ts.saturating_sub(rng.below(2 * window_ns + 1));
                    0
                }
                // A gap far beyond the window, then a monotone run.
                2 if i == 0 => window_ns.saturating_mul(2 + rng.below(8)),
                // Monotone, jittery, zero gaps included.
                _ => rng.below(2 * base + 1),
            };
            let scope = if rng.below(10) == 0 {
                BeatScope::Local
            } else {
                BeatScope::Global
            };
            beats.push(self.beat(rng, gap, scope));
        }
        beats
    }
}

/// The from-scratch assessment: the whole ring copied, the window walked
/// back to its inclusive cutoff, the gaps run through Welford.
fn reference(
    state: &CollectorState,
    config: &HealthConfig,
    app: &str,
    silent_ns: u64,
) -> HealthReport {
    let total_beats = state.snapshot(app).expect("registered").total_beats;
    let (_, ring) = state.history(app, 0).expect("registered");
    let window: Vec<HistorySample> = match ring.last() {
        Some(newest) => {
            let cutoff = newest
                .timestamp_ns
                .saturating_sub(config.window.as_nanos() as u64);
            let mut window: Vec<HistorySample> = ring
                .iter()
                .rev()
                .take_while(|s| s.timestamp_ns >= cutoff)
                .copied()
                .collect();
            window.reverse();
            window
        }
        None => Vec::new(),
    };
    if total_beats == 0 {
        return HealthReport::no_signal();
    }
    let mut report = HealthReport {
        status: HealthStatus::Healthy,
        reasons: Vec::new(),
        window_beats: window.len() as u32,
        window_rate_bps: None,
        jitter_cv: None,
        missing: 0,
        duplicated: 0,
        reordered: 0,
        silent_ns,
    };
    if Duration::from_nanos(silent_ns) >= config.window {
        report.status = HealthStatus::Stalled;
        report.reasons.push(HealthReason::Silent);
        return report;
    }
    if window.len() >= 2 {
        let span = window[window.len() - 1]
            .timestamp_ns
            .saturating_sub(window[0].timestamp_ns);
        if span > 0 {
            report.window_rate_bps = Some((window.len() - 1) as f64 / (span as f64 / 1e9));
        }
        let mut gaps = OnlineStats::new();
        for pair in window.windows(2) {
            gaps.push(pair[1].timestamp_ns.saturating_sub(pair[0].timestamp_ns) as f64);
        }
        if gaps.count() >= config.min_jitter_intervals as u64 && gaps.mean() > 0.0 {
            let cv = gaps.stddev() / gaps.mean();
            report.jitter_cv = Some(cv);
            if cv > config.jitter_cv {
                report.reasons.push(HealthReason::JitterSpike);
            }
        }
    }
    if config.sequence_tags && !window.is_empty() {
        let records: Vec<HeartbeatRecord> = window
            .iter()
            .map(|s| HeartbeatRecord::new(s.seq, s.timestamp_ns, Tag::new(s.tag), BeatThreadId(0)))
            .collect();
        let start = window.iter().map(|s| s.tag).min().unwrap_or(0);
        let seq = check_sequence(&records, start);
        report.missing = seq.missing.len() as u32;
        report.duplicated = seq.duplicated.len() as u32;
        report.reordered = seq.reordered as u32;
        if !seq.is_clean() {
            report.reasons.push(HealthReason::SequenceAnomaly);
        }
    }
    if !report.reasons.is_empty() {
        report.status = HealthStatus::Degraded;
    }
    report
}

/// Everything but `jitter_cv` exactly; `jitter_cv` within 1e-12 relative
/// (exact integer sums against Welford's floating-point recurrence).
fn assert_matches(app: &str, got: &HealthReport, want: &HealthReport) {
    let strip = |r: &HealthReport| HealthReport {
        jitter_cv: None,
        ..r.clone()
    };
    assert_eq!(strip(got), strip(want), "app {app}");
    match (got.jitter_cv, want.jitter_cv) {
        (Some(a), Some(b)) => assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
            "app {app}: jitter_cv {a} vs {b}"
        ),
        (a, b) => assert_eq!(a, b, "app {app}: jitter_cv"),
    }
}

proptest! {
    /// Interleaved ingest and health queries over two apps: monotone runs,
    /// equal timestamps, clock steps back and gaps far beyond the window,
    /// with rings of 0, 1, 2, 7 and 1024 samples and windows shorter and
    /// longer than the ring's span. Every answer equals the reference.
    #[test]
    fn kept_health_windows_equal_a_full_rescan(
        seed in any::<u64>(),
        capacity_at in 0usize..5,
        window_at in 0usize..4,
        steps in 1usize..80,
    ) {
        let mut rng = Rng(seed);
        let capacity = [0, 1, 2, 7, 1024][capacity_at];
        let window = Duration::from_millis([1_000, 2_500, 60_000, 3_600_000][window_at]);
        let health = HealthConfig {
            window,
            jitter_cv: rng.pick(&[0.37, 0.83, 1.37]),
            min_jitter_intervals: rng.pick(&[0, 1, 8]),
            sequence_tags: rng.below(2) == 0,
        };
        let state = CollectorState::new(CollectorConfig {
            history_capacity: capacity,
            health: health.clone(),
            ..CollectorConfig::default()
        });
        let apps = ["alpha", "beta"];
        let handles = apps.map(|app| state.hello(app, 1, 20));
        let mut producers = [Producer::default(), Producer::default()];
        let window_ns = window.as_nanos() as u64;
        for _ in 0..steps {
            match rng.below(4) {
                0 => {
                    let at = rng.below(2) as usize;
                    let report = state.health(apps[at]).expect("registered");
                    let want = reference(&state, &health, apps[at], report.silent_ns);
                    assert_matches(apps[at], &report, &want);
                }
                1 => {
                    for (app, report) in state.healths() {
                        let want = reference(&state, &health, &app, report.silent_ns);
                        assert_matches(&app, &report, &want);
                    }
                }
                _ => {
                    let at = rng.below(2) as usize;
                    let beats = producers[at].batch(&mut rng, capacity as u64, window_ns);
                    state.ingest_batch_with(&handles[at], 0, beats);
                }
            }
        }
        for app in apps {
            let report = state.health(app).expect("registered");
            assert_matches(app, &report, &reference(&state, &health, app, report.silent_ns));
        }
    }
}
