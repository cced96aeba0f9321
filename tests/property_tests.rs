//! Property-based tests (proptest) over the framework's core invariants:
//! history buffers, rate estimation, target classification, phase schedules,
//! speedup models and the statistics helpers.

use std::sync::Arc;

use proptest::prelude::*;

use app_heartbeats::heartbeats::stats;
use app_heartbeats::heartbeats::{
    window, AtomicRing, BeatThreadId, HeartbeatBuilder, HistoryBuffer, ManualClock, MovingRate,
    MutexRing, Tag, TargetRate, TargetStatus,
};
use app_heartbeats::sim::{Amdahl, PhaseSchedule, SpeedupModel, SplitMix64};

proptest! {
    /// Whatever is pushed, a ring buffer never returns more than
    /// min(n, capacity, total) records, they are seq-ordered, and the newest
    /// record is always the last one pushed.
    #[test]
    fn ring_buffers_return_bounded_ordered_history(
        capacity in 1usize..128,
        pushes in 0usize..400,
        n in 0usize..200,
    ) {
        for buffer in [
            Box::new(AtomicRing::new(capacity)) as Box<dyn HistoryBuffer>,
            Box::new(MutexRing::new(capacity)) as Box<dyn HistoryBuffer>,
        ] {
            for i in 0..pushes {
                buffer.push(i as u64 * 10, Tag::new(i as u64), BeatThreadId(0));
            }
            let history = buffer.last_n(n);
            prop_assert!(history.len() <= n.min(capacity).min(pushes));
            prop_assert!(history.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
            if !history.is_empty() && n > 0 && pushes > 0 {
                prop_assert_eq!(history.last().unwrap().seq, pushes as u64 - 1);
            }
            prop_assert_eq!(buffer.total(), pushes as u64);
        }
    }

    /// The windowed rate over evenly spaced beats equals 1/interval.
    #[test]
    fn uniform_beats_yield_exact_rate(
        interval_ms in 1u64..10_000,
        beats in 2usize..200,
    ) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("prop-uniform")
            .window(beats.max(2))
            .capacity(beats.max(2))
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        for _ in 0..beats {
            clock.advance_ns(interval_ms * 1_000_000);
            hb.heartbeat();
        }
        let expected = 1_000.0 / interval_ms as f64;
        let rate = hb.current_rate(0).unwrap();
        prop_assert!((rate - expected).abs() / expected < 1e-9);
    }

    /// A windowed rate, when defined, is always positive, and reversing the
    /// relative spacing of beats never changes the rate of the whole window.
    #[test]
    fn windowed_rate_depends_only_on_span(
        mut intervals in prop::collection::vec(1u64..1_000_000, 2..50),
    ) {
        let build = |intervals: &[u64]| {
            let mut t = 0u64;
            let mut records = vec![app_heartbeats::heartbeats::HeartbeatRecord::new(
                0, 0, Tag::NONE, BeatThreadId(0),
            )];
            for (i, &dt) in intervals.iter().enumerate() {
                t += dt;
                records.push(app_heartbeats::heartbeats::HeartbeatRecord::new(
                    i as u64 + 1, t, Tag::NONE, BeatThreadId(0),
                ));
            }
            records
        };
        let forward = window::windowed_rate(&build(&intervals)).unwrap();
        intervals.reverse();
        let reversed = window::windowed_rate(&build(&intervals)).unwrap();
        prop_assert!(forward > 0.0);
        prop_assert!((forward - reversed).abs() / forward < 1e-9);
    }

    /// MovingRate over a window of w sees at most w beats and matches the
    /// closed-form rate for uniform spacing.
    #[test]
    fn moving_rate_matches_uniform_closed_form(
        window_size in 2usize..64,
        interval_ns in 1_000u64..1_000_000_000,
        beats in 2usize..200,
    ) {
        let mut tracker = MovingRate::new(window_size);
        let mut t = 0u64;
        let mut last = None;
        for _ in 0..beats {
            t += interval_ns;
            last = tracker.push(t);
        }
        prop_assert!(tracker.len() <= window_size);
        let expected = 1e9 / interval_ns as f64;
        let rate = last.unwrap();
        prop_assert!((rate - expected).abs() / expected < 1e-9);
    }

    /// Target classification is consistent with the declared range.
    #[test]
    fn target_classification_is_consistent(
        min in 0.0f64..1_000.0,
        width in 0.0f64..1_000.0,
        rate in 0.0f64..4_000.0,
    ) {
        let max = min + width;
        let target = TargetRate::new(min, max).unwrap();
        let status = target.classify(rate);
        if rate < min {
            prop_assert_eq!(status, TargetStatus::BelowTarget);
        } else if rate > max {
            prop_assert_eq!(status, TargetStatus::AboveTarget);
        } else {
            prop_assert_eq!(status, TargetStatus::WithinTarget);
        }
    }

    /// Inverted target ranges are always rejected and leave the target unset.
    #[test]
    fn inverted_targets_are_rejected(min in 1.0f64..1_000.0, delta in 0.001f64..100.0) {
        let target = TargetRate::unset();
        prop_assert!(target.set(min, min - delta).is_err());
        prop_assert!(!target.is_set());
    }

    /// A phase schedule built from breakpoints returns exactly the multiplier
    /// of the segment the index falls into.
    #[test]
    fn phase_schedule_lookup_matches_segments(
        mults in prop::collection::vec(0.01f64..10.0, 1..8),
        gaps in prop::collection::vec(1u64..500, 0..7),
        probe in 0u64..5_000,
    ) {
        let mut breakpoints = vec![(0u64, mults[0])];
        let mut start = 0u64;
        for (i, gap) in gaps.iter().enumerate().take(mults.len() - 1) {
            start += gap;
            breakpoints.push((start, mults[i + 1]));
        }
        let schedule = PhaseSchedule::from_breakpoints(&breakpoints);
        let expected = breakpoints
            .iter()
            .rev()
            .find(|&&(s, _)| probe >= s)
            .map(|&(_, m)| m)
            .unwrap();
        prop_assert_eq!(schedule.multiplier(probe), expected);
    }

    /// Amdahl speedup is monotone in cores, equals 1 at one core, and never
    /// exceeds the serial-fraction bound.
    #[test]
    fn amdahl_speedup_is_monotone_and_bounded(
        parallel in 0.0f64..1.0,
        efficiency in 0.05f64..1.0,
        cores in 1usize..64,
    ) {
        let model = Amdahl::with_efficiency(parallel, efficiency);
        prop_assert!((model.speedup(1) - 1.0).abs() < 1e-12);
        prop_assert!(model.speedup(cores) <= model.speedup(cores + 1) + 1e-12);
        if parallel < 1.0 {
            prop_assert!(model.speedup(cores) <= 1.0 / (1.0 - parallel) + 1e-9);
        }
        prop_assert!(model.speedup(cores) >= 1.0 - 1e-12);
    }

    /// Percentiles always lie between the minimum and maximum of the data,
    /// and the mean lies between the 0th and 100th percentile.
    #[test]
    fn percentile_and_mean_are_bounded(
        values in prop::collection::vec(-1_000.0f64..1_000.0, 1..100),
        p in 0.0f64..100.0,
    ) {
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let pct = stats::percentile(&values, p).unwrap();
        prop_assert!(pct >= lo - 1e-9 && pct <= hi + 1e-9);
        let mean = stats::mean(&values);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }

    /// Online statistics match the batch formulas for any input.
    #[test]
    fn online_stats_match_batch(values in prop::collection::vec(-1_000.0f64..1_000.0, 2..200)) {
        let mut online = stats::OnlineStats::new();
        for &v in &values {
            online.push(v);
        }
        prop_assert!((online.mean() - stats::mean(&values)).abs() < 1e-6);
        prop_assert!((online.stddev() - stats::stddev(&values)).abs() < 1e-6);
    }

    /// SplitMix64 stays inside requested bounds and is reproducible.
    #[test]
    fn splitmix_bounds_and_determinism(seed in any::<u64>(), lo in -100.0f64..100.0, width in 0.001f64..100.0) {
        let hi = lo + width;
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = a.uniform(lo, hi);
            prop_assert!(x >= lo && x < hi);
            prop_assert_eq!(x, b.uniform(lo, hi));
        }
    }

    /// Heartbeat sequence numbers are dense regardless of tag values or the
    /// number of beats.
    #[test]
    fn heartbeat_sequences_are_dense(tags in prop::collection::vec(any::<u64>(), 1..200)) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("prop-seq")
            .window(2)
            .capacity(256)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        for (i, &tag) in tags.iter().enumerate() {
            clock.advance_ns(1);
            let seq = hb.heartbeat_tagged(Tag::new(tag));
            prop_assert_eq!(seq, i as u64);
        }
        prop_assert_eq!(hb.total_beats(), tags.len() as u64);
    }
}

// --- Federation naming: namespaced origins, globs, and wire round-trips ---

use app_heartbeats::heartbeats::{BeatScope, HeartbeatRecord};
use app_heartbeats::net::wire::{self, EventFrame, EventPayload, Frame, WireBeat};

/// Alphabet for federation node (origin) names: printable, no `/`, no `*`.
const NODE_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-";
/// Alphabet for application name components. Literal `*` is deliberately
/// included: application names may contain it even though patterns treat it
/// as a wildcard — the properties below pin down that asymmetry.
const APP_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-*";
/// Alphabet for arbitrary subscription patterns, wildcards and separators
/// included.
const PATTERN_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789._-*/";

/// Maps seed bytes into `alphabet`, yielding a name drawn from it.
fn from_alphabet(alphabet: &[u8], seeds: &[u8]) -> String {
    seeds
        .iter()
        .map(|&s| alphabet[s as usize % alphabet.len()] as char)
        .collect()
}

proptest! {
    /// `node/app` composes into a valid application name (parents accept
    /// it), while the composite is never itself a valid node name — `/` is
    /// reserved as the namespace separator, so re-prefixing at each tier
    /// parses unambiguously.
    #[test]
    fn namespaced_names_validate_as_apps_not_nodes(
        node_seed in prop::collection::vec(any::<u8>(), 1..16),
        app_seed in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let node = from_alphabet(NODE_ALPHABET, &node_seed);
        let app = from_alphabet(APP_ALPHABET, &app_seed);
        let name = format!("{node}/{app}");
        prop_assert!(wire::valid_node_name(&node));
        prop_assert!(wire::valid_app_name(&name));
        prop_assert!(!wire::valid_node_name(&name));
    }

    /// Namespaced names survive a v3 `Event` frame encode→decode round trip
    /// byte-identically, including literal `*` in the application part.
    #[test]
    fn namespaced_names_round_trip_event_frames(
        node_seed in prop::collection::vec(any::<u8>(), 1..16),
        app_seed in prop::collection::vec(any::<u8>(), 1..32),
        sub_id in any::<u32>(),
        sent_at_ns in any::<u64>(),
        dropped_total in any::<u64>(),
        seqs in prop::collection::vec(any::<u32>(), 0..20),
    ) {
        let node = from_alphabet(NODE_ALPHABET, &node_seed);
        let app = from_alphabet(APP_ALPHABET, &app_seed);
        let beats: Vec<WireBeat> = seqs
            .iter()
            .enumerate()
            .map(|(i, &s)| WireBeat {
                record: HeartbeatRecord::new(
                    s as u64,
                    (i as u64 + 1) * 1_000,
                    Tag::new(s as u64),
                    BeatThreadId(0),
                ),
                scope: BeatScope::Global,
            })
            .collect();
        let frame = Frame::Event(EventFrame {
            sub_id,
            sent_at_ns,
            cursor: 0,
            app: format!("{node}/{app}"),
            payload: EventPayload::Beats { dropped_total, beats },
        });
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// The same holds inside the federation rollup envelope
    /// (`RelayEvent{seq, event}`), which carries the namespaced name one
    /// more hop up the tree.
    #[test]
    fn namespaced_names_round_trip_relay_events(
        node_seed in prop::collection::vec(any::<u8>(), 1..16),
        app_seed in prop::collection::vec(any::<u8>(), 1..32),
        seq in 1u64..u64::MAX,
        dropped_total in any::<u64>(),
    ) {
        let node = from_alphabet(NODE_ALPHABET, &node_seed);
        let app = from_alphabet(APP_ALPHABET, &app_seed);
        let frame = Frame::RelayEvent {
            seq,
            event: EventFrame {
                sub_id: 0,
                sent_at_ns: 0,
                cursor: 0,
                app: format!("{node}/{app}"),
                payload: EventPayload::Beats { dropped_total, beats: Vec::new() },
            },
        };
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Glob semantics over namespaced names: the universal and node-scoped
    /// wildcards match, a name used as its own pattern matches (a literal
    /// `*` in the name acts as a wildcard in the pattern, which can always
    /// re-consume the same text), and a *different* node's scope never
    /// matches — node names contain no `/`, so the separator can only align
    /// when the origins are equal.
    #[test]
    fn glob_matches_namespaced_names_coherently(
        node_seed in prop::collection::vec(any::<u8>(), 1..16),
        other_seed in prop::collection::vec(any::<u8>(), 1..16),
        app_seed in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let node = from_alphabet(NODE_ALPHABET, &node_seed);
        let other = from_alphabet(NODE_ALPHABET, &other_seed);
        let app = from_alphabet(APP_ALPHABET, &app_seed);
        let name = format!("{node}/{app}");
        prop_assert!(wire::glob_match("*", &name));
        prop_assert!(wire::glob_match(&format!("{node}/*"), &name));
        prop_assert!(wire::glob_match(&name, &name));
        if other != node {
            prop_assert!(!wire::glob_match(&format!("{other}/*"), &name));
        }
    }

    /// Propagation soundness: whenever a pattern matches some name under
    /// `node/`, `glob_overlaps_prefix` must report overlap for that prefix
    /// — the parent may over-propagate (it re-filters on delivery) but must
    /// never fail to propagate a subscription a child event could match.
    #[test]
    fn glob_overlap_never_false_negative(
        node_seed in prop::collection::vec(any::<u8>(), 1..16),
        app_seed in prop::collection::vec(any::<u8>(), 1..32),
        pattern_seed in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let node = from_alphabet(NODE_ALPHABET, &node_seed);
        let app = from_alphabet(APP_ALPHABET, &app_seed);
        let pattern = from_alphabet(PATTERN_ALPHABET, &pattern_seed);
        let name = format!("{node}/{app}");
        let prefix = format!("{node}/");
        if wire::glob_match(&pattern, &name) {
            prop_assert!(
                wire::glob_overlaps_prefix(&pattern, &prefix),
                "pattern {:?} matches {:?} but reports no overlap with {:?}",
                pattern, name, prefix
            );
        }
        // And the patterns federation itself synthesizes always overlap.
        prop_assert!(wire::glob_overlaps_prefix("*", &prefix));
        prop_assert!(wire::glob_overlaps_prefix(&format!("{node}/*"), &prefix));
        prop_assert!(wire::glob_overlaps_prefix(&name, &prefix));
    }
}
