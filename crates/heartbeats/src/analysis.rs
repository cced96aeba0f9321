//! Analysis helpers over heartbeat histories.
//!
//! The paper gives tags two roles beyond opaque labels: distinguishing kinds
//! of work ("a video application may wish to indicate the type of frame (I, B
//! or P) to which the heartbeat corresponds") and acting as *sequence numbers*
//! "in situations where some heartbeats may be dropped or reordered". This
//! module provides the observer-side machinery for both: per-tag filtering and
//! rates, inter-beat gap analysis, and drop/reorder detection over
//! tag-as-sequence-number streams.

use std::collections::BTreeMap;

use crate::record::{HeartbeatRecord, Tag};
use crate::window;

/// Returns only the records carrying `tag`, preserving order.
pub fn filter_by_tag(records: &[HeartbeatRecord], tag: Tag) -> Vec<HeartbeatRecord> {
    records.iter().copied().filter(|r| r.tag == tag).collect()
}

/// Number of beats per distinct tag, sorted by tag value.
pub fn count_by_tag(records: &[HeartbeatRecord]) -> BTreeMap<Tag, usize> {
    let mut counts = BTreeMap::new();
    for record in records {
        *counts.entry(record.tag).or_insert(0) += 1;
    }
    counts
}

/// Average heart rate per distinct tag (beats of that tag per second, over the
/// span of that tag's beats). Tags with fewer than two beats are omitted.
pub fn rate_by_tag(records: &[HeartbeatRecord]) -> BTreeMap<Tag, f64> {
    let mut grouped: BTreeMap<Tag, Vec<HeartbeatRecord>> = BTreeMap::new();
    for record in records {
        grouped.entry(record.tag).or_default().push(*record);
    }
    grouped
        .into_iter()
        .filter_map(|(tag, group)| window::windowed_rate(&group).map(|rate| (tag, rate)))
        .collect()
}

/// The largest gap (in nanoseconds) between consecutive beats, with the index
/// of the beat that ended it. Useful for spotting stalls inside an otherwise
/// healthy stream. Returns `None` with fewer than two records.
pub fn longest_gap(records: &[HeartbeatRecord]) -> Option<(usize, u64)> {
    if records.len() < 2 {
        return None;
    }
    records
        .windows(2)
        .enumerate()
        .map(|(i, pair)| {
            (
                i + 1,
                pair[1].timestamp_ns.saturating_sub(pair[0].timestamp_ns),
            )
        })
        .max_by_key(|&(_, gap)| gap)
}

/// Result of validating a stream whose tags are sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SequenceReport {
    /// Sequence numbers that never appeared (dropped beats).
    pub missing: Vec<u64>,
    /// Sequence numbers that appeared more than once.
    pub duplicated: Vec<u64>,
    /// Number of adjacent pairs that arrived out of order.
    pub reordered: usize,
}

impl SequenceReport {
    /// True when the stream is a clean, gap-free, in-order sequence.
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.duplicated.is_empty() && self.reordered == 0
    }
}

/// Validates a stream of records whose tags are expected to be the sequence
/// numbers `expected_start..=max(tag)`: reports dropped, duplicated and
/// out-of-order beats.
pub fn check_sequence(records: &[HeartbeatRecord], expected_start: u64) -> SequenceReport {
    let mut report = SequenceReport::default();
    if records.is_empty() {
        return report;
    }
    report.reordered = records
        .windows(2)
        .filter(|pair| pair[1].tag.value() < pair[0].tag.value())
        .count();
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for record in records {
        *counts.entry(record.tag.value()).or_insert(0) += 1;
    }
    let max_seen = *counts.keys().next_back().expect("non-empty");
    for seq in expected_start..=max_seen {
        match counts.get(&seq) {
            None => report.missing.push(seq),
            Some(&count) if count > 1 => report.duplicated.push(seq),
            _ => {}
        }
    }
    report
}

/// A histogram of inter-beat intervals with fixed-width buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalHistogram {
    /// Width of each bucket in nanoseconds.
    pub bucket_ns: u64,
    /// Bucket counts; bucket `i` covers `[i*bucket_ns, (i+1)*bucket_ns)`.
    pub counts: Vec<u64>,
    /// Intervals larger than the last bucket.
    pub overflow: u64,
}

impl IntervalHistogram {
    /// Total number of intervals recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }
}

/// Builds an interval histogram over consecutive beats.
pub fn interval_histogram(
    records: &[HeartbeatRecord],
    bucket_ns: u64,
    buckets: usize,
) -> IntervalHistogram {
    let bucket_ns = bucket_ns.max(1);
    let mut histogram = IntervalHistogram {
        bucket_ns,
        counts: vec![0; buckets.max(1)],
        overflow: 0,
    };
    for pair in records.windows(2) {
        let interval = pair[1].timestamp_ns.saturating_sub(pair[0].timestamp_ns);
        let bucket = (interval / bucket_ns) as usize;
        if bucket < histogram.counts.len() {
            histogram.counts[bucket] += 1;
        } else {
            histogram.overflow += 1;
        }
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BeatThreadId;

    fn record(seq: u64, t_ms: u64, tag: u64) -> HeartbeatRecord {
        HeartbeatRecord::new(seq, t_ms * 1_000_000, Tag::new(tag), BeatThreadId(0))
    }

    #[test]
    fn filter_and_count_by_tag() {
        let records = vec![
            record(0, 0, 1),
            record(1, 10, 2),
            record(2, 20, 1),
            record(3, 30, 3),
        ];
        assert_eq!(filter_by_tag(&records, Tag::new(1)).len(), 2);
        assert_eq!(filter_by_tag(&records, Tag::new(9)).len(), 0);
        let counts = count_by_tag(&records);
        assert_eq!(counts[&Tag::new(1)], 2);
        assert_eq!(counts[&Tag::new(2)], 1);
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn rate_by_tag_ignores_singletons() {
        // Tag 1 beats every 100 ms (10/s); tag 2 appears once.
        let records = vec![
            record(0, 0, 1),
            record(1, 50, 2),
            record(2, 100, 1),
            record(3, 200, 1),
        ];
        let rates = rate_by_tag(&records);
        assert_eq!(rates.len(), 1);
        assert!((rates[&Tag::new(1)] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn longest_gap_finds_the_stall() {
        let records = vec![
            record(0, 0, 0),
            record(1, 10, 0),
            record(2, 500, 0),
            record(3, 510, 0),
        ];
        let (index, gap) = longest_gap(&records).unwrap();
        assert_eq!(index, 2);
        assert_eq!(gap, 490 * 1_000_000);
        assert_eq!(longest_gap(&records[..1]), None);
    }

    #[test]
    fn clean_sequence_reports_clean() {
        let records: Vec<_> = (0..10).map(|i| record(i, i * 10, i)).collect();
        let report = check_sequence(&records, 0);
        assert!(report.is_clean());
        assert!(report.missing.is_empty());
    }

    #[test]
    fn dropped_and_duplicated_beats_are_reported() {
        // Sequence 0,1,3,3,5 starting from 0: missing 2 and 4, duplicate 3.
        let records = vec![
            record(0, 0, 0),
            record(1, 10, 1),
            record(2, 20, 3),
            record(3, 30, 3),
            record(4, 40, 5),
        ];
        let report = check_sequence(&records, 0);
        assert_eq!(report.missing, vec![2, 4]);
        assert_eq!(report.duplicated, vec![3]);
        assert_eq!(report.reordered, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn reordered_beats_are_counted() {
        let records = vec![
            record(0, 0, 0),
            record(1, 10, 2),
            record(2, 20, 1),
            record(3, 30, 3),
        ];
        let report = check_sequence(&records, 0);
        assert_eq!(report.reordered, 1);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn empty_sequence_is_clean() {
        assert!(check_sequence(&[], 0).is_clean());
    }

    #[test]
    fn interval_histogram_buckets_and_overflow() {
        // Intervals: 10ms, 10ms, 35ms with 10ms buckets x 3.
        let records = vec![
            record(0, 0, 0),
            record(1, 10, 0),
            record(2, 20, 0),
            record(3, 55, 0),
        ];
        let histogram = interval_histogram(&records, 10_000_000, 3);
        assert_eq!(histogram.counts, vec![0, 2, 0]);
        assert_eq!(histogram.overflow, 1);
        assert_eq!(histogram.total(), 3);
    }

    #[test]
    fn interval_histogram_handles_degenerate_inputs() {
        let histogram = interval_histogram(&[], 0, 0);
        assert_eq!(histogram.bucket_ns, 1);
        assert_eq!(histogram.counts.len(), 1);
        assert_eq!(histogram.total(), 0);
    }
}
