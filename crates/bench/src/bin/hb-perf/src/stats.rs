//! Percentiles, quartile spread and the seeded generator.

/// Nearest-rank percentile of `samples` (`p` in `0.0..=1.0`); 0 when empty.
/// Sorts in place. The exact reference the histogram is tested against.
#[cfg(test)]
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Mean of what remains after dropping the lowest and the highest fifth of
/// `values`. A metric that flips between two levels from trial to trial
/// (thread placement does that) averages out here, where a median would
/// pick one level at random; a trial ruined by a stall is dropped.
pub fn trimmed_mean(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let drop = values.len() / 5;
    let kept = &values[drop..values.len() - drop];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// driver's. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else {
        return 0.0;
    };
    let mid = median(&mut values.to_vec());
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Sub-buckets per power of two: bucket width is under 1/128 of the value.
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();

/// A log-linear histogram of `u64` samples in fixed memory, so recording a
/// long run costs the same memory as a short one and the benchmark's own
/// buffers stay out of `peak_rss_mb`. Values below [`SUB`] are exact;
/// larger ones land in buckets under 0.8 % wide, and quantiles interpolate
/// inside the bucket.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    fn index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let shift = (63 - value.leading_zeros()) - SUB_BITS;
        ((shift as u64 + 1) * SUB + ((value >> shift) - SUB)) as usize
    }

    /// `(lowest value, width)` of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, 1);
        }
        let shift = index / SUB - 1;
        ((index % SUB + SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, value: u64) {
        let index = Self::index(value);
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        self.count += 1;
    }

    /// The `q` quantile (`0.0..=1.0`), nearest rank, interpolated inside
    /// its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut below = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            if below + count >= rank {
                let (low, width) = Self::bounds(index);
                let into = (rank - below) as f64 - 0.5;
                return low as f64 + (width - 1) as f64 * into / count as f64;
            }
            below += count;
        }
        unreachable!("rank {rank} exceeds the recorded count {}", self.count)
    }
}

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// always yields the same app names, query order and trace sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut samples, 0.5), 50.0);
        assert_eq!(percentile(&mut samples, 0.99), 99.0);
        assert_eq!(percentile(&mut samples, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.99), 0.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_a_fifth_from_each_end() {
        assert_eq!(trimmed_mean(&mut []), 0.0);
        assert_eq!(trimmed_mean(&mut [4.0]), 4.0);
        // Five values: the stall (1000) and the lowest go, 2, 3, 4 stay.
        assert_eq!(trimmed_mean(&mut [3.0, 1000.0, 1.0, 4.0, 2.0]), 3.0);
        // Two levels average instead of flipping.
        let mut levels: Vec<f64> = (0..15)
            .map(|i| if i % 2 == 0 { 1.0 } else { 2.0 })
            .collect();
        let mixed = trimmed_mean(&mut levels);
        assert!(mixed > 1.3 && mixed < 1.7, "{mixed}");
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[5.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut histo = Histogram::default();
        assert_eq!(histo.quantile(0.5), 0.0);
        let mut exact: Vec<f64> = Vec::new();
        let mut rng = Rng::new(11);
        for _ in 0..50_000 {
            // Spread over six decades, like latencies.
            let value = 1 + (rng.next_u64() % 1000) * 10u64.pow((rng.next_u64() % 4) as u32);
            histo.record(value);
            exact.push(value as f64);
        }
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            let (got, want) = (histo.quantile(q), percentile(&mut exact, q));
            assert!(
                (got - want).abs() <= want * 0.008 + 0.5,
                "q={q}: {got} vs {want}"
            );
        }
        // Small values are exact, and every value maps into its own bucket.
        let mut small = Histogram::default();
        small.record(85);
        assert_eq!(small.quantile(0.5), 85.0);
        for value in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX >> 4,
        ] {
            let (low, width) = Histogram::bounds(Histogram::index(value));
            assert!(
                low <= value && value - low < width,
                "{value}: {low}+{width}"
            );
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let mut order: Vec<u32> = (0..16).collect();
            rng.shuffle(&mut order);
            (order, rng.below(1000))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
