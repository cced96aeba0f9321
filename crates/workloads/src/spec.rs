//! Workload specifications.
//!
//! A [`WorkloadSpec`] describes one heartbeat-instrumented application the
//! way the paper's Table 2 does: where the heartbeat is registered (the item
//! granularity), how many items the "native"-scale input contains, how the
//! workload scales with cores, and what its load phases look like. Specs are
//! *calibrated*: given the average heart rate the paper reports on the
//! eight-core testbed, the per-item single-core cost is derived so that the
//! simulated run lands on the paper's number by construction, and every other
//! experiment (different core counts, different targets, failures) follows
//! from the speedup model and phases.

use simcore::{Amdahl, PhaseSchedule, SpeedupModel};

/// Number of cores in the paper's testbed, used for calibration.
pub const PAPER_TESTBED_CORES: usize = 8;

/// A complete description of one synthetic, heartbeat-instrumented workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark name (e.g. `"x264"`).
    pub name: String,
    /// Where the heartbeat is registered, verbatim from Table 2
    /// (e.g. `"Every 25000 options"`).
    pub heartbeat_location: String,
    /// Number of heartbeat items in the run.
    pub items: u64,
    /// Single-core seconds of work per item (before phase multipliers).
    pub base_item_seconds: f64,
    /// Average heart rate the paper reports for this workload on the
    /// eight-core testbed (beats/s); `None` for synthetic variants that do
    /// not correspond to a Table 2 row.
    pub paper_rate_bps: Option<f64>,
    /// Speedup model (Amdahl with per-benchmark parallel fraction).
    pub speedup: Amdahl,
    /// Piecewise-constant load phases over the item index.
    pub phases: PhaseSchedule,
    /// Relative Gaussian noise applied to each item's cost (0 = none).
    pub noise: f64,
    /// Seed for the per-run deterministic RNG.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Builds a spec calibrated so that a run on [`PAPER_TESTBED_CORES`]
    /// cores averages `paper_rate_bps` beats per second.
    #[allow(clippy::too_many_arguments)]
    pub fn calibrated(
        name: &str,
        heartbeat_location: &str,
        items: u64,
        paper_rate_bps: f64,
        parallel_fraction: f64,
        efficiency: f64,
        phases: PhaseSchedule,
        noise: f64,
    ) -> Self {
        assert!(paper_rate_bps > 0.0, "paper rate must be positive");
        let speedup = Amdahl::with_efficiency(parallel_fraction, efficiency);
        // rate(8 cores) = speedup(8) / base_item_seconds  =>  solve for base.
        let base_item_seconds = speedup.speedup(PAPER_TESTBED_CORES) / paper_rate_bps;
        WorkloadSpec {
            name: name.to_string(),
            heartbeat_location: heartbeat_location.to_string(),
            items,
            base_item_seconds,
            paper_rate_bps: Some(paper_rate_bps),
            speedup,
            phases,
            noise,
            seed: 0x5EED ^ name.len() as u64,
        }
    }

    /// Builds an uncalibrated spec from an explicit per-item cost.
    #[allow(clippy::too_many_arguments)]
    pub fn explicit(
        name: &str,
        heartbeat_location: &str,
        items: u64,
        base_item_seconds: f64,
        parallel_fraction: f64,
        efficiency: f64,
        phases: PhaseSchedule,
        noise: f64,
    ) -> Self {
        WorkloadSpec {
            name: name.to_string(),
            heartbeat_location: heartbeat_location.to_string(),
            items,
            base_item_seconds,
            paper_rate_bps: None,
            speedup: Amdahl::with_efficiency(parallel_fraction, efficiency),
            phases,
            noise,
            seed: 0x5EED ^ name.len() as u64,
        }
    }

    /// Overrides the RNG seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of items (chainable).
    pub fn with_items(mut self, items: u64) -> Self {
        self.items = items;
        self
    }

    /// Overrides the load-phase schedule (chainable).
    pub fn with_phases(mut self, phases: PhaseSchedule) -> Self {
        self.phases = phases;
        self
    }

    /// Overrides the per-item noise (chainable).
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }

    /// Expected steady-state heart rate when running on `cores` cores with a
    /// phase multiplier of `multiplier` (noise-free).
    pub fn expected_rate(&self, cores: usize, multiplier: f64) -> f64 {
        self.speedup.speedup(cores) / (self.base_item_seconds * multiplier.max(1e-12))
    }

    /// Expected heart rate on the paper's eight-core testbed at multiplier 1.
    pub fn expected_rate_8core(&self) -> f64 {
        self.expected_rate(PAPER_TESTBED_CORES, 1.0)
    }

    /// Smallest core count whose noise-free steady-state rate reaches
    /// `target_bps` at phase multiplier `multiplier`, if any core count up to
    /// `max_cores` suffices.
    pub fn cores_needed_for(
        &self,
        target_bps: f64,
        multiplier: f64,
        max_cores: usize,
    ) -> Option<usize> {
        (1..=max_cores).find(|&cores| self.expected_rate(cores, multiplier) >= target_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::calibrated(
            "x264",
            "Every frame",
            512,
            11.32,
            0.93,
            0.85,
            PhaseSchedule::uniform(),
            0.05,
        )
    }

    #[test]
    fn calibration_matches_paper_rate_on_eight_cores() {
        let s = spec();
        assert!((s.expected_rate_8core() - 11.32).abs() < 1e-9);
        assert_eq!(s.paper_rate_bps, Some(11.32));
    }

    #[test]
    fn fewer_cores_means_lower_rate() {
        let s = spec();
        let mut prev = 0.0;
        for cores in 1..=8 {
            let rate = s.expected_rate(cores, 1.0);
            assert!(rate > prev);
            prev = rate;
        }
        assert!(s.expected_rate(1, 1.0) < s.expected_rate(8, 1.0) / 2.0);
    }

    #[test]
    fn phase_multiplier_scales_rate_inversely() {
        let s = spec();
        let slow = s.expected_rate(8, 2.0);
        let fast = s.expected_rate(8, 0.5);
        assert!((fast / slow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cores_needed_for_target() {
        let s = spec();
        // The paper's 8-core rate is 11.32; a target of 6 needs fewer cores.
        let needed = s.cores_needed_for(6.0, 1.0, 8).unwrap();
        assert!(needed < 8);
        assert!(s.expected_rate(needed, 1.0) >= 6.0);
        if needed > 1 {
            assert!(s.expected_rate(needed - 1, 1.0) < 6.0);
        }
        // An impossible target reports None.
        assert_eq!(s.cores_needed_for(10_000.0, 1.0, 8), None);
    }

    #[test]
    fn explicit_spec_keeps_cost() {
        let s = WorkloadSpec::explicit(
            "custom",
            "Every task",
            100,
            0.25,
            1.0,
            1.0,
            PhaseSchedule::uniform(),
            0.0,
        );
        assert_eq!(s.paper_rate_bps, None);
        assert!((s.expected_rate(1, 1.0) - 4.0).abs() < 1e-12);
        assert!((s.expected_rate(8, 1.0) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn builder_style_overrides() {
        let s = spec().with_items(10).with_seed(99).with_noise(0.2);
        assert_eq!(s.items, 10);
        assert_eq!(s.seed, 99);
        assert_eq!(s.noise, 0.2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_paper_rate_panics() {
        WorkloadSpec::calibrated("bad", "x", 1, 0.0, 0.5, 1.0, PhaseSchedule::uniform(), 0.0);
    }
}
