//! Virtual-time execution of a [`WorkloadSpec`].
//!
//! A [`SimWorkload`] owns a heartbeat and advances the shared virtual clock
//! by the cost of each item; every item registers one heartbeat, exactly
//! where the paper's instrumentation does. External observers (the scheduler
//! crate, the figure harnesses) drive it item by item, choosing how many
//! cores it may use for each item — the virtual-time analogue of processor
//! affinity.

use heartbeats::{Heartbeat, HeartbeatBuilder, HeartbeatReader, ManualClock, Registry, Tag};
use simcore::{Machine, SpeedupModel, SplitMix64};

use crate::spec::WorkloadSpec;

/// Outcome of simulating one heartbeat item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Index of the item that was processed (0-based).
    pub item: u64,
    /// Virtual seconds the item took.
    pub seconds: f64,
    /// Cores the item effectively used.
    pub cores: usize,
    /// Phase multiplier that applied to the item.
    pub multiplier: f64,
}

/// Summary of a completed (or partial) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Items processed.
    pub items: u64,
    /// Total virtual seconds elapsed.
    pub seconds: f64,
    /// Lifetime average heart rate (items per second).
    pub average_rate_bps: f64,
}

/// A workload executing in virtual time, emitting heartbeats per item.
#[derive(Debug)]
pub struct SimWorkload {
    spec: WorkloadSpec,
    heartbeat: Heartbeat,
    clock: ManualClock,
    rng: SplitMix64,
    item_index: u64,
    elapsed_seconds: f64,
}

impl SimWorkload {
    /// Creates a workload running on `machine`'s clock, with a default
    /// (20-beat) heartbeat window.
    pub fn new(spec: WorkloadSpec, machine: &Machine) -> Self {
        Self::with_window(spec, machine, 20)
    }

    /// Creates a workload with an explicit default heartbeat window.
    pub fn with_window(spec: WorkloadSpec, machine: &Machine, window: usize) -> Self {
        let clock = machine.clock();
        let heartbeat = HeartbeatBuilder::new(spec.name.clone())
            .window(window)
            .capacity((spec.items as usize).clamp(64, 1 << 16))
            .clock(std::sync::Arc::new(clock.clone()))
            .build()
            .expect("workload heartbeat configuration is valid");
        Self::from_parts(spec, heartbeat, clock)
    }

    /// Creates a workload registered in `registry` so external observers can
    /// discover it by name.
    pub fn registered(
        spec: WorkloadSpec,
        machine: &Machine,
        registry: &Registry,
        window: usize,
    ) -> Self {
        let clock = machine.clock();
        let heartbeat = HeartbeatBuilder::new(spec.name.clone())
            .window(window)
            .capacity((spec.items as usize).clamp(64, 1 << 16))
            .clock(std::sync::Arc::new(clock.clone()))
            .register_in(registry)
            .build()
            .expect("workload heartbeat configuration is valid");
        Self::from_parts(spec, heartbeat, clock)
    }

    /// Builds from an existing heartbeat and clock (used when the caller
    /// wants custom backends attached).
    pub fn from_parts(spec: WorkloadSpec, heartbeat: Heartbeat, clock: ManualClock) -> Self {
        let rng = SplitMix64::new(spec.seed);
        SimWorkload {
            spec,
            heartbeat,
            clock,
            rng,
            item_index: 0,
            elapsed_seconds: 0.0,
        }
    }

    /// The workload's specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The workload's heartbeat producer.
    pub fn heartbeat(&self) -> &Heartbeat {
        &self.heartbeat
    }

    /// A read-only observer handle for the workload's heartbeat.
    pub fn reader(&self) -> HeartbeatReader {
        self.heartbeat.reader()
    }

    /// Items processed so far.
    pub fn items_done(&self) -> u64 {
        self.item_index
    }

    /// Virtual seconds elapsed inside this workload so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_seconds
    }

    /// True once every item has been processed.
    pub fn is_done(&self) -> bool {
        self.item_index >= self.spec.items
    }

    /// Processes the next item on `cores` cores: advances the virtual clock
    /// by the item's cost and registers one heartbeat. Returns `None` when
    /// the workload has finished.
    pub fn step(&mut self, cores: usize) -> Option<StepOutcome> {
        if self.is_done() {
            return None;
        }
        let cores = cores.max(1);
        let multiplier = self.spec.phases.multiplier(self.item_index);
        let noise = if self.spec.noise > 0.0 {
            (1.0 + self.spec.noise * self.rng.gaussian()).max(0.1)
        } else {
            1.0
        };
        let seconds =
            self.spec.base_item_seconds * multiplier * noise / self.spec.speedup.speedup(cores);
        self.clock.advance_secs(seconds);
        self.heartbeat.heartbeat_tagged(Tag::new(self.item_index));
        let outcome = StepOutcome {
            item: self.item_index,
            seconds,
            cores,
            multiplier,
        };
        self.item_index += 1;
        self.elapsed_seconds += seconds;
        Some(outcome)
    }

    /// Runs the remaining items with a fixed core allocation and returns the
    /// run summary.
    pub fn run_to_completion(&mut self, cores: usize) -> RunSummary {
        while self.step(cores).is_some() {}
        self.summary()
    }

    /// Summary of the work done so far.
    pub fn summary(&self) -> RunSummary {
        let average = if self.elapsed_seconds > 0.0 {
            self.item_index as f64 / self.elapsed_seconds
        } else {
            0.0
        };
        RunSummary {
            items: self.item_index,
            seconds: self.elapsed_seconds,
            average_rate_bps: average,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PAPER_TESTBED_CORES;
    use simcore::PhaseSchedule;

    fn simple_spec(noise: f64) -> WorkloadSpec {
        WorkloadSpec::calibrated(
            "sim-test",
            "Every item",
            200,
            10.0,
            0.95,
            1.0,
            PhaseSchedule::uniform(),
            noise,
        )
    }

    #[test]
    fn noise_free_run_matches_calibration() {
        let machine = Machine::paper_testbed();
        let mut workload = SimWorkload::new(simple_spec(0.0), &machine);
        let summary = workload.run_to_completion(PAPER_TESTBED_CORES);
        assert_eq!(summary.items, 200);
        assert!((summary.average_rate_bps - 10.0).abs() < 1e-6);
        assert!(workload.is_done());
        assert!(workload.step(8).is_none());
    }

    #[test]
    fn heartbeats_are_emitted_per_item() {
        let machine = Machine::paper_testbed();
        let mut workload = SimWorkload::new(simple_spec(0.0).with_items(50), &machine);
        workload.run_to_completion(4);
        assert_eq!(workload.heartbeat().total_beats(), 50);
        let history = workload.heartbeat().history(5);
        assert_eq!(history.len(), 5);
        assert_eq!(history[4].tag, Tag::new(49));
    }

    #[test]
    fn reader_observes_windowed_rate() {
        let machine = Machine::paper_testbed();
        let mut workload = SimWorkload::with_window(simple_spec(0.0), &machine, 10);
        let reader = workload.reader();
        for _ in 0..20 {
            workload.step(8);
        }
        let rate = reader.current_rate(0).unwrap();
        assert!((rate - 10.0).abs() < 1e-6);
    }

    #[test]
    fn fewer_cores_slow_the_workload_down() {
        let machine = Machine::paper_testbed();
        let mut fast = SimWorkload::new(simple_spec(0.0).with_items(50), &machine);
        let fast_summary = fast.run_to_completion(8);

        let machine2 = Machine::paper_testbed();
        let mut slow = SimWorkload::new(simple_spec(0.0).with_items(50), &machine2);
        let slow_summary = slow.run_to_completion(1);

        assert!(slow_summary.average_rate_bps < fast_summary.average_rate_bps / 2.0);
    }

    #[test]
    fn zero_core_request_is_clamped_to_one() {
        let machine = Machine::paper_testbed();
        let mut workload = SimWorkload::new(simple_spec(0.0).with_items(3), &machine);
        let outcome = workload.step(0).unwrap();
        assert_eq!(outcome.cores, 1);
        assert!(outcome.seconds.is_finite());
    }

    #[test]
    fn phases_change_item_cost() {
        let machine = Machine::paper_testbed();
        let spec = simple_spec(0.0)
            .with_items(20)
            .with_phases(PhaseSchedule::from_breakpoints(&[(0, 1.0), (10, 4.0)]));
        let mut workload = SimWorkload::new(spec, &machine);
        let mut early = 0.0;
        let mut late = 0.0;
        for i in 0..20 {
            let outcome = workload.step(8).unwrap();
            if i < 10 {
                early += outcome.seconds;
            } else {
                late += outcome.seconds;
            }
            assert_eq!(outcome.multiplier, if i < 10 { 1.0 } else { 4.0 });
        }
        assert!((late / early - 4.0).abs() < 1e-6);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let machine = Machine::paper_testbed();
            let mut workload =
                SimWorkload::new(simple_spec(0.1).with_items(50).with_seed(seed), &machine);
            workload.run_to_completion(8).seconds
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn registered_workload_is_discoverable() {
        let machine = Machine::paper_testbed();
        let registry = Registry::new();
        let mut workload =
            SimWorkload::registered(simple_spec(0.0).with_items(10), &machine, &registry, 20);
        let reader = registry.attach("sim-test").unwrap();
        workload.run_to_completion(8);
        assert_eq!(reader.total_beats(), 10);
    }

    #[test]
    fn summary_before_any_step_is_zeroed() {
        let machine = Machine::paper_testbed();
        let workload = SimWorkload::new(simple_spec(0.0), &machine);
        let summary = workload.summary();
        assert_eq!(summary.items, 0);
        assert_eq!(summary.average_rate_bps, 0.0);
        assert_eq!(workload.elapsed_seconds(), 0.0);
    }
}
