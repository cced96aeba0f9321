//! The simulated multicore machine.
//!
//! The paper's experiments ran on a dual-socket, eight-core Xeon X5460
//! server. [`Machine`] stands in for that testbed: it owns the virtual clock,
//! tracks how many cores are healthy, and (through [`CoreLedger`]) how cores
//! are divided between applications. Core failures — used by the fault-
//! tolerance experiment of Section 5.4, where cores "die" at frames 160, 320
//! and 480 — are injected through a [`FailurePlan`].

use std::collections::HashMap;

use heartbeats::ManualClock;

/// A simulated multicore machine with a virtual clock and failable cores.
#[derive(Debug, Clone)]
pub struct Machine {
    total_cores: usize,
    failed_cores: usize,
    clock: ManualClock,
}

impl Machine {
    /// Creates a machine with `total_cores` healthy cores and a fresh virtual
    /// clock at time zero.
    pub fn new(total_cores: usize) -> Self {
        Machine {
            total_cores: total_cores.max(1),
            failed_cores: 0,
            clock: ManualClock::new(),
        }
    }

    /// The paper's testbed: eight cores.
    pub fn paper_testbed() -> Self {
        Self::new(8)
    }

    /// Handle to the machine's virtual clock (cloning shares the time).
    pub fn clock(&self) -> ManualClock {
        self.clock.clone()
    }

    /// Number of cores the machine was built with.
    pub fn total_cores(&self) -> usize {
        self.total_cores
    }

    /// Number of cores currently marked as failed.
    pub fn failed_cores(&self) -> usize {
        self.failed_cores
    }

    /// Number of cores still able to execute work.
    pub fn working_cores(&self) -> usize {
        self.total_cores - self.failed_cores
    }

    /// Marks `n` additional cores as failed (saturating: at least one core is
    /// always considered working so simulations can terminate). Returns the
    /// number of cores actually failed.
    pub fn fail_cores(&mut self, n: usize) -> usize {
        let max_failable = self.total_cores.saturating_sub(1) - self.failed_cores;
        let failed = n.min(max_failable);
        self.failed_cores += failed;
        failed
    }

    /// Repairs all failed cores.
    pub fn restore_all(&mut self) {
        self.failed_cores = 0;
    }

    /// Clamps a requested allocation to what the machine can actually supply.
    pub fn effective_cores(&self, requested: usize) -> usize {
        requested.min(self.working_cores())
    }
}

/// A scheduled sequence of core failures expressed in beat indices, as in the
/// fault-tolerance experiment ("at frames 160, 320, and 480, a core failure
/// is simulated").
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    events: Vec<(u64, usize)>,
    next: usize,
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fails `cores` cores when the application reaches each beat index.
    /// Events must be in increasing beat order.
    pub fn at_beats(events: Vec<(u64, usize)>) -> Self {
        for pair in events.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "failure events must be ordered by beat"
            );
        }
        FailurePlan { events, next: 0 }
    }

    /// The plan used by Figure 8: one core fails at beats 160, 320 and 480.
    pub fn paper_figure8() -> Self {
        Self::at_beats(vec![(160, 1), (320, 1), (480, 1)])
    }

    /// Returns how many cores should fail now that the application has
    /// completed `beat` beats, and advances the plan.
    pub fn due(&mut self, beat: u64) -> usize {
        let mut to_fail = 0;
        while self.next < self.events.len() && self.events[self.next].0 <= beat {
            to_fail += self.events[self.next].1;
            self.next += 1;
        }
        to_fail
    }

    /// True when every scheduled failure has been delivered.
    pub fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Total number of scheduled failure events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the plan contains no failures.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Tracks how the machine's cores are divided between named applications.
///
/// The external scheduler of Section 5.3 allocates cores to one application
/// at a time, but the paper argues the same mechanism lets the OS arbitrate
/// *between* heartbeat-enabled applications; the ledger provides that
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CoreLedger {
    total: usize,
    allocations: HashMap<String, usize>,
}

impl CoreLedger {
    /// Creates a ledger over `total` cores.
    pub fn new(total: usize) -> Self {
        CoreLedger {
            total: total.max(1),
            allocations: HashMap::new(),
        }
    }

    /// Total number of cores managed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Cores not allocated to any application.
    pub fn free(&self) -> usize {
        self.total - self.allocated_total()
    }

    /// Sum of all allocations.
    pub fn allocated_total(&self) -> usize {
        self.allocations.values().sum()
    }

    /// Cores currently allocated to `app` (0 if unknown).
    pub fn allocated(&self, app: &str) -> usize {
        self.allocations.get(app).copied().unwrap_or(0)
    }

    /// Sets `app`'s allocation to `cores`, clamped so the total never exceeds
    /// the machine. Returns the allocation actually granted.
    pub fn set_allocation(&mut self, app: &str, cores: usize) -> usize {
        let others: usize = self
            .allocations
            .iter()
            .filter(|(name, _)| name.as_str() != app)
            .map(|(_, &c)| c)
            .sum();
        let granted = cores.min(self.total.saturating_sub(others));
        self.allocations.insert(app.to_string(), granted);
        granted
    }

    /// Releases all cores held by `app`.
    pub fn release(&mut self, app: &str) -> usize {
        self.allocations.remove(app).unwrap_or(0)
    }

    /// Applications with a non-zero allocation, sorted by name.
    pub fn apps(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .allocations
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Shrinks the ledger's capacity (e.g. after core failures), reducing the
    /// largest allocations first until the total fits. Returns the new total.
    pub fn shrink_total(&mut self, new_total: usize) -> usize {
        self.total = new_total.max(1);
        while self.allocated_total() > self.total {
            if let Some(name) = self
                .allocations
                .iter()
                .max_by_key(|(_, &c)| c)
                .map(|(name, _)| name.clone())
            {
                if let Some(c) = self.allocations.get_mut(&name) {
                    *c -= 1;
                }
            } else {
                break;
            }
        }
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::Clock;

    #[test]
    fn machine_basics() {
        let machine = Machine::new(8);
        assert_eq!(machine.total_cores(), 8);
        assert_eq!(machine.working_cores(), 8);
        assert_eq!(machine.failed_cores(), 0);
        assert_eq!(machine.effective_cores(12), 8);
        assert_eq!(machine.effective_cores(3), 3);
    }

    #[test]
    fn machine_clock_is_shared() {
        let machine = Machine::new(4);
        let clock = machine.clock();
        clock.advance_ns(500);
        assert_eq!(machine.clock().now_ns(), 500);
    }

    #[test]
    fn machine_minimum_one_core() {
        let machine = Machine::new(0);
        assert_eq!(machine.total_cores(), 1);
    }

    #[test]
    fn paper_testbed_has_eight_cores() {
        assert_eq!(Machine::paper_testbed().total_cores(), 8);
    }

    #[test]
    fn fail_and_restore_cores() {
        let mut machine = Machine::new(8);
        assert_eq!(machine.fail_cores(3), 3);
        assert_eq!(machine.working_cores(), 5);
        assert_eq!(machine.effective_cores(8), 5);
        // Cannot fail the last core.
        assert_eq!(machine.fail_cores(10), 4);
        assert_eq!(machine.working_cores(), 1);
        machine.restore_all();
        assert_eq!(machine.working_cores(), 8);
    }

    #[test]
    fn failure_plan_fires_in_order() {
        let mut plan = FailurePlan::at_beats(vec![(160, 1), (320, 1), (480, 2)]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.due(100), 0);
        assert_eq!(plan.due(160), 1);
        assert_eq!(plan.due(161), 0, "an event fires only once");
        assert_eq!(plan.due(500), 3, "skipped events accumulate");
        assert!(plan.exhausted());
    }

    #[test]
    fn figure8_plan_matches_paper() {
        let mut plan = FailurePlan::paper_figure8();
        assert_eq!(plan.due(160), 1);
        assert_eq!(plan.due(320), 1);
        assert_eq!(plan.due(480), 1);
        assert!(plan.exhausted());
    }

    #[test]
    fn empty_plan_is_exhausted() {
        let mut plan = FailurePlan::none();
        assert!(plan.is_empty());
        assert!(plan.exhausted());
        assert_eq!(plan.due(1_000), 0);
    }

    #[test]
    #[should_panic(expected = "ordered by beat")]
    fn unordered_plan_panics() {
        FailurePlan::at_beats(vec![(300, 1), (100, 1)]);
    }

    #[test]
    fn ledger_allocates_and_clamps() {
        let mut ledger = CoreLedger::new(8);
        assert_eq!(ledger.total(), 8);
        assert_eq!(ledger.set_allocation("x264", 5), 5);
        assert_eq!(
            ledger.set_allocation("dedup", 5),
            3,
            "clamped to free cores"
        );
        assert_eq!(ledger.free(), 0);
        assert_eq!(ledger.allocated("x264"), 5);
        assert_eq!(ledger.allocated("unknown"), 0);
        assert_eq!(ledger.apps(), vec!["dedup".to_string(), "x264".to_string()]);
    }

    #[test]
    fn ledger_reallocation_replaces_previous() {
        let mut ledger = CoreLedger::new(8);
        ledger.set_allocation("a", 6);
        assert_eq!(ledger.set_allocation("a", 2), 2);
        assert_eq!(ledger.free(), 6);
    }

    #[test]
    fn ledger_release() {
        let mut ledger = CoreLedger::new(4);
        ledger.set_allocation("a", 3);
        assert_eq!(ledger.release("a"), 3);
        assert_eq!(ledger.release("a"), 0);
        assert_eq!(ledger.free(), 4);
    }

    #[test]
    fn ledger_shrink_reclaims_from_largest() {
        let mut ledger = CoreLedger::new(8);
        ledger.set_allocation("big", 6);
        ledger.set_allocation("small", 2);
        ledger.shrink_total(5);
        assert_eq!(ledger.total(), 5);
        assert!(ledger.allocated_total() <= 5);
        assert!(ledger.allocated("big") < 6);
        assert!(ledger.allocated("small") >= 1);
    }
}
