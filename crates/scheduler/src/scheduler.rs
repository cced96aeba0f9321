//! The external, heartbeat-driven core scheduler (Section 5.3).
//!
//! The scheduler is an *external observer*: it never touches the application
//! beyond reading its heartbeat data (rate, target range) and changing the
//! number of cores the application is allowed to use. In the paper it starts
//! every benchmark on a single core and adds or removes cores to keep the
//! heart rate inside the range the application registered with
//! `HB_set_target_rate`.

use control::{Actuator, Controller, DiscreteActuator, Observation, RateMonitor, StepController};
use heartbeats::HeartbeatReader;

/// One scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerEvent {
    /// The observation that triggered the decision.
    pub observation: Observation,
    /// Core allocation before the decision.
    pub cores_before: usize,
    /// Core allocation after the decision.
    pub cores_after: usize,
}

impl SchedulerEvent {
    /// True if the allocation changed.
    pub fn changed(&self) -> bool {
        self.cores_before != self.cores_after
    }
}

/// A heartbeat-driven core allocator for a single application.
#[derive(Debug)]
pub struct ExternalScheduler<C: Controller = StepController> {
    monitor: RateMonitor,
    controller: C,
    actuator: DiscreteActuator,
    events: Vec<SchedulerEvent>,
}

impl ExternalScheduler<StepController> {
    /// Creates the paper's scheduler: starts the application on one core,
    /// samples the heart rate every `check_every` beats over `window` beats,
    /// and moves one core at a time.
    pub fn paper_defaults(
        reader: HeartbeatReader,
        max_cores: usize,
        window: usize,
        check_every: u64,
    ) -> Self {
        Self::with_controller(
            reader,
            max_cores,
            window,
            check_every,
            StepController::new().with_cooldown(1),
        )
    }
}

impl<C: Controller> ExternalScheduler<C> {
    /// Creates a scheduler with a custom controller policy.
    pub fn with_controller(
        reader: HeartbeatReader,
        max_cores: usize,
        window: usize,
        check_every: u64,
        controller: C,
    ) -> Self {
        ExternalScheduler {
            monitor: RateMonitor::new(reader)
                .with_window(window)
                .with_check_every(check_every),
            controller,
            actuator: DiscreteActuator::new(1, max_cores.max(1), 1),
            events: Vec::new(),
        }
    }

    /// Cores currently allocated to the application.
    pub fn cores(&self) -> usize {
        self.actuator.value()
    }

    /// Largest allocation the scheduler may grant.
    pub fn max_cores(&self) -> usize {
        self.actuator.max_level() as usize
    }

    /// Informs the scheduler that only `working` cores remain healthy (e.g.
    /// after a failure); the current allocation shrinks if necessary.
    pub fn set_working_cores(&mut self, working: usize) {
        self.actuator.set_max(working.max(1));
    }

    /// Scheduling decisions taken so far.
    pub fn events(&self) -> &[SchedulerEvent] {
        &self.events
    }

    /// Polls the application's heartbeat; if enough new beats have arrived
    /// and the application has both a measurable rate and a declared target,
    /// applies the controller's decision. Returns the event if an observation
    /// was taken.
    pub fn tick(&mut self) -> Option<SchedulerEvent> {
        let observation = self.monitor.poll()?;
        let cores_before = self.actuator.value();
        if let (Some(rate), Some(target)) = (observation.rate_bps, observation.target) {
            let desired = self
                .controller
                .desired_level(rate, target, cores_before as f64);
            self.actuator.apply(desired);
        }
        let event = SchedulerEvent {
            observation,
            cores_before,
            cores_after: self.actuator.value(),
        };
        self.events.push(event.clone());
        Some(event)
    }

    /// Number of allocation changes made so far.
    pub fn changes(&self) -> usize {
        self.events.iter().filter(|e| e.changed()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use control::PiController;
    use heartbeats::{HeartbeatBuilder, ManualClock};
    use std::sync::Arc;

    /// Simulates an application whose rate is proportional to the cores the
    /// scheduler grants it.
    fn run_plant(
        per_core_rate: f64,
        target: (f64, f64),
        beats: u64,
        mut scheduler_factory: impl FnMut(HeartbeatReader) -> ExternalScheduler,
    ) -> (usize, f64) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("plant")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(target.0, target.1).unwrap();
        let mut scheduler = scheduler_factory(hb.reader());
        for _ in 0..beats {
            let rate = per_core_rate * scheduler.cores() as f64;
            clock.advance_secs(1.0 / rate);
            hb.heartbeat();
            scheduler.tick();
        }
        let final_rate = per_core_rate * scheduler.cores() as f64;
        (scheduler.cores(), final_rate)
    }

    #[test]
    fn scheduler_starts_on_one_core() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("startup")
            .clock(Arc::new(clock))
            .build()
            .unwrap();
        let scheduler = ExternalScheduler::paper_defaults(hb.reader(), 8, 10, 1);
        assert_eq!(scheduler.cores(), 1);
        assert_eq!(scheduler.max_cores(), 8);
        assert!(scheduler.events().is_empty());
    }

    #[test]
    fn scheduler_reaches_the_target_window() {
        // 5 beats/s per core, target 30..35 -> 6 or 7 cores.
        let (cores, rate) = run_plant(5.0, (30.0, 35.0), 300, |reader| {
            ExternalScheduler::paper_defaults(reader, 8, 10, 5)
        });
        assert!(
            (30.0..=35.0).contains(&rate),
            "rate {rate} with {cores} cores"
        );
    }

    #[test]
    fn scheduler_reclaims_cores_when_fast() {
        // 20 beats/s per core, target 30..45: one or two cores are enough.
        let (cores, rate) = run_plant(20.0, (30.0, 45.0), 200, |reader| {
            ExternalScheduler::paper_defaults(reader, 8, 10, 5)
        });
        assert!(cores <= 2, "cores {cores}");
        assert!(rate >= 20.0);
    }

    #[test]
    fn scheduler_without_target_does_nothing() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("no-goal")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        let mut scheduler = ExternalScheduler::paper_defaults(hb.reader(), 8, 10, 2);
        for _ in 0..50 {
            clock.advance_secs(0.1);
            hb.heartbeat();
            scheduler.tick();
        }
        assert_eq!(scheduler.cores(), 1);
        assert_eq!(scheduler.changes(), 0);
        assert!(
            !scheduler.events().is_empty(),
            "observations are still taken"
        );
    }

    #[test]
    fn set_working_cores_shrinks_allocation() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("shrink")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(100.0, 110.0).unwrap();
        let mut scheduler = ExternalScheduler::paper_defaults(hb.reader(), 8, 10, 1);
        // Ramp up to 8 cores (10 beats/s per core never reaches 100).
        for _ in 0..60 {
            let rate = 10.0 * scheduler.cores() as f64;
            clock.advance_secs(1.0 / rate);
            hb.heartbeat();
            scheduler.tick();
        }
        assert!(scheduler.cores() >= 7);
        scheduler.set_working_cores(4);
        assert_eq!(scheduler.cores(), 4);
        assert_eq!(scheduler.max_cores(), 4);
    }

    #[test]
    fn events_record_every_observation() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("events")
            .window(5)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(5.0, 6.0).unwrap();
        let mut scheduler = ExternalScheduler::paper_defaults(hb.reader(), 4, 5, 2);
        for _ in 0..10 {
            clock.advance_secs(0.5);
            hb.heartbeat();
            scheduler.tick();
        }
        assert_eq!(scheduler.events().len(), 5, "one event per 2 beats");
        for event in scheduler.events() {
            assert!(event.cores_after >= 1 && event.cores_after <= 4);
        }
    }

    #[test]
    fn pi_controller_variant_also_converges() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("pi-plant")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(30.0, 35.0).unwrap();
        let mut scheduler = ExternalScheduler::with_controller(
            hb.reader(),
            8,
            10,
            5,
            PiController::default_gains(),
        );
        for _ in 0..300 {
            let rate = 5.0 * scheduler.cores() as f64;
            clock.advance_secs(1.0 / rate);
            hb.heartbeat();
            scheduler.tick();
        }
        let rate = 5.0 * scheduler.cores() as f64;
        assert!((30.0..=35.0).contains(&rate), "PI scheduler rate {rate}");
    }
}
