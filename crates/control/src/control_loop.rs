//! A complete observe → decide → act loop.
//!
//! [`ControlLoop`] wires a [`RateMonitor`] (observe), a [`Controller`]
//! (decide) and an [`Actuator`] (act) together. The paper's external
//! scheduler and the ablation harness are built on this loop; the adaptive
//! encoder uses its own knob ladder but follows the same pattern.

use crate::actuator::Actuator;
use crate::controller::Controller;
use crate::health::{HealthLevel, HealthSource};
use crate::monitor::{Observation, RateMonitor, RateSource};
use heartbeats::HeartbeatReader;

/// One adaptation decision taken by a [`ControlLoop`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlEvent {
    /// The observation that triggered the decision.
    pub observation: Observation,
    /// Actuator level before the decision.
    pub level_before: f64,
    /// Actuator level after the decision was applied.
    pub level_after: f64,
}

impl ControlEvent {
    /// True if the decision changed the actuator level.
    pub fn changed(&self) -> bool {
        (self.level_after - self.level_before).abs() > f64::EPSILON
    }
}

/// An observe/decide/act loop over one application.
///
/// Generic over the monitored [`RateSource`] (default: the in-process
/// reader), so the same loop can act on local or collector-fed observations.
#[derive(Debug)]
pub struct ControlLoop<C: Controller, A: Actuator, S: RateSource = HeartbeatReader> {
    monitor: RateMonitor<S>,
    controller: C,
    actuator: A,
    events: Vec<ControlEvent>,
}

impl<C: Controller, A: Actuator, S: RateSource> ControlLoop<C, A, S> {
    /// Creates a loop from its three parts.
    pub fn new(monitor: RateMonitor<S>, controller: C, actuator: A) -> Self {
        ControlLoop {
            monitor,
            controller,
            actuator,
            events: Vec::new(),
        }
    }

    /// Current actuator level.
    pub fn level(&self) -> f64 {
        self.actuator.level()
    }

    /// The actuator (e.g. to inspect saturation).
    pub fn actuator(&self) -> &A {
        &self.actuator
    }

    /// Mutable access to the actuator (e.g. to shrink its maximum after a
    /// core failure).
    pub fn actuator_mut(&mut self) -> &mut A {
        &mut self.actuator
    }

    /// The decisions taken so far.
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Polls the monitor; if a new observation is due and the application has
    /// both a measurable rate and a declared target, runs the controller and
    /// applies its decision. Returns the event if an observation was taken.
    pub fn tick(&mut self) -> Option<ControlEvent> {
        let observation = self.monitor.poll()?;
        let level_before = self.actuator.level();
        let level_after = match (observation.rate_bps, observation.target) {
            (Some(rate), Some(target)) => {
                let desired = self.controller.desired_level(rate, target, level_before);
                self.actuator.apply(desired)
            }
            _ => level_before,
        };
        let event = ControlEvent {
            observation,
            level_before,
            level_after,
        };
        self.events.push(event.clone());
        Some(event)
    }

    /// Resets the controller state and the monitor cadence.
    pub fn reset(&mut self) {
        self.controller.reset();
    }
}

impl<C: Controller, A: Actuator, S: HealthSource> ControlLoop<C, A, S> {
    /// Health-gated [`tick`](Self::tick): consults the source's
    /// [`HealthLevel`] before acting.
    ///
    /// When the application is [`Stalled`](HealthLevel::Stalled) or
    /// [`NoSignal`](HealthLevel::NoSignal) its windowed rate is stale or
    /// absent — acting on it would chase a ghost (e.g. granting cores to a
    /// crashed process because its "rate" sits below target). The guarded
    /// tick holds the actuator in that case and reports why; on
    /// [`Healthy`](HealthLevel::Healthy) or
    /// [`Degraded`](HealthLevel::Degraded) it behaves exactly like
    /// [`tick`](Self::tick).
    pub fn tick_guarded(&mut self) -> (HealthLevel, Option<ControlEvent>) {
        let level = self.monitor.reader().health_level();
        if level.is_actionable() {
            (level, self.tick())
        } else {
            (level, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::DiscreteActuator;
    use crate::controller::StepController;
    use heartbeats::{HeartbeatBuilder, ManualClock};
    use std::sync::Arc;

    /// Simulates an application whose heart rate is `per_core_rate * cores`.
    fn drive_loop(per_core_rate: f64, target: (f64, f64), beats: u64) -> (f64, usize) {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("loop-app")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(target.0, target.1).unwrap();

        let monitor = RateMonitor::new(hb.reader()).with_check_every(10);
        let controller = StepController::new();
        let actuator = DiscreteActuator::new(1, 8, 1);
        let mut control = ControlLoop::new(monitor, controller, actuator);

        for _ in 0..beats {
            let cores = control.level().max(1.0);
            let rate = per_core_rate * cores;
            clock.advance_secs(1.0 / rate);
            hb.heartbeat();
            control.tick();
        }
        (control.level(), control.events().len())
    }

    #[test]
    fn loop_reaches_the_target_window() {
        // Each core contributes 5 beats/s; target 30-35 needs 6-7 cores.
        let (level, events) = drive_loop(5.0, (30.0, 35.0), 400);
        let rate = 5.0 * level;
        assert!(
            (30.0..=35.0).contains(&rate),
            "final rate {rate} with level {level}"
        );
        assert!(events > 0);
    }

    #[test]
    fn loop_releases_resources_when_fast() {
        // Each core gives 40 beats/s; target 30-35 -> one core is enough and
        // the loop must come back down from 8.
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("fast-app")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(30.0, 45.0).unwrap();
        let monitor = RateMonitor::new(hb.reader()).with_check_every(10);
        let mut control = ControlLoop::new(
            monitor,
            StepController::new(),
            DiscreteActuator::new(1, 8, 8),
        );
        for _ in 0..300 {
            let cores = control.level().max(1.0);
            let rate = 40.0 * cores;
            clock.advance_secs(1.0 / rate);
            hb.heartbeat();
            control.tick();
        }
        assert_eq!(control.level(), 1.0, "one core already exceeds the target");
    }

    #[test]
    fn no_target_means_no_action() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("no-target")
            .window(5)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        let monitor = RateMonitor::new(hb.reader()).with_check_every(5);
        let mut control = ControlLoop::new(
            monitor,
            StepController::new(),
            DiscreteActuator::new(1, 8, 4),
        );
        for _ in 0..20 {
            clock.advance_secs(0.1);
            hb.heartbeat();
            control.tick();
        }
        assert_eq!(control.level(), 4.0);
        assert!(control.events().iter().all(|e| !e.changed()));
    }

    #[test]
    fn events_record_before_and_after() {
        let (_, _) = drive_loop(5.0, (30.0, 35.0), 50);
        // Detailed event contents are covered above; here we exercise the
        // ControlEvent helper directly.
        let event = ControlEvent {
            observation: Observation {
                beat: 10,
                rate_bps: Some(5.0),
                target: Some((30.0, 35.0)),
                status: heartbeats::TargetStatus::BelowTarget,
            },
            level_before: 1.0,
            level_after: 2.0,
        };
        assert!(event.changed());
        let held = ControlEvent {
            level_after: 1.0,
            ..event
        };
        assert!(!held.changed());
    }

    /// A scriptable remote-like source: a fixed rate/target plus a settable
    /// health level, as a collector-backed source would report. Implements
    /// [`heartbeats::Observe`] — the blanket impls derive `RateSource` and
    /// `HealthSource` from it, exactly as they do for real transports.
    struct ScriptedSource {
        beats: std::cell::Cell<u64>,
        rate: f64,
        target: (f64, f64),
        level: std::cell::Cell<HealthLevel>,
    }

    impl heartbeats::Observe for ScriptedSource {
        fn name(&self) -> &str {
            "scripted"
        }

        fn snapshot(&self) -> Option<heartbeats::ObservedSnapshot> {
            // Each sample sees fresh beats so the monitor cadence fires.
            self.beats.set(self.beats.get() + 1);
            Some(heartbeats::ObservedSnapshot {
                total_beats: self.beats.get(),
                rate_bps: Some(self.rate),
                target: Some(self.target),
                dropped: 0,
                alive: true,
            })
        }

        fn health(&self) -> heartbeats::ObservedHealth {
            match self.level.get() {
                HealthLevel::NoSignal => heartbeats::ObservedHealth::NoSignal,
                HealthLevel::Stalled => heartbeats::ObservedHealth::Stalled,
                HealthLevel::Degraded => heartbeats::ObservedHealth::Degraded,
                HealthLevel::Healthy => heartbeats::ObservedHealth::Healthy,
            }
        }

        fn subscribe(
            &self,
            _filter: &heartbeats::ObserveFilter,
        ) -> Result<heartbeats::ObserveStream, heartbeats::ObserveError> {
            Err(heartbeats::ObserveError::Unsupported("scripted".into()))
        }
    }

    #[test]
    fn guarded_tick_holds_on_stall_and_resumes_on_recovery() {
        // Rate 5 bps against a 30-35 target: an unguarded loop would keep
        // adding cores. Stalled means the 5 bps is a stale artifact.
        let source = ScriptedSource {
            beats: std::cell::Cell::new(0),
            rate: 5.0,
            target: (30.0, 35.0),
            level: std::cell::Cell::new(HealthLevel::Stalled),
        };
        let monitor = RateMonitor::new(source).with_check_every(1);
        let mut control = ControlLoop::new(
            monitor,
            StepController::new(),
            DiscreteActuator::new(1, 8, 4),
        );

        let (level, event) = control.tick_guarded();
        assert_eq!(level, HealthLevel::Stalled);
        assert!(event.is_none(), "no action while stalled");
        assert_eq!(control.level(), 4.0, "actuator held");

        // Recovery: the same below-target rate now describes a live app,
        // so the step controller asks for more resources.
        control.monitor.reader().level.set(HealthLevel::Degraded);
        let (level, event) = control.tick_guarded();
        assert_eq!(level, HealthLevel::Degraded);
        let event = event.expect("actionable health runs the controller");
        assert!(event.changed());
        assert!(control.level() > 4.0, "below-target rate adds resources");
    }

    #[test]
    fn guarded_tick_is_plain_tick_when_healthy() {
        let source = ScriptedSource {
            beats: std::cell::Cell::new(0),
            rate: 32.0,
            target: (30.0, 35.0),
            level: std::cell::Cell::new(HealthLevel::Healthy),
        };
        let monitor = RateMonitor::new(source).with_check_every(1);
        let mut control = ControlLoop::new(
            monitor,
            StepController::new(),
            DiscreteActuator::new(1, 8, 4),
        );
        let (level, event) = control.tick_guarded();
        assert_eq!(level, HealthLevel::Healthy);
        assert!(event.is_some());
        assert_eq!(control.level(), 4.0, "within target, no change");
    }

    #[test]
    fn actuator_access_allows_external_shrink() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("shrunk")
            .window(5)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(10.0, 12.0).unwrap();
        let monitor = RateMonitor::new(hb.reader()).with_check_every(1);
        let mut control = ControlLoop::new(
            monitor,
            StepController::new(),
            DiscreteActuator::new(1, 8, 6),
        );
        control.actuator_mut().set_max(3);
        assert_eq!(control.level(), 3.0);
        assert_eq!(control.actuator().max_level(), 3.0);
    }
}
