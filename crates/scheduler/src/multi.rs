//! Multi-application arbitration.
//!
//! The paper argues that when several Heartbeat-enabled applications run
//! together, the system can reallocate resources "to provide the best global
//! outcome" (Section 1) — e.g. an organic OS moving cores from applications
//! that exceed their goals to applications that miss them.
//! [`MultiAppScheduler`] implements that arbitration on top of a
//! [`CoreLedger`]: every decision round it asks each application's controller
//! for its desired core count and grants requests subject to the machine's
//! capacity, favouring applications that are below their target.

use control::{Controller, RateMonitor, StepController};
use heartbeats::{HeartbeatReader, TargetStatus};
use simcore::CoreLedger;

/// Per-application scheduling state.
#[derive(Debug)]
struct ManagedApp {
    name: String,
    monitor: RateMonitor,
    controller: StepController,
    desired: usize,
}

/// One arbitration round's outcome for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Grant {
    /// Application name.
    pub app: String,
    /// Cores the application's controller asked for.
    pub desired: usize,
    /// Cores actually granted after arbitration.
    pub granted: usize,
    /// The application's relationship to its target when the round ran.
    pub status: TargetStatus,
}

/// A heartbeat-driven scheduler arbitrating cores between applications.
#[derive(Debug)]
pub struct MultiAppScheduler {
    ledger: CoreLedger,
    apps: Vec<ManagedApp>,
    window: usize,
}

impl MultiAppScheduler {
    /// Creates a scheduler over `total_cores` cores, sampling each
    /// application's rate over `window` beats.
    pub fn new(total_cores: usize, window: usize) -> Self {
        MultiAppScheduler {
            ledger: CoreLedger::new(total_cores),
            apps: Vec::new(),
            window,
        }
    }

    /// Registers an application. It starts with one core.
    pub fn add_app(&mut self, reader: HeartbeatReader) {
        let name = reader.name().to_string();
        self.ledger.set_allocation(&name, 1);
        self.apps.push(ManagedApp {
            name,
            monitor: RateMonitor::new(reader).with_window(self.window),
            controller: StepController::new(),
            desired: 1,
        });
    }

    /// Cores currently allocated to `app`.
    pub fn cores_of(&self, app: &str) -> usize {
        self.ledger.allocated(app)
    }

    /// Total cores currently allocated across all applications.
    pub fn total_allocated(&self) -> usize {
        self.ledger.allocated_total()
    }

    /// Number of managed applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True if no applications are managed.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Runs one arbitration round: every application's controller proposes a
    /// core count based on its heart rate; below-target applications are
    /// served first; requests are clamped by the machine's capacity.
    pub fn rebalance(&mut self) -> Vec<Grant> {
        // Phase 1: collect desires.
        let mut proposals: Vec<(usize, TargetStatus)> = Vec::with_capacity(self.apps.len());
        for app in &mut self.apps {
            let observation = app.monitor.observe_now();
            let current = app.desired as f64;
            let desired = match (observation.rate_bps, observation.target) {
                (Some(rate), Some(target)) => {
                    app.controller
                        .desired_level(rate, target, current)
                        .round()
                        .clamp(1.0, self.ledger.total() as f64) as usize
                }
                _ => app.desired,
            };
            app.desired = desired;
            proposals.push((desired, observation.status));
        }

        // Phase 2: grant, serving applications that miss their goal first so
        // freed cores flow toward them.
        let mut order: Vec<usize> = (0..self.apps.len()).collect();
        order.sort_by_key(|&i| match proposals[i].1 {
            TargetStatus::BelowTarget => 0,
            TargetStatus::NoTarget => 1,
            TargetStatus::WithinTarget => 2,
            TargetStatus::AboveTarget => 3,
        });

        // Shrinking requests are applied first so the freed cores are
        // available to the growing ones in the same round.
        let mut grants = vec![
            Grant {
                app: String::new(),
                desired: 0,
                granted: 0,
                status: TargetStatus::NoTarget,
            };
            self.apps.len()
        ];
        for &i in &order {
            let app = &self.apps[i];
            if proposals[i].0 <= self.ledger.allocated(&app.name) {
                let granted = self.ledger.set_allocation(&app.name, proposals[i].0);
                grants[i] = Grant {
                    app: app.name.clone(),
                    desired: proposals[i].0,
                    granted,
                    status: proposals[i].1,
                };
            }
        }
        for &i in &order {
            let app = &self.apps[i];
            if proposals[i].0 > self.ledger.allocated(&app.name) {
                let granted = self.ledger.set_allocation(&app.name, proposals[i].0);
                grants[i] = Grant {
                    app: app.name.clone(),
                    desired: proposals[i].0,
                    granted,
                    status: proposals[i].1,
                };
            } else if grants[i].app.is_empty() {
                grants[i] = Grant {
                    app: app.name.clone(),
                    desired: proposals[i].0,
                    granted: self.ledger.allocated(&app.name),
                    status: proposals[i].1,
                };
            }
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{HeartbeatBuilder, ManualClock};
    use std::sync::Arc;

    /// Each simulated application runs on its own clock: applications execute
    /// concurrently in reality, so one application's beats must not stretch
    /// the intervals of another's.
    struct App {
        hb: heartbeats::Heartbeat,
        clock: ManualClock,
        per_core_rate: f64,
    }

    fn make_app(name: &str, per_core_rate: f64, target: (f64, f64)) -> App {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new(name)
            .window(10)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        hb.set_target_rate(target.0, target.1).unwrap();
        App {
            hb,
            clock,
            per_core_rate,
        }
    }

    #[test]
    fn cores_flow_to_the_application_that_misses_its_goal() {
        // "greedy" needs many cores (1 beat/s per core, target 5-6);
        // "light" is satisfied by one core (10 beats/s per core, target 5-11).
        let greedy = make_app("greedy", 1.0, (5.0, 6.0));
        let light = make_app("light", 10.0, (5.0, 11.0));

        let mut scheduler = MultiAppScheduler::new(8, 10);
        scheduler.add_app(greedy.hb.reader());
        scheduler.add_app(light.hb.reader());
        assert_eq!(scheduler.len(), 2);
        assert!(!scheduler.is_empty());

        for _round in 0..30 {
            // Each app produces a few beats at its current allocation.
            for app in [&greedy, &light] {
                let cores = scheduler.cores_of(app.hb.name()).max(1);
                let rate = app.per_core_rate * cores as f64;
                for _ in 0..3 {
                    app.clock.advance_secs(1.0 / rate);
                    app.hb.heartbeat();
                }
            }
            scheduler.rebalance();
        }

        let greedy_cores = scheduler.cores_of("greedy");
        let light_cores = scheduler.cores_of("light");
        assert!(greedy_cores >= 5, "greedy got {greedy_cores}");
        assert_eq!(light_cores, 1, "light stays on one core");
        assert!(scheduler.total_allocated() <= 8);
    }

    #[test]
    fn grants_report_desired_and_granted() {
        let app = make_app("solo", 2.0, (10.0, 12.0));
        let mut scheduler = MultiAppScheduler::new(4, 5);
        scheduler.add_app(app.hb.reader());
        for _ in 0..6 {
            app.clock.advance_secs(0.5);
            app.hb.heartbeat();
        }
        let grants = scheduler.rebalance();
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].app, "solo");
        assert!(grants[0].granted >= 1);
        assert!(grants[0].granted <= 4);
    }

    #[test]
    fn capacity_is_never_exceeded_even_when_everyone_is_hungry() {
        let a = make_app("a", 0.5, (50.0, 60.0));
        let b = make_app("b", 0.5, (50.0, 60.0));
        let c = make_app("c", 0.5, (50.0, 60.0));
        let mut scheduler = MultiAppScheduler::new(6, 5);
        for app in [&a, &b, &c] {
            scheduler.add_app(app.hb.reader());
        }
        for _round in 0..40 {
            for app in [&a, &b, &c] {
                let cores = scheduler.cores_of(app.hb.name()).max(1);
                let rate = app.per_core_rate * cores as f64;
                app.clock.advance_secs(1.0 / rate);
                app.hb.heartbeat();
            }
            scheduler.rebalance();
            assert!(scheduler.total_allocated() <= 6);
        }
        // Everyone keeps at least its single starting core.
        for name in ["a", "b", "c"] {
            assert!(scheduler.cores_of(name) >= 1);
        }
    }

    #[test]
    fn apps_without_targets_keep_their_single_core() {
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("no-goal")
            .window(5)
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        let mut scheduler = MultiAppScheduler::new(4, 5);
        scheduler.add_app(hb.reader());
        for _ in 0..10 {
            clock.advance_secs(0.1);
            hb.heartbeat();
            scheduler.rebalance();
        }
        assert_eq!(scheduler.cores_of("no-goal"), 1);
    }
}
