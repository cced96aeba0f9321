//! Couples a simulated workload to the external scheduler and records the
//! series the paper's Figures 5–7 plot: windowed heart rate, allocated cores,
//! and the target bounds, all as a function of the beat number.

use control::Controller;
use heartbeats::MovingRate;
use simcore::{FailurePlan, Machine, Series, SeriesSet};
use workloads::{SimWorkload, WorkloadSpec};

use crate::scheduler::ExternalScheduler;

/// Parameters of a scheduled run.
#[derive(Debug, Clone)]
pub struct ScheduledRunConfig {
    /// Target heart-rate range the application registers.
    pub target: (f64, f64),
    /// Window (in beats) the scheduler uses to estimate the rate.
    pub scheduler_window: usize,
    /// Beats between scheduler decisions.
    pub check_every: u64,
    /// Window (in beats) of the moving average plotted in the figure.
    pub plot_window: usize,
    /// Core failures to inject, expressed in beat indices.
    pub failures: FailurePlan,
}

impl Default for ScheduledRunConfig {
    fn default() -> Self {
        ScheduledRunConfig {
            target: (0.0, f64::MAX),
            scheduler_window: 10,
            check_every: 3,
            plot_window: 20,
            failures: FailurePlan::none(),
        }
    }
}

/// Result of a scheduled run: the figure series plus summary statistics.
#[derive(Debug)]
pub struct ScheduledRunResult {
    /// `heart_rate`, `cores`, `target_min`, `target_max` series over beats.
    pub series: SeriesSet,
    /// Lifetime average heart rate of the run.
    pub average_rate_bps: f64,
    /// Largest core allocation the scheduler granted.
    pub peak_cores: usize,
    /// Core allocation at the end of the run.
    pub final_cores: usize,
    /// Fraction of plotted beats (after the warm-up third) whose moving
    /// average lies inside the target window.
    pub settled_fraction_in_target: f64,
    /// Number of allocation changes the scheduler made.
    pub allocation_changes: usize,
}

/// Runs `spec` under an external scheduler built with `make_scheduler` and
/// records the figure series.
pub fn run_scheduled<C, F>(
    spec: WorkloadSpec,
    machine: &mut Machine,
    config: &ScheduledRunConfig,
    make_scheduler: F,
) -> ScheduledRunResult
where
    C: Controller,
    F: FnOnce(heartbeats::HeartbeatReader, usize, usize, u64) -> ExternalScheduler<C>,
{
    let mut workload = SimWorkload::with_window(spec, machine, config.scheduler_window);
    workload
        .heartbeat()
        .set_target_rate(config.target.0, config.target.1)
        .expect("target range is valid");

    let mut scheduler = make_scheduler(
        workload.reader(),
        machine.total_cores(),
        config.scheduler_window,
        config.check_every,
    );

    let mut failures = config.failures.clone();
    let mut moving = MovingRate::new(config.plot_window);
    let mut rate_series = Series::new("heart_rate");
    let mut cores_series = Series::new("cores");
    let mut target_min_series = Series::new("target_min");
    let mut target_max_series = Series::new("target_max");
    let mut peak_cores = 1usize;

    while !workload.is_done() {
        let beat = workload.items_done() + 1;
        // Inject any core failures that are due before processing this item.
        let to_fail = failures.due(workload.items_done());
        if to_fail > 0 {
            machine.fail_cores(to_fail);
            scheduler.set_working_cores(machine.working_cores());
        }

        let cores = machine.effective_cores(scheduler.cores());
        workload.step(cores);
        scheduler.tick();

        peak_cores = peak_cores.max(scheduler.cores());
        if let Some(rate) = moving.push(workload.heartbeat().last_beat_ns().unwrap_or(0)) {
            rate_series.push(beat as f64, rate);
        }
        cores_series.push(beat as f64, scheduler.cores() as f64);
        target_min_series.push(beat as f64, config.target.0);
        target_max_series.push(beat as f64, config.target.1);
    }

    let summary = workload.summary();
    let settle_start = (summary.items / 3) as f64;
    let settled: Vec<(f64, f64)> = rate_series
        .points
        .iter()
        .copied()
        .filter(|&(x, _)| x >= settle_start)
        .collect();
    let settled_fraction_in_target = if settled.is_empty() {
        0.0
    } else {
        settled
            .iter()
            .filter(|&&(_, y)| y >= config.target.0 && y <= config.target.1)
            .count() as f64
            / settled.len() as f64
    };

    let mut series = SeriesSet::new("beat");
    series.add(rate_series);
    series.add(cores_series);
    series.add(target_min_series);
    series.add(target_max_series);

    ScheduledRunResult {
        series,
        average_rate_bps: summary.average_rate_bps,
        peak_cores,
        final_cores: scheduler.cores(),
        settled_fraction_in_target,
        allocation_changes: scheduler.changes(),
    }
}

/// Convenience wrapper running the paper's step-heuristic scheduler.
pub fn run_scheduled_step(
    spec: WorkloadSpec,
    machine: &mut Machine,
    config: &ScheduledRunConfig,
) -> ScheduledRunResult {
    run_scheduled(spec, machine, config, |reader, max_cores, window, every| {
        ExternalScheduler::paper_defaults(reader, max_cores, window, every)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::parsec;

    #[test]
    fn bodytrack_figure5_shape() {
        let mut machine = Machine::paper_testbed();
        let config = ScheduledRunConfig {
            target: (2.5, 3.5),
            scheduler_window: 10,
            check_every: 3,
            plot_window: 20,
            failures: FailurePlan::none(),
        };
        let result = run_scheduled_step(parsec::bodytrack_fig5(), &mut machine, &config);

        // The scheduler climbs to seven or eight cores during the heavy
        // phases and reclaims down to a single core after the load drop.
        assert!(result.peak_cores >= 7, "peak cores {}", result.peak_cores);
        assert_eq!(result.final_cores, 1, "final cores {}", result.final_cores);
        assert!(result.allocation_changes >= 8);
        // The heart rate spends most of the settled run inside the window.
        assert!(
            result.settled_fraction_in_target > 0.5,
            "only {:.0}% of settled beats in target",
            result.settled_fraction_in_target * 100.0
        );
        // Cores series covers every beat.
        assert_eq!(result.series.get("cores").unwrap().len(), 261);
    }

    #[test]
    fn streamcluster_figure6_reaches_target_quickly() {
        let mut machine = Machine::paper_testbed();
        let config = ScheduledRunConfig {
            target: (0.5, 0.55),
            scheduler_window: 6,
            check_every: 2,
            plot_window: 10,
            failures: FailurePlan::none(),
        };
        let result = run_scheduled_step(parsec::streamcluster_fig6(), &mut machine, &config);
        // The scheduler needs about five cores for this target.
        assert!(
            (4..=6).contains(&result.final_cores),
            "final {}",
            result.final_cores
        );
        // The rate first enters the target window within ~25 beats.
        let rate = result.series.get("heart_rate").unwrap();
        let first_in_target = rate
            .points
            .iter()
            .find(|&&(_, y)| (0.5..=0.55).contains(&y))
            .map(|&(x, _)| x);
        assert!(
            matches!(first_in_target, Some(x) if x <= 30.0),
            "target reached at beat {first_in_target:?}"
        );
    }

    #[test]
    fn x264_figure7_holds_thirty_to_thirtyfive_with_four_to_six_cores() {
        let mut machine = Machine::paper_testbed();
        let config = ScheduledRunConfig {
            target: (30.0, 35.0),
            scheduler_window: 20,
            check_every: 5,
            plot_window: 20,
            failures: FailurePlan::none(),
        };
        let result = run_scheduled_step(parsec::x264_fig7(), &mut machine, &config);
        assert!(
            (4..=6).contains(&result.final_cores),
            "final cores {}",
            result.final_cores
        );
        assert!(
            result.settled_fraction_in_target > 0.45,
            "only {:.0}% of settled beats in target",
            result.settled_fraction_in_target * 100.0
        );
        // The easy stretches produce visible spikes above 40 beat/s.
        let max_rate = result.series.get("heart_rate").unwrap().max_y().unwrap();
        assert!(max_rate > 40.0, "max rate {max_rate:.1}");
    }

    #[test]
    fn failures_shrink_the_available_cores() {
        let mut machine = Machine::paper_testbed();
        let config = ScheduledRunConfig {
            target: (2.5, 3.5),
            scheduler_window: 10,
            check_every: 3,
            plot_window: 20,
            failures: FailurePlan::at_beats(vec![(50, 4)]),
        };
        let result = run_scheduled_step(parsec::bodytrack_fig5(), &mut machine, &config);
        assert_eq!(machine.working_cores(), 4);
        let cores = result.series.get("cores").unwrap();
        // After the failure the allocation never exceeds the working cores.
        assert!(cores
            .points
            .iter()
            .filter(|&&(x, _)| x > 55.0)
            .all(|&(_, y)| y <= 4.0));
    }

    #[test]
    fn default_config_is_permissive() {
        let config = ScheduledRunConfig::default();
        assert_eq!(config.target.0, 0.0);
        assert!(config.failures.is_empty());
    }
}
