//! Ablations A1–A3: controller policy, backend choice and window size.
//!
//! These experiments are not figures from the paper; they exercise design
//! decisions called out in DESIGN.md — which controller the external
//! observer uses, and how the rate-estimation window affects responsiveness
//! versus stability (the Section 3 discussion about short windows for
//! in-application tuning and long windows for migration decisions).

use control::PiController;
use heartbeats::MovingRate;
use scheduler::{run_scheduled, run_scheduled_step, ExternalScheduler, ScheduledRunConfig};
use simcore::{FailurePlan, Machine, TextTable};
use workloads::parsec;

/// One controller-ablation measurement.
#[derive(Debug, Clone)]
pub struct ControllerAblationRow {
    /// Scenario name (`bodytrack-fig5`, `x264-fig7`).
    pub scenario: String,
    /// Controller policy name (`step`, `pi`).
    pub controller: String,
    /// Fraction of settled beats inside the target window.
    pub settled_fraction_in_target: f64,
    /// Number of allocation changes made during the run.
    pub allocation_changes: usize,
    /// Final core allocation.
    pub final_cores: usize,
}

fn fig5_config() -> ScheduledRunConfig {
    ScheduledRunConfig {
        target: (2.5, 3.5),
        scheduler_window: 10,
        check_every: 3,
        plot_window: 20,
        failures: FailurePlan::none(),
    }
}

fn fig7_config() -> ScheduledRunConfig {
    ScheduledRunConfig {
        target: (30.0, 35.0),
        scheduler_window: 20,
        check_every: 5,
        plot_window: 20,
        failures: FailurePlan::none(),
    }
}

/// Runs the Figure 5 and Figure 7 scenarios under both the paper's step
/// heuristic and a PI controller.
pub fn controller_ablation() -> Vec<ControllerAblationRow> {
    let scenarios: Vec<(&str, workloads::WorkloadSpec, ScheduledRunConfig)> = vec![
        ("bodytrack-fig5", parsec::bodytrack_fig5(), fig5_config()),
        ("x264-fig7", parsec::x264_fig7(), fig7_config()),
    ];
    let mut rows = Vec::new();
    for (name, spec, config) in scenarios {
        let mut machine = Machine::paper_testbed();
        let step = run_scheduled_step(spec.clone(), &mut machine, &config);
        rows.push(ControllerAblationRow {
            scenario: name.to_string(),
            controller: "step".to_string(),
            settled_fraction_in_target: step.settled_fraction_in_target,
            allocation_changes: step.allocation_changes,
            final_cores: step.final_cores,
        });

        let mut machine = Machine::paper_testbed();
        let pi = run_scheduled(spec, &mut machine, &config, |reader, max, window, every| {
            ExternalScheduler::with_controller(
                reader,
                max,
                window,
                every,
                PiController::default_gains(),
            )
        });
        rows.push(ControllerAblationRow {
            scenario: name.to_string(),
            controller: "pi".to_string(),
            settled_fraction_in_target: pi.settled_fraction_in_target,
            allocation_changes: pi.allocation_changes,
            final_cores: pi.final_cores,
        });
    }
    rows
}

/// Renders the controller ablation as a text table.
pub fn controller_ablation_table() -> TextTable {
    let mut table = TextTable::new(&[
        "Scenario",
        "Controller",
        "Settled in target",
        "Allocation changes",
        "Final cores",
    ]);
    for row in controller_ablation() {
        table.add_row(vec![
            row.scenario.clone(),
            row.controller.clone(),
            format!("{:.0}%", row.settled_fraction_in_target * 100.0),
            row.allocation_changes.to_string(),
            row.final_cores.to_string(),
        ]);
    }
    table
}

/// One window-size-ablation measurement.
#[derive(Debug, Clone)]
pub struct WindowAblationRow {
    /// Window size in beats.
    pub window: usize,
    /// Beats needed after a 10→40 beat/s step change until the windowed
    /// estimate first exceeds 30 beat/s.
    pub detection_delay_beats: u64,
    /// Standard deviation of the estimate in the noisy steady state.
    pub steady_stddev_bps: f64,
}

/// Window-size sensitivity: short windows react quickly but are noisy; long
/// windows are stable but lag behind phase changes (the Section 3 trade-off).
///
/// The workload beats at 10 beat/s with ±20 % jitter for `steady_beats`
/// beats, then instantly speeds up to 40 beat/s.
pub fn window_ablation(windows: &[usize], steady_beats: usize) -> Vec<WindowAblationRow> {
    let mut rows = Vec::new();
    for &window in windows {
        let mut rng = simcore::SplitMix64::new(0xA3);
        let mut moving = MovingRate::new(window);
        let mut timestamp_ns = 0u64;
        let mut estimates = Vec::new();
        // Noisy slow phase.
        for _ in 0..steady_beats {
            let interval = 100_000_000.0 * (1.0 + 0.2 * rng.gaussian()).clamp(0.3, 2.0);
            timestamp_ns += interval as u64;
            if let Some(rate) = moving.push(timestamp_ns) {
                estimates.push(rate);
            }
        }
        let half = estimates.len() / 2;
        let steady_stddev_bps = heartbeats::stats::stddev(&estimates[half..]);
        // Step change to 40 beat/s.
        let mut detection_delay_beats = 0;
        for beat in 1..=10_000u64 {
            timestamp_ns += 25_000_000;
            if let Some(rate) = moving.push(timestamp_ns) {
                if rate > 30.0 {
                    detection_delay_beats = beat;
                    break;
                }
            }
        }
        rows.push(WindowAblationRow {
            window,
            detection_delay_beats,
            steady_stddev_bps,
        });
    }
    rows
}

/// Renders the window ablation as a text table.
pub fn window_ablation_table() -> TextTable {
    let mut table = TextTable::new(&[
        "Window (beats)",
        "Detection delay (beats)",
        "Steady stddev (beat/s)",
    ]);
    for row in window_ablation(&[2, 5, 10, 20, 50, 100], 400) {
        table.add_row(vec![
            row.window.to_string(),
            row.detection_delay_beats.to_string(),
            format!("{:.3}", row.steady_stddev_bps),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_controllers_hold_the_target_on_both_scenarios() {
        let rows = controller_ablation();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.settled_fraction_in_target > 0.4,
                "{} under {} held the target only {:.0}% of the time",
                row.scenario,
                row.controller,
                row.settled_fraction_in_target * 100.0
            );
            assert!(row.final_cores >= 1 && row.final_cores <= 8);
        }
        let table = controller_ablation_table();
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn longer_windows_are_steadier_but_slower() {
        let rows = window_ablation(&[5, 100], 400);
        assert_eq!(rows.len(), 2);
        let short = &rows[0];
        let long = &rows[1];
        assert!(
            short.detection_delay_beats < long.detection_delay_beats,
            "short window must detect the speed-up sooner ({} vs {})",
            short.detection_delay_beats,
            long.detection_delay_beats
        );
        assert!(
            short.steady_stddev_bps > long.steady_stddev_bps,
            "short window must be noisier ({:.3} vs {:.3})",
            short.steady_stddev_bps,
            long.steady_stddev_bps
        );
    }

    #[test]
    fn window_table_has_six_rows() {
        assert_eq!(window_ablation_table().len(), 6);
    }
}
