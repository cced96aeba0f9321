//! End-to-end integration tests of the paper's scenarios, built only from the
//! public APIs of the workspace crates (no test-only hooks): the adaptive
//! encoder, the external scheduler, fault tolerance and the workload suite.

use app_heartbeats::encoder::{
    AdaptiveEncoder, EncoderConfig, EncoderModel, HbEncoder, VideoTrace,
};
use app_heartbeats::scheduler::{run_scheduled_step, FaultInjector, ScheduledRunConfig};
use app_heartbeats::sim::{FailurePlan, Machine};
use app_heartbeats::workloads::{parsec, SimWorkload, PAPER_TESTBED_CORES};

#[test]
fn table2_reproduction_is_close_for_every_benchmark() {
    for spec in parsec::all_table2() {
        let paper = parsec::paper_rate(&spec.name).unwrap();
        let name = spec.name.clone();
        let machine = Machine::paper_testbed();
        let mut workload = SimWorkload::new(spec, &machine);
        let measured = workload
            .run_to_completion(PAPER_TESTBED_CORES)
            .average_rate_bps;
        let error = (measured - paper).abs() / paper;
        assert!(
            error < 0.25,
            "{name}: measured {measured:.2} vs paper {paper:.2} ({:.0}% off)",
            error * 100.0
        );
    }
}

#[test]
fn single_core_runs_are_much_slower_than_eight_core_runs() {
    // The whole premise of the scheduler experiments: core count visibly
    // changes the heart rate.
    for spec in [parsec::blackscholes(), parsec::x264(), parsec::ferret()] {
        let machine_a = Machine::paper_testbed();
        let rate_8 = SimWorkload::new(spec.clone().with_items(100), &machine_a)
            .run_to_completion(8)
            .average_rate_bps;
        let machine_b = Machine::paper_testbed();
        let rate_1 = SimWorkload::new(spec.clone().with_items(100), &machine_b)
            .run_to_completion(1)
            .average_rate_bps;
        assert!(
            rate_8 > 2.5 * rate_1,
            "{}: 8-core {rate_8:.2} vs 1-core {rate_1:.2}",
            spec.name
        );
    }
}

#[test]
fn adaptive_encoder_meets_goal_and_baseline_does_not() {
    let trace = VideoTrace::demanding_uniform(640, 99);

    let machine_a = Machine::paper_testbed();
    let mut adaptive = AdaptiveEncoder::paper_configuration(trace.clone(), &machine_a);
    adaptive.encode_all(8);
    let adaptive_rate = adaptive.reader().current_rate(40).unwrap();

    let machine_b = Machine::paper_testbed();
    let mut baseline = HbEncoder::new(
        trace,
        EncoderModel::paper(),
        EncoderConfig::paper_demanding(),
        &machine_b,
    );
    baseline.encode_all(8);
    let baseline_rate = baseline.reader().current_rate(40).unwrap();

    assert!(adaptive_rate >= 30.0, "adaptive {adaptive_rate:.1}");
    assert!(baseline_rate < 15.0, "baseline {baseline_rate:.1}");
}

#[test]
fn external_scheduler_uses_fewer_cores_than_the_machine_offers() {
    // Figure 7's headline: the target is held with 4-6 of the 8 cores.
    let mut machine = Machine::paper_testbed();
    let config = ScheduledRunConfig {
        target: (30.0, 35.0),
        scheduler_window: 20,
        check_every: 5,
        plot_window: 20,
        failures: FailurePlan::none(),
    };
    let result = run_scheduled_step(parsec::x264_fig7(), &mut machine, &config);
    let cores = result.series.get("cores").unwrap();
    let mean_cores = cores.mean_y();
    assert!(
        mean_cores < 7.0,
        "the scheduler should not need the whole machine (mean {mean_cores:.1})"
    );
    assert!(result.settled_fraction_in_target > 0.4);
}

#[test]
fn scheduler_tracks_a_mid_run_core_failure() {
    let mut machine = Machine::paper_testbed();
    let config = ScheduledRunConfig {
        target: (2.5, 3.5),
        scheduler_window: 10,
        check_every: 3,
        plot_window: 20,
        failures: FailurePlan::at_beats(vec![(60, 3)]),
    };
    let result = run_scheduled_step(parsec::bodytrack_fig5(), &mut machine, &config);
    assert_eq!(machine.working_cores(), 5);
    let cores = result.series.get("cores").unwrap();
    assert!(cores
        .points
        .iter()
        .filter(|&&(beat, _)| beat > 65.0)
        .all(|&(_, allocated)| allocated <= 5.0));
}

#[test]
fn fault_injector_and_adaptive_encoder_compose() {
    // The Figure 8 scenario assembled from its public parts.
    let mut machine = Machine::paper_testbed();
    let mut injector = FaultInjector::paper_figure8();
    let trace = VideoTrace::demanding_uniform(640, 123);
    let mut encoder =
        AdaptiveEncoder::new(trace, EncoderModel::figure8(), &machine.clone(), 40, 30.0);
    while !encoder.is_done() {
        injector.apply(encoder.frames_encoded(), &mut machine);
        encoder.encode_next(machine.working_cores());
    }
    assert_eq!(machine.working_cores(), 5);
    assert_eq!(injector.log().len(), 3);
    assert!(injector.exhausted());
    let final_rate = encoder.reader().current_rate(40).unwrap();
    assert!(final_rate >= 29.0, "final rate {final_rate:.1}");
    assert!(!encoder.adaptations().is_empty());
}

#[test]
fn registered_workloads_are_discoverable_while_running() {
    use app_heartbeats::heartbeats::Registry;
    let registry = Registry::new();
    let machine = Machine::paper_testbed();
    let mut workload =
        SimWorkload::registered(parsec::ferret().with_items(50), &machine, &registry, 20);
    let reader = registry.attach("ferret").unwrap();
    for _ in 0..25 {
        workload.step(8);
    }
    assert_eq!(reader.total_beats(), 25);
    assert!(reader.current_rate(0).unwrap() > 0.0);
    workload.run_to_completion(8);
    assert_eq!(reader.total_beats(), 50);
}
