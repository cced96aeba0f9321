//! The paper's Section 5.4 experiment as a runnable example: cores fail while
//! a video encoder runs; the heartbeat-driven adaptive encoder absorbs the
//! failures by trading quality for speed, the unmodified encoder does not.
//!
//! Run with: `cargo run --example fault_tolerance`

use app_heartbeats::encoder::{
    AdaptiveEncoder, EncoderConfig, EncoderModel, HbEncoder, VideoTrace,
};
use app_heartbeats::heartbeats::MovingRate;
use app_heartbeats::scheduler::FaultInjector;
use app_heartbeats::sim::Machine;

fn run_unmodified(trace: VideoTrace) -> Vec<(u64, f64)> {
    let mut machine = Machine::paper_testbed();
    let mut injector = FaultInjector::paper_figure8();
    let mut encoder = HbEncoder::new(
        trace,
        EncoderModel::figure8(),
        EncoderConfig::paper_demanding(),
        &machine.clone(),
    );
    let mut moving = MovingRate::new(20);
    let mut samples = Vec::new();
    while !encoder.is_done() {
        injector.apply(encoder.frames_encoded(), &mut machine);
        encoder.encode_next(machine.working_cores());
        if let Some(rate) = moving.push(encoder.heartbeat().last_beat_ns().unwrap()) {
            samples.push((encoder.frames_encoded(), rate));
        }
    }
    samples
}

fn run_adaptive(trace: VideoTrace) -> Vec<(u64, f64)> {
    let mut machine = Machine::paper_testbed();
    let mut injector = FaultInjector::paper_figure8();
    let mut encoder =
        AdaptiveEncoder::new(trace, EncoderModel::figure8(), &machine.clone(), 40, 30.0);
    let mut moving = MovingRate::new(20);
    let mut samples = Vec::new();
    while !encoder.is_done() {
        if let Some(fault) = injector.apply(encoder.frames_encoded(), &mut machine) {
            println!(
                "  !! core failure at beat {} ({} cores remain)",
                fault.at_beat, fault.working_after
            );
        }
        encoder.encode_next(machine.working_cores());
        if let Some(rate) = moving.push(encoder.heartbeat().last_beat_ns().unwrap()) {
            samples.push((encoder.frames_encoded(), rate));
        }
    }
    samples
}

fn main() {
    let trace = VideoTrace::demanding_uniform(640, 7);
    println!("running the unmodified encoder under core failures...");
    let unhealthy = run_unmodified(trace.clone());
    println!("running the adaptive encoder under core failures...");
    let adaptive = run_adaptive(trace);

    println!("\n{:>6}  {:>12}  {:>12}", "frame", "unmodified", "adaptive");
    for checkpoint in [100u64, 200, 300, 400, 500, 600] {
        let pick = |samples: &[(u64, f64)]| {
            samples
                .iter()
                .rev()
                .find(|&&(frame, _)| frame <= checkpoint)
                .map(|&(_, rate)| rate)
                .unwrap_or(0.0)
        };
        println!(
            "{checkpoint:>6}  {:>12.1}  {:>12.1}",
            pick(&unhealthy),
            pick(&adaptive)
        );
    }
    println!(
        "\nThe adaptive encoder never learns which cores failed — it only sees its heart\n\
         rate drop below 30 beats/s and switches to cheaper encoding algorithms."
    );
}
