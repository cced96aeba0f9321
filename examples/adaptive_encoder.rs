//! The paper's Section 5.2 experiment as a runnable example: a video encoder
//! that watches its own heart rate and trades image quality for speed until
//! it meets its 30 frames-per-second goal.
//!
//! Run with: `cargo run --example adaptive_encoder`

use app_heartbeats::encoder::{AdaptiveEncoder, VideoTrace};
use app_heartbeats::heartbeats::MovingRate;
use app_heartbeats::sim::Machine;

fn main() {
    let machine = Machine::paper_testbed();
    let trace = VideoTrace::demanding_uniform(640, 42);
    let mut encoder = AdaptiveEncoder::paper_configuration(trace, &machine);

    println!(
        "encoding {} frames; goal: >= {} frames/s\n",
        640,
        encoder.target_min_bps()
    );
    println!(
        "{:>6}  {:>10}  {:>8}  config",
        "frame", "rate (f/s)", "ladder"
    );

    let mut moving = MovingRate::new(40);
    while let Some(_frame) = encoder.encode_next(8) {
        let frames = encoder.frames_encoded();
        let rate = moving.push(encoder.heartbeat().last_beat_ns().unwrap());
        if frames.is_multiple_of(80) {
            println!(
                "{frames:>6}  {:>10.1}  {:>8}  {:?}",
                rate.unwrap_or(0.0),
                encoder.level(),
                encoder.config().motion_estimation
            );
        }
    }

    println!("\nadaptation decisions:");
    for adaptation in encoder.adaptations() {
        println!(
            "  frame {:>4}: rate {:>5.1} f/s below goal -> ladder step {} -> {}",
            adaptation.at_frame,
            adaptation.observed_rate_bps,
            adaptation.from_level,
            adaptation.to_level
        );
    }
    println!(
        "\nfinal 40-frame rate: {:.1} f/s (started near 8.8 f/s with the demanding settings)",
        encoder.reader().current_rate(40).unwrap()
    );
}
