//! Quickstart: instrument a loop with Application Heartbeats, declare a goal,
//! and observe progress from both inside and outside the "application".
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use app_heartbeats::heartbeats::{
    HealthStatus, HeartbeatBuilder, ManualClock, Registry, Tag, TargetStatus,
};

fn main() {
    // A virtual clock makes the example deterministic; real applications
    // simply omit `.clock(...)` and get wall-clock time.
    let clock = ManualClock::new();
    let registry = Registry::new();

    // HB_initialize: default window of 20 beats, discoverable by name.
    let hb = HeartbeatBuilder::new("quickstart-worker")
        .window(20)
        .clock(Arc::new(clock.clone()))
        .register_in(&registry)
        .build()
        .expect("valid heartbeat configuration");

    // HB_set_target_rate: we want 40-60 items per second.
    hb.set_target_rate(40.0, 60.0).expect("valid target");

    // An external observer attaches through the registry, exactly like the
    // paper's OS-level scheduler would.
    let observer = registry.attach("quickstart-worker").expect("registered");

    // The "application": three phases with different per-item costs.
    let phases = [(100u64, 0.030_f64), (100, 0.012), (100, 0.050)];
    for (phase, &(items, seconds_per_item)) in phases.iter().enumerate() {
        for item in 0..items {
            clock.advance_secs(seconds_per_item); // ... do one unit of work ...
            hb.heartbeat_tagged(Tag::new(item)); // HB_heartbeat
        }
        let rate = hb.current_rate(0).unwrap(); // HB_current_rate(default window)
        let verdict = match hb.target_status(0) {
            TargetStatus::BelowTarget => "below target  -> need more resources or less work",
            TargetStatus::WithinTarget => "within target -> all good",
            TargetStatus::AboveTarget => "above target  -> could release resources",
            TargetStatus::NoTarget => "no target set",
        };
        println!("phase {phase}: {rate:6.1} beats/s  {verdict}");
    }

    // The external observer sees the same information without touching the
    // application: rate, history, goals and liveness.
    println!("\n-- external observer --");
    println!("total beats:        {}", observer.total_beats());
    println!(
        "lifetime average:   {:.1} beats/s",
        observer.global_average_rate().unwrap()
    );
    println!(
        "declared goal:      {:?} beats/s",
        observer.target().expect("goal was declared")
    );
    let last = observer.history(3);
    println!("last 3 heartbeats:  {last:?}");
    let health = observer.health(1_000_000_000);
    assert_eq!(health, HealthStatus::Alive);
    println!("health:             {health:?}");
}
