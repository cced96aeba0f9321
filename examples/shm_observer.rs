//! Cross-process observability: the producer mirrors its heartbeats into a
//! POSIX shared-memory segment (and a log file), and an independent observer
//! attaches to the segment by name — the way the paper's reference
//! implementation exposes heartbeat data to external services.
//!
//! Run with: `cargo run --example shm_observer`

use std::sync::Arc;

use app_heartbeats::heartbeats::{HeartbeatBuilder, ManualClock, Tag};
use app_heartbeats::shm::{FileBackend, FileObserver, ShmBackend, ShmObserver, ShmSegment};

fn main() {
    let shm_name = format!("hb-example-{}", std::process::id());
    let log_path = std::env::temp_dir().join(format!("hb-example-{}.log", std::process::id()));

    // ---- producer side -------------------------------------------------
    let clock = ManualClock::new();
    let hb = HeartbeatBuilder::new("shm-producer")
        .window(20)
        .clock(Arc::new(clock.clone()))
        .backend(Arc::new(
            ShmBackend::create(&shm_name, 4096, 20).expect("shared memory available"),
        ))
        .backend(Arc::new(
            FileBackend::create(&log_path).expect("log file writable"),
        ))
        .build()
        .expect("valid heartbeat configuration");
    hb.set_target_rate(90.0, 110.0).expect("valid target");

    for item in 0..500u64 {
        clock.advance_secs(0.01); // 100 items/s
        hb.heartbeat_tagged(Tag::new(item));
    }
    hb.flush().expect("log flushed");

    // ---- observer side (would normally be a different process) ---------
    let shm = ShmObserver::attach(&shm_name).expect("segment exists");
    println!("-- shared-memory observer --");
    println!("total beats:   {}", shm.total_beats());
    println!("target:        {:?}", shm.target());
    println!("current rate:  {:.1} beats/s", shm.current_rate(0).unwrap());
    println!("last 3 beats:  {:?}", shm.history(3));

    let file = FileObserver::new(&log_path);
    println!("\n-- file-log observer --");
    println!("total beats:   {}", file.total_beats());
    println!("target:        {:?}", file.target());
    println!(
        "current rate:  {:.1} beats/s",
        file.current_rate(20).unwrap()
    );

    // Clean up the named resources created by the example.
    ShmSegment::unlink(&shm_name).ok();
    std::fs::remove_file(&log_path).ok();
}
