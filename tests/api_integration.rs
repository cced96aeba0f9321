//! Cross-crate integration tests: the Heartbeats API observed through the
//! registry, the file backend and the shared-memory backend at the same time,
//! plus the control-loop machinery reacting to the same stream.

use std::sync::Arc;

use app_heartbeats::control::{Actuator, ControlLoop, Controller};
use app_heartbeats::control::{DiscreteActuator, PiController, RateMonitor, StepController};
use app_heartbeats::heartbeats::{
    BeatScope, HeartbeatBuilder, ManualClock, Registry, Tag, TargetStatus,
};
use app_heartbeats::shm::{FileBackend, FileObserver, ShmBackend, ShmObserver, ShmSegment};

fn unique(tag: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "hb-int-{}-{}-{}",
        std::process::id(),
        tag,
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

#[test]
fn one_producer_three_observers_agree() {
    let shm_name = unique("agree");
    let log_path = std::env::temp_dir().join(format!("{}.log", unique("agree-log")));

    let clock = ManualClock::new();
    let registry = Registry::new();
    let hb = HeartbeatBuilder::new("triple-observed")
        .window(10)
        .clock(Arc::new(clock.clone()))
        .backend(Arc::new(ShmBackend::create(&shm_name, 1024, 10).unwrap()))
        .backend(Arc::new(FileBackend::create(&log_path).unwrap()))
        .register_in(&registry)
        .build()
        .unwrap();
    hb.set_target_rate(8.0, 12.0).unwrap();

    for i in 0..200u64 {
        clock.advance_secs(0.1); // 10 beats/s
        hb.heartbeat_tagged(Tag::new(i));
    }
    hb.flush().unwrap();

    // In-process observer via the registry.
    let reader = registry.attach("triple-observed").unwrap();
    assert_eq!(reader.total_beats(), 200);
    assert!((reader.current_rate(0).unwrap() - 10.0).abs() < 1e-6);
    assert_eq!(reader.target_status(0), TargetStatus::WithinTarget);

    // Cross-process observer via shared memory.
    let shm = ShmObserver::attach(&shm_name).unwrap();
    assert_eq!(shm.total_beats(), 200);
    assert!((shm.current_rate(0).unwrap() - 10.0).abs() < 1e-6);
    assert_eq!(shm.target(), Some((8.0, 12.0)));

    // Cross-process observer via the log file.
    let file = FileObserver::new(&log_path);
    assert_eq!(file.total_beats(), 200);
    assert!((file.current_rate(10).unwrap() - 10.0).abs() < 1e-6);
    assert_eq!(file.target(), Some((8.0, 12.0)));

    // All three report the same most-recent tag.
    let expected_tag = Tag::new(199);
    assert_eq!(reader.history(1)[0].tag, expected_tag);
    assert_eq!(shm.history(1)[0].tag, expected_tag);
    assert_eq!(file.history(1)[0].tag, expected_tag);

    ShmSegment::unlink(&shm_name).unwrap();
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn local_beats_stay_out_of_global_observers() {
    let shm_name = unique("local");
    let clock = ManualClock::new();
    let hb = HeartbeatBuilder::new("local-vs-global")
        .window(5)
        .clock(Arc::new(clock.clone()))
        .backend(Arc::new(ShmBackend::create(&shm_name, 64, 5).unwrap()))
        .build()
        .unwrap();

    clock.advance_secs(0.1);
    hb.beat(Tag::new(1), BeatScope::Global);
    clock.advance_secs(0.1);
    hb.beat(Tag::new(2), BeatScope::Local);

    assert_eq!(hb.total_beats(), 1);
    assert_eq!(hb.total_local_beats(), 1);
    let shm = ShmObserver::attach(&shm_name).unwrap();
    assert_eq!(
        shm.total_beats(),
        1,
        "local beats must not be mirrored globally"
    );
    ShmSegment::unlink(&shm_name).unwrap();
}

#[test]
fn control_loop_drives_a_registered_application_to_its_goal() {
    // A full observe -> decide -> act loop built only from public APIs:
    // the "application" beats at 4 beats/s per allocated core and wants 30-38.
    let clock = ManualClock::new();
    let registry = Registry::new();
    let hb = HeartbeatBuilder::new("controlled-app")
        .window(10)
        .clock(Arc::new(clock.clone()))
        .register_in(&registry)
        .build()
        .unwrap();
    hb.set_target_rate(30.0, 38.0).unwrap();

    let monitor = RateMonitor::new(registry.attach("controlled-app").unwrap()).with_check_every(10);
    let mut control = ControlLoop::new(
        monitor,
        StepController::new(),
        DiscreteActuator::new(1, 16, 1),
    );

    for _ in 0..600 {
        let cores = control.level();
        let rate = 4.0 * cores;
        clock.advance_secs(1.0 / rate);
        hb.heartbeat();
        control.tick();
    }
    let final_rate = 4.0 * control.level();
    assert!(
        (30.0..=38.0).contains(&final_rate),
        "control loop failed to converge: {final_rate}"
    );
    assert!(control.events().iter().any(|e| e.changed()));
}

#[test]
fn step_and_pi_controllers_agree_on_steady_state() {
    // Both controller policies must end up with a level whose rate is inside
    // the target window on the same linear plant.
    let target = (30.0, 35.0);
    let plant = |level: f64| 5.0 * level;

    let run = |controller: &mut dyn Controller| {
        let mut level = 1.0f64;
        for _ in 0..60 {
            let rate = plant(level);
            level = controller
                .desired_level(rate, target, level)
                .clamp(1.0, 8.0);
        }
        plant(level)
    };
    let mut step = StepController::new();
    let mut pi = PiController::default_gains();
    let step_rate = run(&mut step);
    let pi_rate = run(&mut pi);
    assert!(
        (target.0..=target.1).contains(&step_rate),
        "step: {step_rate}"
    );
    assert!((target.0..=target.1).contains(&pi_rate), "pi: {pi_rate}");
}

#[test]
fn actuator_saturation_is_visible_to_callers() {
    let mut actuator = DiscreteActuator::new(1, 4, 1);
    assert!(actuator.saturated_low());
    actuator.apply(10.0);
    assert!(actuator.saturated_high());
    assert_eq!(actuator.value(), 4);
}

#[test]
fn heartbeats_from_many_threads_are_all_observed() {
    let registry = Registry::new();
    let hb = HeartbeatBuilder::new("threaded")
        .window(100)
        .capacity(1 << 14)
        .register_in(&registry)
        .build()
        .unwrap();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let hb = hb.clone();
            std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    hb.heartbeat_tagged(Tag::new(t * 10_000 + i));
                    hb.heartbeat_local(Tag::new(i));
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    let reader = registry.attach("threaded").unwrap();
    assert_eq!(reader.total_beats(), 8_000);
    assert_eq!(reader.local_threads().len(), 8);
    for thread in reader.local_threads() {
        assert_eq!(reader.history_of_thread(thread, 10_000).len(), 1_000);
    }
}
