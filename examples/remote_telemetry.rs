//! Remote telemetry end to end: N simulated services mirror their heartbeat
//! streams over TCP to one collector daemon; a remote observer reads every
//! service's rate and goals off the collector, and a control loop drives one
//! service back into its declared performance window — all without touching
//! the producing threads.
//!
//! Run with: `cargo run --example remote_telemetry`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use app_heartbeats::control::{RateMonitor, StepController};
use app_heartbeats::heartbeats::{Backend, HeartbeatBuilder};
use app_heartbeats::net::{Collector, RemoteReader, TcpBackend, TcpBackendConfig};
use app_heartbeats::prelude::Controller;

/// One simulated service: beats on every "request served". Its service rate
/// is `workers * RATE_PER_WORKER`, so adding workers is the actuator.
struct Service {
    name: &'static str,
    workers: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

const RATE_PER_WORKER: f64 = 40.0; // requests/s each worker can serve

impl Service {
    fn spawn(name: &'static str, ingest: String, workers: u64, target: Option<(f64, f64)>) -> Self {
        let workers = Arc::new(AtomicU64::new(workers));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let workers = Arc::clone(&workers);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let backend = Arc::new(TcpBackend::with_config(
                    ingest,
                    name,
                    TcpBackendConfig {
                        default_window: 20,
                        ..TcpBackendConfig::default()
                    },
                ));
                let hb = HeartbeatBuilder::new(name)
                    .window(20)
                    .backend(Arc::clone(&backend) as Arc<dyn Backend>)
                    .build()
                    .expect("valid heartbeat config");
                if let Some((min, max)) = target {
                    hb.set_target_rate(min, max).expect("valid target");
                }
                while !stop.load(Ordering::Relaxed) {
                    let rate = workers.load(Ordering::Relaxed) as f64 * RATE_PER_WORKER;
                    std::thread::sleep(Duration::from_secs_f64(1.0 / rate));
                    hb.heartbeat();
                }
                hb.flush().ok();
            })
        };
        Service {
            name,
            workers,
            stop,
            thread: Some(thread),
        }
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("service thread");
        }
    }
}

fn main() {
    // The collector daemon (in production: `hb-collector` on another host).
    let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").expect("bind collector");
    let ingest = collector.ingest_addr().to_string();
    println!(
        "collector up: ingest={} query={}\n",
        collector.ingest_addr(),
        collector.query_addr()
    );

    // Three services. `search` starts undersized for its 180-220 req/s goal;
    // the other two are steady background tenants without goals.
    let mut services = vec![
        Service::spawn("search", ingest.clone(), 2, Some((180.0, 220.0))),
        Service::spawn("thumbnails", ingest.clone(), 1, None),
        Service::spawn("checkout", ingest, 3, None),
    ];

    // The remote observer: a reader over the query port, plus a step
    // controller that scales `search` workers from the collector's view.
    let reader =
        Arc::new(RemoteReader::connect(collector.query_addr().to_string()).expect("connect"));
    let mut monitor = RateMonitor::new(reader.app("search")).with_check_every(20);
    let mut controller = StepController::default();

    println!(
        "{:>4}  {:<12} {:>12}  {:>14}  {:>8}",
        "tick", "service", "rate (b/s)", "target", "workers"
    );
    for tick in 1..=20 {
        std::thread::sleep(Duration::from_millis(150));

        // Control loop for `search`, fed entirely by remote observations.
        if let Some(obs) = monitor.poll() {
            if let (Some(rate), Some(target)) = (obs.rate_bps, obs.target) {
                let level = services[0].workers.load(Ordering::Relaxed) as f64;
                let desired = controller.desired_level(rate, target, level).round().max(1.0);
                if (desired - level).abs() >= 1.0 {
                    services[0].workers.store(desired as u64, Ordering::Relaxed);
                }
            }
        }

        if tick % 5 == 0 {
            for service in &services {
                let snap = reader
                    .snapshot(service.name)
                    .ok()
                    .flatten()
                    .expect("service registered");
                let rate = snap
                    .rate_bps
                    .map(|r| format!("{r:.1}"))
                    .unwrap_or_else(|| "n/a".into());
                let target = snap
                    .target
                    .map(|(min, max)| format!("[{min:.0}, {max:.0}]"))
                    .unwrap_or_else(|| "unset".into());
                println!(
                    "{tick:>4}  {:<12} {rate:>12}  {target:>14}  {:>8}",
                    service.name,
                    service.workers.load(Ordering::Relaxed)
                );
            }
        }
    }

    // Final state, straight from the Prometheus export.
    println!("\nPrometheus export (excerpt):");
    for line in reader
        .metrics()
        .expect("metrics")
        .lines()
        .filter(|l| l.starts_with("hb_app_rate_bps") || l.starts_with("hb_app_target"))
    {
        println!("  {line}");
    }

    let final_rate = reader
        .snapshot("search")
        .ok()
        .flatten()
        .and_then(|s| s.rate_bps)
        .unwrap_or(0.0);
    println!(
        "\nsearch settled at {final_rate:.1} req/s with {} workers (goal 180-220)",
        services[0].workers.load(Ordering::Relaxed)
    );

    for service in &mut services {
        service.stop();
    }
}
