//! # app-heartbeats — Application Heartbeats for software performance and health
//!
//! A Rust reproduction of *Application Heartbeats for Software Performance
//! and Health* (Hoffmann, Eastep, Santambrogio, Miller, Agarwal — MIT CSAIL,
//! PPoPP 2010): a simple, standardized API applications use to express their
//! performance goals and signal their progress, plus everything the paper's
//! evaluation builds on top of it — external observability backends, an
//! adaptive video encoder, an external core scheduler, a PARSEC-like workload
//! suite and a deterministic simulated machine.
//!
//! This facade crate re-exports the workspace members so downstream users can
//! depend on a single crate:
//!
//! | Module | Crate | What it provides |
//! |--------|-------|------------------|
//! | [`heartbeats`] | `heartbeats` | the Heartbeats API (Table 1 of the paper), buffers, windows, targets, registry, C FFI |
//! | [`shm`] | `hb-shm` | file-log and POSIX shared-memory backends for cross-process observers |
//! | [`net`] | `hb-net` | wire protocol, TCP mirroring backend, multi-app collector daemon, remote reader |
//! | [`sim`] | `simcore` | virtual clock, simulated multicore machine, speedup models, series/table containers |
//! | [`workloads`] | `workloads` | the ten Table 2 PARSEC-like workloads and real kernels |
//! | [`control`] | `control` | monitors, step/PI controllers, actuators, control loops |
//! | [`encoder`] | `encoder` | the adaptive H.264-like encoder of Sections 5.2 and 5.4 |
//! | [`scheduler`] | `scheduler` | the external heartbeat-driven core scheduler of Section 5.3 |
//!
//! ## Quick start
//!
//! ```
//! use app_heartbeats::heartbeats::{HeartbeatBuilder, TargetStatus};
//!
//! let hb = HeartbeatBuilder::new("my-service").window(20).build().unwrap();
//! hb.set_target_rate(100.0, 120.0).unwrap();
//! for _request in 0..1_000 {
//!     // ... serve one request ...
//!     hb.heartbeat();
//! }
//! if hb.target_status(0) == TargetStatus::BelowTarget {
//!     // ask for more resources, shed load, or lower quality
//! }
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios
//! (quickstart, adaptive encoder, external scheduler, fault tolerance,
//! cross-process shared-memory observer, multi-application arbitration).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use control;
pub use encoder;
pub use heartbeats;
pub use scheduler;
pub use simcore as sim;
pub use workloads;

/// External observability backends (file log and POSIX shared memory).
pub use hb_shm as shm;

/// Network telemetry: wire protocol, TCP backend, collector daemon, remote
/// reader.
pub use hb_net as net;

/// Most commonly used items across the workspace.
pub mod prelude {
    pub use control::{Controller, PiController, RateMonitor, RateSource, StepController};
    pub use encoder::{AdaptiveEncoder, EncoderConfig, EncoderModel, HbEncoder, VideoTrace};
    pub use hb_net::{Collector, RemoteApp, RemoteReader, Subscription, TcpBackend};
    pub use heartbeats::observe::{
        Interest, Observe, ObserveEvent, ObserveEventKind, ObserveFilter, ObserveStream,
        ObservedHealth, ObservedSnapshot,
    };
    pub use heartbeats::prelude::*;
    pub use heartbeats::HeartbeatBuilder;
    pub use scheduler::{ExternalScheduler, FaultInjector, MultiAppScheduler};
    pub use simcore::{Amdahl, FailurePlan, Machine, PhaseSchedule, SpeedupModel};
    pub use workloads::{parsec, SimWorkload, WorkloadSpec};
}
