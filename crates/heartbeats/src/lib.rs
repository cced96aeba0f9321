//! # Application Heartbeats
//!
//! A Rust implementation of the *Application Heartbeats* framework
//! (Hoffmann, Eastep, Santambrogio, Miller, Agarwal — MIT CSAIL, PPoPP 2010):
//! a simple, standardized API that applications use to signal their progress
//! toward their goals, and that the application itself, the operating system,
//! a runtime, or hardware can query to drive adaptation.
//!
//! The core abstraction is a **heartbeat**: at significant points (a video
//! frame encoded, a query answered, a chunk deduplicated) the application
//! calls [`Heartbeat::heartbeat`]. The intervals between heartbeats yield the
//! **heart rate** (beats per second); the application declares the rate range
//! it needs with [`Heartbeat::set_target_rate`], and observers — in-process
//! via [`HeartbeatReader`]/[`Registry`], cross-process via the file and
//! shared-memory backends in the `hb-shm` crate, across the network via the
//! `hb-net` TCP backend and collector daemon — compare the measured rate
//! to the goal and act.
//!
//! ## Quick start
//!
//! ```
//! use heartbeats::{HeartbeatBuilder, TargetStatus};
//!
//! // HB_initialize(window = 20)
//! let hb = HeartbeatBuilder::new("video-encoder").window(20).build().unwrap();
//! // HB_set_target_rate(30, 35)
//! hb.set_target_rate(30.0, 35.0).unwrap();
//!
//! for _frame in 0..100 {
//!     // ... do one unit of useful work ...
//!     hb.heartbeat();                       // HB_heartbeat
//! }
//!
//! let rate = hb.current_rate(0);            // HB_current_rate(default window)
//! let history = hb.history(10);             // HB_get_history(10)
//! match hb.target_status(0) {
//!     TargetStatus::BelowTarget => { /* switch to a cheaper algorithm */ }
//!     TargetStatus::AboveTarget => { /* raise quality / release resources */ }
//!     _ => {}
//! }
//! # let _ = (rate, history);
//! ```
//!
//! ## Crate map
//!
//! * [`Heartbeat`] / [`HeartbeatBuilder`] — producer API (Table 1 of the paper).
//! * [`HeartbeatReader`] — read-only observer handle.
//! * [`observe`] — the unified [`Observe`] trait (snapshot / health / push
//!   subscriptions), implemented by every observer path so consumers run
//!   unchanged over in-process, shared-memory, and network transports.
//! * [`Registry`] — in-process discovery of heartbeat-enabled applications.
//! * [`record`], [`window`], [`stats`] — records, windowed-rate estimation,
//!   summary statistics.
//! * [`buffer`] — mutex-based and lock-free circular history buffers.
//! * [`backend`] — mirroring hooks used by external-observer backends, with
//!   uniform backpressure counters ([`BackendStats`]). Three observer paths
//!   build on it: in-process ([`HeartbeatReader`]), same-host cross-process
//!   (`hb-shm` file/shared-memory mirrors) and across the network (`hb-net`
//!   TCP backend → collector daemon → remote reader).
//! * [`ffi`] — C ABI mirroring the original C reference implementation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod backend;
pub mod buffer;
pub mod builder;
pub mod clock;
mod error;
pub mod ffi;
mod heartbeat;
pub mod observe;
mod reader;
pub mod record;
mod registry;
pub mod stats;
pub mod target;
pub mod window;

pub use analysis::{check_sequence, IntervalHistogram, SequenceReport};
pub use backend::{Backend, BackendStats, BeatScope, MemoryBackend, NullBackend};
pub use buffer::{AtomicRing, HistoryBuffer, MutexRing, DEFAULT_CAPACITY};
pub use builder::{HeartbeatBuilder, DEFAULT_WINDOW};
pub use clock::{Clock, ManualClock, MonotonicClock, SharedClock};
pub use error::{HeartbeatError, Result};
pub use heartbeat::{current_thread_id, BufferKind, Heartbeat};
pub use observe::{
    Interest, Observe, ObserveError, ObserveEvent, ObserveEventKind, ObserveFilter, ObserveStream,
    ObservedBeat, ObservedHealth, ObservedSnapshot,
};
pub use reader::{HealthStatus, HeartbeatReader};
pub use record::{BeatThreadId, HeartbeatRecord, Tag};
pub use registry::Registry;
pub use target::{TargetRate, TargetStatus, UNSET_TARGET};
pub use window::{MovingRate, WindowStats};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::backend::{Backend, BackendStats, BeatScope};
    pub use crate::builder::HeartbeatBuilder;
    pub use crate::clock::{Clock, ManualClock, MonotonicClock};
    pub use crate::heartbeat::Heartbeat;
    pub use crate::observe::{
        Interest, Observe, ObserveEvent, ObserveEventKind, ObserveFilter, ObservedHealth,
    };
    pub use crate::reader::{HealthStatus, HeartbeatReader};
    pub use crate::record::{BeatThreadId, HeartbeatRecord, Tag};
    pub use crate::registry::Registry;
    pub use crate::target::TargetStatus;
    pub use crate::window::MovingRate;
}
