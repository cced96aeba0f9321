//! # hb-net — remote heartbeat telemetry
//!
//! The Application Heartbeats paper designs its API so that *external*
//! observers — the OS, a runtime, another machine — can read an
//! application's progress and goals. The sibling crates cover the same-host
//! cases (in-process readers, `hb-shm` file/shared-memory mirrors); this
//! crate takes the final step and ships heartbeat streams **off-box**:
//!
//! * [`wire`] — a compact binary wire protocol (length-prefixed,
//!   CRC-checked frames, one version) for heartbeat batches, target-rate
//!   changes and application hello/goodbye. Batches ship as delta/varint
//!   records (~5–7 bytes per beat) and decode through the zero-allocation
//!   [`wire::BeatsView`] iterator.
//! * [`frame`] — [`FrameDecoder`], the one frame parser: fed fragments by
//!   a reactor connection (its [`frame::FrameEvent`]s borrow beat payloads
//!   in place) or reading a blocking socket up to a deadline.
//! * [`TcpBackend`] — a [`heartbeats::Backend`] that buffers beats in a
//!   bounded queue and ships batches from a background flusher thread. The
//!   `on_beat` hot path never blocks: when the collector is slow or down the
//!   oldest queued beats are shed and counted (`Backend::stats`).
//! * [`Collector`] — a daemon accepting many concurrent producers,
//!   maintaining a sharded per-app registry of windowed rates
//!   (server-side [`heartbeats::MovingRate`]) and goals, and serving a
//!   query port.
//! * [`query`] — the query plane behind that port: each question is
//!   answered once from a typed reply and rendered twice, as binary frames
//!   for [`RemoteReader`] and as a line protocol for humans and `nc`
//!   (including the Prometheus-style text export).
//! * [`RemoteReader`] / [`RemoteApp`] — the observer-side client;
//!   `RemoteApp` implements [`heartbeats::Observe`] (which carries blanket
//!   `control::RateSource`/`HealthSource` impls) so a
//!   [`control::ControlLoop`] can drive adaptation from a collector instead
//!   of a local reader — polling, or consuming **pushed** events through
//!   [`RemoteReader::subscribe`] / the [`subscribe`] fan-out plane
//!   (collector-side subscription registry, bounded per-subscriber queues,
//!   ingest-time health transitions; see `docs/OBSERVERS.md`).
//! * [`telemetry`] — the collector watching itself: per-stage latency
//!   histograms, per-reactor-thread utilization, and a lock-free journal of
//!   recent events behind the [`log!`] macro (see `docs/TELEMETRY.md`).
//!
//! ## End-to-end sketch
//!
//! ```no_run
//! use std::sync::Arc;
//! use hb_net::{Collector, RemoteReader, TcpBackend};
//! use heartbeats::HeartbeatBuilder;
//!
//! // Somewhere on the network: the collector daemon.
//! let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
//!
//! // In the application: mirror beats to the collector.
//! let backend = Arc::new(TcpBackend::new(
//!     collector.ingest_addr().to_string(),
//!     "video-encoder",
//! ));
//! let hb = HeartbeatBuilder::new("video-encoder")
//!     .backend(backend)
//!     .build()
//!     .unwrap();
//! hb.set_target_rate(30.0, 35.0).unwrap();
//! hb.heartbeat();
//!
//! // In the observer: read progress and goals remotely.
//! let reader = Arc::new(RemoteReader::connect(collector.query_addr().to_string()).unwrap());
//! let app = reader.app("video-encoder");
//! # let _ = app;
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auth;
pub mod backend;
pub mod client;
pub mod collector;
pub mod crc;
mod error;
mod federation;
pub mod frame;
pub mod health;
pub mod query;
pub mod reactor;
pub mod subscribe;
pub mod telemetry;
pub mod upstream;
pub mod wire;

pub use auth::{hmac_sha256, sha256};
pub use backend::{TcpBackend, TcpBackendConfig};
pub use client::{RemoteApp, RemoteReader, Subscription};
pub use collector::{
    AppSnapshot, Collector, CollectorConfig, CollectorState, OriginRollup, OriginSnapshot,
    UplinkRejectReason,
};
pub use error::{NetError, Result};
pub use frame::FrameDecoder;
pub use health::{
    HealthConfig, HealthReason, HealthReport, HealthStatus, HistoryRing, HistorySample,
};
pub use query::{CollectorStats, UplinkStats};
pub use reactor::{Reactor, ReactorConfig};
pub use subscribe::{LocalSubscription, SubscriptionRegistry};
pub use telemetry::{
    HistoSnapshot, Journal, JournalEntry, LatencyHisto, Level, PipelineTelemetry, ReactorThreads,
    ThreadStats, ThreadStatsSnapshot,
};
pub use upstream::{UpstreamConfig, UpstreamRelay, UpstreamStats, UpstreamTap};
pub use wire::{
    BatchEncoder, BeatBatch, EventFrame, EventPayload, Frame, HealthFrame, Hello, HistoryChunk,
    SubStatus, SubscribeReq, WireBeat,
};
