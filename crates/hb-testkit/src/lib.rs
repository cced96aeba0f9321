//! # hb-testkit — test equipment for the heartbeat workspace
//!
//! Dev-only support code shared by the workspace's integration tests; a
//! `[dev-dependencies]` entry, never a dependency of anything shipped.
//!
//! * [`faultnet`] — a seeded, deterministic in-process chaos proxy and the
//!   offline byte-stream mangler built on the same fault vocabulary.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod faultnet;

pub use faultnet::{FaultConfig, FaultProxy, FaultStats};
