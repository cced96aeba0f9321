//! Construction of [`Heartbeat`] producers — the Rust analogue of
//! `HB_initialize(window, local)`.

use std::sync::{Arc, RwLock};

use crate::backend::Backend;
use crate::buffer::DEFAULT_CAPACITY;
use crate::clock::{self, SharedClock};
use crate::heartbeat::{BufferKind, Heartbeat, Shared};
use crate::registry::Registry;
use crate::target::TargetRate;
use crate::{HeartbeatError, Result};

/// Default window (in beats) used when the application does not specify one.
pub const DEFAULT_WINDOW: usize = 20;

/// Builder for a [`Heartbeat`].
///
/// ```
/// use heartbeats::HeartbeatBuilder;
///
/// let hb = HeartbeatBuilder::new("my-app")
///     .window(40)           // default window for HB_current_rate(0)
///     .capacity(1 << 12)    // history retained per buffer
///     .target(30.0, 35.0)   // optional initial goal
///     .build()
///     .unwrap();
/// assert_eq!(hb.default_window(), 40);
/// ```
#[derive(Debug)]
pub struct HeartbeatBuilder<'r> {
    name: String,
    window: usize,
    capacity: usize,
    buffer_kind: BufferKind,
    clock: Option<SharedClock>,
    backends: Vec<Arc<dyn Backend>>,
    target: Option<(f64, f64)>,
    registry: Option<&'r Registry>,
}

impl<'r> HeartbeatBuilder<'r> {
    /// Starts building a heartbeat for the application called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        HeartbeatBuilder {
            name: name.into(),
            window: DEFAULT_WINDOW,
            capacity: DEFAULT_CAPACITY,
            buffer_kind: BufferKind::default(),
            clock: None,
            backends: Vec::new(),
            target: None,
            registry: None,
        }
    }

    /// Sets the default window (in beats) used by `current_rate(0)`.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets how many records each history buffer retains.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Chooses the ring-buffer implementation.
    pub fn buffer_kind(mut self, kind: BufferKind) -> Self {
        self.buffer_kind = kind;
        self
    }

    /// Uses a custom clock (e.g. a [`ManualClock`](crate::ManualClock) for
    /// deterministic simulation). Defaults to a monotonic wall clock.
    pub fn clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a mirroring backend from the start.
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backends.push(backend);
        self
    }

    /// Declares an initial target heart-rate range.
    pub fn target(mut self, min_bps: f64, max_bps: f64) -> Self {
        self.target = Some((min_bps, max_bps));
        self
    }

    /// Registers the heartbeat in the process-global [`Registry`] so external
    /// observers can discover it by name.
    pub fn register(self) -> Self {
        self.register_in(Registry::global())
    }

    /// Registers the heartbeat in a specific registry (used by simulations
    /// that host several "machines", and by tests).
    pub fn register_in(mut self, registry: &'r Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the heartbeat, validating the configuration.
    pub fn build(self) -> Result<Heartbeat> {
        if self.name.is_empty() {
            return Err(HeartbeatError::InvalidConfig(
                "application name must not be empty".into(),
            ));
        }
        if self.window < 2 {
            return Err(HeartbeatError::InvalidConfig(format!(
                "window must be at least 2 beats (got {})",
                self.window
            )));
        }
        if self.capacity == 0 {
            return Err(HeartbeatError::InvalidConfig(
                "buffer capacity must be at least 1".into(),
            ));
        }
        if self.capacity < self.window {
            return Err(HeartbeatError::InvalidConfig(format!(
                "buffer capacity ({}) must be able to hold the default window ({})",
                self.capacity, self.window
            )));
        }
        let target = TargetRate::unset();
        if let Some((min, max)) = self.target {
            target.set(min, max)?;
        }
        let clock = self.clock.unwrap_or_else(clock::monotonic);
        let shared = Arc::new(Shared {
            name: self.name,
            clock,
            global: self.buffer_kind.build(self.capacity),
            locals: RwLock::new(Default::default()),
            default_window: self.window,
            buffer_capacity: self.capacity,
            buffer_kind: self.buffer_kind,
            target,
            backends: RwLock::new(self.backends),
            // Epoch 1 vs. the cache's initial 0 forces every thread's first
            // beat to snapshot the backend list.
            backends_epoch: std::sync::atomic::AtomicU64::new(1),
            instance_id: Shared::next_instance_id(),
        });
        if let Some(registry) = self.registry {
            registry.insert(Arc::clone(&shared))?;
        }
        Ok(Heartbeat::from_shared(shared))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::clock::ManualClock;

    #[test]
    fn default_builder_builds() {
        let hb = HeartbeatBuilder::new("app").build().unwrap();
        assert_eq!(hb.name(), "app");
        assert_eq!(hb.default_window(), DEFAULT_WINDOW);
        assert_eq!(hb.buffer_capacity(), DEFAULT_CAPACITY);
        assert!(hb.target().is_none());
    }

    #[test]
    fn empty_name_is_rejected() {
        assert!(matches!(
            HeartbeatBuilder::new("").build(),
            Err(HeartbeatError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tiny_window_is_rejected() {
        assert!(HeartbeatBuilder::new("a").window(1).build().is_err());
        assert!(HeartbeatBuilder::new("a").window(0).build().is_err());
        assert!(HeartbeatBuilder::new("a").window(2).build().is_ok());
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(HeartbeatBuilder::new("a").capacity(0).build().is_err());
    }

    #[test]
    fn capacity_smaller_than_window_is_rejected() {
        assert!(HeartbeatBuilder::new("a")
            .window(100)
            .capacity(50)
            .build()
            .is_err());
    }

    #[test]
    fn initial_target_is_applied_and_validated() {
        let hb = HeartbeatBuilder::new("a")
            .target(5.0, 10.0)
            .build()
            .unwrap();
        assert_eq!(hb.target(), Some((5.0, 10.0)));
        assert!(HeartbeatBuilder::new("b")
            .target(10.0, 5.0)
            .build()
            .is_err());
    }

    #[test]
    fn initial_backend_receives_beats() {
        let probe = Arc::new(MemoryBackend::new());
        let clock = ManualClock::new();
        let hb = HeartbeatBuilder::new("a")
            .backend(probe.clone())
            .clock(Arc::new(clock.clone()))
            .build()
            .unwrap();
        clock.advance_ns(1);
        hb.heartbeat();
        assert_eq!(probe.len(), 1);
    }

    #[test]
    fn custom_window_and_capacity_are_used() {
        let hb = HeartbeatBuilder::new("a")
            .window(7)
            .capacity(128)
            .build()
            .unwrap();
        assert_eq!(hb.default_window(), 7);
        assert_eq!(hb.buffer_capacity(), 128);
    }
}
