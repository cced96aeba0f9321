//! Mirroring backends.
//!
//! Every heartbeat is always recorded in the in-memory history buffers; a
//! [`Backend`] additionally mirrors the stream somewhere an *external*
//! observer can reach it — a file (the paper's reference implementation
//! writes one record per line to a per-application file) or a shared-memory
//! segment (`hb-shm` crate). Backends also receive target-rate changes so an
//! external scheduler can read the application's goals.

use crate::record::HeartbeatRecord;
use crate::Result;

/// Whether a mirrored beat was a global (per-application) or local
/// (per-thread) heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeatScope {
    /// Counted against the application-wide history.
    Global,
    /// Counted only against the issuing thread's private history.
    Local,
}

/// Mirroring counters exposed uniformly by every backend.
///
/// Backends must never block or fail the application's hot path, which means
/// a slow or broken medium (full disk, dead collector, bounded queue) forces
/// them to shed beats instead. These counters make that backpressure
/// observable the same way across the file, shared-memory, in-memory and
/// network backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Beats successfully handed to the underlying medium.
    pub mirrored: u64,
    /// Beats discarded because the medium could not keep up (bounded queue
    /// overflow, failed write, dead connection).
    pub dropped: u64,
}

impl BackendStats {
    /// Total beats offered to the backend (mirrored + dropped).
    pub fn offered(&self) -> u64 {
        self.mirrored + self.dropped
    }
}

/// A sink that mirrors heartbeat activity for external observers.
///
/// Implementations must be cheap: `on_beat` is called from the application's
/// hot path. Backends that perform I/O should buffer internally and expose
/// [`Backend::flush`].
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Called for every heartbeat after it has been recorded in memory.
    fn on_beat(&self, app: &str, record: &HeartbeatRecord, scope: BeatScope);

    /// Called when the application changes its target heart-rate range.
    fn on_target_change(&self, _app: &str, _min_bps: f64, _max_bps: f64) {}

    /// Flushes any buffered state to the underlying medium.
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Mirroring counters. Backends that cannot drop report the default
    /// (all zeros with `mirrored` tracking beats if they count them).
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }

    /// Beats this backend has discarded under backpressure. Shorthand for
    /// `stats().dropped`.
    fn dropped(&self) -> u64 {
        self.stats().dropped
    }
}

/// A backend that discards everything. Useful as a placeholder and in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBackend;

impl Backend for NullBackend {
    fn on_beat(&self, _app: &str, _record: &HeartbeatRecord, _scope: BeatScope) {}
}

/// A backend that stores mirrored events in memory. Primarily used in tests
/// and by in-process observers that want the full uncompacted stream.
///
/// By default the stream is unbounded; [`MemoryBackend::with_capacity`]
/// bounds it, dropping the oldest events and counting the drops, which gives
/// tests a deterministic stand-in for the backpressure behaviour of the I/O
/// backends.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    events: std::sync::Mutex<std::collections::VecDeque<MirroredBeat>>,
    targets: std::sync::Mutex<Vec<(String, f64, f64)>>,
    capacity: Option<usize>,
    mirrored: std::sync::atomic::AtomicU64,
    dropped: std::sync::atomic::AtomicU64,
}

/// A mirrored heartbeat as captured by [`MemoryBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirroredBeat {
    /// Application name the beat belongs to.
    pub app: String,
    /// The heartbeat record.
    pub record: HeartbeatRecord,
    /// Global or local.
    pub scope: BeatScope,
}

impl MemoryBackend {
    /// Creates an empty, unbounded memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory backend retaining at most `capacity` beats; older
    /// beats are dropped (and counted) once the bound is reached.
    pub fn with_capacity(capacity: usize) -> Self {
        MemoryBackend {
            capacity: Some(capacity.max(1)),
            ..Self::default()
        }
    }

    /// Number of mirrored beats.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if no beats were mirrored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a copy of all mirrored beats, oldest first.
    pub fn beats(&self) -> Vec<MirroredBeat> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Returns all recorded target changes as `(app, min, max)` tuples.
    pub fn target_changes(&self) -> Vec<(String, f64, f64)> {
        self.targets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl Backend for MemoryBackend {
    fn on_beat(&self, app: &str, record: &HeartbeatRecord, scope: BeatScope) {
        use std::sync::atomic::Ordering;
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(capacity) = self.capacity {
            if events.len() >= capacity {
                events.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        events.push_back(MirroredBeat {
            app: app.to_string(),
            record: *record,
            scope,
        });
        self.mirrored.fetch_add(1, Ordering::Relaxed);
    }

    fn on_target_change(&self, app: &str, min_bps: f64, max_bps: f64) {
        self.targets
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((app.to_string(), min_bps, max_bps));
    }

    fn stats(&self) -> BackendStats {
        use std::sync::atomic::Ordering;
        let dropped = self.dropped.load(Ordering::Relaxed);
        BackendStats {
            mirrored: self.mirrored.load(Ordering::Relaxed) - dropped,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BeatThreadId, Tag};

    fn record(seq: u64) -> HeartbeatRecord {
        HeartbeatRecord::new(seq, seq * 10, Tag::new(seq), BeatThreadId(0))
    }

    #[test]
    fn null_backend_accepts_everything() {
        let backend = NullBackend;
        backend.on_beat("app", &record(0), BeatScope::Global);
        backend.on_target_change("app", 1.0, 2.0);
        assert!(backend.flush().is_ok());
    }

    #[test]
    fn memory_backend_records_beats_in_order() {
        let backend = MemoryBackend::new();
        assert!(backend.is_empty());
        backend.on_beat("x264", &record(0), BeatScope::Global);
        backend.on_beat("x264", &record(1), BeatScope::Local);
        assert_eq!(backend.len(), 2);
        let beats = backend.beats();
        assert_eq!(beats[0].record.seq, 0);
        assert_eq!(beats[0].scope, BeatScope::Global);
        assert_eq!(beats[1].scope, BeatScope::Local);
        assert_eq!(beats[1].app, "x264");
    }

    #[test]
    fn memory_backend_records_target_changes() {
        let backend = MemoryBackend::new();
        backend.on_target_change("bodytrack", 2.5, 3.5);
        backend.on_target_change("bodytrack", 3.0, 4.0);
        let targets = backend.target_changes();
        assert_eq!(targets.len(), 2);
        assert_eq!(targets[0], ("bodytrack".to_string(), 2.5, 3.5));
        assert_eq!(targets[1].1, 3.0);
    }

    #[test]
    fn memory_backend_flush_is_ok() {
        assert!(MemoryBackend::new().flush().is_ok());
    }

    #[test]
    fn unbounded_memory_backend_never_drops() {
        let backend = MemoryBackend::new();
        for i in 0..100 {
            backend.on_beat("app", &record(i), BeatScope::Global);
        }
        assert_eq!(
            backend.stats(),
            BackendStats {
                mirrored: 100,
                dropped: 0
            }
        );
        assert_eq!(backend.dropped(), 0);
    }

    #[test]
    fn bounded_memory_backend_drops_oldest_and_counts() {
        let backend = MemoryBackend::with_capacity(8);
        for i in 0..20 {
            backend.on_beat("app", &record(i), BeatScope::Global);
        }
        assert_eq!(backend.len(), 8);
        let beats = backend.beats();
        assert_eq!(beats.first().unwrap().record.seq, 12, "oldest were shed");
        assert_eq!(beats.last().unwrap().record.seq, 19);
        let stats = backend.stats();
        assert_eq!(stats.dropped, 12);
        assert_eq!(stats.mirrored, 8);
        assert_eq!(stats.offered(), 20);
        assert_eq!(backend.dropped(), 12);
    }

    #[test]
    fn null_backend_reports_zero_stats() {
        let backend = NullBackend;
        backend.on_beat("app", &record(0), BeatScope::Global);
        assert_eq!(backend.stats(), BackendStats::default());
        assert_eq!(backend.dropped(), 0);
    }
}
