//! Time sources for the Heartbeats framework.
//!
//! Every [`Heartbeat`](crate::Heartbeat) is parameterized by a [`Clock`]. The
//! production clock is [`MonotonicClock`] (a thin wrapper around
//! [`std::time::Instant`]); the [`ManualClock`] is a shared, atomically
//! advanced virtual clock used by the simulation substrate and by tests so
//! that every experiment in the paper can be reproduced deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond time source.
///
/// Implementations must be cheap to query and monotonically non-decreasing
/// from the point of view of a single thread. Cross-thread monotonicity is
/// provided by both built-in clocks.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time in nanoseconds since an arbitrary, fixed origin.
    fn now_ns(&self) -> u64;
}

/// Wall-clock monotonic time based on [`Instant`].
///
/// The origin is the moment the clock was created, so timestamps start near
/// zero and are comparable across all heartbeats sharing the clock.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A manually advanced virtual clock.
///
/// Cloning a `ManualClock` yields a handle to the *same* underlying time, so a
/// workload driver can advance time while heartbeat producers and external
/// observers read it. Advancing uses a single atomic fetch-add, which keeps
/// the hot path allocation- and lock-free.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now_ns: Arc<AtomicU64>,
}

impl ManualClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a clock starting at `start_ns` nanoseconds.
    pub fn starting_at(start_ns: u64) -> Self {
        let clock = Self::new();
        clock.now_ns.store(start_ns, Ordering::Release);
        clock
    }

    /// Advances the clock by `delta_ns` nanoseconds and returns the new time.
    pub fn advance_ns(&self, delta_ns: u64) -> u64 {
        self.now_ns.fetch_add(delta_ns, Ordering::AcqRel) + delta_ns
    }

    /// Advances the clock by `delta_secs` seconds (saturating at u64 range)
    /// and returns the new time in nanoseconds.
    pub fn advance_secs(&self, delta_secs: f64) -> u64 {
        let delta_ns = (delta_secs * 1e9).max(0.0) as u64;
        self.advance_ns(delta_ns)
    }

    /// Sets the clock to an absolute time. Panics (in debug builds) if this
    /// would move time backwards, since heartbeat rate estimation assumes a
    /// monotonic clock.
    pub fn set_ns(&self, now_ns: u64) {
        let prev = self.now_ns.swap(now_ns, Ordering::AcqRel);
        debug_assert!(
            now_ns >= prev,
            "ManualClock moved backwards: {prev} -> {now_ns}"
        );
    }
}

impl Clock for ManualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Acquire)
    }
}

/// A shared, dynamically dispatched clock handle.
///
/// Heartbeats store their clock behind an `Arc<dyn Clock>` so that producers,
/// local (per-thread) handles and observers all agree on the time source.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience constructor for a shared monotonic clock.
pub fn monotonic() -> SharedClock {
    Arc::new(MonotonicClock::new())
}

/// Convenience constructor for a shared manual clock, returning both the
/// type-erased handle (to give to heartbeats) and the concrete handle (to
/// advance time with).
pub fn manual() -> (SharedClock, ManualClock) {
    let clock = ManualClock::new();
    (Arc::new(clock.clone()) as SharedClock, clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn monotonic_clock_is_non_decreasing() {
        let clock = MonotonicClock::new();
        let mut prev = clock.now_ns();
        for _ in 0..1_000 {
            let now = clock.now_ns();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn monotonic_clock_starts_near_zero() {
        let clock = MonotonicClock::new();
        assert!(
            clock.now_ns() < 1_000_000_000,
            "origin should be creation time"
        );
    }

    #[test]
    fn manual_clock_starts_at_zero() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_ns(), 0);
    }

    #[test]
    fn manual_clock_starting_at() {
        let clock = ManualClock::starting_at(5_000);
        assert_eq!(clock.now_ns(), 5_000);
    }

    #[test]
    fn manual_clock_advance_ns_returns_new_time() {
        let clock = ManualClock::new();
        assert_eq!(clock.advance_ns(100), 100);
        assert_eq!(clock.advance_ns(50), 150);
        assert_eq!(clock.now_ns(), 150);
    }

    #[test]
    fn manual_clock_advance_secs() {
        let clock = ManualClock::new();
        clock.advance_secs(1.5);
        assert_eq!(clock.now_ns(), 1_500_000_000);
    }

    #[test]
    fn manual_clock_advance_secs_negative_is_noop() {
        let clock = ManualClock::starting_at(10);
        clock.advance_secs(-3.0);
        assert_eq!(clock.now_ns(), 10);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let a = ManualClock::new();
        let b = a.clone();
        a.advance_ns(42);
        assert_eq!(b.now_ns(), 42);
        b.advance_ns(8);
        assert_eq!(a.now_ns(), 50);
    }

    #[test]
    fn manual_clock_set_ns() {
        let clock = ManualClock::new();
        clock.set_ns(1_000);
        assert_eq!(clock.now_ns(), 1_000);
    }

    #[test]
    fn manual_clock_concurrent_advance_sums() {
        let clock = ManualClock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = clock.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.advance_ns(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(clock.now_ns(), 80_000);
    }

    #[test]
    fn shared_clock_constructors() {
        let shared = monotonic();
        let _ = shared.now_ns();
        let (shared, handle) = manual();
        handle.advance_ns(7);
        assert_eq!(shared.now_ns(), 7);
    }
}
