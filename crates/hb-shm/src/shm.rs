//! Shared-memory heartbeat segments: producer backend and external observer.
//!
//! A [`ShmSegment`] is a POSIX shared-memory object laid out per
//! [`crate::layout`]. The producing process attaches a [`ShmBackend`] to its
//! [`Heartbeat`](heartbeats::Heartbeat); any other process (an external
//! scheduler, a system-administration tool, a hardware model) opens the same
//! segment by name with [`ShmObserver`] and reads rates, history and targets
//! without any cooperation from the producer beyond the shared mapping.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Result, Tag};

use crate::layout::{self, offsets, slot_offsets};
use crate::posix::ShmRegion;

/// A heartbeat buffer living in POSIX shared memory.
#[derive(Debug)]
pub struct ShmSegment {
    region: ShmRegion,
    capacity: usize,
}

impl ShmSegment {
    /// Creates a segment named `name` with room for `capacity` records and
    /// initializes its header.
    pub fn create(name: &str, capacity: usize, default_window: usize) -> Result<Self> {
        let capacity = capacity.max(1);
        let region = ShmRegion::create(name, layout::segment_size(capacity))?;
        // Zero the slot states so stale data from a previous incarnation of
        // the object can never be mistaken for valid records.
        for i in 0..capacity {
            region
                .atomic_u64(layout::slot_offset(i) + slot_offsets::STATE)
                .store(0, Ordering::Relaxed);
        }
        region
            .atomic_u64(offsets::VERSION)
            .store(layout::VERSION, Ordering::Relaxed);
        region
            .atomic_u64(offsets::CAPACITY)
            .store(capacity as u64, Ordering::Relaxed);
        region.atomic_u64(offsets::HEAD).store(0, Ordering::Relaxed);
        region
            .atomic_u64(offsets::TARGET_MIN)
            .store(layout::unset_target_bits(), Ordering::Relaxed);
        region
            .atomic_u64(offsets::TARGET_MAX)
            .store(layout::unset_target_bits(), Ordering::Relaxed);
        region
            .atomic_u64(offsets::FIRST_TIMESTAMP)
            .store(layout::NO_TIMESTAMP, Ordering::Relaxed);
        region
            .atomic_u64(offsets::DEFAULT_WINDOW)
            .store(default_window as u64, Ordering::Relaxed);
        // Publish the magic last: an observer that sees the magic is
        // guaranteed to see an initialized header.
        region
            .atomic_u64(offsets::MAGIC)
            .store(layout::MAGIC, Ordering::Release);
        Ok(ShmSegment { region, capacity })
    }

    /// Opens an existing segment by name and validates its header.
    pub fn open(name: &str) -> Result<Self> {
        let region = ShmRegion::open(name, layout::HEADER_SIZE)?;
        let magic = region.atomic_u64(offsets::MAGIC).load(Ordering::Acquire);
        if magic != layout::MAGIC {
            return Err(heartbeats::HeartbeatError::Backend(format!(
                "shared-memory object {name} is not a heartbeat segment (magic {magic:#x})"
            )));
        }
        let version = region.atomic_u64(offsets::VERSION).load(Ordering::Acquire);
        if version != layout::VERSION {
            return Err(heartbeats::HeartbeatError::Backend(format!(
                "unsupported heartbeat segment version {version}"
            )));
        }
        let capacity = region.atomic_u64(offsets::CAPACITY).load(Ordering::Acquire) as usize;
        if capacity == 0 || layout::segment_size(capacity) > region.len() {
            return Err(heartbeats::HeartbeatError::Backend(format!(
                "heartbeat segment {name} declares capacity {capacity} but is only {} bytes",
                region.len()
            )));
        }
        Ok(ShmSegment { region, capacity })
    }

    /// Removes the named segment from the system namespace.
    pub fn unlink(name: &str) -> Result<()> {
        ShmRegion::unlink(name)
    }

    /// Number of record slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Default window registered by the producer.
    pub fn default_window(&self) -> usize {
        self.region
            .atomic_u64(offsets::DEFAULT_WINDOW)
            .load(Ordering::Acquire) as usize
    }

    /// Total number of beats recorded so far.
    pub fn total(&self) -> u64 {
        self.region
            .atomic_u64(offsets::HEAD)
            .load(Ordering::Acquire)
    }

    /// Timestamp of the first beat, if any.
    pub fn first_timestamp_ns(&self) -> Option<u64> {
        let ts = self
            .region
            .atomic_u64(offsets::FIRST_TIMESTAMP)
            .load(Ordering::Acquire);
        if ts == layout::NO_TIMESTAMP {
            None
        } else {
            Some(ts)
        }
    }

    fn write_slot(&self, seq: u64, timestamp_ns: u64, tag: u64, thread: u64) {
        let base = layout::slot_offset((seq % self.capacity as u64) as usize);
        let state = self.region.atomic_u64(base + slot_offsets::STATE);
        state.store(layout::writing_state(seq), Ordering::Release);
        std::sync::atomic::fence(Ordering::Release);
        self.region
            .atomic_u64(base + slot_offsets::TIMESTAMP)
            .store(timestamp_ns, Ordering::Relaxed);
        self.region
            .atomic_u64(base + slot_offsets::TAG)
            .store(tag, Ordering::Relaxed);
        self.region
            .atomic_u64(base + slot_offsets::THREAD)
            .store(thread, Ordering::Relaxed);
        state.store(layout::stable_state(seq), Ordering::Release);
    }

    fn read_slot(&self, seq: u64) -> Option<HeartbeatRecord> {
        let base = layout::slot_offset((seq % self.capacity as u64) as usize);
        let state = self.region.atomic_u64(base + slot_offsets::STATE);
        let expected = layout::stable_state(seq);
        if state.load(Ordering::Acquire) != expected {
            return None;
        }
        let timestamp_ns = self
            .region
            .atomic_u64(base + slot_offsets::TIMESTAMP)
            .load(Ordering::Relaxed);
        let tag = self
            .region
            .atomic_u64(base + slot_offsets::TAG)
            .load(Ordering::Relaxed);
        let thread = self
            .region
            .atomic_u64(base + slot_offsets::THREAD)
            .load(Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Acquire);
        if state.load(Ordering::Relaxed) != expected {
            return None;
        }
        Some(HeartbeatRecord::new(
            seq,
            timestamp_ns,
            Tag::new(tag),
            BeatThreadId(thread as u32),
        ))
    }

    /// Records a beat directly into the segment, assigning the next sequence
    /// number. Used when the segment *is* the primary buffer (no in-process
    /// heartbeat object).
    pub fn push(&self, timestamp_ns: u64, tag: Tag, thread: BeatThreadId) -> u64 {
        let seq = self
            .region
            .atomic_u64(offsets::HEAD)
            .fetch_add(1, Ordering::AcqRel);
        if seq == 0 {
            let _ = self
                .region
                .atomic_u64(offsets::FIRST_TIMESTAMP)
                .compare_exchange(
                    layout::NO_TIMESTAMP,
                    timestamp_ns,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
        }
        self.write_slot(seq, timestamp_ns, tag.value(), thread.index() as u64);
        seq
    }

    /// Mirrors a record that already carries a sequence number assigned by an
    /// in-process buffer. The head counter tracks the highest mirrored
    /// sequence, so out-of-order arrival from concurrent producer threads is
    /// tolerated.
    pub fn mirror(&self, record: &HeartbeatRecord) {
        if record.seq == 0 {
            let _ = self
                .region
                .atomic_u64(offsets::FIRST_TIMESTAMP)
                .compare_exchange(
                    layout::NO_TIMESTAMP,
                    record.timestamp_ns,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
        }
        self.write_slot(
            record.seq,
            record.timestamp_ns,
            record.tag.value(),
            record.thread.index() as u64,
        );
        self.region
            .atomic_u64(offsets::HEAD)
            .fetch_max(record.seq + 1, Ordering::AcqRel);
    }

    /// Sets the published target heart-rate range.
    pub fn set_target(&self, min_bps: f64, max_bps: f64) {
        self.region
            .atomic_u64(offsets::TARGET_MIN)
            .store(min_bps.to_bits(), Ordering::Release);
        self.region
            .atomic_u64(offsets::TARGET_MAX)
            .store(max_bps.to_bits(), Ordering::Release);
    }

    /// The published target range, if set.
    pub fn target(&self) -> Option<(f64, f64)> {
        let min = f64::from_bits(
            self.region
                .atomic_u64(offsets::TARGET_MIN)
                .load(Ordering::Acquire),
        );
        let max = f64::from_bits(
            self.region
                .atomic_u64(offsets::TARGET_MAX)
                .load(Ordering::Acquire),
        );
        if min >= 0.0 && max >= 0.0 {
            Some((min, max))
        } else {
            None
        }
    }

    /// Returns up to the last `n` records in chronological order.
    pub fn last_n(&self, n: usize) -> Vec<HeartbeatRecord> {
        let head = self.total();
        if head == 0 || n == 0 {
            return Vec::new();
        }
        let available = head.min(self.capacity as u64);
        let take = (n as u64).min(available);
        let mut out = Vec::with_capacity(take as usize);
        for seq in (head - take)..head {
            match self.read_slot(seq) {
                Some(record) => out.push(record),
                None => out.clear(),
            }
        }
        out
    }
}

/// A [`Backend`] that mirrors global heartbeats into a shared-memory segment.
///
/// Local (per-thread) beats are not mirrored: the paper's model keeps private
/// buffers thread-local, while the globally accessible buffer carries the
/// application-wide stream.
#[derive(Debug, Clone)]
pub struct ShmBackend {
    segment: Arc<ShmSegment>,
    mirrored: Arc<std::sync::atomic::AtomicU64>,
}

impl ShmBackend {
    /// Creates a backend that writes into a freshly created segment.
    pub fn create(name: &str, capacity: usize, default_window: usize) -> Result<Self> {
        Ok(Self::from_segment(Arc::new(ShmSegment::create(
            name,
            capacity,
            default_window,
        )?)))
    }

    /// Wraps an already created segment.
    pub fn from_segment(segment: Arc<ShmSegment>) -> Self {
        ShmBackend {
            segment,
            mirrored: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<ShmSegment> {
        &self.segment
    }
}

impl Backend for ShmBackend {
    fn on_beat(&self, _app: &str, record: &HeartbeatRecord, scope: BeatScope) {
        if scope == BeatScope::Global {
            self.segment.mirror(record);
            self.mirrored.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_target_change(&self, _app: &str, min_bps: f64, max_bps: f64) {
        self.segment.set_target(min_bps, max_bps);
    }

    fn stats(&self) -> heartbeats::BackendStats {
        heartbeats::BackendStats {
            mirrored: self.mirrored.load(Ordering::Relaxed),
            // The shared-memory ring overwrites the oldest slot by design;
            // nothing is ever shed before reaching the medium.
            dropped: 0,
        }
    }
}

/// External-observer handle over a shared-memory heartbeat segment.
///
/// Cloning is cheap (the mapping is shared), which is what lets
/// [`Observe::subscribe`](heartbeats::Observe::subscribe) hand out an event
/// stream that owns its own handle.
#[derive(Debug, Clone)]
pub struct ShmObserver {
    name: String,
    segment: Arc<ShmSegment>,
    /// Observer-side progress probe `(last total, when it last advanced)`:
    /// the producer's clock is process-local, so the only stall signal an
    /// external mapping has is "the beat total stopped moving". Shared
    /// across clones so every handle agrees.
    progress: Arc<std::sync::Mutex<(u64, std::time::Instant)>>,
}

impl ShmObserver {
    /// Attaches to the segment named `name`.
    pub fn attach(name: &str) -> Result<Self> {
        Ok(ShmObserver {
            name: name.to_string(),
            segment: Arc::new(ShmSegment::open(name)?),
            progress: Arc::new(std::sync::Mutex::new((0, std::time::Instant::now()))),
        })
    }

    /// True if the beat total has advanced within the stall horizon
    /// (observer clock). Updates the progress probe.
    fn progressing(&self, total: u64) -> bool {
        let mut probe = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        let now = std::time::Instant::now();
        if total != probe.0 {
            *probe = (total, now);
            return true;
        }
        now.duration_since(probe.1).as_nanos() < heartbeats::observe::DEFAULT_STALE_NS as u128
    }

    /// The shared-memory object name this observer is attached to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of global beats recorded.
    pub fn total_beats(&self) -> u64 {
        self.segment.total()
    }

    /// The last `n` beats in chronological order.
    pub fn history(&self, n: usize) -> Vec<HeartbeatRecord> {
        self.segment.last_n(n)
    }

    /// Average heart rate over the last `window` beats (0 = the producer's
    /// default window).
    pub fn current_rate(&self, window: usize) -> Option<f64> {
        let window = if window == 0 {
            self.segment.default_window().max(2)
        } else {
            window.max(2)
        };
        heartbeats::window::windowed_rate(&self.segment.last_n(window))
    }

    /// Lifetime average rate given the current time on the producer's clock.
    pub fn global_average_rate(&self, now_ns: u64) -> Option<f64> {
        let first = self.segment.first_timestamp_ns()?;
        heartbeats::window::global_rate(self.segment.total(), first, now_ns)
    }

    /// The producer's declared target range, if any.
    pub fn target(&self) -> Option<(f64, f64)> {
        self.segment.target()
    }

    /// The producer's default window.
    pub fn default_window(&self) -> usize {
        self.segment.default_window()
    }
}

impl heartbeats::Observe for ShmObserver {
    fn name(&self) -> &str {
        &self.name
    }

    fn snapshot(&self) -> Option<heartbeats::ObservedSnapshot> {
        let total = self.total_beats();
        Some(heartbeats::ObservedSnapshot {
            total_beats: total,
            rate_bps: self.current_rate(0),
            target: self.target(),
            dropped: 0, // the shared ring overwrites in place, never sheds
            alive: total > 0 && self.progressing(total),
        })
    }

    fn health(&self) -> heartbeats::ObservedHealth {
        let total = self.total_beats();
        if total == 0 {
            return heartbeats::ObservedHealth::NoSignal;
        }
        // The segment's rate is computed from frozen producer timestamps,
        // so it never decays on its own; a dead producer is detected by
        // the observer-side progress probe instead (a guarded control loop
        // must hold rather than act on the frozen rate).
        if !self.progressing(total) {
            return heartbeats::ObservedHealth::Stalled;
        }
        match (self.current_rate(0), self.target()) {
            (Some(rate), Some((min, _))) if rate < min => heartbeats::ObservedHealth::Degraded,
            _ => heartbeats::ObservedHealth::Healthy,
        }
    }

    fn rate(&self, window: usize) -> Option<f64> {
        self.current_rate(window)
    }

    fn beats_since(&self, seen_total: u64) -> Option<Vec<heartbeats::ObservedBeat>> {
        let total = self.total_beats();
        let fresh = total.saturating_sub(seen_total);
        if fresh == 0 {
            return Some(Vec::new());
        }
        Some(
            self.history(fresh.min(usize::MAX as u64) as usize)
                .into_iter()
                .filter(|record| record.seq >= seen_total)
                .map(|record| heartbeats::ObservedBeat {
                    record,
                    scope: BeatScope::Global, // only global beats are mirrored
                })
                .collect(),
        )
    }

    fn subscribe(
        &self,
        filter: &heartbeats::ObserveFilter,
    ) -> std::result::Result<heartbeats::ObserveStream, heartbeats::ObserveError> {
        Ok(heartbeats::observe::polling_stream(
            self.clone(),
            filter.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{Clock, HeartbeatBuilder, ManualClock};
    use std::sync::atomic::AtomicU64;

    fn unique_name(tag: &str) -> String {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        format!(
            "hb-shm-test-{}-{}-{}",
            std::process::id(),
            tag,
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )
    }

    #[test]
    fn create_and_open_roundtrip_header() {
        let name = unique_name("header");
        let segment = ShmSegment::create(&name, 64, 20).unwrap();
        assert_eq!(segment.capacity(), 64);
        assert_eq!(segment.default_window(), 20);
        assert_eq!(segment.total(), 0);
        assert!(segment.target().is_none());
        assert!(segment.first_timestamp_ns().is_none());

        let reopened = ShmSegment::open(&name).unwrap();
        assert_eq!(reopened.capacity(), 64);
        assert_eq!(reopened.default_window(), 20);
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn open_rejects_non_heartbeat_object() {
        let name = unique_name("garbage");
        let _region = ShmRegion::create(&name, 4096).unwrap();
        assert!(ShmSegment::open(&name).is_err());
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn push_and_read_across_handles() {
        let name = unique_name("push");
        let writer = ShmSegment::create(&name, 16, 4).unwrap();
        for i in 0..10u64 {
            writer.push(i * 1_000, Tag::new(i), BeatThreadId(1));
        }
        let reader = ShmSegment::open(&name).unwrap();
        assert_eq!(reader.total(), 10);
        assert_eq!(reader.first_timestamp_ns(), Some(0));
        let hist = reader.last_n(3);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[2].seq, 9);
        assert_eq!(hist[2].tag, Tag::new(9));
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn wraparound_keeps_most_recent() {
        let name = unique_name("wrap");
        let segment = ShmSegment::create(&name, 8, 4).unwrap();
        for i in 0..20u64 {
            segment.push(i, Tag::new(i), BeatThreadId(0));
        }
        let hist = segment.last_n(100);
        assert_eq!(hist.len(), 8);
        assert_eq!(hist[0].seq, 12);
        assert_eq!(hist[7].seq, 19);
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn targets_roundtrip_through_shm() {
        let name = unique_name("targets");
        let segment = ShmSegment::create(&name, 8, 4).unwrap();
        segment.set_target(30.0, 35.0);
        let observer = ShmObserver::attach(&name).unwrap();
        assert_eq!(observer.target(), Some((30.0, 35.0)));
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn backend_mirrors_heartbeat_stream() {
        let name = unique_name("backend");
        let clock = ManualClock::new();
        let backend = ShmBackend::create(&name, 128, 10).unwrap();
        let hb = HeartbeatBuilder::new("shm-app")
            .window(10)
            .clock(Arc::new(clock.clone()))
            .backend(Arc::new(backend))
            .build()
            .unwrap();
        hb.set_target_rate(25.0, 30.0).unwrap();
        for i in 0..50u64 {
            clock.advance_ns(40_000_000); // 25 beats/s
            hb.heartbeat_tagged(Tag::new(i));
        }
        hb.heartbeat_local(Tag::new(999)); // must NOT be mirrored

        let observer = ShmObserver::attach(&name).unwrap();
        assert_eq!(observer.total_beats(), 50);
        assert_eq!(observer.target(), Some((25.0, 30.0)));
        assert_eq!(observer.default_window(), 10);
        let rate = observer.current_rate(0).unwrap();
        assert!((rate - 25.0).abs() < 1e-6);
        let rate_wide = observer.current_rate(50).unwrap();
        assert!((rate_wide - 25.0).abs() < 1e-6);
        let avg = observer.global_average_rate(clock.now_ns()).unwrap();
        assert!(avg > 24.0 && avg < 26.0);
        let hist = observer.history(5);
        assert_eq!(hist.len(), 5);
        assert_eq!(hist[4].tag, Tag::new(49));
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn concurrent_mirroring_is_torn_free() {
        let name = unique_name("concurrent");
        let segment = Arc::new(ShmSegment::create(&name, 64, 4).unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let segment = Arc::clone(&segment);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    segment.push(i, Tag::new(i), BeatThreadId(0));
                    i += 1;
                }
            })
        };
        let observer = ShmSegment::open(&name).unwrap();
        for _ in 0..2_000 {
            for record in observer.last_n(64) {
                assert_eq!(record.timestamp_ns, record.tag.value());
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        ShmSegment::unlink(&name).unwrap();
    }

    #[test]
    fn observer_attach_missing_segment_fails() {
        assert!(ShmObserver::attach(&unique_name("missing")).is_err());
    }
}
