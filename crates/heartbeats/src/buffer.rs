//! Heartbeat history buffers.
//!
//! The paper's API returns the last *n* heartbeats (`HB_get_history`) and
//! computes rates over the last *window* heartbeats (`HB_current_rate`), and
//! suggests storing heartbeats "efficiently ... in a circular buffer". Two
//! buffer implementations are provided:
//!
//! * [`MutexRing`] — a straightforward mutex-protected circular buffer. This
//!   mirrors the reference C implementation's mutex-around-a-log design and is
//!   the easiest implementation to reason about.
//! * [`AtomicRing`] — a per-slot seqlock ring. Producers never block each
//!   other (a beat is a handful of atomic stores), and observers obtain
//!   torn-free snapshots by validating per-slot sequence stamps. This is the
//!   default buffer because `HB_heartbeat` sits on application hot paths.
//!
//! Both implement [`HistoryBuffer`] so the rest of the framework is agnostic.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use std::sync::Mutex;

use crate::record::{BeatThreadId, HeartbeatRecord, Tag};

/// Default number of heartbeat records retained by a buffer.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Abstraction over heartbeat history storage.
///
/// A buffer assigns each pushed beat a dense sequence number (0-based) and
/// retains the most recent `capacity()` records.
pub trait HistoryBuffer: Send + Sync + std::fmt::Debug {
    /// Records a heartbeat and returns its sequence number.
    fn push(&self, timestamp_ns: u64, tag: Tag, thread: BeatThreadId) -> u64;

    /// Total number of heartbeats ever pushed.
    fn total(&self) -> u64;

    /// Maximum number of records retained.
    fn capacity(&self) -> usize;

    /// Returns up to the last `n` records in chronological order.
    ///
    /// Fewer records may be returned if fewer have been produced, if `n`
    /// exceeds the capacity, or (for lock-free buffers) if the oldest
    /// requested records were overwritten while the snapshot was being taken.
    fn last_n(&self, n: usize) -> Vec<HeartbeatRecord>;

    /// Returns the most recent record, if any.
    fn latest(&self) -> Option<HeartbeatRecord> {
        self.last_n(1).pop()
    }

    /// Timestamp of the first heartbeat ever recorded, if any.
    fn first_timestamp_ns(&self) -> Option<u64>;
}

/// A mutex-protected circular buffer of heartbeat records.
#[derive(Debug)]
pub struct MutexRing {
    inner: Mutex<MutexRingInner>,
    capacity: usize,
}

#[derive(Debug)]
struct MutexRingInner {
    records: Vec<HeartbeatRecord>,
    /// Index of the logical start of the ring within `records`.
    start: usize,
    total: u64,
    first_timestamp_ns: Option<u64>,
}

impl MutexRing {
    /// Creates a ring retaining at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        MutexRing {
            inner: Mutex::new(MutexRingInner {
                records: Vec::with_capacity(capacity),
                start: 0,
                total: 0,
                first_timestamp_ns: None,
            }),
            capacity,
        }
    }
}

impl HistoryBuffer for MutexRing {
    fn push(&self, timestamp_ns: u64, tag: Tag, thread: BeatThreadId) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.total;
        let record = HeartbeatRecord::new(seq, timestamp_ns, tag, thread);
        if inner.records.len() < self.capacity {
            inner.records.push(record);
        } else {
            let start = inner.start;
            inner.records[start] = record;
            inner.start = (start + 1) % self.capacity;
        }
        inner.total += 1;
        if inner.first_timestamp_ns.is_none() {
            inner.first_timestamp_ns = Some(timestamp_ns);
        }
        seq
    }

    fn total(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).total
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn last_n(&self, n: usize) -> Vec<HeartbeatRecord> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let len = inner.records.len();
        let take = n.min(len);
        let mut out = Vec::with_capacity(take);
        for i in (len - take)..len {
            let idx = (inner.start + i) % len.max(1);
            out.push(inner.records[idx]);
        }
        out
    }

    fn first_timestamp_ns(&self) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .first_timestamp_ns
    }
}

/// One slot of the [`AtomicRing`].
///
/// `state` follows a per-slot seqlock protocol: for the record with sequence
/// number `s` stored in this slot, the stable state value is `2*s + 2`; while
/// the writer is filling the slot the state is `2*s + 1` (odd). A state of 0
/// means the slot has never been written.
#[derive(Debug)]
struct Slot {
    state: AtomicU64,
    timestamp_ns: AtomicU64,
    tag: AtomicU64,
    thread: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            state: AtomicU64::new(0),
            timestamp_ns: AtomicU64::new(0),
            tag: AtomicU64::new(0),
            thread: AtomicU64::new(0),
        }
    }

    #[inline]
    fn stable_state(seq: u64) -> u64 {
        seq.wrapping_mul(2).wrapping_add(2)
    }

    #[inline]
    fn writing_state(seq: u64) -> u64 {
        seq.wrapping_mul(2).wrapping_add(1)
    }

    /// Writes a record for sequence `seq` into the slot.
    fn write(&self, seq: u64, timestamp_ns: u64, tag: Tag, thread: BeatThreadId) {
        // Publish "write in progress" before touching the payload so a reader
        // that observes partially updated fields will also observe an odd (or
        // different) state and discard the read.
        self.state
            .store(Self::writing_state(seq), Ordering::Release);
        fence(Ordering::Release);
        self.timestamp_ns.store(timestamp_ns, Ordering::Relaxed);
        self.tag.store(tag.value(), Ordering::Relaxed);
        self.thread.store(thread.index() as u64, Ordering::Relaxed);
        // Publish the completed record. The release store orders the payload
        // stores before the state becomes visible as stable.
        self.state.store(Self::stable_state(seq), Ordering::Release);
    }

    /// Attempts to read the record with sequence `seq` from this slot.
    fn read(&self, seq: u64) -> Option<HeartbeatRecord> {
        let expected = Self::stable_state(seq);
        let before = self.state.load(Ordering::Acquire);
        if before != expected {
            return None;
        }
        let timestamp_ns = self.timestamp_ns.load(Ordering::Relaxed);
        let tag = self.tag.load(Ordering::Relaxed);
        let thread = self.thread.load(Ordering::Relaxed);
        // The acquire fence orders the payload loads before the validation
        // load, completing the seqlock read protocol.
        fence(Ordering::Acquire);
        let after = self.state.load(Ordering::Relaxed);
        if after != expected {
            return None;
        }
        Some(HeartbeatRecord::new(
            seq,
            timestamp_ns,
            Tag::new(tag),
            BeatThreadId(thread as u32),
        ))
    }
}

/// A lock-free circular buffer of heartbeat records.
///
/// Writers claim a sequence number with a single `fetch_add` and then publish
/// the record into `slots[seq % capacity]` using a per-slot seqlock. Readers
/// never block writers; a reader racing with a wrap-around simply sees fewer
/// old records.
#[derive(Debug)]
pub struct AtomicRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    first_timestamp_ns: AtomicU64,
    capacity: usize,
}

/// Sentinel meaning "no first timestamp recorded yet".
const NO_TIMESTAMP: u64 = u64::MAX;

impl AtomicRing {
    /// Creates a ring retaining at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots: Vec<Slot> = (0..capacity).map(|_| Slot::empty()).collect();
        AtomicRing {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
            first_timestamp_ns: AtomicU64::new(NO_TIMESTAMP),
            capacity,
        }
    }

    /// Creates a ring with [`DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl HistoryBuffer for AtomicRing {
    fn push(&self, timestamp_ns: u64, tag: Tag, thread: BeatThreadId) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        if seq == 0 {
            // Only the very first beat records the stream origin; a relaxed
            // CAS is enough because exactly one thread owns seq 0.
            let _ = self.first_timestamp_ns.compare_exchange(
                NO_TIMESTAMP,
                timestamp_ns,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        let slot = &self.slots[(seq % self.capacity as u64) as usize];
        slot.write(seq, timestamp_ns, tag, thread);
        seq
    }

    fn total(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn last_n(&self, n: usize) -> Vec<HeartbeatRecord> {
        let head = self.head.load(Ordering::Acquire);
        if head == 0 || n == 0 {
            return Vec::new();
        }
        let available = head.min(self.capacity as u64);
        let take = (n as u64).min(available);
        let start = head - take;
        let mut out = Vec::with_capacity(take as usize);
        for seq in start..head {
            let slot = &self.slots[(seq % self.capacity as u64) as usize];
            match slot.read(seq) {
                Some(record) => out.push(record),
                // The record was overwritten (or is still being written)
                // while we were reading; older entries in this range are
                // also unreliable, so drop what we collected so far and
                // keep only newer, still-valid records.
                None => out.clear(),
            }
        }
        out
    }

    fn first_timestamp_ns(&self) -> Option<u64> {
        let ts = self.first_timestamp_ns.load(Ordering::Acquire);
        if ts == NO_TIMESTAMP {
            None
        } else {
            Some(ts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn push_n(buffer: &dyn HistoryBuffer, n: u64) {
        for i in 0..n {
            buffer.push(i * 1_000, Tag::new(i), BeatThreadId(0));
        }
    }

    fn check_basic(buffer: &dyn HistoryBuffer) {
        assert_eq!(buffer.total(), 0);
        assert!(buffer.latest().is_none());
        assert!(buffer.last_n(10).is_empty());
        assert!(buffer.first_timestamp_ns().is_none());

        push_n(buffer, 5);
        assert_eq!(buffer.total(), 5);
        assert_eq!(buffer.first_timestamp_ns(), Some(0));
        let last = buffer.latest().unwrap();
        assert_eq!(last.seq, 4);
        assert_eq!(last.timestamp_ns, 4_000);
        assert_eq!(last.tag, Tag::new(4));

        let hist = buffer.last_n(3);
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].seq, 2);
        assert_eq!(hist[2].seq, 4);
        // Chronological order.
        assert!(hist
            .windows(2)
            .all(|w| w[0].timestamp_ns <= w[1].timestamp_ns));
    }

    fn check_wraparound(buffer: &dyn HistoryBuffer, capacity: usize) {
        push_n(buffer, (capacity as u64) * 3 + 1);
        assert_eq!(buffer.total(), capacity as u64 * 3 + 1);
        let hist = buffer.last_n(capacity * 10);
        assert_eq!(hist.len(), capacity);
        // Oldest retained record.
        assert_eq!(hist[0].seq, capacity as u64 * 2 + 1);
        // Newest record.
        assert_eq!(hist[capacity - 1].seq, capacity as u64 * 3);
        // First timestamp refers to the very first beat, not the retained one.
        assert_eq!(buffer.first_timestamp_ns(), Some(0));
    }

    #[test]
    fn mutex_ring_basic() {
        check_basic(&MutexRing::new(16));
    }

    #[test]
    fn atomic_ring_basic() {
        check_basic(&AtomicRing::new(16));
    }

    #[test]
    fn mutex_ring_wraparound() {
        check_wraparound(&MutexRing::new(8), 8);
    }

    #[test]
    fn atomic_ring_wraparound() {
        check_wraparound(&AtomicRing::new(8), 8);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        assert_eq!(MutexRing::new(0).capacity(), 1);
        assert_eq!(AtomicRing::new(0).capacity(), 1);
    }

    #[test]
    fn atomic_ring_default_capacity() {
        assert_eq!(
            AtomicRing::with_default_capacity().capacity(),
            DEFAULT_CAPACITY
        );
    }

    #[test]
    fn last_n_zero_is_empty() {
        let ring = AtomicRing::new(8);
        push_n(&ring, 4);
        assert!(ring.last_n(0).is_empty());
    }

    #[test]
    fn single_slot_ring_keeps_latest() {
        let ring = AtomicRing::new(1);
        push_n(&ring, 10);
        let hist = ring.last_n(5);
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].seq, 9);
    }

    #[test]
    fn concurrent_producers_assign_unique_seq() {
        let ring = Arc::new(AtomicRing::new(1 << 14));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for i in 0..1_000u64 {
                        ring.push(i, Tag::new(i), BeatThreadId(t));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total(), 8_000);
        let hist = ring.last_n(8_000);
        assert_eq!(hist.len(), 8_000);
        // Sequence numbers must be dense and unique.
        for (i, record) in hist.iter().enumerate() {
            assert_eq!(record.seq, i as u64);
        }
    }

    #[test]
    fn concurrent_reader_never_sees_torn_records() {
        // Writers continuously overwrite a small ring while a reader
        // snapshots; every record returned must be self-consistent
        // (timestamp == tag by construction).
        let ring = Arc::new(AtomicRing::new(64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ring.push(i, Tag::new(i), BeatThreadId(0));
                    i += 1;
                }
            })
        };

        for _ in 0..2_000 {
            for record in ring.last_n(64) {
                assert_eq!(record.timestamp_ns, record.tag.value());
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn mutex_ring_concurrent_producers() {
        let ring = Arc::new(MutexRing::new(1 << 13));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for i in 0..1_000u64 {
                        ring.push(i, Tag::new(i), BeatThreadId(t));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.total(), 4_000);
        assert_eq!(ring.last_n(10_000).len(), 4_000);
    }
}
