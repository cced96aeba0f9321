//! Collector-side push subscriptions: the registry that fans ingested
//! telemetry out to subscribed observers.
//!
//! A subscriber (one observer connection, or an in-process
//! [`LocalSubscription`]) owns a bounded [`SubscriberQueue`] of encoded
//! [`Frame::Event`]s. Subscriptions ([`SubEntry`]) pair that queue with an
//! application glob, an interest mask and a minimum update interval. The
//! ingest path asks the registry for the entries matching an application
//! (one atomic load answers "nobody is subscribed", keeping the
//! zero-subscriber hot path free), builds the due events under the shard
//! lock, and enqueues them after it; each enqueue asks the subscriber's
//! reactor shard for a pump ([`PumpHandle::request`], one outstanding
//! request per connection), which drains the queue into the connection's
//! outbound buffer, from which the normal `EPOLLOUT` path ships them.
//!
//! Backpressure is **drop-oldest with accounting**: a queue at capacity
//! sheds its oldest event and bumps the subscriber's and the collector's
//! `events_dropped` counters (exported via `STATS` and Prometheus) — a slow
//! observer loses history, never stalls the collector.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::health::HealthStatus;
use crate::reactor::{OutBuf, PumpHandle};
use crate::telemetry::{self, LatencyHisto, Level};
use crate::wire::{self, EventFrame, EventPayload, Frame, SubStatus, SubscribeReq};

/// Most subscriptions one connection may hold; beyond this a subscribe is
/// answered [`SubStatus::TooManySubscriptions`].
pub const MAX_SUBS_PER_CONNECTION: usize = 64;

/// One queued event: `(sub_id, encoded frame, delivery cursor, enqueue
/// instant)` — the instant feeds the collector-side delivery-lag histogram
/// at drain. Frames are shared `Arc<[u8]>`s: a fan-out encodes each event
/// once and every matching queue references the same bytes; the cursor
/// rides alongside (not inside) the shared bytes because each cursored
/// subscription numbers its own stream. `0` = un-numbered (plain observer
/// subscriptions).
type QueuedEvent = (u32, Arc<[u8]>, u64, Instant);

/// One subscription's resume buffer: `(cursor, encoded frame)` pairs
/// retained after draining, oldest first.
type ReplayRing = VecDeque<(u64, Arc<[u8]>)>;

/// A bounded queue of encoded events owned by one subscriber (an observer
/// connection or a [`LocalSubscription`]).
#[derive(Debug)]
pub struct SubscriberQueue {
    inner: Mutex<VecDeque<QueuedEvent>>,
    capacity: usize,
    dropped: AtomicU64,
    /// Subscriptions currently registered against this queue (drives the
    /// observer connection's idle-eviction exemption).
    active: AtomicUsize,
    /// Enqueue-to-drain latency sink, when the owning collector records
    /// delivery lag.
    lag: Option<Arc<LatencyHisto>>,
    /// Retained cursored events, per sub_id, after they drained — the
    /// resume buffer a reconnecting federation parent replays from.
    /// Bounded per subscription at the queue capacity, drop-oldest with
    /// exact accounting (`replay_dropped`).
    replay: Mutex<HashMap<u32, ReplayRing>>,
    /// Cursored events evicted from a replay ring before anyone resumed
    /// over them — each one is a potential gap a reconnecting parent can
    /// no longer be spared.
    replay_dropped: AtomicU64,
    /// Asks the reactor shard of the connection that drains this queue (an
    /// observer's, or the federation uplink's) for a drain when an event is
    /// enqueued; `None` for in-process subscribers.
    pump: Mutex<Option<PumpHandle>>,
}

impl SubscriberQueue {
    /// Creates a queue bounded at `capacity` events (clamped to >= 1).
    pub fn new(capacity: usize) -> Self {
        SubscriberQueue::with_telemetry(capacity, None)
    }

    /// Creates a bounded queue that records enqueue-to-drain delivery lag
    /// into `lag` as events leave toward the subscriber's socket buffer.
    pub fn with_telemetry(capacity: usize, lag: Option<Arc<LatencyHisto>>) -> Self {
        SubscriberQueue {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            lag,
            replay: Mutex::new(HashMap::new()),
            replay_dropped: AtomicU64::new(0),
            pump: Mutex::new(None),
        }
    }

    /// Binds the queue to the observer connection that drains it: every
    /// enqueue requests that connection's pump (coalesced to one outstanding
    /// request per drain).
    pub fn with_pump(self, pump: Option<PumpHandle>) -> Self {
        self.set_pump(pump);
        self
    }

    /// Rebinds the queue to another draining connection: a propagated
    /// subscription outlives the uplink sessions that forward it.
    pub(crate) fn set_pump(&self, pump: Option<PumpHandle>) {
        *self.pump.lock().unwrap_or_else(|e| e.into_inner()) = pump;
    }

    /// Events shed from this queue because the subscriber was slow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Cursored events evicted from a replay ring before a resume could
    /// use them (bounded-buffer accounting, like the rollup tap).
    pub fn replay_dropped(&self) -> u64 {
        self.replay_dropped.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// The retained cursored events of `sub_id` with cursor `>= from`, in
    /// cursor order — what a resuming subscription can still be re-sent.
    pub fn replay_events(&self, sub_id: u32, from: u64) -> Vec<(u64, Arc<[u8]>)> {
        let replay = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        replay
            .get(&sub_id)
            .map(|ring| {
                ring.iter()
                    .filter(|(cursor, _)| *cursor >= from)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Subscriptions currently registered against this queue.
    pub fn active_subs(&self) -> usize {
        self.active.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves queued event frames into `out` as shared segments — the
    /// outbound buffer references the same encoded bytes every other
    /// subscriber received, no copy — at most `max_bytes` worth (always at
    /// least one event if any is queued, so huge events still drain).
    /// Returns the number of events moved.
    pub fn drain_into(&self, out: &mut OutBuf, max_bytes: usize) -> usize {
        self.drain_events(max_bytes, |bytes, _| out.push_shared(bytes))
    }

    /// Like [`drain_into`](Self::drain_into) but copies into a plain byte
    /// vector — the in-process [`LocalSubscription`] path.
    pub fn drain_to_vec(&self, out: &mut Vec<u8>, max_bytes: usize) -> usize {
        self.drain_events(max_bytes, |bytes, _| out.extend_from_slice(&bytes))
    }

    /// The general drain: hands each departing event (shared bytes plus
    /// its delivery cursor, `0` when un-numbered) to `push`, at most
    /// `max_bytes` worth per pass (always at least one event if any is
    /// queued, so huge events still drain). Cursored events are retained
    /// in the per-subscription replay ring on the way out. Returns the
    /// number of events moved.
    pub fn drain_events(&self, max_bytes: usize, mut push: impl FnMut(Arc<[u8]>, u64)) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut moved = 0;
        let mut budget = max_bytes;
        // One clock read covers every event drained this pass.
        let now = self
            .lag
            .as_ref()
            .filter(|_| !inner.is_empty())
            .map(|_| Instant::now());
        while let Some((_, bytes, _, _)) = inner.front() {
            if moved > 0 && bytes.len() > budget {
                break;
            }
            budget = budget.saturating_sub(bytes.len());
            let (sub_id, bytes, cursor, queued_at) = inner.pop_front().expect("front checked");
            if let (Some(lag), Some(now)) = (&self.lag, now) {
                lag.record_duration(now.saturating_duration_since(queued_at));
            }
            if cursor != 0 {
                self.retain_for_replay(sub_id, cursor, Arc::clone(&bytes));
            }
            push(bytes, cursor);
            moved += 1;
        }
        moved
    }

    /// Keeps one drained cursored event in `sub_id`'s replay ring, bounded
    /// at the queue capacity with drop-oldest accounting.
    fn retain_for_replay(&self, sub_id: u32, cursor: u64, bytes: Arc<[u8]>) {
        let mut replay = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        let ring = replay.entry(sub_id).or_default();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.replay_dropped.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        ring.push_back((cursor, bytes));
    }

    /// Removes every queued event belonging to `sub_id` — and its replay
    /// ring (an unsubscribed stream must deliver nothing after its ack,
    /// and a later subscription reusing the id must not resurrect the old
    /// stream's retained events through a resume).
    fn purge(&self, sub_id: u32) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.retain(|(id, _, _, _)| *id != sub_id);
        drop(inner);
        let mut replay = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        replay.remove(&sub_id);
    }
}

/// The rate-limited deliveries [`SubEntry::due`] decides.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Due {
    /// A snapshot event.
    Snapshot,
    /// A health (re-)assessment.
    Assess,
}

/// Per-application delivery state of one subscription.
#[derive(Debug)]
struct AppWatch {
    /// When a snapshot event was last emitted (rate limiting).
    last_snapshot: Option<Instant>,
    /// When health was last assessed (rate limiting).
    last_assessed: Option<Instant>,
    /// The last health classification delivered, so only transitions emit.
    last_health: Option<HealthStatus>,
}

impl AppWatch {
    fn new() -> Self {
        AppWatch {
            last_snapshot: None,
            last_assessed: None,
            last_health: None,
        }
    }
}

/// One registered subscription: a filter over the application namespace
/// bound to a subscriber queue.
#[derive(Debug)]
pub struct SubEntry {
    sub_id: u32,
    pattern: String,
    interests: u8,
    min_interval: Duration,
    queue: Arc<SubscriberQueue>,
    /// Cleared on unsubscribe, under the queue lock, so no event can be
    /// enqueued after the unsubscribe ack.
    active: AtomicBool,
    watches: Mutex<HashMap<String, AppWatch>>,
    /// When this entry last swept for stalls (rate limiting the
    /// no-ingest-traffic health path).
    swept: Mutex<Option<Instant>>,
    /// True for federation-propagated subscriptions: every enqueued event
    /// gets the next monotone delivery cursor (assigned under the queue
    /// lock, so cursors follow queue order exactly) and drained events are
    /// retained for resume.
    cursored: bool,
    /// The last delivery cursor assigned (`0` = none yet). A resumed
    /// registration starts this at `resume_from - 1` so the continued
    /// stream picks up exactly where the parent left off.
    next_cursor: AtomicU64,
}

impl SubEntry {
    /// The subscription id chosen by the subscriber.
    pub fn sub_id(&self) -> u32 {
        self.sub_id
    }

    /// The application glob this subscription matches.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// True if this subscription wants `interest` (one of the
    /// [`heartbeats::observe::Interest`] bits).
    pub fn wants(&self, interest: u8) -> bool {
        self.interests & interest != 0
    }

    /// True if `app` matches this subscription's pattern.
    pub fn matches(&self, app: &str) -> bool {
        wire::glob_match(&self.pattern, app)
    }

    /// The raw interest bitmask this subscription was registered with
    /// (federation re-issues it verbatim when propagating down the tree).
    pub fn interests(&self) -> u8 {
        self.interests
    }

    /// The subscription's minimum update interval.
    pub fn min_interval(&self) -> Duration {
        self.min_interval
    }

    /// True while the subscription is registered.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// True if this subscription numbers its event stream (federation
    /// resume support).
    pub fn is_cursored(&self) -> bool {
        self.cursored
    }

    /// The last delivery cursor assigned to this subscription's stream
    /// (`0` = nothing delivered yet).
    pub fn last_cursor(&self) -> u64 {
        self.next_cursor.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// True if a snapshot event ([`Due::Snapshot`]) or a health
    /// (re-)assessment ([`Due::Assess`]) is due for `app` under the
    /// minimum interval, and records the time when it is.
    pub(crate) fn due(&self, what: Due, app: &str, now: Instant) -> bool {
        let mut watches = self.watches.lock().unwrap_or_else(|e| e.into_inner());
        let watch = watches.entry(app.to_string()).or_insert_with(AppWatch::new);
        let last = match what {
            Due::Snapshot => &mut watch.last_snapshot,
            Due::Assess => &mut watch.last_assessed,
        };
        let due = last.is_none_or(|at| now.duration_since(at) >= self.min_interval);
        if due {
            *last = Some(now);
        }
        due
    }

    /// Records `status` as the latest delivered classification for `app`,
    /// returning the previous one if this is a transition (`None` if the
    /// classification is unchanged — nothing to emit). The very first
    /// assessment reports a transition from [`HealthStatus::NoSignal`], so
    /// a fresh subscriber immediately learns the current state.
    pub(crate) fn health_transition(
        &self,
        app: &str,
        status: HealthStatus,
    ) -> Option<HealthStatus> {
        let mut watches = self.watches.lock().unwrap_or_else(|e| e.into_inner());
        let watch = watches.entry(app.to_string()).or_insert_with(AppWatch::new);
        match watch.last_health {
            None => {
                watch.last_health = Some(status);
                // A first report of NoSignal is not news.
                (status != HealthStatus::NoSignal).then_some(HealthStatus::NoSignal)
            }
            Some(previous) if previous != status => {
                watch.last_health = Some(status);
                Some(previous)
            }
            Some(_) => None,
        }
    }

    /// True if a stall sweep is due for this entry as a whole (and records
    /// the sweep time when it is).
    pub(crate) fn sweep_due(&self, now: Instant) -> bool {
        let mut swept = self.swept.lock().unwrap_or_else(|e| e.into_inner());
        let due = swept
            .map(|at| now.duration_since(at) >= self.min_interval.max(Duration::from_millis(10)))
            .unwrap_or(true);
        if due {
            *swept = Some(now);
        }
        due
    }
}

/// The collector's subscription registry: every live [`SubEntry`] across
/// every subscriber, plus the collector-wide event counters.
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    entries: Mutex<Vec<Arc<SubEntry>>>,
    /// Mirror of `entries.len()`, so the ingest hot path answers "nobody is
    /// subscribed" with one atomic load and no lock.
    count: AtomicUsize,
    events_enqueued: AtomicU64,
    events_dropped: AtomicU64,
}

impl SubscriptionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SubscriptionRegistry::default()
    }

    /// Registers a subscription for `queue`. Validates the pattern and
    /// interest mask and enforces [`MAX_SUBS_PER_CONNECTION`]; a `sub_id`
    /// already registered for this queue is replaced (the wire protocol
    /// scopes ids to the connection).
    pub fn register(
        &self,
        queue: &Arc<SubscriberQueue>,
        req: &SubscribeReq,
    ) -> Result<Arc<SubEntry>, SubStatus> {
        self.register_with(queue, req, false)
    }

    /// [`register`](Self::register) for a **cursored** subscription (the
    /// federation-propagated kind): enqueued events are numbered with
    /// monotone delivery cursors, drained events are retained for resume,
    /// and `req.resume_from` (when non-zero) continues an interrupted
    /// stream's numbering instead of restarting at 1.
    pub fn register_cursored(
        &self,
        queue: &Arc<SubscriberQueue>,
        req: &SubscribeReq,
    ) -> Result<Arc<SubEntry>, SubStatus> {
        self.register_with(queue, req, true)
    }

    fn register_with(
        &self,
        queue: &Arc<SubscriberQueue>,
        req: &SubscribeReq,
        cursored: bool,
    ) -> Result<Arc<SubEntry>, SubStatus> {
        let valid_interests = heartbeats::observe::Interest::from_bits(req.interests)
            .is_some_and(|mask| !mask.is_empty());
        if !wire::valid_subscribe_pattern(&req.pattern) || !valid_interests {
            return Err(SubStatus::InvalidFilter);
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let own = entries
            .iter()
            .filter(|e| Arc::ptr_eq(&e.queue, queue) && e.is_active())
            .count();
        let replacing = entries
            .iter()
            .any(|e| Arc::ptr_eq(&e.queue, queue) && e.sub_id == req.sub_id && e.is_active());
        if own >= MAX_SUBS_PER_CONNECTION && !replacing {
            return Err(SubStatus::TooManySubscriptions);
        }
        if replacing {
            self.remove_locked(&mut entries, queue, req.sub_id);
        }
        let entry = Arc::new(SubEntry {
            sub_id: req.sub_id,
            pattern: req.pattern.clone(),
            interests: req.interests,
            min_interval: Duration::from_nanos(req.min_interval_ns),
            queue: Arc::clone(queue),
            active: AtomicBool::new(true),
            watches: Mutex::new(HashMap::new()),
            swept: Mutex::new(None),
            cursored,
            // A resumed stream continues its numbering: the next assigned
            // cursor is exactly `resume_from`, so the parent sees no gap
            // where the reconnect happened.
            next_cursor: AtomicU64::new(if cursored {
                req.resume_from.saturating_sub(1)
            } else {
                0
            }),
        });
        entries.push(Arc::clone(&entry));
        self.count.store(entries.len(), Ordering::Release); // ordering: publishes the rebuilt entry table size; pairs with the Acquire count loads on the fan-out path
        queue.active.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        Ok(entry)
    }

    /// Cancels one subscription of `queue`, purging its queued events so
    /// nothing for it is delivered after the unsubscribe ack. Returns
    /// `true` if the subscription existed.
    pub fn unregister(&self, queue: &Arc<SubscriberQueue>, sub_id: u32) -> bool {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let removed = self.remove_locked(&mut entries, queue, sub_id);
        self.count.store(entries.len(), Ordering::Release); // ordering: publishes the rebuilt entry table size; pairs with the Acquire count loads on the fan-out path
        removed
    }

    fn remove_locked(
        &self,
        entries: &mut Vec<Arc<SubEntry>>,
        queue: &Arc<SubscriberQueue>,
        sub_id: u32,
    ) -> bool {
        let mut removed = false;
        entries.retain(|entry| {
            let hit = Arc::ptr_eq(&entry.queue, queue) && entry.sub_id == sub_id;
            if hit {
                // Deactivate under the queue lock so a concurrent deliver()
                // (which re-checks under the same lock) cannot enqueue after
                // the purge.
                let inner = queue.inner.lock().unwrap_or_else(|e| e.into_inner());
                entry.active.store(false, Ordering::Release); // ordering: marks the entry dead before the table shrinks; pairs with the fan-out's Acquire
                drop(inner);
                queue.purge(sub_id);
                queue.active.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                removed = true;
            }
            !hit
        });
        removed
    }

    /// Drops every subscription of `queue` (its connection closed).
    pub fn drop_queue(&self, queue: &Arc<SubscriberQueue>) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.retain(|entry| {
            let hit = Arc::ptr_eq(&entry.queue, queue);
            if hit {
                entry.active.store(false, Ordering::Release); // ordering: marks the entry dead before the table shrinks; pairs with the fan-out's Acquire
                queue.active.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            }
            !hit
        });
        self.count.store(entries.len(), Ordering::Release); // ordering: publishes the rebuilt entry table size; pairs with the Acquire count loads on the fan-out path
    }

    /// The subscriptions whose patterns match `app`. The zero-subscriber
    /// fast path — the common case on a collector nobody subscribed to —
    /// is one atomic load and an unallocated empty `Vec`.
    pub fn matching(&self, app: &str) -> Vec<Arc<SubEntry>> {
        // ordering: pairs with the Release store of the rebuilt table; zero short-circuits the fan-out
        if self.count.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .filter(|entry| entry.is_active() && entry.matches(app))
            .cloned()
            .collect()
    }

    /// The active subscriptions registered against `queue`.
    pub fn entries_for(&self, queue: &Arc<SubscriberQueue>) -> Vec<Arc<SubEntry>> {
        // ordering: pairs with the Release store of the rebuilt table; zero short-circuits the fan-out
        if self.count.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .filter(|entry| entry.is_active() && Arc::ptr_eq(&entry.queue, queue))
            .cloned()
            .collect()
    }

    /// Subscriptions currently registered.
    pub fn active(&self) -> usize {
        self.count.load(Ordering::Acquire) // ordering: pairs with the Release store of the rebuilt table
    }

    /// Every currently active subscription, regardless of queue. Federation
    /// replays these down a freshly (re)connected child link.
    pub fn all_active(&self) -> Vec<Arc<SubEntry>> {
        // ordering: pairs with the Release store of the rebuilt table; zero short-circuits the fan-out
        if self.count.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .filter(|entry| entry.is_active())
            .cloned()
            .collect()
    }

    /// Events enqueued toward subscribers since start.
    pub fn events_enqueued(&self) -> u64 {
        self.events_enqueued.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Events shed because a subscriber queue was full.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// One consistent `(enqueued, dropped)` reading: `dropped` is loaded
    /// first with acquire, pairing with the releasing drop increment in
    /// [`deliver`](Self::deliver), so the pair can never show more drops
    /// than enqueues — even when the scrape races a delivery.
    pub fn event_counters(&self) -> (u64, u64) {
        let dropped = self.events_dropped.load(Ordering::Acquire); // ordering: pairs with the Release drop increment so dropped <= enqueued holds in snapshots
        let enqueued = self.events_enqueued.load(Ordering::Relaxed).max(dropped); // ordering: relaxed is fine; max(dropped) repairs any straggling read
        (enqueued, dropped)
    }

    /// Encodes `payload` as one or more [`Frame::Event`]s for `entry` and
    /// enqueues them (beat payloads beyond [`wire::MAX_EVENT_BEATS`] are
    /// split). Skips silently if the subscription lapsed concurrently.
    pub fn deliver(&self, entry: &SubEntry, app: &str, payload: EventPayload) {
        if !entry.is_active() {
            return;
        }
        match payload {
            EventPayload::Beats {
                dropped_total,
                beats,
            } if beats.len() > wire::MAX_EVENT_BEATS => {
                for chunk in beats.chunks(wire::MAX_EVENT_BEATS) {
                    self.deliver_one(
                        entry,
                        app,
                        EventPayload::Beats {
                            dropped_total,
                            beats: chunk.to_vec(),
                        },
                    );
                }
            }
            payload => self.deliver_one(entry, app, payload),
        }
    }

    /// Fans one batch of beats out to every entry in `watchers`, encoding
    /// the `Event` frame **once per distinct `sub_id`** into a shared
    /// `Arc<[u8]>` that every matching subscriber queue then references —
    /// no per-subscriber re-serialization, no per-subscriber beat clone.
    /// Batches beyond [`wire::MAX_EVENT_BEATS`] are chunked like
    /// [`deliver`](Self::deliver). Returns how many frames were actually
    /// encoded (tests pin this to the distinct-id count).
    pub fn deliver_beats(
        &self,
        watchers: &[Arc<SubEntry>],
        app: &str,
        dropped_total: u64,
        beats: &[wire::WireBeat],
    ) -> usize {
        let mut encodes = 0;
        let sent_at_ns = telemetry::wall_clock_ns();
        let chunks = beats.chunks(wire::MAX_EVENT_BEATS).chain(
            // An empty batch still emits one (empty) event per watcher, as
            // the per-entry `deliver` path always did.
            std::iter::once(beats).filter(|_| beats.is_empty()),
        );
        for chunk in chunks {
            // Tiny linear cache: a fan-out sees a handful of distinct ids,
            // and commonly just one (every reader using the same sub_id).
            let mut encoded: Vec<(u32, Arc<[u8]>)> = Vec::new();
            for entry in watchers {
                if !entry.is_active() {
                    continue;
                }
                let bytes = match encoded.iter().find(|(id, _)| *id == entry.sub_id) {
                    Some((_, bytes)) => Arc::clone(bytes),
                    None => {
                        let frame = Frame::Event(EventFrame {
                            sub_id: entry.sub_id,
                            sent_at_ns,
                            // The wire cursor is a placeholder here: real
                            // cursors are assigned per-subscriber under the
                            // queue lock (enqueue_encoded) and spliced into
                            // the bytes at uplink-send time, because these
                            // encode-once bytes are shared across every
                            // same-sub_id subscriber.
                            cursor: 0,
                            app: app.to_string(),
                            payload: EventPayload::Beats {
                                dropped_total,
                                beats: chunk.to_vec(),
                            },
                        });
                        let bytes: Arc<[u8]> = Arc::from(frame.encode());
                        encodes += 1;
                        encoded.push((entry.sub_id, Arc::clone(&bytes)));
                        bytes
                    }
                };
                self.enqueue_encoded(entry, app, bytes);
            }
        }
        encodes
    }

    fn deliver_one(&self, entry: &SubEntry, app: &str, payload: EventPayload) {
        let frame = Frame::Event(EventFrame {
            sub_id: entry.sub_id,
            sent_at_ns: telemetry::wall_clock_ns(),
            cursor: 0,
            app: app.to_string(),
            payload,
        });
        self.enqueue_encoded(entry, app, Arc::from(frame.encode()));
    }

    fn enqueue_encoded(&self, entry: &SubEntry, app: &str, bytes: Arc<[u8]>) {
        // Re-check activity under the queue lock (see remove_locked): an
        // unsubscribed stream must stay silent after its purge.
        let mut inner = entry.queue.inner.lock().unwrap_or_else(|e| e.into_inner());
        if !entry.is_active() {
            return;
        }
        // Cursors are assigned here, under the queue mutex, so they are
        // monotone in queue order regardless of which delivery path (or
        // shard) produced the event. Non-cursored subscriptions ride with
        // cursor 0 — the wire encoding already carries that placeholder.
        let cursor = if entry.cursored {
            entry.next_cursor.fetch_add(1, Ordering::Relaxed) + 1 // ordering: cursor allocation; the atomic increment alone gives per-entry uniqueness
        } else {
            0
        };
        let mut dropped = false;
        if inner.len() >= entry.queue.capacity {
            inner.pop_front();
            entry.queue.dropped.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            dropped = true;
        }
        inner.push_back((entry.sub_id, bytes, cursor, Instant::now()));
        // Counter order pins the exported invariant dropped <= enqueued:
        // the enqueue increment precedes the drop's releasing increment, and
        // snapshot readers load `dropped` first with acquire — whatever drop
        // count a scrape observes, the matching enqueues are visible too.
        // (The queue lock serializes writers, so the pair never interleaves.)
        self.events_enqueued.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        if dropped {
            self.events_dropped.fetch_add(1, Ordering::Release); // ordering: pairs with the Acquire load in stats so dropped never exceeds enqueued there
        }
        drop(inner);
        if let Some(pump) = &*entry.queue.pump.lock().unwrap_or_else(|e| e.into_inner()) {
            pump.request();
        }
        if dropped {
            crate::log!(
                Level::Trace,
                "subscriber queue full: dropped oldest event sub={} app={app}",
                entry.sub_id
            );
        }
    }
}

/// An in-process subscription over an embedded
/// [`CollectorState`](crate::CollectorState) — the same fan-out machinery
/// the network observers use, without a socket. Used by embedders, tests
/// and the fan-out benchmarks.
#[derive(Debug)]
pub struct LocalSubscription {
    queue: Arc<SubscriberQueue>,
    registry: Arc<SubscriptionRegistry>,
    sub_id: u32,
}

impl LocalSubscription {
    pub(crate) fn new(
        queue: Arc<SubscriberQueue>,
        registry: Arc<SubscriptionRegistry>,
        sub_id: u32,
    ) -> Self {
        LocalSubscription {
            queue,
            registry,
            sub_id,
        }
    }

    /// Drains every queued event, decoded.
    pub fn drain(&self) -> Vec<EventFrame> {
        let mut bytes = Vec::new();
        while self.queue.drain_to_vec(&mut bytes, usize::MAX) > 0 {}
        let mut events = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            match Frame::decode(&bytes[at..]) {
                Ok((Frame::Event(event), used)) => {
                    events.push(event);
                    at += used;
                }
                Ok((_, used)) => at += used,
                Err(_) => break,
            }
        }
        events
    }

    /// Events shed from this subscriber's queue because it was slow.
    pub fn dropped(&self) -> u64 {
        self.queue.dropped()
    }

    /// The underlying subscriber queue (for
    /// [`CollectorState::sweep_local`](crate::CollectorState::sweep_local)).
    pub(crate) fn queue(&self) -> &Arc<SubscriberQueue> {
        &self.queue
    }

    /// Events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The subscription id this handle was registered under.
    pub(crate) fn sub_id(&self) -> u32 {
        self.sub_id
    }
}

impl Drop for LocalSubscription {
    fn drop(&mut self) {
        self.registry.unregister(&self.queue, self.sub_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(sub_id: u32, pattern: &str, interests: u8) -> SubscribeReq {
        SubscribeReq {
            sub_id,
            pattern: pattern.into(),
            interests,
            min_interval_ns: 0,
            resume_from: 0,
        }
    }

    fn snapshot_payload(total: u64) -> EventPayload {
        EventPayload::Snapshot {
            total_beats: total,
            producer_dropped: 0,
            rate_bps: None,
            target: None,
            alive: true,
        }
    }

    #[test]
    fn register_match_deliver_drain() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        assert!(
            registry.matching("cam7").is_empty(),
            "fast path before subs"
        );

        let entry = registry.register(&queue, &req(1, "cam*", 0b001)).unwrap();
        assert_eq!(registry.active(), 1);
        assert_eq!(queue.active_subs(), 1);
        assert!(entry.matches("cam7"));
        assert!(!entry.matches("dam7"));
        assert_eq!(registry.matching("cam7").len(), 1);
        assert!(registry.matching("other").is_empty());

        registry.deliver(&entry, "cam7", snapshot_payload(5));
        assert_eq!(registry.events_enqueued(), 1);
        let mut out = Vec::new();
        assert_eq!(queue.drain_to_vec(&mut out, usize::MAX), 1);
        let (frame, _) = Frame::decode(&out).unwrap();
        match frame {
            Frame::Event(event) => {
                assert_eq!(event.sub_id, 1);
                assert_eq!(event.app, "cam7");
                assert_eq!(event.payload, snapshot_payload(5));
            }
            other => panic!("expected event, got {other:?}"),
        }
    }

    #[test]
    fn invalid_filters_are_rejected() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(4));
        assert!(matches!(
            registry.register(&queue, &req(1, "bad pattern", 0b001)),
            Err(SubStatus::InvalidFilter)
        ));
        assert!(matches!(
            registry.register(&queue, &req(1, "ok", 0)),
            Err(SubStatus::InvalidFilter)
        ));
        assert!(matches!(
            registry.register(&queue, &req(1, "ok", 0b1000)),
            Err(SubStatus::InvalidFilter)
        ));
        assert_eq!(registry.active(), 0);
    }

    #[test]
    fn per_connection_subscription_bound() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(4));
        for i in 0..MAX_SUBS_PER_CONNECTION as u32 {
            registry.register(&queue, &req(i, "*", 0b001)).unwrap();
        }
        assert!(matches!(
            registry.register(&queue, &req(9999, "*", 0b001)),
            Err(SubStatus::TooManySubscriptions)
        ));
        // Replacing an existing id is always allowed.
        assert!(registry.register(&queue, &req(0, "narrow*", 0b001)).is_ok());
        assert_eq!(registry.active(), MAX_SUBS_PER_CONNECTION);
        // A second connection is unaffected by the first's bound.
        let other = Arc::new(SubscriberQueue::new(4));
        assert!(registry.register(&other, &req(0, "*", 0b001)).is_ok());
    }

    #[test]
    fn unregister_purges_pending_events() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        let keep = registry.register(&queue, &req(1, "*", 0b001)).unwrap();
        let gone = registry.register(&queue, &req(2, "*", 0b001)).unwrap();
        registry.deliver(&keep, "a", snapshot_payload(1));
        registry.deliver(&gone, "a", snapshot_payload(2));
        registry.deliver(&keep, "a", snapshot_payload(3));
        assert!(registry.unregister(&queue, 2));
        assert!(!registry.unregister(&queue, 2), "already gone");
        // Deliveries against the lapsed entry are silently skipped.
        registry.deliver(&gone, "a", snapshot_payload(4));
        let events = {
            let mut out = Vec::new();
            queue.drain_to_vec(&mut out, usize::MAX);
            let mut events = Vec::new();
            let mut at = 0;
            while at < out.len() {
                let (frame, used) = Frame::decode(&out[at..]).unwrap();
                if let Frame::Event(event) = frame {
                    events.push(event);
                }
                at += used;
            }
            events
        };
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.sub_id == 1), "sub 2 fully purged");
    }

    #[test]
    fn slow_subscriber_drops_oldest_with_accounting() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(4));
        let entry = registry.register(&queue, &req(1, "*", 0b001)).unwrap();
        for i in 0..10 {
            registry.deliver(&entry, "a", snapshot_payload(i));
        }
        assert_eq!(queue.len(), 4, "bounded at capacity");
        assert_eq!(queue.dropped(), 6, "oldest six shed");
        assert_eq!(registry.events_dropped(), 6);
        assert_eq!(registry.events_enqueued(), 10);
        // The retained events are the newest four.
        let mut out = Vec::new();
        queue.drain_to_vec(&mut out, usize::MAX);
        let (first, _) = Frame::decode(&out).unwrap();
        match first {
            Frame::Event(EventFrame {
                payload: EventPayload::Snapshot { total_beats, .. },
                ..
            }) => assert_eq!(total_beats, 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn event_counters_never_show_more_drops_than_enqueues() {
        let registry = Arc::new(SubscriptionRegistry::new());
        // Capacity 1 makes nearly every delivery also a drop — the tightest
        // race between the two counters.
        let queue = Arc::new(SubscriberQueue::new(1));
        let entry = registry.register(&queue, &req(1, "*", 0b001)).unwrap();
        let writer = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                for i in 0..20_000 {
                    registry.deliver(&entry, "a", snapshot_payload(i));
                }
            })
        };
        while !writer.is_finished() {
            let (enqueued, dropped) = registry.event_counters();
            assert!(
                dropped <= enqueued,
                "scrape raced ahead: dropped={dropped} enqueued={enqueued}"
            );
        }
        writer.join().unwrap();
        let (enqueued, dropped) = registry.event_counters();
        assert_eq!(enqueued, 20_000);
        assert_eq!(dropped, 19_999, "capacity-1 queue keeps only the newest");
    }

    #[test]
    fn delivery_lag_histogram_fills_at_drain() {
        let registry = SubscriptionRegistry::new();
        let lag = Arc::new(LatencyHisto::new());
        let queue = Arc::new(SubscriberQueue::with_telemetry(16, Some(Arc::clone(&lag))));
        let entry = registry.register(&queue, &req(1, "*", 0b001)).unwrap();
        for i in 0..3 {
            registry.deliver(&entry, "a", snapshot_payload(i));
        }
        assert_eq!(lag.count(), 0, "lag is measured at drain, not enqueue");
        let mut out = Vec::new();
        queue.drain_to_vec(&mut out, usize::MAX);
        assert_eq!(lag.count(), 3);
        // Events also carry the collector's wall-clock send timestamp.
        let (frame, _) = Frame::decode(&out).unwrap();
        match frame {
            Frame::Event(event) => assert!(event.sent_at_ns > 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_beat_events_are_chunked() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(64));
        let entry = registry.register(&queue, &req(1, "*", 0b100)).unwrap();
        let beats: Vec<wire::WireBeat> = (0..wire::MAX_EVENT_BEATS as u64 + 10)
            .map(|i| wire::WireBeat {
                record: heartbeats::HeartbeatRecord::new(
                    i,
                    i * 1_000,
                    heartbeats::Tag::NONE,
                    heartbeats::BeatThreadId(0),
                ),
                scope: heartbeats::BeatScope::Global,
            })
            .collect();
        registry.deliver(
            &entry,
            "big",
            EventPayload::Beats {
                dropped_total: 0,
                beats,
            },
        );
        assert_eq!(queue.len(), 2, "split into two events");
        let mut out = Vec::new();
        queue.drain_to_vec(&mut out, usize::MAX);
        let (first, used) = Frame::decode(&out).unwrap();
        let (second, _) = Frame::decode(&out[used..]).unwrap();
        let count = |frame: &Frame| match frame {
            Frame::Event(EventFrame {
                payload: EventPayload::Beats { beats, .. },
                ..
            }) => beats.len(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(count(&first), wire::MAX_EVENT_BEATS);
        assert_eq!(count(&second), 10);
    }

    #[test]
    fn health_transition_bookkeeping() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(4));
        let entry = registry.register(&queue, &req(1, "*", 0b010)).unwrap();
        // First assessment transitions from NoSignal, even to NoSignal? No:
        // the first Healthy report transitions from NoSignal...
        assert_eq!(
            entry.health_transition("a", HealthStatus::Healthy),
            Some(HealthStatus::NoSignal)
        );
        // ...repeats are silent...
        assert_eq!(entry.health_transition("a", HealthStatus::Healthy), None);
        // ...and changes report the previous state.
        assert_eq!(
            entry.health_transition("a", HealthStatus::Stalled),
            Some(HealthStatus::Healthy)
        );
    }

    #[test]
    fn deliver_beats_encodes_once_per_distinct_sub_id() {
        let registry = SubscriptionRegistry::new();
        // Three subscribers on separate connections; two share sub_id 1.
        let queues: Vec<Arc<SubscriberQueue>> =
            (0..3).map(|_| Arc::new(SubscriberQueue::new(8))).collect();
        let entries: Vec<Arc<SubEntry>> = [(0, 1u32), (1, 1u32), (2, 7u32)]
            .iter()
            .map(|&(q, id)| registry.register(&queues[q], &req(id, "*", 0b100)).unwrap())
            .collect();
        let beats: Vec<wire::WireBeat> = (0..4)
            .map(|i| wire::WireBeat {
                record: heartbeats::HeartbeatRecord::new(
                    i,
                    i * 1_000_000,
                    heartbeats::Tag::NONE,
                    heartbeats::BeatThreadId(0),
                ),
                scope: heartbeats::BeatScope::Global,
            })
            .collect();
        let encodes = registry.deliver_beats(&entries, "shared", 3, &beats);
        assert_eq!(
            encodes, 2,
            "one encode per distinct sub_id, not per subscriber"
        );
        assert_eq!(
            registry.events_enqueued(),
            3,
            "every subscriber still enqueued"
        );
        for (queue, want_id) in queues.iter().zip([1u32, 1, 7]) {
            let mut out = Vec::new();
            assert_eq!(queue.drain_to_vec(&mut out, usize::MAX), 1);
            match Frame::decode(&out).unwrap().0 {
                Frame::Event(event) => {
                    assert_eq!(event.sub_id, want_id);
                    assert_eq!(event.app, "shared");
                    match event.payload {
                        EventPayload::Beats {
                            dropped_total,
                            beats,
                        } => {
                            assert_eq!(dropped_total, 3);
                            assert_eq!(beats.len(), 4);
                        }
                        other => panic!("unexpected payload {other:?}"),
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn deliver_beats_shares_bytes_into_outbound_buffers() {
        let registry = SubscriptionRegistry::new();
        let queues: Vec<Arc<SubscriberQueue>> =
            (0..4).map(|_| Arc::new(SubscriberQueue::new(8))).collect();
        let entries: Vec<Arc<SubEntry>> = queues
            .iter()
            .map(|q| registry.register(q, &req(1, "*", 0b100)).unwrap())
            .collect();
        let beats = vec![wire::WireBeat {
            record: heartbeats::HeartbeatRecord::new(
                0,
                1_000,
                heartbeats::Tag::NONE,
                heartbeats::BeatThreadId(0),
            ),
            scope: heartbeats::BeatScope::Global,
        }];
        assert_eq!(registry.deliver_beats(&entries, "fan", 0, &beats), 1);
        // Drain every queue into an OutBuf: all four hold the same bytes,
        // and the buffers reference them without copying.
        let mut bufs: Vec<OutBuf> = (0..4).map(|_| OutBuf::new()).collect();
        let mut flattened = Vec::new();
        for (queue, buf) in queues.iter().zip(bufs.iter_mut()) {
            assert_eq!(queue.drain_into(buf, usize::MAX), 1);
            let bytes: Vec<u8> = buf.iter_slices().flatten().copied().collect();
            flattened.push(bytes);
        }
        assert!(flattened.windows(2).all(|w| w[0] == w[1]));
        let (frame, _) = Frame::decode(&flattened[0]).unwrap();
        assert!(matches!(frame, Frame::Event(_)));
    }

    #[test]
    fn drain_respects_byte_budget_but_always_moves_one() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        let entry = registry.register(&queue, &req(1, "*", 0b001)).unwrap();
        for i in 0..5 {
            registry.deliver(&entry, "a", snapshot_payload(i));
        }
        let mut out = Vec::new();
        assert_eq!(
            queue.drain_to_vec(&mut out, 1),
            1,
            "budget floor is one event"
        );
        let before = out.len();
        assert_eq!(queue.drain_to_vec(&mut out, usize::MAX), 4);
        assert!(out.len() > before);
    }

    /// An observer connection reduced to its pump path: the queue is created
    /// with the connection's pump handle at install and drained on request.
    struct QueueDrain(Arc<std::sync::OnceLock<Arc<SubscriberQueue>>>);

    impl crate::reactor::Handler for QueueDrain {
        fn on_data(&mut self, _input: &[u8], _out: &mut OutBuf) -> bool {
            true
        }

        fn on_install(&mut self, pump: PumpHandle) {
            let queue = SubscriberQueue::new(4096).with_pump(Some(pump));
            self.0.set(Arc::new(queue)).expect("installed once");
        }

        fn on_pump(
            &mut self,
            out: &mut OutBuf,
            _pending_out: usize,
            _cause: crate::reactor::PumpCause,
        ) -> bool {
            if let Some(queue) = self.0.get() {
                queue.drain_into(out, usize::MAX);
            }
            true
        }
    }

    #[test]
    fn concurrent_enqueuers_wake_a_parked_shard_without_losing_or_reordering_events() {
        use crate::reactor::{ListenerSpec, Reactor, ReactorConfig};
        use crate::telemetry::ReactorThreads;
        use std::io::Read;

        const ENQUEUERS: u32 = 4;
        const EVENTS: u64 = 300;
        let registry = Arc::new(SubscriptionRegistry::new());
        let installed = Arc::new(std::sync::OnceLock::new());
        let threads = Arc::new(ReactorThreads::new());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handler_queue = Arc::clone(&installed);
        let _reactor = Reactor::spawn(
            vec![ListenerSpec {
                listener,
                factory: Arc::new(move |_| {
                    Box::new(QueueDrain(Arc::clone(&handler_queue)))
                        as Box<dyn crate::reactor::Handler>
                }),
            }],
            ReactorConfig {
                io_threads: 1,
                thread_stats: Some(Arc::clone(&threads)),
                // The only way an event reaches the socket is a wake-up.
                timed_pass: false,
                ..ReactorConfig::default()
            },
            Arc::new(AtomicU64::new(0)),
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let timeout = Some(Duration::from_secs(10));
        stream.set_read_timeout(timeout).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let queue = loop {
            if let Some(queue) = installed.get() {
                break Arc::clone(queue);
            }
            assert!(Instant::now() < deadline, "connection never installed");
            std::thread::sleep(Duration::from_millis(1));
        };
        let entries: Vec<Arc<SubEntry>> = (0..ENQUEUERS)
            .map(|id| registry.register(&queue, &req(id, "*", 0b001)).unwrap())
            .collect();

        // Rounds: every enqueuer delivers its next event as soon as the
        // reader holds all of the previous round, so each round's enqueues
        // race each other and the drain the first of them woke — and a
        // wake-up lost at the end of any round strands that round for good.
        let received = Arc::new(AtomicU64::new(0));
        let enqueuers: Vec<_> = entries
            .into_iter()
            .map(|entry| {
                let registry = Arc::clone(&registry);
                let received = Arc::clone(&received);
                std::thread::spawn(move || {
                    for seq in 0..EVENTS {
                        while received.load(Ordering::Acquire) < seq * ENQUEUERS as u64 {
                            std::thread::yield_now();
                        }
                        registry.deliver(&entry, "a", snapshot_payload(seq));
                    }
                })
            })
            .collect();

        let mut next_seq = [0u64; ENQUEUERS as usize];
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        let mut held = 0;
        while held < ENQUEUERS as u64 * EVENTS {
            let n = stream
                .read(&mut chunk)
                .expect("lost wake-up: event missing");
            assert!(n > 0, "reactor closed the connection");
            bytes.extend_from_slice(&chunk[..n]);
            let mut at = 0;
            while let Ok((Frame::Event(event), used)) = Frame::decode(&bytes[at..]) {
                let EventPayload::Snapshot { total_beats, .. } = event.payload else {
                    panic!("unexpected payload {:?}", event.payload);
                };
                let expected = &mut next_seq[event.sub_id as usize];
                assert_eq!(
                    total_beats, *expected,
                    "sub {} out of order or duplicated",
                    event.sub_id
                );
                *expected += 1;
                held += 1;
                at += used;
            }
            bytes.drain(..at);
            received.store(held, Ordering::Release);
        }
        for enqueuer in enqueuers {
            enqueuer.join().unwrap();
        }
        assert_eq!(next_seq, [EVENTS; ENQUEUERS as usize]);
        assert!(bytes.is_empty() && queue.is_empty(), "exactly once");
        assert_eq!(queue.dropped(), 0);
        let shard = threads.snapshot().remove(0);
        assert_eq!(shard.pumps_timer, 0, "the timed pass was disabled");
        assert!(shard.wakeups >= 1 && shard.pumps_wake >= 1, "{shard:?}");
        assert!(
            shard.pumps_wake <= ENQUEUERS as u64 * EVENTS,
            "at most one pump per enqueue: {shard:?}"
        );
    }

    #[test]
    fn cursored_subscription_numbers_events_monotonically() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        let entry = registry
            .register_cursored(&queue, &req(1, "*", 0b001))
            .unwrap();
        assert!(entry.is_cursored());
        assert_eq!(entry.last_cursor(), 0);
        for i in 0..5 {
            registry.deliver(&entry, "a", snapshot_payload(i));
        }
        assert_eq!(entry.last_cursor(), 5);
        let mut cursors = Vec::new();
        queue.drain_events(usize::MAX, |_, cursor| cursors.push(cursor));
        assert_eq!(cursors, vec![1, 2, 3, 4, 5]);
        // Drained cursored events land in the replay ring, ready for resume.
        let replay = queue.replay_events(1, 3);
        assert_eq!(
            replay.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn resumed_registration_continues_cursor_numbering() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        let mut resume = req(7, "*", 0b001);
        resume.resume_from = 42;
        let entry = registry.register_cursored(&queue, &resume).unwrap();
        registry.deliver(&entry, "a", snapshot_payload(0));
        assert_eq!(entry.last_cursor(), 42, "first cursor is resume_from");
        // Non-cursored registrations ignore resume_from entirely.
        let plain_queue = Arc::new(SubscriberQueue::new(16));
        let plain = registry.register(&plain_queue, &resume).unwrap();
        registry.deliver(&plain, "a", snapshot_payload(0));
        assert!(!plain.is_cursored());
        assert_eq!(plain.last_cursor(), 0);
        let mut cursors = Vec::new();
        plain_queue.drain_events(usize::MAX, |_, cursor| cursors.push(cursor));
        assert_eq!(cursors, vec![0]);
    }

    #[test]
    fn purge_discards_replay_ring_so_reused_sub_id_cannot_resurrect() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        let entry = registry
            .register_cursored(&queue, &req(3, "*", 0b001))
            .unwrap();
        for i in 0..4 {
            registry.deliver(&entry, "a", snapshot_payload(i));
        }
        queue.drain_events(usize::MAX, |_, _| {});
        assert_eq!(queue.replay_events(3, 1).len(), 4);
        // Unsubscribe purges pending events AND the replay ring.
        assert!(registry.unregister(&queue, 3));
        assert!(
            queue.replay_events(3, 1).is_empty(),
            "stale replay ring must not survive the purge"
        );
        // A fresh subscription reusing sub_id 3 starts a clean stream.
        let reused = registry
            .register_cursored(&queue, &req(3, "*", 0b001))
            .unwrap();
        registry.deliver(&reused, "a", snapshot_payload(9));
        queue.drain_events(usize::MAX, |_, _| {});
        let replay = queue.replay_events(3, 1);
        assert_eq!(replay.len(), 1, "only the new stream's events replay");
        assert_eq!(replay[0].0, 1, "numbering restarted at 1");
    }

    #[test]
    fn replay_ring_is_bounded_with_exact_accounting() {
        let registry = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(4));
        let entry = registry
            .register_cursored(&queue, &req(1, "*", 0b001))
            .unwrap();
        // Ten events through a capacity-4 queue: drain in lockstep so none
        // are shed from the live queue, then the replay ring itself must
        // bound at capacity, dropping oldest with accounting.
        for i in 0..10 {
            registry.deliver(&entry, "a", snapshot_payload(i));
            queue.drain_events(usize::MAX, |_, _| {});
        }
        let replay = queue.replay_events(1, 1);
        assert_eq!(replay.len(), 4, "ring bounded at queue capacity");
        assert_eq!(
            replay.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "newest retained, oldest shed"
        );
        assert_eq!(queue.replay_dropped(), 6, "every shed entry accounted");
    }
}
