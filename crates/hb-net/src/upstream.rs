//! Federation uplink: a collector re-exporting its registry to a parent.
//!
//! A leaf (or mid-tier) collector configured with an
//! [`UpstreamConfig`] runs one background **relay** thread that connects
//! to the parent's *ingest* port and speaks the existing wire v3, opening
//! with a [`Frame::NodeHello`] instead of a producer hello. Two planes
//! flow over the same link:
//!
//! * **Rollup plane (exactly-once).** Every batch the child ingests is
//!   also captured by an [`UpstreamTap`] — a bounded drop-oldest queue
//!   that never blocks ingest. The relay drains it into
//!   [`Frame::RelayEvent`]s (compact Beats bodies, link-sequence-numbered)
//!   and retransmits anything unacknowledged after a reconnect; the parent
//!   applies each sequence at most once and answers with cumulative
//!   [`Frame::RelayAck`]s. Beats shed by a full tap are counted per app
//!   and folded into the forwarded `dropped_total`, so at quiesce the
//!   parent's `total + dropped` for `node/app` equals the child's exactly
//!   — no loss unaccounted, no double-counting (see `docs/FEDERATION.md`
//!   for the rollup math).
//! * **Event plane (subscription propagation).** When an observer
//!   subscribes at the parent with a pattern that could match `node/…`,
//!   the parent pushes a translated [`Frame::Subscribe`] down this link.
//!   The relay registers it as a real local **cursored** subscription (so
//!   propagation recurses through mid tiers) and forwards the resulting
//!   Event frames with monotone per-subscription cursors spliced in; the
//!   parent re-prefixes the names, re-filters against the original
//!   pattern, and deduplicates by cursor. Across a reconnect the parent
//!   re-subscribes with `resume_from = last seen cursor + 1` and the relay
//!   replays from its bounded replay ring — the event plane is gap-free
//!   through link failures as long as the ring holds (ring overflow is
//!   counted, never silent).
//!
//! The link itself is hardened: the opening [`Frame::NodeHello`] carries
//! the child's downstream **path vector** so a parent can refuse relay
//! cycles at connect time, and when both ends share a cluster secret the
//! parent challenges the hello with [`Frame::NodeChallenge`] and only
//! accepts a keyed-HMAC [`Frame::NodeAuth`] answer (see
//! `docs/FEDERATION.md` § Security).
//!
//! When the parent is unreachable the relay backs off with **full
//! jitter**: each wait is drawn uniformly from zero up to the current
//! exponential bound, between [`UpstreamConfig::backoff_min`] and
//! [`UpstreamConfig::backoff_max`] — simultaneous leaf reconnects spread
//! out instead of thundering the parent in lockstep. The jitter RNG is
//! seeded from the node name, so a given node's schedule is reproducible.
//! Local ingest, queries and local subscribers are never affected by
//! uplink failures.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::auth;
use crate::collector::CollectorState;
use crate::frame::{FrameDecoder, FrameEvent};
use crate::reactor::PumpHandle;
use crate::subscribe::{LocalSubscription, SubEntry};
use crate::telemetry::{self, Level};
use crate::wire::{
    splice_event_cursor, EventFrame, EventPayload, Frame, SubscribeReq, WireBeat, MAX_EVENT_BEATS,
};

/// Configuration for a collector's upstream relay (the `--upstream` /
/// `--node-name` flags of `hb-collector`).
#[derive(Debug, Clone)]
pub struct UpstreamConfig {
    /// The parent collector's **ingest** address (`HOST:PORT`).
    pub parent: String,
    /// This collector's federation node name; every re-exported
    /// application appears at the parent as `node/app`. Must satisfy
    /// [`crate::wire::valid_node_name`].
    pub node: String,
    /// Relay loop tick: the cadence of tap drains, queue forwards and
    /// socket reads.
    pub tick: Duration,
    /// Batches buffered in the [`UpstreamTap`] before the oldest is shed
    /// (shed beats are counted per app and reported upward exactly).
    pub tap_capacity: usize,
    /// Rollup events in flight (sent but unacknowledged) before the relay
    /// pauses tap draining — backpressure then lands on the tap, where
    /// shedding is exactly accounted.
    pub unacked_capacity: usize,
    /// First reconnect delay after a link failure.
    pub backoff_min: Duration,
    /// Reconnect delay ceiling (the backoff doubles up to this). The
    /// actual wait is drawn uniformly from `0..bound` (full jitter).
    pub backoff_max: Duration,
    /// Shared cluster secret for uplink authentication. When the parent
    /// runs with `--cluster-secret` it challenges every NodeHello; a relay
    /// without the matching secret cannot establish the link.
    pub secret: Option<String>,
}

impl UpstreamConfig {
    /// A relay configuration with default tuning for `parent`/`node`.
    pub fn new(parent: impl Into<String>, node: impl Into<String>) -> Self {
        UpstreamConfig {
            parent: parent.into(),
            node: node.into(),
            tick: Duration::from_millis(2),
            tap_capacity: 4096,
            unacked_capacity: 1024,
            backoff_min: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            secret: None,
        }
    }
}

/// One captured ingest batch awaiting re-export.
#[derive(Debug)]
struct TapItem {
    app: String,
    /// The producer's cumulative drop counter at capture time.
    producer_dropped: u64,
    beats: Vec<WireBeat>,
}

/// Per-app tap-shed accounting: cumulative beats dropped from the tap and
/// the last producer drop counter seen, so a drop can be announced upward
/// as an exact `dropped_total` even when the shed item itself is gone.
#[derive(Debug, Default, Clone, Copy)]
struct TapDrops {
    tap_dropped: u64,
    producer_dropped: u64,
}

#[derive(Debug, Default)]
struct TapInner {
    items: VecDeque<TapItem>,
    drops: HashMap<String, TapDrops>,
    /// Apps whose shed counter rose since last announced upward.
    announce: VecDeque<String>,
}

/// The bounded capture queue between a collector's ingest path and its
/// upstream relay. Ingest never blocks on it: when full, the oldest batch
/// is shed and its beats are added to the per-app drop counter that the
/// relay folds into the next forwarded `dropped_total` — loss is exact,
/// never silent.
#[derive(Debug)]
pub struct UpstreamTap {
    capacity: usize,
    inner: Mutex<TapInner>,
    dropped_beats: AtomicU64,
    captured_beats: AtomicU64,
}

impl UpstreamTap {
    pub(crate) fn new(capacity: usize) -> Self {
        UpstreamTap {
            capacity: capacity.max(1),
            inner: Mutex::new(TapInner::default()),
            dropped_beats: AtomicU64::new(0),
            captured_beats: AtomicU64::new(0),
        }
    }

    /// Captures one ingested batch for re-export. Called on the ingest
    /// path *after* the registry absorbed the batch; `producer_dropped` is
    /// the producer's cumulative drop counter carried by the batch.
    pub(crate) fn capture(&self, app: &str, producer_dropped: u64, beats: Vec<WireBeat>) {
        self.captured_beats
            .fetch_add(beats.len() as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.items.len() >= self.capacity {
            let Some(shed) = inner.items.pop_front() else {
                break;
            };
            self.dropped_beats
                .fetch_add(shed.beats.len() as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            let drops = inner.drops.entry(shed.app.clone()).or_default();
            drops.tap_dropped += shed.beats.len() as u64;
            drops.producer_dropped = drops.producer_dropped.max(shed.producer_dropped);
            if !inner.announce.iter().any(|a| a == &shed.app) {
                inner.announce.push_back(shed.app);
            }
        }
        inner.items.push_back(TapItem {
            app: app.to_string(),
            producer_dropped,
            beats,
        });
    }

    /// Pops the oldest captured batch together with the app's cumulative
    /// tap-shed count (to fold into the forwarded `dropped_total`).
    fn pop_item(&self) -> Option<(TapItem, u64)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let item = inner.items.pop_front()?;
        let tap_dropped = inner
            .drops
            .get(&item.app)
            .map(|d| d.tap_dropped)
            .unwrap_or(0);
        Some((item, tap_dropped))
    }

    /// Pops one pending shed announcement: `(app, producer_dropped,
    /// tap_dropped)`. Announcements cover the case where the *latest*
    /// batch of an app was shed, so no surviving item would ever carry the
    /// raised drop counter upward.
    fn pop_announcement(&self) -> Option<(String, u64, u64)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let app = inner.announce.pop_front()?;
        let drops = inner.drops.get(&app).copied().unwrap_or_default();
        Some((app, drops.producer_dropped, drops.tap_dropped))
    }

    /// Beats shed from the tap since start (the leaf-side loss counter the
    /// federation soak reconciles against the root).
    pub fn dropped_beats(&self) -> u64 {
        self.dropped_beats.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Beats captured into the tap since start.
    pub fn captured_beats(&self) -> u64 {
        self.captured_beats.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).items.len()
    }
}

/// Shared counters describing a collector's uplink, exported as
/// `hb_collector_upstream_*` and in `STATS`.
#[derive(Debug, Default)]
pub struct UpstreamStats {
    connected: AtomicBool,
    forwarded_beats: AtomicU64,
    forwarded_events: AtomicU64,
    reconnects: AtomicU64,
    retransmits: AtomicU64,
}

impl UpstreamStats {
    /// True while the relay holds an established, acknowledged link.
    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Beats forwarded to the parent (first transmissions only).
    pub fn forwarded_beats(&self) -> u64 {
        self.forwarded_beats.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Propagated-subscription event frames forwarded to the parent.
    pub fn forwarded_events(&self) -> u64 {
        self.forwarded_events.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Successful link establishments after the first (each preceded by a
    /// backoff walk).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Rollup events re-sent after a reconnect because no ack covered them.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }
}

/// One downlink subscription route: the parent-side entry it feeds plus
/// the resume watermark — the highest event cursor delivered through it.
/// Routes persist across the child's reconnects so the watermark survives
/// and the parent can ask the child to resume from `last_cursor + 1`.
#[derive(Debug)]
pub(crate) struct RouteState {
    pub(crate) entry: Arc<SubEntry>,
    /// Highest cursor accepted on this route (0 = none yet).
    last_cursor: AtomicU64,
}

impl RouteState {
    /// Highest cursor delivered through this route (the resume point is
    /// one past it).
    pub(crate) fn last_seen_cursor(&self) -> u64 {
        self.last_cursor.load(Ordering::Acquire) // ordering: pairs with the AcqRel fetch_update that advances the cursor
    }
}

/// Verdict of cursor-checking one relayed event against its route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CursorVerdict {
    /// Next expected (or first) cursor — deliver it.
    Fresh,
    /// At or below the watermark: a replay overlap — drop it.
    Duplicate,
    /// Above `watermark + 1`: this many cursors were skipped (counted,
    /// then delivered — the stream stays live past an accounted loss).
    Gap(u64),
}

/// Parent-side state of one child link, keyed by node name and persistent
/// across that child's reconnects (so `last_applied` survives and
/// retransmitted sequences stay exactly-once).
#[derive(Debug)]
pub(crate) struct UpstreamLink {
    pub(crate) node: String,
    connected: AtomicBool,
    /// Monotone session counter: each NodeHello bumps it, and only the
    /// handler holding the current session may flip `connected` off — a
    /// stale connection's close must not mark a fresh one down.
    session: AtomicU64,
    last_applied: AtomicU64,
    /// Subscribe/Unsubscribe frames awaiting the serving connection's pump.
    outbox: Mutex<Vec<u8>>,
    /// Requests that pump when a frame is queued; belongs to whichever
    /// connection serves the current session.
    pump: Mutex<Option<PumpHandle>>,
    next_downlink: AtomicU32,
    /// Downlink subscription id → its route. Persistent across reconnects
    /// (resume watermarks live here); entries are retired only when their
    /// parent-side subscription lapses.
    routes: Mutex<HashMap<u32, Arc<RouteState>>>,
    /// The downstream path the child announced in its latest NodeHello
    /// (its own node name plus everything below it) — folded into this
    /// collector's own announced path for loop detection one tier up.
    path: Mutex<Vec<String>>,
    relayed_beats: AtomicU64,
    relayed_events: AtomicU64,
    duplicate_events: AtomicU64,
    /// Cursored events dropped as replay overlaps (at/below watermark).
    event_duplicates: AtomicU64,
    /// Cursors skipped on this link's event streams (ring overflow at the
    /// child while disconnected) — loss is counted, never silent.
    event_gaps: AtomicU64,
    /// Relayed names whose `node/` prefix overflowed the wire name limit
    /// (dropped — bounded node names make this unreachable for valid
    /// children, but the counter keeps it observable).
    oversize_names: AtomicU64,
}

impl UpstreamLink {
    pub(crate) fn new(node: &str) -> Self {
        UpstreamLink {
            node: node.to_string(),
            connected: AtomicBool::new(false),
            session: AtomicU64::new(0),
            last_applied: AtomicU64::new(0),
            outbox: Mutex::new(Vec::new()),
            pump: Mutex::new(None),
            next_downlink: AtomicU32::new(1),
            routes: Mutex::new(HashMap::new()),
            path: Mutex::new(Vec::new()),
            relayed_beats: AtomicU64::new(0),
            relayed_events: AtomicU64::new(0),
            duplicate_events: AtomicU64::new(0),
            event_duplicates: AtomicU64::new(0),
            event_gaps: AtomicU64::new(0),
            oversize_names: AtomicU64::new(0),
        }
    }

    /// Starts a new link session: marks the link connected, clears the
    /// stale outbox and returns the session token the serving handler must
    /// present at close. Routes deliberately survive — their watermarks
    /// are the resume points the new session subscribes from.
    pub(crate) fn begin_session(&self) -> u64 {
        let session = self.session.fetch_add(1, Ordering::AcqRel) + 1; // ordering: a new session orders after the old one's teardown and before its own stores
        self.connected.store(true, Ordering::Release); // ordering: publishes the session flip; pairs with Acquire readers
        self.outbox.lock().unwrap_or_else(|e| e.into_inner()).clear();
        session
    }

    /// The current session token (only the connection holding it may act
    /// for the link).
    pub(crate) fn current_session(&self) -> u64 {
        self.session.load(Ordering::Acquire) // ordering: pairs with the AcqRel session bump; a stale session sees it lost
    }

    /// Ends `session` if it is still the current one. Routes are kept for
    /// resume; stale ones are retired by `collect_dead_routes`.
    pub(crate) fn end_session(&self, session: u64) {
        if self.session.load(Ordering::Acquire) == session { // ordering: pairs with the AcqRel session bump; only the current session may clear the flag
            self.connected.store(false, Ordering::Release); // ordering: publishes the disconnect; pairs with Acquire readers
        }
    }

    /// Records the downstream path from the child's latest NodeHello.
    pub(crate) fn set_path(&self, path: Vec<String>) {
        *self.path.lock().unwrap_or_else(|e| e.into_inner()) = path;
    }

    /// The child's announced downstream path (empty when disconnected or
    /// the child predates path vectors).
    pub(crate) fn announced_path(&self) -> Vec<String> {
        self.path.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub(crate) fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Acquire) // ordering: pairs with the Release writers so observers see applied state
    }

    pub(crate) fn last_applied(&self) -> u64 {
        self.last_applied.load(Ordering::Acquire) // ordering: pairs with the AcqRel apply claim; readers see a fully applied seq
    }

    /// Atomically claims rollup sequence `seq`, returning `true` exactly
    /// once per sequence across every connection serving this link. During
    /// a reconnect the old socket's still-buffered copy of a window and
    /// the new socket's retransmit of it can race on different reactor
    /// shards; a load-then-store watermark would let both through and
    /// apply the window twice.
    pub(crate) fn claim_seq(&self, seq: u64) -> bool {
        self.last_applied
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| { // ordering: CAS claim of the apply watermark; one winner per seq (the PR 9 reconnect-overlap fix)
                (seq > cur).then_some(seq)
            })
            .is_ok()
    }

    pub(crate) fn count_duplicate(&self) {
        self.duplicate_events.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    pub(crate) fn count_relayed_beats(&self, n: u64) {
        self.relayed_beats.fetch_add(n, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    pub(crate) fn count_relayed_event(&self) {
        self.relayed_events.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    pub(crate) fn count_oversize(&self) {
        self.oversize_names.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Allocates a fresh downlink subscription id and records its route.
    pub(crate) fn add_route(&self, entry: Arc<SubEntry>) -> u32 {
        let id = self.next_downlink.fetch_add(1, Ordering::Relaxed); // ordering: downlink-id allocation; only atomicity matters
        self.routes.lock().unwrap_or_else(|e| e.into_inner()).insert(
            id,
            Arc::new(RouteState {
                entry,
                last_cursor: AtomicU64::new(0),
            }),
        );
        id
    }

    pub(crate) fn route(&self, sub_id: u32) -> Option<Arc<RouteState>> {
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&sub_id)
            .cloned()
    }

    /// Existing downlink id for `entry`, if a route already feeds it (the
    /// reconnect path re-subscribes the same id with a resume cursor).
    pub(crate) fn route_for(&self, entry: &Arc<SubEntry>) -> Option<(u32, Arc<RouteState>)> {
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|(_, r)| Arc::ptr_eq(&r.entry, entry))
            .map(|(&id, r)| (id, Arc::clone(r)))
    }

    /// Removes every route feeding `entry`, returning the downlink ids to
    /// unsubscribe at the child.
    pub(crate) fn remove_routes_for(&self, entry: &Arc<SubEntry>) -> Vec<u32> {
        let mut routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        let ids: Vec<u32> = routes
            .iter()
            .filter(|(_, r)| Arc::ptr_eq(&r.entry, entry))
            .map(|(&id, _)| id)
            .collect();
        for id in &ids {
            routes.remove(id);
        }
        ids
    }

    /// Removes routes whose entries went inactive without an explicit
    /// retraction (e.g. a dropped [`LocalSubscription`]), returning their
    /// downlink ids.
    pub(crate) fn collect_dead_routes(&self) -> Vec<u32> {
        let mut routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        let ids: Vec<u32> = routes
            .iter()
            .filter(|(_, r)| !r.entry.is_active())
            .map(|(&id, _)| id)
            .collect();
        for id in &ids {
            routes.remove(id);
        }
        ids
    }

    /// Cursor-checks one relayed event against its route's watermark,
    /// advancing it for fresh (or gapped) deliveries and bumping the
    /// link-wide duplicate/gap counters. Cursor 0 (an uncursored stream)
    /// is always fresh.
    pub(crate) fn check_cursor(&self, route: &RouteState, cursor: u64) -> CursorVerdict {
        if cursor == 0 {
            return CursorVerdict::Fresh;
        }
        // Claim the watermark atomically: during reconnect overlap the old
        // and new connection race on different reactor shards, and a
        // load-then-store pair would deliver the same cursor twice.
        match route
            .last_cursor
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |last| { // ordering: CAS claim of the event cursor; one winner per seq (the PR 9 reconnect-overlap fix)
                (cursor > last).then_some(cursor)
            }) {
            Err(_) => {
                self.event_duplicates.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                CursorVerdict::Duplicate
            }
            Ok(last) if cursor > last + 1 => {
                let skipped = cursor - last - 1;
                self.event_gaps.fetch_add(skipped, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                CursorVerdict::Gap(skipped)
            }
            Ok(_) => CursorVerdict::Fresh,
        }
    }

    /// `(event_duplicates, event_gaps)` — the event plane's QoS ledger.
    pub(crate) fn event_counters(&self) -> (u64, u64) {
        (
            self.event_duplicates.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            self.event_gaps.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
        )
    }

    /// Binds the outbox to the connection serving the current session, so
    /// queued frames wake that connection's shard instead of waiting for
    /// its timed pass.
    pub(crate) fn attach_pump(&self, handle: PumpHandle) {
        *self.pump.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle.clone());
        handle.request(); // for whatever was queued before the handle was in place
    }

    /// Appends a frame to the link's outbox and requests the serving
    /// connection's pump, which drains it.
    pub(crate) fn push_frame(&self, frame: &Frame) {
        frame.encode_into(&mut self.outbox.lock().unwrap_or_else(|e| e.into_inner()));
        if let Some(pump) = &*self.pump.lock().unwrap_or_else(|e| e.into_inner()) {
            pump.request();
        }
    }

    /// Moves the queued outbox bytes into `out`.
    pub(crate) fn drain_outbox(&self, out: &mut Vec<u8>) {
        let mut outbox = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
        if !outbox.is_empty() {
            out.extend_from_slice(&outbox);
            outbox.clear();
        }
    }

    /// `(last_applied, relayed_beats, relayed_events, duplicates,
    /// oversize)` for STATS / Prometheus.
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.last_applied(),
            self.relayed_beats.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            self.relayed_events.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            self.duplicate_events.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            self.oversize_names.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
        )
    }
}

/// Cap on buffered-but-unwritten uplink bytes before the relay stops
/// draining the tap (backpressure then sheds at the tap, exactly counted).
const MAX_UPLINK_OUTBOX: usize = 1 << 20;

/// How long the relay waits for the parent's resume [`Frame::RelayAck`]
/// before treating the connection attempt as failed.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// The background relay serving one collector's uplink. Owned by
/// [`Collector`](crate::Collector); stopped (signalled and joined) by
/// [`stop`](Self::stop) or drop.
#[derive(Debug)]
pub struct UpstreamRelay {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl UpstreamRelay {
    /// Spawns the relay thread for `state`, which must have been built
    /// with [`CollectorConfig::upstream`](crate::CollectorConfig) set.
    pub(crate) fn spawn(state: Arc<CollectorState>, config: UpstreamConfig) -> UpstreamRelay {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hb-upstream".into())
                .spawn(move || RelayWorker::new(state, config, stop).run())
                .expect("spawn upstream relay thread")
        };
        UpstreamRelay {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the relay to exit and joins its thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release); // ordering: pairs with the worker's Acquire polls
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for UpstreamRelay {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One rollup event in flight: its link sequence and encoded bytes, kept
/// until the parent's cumulative ack covers it.
#[derive(Debug)]
struct Unacked {
    seq: u64,
    bytes: Vec<u8>,
}

/// The uplink retransmit window — the exactly-once state machine between
/// one child and its parent, extracted so the property tests can drive it
/// through arbitrary ack/drop/reconnect interleavings against a model.
///
/// Invariants (pinned by `rollup_window_applies_exactly_once` below):
///
/// * every sent sequence is retained until a cumulative ack covers it;
/// * a resume retransmits exactly the uncovered suffix, in order;
/// * `next_seq` never moves backward, so no sequence is ever reissued to
///   two different payloads — the parent's `seq <= last_applied` dedupe
///   therefore applies each payload exactly once.
#[derive(Debug)]
pub(crate) struct RollupWindow {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
}

impl RollupWindow {
    pub(crate) fn new() -> Self {
        RollupWindow {
            next_seq: 1,
            unacked: VecDeque::new(),
        }
    }

    /// Sends in flight (sent but not yet covered by an ack).
    pub(crate) fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// The sequence the next send will be assigned.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Assigns the next link sequence to `bytes` and retains the frame
    /// until a cumulative ack covers it.
    pub(crate) fn send(&mut self, bytes: Vec<u8>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(Unacked { seq, bytes });
        seq
    }

    /// Applies a cumulative ack, pruning every covered send.
    pub(crate) fn ack(&mut self, last_applied: u64) {
        while self.unacked.front().is_some_and(|u| u.seq <= last_applied) {
            self.unacked.pop_front();
        }
    }

    /// First ack of a session: prunes, aligns `next_seq` past the
    /// parent's watermark, appends the uncovered suffix to `out` for
    /// retransmission (in order), and returns how many frames that was.
    pub(crate) fn resume(&mut self, last_applied: u64, out: &mut Vec<u8>) -> u64 {
        self.ack(last_applied);
        self.next_seq = self.next_seq.max(last_applied + 1);
        for unacked in &self.unacked {
            out.extend_from_slice(&unacked.bytes);
        }
        self.unacked.len() as u64
    }
}

/// A propagated subscription the relay holds open locally on the parent's
/// behalf, keyed by the parent-assigned downlink id. Held across link
/// failures: its queue keeps accumulating (bounded, counted) and its
/// replay ring is what a resume replays from.
struct Propagated {
    sub: LocalSubscription,
    pattern: String,
    interests: u8,
    /// Whether the parent has re-subscribed this stream on the *current*
    /// session. Until it does, the queue must not drain: the session's
    /// stream has to begin with the resume replay, or freshly drained
    /// higher cursors would race ahead of it on the wire and the parent
    /// would dedupe the replayed events as stale — losing them for good.
    synced: bool,
}

struct RelayWorker {
    state: Arc<CollectorState>,
    config: UpstreamConfig,
    stop: Arc<AtomicBool>,
    tap: Arc<UpstreamTap>,
    stats: Arc<UpstreamStats>,
    window: RollupWindow,
    /// Encoded frames awaiting the socket (partial writes resume here).
    outbox: Vec<u8>,
    subs: HashMap<u32, Propagated>,
    sessions: u64,
    /// Full-jitter backoff RNG, seeded from the node name so each node's
    /// reconnect schedule is deterministic in tests yet distinct per node.
    jitter: u64,
}

impl RelayWorker {
    fn new(state: Arc<CollectorState>, config: UpstreamConfig, stop: Arc<AtomicBool>) -> Self {
        let tap = state.upstream_tap().expect("relay requires an upstream tap");
        let stats = state.upstream_stats().expect("relay requires upstream stats");
        // FNV-1a over the node name seeds the jitter stream: stable for a
        // given node (reproducible schedules) and spread across nodes (no
        // thundering herd).
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in config.node.bytes() {
            seed ^= byte as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RelayWorker {
            state,
            config,
            stop,
            tap,
            stats,
            window: RollupWindow::new(),
            outbox: Vec::new(),
            subs: HashMap::new(),
            sessions: 0,
            jitter: seed,
        }
    }

    /// Next value of the jitter stream (SplitMix64).
    fn jitter_next(&mut self) -> u64 {
        self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn run(mut self) {
        let mut backoff = self.config.backoff_min;
        while !self.stop.load(Ordering::Acquire) { // ordering: pairs with the Release store in stop()
            // A session only resets the backoff once it was *established*
            // (RelayAck received). A parent that accepts the TCP connect
            // but refuses the handshake — wrong secret, relay cycle —
            // must be retried on the same exponential schedule as a dead
            // parent, not hammered at connect speed.
            let established = match self.connect() {
                Some(stream) => {
                    let established = self.serve(stream);
                    self.teardown_link();
                    established
                }
                None => false,
            };
            if established {
                backoff = self.config.backoff_min;
                continue;
            }
            // Full-jitter backoff: the bound walks exponentially
            // between backoff_min and backoff_max, the actual wait
            // is uniform in 0..bound — reconnect storms decorrelate
            // instead of synchronizing on the shared schedule.
            let bound = backoff.as_nanos().max(1) as u64;
            let wait = Duration::from_nanos(self.jitter_next() % bound);
            let deadline = Instant::now() + wait;
            while Instant::now() < deadline && !self.stop.load(Ordering::Acquire) { // ordering: pairs with the Release store in stop()
                std::thread::sleep(self.config.tick.min(Duration::from_millis(20)));
            }
            backoff = (backoff * 2).min(self.config.backoff_max);
        }
        self.teardown_link();
    }

    /// One connection attempt: TCP connect, NodeHello, wait for the resume
    /// RelayAck. Returns a non-blocking stream ready to serve.
    fn connect(&mut self) -> Option<TcpStream> {
        let addr = self
            .config
            .parent
            .to_socket_addrs()
            .ok()?
            .next()?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(stream)
    }

    /// Serves one connection until error, EOF or stop. Returns `true` if
    /// the session was established (the parent answered with a resume
    /// RelayAck) — `false` means the handshake was refused or timed out,
    /// and the caller must back off before retrying.
    fn serve(&mut self, mut stream: TcpStream) -> bool {
        let mut decoder = FrameDecoder::new();
        self.outbox.clear();
        // Every held subscription starts the session unsynced: its queue
        // stays parked until the parent's Subscribe(resume) arrives and the
        // ring replay has been written, so replayed cursors always precede
        // freshly drained ones on the wire.
        for p in self.subs.values_mut() {
            p.synced = false;
        }
        // The announced path — this node plus everything relaying through
        // it — is what lets the parent refuse cycles at connect time. Its
        // epoch is captured here: if a new child attaches below us while
        // this link is up, we reconnect to re-announce the wider path.
        let path_epoch = self.state.path_epoch();
        Frame::NodeHello {
            node: self.config.node.clone(),
            pid: std::process::id(),
            path: self.state.downstream_path(&self.config.node),
        }
        .encode_into(&mut self.outbox);

        // Handshake: flush the NodeHello and wait for the parent's resume
        // ack. A NodeChallenge may arrive first (answered inline by
        // read_frames), as may Subscribe frames.
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut resumed = false;
        while !resumed {
            if self.stop.load(Ordering::Acquire) || Instant::now() > deadline { // ordering: pairs with the Release store in stop()
                return false;
            }
            if !self.flush(&mut stream) || !self.read_frames(&mut stream, &mut decoder, &mut resumed)
            {
                return false;
            }
            if !resumed {
                std::thread::sleep(self.config.tick);
            }
        }

        self.sessions += 1;
        if self.sessions > 1 {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        self.stats.connected.store(true, Ordering::Release); // ordering: publishes the reconnect; pairs with Acquire readers
        crate::log!(
            Level::Info,
            "upstream link established parent={} node={} resume_seq={}",
            self.config.parent,
            self.config.node,
            self.window.next_seq() - 1
        );

        loop {
            if self.stop.load(Ordering::Acquire) { // ordering: pairs with the Release store in stop()
                return true;
            }
            if self.state.path_epoch() != path_epoch {
                crate::log!(
                    Level::Info,
                    "downstream path changed node={}; reconnecting to re-announce",
                    self.config.node
                );
                return true;
            }
            let mut resumed = false;
            if !self.read_frames(&mut stream, &mut decoder, &mut resumed) {
                return true;
            }
            self.pump_rollups();
            self.pump_propagated();
            if !self.flush(&mut stream) {
                return true;
            }
            // Park only when idle: back-to-back full taps keep streaming.
            if self.outbox.is_empty() && self.tap.len() == 0 {
                std::thread::sleep(self.config.tick);
            }
        }
    }

    /// Reads and handles every available frame. Returns `false` on a dead
    /// or protocol-violating link. Sets `resumed` once a RelayAck arrives.
    fn read_frames(
        &mut self,
        stream: &mut TcpStream,
        decoder: &mut FrameDecoder,
        resumed: &mut bool,
    ) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return false,
                Ok(n) => decoder.push(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        loop {
            match decoder.next_event() {
                Ok(Some(FrameEvent::Control(Frame::RelayAck { last_applied }))) => {
                    self.handle_ack(last_applied, resumed);
                }
                Ok(Some(FrameEvent::Control(Frame::NodeChallenge { nonce }))) => {
                    let Some(secret) = self.config.secret.as_deref() else {
                        crate::log!(
                            Level::Warn,
                            "parent {} requires uplink auth but no cluster secret is configured",
                            self.config.parent
                        );
                        return false;
                    };
                    let mac = auth::uplink_mac(secret, &nonce, &self.config.node);
                    Frame::NodeAuth { mac }.encode_into(&mut self.outbox);
                }
                Ok(Some(FrameEvent::Control(Frame::Subscribe(req)))) => {
                    self.handle_subscribe(req);
                }
                Ok(Some(FrameEvent::Control(Frame::Unsubscribe { sub_id }))) => {
                    self.handle_unsubscribe(sub_id);
                }
                Ok(Some(_)) => {
                    crate::log!(Level::Warn, "unexpected frame on upstream link, reconnecting");
                    return false;
                }
                Ok(None) => return true,
                Err(err) => {
                    crate::log!(Level::Warn, "upstream link decode error: {err:?}");
                    return false;
                }
            }
        }
    }

    /// Applies a cumulative ack: prunes covered rollups; the first ack of
    /// a connection is the resume point (retransmit the rest).
    fn handle_ack(&mut self, last_applied: u64, resumed: &mut bool) {
        if *resumed {
            self.window.ack(last_applied);
            return;
        }
        *resumed = true;
        let retransmits = self.window.resume(last_applied, &mut self.outbox);
        if retransmits > 0 {
            self.stats
                .retransmits
                .fetch_add(retransmits, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
    }

    /// Registers a parent-propagated subscription as a real local
    /// subscription (recursing the propagation through this node's own
    /// child links, if any). A request whose `resume_from` is non-zero and
    /// whose id/pattern/interests match a subscription already held is a
    /// **resume**: the existing stream is kept (its cursors keep counting)
    /// and drained-but-possibly-lost events at or past the resume point
    /// are replayed from the ring.
    fn handle_subscribe(&mut self, req: SubscribeReq) {
        if req.resume_from > 0 {
            if let Some(p) = self.subs.get_mut(&req.sub_id) {
                if p.pattern == req.pattern && p.interests == req.interests {
                    let replay = p.sub.queue().replay_events(req.sub_id, req.resume_from);
                    let frames = replay.len();
                    for (cursor, bytes) in replay {
                        let at = self.outbox.len();
                        self.outbox.extend_from_slice(&bytes);
                        if let Err(err) = splice_event_cursor(&mut self.outbox, at, cursor) {
                            debug_assert!(false, "replay splice failed: {err:?}");
                            self.outbox.truncate(at);
                        }
                    }
                    // The replay is in the outbox ahead of anything the
                    // queue drains from here on — the stream may flow.
                    p.synced = true;
                    crate::log!(
                        Level::Debug,
                        "upstream link: resumed subscribe sub={} from={} replayed={}",
                        req.sub_id,
                        req.resume_from,
                        frames
                    );
                    return;
                }
            }
        }
        self.handle_unsubscribe(req.sub_id);
        match self.state.subscribe_propagated(&req) {
            Ok(sub) => {
                crate::log!(
                    Level::Debug,
                    "upstream link: propagated subscribe sub={} pattern={} resume_from={}",
                    req.sub_id,
                    req.pattern,
                    req.resume_from
                );
                self.subs.insert(
                    req.sub_id,
                    Propagated {
                        sub,
                        pattern: req.pattern,
                        interests: req.interests,
                        synced: true,
                    },
                );
            }
            Err(status) => crate::log!(
                Level::Warn,
                "upstream link: propagated subscribe rejected sub={} status={status:?}",
                req.sub_id
            ),
        }
    }

    fn handle_unsubscribe(&mut self, sub_id: u32) {
        if let Some(p) = self.subs.remove(&sub_id) {
            self.state.unsubscribe_propagated(&p.sub);
        }
    }

    /// Drains the tap into sequence-numbered rollup events, respecting the
    /// unacked window and the outbox cap.
    fn pump_rollups(&mut self) {
        loop {
            if self.window.in_flight() >= self.config.unacked_capacity
                || self.outbox.len() >= MAX_UPLINK_OUTBOX
            {
                return;
            }
            if let Some((app, producer_dropped, tap_dropped)) = self.tap.pop_announcement() {
                self.send_rollup(&app, producer_dropped + tap_dropped, &[]);
                continue;
            }
            let Some((item, tap_dropped)) = self.tap.pop_item() else {
                return;
            };
            self.stats
                .forwarded_beats
                .fetch_add(item.beats.len() as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            let dropped_total = item.producer_dropped + tap_dropped;
            if item.beats.len() <= MAX_EVENT_BEATS {
                self.send_rollup(&item.app, dropped_total, &item.beats);
            } else {
                for chunk in item.beats.chunks(MAX_EVENT_BEATS) {
                    self.send_rollup(&item.app, dropped_total, chunk);
                }
            }
        }
    }

    /// Encodes one rollup event, assigns it the next link sequence, and
    /// queues it for transmission and retransmission.
    fn send_rollup(&mut self, app: &str, dropped_total: u64, beats: &[WireBeat]) {
        let frame = Frame::RelayEvent {
            seq: self.window.next_seq(),
            event: EventFrame {
                sub_id: 0,
                sent_at_ns: telemetry::wall_clock_ns(),
                cursor: 0,
                app: app.to_string(),
                payload: EventPayload::Beats {
                    dropped_total,
                    beats: beats.to_vec(),
                },
            },
        };
        let mut bytes = Vec::with_capacity(64 + beats.len() * 8);
        frame.encode_into(&mut bytes);
        self.outbox.extend_from_slice(&bytes);
        self.window.send(bytes);
    }

    /// Forwards queued events of every propagated subscription (their
    /// sub_id is the parent's downlink id and their names are this node's
    /// local names — exactly what the parent expects), splicing each
    /// event's assigned cursor into the shared bytes on the way out, and
    /// runs the silence sweep so stalls at this tier are detected without
    /// ingest.
    fn pump_propagated(&mut self) {
        let outbox = &mut self.outbox;
        let mut forwarded = 0u64;
        for p in self.subs.values() {
            self.state.sweep_subscriptions(p.sub.queue());
            // Parked until this session's Subscribe(resume) has put the
            // ring replay in the outbox — see `Propagated::synced`. The
            // queue keeps accumulating (bounded, counted) meanwhile.
            if !p.synced {
                continue;
            }
            let budget = MAX_UPLINK_OUTBOX.saturating_sub(outbox.len());
            if budget == 0 {
                break;
            }
            forwarded += p.sub.queue().drain_events(budget, |bytes, cursor| {
                let at = outbox.len();
                outbox.extend_from_slice(&bytes);
                if cursor != 0 {
                    if let Err(err) = splice_event_cursor(outbox, at, cursor) {
                        debug_assert!(false, "cursor splice failed: {err:?}");
                        outbox.truncate(at);
                    }
                }
            }) as u64;
        }
        if forwarded > 0 {
            self.stats
                .forwarded_events
                .fetch_add(forwarded, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
    }

    /// Writes as much of the outbox as the socket accepts. Returns `false`
    /// on a dead link.
    fn flush(&mut self, stream: &mut TcpStream) -> bool {
        let mut written = 0;
        while written < self.outbox.len() {
            match stream.write(&self.outbox[written..]) {
                Ok(0) => return false,
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.outbox.drain(..written);
        true
    }

    /// Link-down cleanup. Propagated subscriptions are deliberately
    /// **kept**: their queues and replay rings keep accumulating (bounded,
    /// counted) so the parent's resume re-subscribe finds the stream
    /// intact and cursor numbering unbroken. Unacked rollups are kept for
    /// retransmission. Only the stop path tears the subscriptions down.
    fn teardown_link(&mut self) {
        if self.stats.connected.swap(false, Ordering::AcqRel) { // ordering: single teardown winner; orders the disconnect against the session state
            crate::log!(
                Level::Warn,
                "upstream link down parent={} node={} ({} rollups unacked, {} subs held)",
                self.config.parent,
                self.config.node,
                self.window.in_flight(),
                self.subs.len()
            );
        }
        if self.stop.load(Ordering::Acquire) { // ordering: pairs with the Release store in stop()
            for (_, p) in self.subs.drain() {
                self.state.unsubscribe_propagated(&p.sub);
            }
        }
        self.outbox.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

    fn beats(n: usize) -> Vec<WireBeat> {
        (0..n)
            .map(|i| WireBeat {
                record: HeartbeatRecord::new(i as u64, i as u64 * 1_000, Tag::NONE, BeatThreadId(0)),
                scope: BeatScope::Global,
            })
            .collect()
    }

    #[test]
    fn tap_sheds_oldest_with_exact_accounting() {
        let tap = UpstreamTap::new(2);
        tap.capture("a", 0, beats(3));
        tap.capture("a", 0, beats(4));
        tap.capture("a", 5, beats(2)); // sheds the 3-beat batch
        assert_eq!(tap.dropped_beats(), 3);
        assert_eq!(tap.captured_beats(), 9);
        let (app, producer_dropped, tap_dropped) = tap.pop_announcement().unwrap();
        assert_eq!((app.as_str(), producer_dropped, tap_dropped), ("a", 0, 3));
        assert!(tap.pop_announcement().is_none());
        let (item, tap_dropped) = tap.pop_item().unwrap();
        assert_eq!((item.beats.len(), tap_dropped), (4, 3));
        let (item, tap_dropped) = tap.pop_item().unwrap();
        assert_eq!((item.beats.len(), item.producer_dropped, tap_dropped), (2, 5, 3));
        assert!(tap.pop_item().is_none());
    }

    #[test]
    fn rollup_window_resume_retransmits_uncovered_suffix_in_order() {
        let mut window = RollupWindow::new();
        for seq in 1u64..=5 {
            assert_eq!(window.send(seq.to_le_bytes().to_vec()), seq);
        }
        window.ack(2);
        assert_eq!(window.in_flight(), 3);
        let mut out = Vec::new();
        assert_eq!(window.resume(3, &mut out), 2, "4 and 5 retransmit");
        let seqs: Vec<u64> = out
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(seqs, vec![4, 5]);
        assert_eq!(window.next_seq(), 6, "never reissue a spent sequence");
        // A resume watermark from a parent that saw everything (e.g. acks
        // lost, not frames) clears the window entirely.
        let mut out = Vec::new();
        assert_eq!(window.resume(5, &mut out), 0);
        assert!(out.is_empty());
    }

    proptest::proptest! {
        /// The retransmit watermark state machine, driven through
        /// arbitrary interleavings of sends, deliveries, acks (delivered
        /// and lost), and reconnects, against a model parent. Pins the
        /// federation invariants: every produced sequence is applied
        /// **exactly once**, and the parent watermark is monotone.
        #[test]
        fn rollup_window_applies_exactly_once(ops in proptest::collection::vec(0u8..100, 1..300)) {
            use std::collections::HashSet;

            let mut window = RollupWindow::new();
            // The in-order connection: sequence numbers in flight to the
            // parent. TCP gives in-order delivery within a connection;
            // loss happens only when the connection dies (reconnect).
            let mut wire: VecDeque<u64> = VecDeque::new();
            let mut last_applied = 0u64; // parent watermark
            let mut applied: HashSet<u64> = HashSet::new();

            let deliver = |wire: &mut VecDeque<u64>,
                               last_applied: &mut u64,
                               applied: &mut HashSet<u64>|
             -> Result<(), String> {
                if let Some(seq) = wire.pop_front() {
                    // Parent dedupe: at/below the watermark is a replay.
                    if seq > *last_applied {
                        proptest::prop_assert!(
                            applied.insert(seq),
                            "sequence {seq} applied twice"
                        );
                        *last_applied = seq;
                    }
                }
                Ok(())
            };
            let reconnect = |window: &mut RollupWindow,
                                 wire: &mut VecDeque<u64>,
                                 last_applied: u64| {
                wire.clear(); // everything in flight is lost with the link
                let mut out = Vec::new();
                window.resume(last_applied, &mut out);
                for chunk in out.chunks(8) {
                    wire.push_back(u64::from_le_bytes(chunk.try_into().unwrap()));
                }
            };

            for op in ops {
                match op {
                    // Send a new rollup (its payload is its sequence).
                    0..=39 => {
                        let seq = window.next_seq();
                        let assigned = window.send(seq.to_le_bytes().to_vec());
                        proptest::prop_assert_eq!(assigned, seq);
                        wire.push_back(seq);
                    }
                    // The parent consumes the next in-flight frame.
                    40..=69 => deliver(&mut wire, &mut last_applied, &mut applied)?,
                    // A cumulative ack reaches the child...
                    70..=84 => window.ack(last_applied),
                    // ...or is lost in transit (nothing happens).
                    85..=89 => {}
                    // The link dies and the child reconnects + resumes.
                    _ => reconnect(&mut window, &mut wire, last_applied),
                }
                proptest::prop_assert!(last_applied < window.next_seq());
            }

            // Quiesce: a final reconnect flushes the uncovered suffix, the
            // parent drains it, and the ledgers must agree exactly.
            reconnect(&mut window, &mut wire, last_applied);
            while !wire.is_empty() {
                deliver(&mut wire, &mut last_applied, &mut applied)?;
            }
            window.ack(last_applied);
            proptest::prop_assert_eq!(window.in_flight(), 0);
            let produced = window.next_seq() - 1;
            proptest::prop_assert_eq!(applied.len() as u64, produced);
            proptest::prop_assert_eq!(last_applied, produced, "watermark converges");
            for seq in 1..=produced {
                proptest::prop_assert!(applied.contains(&seq), "gap at {seq}");
            }
        }
    }

    #[test]
    fn tap_drop_totals_fold_monotonically() {
        // The forwarded dropped_total (producer_dropped at capture + tap
        // cumulative) must be monotone in send order even when sheds
        // interleave — the parent max-merges it.
        let tap = UpstreamTap::new(1);
        tap.capture("a", 10, beats(5));
        tap.capture("a", 12, beats(1)); // sheds the first batch (5 beats)
        let (_, producer_dropped, tap_dropped) = tap.pop_announcement().unwrap();
        let announced = producer_dropped + tap_dropped;
        assert_eq!(announced, 15);
        let (item, tap_dropped) = tap.pop_item().unwrap();
        assert!(item.producer_dropped + tap_dropped >= announced);
    }
}
