//! Federation uplink: a collector re-exporting its registry to a parent.
//! This is the child side of a link; the parent side is `federation.rs`.
//!
//! A leaf (or mid-tier) collector configured with an
//! [`UpstreamConfig`] keeps one connection to the parent's *ingest* port
//! and speaks the same wire protocol on it, opening with a
//! [`Frame::NodeHello`] instead of a producer hello. The connection is
//! served on a reactor shard by an `UplinkHandler`, exactly as the parent
//! serves its end; the `hb-upstream` thread only supervises — it makes the
//! blocking connect, lends the session state to the handler, parks until
//! the connection's close hands it back, and walks the reconnect backoff.
//! Nothing on the link runs on a clock: a captured batch or an enqueued
//! event requests the connection's pump ([`PumpHandle`]), and an idle link
//! costs no wake-ups at all. Two planes flow over the same link:
//!
//! * **Rollup plane (exactly-once).** Every batch the child ingests is
//!   also captured by an [`UpstreamTap`] — a bounded drop-oldest queue
//!   that never blocks ingest. The uplink drains it into
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
//!   The uplink registers it as a real local **cursored** subscription (so
//!   propagation recurses through mid tiers) and forwards the resulting
//!   Event frames with monotone per-subscription cursors spliced in; the
//!   parent re-prefixes the names, re-filters against the original
//!   pattern, and deduplicates by cursor. Across a reconnect the parent
//!   re-subscribes with `resume_from = last seen cursor + 1` and the uplink
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
//! When the parent is unreachable the supervisor backs off with **full
//! jitter**: each wait is drawn uniformly from zero up to the current
//! exponential bound, between [`UpstreamConfig::backoff_min`] and
//! [`UpstreamConfig::backoff_max`] — simultaneous leaf reconnects spread
//! out instead of thundering the parent in lockstep. The jitter RNG is
//! seeded from the node name, so a given node's schedule is reproducible.
//! [`UpstreamRelay::stop`] signals the parked supervisor, so shutdown never
//! waits a backoff out. Local ingest, queries and local subscribers are
//! never affected by uplink failures.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::auth;
use crate::collector::CollectorState;
use crate::frame::{FrameDecoder, FrameEvent};
use crate::reactor::{Handler, OutBuf, PumpCause, PumpHandle};
use crate::subscribe::LocalSubscription;
use crate::telemetry::{self, Level};
use crate::wire::{
    splice_event_cursor, EventFrame, EventPayload, Frame, SubscribeReq, WireBeat, MAX_EVENT_BEATS,
};

/// Configuration for a collector's uplink (the `--upstream` /
/// `--node-name` flags of `hb-collector`). There is no cadence to tune: the
/// uplink is wake-driven.
#[derive(Debug, Clone)]
pub struct UpstreamConfig {
    /// The parent collector's **ingest** address (`HOST:PORT`).
    pub parent: String,
    /// This collector's federation node name; every re-exported
    /// application appears at the parent as `node/app`. Must satisfy
    /// [`crate::wire::valid_node_name`].
    pub node: String,
    /// Batches buffered in the [`UpstreamTap`] before the oldest is shed
    /// (shed beats are counted per app and reported upward exactly).
    pub tap_capacity: usize,
    /// Rollup events in flight (sent but unacknowledged) before the uplink
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
    /// The latest uplink connection's pump (harmless once that is closed).
    pump: Mutex<Option<PumpHandle>>,
}

impl UpstreamTap {
    pub(crate) fn new(capacity: usize) -> Self {
        UpstreamTap {
            capacity: capacity.max(1),
            inner: Mutex::new(TapInner::default()),
            dropped_beats: AtomicU64::new(0),
            captured_beats: AtomicU64::new(0),
            pump: Mutex::new(None),
        }
    }

    /// Binds the tap to the uplink connection that drains it.
    fn set_pump(&self, pump: PumpHandle) {
        *self.pump.lock().unwrap_or_else(|e| e.into_inner()) = Some(pump);
    }

    // hb-lint: hot-path — runs once per ingested batch on a federating
    // collector; coalesces with the batch's event enqueues into one pump.
    /// Asks the uplink's shard for a drain, if a link is up.
    pub(crate) fn request_pump(&self) {
        if let Some(pump) = &*self.pump.lock().unwrap_or_else(|e| e.into_inner()) {
            pump.request();
        }
    }
    // hb-lint: end-hot-path

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
        // Publish, then request (see `PumpHandle`).
        drop(inner);
        self.request_pump();
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

/// Cap on buffered-but-unwritten uplink bytes before the uplink stops
/// draining the tap (backpressure then sheds at the tap, exactly counted).
const MAX_UPLINK_OUTBOX: usize = 1 << 20;

/// How long the uplink waits for the parent's resume [`Frame::RelayAck`]
/// before treating the connection attempt as failed.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// What reaches the `hb-upstream` supervisor while it is parked.
enum Signal {
    /// [`UpstreamRelay::stop`] was called.
    Stop,
    /// The uplink connection closed: the session comes back, with whether
    /// the parent had established the link (sent its resume RelayAck).
    Closed(Session, bool),
}

/// The supervisor of one collector's uplink. Owned by
/// [`Collector`](crate::Collector); stopped (signalled and joined) by
/// [`stop`](Self::stop) or drop.
#[derive(Debug)]
pub struct UpstreamRelay {
    signals: mpsc::Sender<Signal>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl UpstreamRelay {
    /// Spawns the `hb-upstream` supervisor for `state`, which must have
    /// been built with [`CollectorConfig::upstream`](crate::CollectorConfig)
    /// set; `install` is the reactor's
    /// [`installer`](crate::reactor::Reactor::installer).
    pub(crate) fn spawn(
        state: Arc<CollectorState>,
        config: UpstreamConfig,
        install: impl Fn(TcpStream, Box<dyn Handler>) + Send + 'static,
    ) -> UpstreamRelay {
        let (signals, parked) = mpsc::channel();
        let thread = {
            let signals = signals.clone();
            std::thread::Builder::new()
                .name("hb-upstream".into())
                .spawn(move || supervise(state, Arc::new(config), install, signals, parked))
                .expect("spawn upstream relay thread")
        };
        UpstreamRelay {
            signals,
            thread: Some(thread),
        }
    }

    /// Signals the supervisor to exit — wherever it is parked: beside a
    /// live link (which it cuts) or in a reconnect backoff — and joins it.
    pub fn stop(&mut self) {
        let _ = self.signals.send(Signal::Stop);
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

/// The `hb-upstream` thread: the blocking connect, the hand-off of the
/// session to an [`UplinkHandler`] on a reactor shard, and the full-jitter
/// backoff between attempts; parked on `parked` while a link is up or a
/// backoff runs.
fn supervise(
    state: Arc<CollectorState>,
    config: Arc<UpstreamConfig>,
    install: impl Fn(TcpStream, Box<dyn Handler>),
    signals: mpsc::Sender<Signal>,
    parked: mpsc::Receiver<Signal>,
) {
    let mut session = Session::default();
    // FNV-1a over the node name seeds the jitter stream: reproducible per
    // node, spread across nodes (no thundering herd).
    let mut jitter = config
        .node
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |seed, byte| {
            (seed ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    let mut backoff = config.backoff_min;
    loop {
        // A session only resets the backoff once it was *established*
        // (RelayAck received). A parent that accepts the TCP connect but
        // refuses the handshake — wrong secret, relay cycle — must be
        // retried on the same exponential schedule as a dead parent, not
        // hammered at connect speed.
        let mut established = false;
        if let Some((cut, stream)) = connect(&config.parent) {
            install(
                stream,
                Box::new(UplinkHandler::new(
                    Arc::clone(&state),
                    Arc::clone(&config),
                    std::mem::take(&mut session),
                    signals.clone(),
                )),
            );
            let mut stopping = false;
            while let Ok(signal) = parked.recv() {
                match signal {
                    Signal::Closed(back, was_established) => {
                        session = back;
                        established = was_established;
                        break;
                    }
                    // Cut the link; the reactor's close hands the session
                    // back, and only then is it safe to tear down.
                    Signal::Stop => {
                        stopping = true;
                        let _ = cut.shutdown(Shutdown::Both);
                    }
                }
            }
            if stopping {
                break;
            }
        }
        if established {
            backoff = config.backoff_min;
            continue;
        }
        // Full-jitter backoff: the bound walks exponentially between
        // backoff_min and backoff_max, the actual wait is uniform in
        // 0..bound — reconnect storms decorrelate instead of
        // synchronizing on the shared schedule.
        let wait = Duration::from_nanos(splitmix64(&mut jitter) % backoff.as_nanos().max(1) as u64);
        match parked.recv_timeout(wait) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            _ => break, // stop() — nothing else signals while no link is up
        }
        backoff = (backoff * 2).min(config.backoff_max);
    }
    // Only the stop path tears the held subscriptions down; across link
    // failures they keep accumulating for the parent's resume. Dropping
    // them alone would skip retracting their own deeper propagations.
    for (_, p) in session.subs.drain() {
        state.unregister_subscription(p.sub.queue(), p.sub.sub_id());
    }
}

/// Next value of a SplitMix64 stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One connection attempt: a non-blocking stream for the reactor plus a
/// second handle on the same socket, with which the supervisor cuts a live
/// link on [`UpstreamRelay::stop`].
fn connect(parent: &str) -> Option<(TcpStream, TcpStream)> {
    let addr = parent.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some((stream.try_clone().ok()?, stream))
}

/// The uplink retransmit window — the exactly-once state machine between
/// one child and its parent, extracted so the property tests can drive it
/// through arbitrary ack/drop/reconnect interleavings against a model. It
/// shares each rollup's one encoding with the connection's [`OutBuf`].
///
/// Invariants (pinned by `rollup_window_applies_exactly_once` below):
///
/// * every sent sequence is retained until a cumulative ack covers it;
/// * a resume retransmits exactly the uncovered suffix, in order, ahead of
///   anything sent after it;
/// * `last_seq` never moves backward, so no sequence is ever reissued to
///   two different payloads — the parent's `seq <= last_applied` dedupe
///   therefore applies each payload exactly once.
#[derive(Debug, Default)]
pub(crate) struct RollupWindow {
    /// The last sequence assigned (sequences start at 1).
    last_seq: u64,
    /// `(link sequence, encoded frame)`, oldest first.
    unacked: VecDeque<(u64, Arc<[u8]>)>,
    /// Leading entries of `unacked` already handed to the current
    /// connection; the rest wait for [`next_unsent`](Self::next_unsent).
    sent: usize,
}

impl RollupWindow {
    /// Rollups in flight (assigned a sequence, not yet covered by an ack).
    pub(crate) fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// The sequence the next send will be assigned.
    pub(crate) fn next_seq(&self) -> u64 {
        self.last_seq + 1
    }

    /// Assigns the next link sequence to `bytes` and retains the frame
    /// until a cumulative ack covers it.
    pub(crate) fn send(&mut self, bytes: Arc<[u8]>) -> u64 {
        self.last_seq += 1;
        self.unacked.push_back((self.last_seq, bytes));
        self.last_seq
    }

    /// The oldest retained frame the current connection has not been
    /// handed yet — a fresh send, or after a [`resume`](Self::resume) the
    /// next retransmission.
    pub(crate) fn next_unsent(&mut self) -> Option<Arc<[u8]>> {
        let (_, bytes) = self.unacked.get(self.sent)?;
        self.sent += 1;
        Some(Arc::clone(bytes))
    }

    /// Applies a cumulative ack, pruning every covered send.
    pub(crate) fn ack(&mut self, last_applied: u64) {
        while self
            .unacked
            .front()
            .is_some_and(|(seq, _)| *seq <= last_applied)
        {
            self.unacked.pop_front();
            self.sent = self.sent.saturating_sub(1);
        }
    }

    /// First ack of a session: prunes, aligns `last_seq` with the parent's
    /// watermark and marks the uncovered suffix unsent, so `next_unsent`
    /// retransmits it in order. Returns how many frames that is.
    pub(crate) fn resume(&mut self, last_applied: u64) -> u64 {
        self.ack(last_applied);
        self.last_seq = self.last_seq.max(last_applied);
        self.sent = 0;
        self.unacked.len() as u64
    }
}

/// A propagated subscription the uplink holds open locally on the parent's
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

/// The uplink state that outlives a connection: the supervisor lends it to
/// each [`UplinkHandler`] and gets it back from `on_close`.
#[derive(Default)]
struct Session {
    window: RollupWindow,
    subs: HashMap<u32, Propagated>,
    /// Links established so far; every one after the first is a reconnect.
    links: u64,
}

/// The child end of one uplink connection: `on_data` answers the parent's
/// frames, `on_pump` moves the tap and the propagated queues into the
/// connection's [`OutBuf`]. The tap and those queues hold the connection's
/// [`PumpHandle`], so a captured batch or an enqueued event asks for that
/// drain itself.
struct UplinkHandler {
    state: Arc<CollectorState>,
    config: Arc<UpstreamConfig>,
    tap: Arc<UpstreamTap>,
    stats: Arc<UpstreamStats>,
    decoder: FrameDecoder,
    session: Session,
    signals: mpsc::Sender<Signal>,
    pump: Option<PumpHandle>,
    /// The parent's resume RelayAck arrived: the link is established.
    resumed: bool,
    handshake_deadline: Instant,
    /// [`CollectorState::path_epoch`] as of the NodeHello's path; a later
    /// epoch means a wider path to re-announce.
    path_epoch: u64,
    /// Reused encode buffer for rollups.
    scratch: Vec<u8>,
}

impl UplinkHandler {
    fn new(
        state: Arc<CollectorState>,
        config: Arc<UpstreamConfig>,
        mut session: Session,
        signals: mpsc::Sender<Signal>,
    ) -> Self {
        // Every held subscription starts the session unsynced (see
        // `Propagated::synced`).
        for p in session.subs.values_mut() {
            p.synced = false;
        }
        UplinkHandler {
            tap: state
                .upstream_tap()
                .expect("relay requires an upstream tap"),
            stats: state
                .upstream_stats()
                .expect("relay requires upstream stats"),
            state,
            config,
            decoder: FrameDecoder::new(),
            session,
            signals,
            pump: None,
            resumed: false,
            handshake_deadline: Instant::now() + HANDSHAKE_TIMEOUT,
            path_epoch: 0,
            scratch: Vec::new(),
        }
    }

    /// Applies a cumulative ack; the first one of a connection is the
    /// resume point and establishes the link.
    fn handle_ack(&mut self, last_applied: u64) {
        if self.resumed {
            self.session.window.ack(last_applied);
            return;
        }
        self.resumed = true;
        let retransmits = self.session.window.resume(last_applied);
        self.stats
            .retransmits
            .fetch_add(retransmits, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        self.session.links += 1;
        if self.session.links > 1 {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        self.stats.connected.store(true, Ordering::Release); // ordering: publishes the reconnect; pairs with Acquire readers
        crate::log!(
            Level::Info,
            "upstream link established parent={} node={} resume_seq={}",
            self.config.parent,
            self.config.node,
            self.session.window.next_seq() - 1
        );
    }

    /// Registers a parent-propagated subscription as a real local
    /// subscription (recursing the propagation through this node's own
    /// child links, if any). A request whose `resume_from` is non-zero and
    /// whose id/pattern/interests match a subscription already held is a
    /// **resume**: the existing stream is kept (its cursors keep counting)
    /// and drained-but-possibly-lost events at or past the resume point
    /// are replayed from the ring.
    fn handle_subscribe(&mut self, req: SubscribeReq, out: &mut OutBuf) {
        if req.resume_from > 0 {
            if let Some(p) = self.session.subs.get_mut(&req.sub_id) {
                if p.pattern == req.pattern && p.interests == req.interests {
                    let replay = p.sub.queue().replay_events(req.sub_id, req.resume_from);
                    let frames = replay.len();
                    for (cursor, bytes) in replay {
                        push_cursored(&self.state, out, &bytes, cursor);
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
                // What is enqueued before this is drained when `on_data` ends.
                sub.queue().set_pump(self.pump.clone());
                crate::log!(
                    Level::Debug,
                    "upstream link: propagated subscribe sub={} pattern={} resume_from={}",
                    req.sub_id,
                    req.pattern,
                    req.resume_from
                );
                self.session.subs.insert(
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
        if let Some(p) = self.session.subs.remove(&sub_id) {
            self.state
                .unregister_subscription(p.sub.queue(), p.sub.sub_id());
        }
    }

    /// Moves what the link may carry right now into `out`: rollups
    /// (retransmissions, then the tap) within the unacked window and the
    /// outbox cap, then propagated events. What a budget holds back is
    /// picked up by the next ack, capture or enqueue, or at the latest by
    /// the timed pass.
    fn drain(&mut self, out: &mut OutBuf) {
        if self.resumed {
            self.pump_rollups(out);
            self.pump_propagated(out);
        }
    }

    fn pump_rollups(&mut self, out: &mut OutBuf) {
        while out.pending() < MAX_UPLINK_OUTBOX {
            if let Some(bytes) = self.session.window.next_unsent() {
                out.push_shared(bytes);
                continue;
            }
            if self.session.window.in_flight() >= self.config.unacked_capacity {
                return;
            }
            if let Some((app, producer_dropped, tap_dropped)) = self.tap.pop_announcement() {
                self.send_rollup(app, producer_dropped + tap_dropped, Vec::new());
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
                self.send_rollup(item.app, dropped_total, item.beats);
            } else {
                for chunk in item.beats.chunks(MAX_EVENT_BEATS) {
                    self.send_rollup(item.app.clone(), dropped_total, chunk.to_vec());
                }
            }
        }
    }

    /// Encodes one rollup event — once, into bytes the window and the
    /// connection share — under the next link sequence.
    fn send_rollup(&mut self, app: String, dropped_total: u64, beats: Vec<WireBeat>) {
        self.scratch.clear();
        Frame::RelayEvent {
            seq: self.session.window.next_seq(),
            event: EventFrame {
                sub_id: 0,
                sent_at_ns: telemetry::wall_clock_ns(),
                cursor: 0,
                app,
                payload: EventPayload::Beats {
                    dropped_total,
                    beats,
                },
            },
        }
        .encode_into(&mut self.scratch);
        self.session.window.send(Arc::from(self.scratch.as_slice()));
    }

    /// Forwards queued events of every propagated subscription (their
    /// sub_id is the parent's downlink id and their names are this node's
    /// local names — exactly what the parent expects).
    fn pump_propagated(&mut self, out: &mut OutBuf) {
        let mut forwarded = 0;
        // Parked until this session's Subscribe(resume) has put the ring
        // replay in the outbox — see `Propagated::synced`. The queue keeps
        // accumulating (bounded, counted) meanwhile.
        for p in self.session.subs.values().filter(|p| p.synced) {
            let budget = MAX_UPLINK_OUTBOX.saturating_sub(out.pending());
            if budget == 0 {
                break;
            }
            forwarded += p.sub.queue().drain_events(budget, |bytes, cursor| {
                push_cursored(&self.state, out, &bytes, cursor)
            });
        }
        self.stats
            .forwarded_events
            .fetch_add(forwarded as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }
}

/// Appends a copy of one encoded event with `cursor` spliced in (`0`: the
/// placeholder the shared bytes already carry). A failed splice of this
/// collector's own encoding is counted and the event dropped — never a
/// panic on a shard.
fn push_cursored(state: &CollectorState, out: &mut OutBuf, bytes: &[u8], cursor: u64) {
    let tail = out.vec_mut();
    let at = tail.len();
    tail.extend_from_slice(bytes);
    if cursor != 0 {
        if let Err(err) = splice_event_cursor(tail, at, cursor) {
            tail.truncate(at);
            state.protocol_errors.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            crate::log!(Level::Error, "upstream link: cursor splice failed: {err:?}");
        }
    }
}

impl Handler for UplinkHandler {
    fn on_install(&mut self, pump: PumpHandle) {
        // The request enrols the connection in the timed pass (handshake
        // deadline, silence sweep) and covers what was published before
        // the handle was in place.
        self.tap.set_pump(pump.clone());
        for p in self.session.subs.values() {
            p.sub.queue().set_pump(Some(pump.clone()));
        }
        pump.request();
        self.pump = Some(pump);
    }

    fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
        if input.is_empty() {
            // The install call. The announced path — this node plus
            // everything relaying through it — lets the parent refuse cycles
            // at connect time; its epoch is taken first, so a child that
            // attaches meanwhile is re-announced.
            self.path_epoch = self.state.path_epoch();
            Frame::NodeHello {
                node: self.config.node.clone(),
                pid: std::process::id(),
                path: self.state.downstream_path(&self.config.node),
            }
            .encode_into(out.vec_mut());
            return true;
        }
        self.decoder.push(input);
        loop {
            match self.decoder.next_event() {
                Ok(Some(FrameEvent::Control(Frame::RelayAck { last_applied }))) => {
                    self.handle_ack(last_applied);
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
                    Frame::NodeAuth { mac }.encode_into(out.vec_mut());
                }
                Ok(Some(FrameEvent::Control(Frame::Subscribe(req)))) => {
                    self.handle_subscribe(req, out);
                }
                Ok(Some(FrameEvent::Control(Frame::Unsubscribe { sub_id }))) => {
                    self.handle_unsubscribe(sub_id);
                }
                Ok(Some(_)) => {
                    crate::log!(
                        Level::Warn,
                        "unexpected frame on upstream link, reconnecting"
                    );
                    return false;
                }
                Ok(None) => break,
                Err(err) => {
                    crate::log!(Level::Warn, "upstream link decode error: {err:?}");
                    return false;
                }
            }
        }
        // An ack reopened the window, a Subscribe unparked a queue.
        self.drain(out);
        true
    }

    fn on_pump(&mut self, out: &mut OutBuf, _pending_out: usize, cause: PumpCause) -> bool {
        if !self.resumed {
            return cause == PumpCause::Wake || Instant::now() < self.handshake_deadline;
        }
        if self.state.path_epoch() != self.path_epoch {
            crate::log!(
                Level::Info,
                "downstream path changed node={}; reconnecting to re-announce",
                self.config.node
            );
            return false;
        }
        let started = self.state.stage_telemetry().start();
        if cause == PumpCause::Timer {
            // Silence cannot announce itself: stalls at this tier are
            // detected without ingest (rate-limited per subscription).
            for p in self.session.subs.values() {
                self.state.sweep_subscriptions(p.sub.queue());
            }
        }
        self.drain(out);
        let telemetry = self.state.stage_telemetry();
        telemetry.observe(&telemetry.pump, started);
        true
    }

    fn keep_alive(&self) -> bool {
        // A link is legitimately silent while there is nothing to roll up.
        true
    }

    /// Link down: the session goes back whole. Propagated subscriptions
    /// are deliberately **kept** — their queues and replay rings keep
    /// accumulating (bounded, counted) so the parent's resume re-subscribe
    /// finds the stream intact — as are unacked rollups, for retransmission.
    fn on_close(&mut self) {
        // ordering: single teardown winner; orders the disconnect against the session state
        if self.stats.connected.swap(false, Ordering::AcqRel) {
            crate::log!(
                Level::Warn,
                "upstream link down parent={} node={} ({} rollups unacked, {} subs held)",
                self.config.parent,
                self.config.node,
                self.session.window.in_flight(),
                self.session.subs.len()
            );
        }
        let session = std::mem::take(&mut self.session);
        let _ = self.signals.send(Signal::Closed(session, self.resumed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, CollectorConfig};
    use crate::frame::FrameDecoder;
    use crate::reactor::{Reactor, ReactorConfig};
    use crate::telemetry::ThreadStatsSnapshot;
    use crate::wire::{BeatBatch, Hello};
    use heartbeats::observe::{Interest, ObserveFilter};
    use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    fn beats(n: usize) -> Vec<WireBeat> {
        (0..n)
            .map(|i| WireBeat {
                record: HeartbeatRecord::new(
                    i as u64,
                    i as u64 * 1_000,
                    Tag::NONE,
                    BeatThreadId(0),
                ),
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
        assert_eq!(
            (item.beats.len(), item.producer_dropped, tap_dropped),
            (2, 5, 3)
        );
        assert!(tap.pop_item().is_none());
    }

    /// A rollup payload that is just its own sequence number.
    fn payload(seq: u64) -> Arc<[u8]> {
        Arc::from(&seq.to_le_bytes()[..])
    }

    /// Hands the connection everything the window has not sent on it yet.
    fn transmit(window: &mut RollupWindow) -> Vec<u64> {
        std::iter::from_fn(|| window.next_unsent())
            .map(|bytes| u64::from_le_bytes(bytes[..].try_into().unwrap()))
            .collect()
    }

    #[test]
    fn rollup_window_resume_retransmits_uncovered_suffix_in_order() {
        let mut window = RollupWindow::default();
        for seq in 1u64..=5 {
            assert_eq!(window.send(payload(seq)), seq);
        }
        assert_eq!(transmit(&mut window), vec![1, 2, 3, 4, 5]);
        assert!(
            transmit(&mut window).is_empty(),
            "each send goes out once per session"
        );
        window.ack(2);
        assert_eq!(window.in_flight(), 3);
        assert_eq!(window.resume(3), 2, "4 and 5 retransmit");
        // A send made before the retransmission went out queues behind it.
        assert_eq!(window.send(payload(6)), 6);
        assert_eq!(transmit(&mut window), vec![4, 5, 6]);
        assert_eq!(window.next_seq(), 7, "never reissue a spent sequence");
        // A resume watermark from a parent that saw everything (e.g. acks
        // lost, not frames) clears the window entirely.
        assert_eq!(window.resume(6), 0);
        assert!(transmit(&mut window).is_empty());
    }

    #[test]
    fn rollup_window_shares_each_encoding_with_the_connection() {
        let mut window = RollupWindow::default();
        let bytes = payload(1);
        window.send(Arc::clone(&bytes));
        let mut out = OutBuf::new();
        out.push_shared(window.next_unsent().unwrap());
        // The test's handle, the window's and the outbound buffer's: one
        // allocation, however often a resume queues it again.
        assert_eq!(Arc::strong_count(&bytes), 3);
        window.resume(0);
        out.push_shared(window.next_unsent().unwrap());
        assert_eq!(Arc::strong_count(&bytes), 4);
        window.ack(1);
        drop(out);
        assert_eq!(Arc::strong_count(&bytes), 1);
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

            let mut window = RollupWindow::default();
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
                window.resume(last_applied);
            };

            for op in ops {
                match op {
                    // Queue a new rollup (its payload is its sequence).
                    0..=29 => {
                        let seq = window.next_seq();
                        proptest::prop_assert_eq!(window.send(payload(seq)), seq);
                    }
                    // The socket takes one frame: a fresh send, or part of
                    // a retransmission still under way.
                    30..=39 => wire.extend(window.next_unsent().map(|bytes| {
                        u64::from_le_bytes(bytes[..].try_into().unwrap())
                    })),
                    // ...or everything the window has for it.
                    40..=44 => wire.extend(transmit(&mut window)),
                    // The parent consumes the next in-flight frame.
                    45..=69 => deliver(&mut wire, &mut last_applied, &mut applied)?,
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
            wire.extend(transmit(&mut window));
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

    /// The parent end of an uplink, played by the test: it completes the
    /// handshake and from then on reads, acks and subscribes only when the
    /// test says so.
    struct FakeParent {
        stream: TcpStream,
        decoder: FrameDecoder,
    }

    impl FakeParent {
        fn listen() -> TcpListener {
            TcpListener::bind("127.0.0.1:0").unwrap()
        }

        /// Accepts `leaf`'s uplink and returns once the leaf has seen the
        /// handshake through.
        fn accept(listener: &TcpListener, leaf: &Collector) -> FakeParent {
            let (stream, _) = listener.accept().unwrap();
            let mut parent = FakeParent {
                stream,
                decoder: FrameDecoder::new(),
            };
            assert!(matches!(parent.recv(), Frame::NodeHello { .. }));
            parent.send(&Frame::RelayAck { last_applied: 0 });
            let link = leaf.state().upstream_stats().unwrap();
            wait_until("the uplink", || link.connected());
            parent
        }

        fn send(&self, frame: &Frame) {
            (&self.stream).write_all(&frame.encode()).unwrap();
        }

        fn recv(&mut self) -> Frame {
            let deadline = Instant::now() + Duration::from_secs(20);
            self.decoder
                .read_frame(&self.stream, deadline)
                .expect("uplink frame")
                .expect("uplink open")
        }

        /// The next rollup: `(seq, beats, dropped_total)`.
        fn recv_rollup(&mut self) -> (u64, usize, u64) {
            match self.recv() {
                Frame::RelayEvent {
                    seq,
                    event:
                        EventFrame {
                            payload:
                                EventPayload::Beats {
                                    dropped_total,
                                    beats,
                                },
                            ..
                        },
                } => (seq, beats.len(), dropped_total),
                other => panic!("expected a rollup, got {other:?}"),
            }
        }

        fn subscribe(&self, sub_id: u32, pattern: &str) {
            self.send(&Frame::Subscribe(SubscribeReq {
                sub_id,
                pattern: pattern.into(),
                interests: Interest::BEATS.bits(),
                min_interval_ns: 0,
                resume_from: 0,
            }));
        }
    }

    /// A one-shard leaf whose uplink points at `parent`.
    fn leaf(parent: &TcpListener, tune: impl FnOnce(&mut UpstreamConfig)) -> Collector {
        let mut upstream = UpstreamConfig::new(parent.local_addr().unwrap().to_string(), "leaf");
        tune(&mut upstream);
        Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads: 1,
                upstream: Some(upstream),
                ..CollectorConfig::default()
            },
        )
        .unwrap()
    }

    fn shard0(collector: &Collector) -> ThreadStatsSnapshot {
        collector.state().reactor_threads().snapshot().remove(0)
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `rounds` deliveries, each awaited before the next, were made by at
    /// least `pumps` requested pumps: the timed pass runs once per 20 ms and
    /// cannot have made them.
    fn assert_woken(collector: &Collector, before: &ThreadStatsSnapshot, rounds: u64, pumps: u64) {
        // (The shard counts a pump after the flush that made it visible.)
        wait_until("the deliveries to be requested pumps", || {
            shard0(collector).pumps_wake - before.pumps_wake >= pumps
        });
        let after = shard0(collector);
        assert!(
            after.pumps_timer - before.pumps_timer < rounds / 2,
            "the timed pass cannot account for {rounds} deliveries: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn beat_ingested_at_a_leaf_reaches_a_parent_subscriber_by_wake_ups_alone() {
        const ROUNDS: u64 = 60;
        let parent = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
        let leaf = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads: 1,
                upstream: Some(UpstreamConfig::new(
                    parent.ingest_addr().to_string(),
                    "leaf",
                )),
                ..CollectorConfig::default()
            },
        )
        .unwrap();
        let (state, link) = (leaf.state(), leaf.state().upstream_stats().unwrap());
        wait_until("the uplink", || link.connected());
        let reader =
            Arc::new(crate::RemoteReader::connect(parent.query_addr().to_string()).unwrap());
        let events = reader
            .subscribe("leaf/app", &ObserveFilter::new(Interest::BEATS))
            .unwrap();
        wait_until("the propagated subscription", || {
            state.subscriptions().active() == 1
        });

        let before = shard0(&leaf);
        for round in 0..ROUNDS {
            state.ingest_batch("app", 0, beats(1));
            let event = events
                .next_timeout(Duration::from_secs(20))
                .expect("pushed event");
            assert_eq!(event.app, "leaf/app", "round {round}");
        }
        // The drain that follows an ack's `on_data` may carry the next
        // round's batch, and that round's request then finds the handle
        // still armed: two rounds can share one pump.
        assert_woken(&leaf, &before, ROUNDS, ROUNDS / 2);
        wait_until("the rollups", || {
            parent
                .state()
                .snapshot("leaf/app")
                .is_some_and(|app| app.total_beats == ROUNDS)
        });
        assert_eq!((link.retransmits(), link.reconnects()), (0, 0));
    }

    #[test]
    fn capture_and_enqueue_each_wake_the_uplink_shard() {
        const ROUNDS: u64 = 100;
        let listener = FakeParent::listen();
        let leaf = leaf(&listener, |_| {});
        let mut parent = FakeParent::accept(&listener, &leaf);
        let state = leaf.state();

        // Nobody is subscribed: only the tap's own request asks for these
        // drains.
        let before = shard0(&leaf);
        for round in 1..=ROUNDS {
            state.ingest_batch("app", 0, beats(1));
            assert_eq!(parent.recv_rollup(), (round, 1, 0));
        }
        assert_woken(&leaf, &before, ROUNDS, ROUNDS);

        // Events enqueued past the tap (as a mid tier's routed events are):
        // only the propagated queue's pump asks for these.
        parent.subscribe(5, "app");
        wait_until("the propagated subscription", || {
            state.subscriptions().active() == 1
        });
        let entry = state.subscriptions().matching("app").remove(0);
        let before = shard0(&leaf);
        for round in 1..=ROUNDS {
            let payload = EventPayload::Beats {
                dropped_total: 0,
                beats: beats(1),
            };
            state.subscriptions().deliver(&entry, "app", payload);
            match parent.recv() {
                Frame::Event(event) => assert_eq!((event.sub_id, event.cursor), (5, round)),
                other => panic!("expected an event, got {other:?}"),
            }
        }
        assert_woken(&leaf, &before, ROUNDS, ROUNDS);
    }

    #[test]
    fn capture_and_enqueue_for_one_frame_coalesce_into_one_pump() {
        const FRAMES: u64 = 50;
        let listener = FakeParent::listen();
        let leaf = leaf(&listener, |_| {});
        let mut parent = FakeParent::accept(&listener, &leaf);
        parent.subscribe(5, "app");
        wait_until("the propagated subscription", || {
            leaf.state().subscriptions().active() == 1
        });
        // A real producer connection: its frames are ingested on the shard
        // that also hosts the uplink.
        let mut producer = TcpStream::connect(leaf.ingest_addr()).unwrap();
        let hello = Frame::Hello(Hello {
            app: "app".into(),
            pid: 1,
            default_window: 20,
        });
        producer.write_all(&hello.encode()).unwrap();
        wait_until("the hello", || leaf.state().snapshot("app").is_some());

        let before = shard0(&leaf);
        for seq in 1..=FRAMES {
            let frame = Frame::Beats(BeatBatch {
                dropped_total: 0,
                beats: beats(2),
            });
            producer.write_all(&frame.encode()).unwrap();
            assert_eq!(parent.recv_rollup(), (seq, 2, 0));
            assert!(matches!(parent.recv(), Frame::Event(event) if event.cursor == seq));
        }
        wait_until("the last pump to be counted", || {
            shard0(&leaf).pumps_wake - before.pumps_wake >= FRAMES
        });
        let after = shard0(&leaf);
        assert_eq!(
            after.pumps_wake - before.pumps_wake,
            FRAMES,
            "the tap's request and the queue's share one armed handle: {before:?} -> {after:?}"
        );
        assert_eq!(
            after.wakeups, before.wakeups,
            "requests made on the uplink's own shard write no eventfd"
        );
    }

    /// The shard idles at the poll-timeout cadence: nothing re-requests
    /// itself and nothing spins on a socket or a window that will not move.
    fn assert_idles(collector: &Collector) {
        // Let requested pumps drain out of the inbox first.
        let mut before = shard0(collector);
        wait_until("pump requests to settle", || {
            std::thread::sleep(Duration::from_millis(60));
            let now = shard0(collector);
            let settled = now.pumps_wake == before.pumps_wake;
            before = now;
            settled
        });
        let since = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let after = shard0(collector);
        let idle_loops = since.elapsed().as_millis() as u64 / 20 + 2;
        assert_eq!(
            after.pumps_wake, before.pumps_wake,
            "{before:?} -> {after:?}"
        );
        assert!(
            after.loops - before.loops <= 2 * idle_loops,
            "loop must idle, not spin: {} turns in {:?}",
            after.loops - before.loops,
            since.elapsed()
        );
    }

    #[test]
    fn stuck_parent_neither_spins_the_uplink_shard_nor_loses_count() {
        // A parent that reads but stops acking: the window fills, then the
        // tap, then the tap sheds.
        let listener = FakeParent::listen();
        let leaf_a = leaf(&listener, |up| {
            up.unacked_capacity = 4;
            up.tap_capacity = 8;
        });
        let mut parent = FakeParent::accept(&listener, &leaf_a);
        let (state, tap) = (leaf_a.state(), leaf_a.state().upstream_tap().unwrap());
        for seq in 1..=4 {
            state.ingest_batch("app", 0, beats(3));
            assert_eq!(parent.recv_rollup(), (seq, 3, 0));
        }
        for _ in 0..13 {
            state.ingest_batch("app", 0, beats(3));
        }
        assert_eq!(tap.dropped_beats(), 5 * 3);
        assert_idles(&leaf_a);
        // The parent resumes: every ack reopens the window, and the shed
        // beats arrive as an exact drop count.
        let (mut last_seq, mut received, mut dropped) = (4, 4 * 3, 0);
        while received + tap.dropped_beats() < tap.captured_beats() {
            parent.send(&Frame::RelayAck {
                last_applied: last_seq,
            });
            let (seq, beats, dropped_total) = parent.recv_rollup();
            last_seq = seq;
            received += beats as u64;
            dropped = dropped.max(dropped_total);
        }
        assert_eq!((received, dropped), (12 * 3, 5 * 3));

        // A parent that stops reading: the socket fills, then the outbound
        // buffer up to its cap, then the tap, then the tap sheds.
        let listener = FakeParent::listen();
        let leaf_b = leaf(&listener, |up| {
            up.unacked_capacity = usize::MAX;
            up.tap_capacity = 8;
        });
        let mut parent = FakeParent::accept(&listener, &leaf_b);
        let (state, tap) = (leaf_b.state(), leaf_b.state().upstream_tap().unwrap());
        wait_until("the tap to shed", || {
            state.ingest_batch("app", 0, beats(MAX_EVENT_BEATS));
            tap.dropped_beats() > 0
        });
        assert_idles(&leaf_b);
        // The parent resumes reading: the socket drains by EPOLLOUT, and the
        // tail a budget held back in the tap follows within a timed pass.
        let mut received = 0;
        while received + tap.dropped_beats() < tap.captured_beats() {
            received += parent.recv_rollup().1 as u64;
        }
        assert_eq!(received + tap.dropped_beats(), tap.captured_beats());
        let link = state.upstream_stats().unwrap();
        assert_eq!((link.reconnects(), link.retransmits()), (0, 0));
    }

    #[test]
    fn live_uplink_is_never_idle_evicted() {
        let listener = FakeParent::listen();
        let mut upstream = UpstreamConfig::new(listener.local_addr().unwrap().to_string(), "leaf");
        upstream.backoff_min = Duration::from_secs(30);
        let leaf = Collector::with_config(
            "127.0.0.1:0",
            "127.0.0.1:0",
            CollectorConfig {
                io_threads: 1,
                idle_timeout: Duration::from_millis(150),
                upstream: Some(upstream),
                ..CollectorConfig::default()
            },
        )
        .unwrap();
        let _parent = FakeParent::accept(&listener, &leaf);
        let link = leaf.state().upstream_stats().unwrap();
        // Far past the idle timeout with nothing to roll up.
        std::thread::sleep(Duration::from_millis(600));
        assert!(link.connected(), "a silent link is still a link");
        assert_eq!(leaf.state().evicted_total(), 0);
    }

    #[test]
    fn uplink_close_returns_the_session_exactly_once() {
        let listener = FakeParent::listen();
        let state = Arc::new(CollectorState::new(CollectorConfig {
            upstream: Some(UpstreamConfig::new("unused:0", "leaf")),
            ..CollectorConfig::default()
        }));
        let config = Arc::new(UpstreamConfig::new("unused:0", "leaf"));
        let (signals, parked) = mpsc::channel();
        // Lends a session holding three unacked rollups to a handler on
        // `reactor` and returns the stream's other end.
        let lend = |reactor: &Reactor| {
            let mut session = Session::default();
            for seq in 1..=3 {
                session.window.send(payload(seq));
            }
            let handler = UplinkHandler::new(
                Arc::clone(&state),
                Arc::clone(&config),
                session,
                signals.clone(),
            );
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            reactor.installer(0)(stream, Box::new(handler));
            listener.accept().unwrap().0
        };
        let returned = |what: &str| {
            match parked.recv_timeout(Duration::from_secs(20)) {
                Ok(Signal::Closed(session, established)) => {
                    assert_eq!(
                        (session.window.in_flight(), established),
                        (3, false),
                        "{what}"
                    );
                }
                _ => panic!("{what}: the session never came back"),
            }
            assert!(
                parked.try_recv().is_err(),
                "{what}: the session came back twice"
            );
        };
        let spawn = || {
            let config = ReactorConfig {
                io_threads: 2,
                ..ReactorConfig::default()
            };
            Reactor::spawn(Vec::new(), config, Arc::new(AtomicU64::new(0))).unwrap()
        };

        // The peer hangs up on an installed connection.
        let mut reactor = spawn();
        drop(lend(&reactor));
        returned("peer close");
        // Shutdown closes an installed connection.
        let mut peer = lend(&reactor);
        peer.read_exact(&mut [0u8; crate::wire::HEADER_LEN])
            .expect("the install's NodeHello");
        reactor.shutdown();
        returned("shutdown");
        // A reactor that has shut down refuses the hand-off.
        let _peer = lend(&reactor);
        returned("refused install");
        // Shutdown racing the hand-off: whichever side finds the connection
        // — the shard's install, the shard's last inbox sweep, shutdown's —
        // closes it, and only that side.
        for _ in 0..50 {
            let mut reactor = spawn();
            let _peer = lend(&reactor);
            reactor.shutdown();
            returned("shutdown during hand-off");
        }
    }
}
