//! The parent side of federation: the child collectors relaying into this
//! one. A child links in over the ingest port with a [`Frame::NodeHello`]
//! and is then served by one persistent [`UpstreamLink`], kept across its
//! reconnects: the link's apply watermark makes relayed rollups
//! exactly-once, and its routes carry the subscriptions propagated down to
//! the child with the cursor each resumes from. Relayed apps live in the
//! registry as `node/app`. The child side is [`crate::upstream`]; see
//! `docs/FEDERATION.md`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::collector::{CollectorState, Peer};
use crate::reactor::{OutBuf, PumpHandle};
use crate::subscribe::{LocalSubscription, SubEntry, SubscriberQueue};
use crate::telemetry::Level;
use crate::wire::{
    EventFrame, EventPayload, Frame, SubStatus, SubscribeReq, WireBeat, AUTH_LEN, MAX_NAME_LEN,
};

/// The parent-side federation state a [`CollectorState`] holds.
#[derive(Debug, Default)]
pub(crate) struct Federation {
    /// One persistent [`UpstreamLink`] per child node name, surviving that
    /// child's reconnects so `last_applied` sequences keep retransmissions
    /// exactly-once. Ordered by node name.
    links: Mutex<BTreeMap<String, Arc<UpstreamLink>>>,
    /// Bumped whenever this collector's downstream path changes (a child
    /// connects or announces a new path). The uplink watches it and
    /// reconnects upward to re-announce the wider path, so loop detection
    /// stays correct as the tree assembles in any order.
    path_epoch: AtomicU64,
    /// Uplinks refused because the child's announced path contained this
    /// collector's own node name (a relay cycle).
    rejected_loop: AtomicU64,
    /// Uplinks refused because the challenge went unanswered or the
    /// keyed-HMAC answer did not verify.
    rejected_auth: AtomicU64,
}

impl CollectorState {
    /// The child links, locked.
    fn links(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<UpstreamLink>>> {
        self.federation
            .links
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Parent side of the federation tree: one row per child node that has
    /// ever linked, sorted by node.
    pub fn origins(&self) -> Vec<OriginSnapshot> {
        self.links().values().map(|link| link.snapshot()).collect()
    }

    /// Per-origin cluster rollups computed from the registry: for every
    /// linked child node, its app count, summed beats, and how many of its
    /// apps sit in each health class (indexed by
    /// [`HealthStatus::as_u8`](crate::HealthStatus::as_u8)). The federation
    /// soak reconciles these against per-leaf ground truth; `/metrics`
    /// exports them as the `hb_origin_*` series.
    pub fn origin_rollups(&self) -> Vec<OriginRollup> {
        let mut rollups: BTreeMap<String, OriginRollup> = self
            .links()
            .keys()
            .map(|node| {
                let rollup = OriginRollup {
                    node: node.clone(),
                    ..OriginRollup::default()
                };
                (node.clone(), rollup)
            })
            .collect();
        if rollups.is_empty() {
            return Vec::new();
        }
        for (row, health) in self.scrape_rows() {
            let Some(rollup) = row
                .app
                .split_once('/')
                .and_then(|(origin, _)| rollups.get_mut(origin))
            else {
                continue;
            };
            rollup.apps += 1;
            rollup.beats_total += row.total_beats;
            rollup.dropped_total += row.producer_dropped;
            if let Some(count) = rollup.health_counts.get_mut(usize::from(health.as_u8())) {
                *count += 1;
            }
        }
        rollups.into_values().collect()
    }

    /// True if `app` is namespaced under a child whose link is currently
    /// up. Such apps are excluded from this tier's silence sweep (their
    /// origin's own detector is authoritative while it can still report).
    pub(crate) fn under_live_origin(&self, app: &str) -> bool {
        let Some((origin, _)) = app.split_once('/') else {
            return false;
        };
        self.links()
            .get(origin)
            .is_some_and(|link| link.is_connected())
    }

    /// Admits a child's [`Frame::NodeHello`] on a fresh ingest connection
    /// and returns the connection's next state, or `None` to refuse it.
    /// A path that already contains this collector's own node name would
    /// close a relay cycle — beats would circulate forever — and is
    /// refused at connect time. The tree root has no upstream and never
    /// refuses: a cycle cannot close without every participant relaying
    /// upward. With a cluster secret the hello is held
    /// ([`Peer::Challenged`]) until a [`Frame::NodeAuth`] proves knowledge
    /// of the secret for this node name and a fresh nonce.
    pub(crate) fn node_hello(
        &self,
        node: String,
        pid: u32,
        path: Vec<String>,
        out: &mut OutBuf,
    ) -> Option<Peer> {
        let own = self.config.upstream.as_ref().map(|up| up.node.as_str());
        if path.iter().any(|node| Some(node.as_str()) == own) {
            self.count_uplink_rejected(UplinkRejectReason::Loop);
            crate::log!(
                Level::Warn,
                "uplink refused node={node}: path {path:?} would close a relay cycle"
            );
            return None;
        }
        if self.config.cluster_secret.is_none() {
            return Some(self.link_up(&node, pid, path, out));
        }
        let nonce = crate::auth::fresh_nonce();
        Frame::NodeChallenge { nonce }.encode_into(out.vec_mut());
        Some(Peer::Challenged {
            node,
            pid,
            path,
            nonce,
        })
    }

    /// Admits the [`Frame::NodeAuth`] answering a challenged hello: the
    /// link comes up only if `mac` is the keyed HMAC of `nonce` and `node`
    /// under this collector's cluster secret. `None` refuses it.
    pub(crate) fn node_auth(
        &self,
        node: &str,
        pid: u32,
        path: Vec<String>,
        nonce: &[u8; AUTH_LEN],
        mac: &[u8; AUTH_LEN],
        out: &mut OutBuf,
    ) -> Option<Peer> {
        let verified = self.config.cluster_secret.as_deref().is_some_and(|secret| {
            crate::auth::mac_eq(&crate::auth::uplink_mac(secret, nonce, node), mac)
        });
        if !verified {
            self.count_uplink_rejected(UplinkRejectReason::Auth);
            crate::log!(
                Level::Warn,
                "uplink refused node={node}: challenge response failed verification"
            );
            return None;
        }
        Some(self.link_up(node, pid, path, out))
    }

    /// Brings child `node`'s link up after every admission check passed:
    /// session start, subscription (re-)propagation and the resume ack,
    /// which tells the child which rollup sequences this parent already
    /// applied, so the child retransmits exactly the gap.
    fn link_up(&self, node: &str, pid: u32, path: Vec<String>, out: &mut OutBuf) -> Peer {
        crate::log!(Level::Info, "link up node={node} pid={pid} path={path:?}");
        let (link, session) = self.link_hello(node, path);
        Frame::RelayAck {
            last_applied: link.last_applied(),
        }
        .encode_into(out.vec_mut());
        Peer::Link {
            link,
            session,
            ack_due: false,
        }
    }

    /// Starts (or restarts) the link session for child `node` (the
    /// [`Frame::NodeHello`] path), records the child's announced path, and
    /// replays every active subscription down the fresh link — resuming
    /// any that already have a route (and a cursor watermark) from before
    /// the reconnect. Returns the link and the session token the serving
    /// connection must present at close.
    pub(crate) fn link_hello(&self, node: &str, path: Vec<String>) -> (Arc<UpstreamLink>, u64) {
        let link = Arc::clone(
            self.links()
                .entry(node.to_string())
                .or_insert_with(|| Arc::new(UpstreamLink::new(node))),
        );
        *link.path.lock().unwrap_or_else(|e| e.into_inner()) = path;
        let session = link.begin_session();
        // The downstream view widened (or at least changed): our own
        // upward announcement must follow, so the relay re-announces.
        self.federation.path_epoch.fetch_add(1, Ordering::Release); // ordering: Release-bumps the epoch after the uplink path swap; pairs with the Acquire load in path_epoch()
        if let Some(tap) = self.upstream_tap() {
            tap.request_pump(); // the uplink's handler compares epochs when pumped
        }
        for entry in self.subscriptions().all_active() {
            self.propagate_entry_to_link(&entry, &link);
        }
        (link, session)
    }

    /// The monotone epoch of this collector's downstream path (bumped on
    /// every child hello). The uplink's handler reconnects upward when it
    /// changes, so the announced path vector is never stale.
    pub(crate) fn path_epoch(&self) -> u64 {
        self.federation.path_epoch.load(Ordering::Acquire) // ordering: pairs with the Release bump so a fresh epoch observes the swapped path
    }

    /// The path vector this collector announces upward: its own node name
    /// followed by every node relaying through it (children in node order,
    /// their subtrees flattened), deduplicated and capped at
    /// [`crate::wire::MAX_PATH_NODES`].
    pub(crate) fn downstream_path(&self, own: &str) -> Vec<String> {
        let mut path = vec![own.to_string()];
        for link in self.links().values().filter(|link| link.is_connected()) {
            for node in link.path.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                if !path.contains(node) {
                    path.push(node.clone());
                }
            }
        }
        path.truncate(crate::wire::MAX_PATH_NODES);
        path
    }

    /// Counts one refused uplink hello for `/metrics`
    /// (`hb_collector_uplink_rejected_total{reason}`).
    fn count_uplink_rejected(&self, reason: UplinkRejectReason) {
        match reason {
            UplinkRejectReason::Loop => &self.federation.rejected_loop,
            UplinkRejectReason::Auth => &self.federation.rejected_auth,
        }
        .fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// `(loop, auth)` refused-uplink counters.
    pub fn uplink_rejections(&self) -> (u64, u64) {
        (
            self.federation.rejected_loop.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
            self.federation.rejected_auth.load(Ordering::Relaxed), // ordering: monitoring read; staleness is acceptable
        )
    }

    /// Registers a subscription *and* propagates it down every connected
    /// child link whose namespace its pattern could reach. Observer
    /// connections and [`subscribe_local`](Self::subscribe_local) register
    /// through here.
    pub(crate) fn register_subscription(
        &self,
        queue: &Arc<SubscriberQueue>,
        req: &SubscribeReq,
    ) -> std::result::Result<Arc<SubEntry>, SubStatus> {
        let entry = self.subscriptions().register(queue, req)?;
        self.propagate(&entry);
        Ok(entry)
    }

    /// Unregisters a subscription and retracts its downlink propagations.
    pub(crate) fn unregister_subscription(
        &self,
        queue: &Arc<SubscriberQueue>,
        sub_id: u32,
    ) -> bool {
        let subs = self.subscriptions();
        let entry = subs
            .entries_for(queue)
            .into_iter()
            .find(|entry| entry.sub_id() == sub_id);
        let removed = subs.unregister(queue, sub_id);
        if let Some(entry) = entry {
            self.retract_entry(&entry);
        }
        removed
    }

    /// Drops a closing connection's whole queue, retracting every
    /// propagated subscription it held.
    pub(crate) fn drop_queue_subscriptions(&self, queue: &Arc<SubscriberQueue>) {
        for entry in self.subscriptions().entries_for(queue) {
            self.retract_entry(&entry);
        }
        self.subscriptions().drop_queue(queue);
    }

    /// Propagates `entry` down every connected child link — which is what
    /// makes propagation recurse when the entry is itself a propagated
    /// subscription at a mid tier.
    fn propagate(&self, entry: &Arc<SubEntry>) {
        for link in self.links().values().filter(|link| link.is_connected()) {
            self.propagate_entry_to_link(entry, link);
        }
    }

    /// Pushes a translated Subscribe for `entry` onto `link`'s outbox if
    /// the pattern could match anything under that child's namespace. When
    /// a route for `entry` already exists (a reconnect), the **same**
    /// downlink id is re-subscribed with `resume_from` set one past its
    /// cursor watermark, so the child resumes the stream instead of
    /// restarting it.
    fn propagate_entry_to_link(&self, entry: &Arc<SubEntry>, link: &UpstreamLink) {
        let Some(pattern) = Self::child_pattern(entry.pattern(), &link.node) else {
            return;
        };
        let (sub_id, resume_from) = match link.route_for(entry) {
            Some((id, route)) => (id, route.last_seen_cursor() + 1),
            None => (link.add_route(Arc::clone(entry)), 0),
        };
        link.push_frame(&Frame::Subscribe(SubscribeReq {
            sub_id,
            pattern,
            interests: entry.interests(),
            min_interval_ns: entry.min_interval().as_nanos().min(u64::MAX as u128) as u64,
            resume_from,
        }));
    }

    /// Removes every downlink route feeding `entry` and queues the matching
    /// Unsubscribes, so child subscription gauges return to their prior
    /// values when an observer unsubscribes at this tier.
    fn retract_entry(&self, entry: &Arc<SubEntry>) {
        for link in self.links().values() {
            for sub_id in link.remove_routes(|route| Arc::ptr_eq(&route.entry, entry)) {
                link.push_frame(&Frame::Unsubscribe { sub_id });
            }
        }
    }

    /// Translates a parent-tier pattern into the child's namespace.
    /// `node/rest` strips to `rest` exactly; a glob that merely *overlaps*
    /// the `node/` prefix (e.g. `*`, `leaf*/cam1`) conservatively becomes
    /// `*` — the child then over-delivers and
    /// [`deliver_routed_event`](Self::deliver_routed_event) re-filters with
    /// the original pattern, so delivery stays exact. `None` means the
    /// pattern can never match under this child: nothing is propagated.
    fn child_pattern(pattern: &str, node: &str) -> Option<String> {
        if let Some(rest) = pattern
            .strip_prefix(node)
            .and_then(|rest| rest.strip_prefix('/'))
        {
            return (!rest.is_empty()).then(|| rest.to_string());
        }
        crate::wire::glob_overlaps_prefix(pattern, &format!("{node}/")).then(|| "*".to_string())
    }

    /// Applies one child rollup event ([`Frame::RelayEvent`]): absorbs the
    /// namespaced batch if `seq` has not been applied yet. Duplicates
    /// (retransmissions already covered by `last_applied`) are counted and
    /// skipped — together with the child's cumulative sequences this makes
    /// the rollup plane exactly-once across reconnects.
    pub(crate) fn apply_relay_event(&self, link: &UpstreamLink, seq: u64, event: EventFrame) {
        if !link.claim_seq(seq) {
            link.duplicate_events.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            return;
        }
        if let EventPayload::Beats {
            dropped_total,
            beats,
        } = event.payload
        {
            self.ingest_relayed(link, &event.app, dropped_total, beats);
        }
    }

    /// Absorbs one relayed batch as `node/app`. No subscriber fan-out: the
    /// event plane (subscription propagation) is the one delivery path for
    /// relayed activity, so fanning rollups out too would double-deliver.
    fn ingest_relayed(
        &self,
        link: &UpstreamLink,
        app: &str,
        dropped_total: u64,
        beats: Vec<WireBeat>,
    ) {
        let key = format!("{}/{app}", link.node);
        if key.len() > MAX_NAME_LEN || !crate::wire::valid_app_name(&key) {
            link.oversize_names.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            return;
        }
        let relayed = beats.len() as u64;
        self.absorb_relayed(key, dropped_total, beats);
        link.relayed_beats.fetch_add(relayed, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// Delivers a child-forwarded subscription event ([`Frame::Event`] on a
    /// link connection): looks up the downlink route, cursor-checks it
    /// against the route's watermark (resume replays overlap — duplicates
    /// are dropped here, gaps are counted), re-prefixes the app name with
    /// the child's node, re-filters against the *original* pattern (the
    /// child may hold a conservative `*` translation) and enqueues toward
    /// the subscriber. A route whose entry went inactive is retracted
    /// lazily here.
    pub(crate) fn deliver_routed_event(&self, link: &UpstreamLink, event: EventFrame) {
        let Some(route) = link.route(event.sub_id) else {
            return;
        };
        let entry = Arc::clone(&route.entry);
        if !entry.is_active() {
            self.retract_entry(&entry);
            return;
        }
        match link.check_cursor(&route, event.cursor) {
            CursorVerdict::Duplicate => return,
            CursorVerdict::Gap(skipped) => crate::log!(
                Level::Warn,
                "event stream gap node={} sub={} skipped={} (child ring overflow)",
                link.node,
                event.sub_id,
                skipped
            ),
            CursorVerdict::Fresh => {}
        }
        let app = format!("{}/{}", link.node, event.app);
        if app.len() > MAX_NAME_LEN || !crate::wire::valid_app_name(&app) {
            link.oversize_names.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            return;
        }
        if !entry.matches(&app) {
            return;
        }
        self.deliver(&entry, &app, event.payload);
        link.relayed_events.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }

    /// The relay side of [`register_subscription`](Self::register_subscription):
    /// opens a propagated subscription under the parent-chosen downlink id
    /// with a dedicated queue (so the relay forwards its frames verbatim —
    /// sub ids already match what the parent routes on). Propagated
    /// subscriptions are **cursored**: their events carry monotone
    /// per-subscription cursors (spliced in at uplink send) and their
    /// drained frames are retained in the queue's replay ring for resume
    /// after a link failure.
    pub(crate) fn subscribe_propagated(
        &self,
        req: &SubscribeReq,
    ) -> std::result::Result<LocalSubscription, SubStatus> {
        let queue = Arc::new(self.subscriber_queue());
        let entry = self.subscriptions().register_cursored(&queue, req)?;
        self.propagate(&entry);
        Ok(LocalSubscription::new(
            queue,
            Arc::clone(self.subscriptions()),
            req.sub_id,
        ))
    }
}

/// Parent-side view of one federation child link (see
/// [`CollectorState::origins`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginSnapshot {
    /// The child's node name (the `node/` prefix of its relayed apps).
    pub node: String,
    /// True while the child's relay link is established.
    pub connected: bool,
    /// Highest relay sequence applied from this child (exactly-once
    /// watermark; survives the child's reconnects).
    pub last_applied: u64,
    /// Beats absorbed from this child's rollup events.
    pub relayed_beats: u64,
    /// Subscription events forwarded from this child and delivered.
    pub relayed_events: u64,
    /// Retransmitted rollup events skipped as already applied.
    pub duplicate_events: u64,
    /// Relayed names dropped because the `node/` prefix overflowed the
    /// wire name limit.
    pub oversize_names: u64,
    /// Cursored subscription events dropped as resume-replay overlaps.
    pub event_stream_duplicates: u64,
    /// Event cursors skipped on this child's streams (its replay ring
    /// overflowed while disconnected) — accounted loss, never silent.
    pub event_stream_gaps: u64,
}

/// Why an uplink [`Frame::NodeHello`] was refused (the `reason` label of
/// `hb_collector_uplink_rejected_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UplinkRejectReason {
    /// The child's announced path contained this collector's own node
    /// name — accepting would close a relay cycle.
    Loop,
    /// The keyed-HMAC challenge went unanswered or failed verification.
    Auth,
}

/// Per-origin cluster rollup computed from the registry (see
/// [`CollectorState::origin_rollups`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OriginRollup {
    /// The child's node name.
    pub node: String,
    /// Applications registered under `node/`.
    pub apps: u64,
    /// Total beats absorbed across those applications.
    pub beats_total: u64,
    /// Total reported drops across those applications (producer-side plus
    /// everything shed on the way up, folded in by the relay tiers).
    pub dropped_total: u64,
    /// Apps per health class, indexed by
    /// [`HealthStatus::as_u8`](crate::HealthStatus::as_u8):
    /// `[nosignal, stalled, degraded, healthy]`.
    pub health_counts: [u64; 4],
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
#[derive(Debug, Default)]
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
    /// Downlink subscription ids handed out so far (ids start at 1).
    downlinks: AtomicU32,
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
            ..UpstreamLink::default()
        }
    }

    /// Starts a new link session: marks the link connected, clears the
    /// stale outbox and returns the session token the serving handler must
    /// present at close. Routes deliberately survive — their watermarks
    /// are the resume points the new session subscribes from.
    pub(crate) fn begin_session(&self) -> u64 {
        let session = self.session.fetch_add(1, Ordering::AcqRel) + 1; // ordering: a new session orders after the old one's teardown and before its own stores
        self.connected.store(true, Ordering::Release); // ordering: publishes the session flip; pairs with Acquire readers
        self.outbox
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
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
        // ordering: pairs with the AcqRel session bump; only the current session may clear the flag
        if self.session.load(Ordering::Acquire) == session {
            self.connected.store(false, Ordering::Release); // ordering: publishes the disconnect; pairs with Acquire readers
        }
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
            // ordering: CAS claim of the apply watermark; one winner per seq across reconnect-overlapping sessions
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (seq > cur).then_some(seq)
            })
            .is_ok()
    }

    /// Allocates a fresh downlink subscription id and records its route.
    pub(crate) fn add_route(&self, entry: Arc<SubEntry>) -> u32 {
        let id = self.downlinks.fetch_add(1, Ordering::Relaxed) + 1; // ordering: downlink-id allocation; only atomicity matters
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
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

    /// Removes the routes `dead` picks, returning their downlink ids to
    /// unsubscribe at the child.
    fn remove_routes(&self, dead: impl Fn(&RouteState) -> bool) -> Vec<u32> {
        let mut removed = Vec::new();
        let mut routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
        routes.retain(|&id, route| {
            let keep = !dead(route);
            if !keep {
                removed.push(id);
            }
            keep
        });
        removed
    }

    /// Removes routes whose entries went inactive without an explicit
    /// retraction (e.g. a dropped [`LocalSubscription`]), returning their
    /// downlink ids.
    pub(crate) fn collect_dead_routes(&self) -> Vec<u32> {
        self.remove_routes(|route| !route.entry.is_active())
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
            // ordering: CAS claim of the event cursor; one winner per seq across reconnect-overlapping sessions
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |last| {
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

    /// This link's row of [`CollectorState::origins`].
    pub(crate) fn snapshot(&self) -> OriginSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed); // ordering: monitoring read; staleness is acceptable
        OriginSnapshot {
            node: self.node.clone(),
            connected: self.is_connected(),
            last_applied: self.last_applied(),
            relayed_beats: read(&self.relayed_beats),
            relayed_events: read(&self.relayed_events),
            duplicate_events: read(&self.duplicate_events),
            oversize_names: read(&self.oversize_names),
            event_stream_duplicates: read(&self.event_duplicates),
            event_stream_gaps: read(&self.event_gaps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribe::SubscriptionRegistry;
    use std::collections::HashSet;

    const RACERS: usize = 4;
    const N: u64 = 2_000;

    /// Runs `race` on `RACERS` threads released together and returns what
    /// each one produced.
    fn race<T: Send>(race: impl Fn() -> T + Sync) -> Vec<T> {
        let start = std::sync::Barrier::new(RACERS);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..RACERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        race()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        })
    }

    /// The reconnect-overlap claims: when an old connection's buffered
    /// copy of a rollup window and the new connection's retransmit race on
    /// different shards, every sequence is applied at most once, and every
    /// event cursor is delivered at most once or counted as a gap.
    #[test]
    fn racing_claims_win_each_sequence_and_cursor_at_most_once() {
        let link = UpstreamLink::new("leaf");
        let wins = race(|| {
            (1..=N)
                .filter(|&seq| link.claim_seq(seq))
                .collect::<Vec<_>>()
        });
        let mut won = HashSet::new();
        for seq in wins.into_iter().flatten() {
            assert!(won.insert(seq), "sequence {seq} applied twice");
        }
        assert_eq!(link.last_applied(), N);

        let subs = SubscriptionRegistry::new();
        let queue = Arc::new(SubscriberQueue::new(16));
        let req = SubscribeReq {
            sub_id: 1,
            pattern: "*".into(),
            interests: 1,
            min_interval_ns: 0,
            resume_from: 0,
        };
        let id = link.add_route(subs.register(&queue, &req).unwrap());
        let route = link.route(id).unwrap();
        let verdicts = race(|| {
            (1..=N)
                .map(|cursor| (cursor, link.check_cursor(&route, cursor)))
                .filter(|(_, verdict)| *verdict != CursorVerdict::Duplicate)
                .collect::<Vec<_>>()
        });
        let mut delivered = HashSet::new();
        let mut skipped = 0;
        for (cursor, verdict) in verdicts.into_iter().flatten() {
            assert!(delivered.insert(cursor), "cursor {cursor} delivered twice");
            if let CursorVerdict::Gap(gap) = verdict {
                skipped += gap;
            }
        }
        assert_eq!(delivered.len() as u64 + skipped, N);
        assert_eq!(link.snapshot().event_stream_gaps, skipped);
        assert_eq!(route.last_seen_cursor(), N);
    }
}
