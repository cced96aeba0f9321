//! Observer-side client for the collector's query port.
//!
//! [`RemoteReader`] asks every question as a binary query frame — one
//! round trip per call, decoded straight into the typed reply the collector
//! built (the line protocol on the same port is that reply *rendered* for
//! humans and `nc`; of it this client speaks only the one-line `VERSION`
//! and `PING` probes, which must work against any collector) — and carries
//! the **push-subscription plane** ([`subscribe`](RemoteReader::subscribe)
//! → [`Subscription`]) over the same persistent connection; [`RemoteApp`]
//! narrows it to a single application and implements
//! [`heartbeats::Observe`] — so a `control::RateMonitor` or
//! `control::ControlLoop` (whose `RateSource`/`HealthSource` traits have
//! blanket impls for every `Observe`) drives adaptation from a collector
//! exactly the way it drives from an in-process
//! [`heartbeats::HeartbeatReader`], holds its actuator when the collector
//! says the application stalled, and reacts to *pushed* health transitions
//! instead of polling.
//!
//! ## Connection demultiplexing
//!
//! Queries are strict request/response, but an active subscription makes
//! the collector write [`Frame::Event`]s at its own pace, interleaved with
//! query replies on the same socket. The first `subscribe` therefore
//! upgrades the connection onto the process-wide **client reactor**: one
//! [`Reactor`] thread, `hb-net-client`, spawned by the first `subscribe` and
//! shared by every subscribed reader. It decodes every frame exactly once,
//! routing events to their [`Subscription`] queues and handing every other
//! frame, already decoded, to the synchronous query path waiting for it;
//! it also writes the queries' requests, so no other thread touches the
//! socket. Like a collector shard, it takes a timed pass every 20 ms.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use heartbeats::observe::{
    EventStream, Observe, ObserveError, ObserveEvent, ObserveEventKind, ObserveFilter,
    ObserveStream, ObservedBeat, ObservedHealth, ObservedSnapshot,
};

use crate::collector::AppSnapshot;
use crate::error::{NetError, Result};
use crate::frame::FrameDecoder;
use crate::health::{HealthReport, HealthStatus};
use crate::query::CollectorStats;
use crate::reactor::{Handler, OutBuf, PumpCause, PumpHandle, Reactor, ReactorConfig};
use crate::telemetry::{self, HistoSnapshot, LatencyHisto};
use crate::wire::{self, EventFrame, EventPayload, Frame, HistoryChunk, SubStatus, SubscribeReq};

/// How long a synchronous query waits for each reply frame before treating
/// the connection as dead, on either path: the deadline of a direct
/// connection's blocking read and the demux reply queue's wait bound.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Client-side bound on one subscription's undelivered events; beyond it
/// the oldest is shed and counted ([`Subscription::lost`]).
const SUB_QUEUE_CAPACITY: usize = 8192;

/// A read-only client of a collector's query port.
///
/// One `RemoteReader` holds one persistent connection; every query
/// ([`apps`](RemoteReader::apps), [`snapshot`](RemoteReader::snapshot),
/// [`history`](RemoteReader::history), [`health`](RemoteReader::health),
/// [`stats`](RemoteReader::stats), [`metrics`](RemoteReader::metrics)) is
/// one binary round trip on it, reconnecting transparently if the
/// collector restarts. [`subscribe`](RemoteReader::subscribe) opens a push
/// subscription multiplexed over the same connection.
///
/// ```
/// use hb_net::{Collector, RemoteReader};
///
/// let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
/// let reader = RemoteReader::connect(collector.query_addr().to_string()).unwrap();
///
/// reader.ping().unwrap();
/// assert_eq!(reader.apps().unwrap(), Vec::<String>::new());
/// // Unknown applications answer None, not an error.
/// assert_eq!(reader.snapshot("nobody").unwrap(), None);
/// assert_eq!(reader.health("nobody").unwrap(), None);
/// ```
#[derive(Debug)]
pub struct RemoteReader {
    addr: String,
    conn: Mutex<Option<Conn>>,
    next_sub: AtomicU32,
}

/// One client connection and where its replies arrive.
#[derive(Debug)]
enum Conn {
    /// Never subscribed: the querying thread writes the request and reads
    /// the reply off the socket itself.
    Direct {
        stream: TcpStream,
        decoder: FrameDecoder,
    },
    /// Subscribed: the client reactor owns the socket. Holding the handle
    /// lets a failed query tear the connection down with it (its
    /// subscriptions then close instead of silently starving).
    Demux(Arc<DemuxShared>),
}

impl Conn {
    /// The next reply frame, waiting at most [`REPLY_TIMEOUT`] for it.
    fn next_frame(&mut self) -> Result<Frame> {
        match self {
            Conn::Direct { stream, decoder } => decoder
                .read_frame(stream, Instant::now() + REPLY_TIMEOUT)?
                .ok_or(NetError::UnexpectedEof),
            Conn::Demux(demux) => demux.next_reply(),
        }
    }

    /// One request/response on the connection in `slot`. A failure closes
    /// it — in demux mode its subscriptions too: they must not starve
    /// silently behind a dead socket.
    fn round_trip<T>(
        slot: &mut Option<Conn>,
        request: &[u8],
        read: impl Fn(&mut Conn) -> Result<T>,
    ) -> Result<T> {
        let conn = slot.as_mut().ok_or(NetError::UnexpectedEof)?;
        let sent = match conn {
            Conn::Direct { stream, .. } => stream.write_all(request).map_err(NetError::from),
            Conn::Demux(demux) => demux.send(request),
        };
        let outcome = sent.and_then(|()| read(conn));
        if outcome.is_err() {
            if let Some(Conn::Demux(demux)) = slot.take() {
                demux.shutdown();
            }
        }
        outcome
    }
}

/// State shared between a subscribed connection's [`DemuxHandler`], the
/// reader, and subscriptions.
#[derive(Debug, Default)]
struct DemuxShared {
    link: Mutex<Link>,
    reply_ready: Condvar,
    subs: Mutex<HashMap<u32, Arc<SubShared>>>,
}

/// What passes between the reader's threads and the reactor, events aside.
#[derive(Debug, Default)]
struct Link {
    /// Decoded non-event frames awaiting the synchronous query path.
    replies: VecDeque<Frame>,
    /// Encoded requests waiting for the reactor to write them.
    requests: Vec<u8>,
    /// Asks the reactor to write `requests`; `None` until the install.
    pump: Option<PumpHandle>,
    dead: bool,
}

impl DemuxShared {
    fn link(&self) -> MutexGuard<'_, Link> {
        self.link.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues one encoded request for the reactor to write.
    fn send(&self, request: &[u8]) -> Result<()> {
        let mut link = self.link();
        if link.dead {
            return Err(NetError::UnexpectedEof);
        }
        link.requests.extend_from_slice(request);
        // Before the install there is no handle yet; `on_install` asks.
        if let Some(pump) = &link.pump {
            pump.request();
        }
        Ok(())
    }

    /// Tears the demuxed connection down: fails any waiting query, closes
    /// every subscription, and has the reactor close the socket (at its
    /// install, if it has not got there yet).
    fn shutdown(&self) {
        self.close_all();
        if let Some(pump) = &self.link().pump {
            pump.request();
        }
    }

    /// Blocks for the next reply frame: `UnexpectedEof` once the connection
    /// died, `TimedOut` after [`REPLY_TIMEOUT`] (the query path then
    /// reconnects).
    fn next_reply(&self) -> Result<Frame> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut link = self.link();
        loop {
            if let Some(frame) = link.replies.pop_front() {
                return Ok(frame);
            }
            if link.dead {
                return Err(NetError::UnexpectedEof);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(
                    std::io::Error::new(std::io::ErrorKind::TimedOut, "reply timed out").into(),
                );
            }
            let (guard, _) = self
                .reply_ready
                .wait_timeout(link, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            link = guard;
        }
    }

    fn close_all(&self) {
        self.link().dead = true;
        self.reply_ready.notify_all();
        let mut subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        for sub in subs.values() {
            sub.close();
        }
        subs.clear();
    }
}

/// One subscription's client-side event queue.
#[derive(Debug, Default)]
struct SubShared {
    queue: Mutex<VecDeque<EventFrame>>,
    ready: Condvar,
    closed: AtomicBool,
    lost: AtomicU64,
    /// Wire-faithful delivery lag: the collector's enqueue wall clock
    /// (`sent_at_ns`) to this process's receive wall clock. Spans the
    /// collector pump, the kernel, and the wire — see
    /// [`Subscription::delivery_lag`] for the clock-agreement caveat.
    lag: LatencyHisto,
}

impl SubShared {
    /// Queues one event; the caller wakes the waiter (once per batch).
    fn push(&self, event: EventFrame) {
        // ordering: pairs with the Release in close(); everything enqueued before close stays visible
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        // sent_at_ns == 0 marks a pre-telemetry collector: no lag sample.
        if event.sent_at_ns > 0 {
            self.lag
                .record(telemetry::wall_clock_ns().saturating_sub(event.sent_at_ns));
        }
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= SUB_QUEUE_CAPACITY {
            queue.pop_front();
            self.lost.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        queue.push_back(event);
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release); // ordering: publishes closure; pairs with the Acquire loads on the event path
        self.ready.notify_all();
    }

    fn try_next(&self) -> Option<EventFrame> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    fn wait_next(&self, timeout: Duration) -> Option<EventFrame> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(event) = queue.pop_front() {
                return Some(event);
            }
            // ordering: pairs with the Release in close()
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = guard;
        }
    }
}

/// A subscribed reader's connection on the client reactor. A corrupt
/// stream closes it: there is no resynchronization.
struct DemuxHandler {
    decoder: FrameDecoder,
    shared: Arc<DemuxShared>,
    /// Subscriptions fed by the current `on_data` call, woken as it ends.
    touched: Vec<Arc<SubShared>>,
}

impl Handler for DemuxHandler {
    fn on_install(&mut self, pump: PumpHandle) {
        pump.request(); // for requests queued before the install
        self.shared.link().pump = Some(pump);
    }

    fn on_data(&mut self, input: &[u8], _out: &mut OutBuf) -> bool {
        if self.shared.link().dead {
            return false; // torn down, possibly before the install
        }
        self.decoder.push(input);
        let intact = loop {
            match self.decoder.next_frame() {
                Ok(Some(Frame::Event(event))) => {
                    let subs = self.shared.subs.lock().unwrap_or_else(|e| e.into_inner());
                    // Unknown ids: subscriptions that lapsed in flight.
                    if let Some(sub) = subs.get(&event.sub_id) {
                        sub.push(event);
                        if !self.touched.iter().any(|seen| Arc::ptr_eq(seen, sub)) {
                            self.touched.push(Arc::clone(sub));
                        }
                    }
                }
                Ok(Some(reply)) => {
                    self.shared.link().replies.push_back(reply);
                    self.shared.reply_ready.notify_all();
                }
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        for sub in self.touched.drain(..) {
            sub.ready.notify_all();
        }
        intact
    }

    fn on_pump(&mut self, out: &mut OutBuf, _pending_out: usize, _cause: PumpCause) -> bool {
        let mut link = self.shared.link();
        out.extend_from_slice(&link.requests);
        link.requests.clear();
        !link.dead
    }

    fn on_close(&mut self) {
        self.shared.close_all();
    }
}

/// Installs a connection on the client reactor, which the first call spawns
/// for the life of the process. A failed spawn is returned, not kept.
fn install_on_client_reactor(stream: TcpStream, shared: Arc<DemuxShared>) -> Result<()> {
    static CLIENT: Mutex<Option<Reactor>> = Mutex::new(None);
    let mut client = CLIENT.lock().unwrap_or_else(|e| e.into_inner());
    let reactor = match &mut *client {
        Some(reactor) => reactor,
        empty => empty.insert(Reactor::spawn_named(
            Vec::new(),
            ReactorConfig {
                io_threads: 1,
                idle_timeout: Duration::ZERO,
                ..ReactorConfig::default()
            },
            Arc::new(AtomicU64::new(0)),
            |_| "hb-net-client".into(),
        )?),
    };
    let handler = DemuxHandler {
        decoder: FrameDecoder::new(),
        shared,
        touched: Vec::new(),
    };
    reactor.installer(0)(stream, Box::new(handler));
    Ok(())
}

impl RemoteReader {
    /// Connects to a collector query port (`host:port`). Fails fast if the
    /// collector is unreachable; later failures reconnect transparently.
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        let reader = RemoteReader {
            addr: addr.into(),
            conn: Mutex::new(None),
            next_sub: AtomicU32::new(1),
        };
        let conn = reader.open()?;
        *reader.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(conn);
        Ok(reader)
    }

    /// A fresh socket to the collector, with the reply timeouts set.
    fn dial(&self) -> Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
        stream.set_write_timeout(Some(REPLY_TIMEOUT)).ok();
        Ok(stream)
    }

    fn open(&self) -> Result<Conn> {
        Ok(Conn::Direct {
            stream: self.dial()?,
            decoder: FrameDecoder::new(),
        })
    }

    /// Dials a fresh connection and asks it one single-line text command,
    /// returning the connection and the trimmed answer. The client speaks
    /// text only here, for the two questions that must work against *any*
    /// collector because text is version-independent: `VERSION` before a
    /// single frame is exchanged, and `PING`.
    fn ask_line(&self, command: &str) -> Result<(TcpStream, String)> {
        let stream = self.dial()?;
        (&stream).write_all(format!("{command}\n").as_bytes())?;
        let mut line = String::new();
        if BufReader::new(&stream).take(256).read_line(&mut line)? == 0 {
            return Err(NetError::UnexpectedEof);
        }
        Ok((stream, line.trim().to_string()))
    }

    /// Sends one query frame and collects the response with `read`,
    /// reconnecting once if the cached connection has gone stale.
    fn exchange<T>(&self, request: &Frame, read: impl Fn(&mut Conn) -> Result<T>) -> Result<T> {
        let request = request.encode();
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_some() {
            if let Ok(value) = Conn::round_trip(&mut guard, &request, &read) {
                return Ok(value);
            }
        }
        *guard = Some(self.open()?);
        Conn::round_trip(&mut guard, &request, &read)
    }

    /// One control round trip (`Subscribe` / `Unsubscribe` → its ack),
    /// pinned to a specific demuxed connection and never retried:
    /// subscription control must not be replayed onto a reconnected plain
    /// socket — the collector would then push events into a reply stream
    /// no one demultiplexes, corrupting every later query.
    fn control_on_demux(&self, demux: &Arc<DemuxShared>, request: &Frame) -> Result<Frame> {
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let bound = matches!(guard.as_ref(),
            Some(Conn::Demux(current)) if Arc::ptr_eq(current, demux));
        if !bound {
            return Err(NetError::Protocol(
                "subscription connection was replaced mid-request".into(),
            ));
        }
        Conn::round_trip(&mut guard, &request.encode(), Conn::next_frame)
    }

    /// Upgrades the connection to demux mode (idempotent): probes the
    /// collector's protocol version, hands the probed socket to the client
    /// reactor, and switches the synchronous path onto its outbox and reply
    /// queue. Queries wait out the upgrade: it holds the connection lock.
    fn ensure_demux(&self) -> Result<Arc<DemuxShared>> {
        let mut conn = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(Conn::Demux(demux)) = conn.as_ref() {
            if !demux.link().dead {
                return Ok(Arc::clone(demux));
            }
        }
        // Version check before anything is multiplexed: a collector on any
        // other wire version would never acknowledge a Subscribe frame, so
        // refuse loudly here instead of hanging there.
        let (stream, answer) = self.ask_line("VERSION")?;
        let version = answer.strip_prefix("VERSION ").map(str::trim);
        if version.and_then(|v| v.parse().ok()) != Some(wire::VERSION) {
            return Err(NetError::Unsupported(format!(
                "collector answered the VERSION probe with {answer:?}; push subscriptions \
                 require wire version {}",
                wire::VERSION
            )));
        }
        stream.set_nonblocking(true)?;
        let shared = Arc::new(DemuxShared::default());
        install_on_client_reactor(stream, Arc::clone(&shared))?;
        // Switch the synchronous path onto the demuxed connection — one
        // socket now serves interleaved polls and pushes.
        *conn = Some(Conn::Demux(Arc::clone(&shared)));
        Ok(shared)
    }

    /// Opens a push subscription: the collector streams matching
    /// [`EventFrame`]s (snapshots, health transitions, raw beats — per
    /// `filter.interests`) over this reader's connection until the
    /// [`Subscription`] is dropped or explicitly
    /// [`unsubscribe`](Subscription::unsubscribe)d. Queries keep working on
    /// the same connection while the subscription is live.
    ///
    /// `pattern` selects applications by glob
    /// ([`glob_match`](crate::wire::glob_match): `*` wildcards).
    ///
    /// Fails with [`NetError::Unsupported`] against a collector on any
    /// other wire version than [`wire::VERSION`] — detected up front, never
    /// by hanging on a `Subscribe` no one will acknowledge.
    pub fn subscribe(
        self: &Arc<Self>,
        pattern: &str,
        filter: &ObserveFilter,
    ) -> Result<Subscription> {
        if !wire::valid_subscribe_pattern(pattern) {
            return Err(NetError::Protocol(format!(
                "invalid subscription pattern {pattern:?}"
            )));
        }
        if filter.interests.is_empty() {
            return Err(NetError::Protocol(
                "subscription filter selects no event classes".into(),
            ));
        }
        let demux = self.ensure_demux()?;
        let sub_id = self.next_sub.fetch_add(1, Ordering::Relaxed); // ordering: sub-id allocation; only atomicity matters
        let shared = Arc::new(SubShared::default());
        demux
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(sub_id, Arc::clone(&shared));
        let request = Frame::Subscribe(SubscribeReq {
            sub_id,
            pattern: pattern.to_string(),
            interests: filter.interests.bits(),
            min_interval_ns: filter.min_interval.as_nanos().min(u64::MAX as u128) as u64,
            resume_from: 0,
        });
        let outcome = match self.control_on_demux(&demux, &request) {
            Ok(Frame::SubAck {
                sub_id: acked,
                status,
            }) if acked == sub_id => match status {
                SubStatus::Ok => Ok(()),
                SubStatus::InvalidFilter => Err(NetError::Protocol(format!(
                    "collector rejected subscription filter (pattern {pattern:?})"
                ))),
                SubStatus::TooManySubscriptions => Err(NetError::Unsupported(
                    "collector's per-connection subscription bound reached".into(),
                )),
            },
            Ok(other) => Err(unexpected("a subscription ack", &other)),
            Err(err) => Err(err),
        };
        if outcome.is_err() {
            demux
                .subs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&sub_id);
        }
        outcome.map(|()| Subscription {
            reader: Arc::clone(self),
            demux,
            shared,
            sub_id,
            done: false,
        })
    }

    /// One query round trip: sends `request`, returns the single frame that
    /// answers it.
    fn query_frame(&self, request: &Frame) -> Result<Frame> {
        self.exchange(request, Conn::next_frame)
    }

    /// One query round trip whose reply may span several frames: `take`
    /// folds each into the result and reports whether it was the last.
    fn query_chunked<T: Default>(
        &self,
        request: &Frame,
        take: impl Fn(&mut T, Frame) -> Result<bool>,
    ) -> Result<T> {
        self.exchange(request, |conn| {
            let mut whole = T::default();
            while !take(&mut whole, conn.next_frame()?)? {}
            Ok(whole)
        })
    }

    /// Names of all applications the collector knows about.
    pub fn apps(&self) -> Result<Vec<String>> {
        self.query_chunked(
            &Frame::ListReq,
            |all: &mut Vec<String>, frame| match frame {
                Frame::List { last, names } => {
                    all.extend(names);
                    Ok(last)
                }
                other => Err(unexpected("a list frame", &other)),
            },
        )
    }

    /// Snapshot of one application — every field an in-process
    /// [`CollectorState::snapshot`](crate::CollectorState::snapshot) carries
    /// — or `None` if the collector has never seen it (wire-invalid names
    /// included: no collector can know one, so they are answered locally).
    pub fn snapshot(&self, app: &str) -> Result<Option<AppSnapshot>> {
        if !wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query_frame(&Frame::SnapshotReq {
            app: app.to_string(),
        })? {
            Frame::Snapshot(snapshot) => Ok(snapshot),
            other => Err(unexpected("a snapshot frame", &other)),
        }
    }

    /// The Prometheus text export, reassembled from as many
    /// [`Frame::Metrics`] chunks as the collector needed.
    pub fn metrics(&self) -> Result<String> {
        self.query_chunked(
            &Frame::MetricsReq,
            |export: &mut String, frame| match frame {
                Frame::Metrics { last, text } => {
                    export.push_str(&text);
                    Ok(last)
                }
                other => Err(unexpected("a metrics frame", &other)),
            },
        )
    }

    /// Collector-wide counters: connection, frame and error totals plus the
    /// size of the reactor's I/O thread pool.
    pub fn stats(&self) -> Result<CollectorStats> {
        match self.query_frame(&Frame::StatsReq)? {
            Frame::Stats(stats) => Ok(stats),
            other => Err(unexpected("a stats frame", &other)),
        }
    }

    /// Round-trip liveness probe of the collector itself: `PING` on a fresh
    /// connection must answer `PONG`. Asked as text, so a collector on a
    /// wire version this reader could not query still counts as alive.
    pub fn ping(&self) -> Result<()> {
        match self.ask_line("PING")?.1.as_str() {
            "PONG" => Ok(()),
            answer => Err(NetError::BadResponse(answer.to_string())),
        }
    }

    /// The collector's retained history for `app`: the most recent `limit`
    /// samples (`0` = all retained), chronological, with the total ever
    /// ingested. `None` if the collector has never seen the application —
    /// including any name the wire rules forbid, which no collector can
    /// know (answered locally instead of sending a frame the collector
    /// would reject). One round trip regardless of how many samples come
    /// back.
    pub fn history(&self, app: &str, limit: u32) -> Result<Option<HistoryChunk>> {
        if !wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query_frame(&Frame::HistoryReq {
            app: app.to_string(),
            limit,
        })? {
            Frame::History(chunk) => Ok(chunk.known.then_some(chunk)),
            other => Err(unexpected("a history frame", &other)),
        }
    }

    /// The collector's windowed health classification of `app`
    /// ([`Frame::HealthReq`]), or `None` if the collector has never seen
    /// the application (wire-invalid names included, as with
    /// [`history`](Self::history)).
    pub fn health(&self, app: &str) -> Result<Option<HealthReport>> {
        if !wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query_frame(&Frame::HealthReq {
            app: app.to_string(),
        })? {
            Frame::Health(health) => Ok(health.known.then_some(health.report)),
            other => Err(unexpected("a health frame", &other)),
        }
    }

    /// Narrows this reader to one application as an
    /// [`Observe`] source for control loops (the
    /// blanket `RateSource`/`HealthSource` impls in `control` apply). The
    /// reader is shared; snapshots and subscriptions go over the same
    /// connection.
    pub fn app(self: &Arc<Self>, app: impl Into<String>) -> RemoteApp {
        RemoteApp {
            reader: Arc::clone(self),
            app: app.into(),
        }
    }
}

impl Drop for RemoteReader {
    /// Closes a demuxed connection, which the client reactor would
    /// otherwise keep open after the last handle is gone.
    fn drop(&mut self) {
        let conn = self.conn.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(Conn::Demux(demux)) = conn.take() {
            demux.shutdown();
        }
    }
}

/// A live push subscription on a collector — the handle returned by
/// [`RemoteReader::subscribe`].
///
/// Events are delivered by the client reactor into a bounded
/// queue this handle drains: [`try_next`](Self::try_next) for non-blocking
/// control loops, [`next_timeout`](Self::next_timeout) with a deadline, or
/// the blocking [`Iterator`] (which ends when the subscription closes —
/// explicit [`unsubscribe`](Self::unsubscribe), connection loss, or drop).
///
/// Dropping the handle unsubscribes best-effort; `unsubscribe` does it
/// synchronously and reports the collector's acknowledgment.
#[derive(Debug)]
pub struct Subscription {
    reader: Arc<RemoteReader>,
    demux: Arc<DemuxShared>,
    shared: Arc<SubShared>,
    sub_id: u32,
    done: bool,
}

impl Subscription {
    /// The connection-scoped subscription id.
    pub fn sub_id(&self) -> u32 {
        self.sub_id
    }

    /// Returns the next delivered event without blocking.
    pub fn try_next(&self) -> Option<EventFrame> {
        self.shared.try_next()
    }

    /// Waits up to `timeout` for the next event.
    pub fn next_timeout(&self, timeout: Duration) -> Option<EventFrame> {
        self.shared.wait_next(timeout)
    }

    /// True once no further event can ever arrive (unsubscribed or the
    /// demuxed connection died) and the queue is drained.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire) // ordering: pairs with the Release in close()
            && self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
    }

    /// Events shed client-side because this handle fell behind the stream
    /// (the collector's own shedding is visible in its `events_dropped`
    /// counter).
    pub fn lost(&self) -> u64 {
        self.shared.lost.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Observed end-to-end delivery lag: collector enqueue wall clock
    /// ([`EventFrame::sent_at_ns`]) to this process's receive wall clock,
    /// one sample per event received so far. Meaningful to the extent the
    /// two hosts' clocks agree (same host: exact; NTP-synced: tens of
    /// microseconds); skew that would make a lag negative clamps the
    /// sample to zero, and events from collectors that predate stamping
    /// (`sent_at_ns == 0`) record nothing.
    pub fn delivery_lag(&self) -> HistoSnapshot {
        self.shared.lag.snapshot()
    }

    /// Cancels the subscription synchronously: sends the unsubscribe,
    /// waits for the collector's ack, and closes the local queue — after
    /// this returns, no further events are delivered.
    pub fn unsubscribe(mut self) -> Result<()> {
        self.close_now()
    }

    fn close_now(&mut self) -> Result<()> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        // Stop delivery and drop anything undrained first: "unsubscribe →
        // no further events" holds even for events already in flight.
        self.shared.close();
        self.demux
            .subs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.sub_id);
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        if self.demux.link().dead {
            return Ok(()); // the connection died; nothing to tell anyone
        }
        let request = Frame::Unsubscribe {
            sub_id: self.sub_id,
        };
        match self.reader.control_on_demux(&self.demux, &request)? {
            Frame::SubAck { .. } => Ok(()),
            other => Err(unexpected("an unsubscribe ack", &other)),
        }
    }
}

impl Iterator for Subscription {
    type Item = EventFrame;

    /// Blocks until the next event; `None` once the subscription closes.
    fn next(&mut self) -> Option<EventFrame> {
        loop {
            if let Some(event) = self.shared.wait_next(Duration::from_millis(250)) {
                return Some(event);
            }
            // ordering: pairs with the Release in close()
            if self.shared.closed.load(Ordering::Acquire) || self.done {
                return None;
            }
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let _ = self.close_now(); // best effort; the ack may never come
    }
}

/// The error for a reply of the wrong kind.
fn unexpected(wanted: &str, got: &Frame) -> NetError {
    NetError::BadResponse(format!("expected {wanted}, got {got:?}"))
}

/// One application as seen through a collector — an
/// [`Observe`] source for remote control loops.
///
/// Network failures surface as "no data" (`None` snapshots,
/// [`ObservedHealth::NoSignal`]) rather than panics: a controller treats an
/// unreachable collector the same way it treats an application that has not
/// beaten yet.
#[derive(Debug, Clone)]
pub struct RemoteApp {
    reader: Arc<RemoteReader>,
    app: String,
}

impl RemoteApp {
    /// The underlying shared reader.
    pub fn reader(&self) -> &Arc<RemoteReader> {
        &self.reader
    }

    /// Fetches the current snapshot, if the collector knows the app.
    pub fn snapshot(&self) -> Option<AppSnapshot> {
        self.reader.snapshot(&self.app).ok().flatten()
    }

    /// Fetches the collector's windowed health report, if the collector
    /// knows the app.
    pub fn health(&self) -> Option<HealthReport> {
        self.reader.health(&self.app).ok().flatten()
    }
}

/// Maps the collector's wire health classification onto the
/// transport-neutral one (identical levels, stable numeric encodings).
fn observed_status(status: HealthStatus) -> ObservedHealth {
    ObservedHealth::from_u8(status.as_u8()).expect("encodings are aligned")
}

/// Translates one wire event into the transport-neutral observation event.
fn observed_event(event: EventFrame) -> ObserveEvent {
    let kind = match event.payload {
        EventPayload::Snapshot {
            total_beats,
            producer_dropped,
            rate_bps,
            target,
            alive,
        } => ObserveEventKind::Snapshot(ObservedSnapshot {
            total_beats,
            rate_bps,
            target,
            dropped: producer_dropped,
            alive,
        }),
        EventPayload::HealthTransition { from, to, .. } => ObserveEventKind::Health {
            from: observed_status(from),
            to: observed_status(to),
        },
        EventPayload::Beats {
            dropped_total,
            beats,
        } => ObserveEventKind::Beats {
            beats: beats
                .into_iter()
                .map(|beat| ObservedBeat {
                    record: beat.record,
                    scope: beat.scope,
                })
                .collect(),
            dropped_total,
        },
    };
    ObserveEvent {
        app: event.app,
        kind,
    }
}

/// [`EventStream`] adapter over a live [`Subscription`], narrowed to one
/// application.
///
/// The narrowing matters for names containing `*`: application names may
/// legally contain it, but subscription patterns interpret it as a
/// wildcard, so a literal subscription to `cam*` also matches `cam1` on
/// the collector. Filtering here keeps the single-app contract exact.
struct RemoteEventStream {
    sub: Subscription,
    app: String,
}

impl RemoteEventStream {
    fn only_own(&self, event: EventFrame) -> Option<ObserveEvent> {
        (event.app == self.app).then(|| observed_event(event))
    }
}

impl EventStream for RemoteEventStream {
    fn try_next(&mut self) -> Option<ObserveEvent> {
        while let Some(event) = self.sub.try_next() {
            if let Some(event) = self.only_own(event) {
                return Some(event);
            }
        }
        None
    }

    fn wait_next(&mut self, timeout: Duration) -> Option<ObserveEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let event = self.sub.next_timeout(remaining)?;
            if let Some(event) = self.only_own(event) {
                return Some(event);
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    fn is_closed(&self) -> bool {
        self.sub.is_closed()
    }
}

impl Observe for RemoteApp {
    fn name(&self) -> &str {
        &self.app
    }

    fn snapshot(&self) -> Option<ObservedSnapshot> {
        RemoteApp::snapshot(self).map(|snap| ObservedSnapshot {
            total_beats: snap.total_beats,
            rate_bps: snap.rate_bps,
            target: snap.target,
            dropped: snap.producer_dropped,
            alive: snap.alive,
        })
    }

    fn health(&self) -> ObservedHealth {
        // An unreachable collector and an unknown application both mean "no
        // trustworthy signal" — exactly what NoSignal tells a guarded
        // control loop to hold on.
        match RemoteApp::health(self).map(|report| report.status) {
            Some(status) => observed_status(status),
            None => ObservedHealth::NoSignal,
        }
    }

    // rate(): the default (snapshot's rate) is correct — the collector
    // tracks the producer-declared window; remote observers cannot
    // re-window retroactively.

    fn can_rewindow(&self) -> bool {
        // Tells generic samplers one snapshot round trip carries the whole
        // coherent (total, rate, target) measurement.
        false
    }

    fn subscribe(
        &self,
        filter: &ObserveFilter,
    ) -> std::result::Result<ObserveStream, ObserveError> {
        // Exact-name pattern: this handle observes one application. The
        // collector originates the events — true push, zero polling.
        let sub = self
            .reader
            .subscribe(&self.app, filter)
            .map_err(|err| match err {
                NetError::Unsupported(msg) => ObserveError::Unsupported(msg),
                other => ObserveError::Transport(other.to_string()),
            })?;
        Ok(ObserveStream::new(Box::new(RemoteEventStream {
            sub,
            app: self.app.clone(),
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_invalid_names_answer_none_locally() {
        // No collector could ever know a wire-invalid name (the decoder
        // rejects it), so the client answers None without a round trip —
        // the listener here never even accepts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let reader = RemoteReader::connect(listener.local_addr().unwrap().to_string()).unwrap();
        for bad in ["two words", "", "quo\"te", "line\nbreak"] {
            assert!(reader.snapshot(bad).unwrap().is_none(), "{bad:?}");
            assert!(reader.history(bad, 0).unwrap().is_none(), "{bad:?}");
            assert!(reader.health(bad).unwrap().is_none(), "{bad:?}");
        }
    }

    fn handler(shared: Arc<DemuxShared>) -> DemuxHandler {
        DemuxHandler {
            decoder: FrameDecoder::new(),
            shared,
            touched: Vec::new(),
        }
    }

    fn event(sub_id: u32, total_beats: u64) -> Frame {
        Frame::Event(EventFrame {
            sub_id,
            sent_at_ns: 0,
            cursor: 0,
            app: "app".into(),
            payload: EventPayload::Snapshot {
                total_beats,
                producer_dropped: 0,
                rate_bps: None,
                target: None,
                alive: true,
            },
        })
    }

    /// A handler over fresh shared state, with subscriptions `ids`.
    fn handler_with_subs(ids: &[u32]) -> (DemuxHandler, Vec<Arc<SubShared>>) {
        let shared = Arc::new(DemuxShared::default());
        let subs = ids
            .iter()
            .map(|&id| {
                let sub = Arc::new(SubShared::default());
                shared.subs.lock().unwrap().insert(id, Arc::clone(&sub));
                sub
            })
            .collect();
        (handler(shared), subs)
    }

    /// The snapshot totals queued on `sub`, drained.
    fn totals(sub: &SubShared) -> Vec<u64> {
        std::iter::from_fn(|| sub.try_next())
            .map(|event| match event.payload {
                EventPayload::Snapshot { total_beats, .. } => total_beats,
                other => panic!("unexpected payload {other:?}"),
            })
            .collect()
    }

    #[test]
    fn frames_split_at_any_byte_are_decoded_once() {
        let ack = Frame::SubAck {
            sub_id: 1,
            status: SubStatus::Ok,
        };
        let mut bytes = event(1, 7).encode();
        bytes.extend(ack.encode());
        for split in 0..=bytes.len() {
            let (mut handler, subs) = handler_with_subs(&[1]);
            let mut out = OutBuf::new();
            assert!(handler.on_data(&bytes[..split], &mut out));
            assert!(handler.on_data(&bytes[split..], &mut out));
            assert_eq!(totals(&subs[0]), [7], "at {split}");
            assert_eq!(handler.shared.next_reply().unwrap(), ack, "at {split}");
            assert!(out.is_empty(), "decoding writes nothing");
        }
    }

    #[test]
    fn one_read_fills_every_subscription_and_the_reply_queue() {
        let (mut handler, subs) = handler_with_subs(&[1, 2, 3]);
        let reply = Frame::List {
            last: true,
            names: vec!["app".into()],
        };
        let mut bytes = Vec::new();
        for (sub_id, total) in [(1, 10), (2, 20), (3, 30), (1, 11), (9, 90)] {
            bytes.extend(event(sub_id, total).encode());
        }
        bytes.extend(reply.encode());
        assert!(handler.on_data(&bytes, &mut OutBuf::new()));
        assert_eq!(totals(&subs[0]), [10, 11]);
        assert_eq!(totals(&subs[1]), [20]);
        assert_eq!(totals(&subs[2]), [30]);
        assert_eq!(handler.shared.next_reply().unwrap(), reply);
        assert!(handler.touched.is_empty(), "every touched queue was woken");
    }

    #[test]
    fn a_corrupt_frame_closes_every_subscription() {
        let (mut handler, subs) = handler_with_subs(&[1, 2]);
        let mut bytes = event(1, 5).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // a payload byte: the CRC no longer matches
        assert!(!handler.on_data(&bytes, &mut OutBuf::new()));
        handler.on_close(); // what the reactor does after a `false`
        assert!(subs.iter().all(|sub| sub.closed.load(Ordering::Acquire)));
        assert!(handler.shared.subs.lock().unwrap().is_empty());
        assert!(handler.shared.link().dead);
    }

    #[test]
    fn on_close_fails_a_waiting_query() {
        let shared = Arc::new(DemuxShared::default());
        let mut handler = handler(Arc::clone(&shared));
        let waiter = std::thread::spawn(move || shared.next_reply());
        handler.on_close();
        // Not a TimedOut after REPLY_TIMEOUT: the close woke the waiter.
        assert!(matches!(
            waiter.join().unwrap(),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn a_teardown_before_install_closes_at_install() {
        let shared = Arc::new(DemuxShared::default());
        let mut handler = handler(Arc::clone(&shared));
        shared.shutdown();
        // The reactor's empty on_data call at install.
        assert!(!handler.on_data(&[], &mut OutBuf::new()));
        assert!(matches!(shared.send(b"x"), Err(NetError::UnexpectedEof)));
    }

    #[test]
    fn requests_are_written_by_the_pump() {
        let shared = Arc::new(DemuxShared::default());
        let mut handler = handler(Arc::clone(&shared));
        let request = Frame::StatsReq.encode();
        shared.send(&request).unwrap();
        let mut out = OutBuf::new();
        assert!(handler.on_pump(&mut out, 0, PumpCause::Wake));
        assert_eq!(out.iter_slices().collect::<Vec<_>>().concat(), request);
        assert!(shared.link().requests.is_empty());
    }

    /// A query port that answers every request with the first 8 bytes of a
    /// frame and then goes silent. A never-subscribed reader must give up
    /// after `REPLY_TIMEOUT` per attempt, and `exchange` makes two attempts
    /// (the connection `connect` opened, then one reconnect).
    #[test]
    fn a_stalled_reply_fails_within_the_reply_timeout() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let started = Frame::Metrics {
                last: true,
                text: "stalled".into(),
            }
            .encode();
            let mut silent = Vec::new();
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let mut request = [0u8; wire::HEADER_LEN];
                stream.read_exact(&mut request).unwrap();
                stream.write_all(&started[..8]).unwrap();
                silent.push(stream);
            }
            // Open and silent until the reader has given up.
            let _ = release_rx.recv();
        });
        let reader = RemoteReader::connect(addr).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let started = Instant::now();
        let caller = std::thread::spawn(move || done_tx.send(reader.stats().map(|_| ())));
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(15))
            .expect("stats() still blocked after 15 s");
        assert!(outcome.is_err(), "a stalled reply is an error");
        let bound = 2 * REPLY_TIMEOUT + Duration::from_secs(2);
        assert!(started.elapsed() < bound, "took {:?}", started.elapsed());
        caller.join().unwrap().unwrap();
        drop(release_tx);
        server.join().unwrap();
    }

    #[test]
    fn connect_to_dead_port_fails_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(RemoteReader::connect(addr.to_string()).is_err());
    }
}
