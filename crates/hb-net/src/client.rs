//! Observer-side client for the collector's query port.
//!
//! [`RemoteReader`] speaks the line protocol (`LIST`/`GET`/`METRICS`), the
//! binary health queries ([`history`](RemoteReader::history) /
//! [`health`](RemoteReader::health)), and the **push-subscription plane**
//! ([`subscribe`](RemoteReader::subscribe) → [`Subscription`]) over one
//! persistent connection; [`RemoteApp`] narrows it to a single application
//! and implements [`heartbeats::Observe`] — so a `control::RateMonitor` or
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
//! upgrades the connection: a demux thread owns the read side, routes
//! events to their [`Subscription`] queues, and forwards everything else
//! into a pipe the synchronous query path reads — so polls and pushes
//! coexist on one connection without ever blocking each other.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use heartbeats::observe::{
    EventStream, Observe, ObserveError, ObserveEvent, ObserveEventKind, ObserveFilter,
    ObserveStream, ObservedBeat, ObservedHealth, ObservedSnapshot,
};

use crate::collector::AppSnapshot;
use crate::error::{NetError, Result};
use crate::frame::FrameReader;
use crate::health::{HealthReport, HealthStatus};
use crate::telemetry::{self, HistoSnapshot, LatencyHisto};
use crate::wire::{self, EventFrame, EventPayload, Frame, HistoryChunk, SubStatus, SubscribeReq};

/// How long a synchronous query waits for its reply before treating the
/// connection as dead (both the direct socket timeout and the demux pipe's
/// wait bound).
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// Client-side bound on one subscription's undelivered events; beyond it
/// the oldest is shed and counted ([`Subscription::lost`]).
const SUB_QUEUE_CAPACITY: usize = 8192;

/// A read-only client of a collector's query port.
///
/// One `RemoteReader` holds one persistent connection; every query —
/// line-based ([`apps`](RemoteReader::apps), [`snapshot`](RemoteReader::snapshot),
/// [`metrics`](RemoteReader::metrics), [`stats`](RemoteReader::stats)) or
/// binary ([`history`](RemoteReader::history), [`health`](RemoteReader::health))
/// — is one round trip on it, reconnecting transparently if the collector
/// restarts. [`subscribe`](RemoteReader::subscribe) opens a push
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
    /// The live demux, once a subscription upgraded the connection.
    demux: Mutex<Option<Arc<DemuxShared>>>,
    next_sub: AtomicU32,
}

/// One client connection: a buffered reply source plus the write half.
/// In direct mode the source *is* the socket; in demux mode it is the pipe
/// the demux thread forwards non-event traffic into.
#[derive(Debug)]
struct Conn {
    reader: BufReader<ReplySource>,
    writer: TcpStream,
    /// Set in demux mode, so a failed query can tear the demux down with it
    /// (its subscriptions then close instead of silently starving).
    demux: Option<Arc<DemuxShared>>,
}

/// Where synchronous query replies come from.
#[derive(Debug)]
enum ReplySource {
    Direct(TcpStream),
    Pipe(Arc<BytePipe>),
}

impl Read for ReplySource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ReplySource::Direct(stream) => stream.read(buf),
            ReplySource::Pipe(pipe) => pipe.read_bytes(buf),
        }
    }
}

/// A byte pipe between the demux thread and the synchronous query path:
/// blocking reads with a bounded wait, explicit end-of-stream.
#[derive(Debug, Default)]
struct BytePipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    eof: bool,
}

impl BytePipe {
    fn push(&self, bytes: &[u8]) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.buf.extend(bytes);
        drop(state);
        self.ready.notify_all();
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.eof = true;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocking read with the reply timeout: `Ok(0)` is end-of-stream, a
    /// timeout surfaces as `TimedOut` (the query path then reconnects).
    fn read_bytes(&self, buf: &mut [u8]) -> std::io::Result<usize> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                for (slot, byte) in buf.iter_mut().zip(state.buf.drain(..n)) {
                    *slot = byte;
                }
                return Ok(n);
            }
            if state.eof {
                return Ok(0);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "reply timed out",
                ));
            }
            let (guard, _) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }
}

/// State shared between the demux thread, the reader, and subscriptions.
#[derive(Debug)]
struct DemuxShared {
    pipe: Arc<BytePipe>,
    subs: Mutex<HashMap<u32, Arc<SubShared>>>,
    alive: AtomicBool,
    /// Write half kept for teardown (`shutdown` unblocks the demux read).
    stream: TcpStream,
}

impl DemuxShared {
    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire) // ordering: pairs with the Release stores that clear alive, so a dead handle stays dead
    }

    /// Tears the demuxed connection down: the socket shutdown unblocks the
    /// demux thread, which then closes the pipe and every subscription.
    fn shutdown(&self) {
        self.alive.store(false, Ordering::Release); // ordering: publishes the dead state to is_alive()'s Acquire load
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn route(&self, event: EventFrame) {
        let subs = self.subs.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sub) = subs.get(&event.sub_id) {
            sub.push(event);
        }
        // Unknown ids: the subscription lapsed while events were in flight.
    }

    fn close_all(&self) {
        self.alive.store(false, Ordering::Release); // ordering: publishes the dead state to is_alive()'s Acquire load
        self.pipe.close();
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
    fn push(&self, event: EventFrame) {
        if self.closed.load(Ordering::Acquire) { // ordering: pairs with the Release in close(); everything enqueued before close stays visible
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
        drop(queue);
        self.ready.notify_all();
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
            if self.closed.load(Ordering::Acquire) { // ordering: pairs with the Release in close()
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

/// The demux thread: owns the socket's read side, routes events to their
/// subscriptions, forwards all other traffic (query replies, acks) into the
/// pipe the synchronous path reads.
fn demux_loop(mut stream: TcpStream, shared: Arc<DemuxShared>) {
    // Blocking reads: teardown goes through DemuxShared::shutdown.
    stream.set_read_timeout(None).ok();
    let mut buf: Vec<u8> = Vec::new();
    let mut start = 0usize;
    let mut scratch = vec![0u8; 64 * 1024];
    'conn: loop {
        loop {
            if start == buf.len() {
                buf.clear();
                start = 0;
            } else if start >= 64 * 1024 {
                buf.drain(..start);
                start = 0;
            }
            let avail = &buf[start..];
            if avail.is_empty() {
                break;
            }
            let magic = wire::MAGIC.to_le_bytes();
            let prefix = avail.len().min(magic.len());
            if avail[..prefix] == magic[..prefix] {
                if avail.len() < wire::HEADER_LEN {
                    break;
                }
                let Ok((kind, payload_len, crc)) = Frame::decode_header(avail) else {
                    break 'conn; // corrupt stream: no resynchronization
                };
                let total = wire::HEADER_LEN + payload_len;
                if avail.len() < total {
                    break;
                }
                match Frame::decode_payload(kind, &avail[wire::HEADER_LEN..total], crc) {
                    Ok(Frame::Event(event)) => shared.route(event),
                    Ok(_) => shared.pipe.push(&avail[..total]),
                    Err(_) => break 'conn,
                }
                start += total;
            } else {
                let Some(nl) = avail.iter().position(|&b| b == b'\n') else {
                    if avail.len() > 64 * 1024 {
                        break 'conn; // unterminated garbage
                    }
                    break;
                };
                shared.pipe.push(&avail[..=nl]);
                start += nl + 1;
            }
        }
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    shared.close_all();
}

impl RemoteReader {
    /// Connects to a collector query port (`host:port`). Fails fast if the
    /// collector is unreachable; later failures reconnect transparently.
    pub fn connect(addr: impl Into<String>) -> Result<Self> {
        let reader = RemoteReader {
            addr: addr.into(),
            conn: Mutex::new(None),
            demux: Mutex::new(None),
            next_sub: AtomicU32::new(1),
        };
        let conn = reader.open()?;
        *reader.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(conn);
        Ok(reader)
    }

    fn open(&self) -> Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
        stream.set_write_timeout(Some(REPLY_TIMEOUT)).ok();
        let reader = BufReader::new(ReplySource::Direct(stream.try_clone()?));
        Ok(Conn {
            reader,
            writer: stream,
            demux: None,
        })
    }

    /// Sends `request` bytes (a query line or an encoded query frame) and
    /// collects the response with `read`, reconnecting once if the cached
    /// connection has gone stale. A failure on a demux-upgraded connection
    /// tears the demux down too, closing its subscriptions — they must not
    /// starve silently behind a dead socket.
    fn exchange<T>(
        &self,
        request: &[u8],
        read: impl Fn(&mut BufReader<ReplySource>) -> Result<T>,
    ) -> Result<T> {
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        for attempt in 0..2 {
            if guard.is_none() {
                *guard = Some(self.open()?);
            }
            let conn = guard.as_mut().expect("connection just established");
            let outcome = conn
                .writer
                .write_all(request)
                .map_err(NetError::from)
                .and_then(|()| read(&mut conn.reader));
            match outcome {
                Ok(value) => return Ok(value),
                Err(err) => {
                    if let Some(demux) = conn.demux.take() {
                        demux.shutdown();
                    }
                    *guard = None; // drop the stale connection
                    if attempt == 1 {
                        return Err(err);
                    }
                }
            }
        }
        unreachable!("loop returns on success or second failure")
    }

    /// Like [`exchange`](Self::exchange), but pinned to a specific demuxed
    /// connection and never retried: subscription control (`Subscribe` /
    /// `Unsubscribe`) must not be replayed onto a reconnected plain socket
    /// — the collector would then push events into a reply stream with no
    /// demux thread to split them out, corrupting every later query.
    fn exchange_on_demux<T>(
        &self,
        demux: &Arc<DemuxShared>,
        request: &[u8],
        read: impl Fn(&mut BufReader<ReplySource>) -> Result<T>,
    ) -> Result<T> {
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let conn = guard
            .as_mut()
            .filter(|conn| {
                conn.demux
                    .as_ref()
                    .is_some_and(|bound| Arc::ptr_eq(bound, demux))
            })
            .ok_or_else(|| {
                NetError::Protocol("subscription connection was replaced mid-request".into())
            })?;
        let outcome = conn
            .writer
            .write_all(request)
            .map_err(NetError::from)
            .and_then(|()| read(&mut conn.reader));
        if outcome.is_err() {
            if let Some(demux) = conn.demux.take() {
                demux.shutdown();
            }
            *guard = None;
        }
        outcome
    }

    /// Upgrades the connection to demux mode (idempotent): probes the
    /// collector's protocol version, spawns the demux thread, and switches
    /// the synchronous path onto the forwarding pipe.
    fn ensure_demux(&self) -> Result<Arc<DemuxShared>> {
        let mut demux_guard = self.demux.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(demux) = demux_guard.as_ref() {
            if demux.is_alive() {
                return Ok(Arc::clone(demux));
            }
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
        stream.set_write_timeout(Some(REPLY_TIMEOUT)).ok();
        // Version check before anything is multiplexed: a collector on any
        // other wire version would never acknowledge a Subscribe frame, so
        // refuse loudly here instead of hanging there. One that predates
        // the probe answers it with an ERR line (every line command gets
        // *some* single-line answer).
        (&stream).write_all(b"VERSION\n")?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match (&stream).read(&mut byte) {
                Ok(0) => return Err(NetError::UnexpectedEof),
                Ok(_) => {
                    if byte[0] == b'\n' {
                        break;
                    }
                    line.push(byte[0]);
                    if line.len() > 256 {
                        return Err(NetError::BadResponse(
                            "oversized VERSION reply".into(),
                        ));
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(NetError::Io(err)),
            }
        }
        let text = String::from_utf8_lossy(&line);
        let version = text
            .trim()
            .strip_prefix("VERSION ")
            .and_then(|v| v.trim().parse::<u8>().ok());
        if version != Some(wire::VERSION) {
            return Err(NetError::Unsupported(format!(
                "collector answered the VERSION probe with {:?}; push subscriptions \
                 require wire version {}",
                text.trim(),
                wire::VERSION
            )));
        }
        stream.set_read_timeout(None).ok();
        let pipe = Arc::new(BytePipe::default());
        let shared = Arc::new(DemuxShared {
            pipe: Arc::clone(&pipe),
            subs: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
            stream: stream.try_clone()?,
        });
        let read_side = stream.try_clone()?;
        {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hb-net-demux".into())
                .spawn(move || demux_loop(read_side, shared))
                .map_err(|err| NetError::Io(std::io::Error::other(err)))?;
        }
        // Switch the synchronous path onto the demuxed connection — one
        // socket now serves interleaved polls and pushes.
        let mut conn = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        *conn = Some(Conn {
            reader: BufReader::new(ReplySource::Pipe(pipe)),
            writer: stream,
            demux: Some(Arc::clone(&shared)),
        });
        drop(conn);
        *demux_guard = Some(Arc::clone(&shared));
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
        })
        .encode();
        let ack = self.exchange_on_demux(&demux, &request, |conn| {
            FrameReader::new(conn)
                .read_frame()?
                .ok_or(NetError::UnexpectedEof)
        });
        let cleanup = |demux: &DemuxShared| {
            demux
                .subs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&sub_id);
        };
        match ack {
            Ok(Frame::SubAck {
                sub_id: acked,
                status,
            }) if acked == sub_id => match status {
                SubStatus::Ok => Ok(Subscription {
                    reader: Arc::clone(self),
                    demux,
                    shared,
                    sub_id,
                    done: false,
                }),
                SubStatus::InvalidFilter => {
                    cleanup(&demux);
                    Err(NetError::Protocol(format!(
                        "collector rejected subscription filter (pattern {pattern:?})"
                    )))
                }
                SubStatus::TooManySubscriptions => {
                    cleanup(&demux);
                    Err(NetError::Unsupported(
                        "collector's per-connection subscription bound reached".into(),
                    ))
                }
            },
            Ok(other) => {
                cleanup(&demux);
                Err(NetError::BadResponse(format!(
                    "expected a subscription ack, got {other:?}"
                )))
            }
            Err(err) => {
                cleanup(&demux);
                Err(err)
            }
        }
    }

    /// Sends one binary query frame and reads one frame back, over the same
    /// persistent connection the line queries use (the collector
    /// disambiguates by the frame magic).
    fn query_frame(&self, request: &Frame) -> Result<Frame> {
        let bytes = request.encode();
        self.exchange(&bytes, |conn| {
            FrameReader::new(conn)
                .read_frame()?
                .ok_or(NetError::UnexpectedEof)
        })
    }

    /// Names of all applications the collector knows about.
    pub fn apps(&self) -> Result<Vec<String>> {
        self.exchange(b"LIST\n", |conn| {
            let header = read_line(conn)?;
            let count: usize = header
                .strip_prefix("APPS ")
                .and_then(|n| n.trim().parse().ok())
                .ok_or_else(|| NetError::BadResponse(header.clone()))?;
            let mut names = Vec::with_capacity(count);
            for _ in 0..count {
                names.push(read_line(conn)?.trim().to_string());
            }
            expect_end(conn)?;
            Ok(names)
        })
    }

    /// Snapshot of one application, or `None` if the collector has never
    /// seen it.
    pub fn snapshot(&self, app: &str) -> Result<Option<AppSnapshot>> {
        let command = format!("GET {app}\n");
        self.exchange(command.as_bytes(), |conn| {
            let line = read_line(conn)?;
            if line.starts_with("ERR unknown app") {
                return Ok(None);
            }
            parse_snapshot(line.trim()).map(Some)
        })
    }

    /// The Prometheus text export.
    pub fn metrics(&self) -> Result<String> {
        self.exchange(b"METRICS\n", |conn| {
            let mut text = String::new();
            loop {
                let line = read_line(conn)?;
                if line.trim() == "END" {
                    return Ok(text);
                }
                text.push_str(&line);
            }
        })
    }

    /// Collector-wide counters (`STATS`): connection, frame and error
    /// totals plus the size of the reactor's I/O thread pool.
    pub fn stats(&self) -> Result<CollectorStats> {
        self.exchange(b"STATS\n", |conn| {
            let line = read_line(conn)?;
            parse_stats(line.trim())
        })
    }

    /// Round-trip liveness probe of the collector itself.
    pub fn ping(&self) -> Result<()> {
        self.exchange(b"PING\n", |conn| {
            let line = read_line(conn)?;
            if line.trim() == "PONG" {
                Ok(())
            } else {
                Err(NetError::BadResponse(line))
            }
        })
    }

    /// The collector's retained history for `app`: the most recent `limit`
    /// samples (`0` = all retained), chronological, with the total ever
    /// ingested. `None` if the collector has never seen the application —
    /// including any name the wire rules forbid, which no collector can
    /// know (answered locally, like [`snapshot`](Self::snapshot) answers
    /// unknown apps, instead of sending a frame the collector would reject).
    ///
    /// Goes over the wire as a binary [`Frame::HistoryReq`] — one round
    /// trip regardless of how many samples come back.
    pub fn history(&self, app: &str, limit: u32) -> Result<Option<HistoryChunk>> {
        if !crate::wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query_frame(&Frame::HistoryReq {
            app: app.to_string(),
            limit,
        })? {
            Frame::History(chunk) => Ok(chunk.known.then_some(chunk)),
            other => Err(NetError::BadResponse(format!(
                "expected a history frame, got {other:?}"
            ))),
        }
    }

    /// The collector's windowed health classification of `app`
    /// ([`Frame::HealthReq`]), or `None` if the collector has never seen
    /// the application (wire-invalid names included, as with
    /// [`history`](Self::history)).
    pub fn health(&self, app: &str) -> Result<Option<HealthReport>> {
        if !crate::wire::valid_app_name(app) {
            return Ok(None);
        }
        match self.query_frame(&Frame::HealthReq {
            app: app.to_string(),
        })? {
            Frame::Health(health) => Ok(health.known.then_some(health.report)),
            other => Err(NetError::BadResponse(format!(
                "expected a health frame, got {other:?}"
            ))),
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

/// A live push subscription on a collector — the handle returned by
/// [`RemoteReader::subscribe`].
///
/// Events are delivered by the connection's demux thread into a bounded
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
        if !self.demux.is_alive() {
            return Ok(()); // the connection died; nothing to tell anyone
        }
        let request = Frame::Unsubscribe {
            sub_id: self.sub_id,
        }
        .encode();
        match self.reader.exchange_on_demux(&self.demux, &request, |conn| {
            FrameReader::new(conn)
                .read_frame()?
                .ok_or(NetError::UnexpectedEof)
        })? {
            Frame::SubAck { .. } => Ok(()),
            other => Err(NetError::BadResponse(format!(
                "expected an unsubscribe ack, got {other:?}"
            ))),
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
            if self.shared.closed.load(Ordering::Acquire) || self.done { // ordering: pairs with the Release in close()
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

fn read_line(conn: &mut BufReader<ReplySource>) -> Result<String> {
    let mut line = String::new();
    let n = conn.read_line(&mut line)?;
    if n == 0 {
        return Err(NetError::UnexpectedEof);
    }
    Ok(line)
}

fn expect_end(conn: &mut BufReader<ReplySource>) -> Result<()> {
    let line = read_line(conn)?;
    if line.trim() == "END" {
        Ok(())
    } else {
        Err(NetError::BadResponse(line))
    }
}

/// Parses the single-line `GET` response produced by
/// [`format_snapshot`](crate::collector::format_snapshot).
pub fn parse_snapshot(line: &str) -> Result<AppSnapshot> {
    let bad = |why: &str| NetError::BadResponse(format!("{why}: {line}"));
    let mut parts = line.split_whitespace();
    if parts.next() != Some("APP") {
        return Err(bad("missing APP prefix"));
    }
    let mut fields: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for part in parts {
        let (key, value) = part.split_once('=').ok_or_else(|| bad("field without ="))?;
        fields.insert(key, value);
    }
    let field = |key: &str| fields.get(key).copied().ok_or_else(|| bad(key));
    let num = |key: &str| -> Result<u64> {
        field(key)?.parse().map_err(|_| bad(key))
    };
    let target = match field("target")? {
        "na" => None,
        pair => {
            let (min, max) = pair.split_once(',').ok_or_else(|| bad("target"))?;
            Some((
                min.parse().map_err(|_| bad("target min"))?,
                max.parse().map_err(|_| bad("target max"))?,
            ))
        }
    };
    let optional = |key: &str| -> Result<Option<u64>> {
        match field(key)? {
            "na" => Ok(None),
            v => v.parse().map(Some).map_err(|_| bad(key)),
        }
    };
    let rate_bps = match field("rate")? {
        "na" => None,
        v => Some(v.parse().map_err(|_| bad("rate"))?),
    };
    Ok(AppSnapshot {
        app: field("name")?.to_string(),
        pid: num("pid")? as u32,
        window: num("window")? as u32,
        total_beats: num("total")?,
        local_beats: num("local")?,
        rate_bps,
        mean_interval_ns: None, // not carried on the wire; query METRICS
        target,
        producer_dropped: num("dropped")?,
        last_timestamp_ns: optional("last_ns")?,
        connections: num("connections")? as u32,
        alive: field("alive")? == "1",
    })
}

/// Collector-wide counters, as served by the `STATS` query.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectorStats {
    /// Applications currently registered.
    pub apps: u64,
    /// Producer connections accepted since the collector started.
    pub connections: u64,
    /// Frames ingested since start.
    pub frames: u64,
    /// Producer connections dropped for protocol violations.
    pub protocol_errors: u64,
    /// Size of the reactor's fixed I/O thread pool.
    pub io_threads: u64,
    /// Connections evicted by the idle timer.
    pub evicted: u64,
    /// Observer requests answered (query lines + binary query frames;
    /// subscription control and pushed events not included).
    pub queries: u64,
    /// Push subscriptions currently registered.
    pub subscriptions: u64,
    /// Events enqueued toward subscribers since start.
    pub events: u64,
    /// Events shed because a subscriber queue was full.
    pub events_dropped: u64,
    /// Collector uptime in seconds.
    pub uptime_s: f64,
    /// Reactor shards the collector resolved at startup (0 when talking to
    /// a pre-sharding collector that does not report the field).
    pub shards: u64,
    /// Beats ingested on a shard other than the application's home shard —
    /// a debug counter that should stay at zero.
    pub cross_shard: u64,
    /// Federation child links this collector has ever seen (parent tiers;
    /// 0 when talking to a pre-federation or leaf collector).
    pub origins: u64,
    /// Federation child links currently connected.
    pub origins_up: u64,
    /// 1 while this collector's own uplink to its parent is established
    /// (leaf/mid tiers; 0 when the collector has no upstream).
    pub upstream_connected: u64,
    /// Beats this collector forwarded to its parent.
    pub upstream_forwarded: u64,
    /// Beats shed from the upstream tap (exactly accounted upward).
    pub upstream_dropped: u64,
    /// Uplink re-establishments after the first connect.
    pub upstream_reconnects: u64,
}

/// Parses the single-line `STATS` response.
pub fn parse_stats(line: &str) -> Result<CollectorStats> {
    let bad = |why: &str| NetError::BadResponse(format!("{why}: {line}"));
    let mut parts = line.split_whitespace();
    if parts.next() != Some("COLLECTOR") {
        return Err(bad("missing COLLECTOR prefix"));
    }
    // Collect `key=value` tokens; anything else (a bare word, some future
    // marker) is skipped so newer collectors can extend the line without
    // breaking older readers. Unknown keys land in the map and are simply
    // never looked up.
    let mut fields: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    for part in parts {
        if let Some((key, value)) = part.split_once('=') {
            fields.insert(key, value);
        }
    }
    let num = |key: &str| -> Result<u64> {
        fields
            .get(key)
            .copied()
            .ok_or_else(|| bad(key))?
            .parse()
            .map_err(|_| bad(key))
    };
    // Subscription-era fields default to zero so lines from older
    // collectors still parse.
    let opt = |key: &str| -> u64 {
        fields
            .get(key)
            .copied()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Ok(CollectorStats {
        apps: num("apps")?,
        connections: num("connections")?,
        frames: num("frames")?,
        protocol_errors: num("errors")?,
        io_threads: num("io_threads")?,
        evicted: num("evicted")?,
        queries: opt("queries"),
        subscriptions: opt("subs"),
        events: opt("events"),
        events_dropped: opt("events_dropped"),
        shards: opt("shards"),
        cross_shard: opt("cross_shard"),
        origins: opt("origins"),
        origins_up: opt("origins_up"),
        upstream_connected: opt("upstream_connected"),
        upstream_forwarded: opt("upstream_forwarded"),
        upstream_dropped: opt("upstream_dropped"),
        upstream_reconnects: opt("upstream_reconnects"),
        uptime_s: fields
            .get("uptime_s")
            .copied()
            .ok_or_else(|| bad("uptime_s"))?
            .parse()
            .map_err(|_| bad("uptime_s"))?,
    })
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
    fn snapshot_line_roundtrip() {
        let snap = AppSnapshot {
            app: "x264".into(),
            pid: 41,
            window: 20,
            total_beats: 500,
            local_beats: 3,
            rate_bps: Some(29.970029970029973),
            mean_interval_ns: None,
            target: Some((30.0, 35.0)),
            producer_dropped: 12,
            last_timestamp_ns: Some(123_456_789),
            connections: 1,
            alive: true,
        };
        let line = crate::collector::format_snapshot(&snap);
        let parsed = parse_snapshot(&line).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn snapshot_line_with_missing_data() {
        let snap = AppSnapshot {
            app: "fresh".into(),
            pid: 0,
            window: 2,
            total_beats: 0,
            local_beats: 0,
            rate_bps: None,
            mean_interval_ns: None,
            target: None,
            producer_dropped: 0,
            last_timestamp_ns: None,
            connections: 0,
            alive: false,
        };
        let line = crate::collector::format_snapshot(&snap);
        let parsed = parse_snapshot(&line).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn malformed_snapshot_lines_are_rejected() {
        for line in [
            "",
            "NOTAPP name=x",
            "APP name=x pid=notanumber total=1 local=0 rate=na target=na dropped=0 last_ns=na window=2 connections=0 alive=0",
            "APP name=x",
        ] {
            assert!(parse_snapshot(line).is_err(), "line: {line:?}");
        }
    }

    #[test]
    fn stats_line_roundtrip() {
        let line = "COLLECTOR apps=3 connections=280 frames=9000 errors=1 io_threads=2 evicted=5 uptime_s=12.500";
        let stats = parse_stats(line).unwrap();
        assert_eq!(stats.apps, 3);
        assert_eq!(stats.connections, 280);
        assert_eq!(stats.frames, 9000);
        assert_eq!(stats.protocol_errors, 1);
        assert_eq!(stats.io_threads, 2);
        assert_eq!(stats.evicted, 5);
        assert!((stats.uptime_s - 12.5).abs() < 1e-9);
        // Fields this collector vintage does not emit default to zero.
        assert_eq!(stats.shards, 0);
        assert_eq!(stats.cross_shard, 0);
    }

    #[test]
    fn stats_parser_tolerates_future_format_extensions() {
        // A collector two releases from now appends fields this reader has
        // never heard of — and even a bare flag token. Required fields must
        // still parse; everything unknown is ignored.
        let line = "COLLECTOR apps=1 connections=2 frames=3 errors=0 io_threads=4 \
                    evicted=0 queries=1 subs=0 events=0 events_dropped=0 \
                    uptime_s=1.5 shards=4 cross_shard=0 numa_nodes=2 \
                    io_uring=1 experimental_flag";
        let stats = parse_stats(line).unwrap();
        assert_eq!(stats.apps, 1);
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.io_threads, 4);
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.cross_shard, 0);
        assert!((stats.uptime_s - 1.5).abs() < 1e-9);
    }

    #[test]
    fn malformed_stats_lines_are_rejected() {
        for line in [
            "",
            "NOTCOLLECTOR apps=1",
            "COLLECTOR apps=x connections=1 frames=1 errors=0 io_threads=2 evicted=0 uptime_s=1",
            "COLLECTOR apps=1",
        ] {
            assert!(parse_stats(line).is_err(), "line: {line:?}");
        }
    }

    #[test]
    fn wire_invalid_names_answer_none_locally() {
        // No collector could ever know a wire-invalid name (the decoder
        // rejects it), so the client answers None without a round trip —
        // the listener here never even accepts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let reader = RemoteReader::connect(listener.local_addr().unwrap().to_string()).unwrap();
        for bad in ["two words", "", "quo\"te", "line\nbreak"] {
            assert!(reader.history(bad, 0).unwrap().is_none(), "{bad:?}");
            assert!(reader.health(bad).unwrap().is_none(), "{bad:?}");
        }
    }

    #[test]
    fn connect_to_dead_port_fails_fast() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        assert!(RemoteReader::connect(addr.to_string()).is_err());
    }
}
