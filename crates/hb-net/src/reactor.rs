//! A sharded event-driven reactor: the engine behind the collector daemon.
//!
//! PR 1's collector spawned one OS thread per producer and per observer
//! connection, which caps a single daemon at a few hundred sockets and makes
//! shutdown a join-everything affair. PR 2 inverted that with a fixed epoll
//! pool; this revision shards the pool so ingest scales with cores:
//!
//! * **Independent shards** — each I/O thread owns its *own* epoll instance,
//!   timer wheel, and connection table; nothing readiness-related is shared
//!   between threads. Shard 0 additionally owns every listener (the
//!   **acceptor**) and distributes accepted connections round-robin via
//!   per-shard handoff queues; the sender wakes the target shard, which
//!   installs the connection on its next loop turn.
//! * **Connection re-homing** — a [`Handler`] may report a preferred
//!   [`home_shard`](Handler::home_shard) once it learns who the peer is
//!   (the collector does this at `Hello`, hashing the application name).
//!   The reactor then migrates the whole connection — socket, handler,
//!   pending output — to that shard, so steady-state traffic for one
//!   application is always served by one thread and per-shard state needs
//!   no cross-thread locks.
//! * **Vectored I/O** — reads use `readv` to fill a large scratch buffer in
//!   one syscall, and writes drain the segmented [`OutBuf`] with one
//!   `writev` covering many queued frames (including shared
//!   encode-once event segments) instead of one syscall per frame.
//! * **Per-connection state machines** — the reactor performs all socket
//!   I/O; a [`Handler`] consumes the bytes and appends responses to an
//!   [`OutBuf`] that the reactor drains as the socket allows, toggling
//!   `EPOLLOUT` interest only while bytes are pending.
//! * **Timer wheel** — a per-shard hashed wheel evicts connections that have
//!   been idle longer than the configured timeout.
//! * **Wake-ups** — each shard registers one `eventfd` in its epoll. A
//!   connection hand-off, a [`PumpHandle::request`] after bytes were queued
//!   for one of its connections, and shutdown wake the shard instead of
//!   waiting for a clock; only a timed pass per poll timeout remains, for
//!   what cannot announce itself (`docs/ARCHITECTURE.md` § Wake-ups).
//!
//! Linux only (`epoll`, `eventfd`, `readv`, `writev` via the `libc` shim).

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::telemetry::{Level, ReactorThreads, ThreadStats};

#[cfg(not(target_os = "linux"))]
compile_error!("hb_net::reactor needs Linux epoll + eventfd (the polling fallback was removed)");

thread_local! {
    /// Index of the reactor shard this thread runs, when it is an I/O
    /// thread. Lets shard-partitioned owners (the collector registry,
    /// per-shard telemetry) pick their partition without passing a shard
    /// index through every callback.
    static CURRENT_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    /// The [`Waker`] of the shard this thread runs (null off-reactor). Shard
    /// indices repeat across the reactors of one process, so "am I on the
    /// owning shard?" compares waker identity, not [`current_shard`].
    static CURRENT_WAKER: Cell<*const Waker> = const { Cell::new(std::ptr::null()) };
}

/// The reactor shard index of the calling thread, or `None` when the caller
/// is not a reactor I/O thread (e.g. an embedded producer or a test).
pub fn current_shard() -> Option<usize> {
    CURRENT_SHARD.with(|cell| cell.get())
}

/// Token a shard's own eventfd is registered under; listener and connection
/// tokens count up from zero and never reach it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Work left for a shard by another thread, or by an earlier phase of its
/// own loop turn.
enum Work {
    /// A connection to install: freshly accepted, or migrating home.
    Install(Box<Injected>),
    /// A connection whose [`PumpHandle`] was used.
    Pump(u64),
}

/// One shard's inbox and the eventfd that tells it to look. Senders *publish
/// work, then raise `pending`*; the shard *lowers `pending`, then collects* —
/// so a sender that finds the flag raised may skip the `write`: either the
/// shard has not collected yet, or whoever raised the flag is waking it.
struct Waker {
    event: sys::EventFd,
    /// The shard has work it has not looked at: its next `epoll_wait` must
    /// not sleep. Other threads ensure that with one `write(eventfd)`, the
    /// shard's own thread by polling with a zero timeout.
    pending: AtomicBool,
    inbox: Mutex<Vec<Work>>,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        Ok(Waker {
            event: sys::EventFd::new()?,
            pending: AtomicBool::new(false),
            inbox: Mutex::new(Vec::new()),
        })
    }

    // hb-lint: hot-path — runs per event enqueued toward a subscriber; the
    // inbox and its swap partner keep their capacity.
    fn send(&self, work: Work) {
        let mut inbox = self.inbox.lock().unwrap_or_else(|e| e.into_inner());
        inbox.push(work);
        drop(inbox);
        self.wake();
    }

    /// At most one `write(eventfd)` per loop turn, none from the shard itself.
    fn wake(&self) {
        // ordering: AcqRel swap; with the inbox mutex it orders the published work before the shard's collect (docs/ARCHITECTURE.md § Wake-ups)
        let already = self.pending.swap(true, Ordering::AcqRel);
        if !already && !CURRENT_WAKER.with(|cell| std::ptr::eq(cell.get(), self)) {
            self.event.notify();
        }
    }
    // hb-lint: end-hot-path
}

/// The right to ask one connection's shard for an
/// [`on_pump`](Handler::on_pump) call, from any thread; clones share one
/// `armed` flag, so the connection has at most one request outstanding.
/// Enqueuers *publish (under the queue's lock), then request*; the shard
/// *disarms, then calls `on_pump`* — an item enqueued while the handle is
/// armed precedes a drain, one enqueued later re-arms it. A handle outliving
/// its connection is harmless: tokens are never reused.
#[derive(Clone)]
pub struct PumpHandle {
    waker: Arc<Waker>,
    token: u64,
    armed: Arc<AtomicBool>,
}

impl PumpHandle {
    // hb-lint: hot-path — one swap per enqueue, one inbox entry per drain.
    /// Queues one pump of the connection and wakes its shard, unless a
    /// request is already outstanding.
    pub fn request(&self) {
        // ordering: AcqRel swap, one winner per drain; pairs with the Release store in IoThread::pump_conn
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.waker.send(Work::Pump(self.token));
        }
    }
    // hb-lint: end-hot-path
}

impl std::fmt::Debug for PumpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PumpHandle({})", self.token)
    }
}

/// Why the reactor is calling [`on_pump`](Handler::on_pump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PumpCause {
    /// The connection's [`PumpHandle`] was used: bytes are waiting.
    Wake,
    /// The timed pass, once per poll timeout: the moment to look for what
    /// cannot announce itself.
    Timer,
}

/// One segment of queued outbound bytes: either privately owned or a shared
/// reference to an encode-once buffer fanned out to many connections.
enum Seg {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(vec) => vec,
            Seg::Shared(arc) => arc,
        }
    }
}

/// Segmented outbound buffer drained by the reactor with vectored writes.
///
/// Plain response bytes accumulate in an owned tail (amortized, reusing its
/// capacity across flushes exactly like the old `Vec<u8>` buffer), while
/// [`push_shared`](OutBuf::push_shared) queues an `Arc<[u8]>` segment
/// *without copying it* — the mechanism behind encode-once subscription
/// fan-out: one encoded `Event` frame is referenced by every subscriber's
/// buffer and written to each socket straight from the shared allocation.
/// [`writev`] drains many segments per syscall.
///
/// [`writev`]: https://man7.org/linux/man-pages/man2/writev.2.html
pub struct OutBuf {
    /// Closed segments awaiting flush, oldest first.
    segs: VecDeque<Seg>,
    /// Flushed prefix of `segs.front()`.
    head_at: usize,
    /// Total bytes held by `segs` (including the flushed prefix).
    closed_bytes: usize,
    /// Open owned segment that plain writes append to in place.
    tail: Vec<u8>,
    /// Flushed prefix of `tail`; non-zero only while `segs` is empty.
    tail_at: usize,
}

impl OutBuf {
    /// Creates an empty buffer.
    pub fn new() -> OutBuf {
        OutBuf {
            segs: VecDeque::new(),
            head_at: 0,
            closed_bytes: 0,
            tail: Vec::new(),
            tail_at: 0,
        }
    }

    /// Bytes queued but not yet written to the socket.
    pub fn pending(&self) -> usize {
        self.closed_bytes - self.head_at + self.tail.len() - self.tail_at
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Appends plain bytes (copied into the owned tail).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.tail.extend_from_slice(bytes);
    }

    /// Queues a shared segment by reference — no copy. Interleaving with
    /// plain writes preserves order: the open tail is closed first.
    pub fn push_shared(&mut self, bytes: Arc<[u8]>) {
        if bytes.is_empty() {
            return;
        }
        self.rotate_tail();
        self.closed_bytes += bytes.len();
        self.segs.push_back(Seg::Shared(bytes));
    }

    /// Append-only access to the owned tail, for encoders that write into a
    /// `Vec<u8>` in place. Callers must only append; bytes already present
    /// may have been flushed.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.tail
    }

    /// Closes the open tail into the segment queue so a shared segment can
    /// be queued behind it.
    fn rotate_tail(&mut self) {
        if self.tail.len() > self.tail_at {
            if self.tail_at > 0 {
                self.tail.drain(..self.tail_at);
                self.tail_at = 0;
            }
            let seg = std::mem::take(&mut self.tail);
            self.closed_bytes += seg.len();
            self.segs.push_back(Seg::Owned(seg));
        } else {
            self.tail.clear();
            self.tail_at = 0;
        }
    }

    /// Marks `n` pending bytes as written, oldest first.
    fn consume(&mut self, mut n: usize) {
        while n > 0 {
            if let Some(front) = self.segs.front() {
                let avail = front.bytes().len() - self.head_at;
                if n >= avail {
                    n -= avail;
                    self.closed_bytes -= front.bytes().len();
                    self.head_at = 0;
                    self.segs.pop_front();
                } else {
                    self.head_at += n;
                    n = 0;
                }
            } else {
                self.tail_at += n.min(self.tail.len() - self.tail_at);
                n = 0;
            }
        }
    }

    /// Drops everything, keeping the tail's capacity for reuse.
    fn reset(&mut self) {
        self.segs.clear();
        self.head_at = 0;
        self.closed_bytes = 0;
        self.tail.clear();
        self.tail_at = 0;
    }

    /// Reclaims the flushed prefix of the tail once it crosses the
    /// compaction threshold (a connection that never fully drains must not
    /// grow its buffer by lifetime traffic).
    fn compact(&mut self) {
        if self.segs.is_empty() && self.tail_at >= OUT_COMPACT_THRESHOLD {
            self.tail.drain(..self.tail_at);
            self.tail_at = 0;
        }
    }

    /// Pending byte ranges in write order, for vectored writes (and for
    /// tests elsewhere in the crate that inspect a handler's output).
    pub(crate) fn iter_slices(&self) -> impl Iterator<Item = &[u8]> {
        let head_at = self.head_at;
        let tail = &self.tail[self.tail_at..]; // hb-lint: allow(index): tail_at <= tail.len(): advanced only by consumed byte counts
        self.segs
            .iter()
            .enumerate()
            .map(move |(i, seg)| {
                let bytes = seg.bytes();
                if i == 0 {
                    &bytes[head_at..] // hb-lint: allow(index): head_at <= first segment len: advanced only by consumed byte counts
                } else {
                    bytes
                }
            })
            .chain(std::iter::once(tail).filter(|slice| !slice.is_empty()))
    }
}

impl Default for OutBuf {
    fn default() -> Self {
        OutBuf::new()
    }
}

impl std::fmt::Debug for OutBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutBuf")
            .field("pending", &self.pending())
            .field("segments", &self.segs.len())
            .finish()
    }
}

impl Write for OutBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A per-connection protocol state machine driven by the reactor.
///
/// The reactor owns the socket and performs all I/O; implementations only
/// transform bytes. Each callback may append response bytes to `out`; the
/// reactor flushes them as socket writability allows.
pub trait Handler: Send {
    /// Called with freshly read bytes. Return `false` to close the
    /// connection once `out` has been flushed.
    ///
    /// `input` may be **empty**: the reactor issues one empty call when a
    /// connection is installed on a shard (fresh accept or migration), so a
    /// handler holding buffered-but-undecoded bytes can finish processing
    /// them on its new home thread.
    fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool;

    /// Called when the peer cleanly closed its end of the stream.
    fn on_eof(&mut self, _out: &mut OutBuf) {}

    /// Called exactly once when the connection is discarded for any reason
    /// (handler-requested close, peer EOF, I/O error, idle eviction,
    /// reactor shutdown, a hand-off that found the reactor stopped), on
    /// whichever thread discards it. State a handler borrowed from its
    /// owner (the federation uplink's session) goes back here.
    fn on_close(&mut self) {}

    /// The shard this connection would like to live on, once known.
    /// Checked after every [`on_data`](Self::on_data); when it names a
    /// different shard (modulo the shard count) the reactor migrates the
    /// connection there. Return `None` (the default) to stay put.
    fn home_shard(&self) -> Option<usize> {
        None
    }

    /// Called each time the connection is installed on a shard (fresh
    /// accept, [`Reactor::installer`] hand-off or migration), before the
    /// empty [`on_data`](Self::on_data) call. `pump` asks this shard to call
    /// [`on_pump`](Self::on_pump) for this connection. A handler that
    /// delivers bytes originating elsewhere (events produced by another
    /// connection's ingest, federation control frames, a leaf's captured
    /// batches on their way to its parent) hands it to the queues those
    /// bytes wait in, whose enqueuers [`request`](PumpHandle::request) after
    /// publishing; a handle from an earlier install is dead after a
    /// migration.
    fn on_install(&mut self, _pump: PumpHandle) {}

    /// Moves externally produced bytes into `out`, from which the normal
    /// `EPOLLOUT` path ships them. Called with [`PumpCause::Wake`] on the
    /// loop turn the connection's [`PumpHandle`] was used (only requested
    /// connections are visited, never the whole table) and with
    /// [`PumpCause::Timer`] once per poll timeout for every connection
    /// pumped before — where a handler looks for what cannot announce
    /// itself (silence, a backlog it held back from a slow peer).
    /// `pending_out` is the connection's current outbound backlog, so a
    /// handler can hold off enqueueing more for a slow consumer. Return
    /// `false` to close.
    fn on_pump(&mut self, _out: &mut OutBuf, _pending_out: usize, _cause: PumpCause) -> bool {
        true
    }

    /// True if this connection must never be idle-evicted — e.g. an
    /// observer holding an active push subscription or a federation link,
    /// which are legitimately silent between events. Consulted when the idle
    /// timer fires, so the exemption follows the subscription's lifetime; a
    /// connection whose handler asked to close is no longer exempt.
    fn keep_alive(&self) -> bool {
        false
    }
}

/// Creates a fresh [`Handler`] for each accepted connection.
pub type HandlerFactory = Arc<dyn Fn(SocketAddr) -> Box<dyn Handler> + Send + Sync>;

/// One listening socket plus the factory producing handlers for the
/// connections it accepts.
pub struct ListenerSpec {
    /// The bound listener (the reactor switches it to non-blocking mode).
    pub listener: TcpListener,
    /// Handler factory invoked once per accepted connection.
    pub factory: HandlerFactory,
}

impl std::fmt::Debug for ListenerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListenerSpec")
            .field("listener", &self.listener)
            .finish_non_exhaustive()
    }
}

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of I/O shards serving all connections (clamped to >= 1).
    pub io_threads: usize,
    /// Connections idle longer than this are evicted; `Duration::ZERO`
    /// disables idle eviction.
    pub idle_timeout: Duration,
    /// Upper bound on bytes queued toward one peer; a connection whose
    /// outbound buffer exceeds this is dropped as a slow consumer.
    pub max_outbound: usize,
    /// When set, each I/O thread registers its utilization counters
    /// (busy/wait ns, loop iterations, dispatches) here at spawn, in thread
    /// index order. `None` (the default) skips the bookkeeping entirely.
    pub thread_stats: Option<Arc<ReactorThreads>>,
    /// Tests clear this to take the timed pump pass away, so delivery that
    /// still happens is proven to be wake-driven.
    #[cfg(test)]
    pub(crate) timed_pass: bool,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            io_threads: 2,
            idle_timeout: Duration::from_secs(60),
            max_outbound: 4 << 20,
            thread_stats: None,
            #[cfg(test)]
            timed_pass: true,
        }
    }
}

/// Number of slots in the idle-eviction timer wheel.
const WHEEL_SLOTS: usize = 64;

/// Poll timeout: timer-wheel granularity drift and the cadence of the timed
/// pump pass. Hand-off, push delivery and shutdown do not wait for it —
/// they wake the shard.
const POLL_TIMEOUT: Duration = Duration::from_millis(20);

/// Bytes read from one connection per readiness event before yielding to
/// others (fairness bound; level-triggered polling re-notifies).
const READ_BUDGET: usize = 256 * 1024;

/// Size of the per-shard scratch read buffer, filled by one scatter-read
/// (`readv`) per loop turn.
const READ_CHUNK: usize = 128 * 1024;

/// Compact a connection's outbound buffer once its flushed prefix crosses
/// this threshold.
const OUT_COMPACT_THRESHOLD: usize = 64 * 1024;

/// Upper bound on segments handed to one `writev` call (well under the
/// kernel's `IOV_MAX` of 1024; level-triggered polling retries the rest).
const MAX_WRITE_IOVECS: usize = 64;

/// A connection in flight between shards: freshly accepted (acceptor →
/// round-robin target) or migrating to its handler's home shard.
struct Injected {
    stream: TcpStream,
    handler: Box<dyn Handler>,
    out: OutBuf,
}

/// Every shard's waker, indexed by shard.
type Wakers = Arc<Vec<Arc<Waker>>>;

/// A fixed pool of I/O shards multiplexing listeners and connections.
pub struct Reactor {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    evicted: Arc<AtomicU64>,
    wakers: Wakers,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("io_threads", &self.threads.len())
            .field("evicted", &self.evicted.load(Ordering::Relaxed)) // ordering: monitoring read; staleness is acceptable
            .finish()
    }
}

impl Reactor {
    /// Starts `config.io_threads` independent shard loops. Shard 0 owns
    /// `listeners` and hands accepted connections round-robin to the rest.
    ///
    /// `evicted` is shared so the owner (e.g. the collector registry) can
    /// export the idle-eviction counter without reaching into the reactor.
    pub fn spawn(
        listeners: Vec<ListenerSpec>,
        config: ReactorConfig,
        evicted: Arc<AtomicU64>,
    ) -> io::Result<Reactor> {
        Reactor::spawn_named(listeners, config, evicted, |index| {
            format!("hb-reactor-{index}")
        })
    }

    /// [`spawn`](Self::spawn) with the I/O threads named by shard index: the
    /// client reactor is no collector shard and must not look like one.
    pub(crate) fn spawn_named(
        listeners: Vec<ListenerSpec>,
        config: ReactorConfig,
        evicted: Arc<AtomicU64>,
        thread_name: fn(usize) -> String,
    ) -> io::Result<Reactor> {
        let stop = Arc::new(AtomicBool::new(false));
        let io_threads = config.io_threads.max(1);
        for spec in &listeners {
            spec.listener.set_nonblocking(true)?;
        }
        let mut acceptor_listeners: Vec<(TcpListener, HandlerFactory)> = listeners
            .into_iter()
            .map(|spec| (spec.listener, spec.factory))
            .collect();
        let wakers: Wakers = Arc::new(
            (0..io_threads)
                .map(|_| Waker::new().map(Arc::new))
                .collect::<io::Result<_>>()?,
        );

        let mut threads = Vec::with_capacity(io_threads);
        for index in 0..io_threads {
            let spawned = (|| {
                // Only the acceptor shard registers listeners; everyone else
                // receives connections through its handoff queue.
                let own = if index == 0 {
                    std::mem::take(&mut acceptor_listeners)
                } else {
                    Vec::new()
                };
                // Registration order matches spawn order, so stats index N
                // is always thread `hb-reactor-N`.
                let stats = config
                    .thread_stats
                    .as_ref()
                    .map(|threads| threads.register());
                let io_thread = IoThread::build(
                    index,
                    Arc::clone(&wakers),
                    own,
                    config.clone(),
                    Arc::clone(&stop),
                    Arc::clone(&evicted),
                    stats,
                )?;
                std::thread::Builder::new()
                    .name(thread_name(index))
                    .spawn(move || {
                        CURRENT_SHARD.with(|cell| cell.set(Some(index)));
                        io_thread.run()
                    })
                    .map_err(io::Error::other)
            })();
            match spawned {
                Ok(handle) => threads.push(handle),
                Err(err) => {
                    // Don't leak the threads already running: stop and join
                    // them before reporting the failure.
                    stop.store(true, Ordering::SeqCst); // ordering: shutdown flag; SeqCst keeps the rare path simple
                    wakers.iter().for_each(|waker| waker.wake());
                    for handle in threads {
                        let _ = handle.join();
                    }
                    return Err(err);
                }
            }
        }
        Ok(Reactor {
            stop,
            threads,
            evicted,
            wakers,
        })
    }

    /// Number of I/O shards actually serving connections.
    pub fn io_threads(&self) -> usize {
        self.threads.len()
    }

    /// The hand-off for connections the owner opened itself (the federation
    /// uplink): the returned closure installs a non-blocking `stream` under
    /// `handler` on shard `shard` (modulo the shard count) the way an
    /// accepted connection is installed, from any thread. A reactor that is
    /// shutting down answers with the handler's
    /// [`on_close`](Handler::on_close), like every other failure to serve it.
    pub fn installer(&self, shard: usize) -> impl Fn(TcpStream, Box<dyn Handler>) + Send + 'static {
        let waker = Arc::clone(&self.wakers[shard % self.wakers.len()]); // hb-lint: allow(index): reduced modulo the shard count, which is at least one
        let stop = Arc::clone(&self.stop);
        move |stream, handler| {
            let out = OutBuf::new();
            waker.send(Work::Install(Box::new(Injected {
                stream,
                handler,
                out,
            })));
            // Published before the flag is read: a shutdown that began
            // earlier is swept here, a later one sweeps after its joins.
            // ordering: shutdown flag; SeqCst orders this read after the publish above against shutdown's store-then-sweep
            if stop.load(Ordering::SeqCst) {
                close_undelivered(&waker);
            }
        }
    }

    /// Connections evicted by the idle timer so far.
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Signals all I/O shards to stop, wakes them and joins them. The thread
    /// count is fixed, so this never races connection churn (unlike joining
    /// per-connection threads).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst); // ordering: shutdown flag; SeqCst keeps the rare path simple
        self.wakers.iter().for_each(|waker| waker.wake());
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        // A migration can land in an inbox after its target shard collected
        // for the last time; fire the close callbacks now that all threads
        // are joined.
        for waker in self.wakers.iter() {
            close_undelivered(waker);
        }
    }
}

/// Fires `on_close` for connections still parked in a shard's inbox.
fn close_undelivered(waker: &Waker) {
    let mut inbox = waker.inbox.lock().unwrap_or_else(|e| e.into_inner());
    for work in inbox.drain(..) {
        if let Work::Install(mut injected) = work {
            injected.handler.on_close();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// State of one multiplexed connection.
struct Conn {
    stream: TcpStream,
    handler: Box<dyn Handler>,
    /// Bytes queued toward the peer.
    out: OutBuf,
    /// Registered interest: (readable, writable). Read interest is dropped
    /// once the connection is closing — level-triggered `EPOLLIN` on a
    /// half-closed peer would otherwise spin the loop until the output
    /// drains.
    interest: (bool, bool),
    /// Close once the outbound buffer drains.
    closing: bool,
    /// Set by the connection's first pump; from then on the timed pass
    /// visits it too.
    pumpable: bool,
    /// The `armed` flag of this connection's [`PumpHandle`]s.
    pump_armed: Arc<AtomicBool>,
    last_active: Instant,
}

/// One I/O shard: an epoll instance plus the connections it owns.
struct IoThread {
    shard: usize,
    wakers: Wakers,
    /// This shard's own waker (also `wakers[shard]`).
    waker: Arc<Waker>,
    /// Round-robin cursor for distributing accepted connections (acceptor
    /// shard only).
    next_rr: usize,
    poller: sys::Poller,
    listeners: Vec<(TcpListener, HandlerFactory)>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    wheel: TimerWheel,
    config: ReactorConfig,
    stop: Arc<AtomicBool>,
    evicted: Arc<AtomicU64>,
    scratch: Vec<u8>,
    /// When the timed pump pass last ran.
    last_timed: Instant,
    /// Swap partner of the waker's inbox (no per-turn allocation).
    inbox_scratch: Vec<Work>,
    /// Connections that have been pumped at least once: the timed pass
    /// visits these, never the whole connection table.
    pumpable: Vec<u64>,
    /// This thread's utilization counters, when the owner asked for them.
    stats: Option<Arc<ThreadStats>>,
}

impl IoThread {
    /// Creates the poller and registers the listeners up front, so fd
    /// exhaustion (or any epoll failure) surfaces as a `Reactor::spawn`
    /// error instead of a panic inside an already-running I/O thread.
    fn build(
        shard: usize,
        wakers: Wakers,
        listeners: Vec<(TcpListener, HandlerFactory)>,
        config: ReactorConfig,
        stop: Arc<AtomicBool>,
        evicted: Arc<AtomicU64>,
        stats: Option<Arc<ThreadStats>>,
    ) -> io::Result<Self> {
        let wheel_tick = if config.idle_timeout.is_zero() {
            Duration::from_secs(3600)
        } else {
            (config.idle_timeout / WHEEL_SLOTS as u32).max(Duration::from_millis(1))
        };
        let poller = sys::Poller::new()?;
        for (index, (listener, _)) in listeners.iter().enumerate() {
            poller.register(sys::raw_fd(listener), index as u64, true, false)?;
        }
        let Some(waker) = wakers.get(shard).map(Arc::clone) else {
            return Err(io::Error::other("shard index out of range"));
        };
        poller.register(sys::raw_fd(&waker.event.0), WAKE_TOKEN, true, false)?;
        let next_token = listeners.len() as u64;
        Ok(IoThread {
            shard,
            wakers,
            waker,
            next_rr: 0,
            poller,
            listeners,
            conns: HashMap::new(),
            next_token,
            wheel: TimerWheel::new(WHEEL_SLOTS, wheel_tick),
            config,
            stop,
            evicted,
            scratch: vec![0u8; READ_CHUNK],
            last_timed: Instant::now(),
            inbox_scratch: Vec::new(),
            pumpable: Vec::new(),
            stats,
        })
    }

    fn run(mut self) {
        CURRENT_WAKER.with(|cell| cell.set(Arc::as_ptr(&self.waker)));
        let listener_count = self.listeners.len() as u64;
        let mut events = Vec::with_capacity(128);
        // ordering: shutdown flag; SeqCst keeps the rare path simple
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            // Raised without a write(eventfd) by work this thread queued for
            // itself after its last pump pass: do not sleep on it.
            // ordering: pairs with the AcqRel swap in Waker::wake
            let timeout = if self.waker.pending.load(Ordering::Acquire) {
                Duration::ZERO
            } else {
                POLL_TIMEOUT
            };
            // Three clock reads per iteration split the loop into a parked
            // span (inside the poller) and a busy span (everything else) —
            // at most once per POLL_TIMEOUT when idle.
            let parked_at = self.stats.as_ref().map(|_| Instant::now());
            let wait_result = self.poller.wait(&mut events, timeout);
            let busy_at = match (&self.stats, parked_at) {
                (Some(stats), Some(parked_at)) => {
                    let now = Instant::now();
                    stats.add_wait(now.duration_since(parked_at));
                    Some(now)
                }
                _ => None,
            };
            if let Err(err) = wait_result {
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                break; // poller broken; bail out rather than spin
            }
            let mut dispatched = events.len();
            for event in &events {
                if event.token == WAKE_TOKEN {
                    self.waker.event.drain();
                    dispatched -= 1;
                    if let Some(stats) = &self.stats {
                        stats.add_wakeup();
                    }
                } else if event.token < listener_count {
                    self.accept_all(event.token as usize);
                } else {
                    self.drive(event.token, event.readable, event.writable);
                }
            }
            let now = Instant::now();
            self.pump(now);
            self.evict_idle(now);
            if let (Some(stats), Some(busy_at)) = (&self.stats, busy_at) {
                stats.add_busy(busy_at.elapsed());
                stats.add_loop(dispatched);
            }
        }

        // Orderly teardown: every live connection gets its close callback,
        // including connections still parked in this shard's inbox.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close(token);
        }
        close_undelivered(&self.waker);
    }

    /// Registers a handed-off connection with this shard's poller and gives
    /// the handler one empty `on_data` call to finish processing any bytes
    /// it buffered before the move.
    fn install(&mut self, injected: Injected) {
        let Injected {
            stream,
            mut handler,
            out,
        } = injected;
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(sys::raw_fd(&stream), token, true, false)
            .is_err()
        {
            handler.on_close();
            return; // fd table full or similar; drop the socket
        }
        let pump_armed = Arc::new(AtomicBool::new(false));
        handler.on_install(PumpHandle {
            waker: Arc::clone(&self.waker),
            token,
            armed: Arc::clone(&pump_armed),
        });
        let mut conn = Conn {
            stream,
            handler,
            out,
            interest: (true, false),
            closing: false,
            pumpable: false,
            pump_armed,
            last_active: Instant::now(),
        };
        if !conn.handler.on_data(&[], &mut conn.out) {
            conn.closing = true;
        }
        self.conns.insert(token, conn);
        if !self.config.idle_timeout.is_zero() {
            self.wheel.insert(token);
        }
        self.flush_conn(token);
    }

    /// Drains the accept queue of listener `index` (level-triggered polling
    /// re-notifies if more arrive while we work), distributing connections
    /// round-robin across all shards.
    fn accept_all(&mut self, index: usize) {
        loop {
            let accepted = self.listeners[index].0.accept(); // hb-lint: allow(index): index < listeners.len(): tokens map to registered listeners
            match accepted {
                Ok((stream, peer)) => {
                    if sys::set_nonblocking(&stream).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let handler = (self.listeners[index].1)(peer); // hb-lint: allow(index): index < listeners.len(): tokens map to registered listeners
                    let target = self.next_rr % self.wakers.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    let injected = Injected {
                        stream,
                        handler,
                        out: OutBuf::new(),
                    };
                    match self.wakers.get(target) {
                        Some(waker) if target != self.shard => {
                            waker.send(Work::Install(Box::new(injected)))
                        }
                        _ => self.install(injected),
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Advances one connection's state machine for a readiness event.
    fn drive(&mut self, token: u64, readable: bool, _writable: bool) {
        let mut dead = false;
        let mut migrate: Option<usize> = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // already closed this iteration
            };
            if readable && !conn.closing {
                conn.last_active = Instant::now();
                let mut budget = READ_BUDGET;
                loop {
                    match sys::read_scattered(&conn.stream, &mut self.scratch) {
                        Ok(0) => {
                            conn.handler.on_eof(&mut conn.out);
                            conn.closing = true;
                            break;
                        }
                        Ok(n) => {
                            // hb-lint: allow(index): read() never returns more than scratch.len()
                            if !conn.handler.on_data(&self.scratch[..n], &mut conn.out) {
                                conn.closing = true;
                                break;
                            }
                            if let Some(home) = conn.handler.home_shard() {
                                let target = home % self.wakers.len();
                                if target != self.shard {
                                    migrate = Some(target);
                                    break;
                                }
                            }
                            budget = budget.saturating_sub(n);
                            if budget == 0 {
                                break; // fairness: let other connections run
                            }
                            if n < self.scratch.len() {
                                break; // socket drained; skip the WouldBlock read
                            }
                        }
                        Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                        Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
        }
        if dead {
            self.close(token);
        } else if let Some(target) = migrate {
            self.migrate(token, target);
        } else {
            // Flush opportunistically whether or not EPOLLOUT fired.
            self.flush_conn(token);
        }
    }

    /// Moves a connection — socket, handler, pending output — to its home
    /// shard's inbox and wakes that shard. The timer-wheel token lapses on
    /// its own; no close callback fires, because the connection lives on.
    fn migrate(&mut self, token: u64, target: usize) {
        let Some(waker) = self.wakers.get(target) else {
            return; // unreachable: drive() reduces the target modulo the shard count
        };
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(sys::raw_fd(&conn.stream));
            waker.send(Work::Install(Box::new(Injected {
                stream: conn.stream,
                handler: conn.handler,
                out: conn.out,
            })));
        }
    }

    /// Writes as much pending output as the socket accepts — one vectored
    /// write covering many segments per attempt — and closes the connection
    /// on error, completion-of-close, or slow-consumer overflow.
    fn flush_conn(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.out.pending() > 0 {
                match sys::write_gathered(&conn.stream, conn.out.iter_slices()) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out.consume(n);
                        conn.last_active = Instant::now();
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                if conn.out.pending() == 0 {
                    conn.out.reset();
                    if conn.closing {
                        dead = true;
                    }
                } else if conn.out.pending() > self.config.max_outbound {
                    dead = true; // slow consumer
                } else {
                    conn.out.compact();
                }
                if !dead {
                    let desired = (!conn.closing, conn.out.pending() > 0);
                    if desired != conn.interest {
                        conn.interest = desired;
                        let fd = sys::raw_fd(&conn.stream);
                        let _ = self.poller.modify(fd, token, desired.0, desired.1);
                    }
                }
            }
        }
        if dead {
            self.close(token);
        }
    }

    /// Serves the inbox (handed-off connections, pump requests) and, once per
    /// poll timeout, runs the timed pass over the connections that have been
    /// pumped before.
    fn pump(&mut self, now: Instant) {
        // Lower the flag *before* collecting (see `Waker`); what this
        // thread queues for itself from here on raises it for the next
        // turn's zero-timeout poll.
        self.waker.pending.store(false, Ordering::Release); // ordering: pairs with the AcqRel swap in Waker::wake; the inbox mutex taken below orders the collect after it
        let mut inbox = std::mem::take(&mut self.inbox_scratch);
        std::mem::swap(
            &mut *self.waker.inbox.lock().unwrap_or_else(|e| e.into_inner()),
            &mut inbox,
        );
        for work in inbox.drain(..) {
            match work {
                Work::Install(injected) => self.install(*injected),
                Work::Pump(token) => self.pump_conn(token, PumpCause::Wake, now),
            }
        }
        self.inbox_scratch = inbox;

        #[cfg(test)]
        if !self.config.timed_pass {
            return;
        }
        if now.duration_since(self.last_timed) >= POLL_TIMEOUT {
            self.last_timed = now;
            let mut pumpable = std::mem::take(&mut self.pumpable);
            pumpable.retain(|token| self.conns.contains_key(token));
            for &token in &pumpable {
                self.pump_conn(token, PumpCause::Timer, now);
            }
            self.pumpable = pumpable;
        }
    }

    /// One `on_pump` call and the flush that ships what it produced.
    fn pump_conn(&mut self, token: u64, cause: PumpCause, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // closed since the pump was requested
        };
        if conn.closing {
            return;
        }
        if !conn.pumpable {
            conn.pumpable = true;
            self.pumpable.push(token);
        }
        // Disarm *before* the handler drains: an enqueue racing the drain
        // re-requests instead of being missed.
        conn.pump_armed.store(false, Ordering::Release); // ordering: pairs with the AcqRel swap in PumpHandle::request
        let pending = conn.out.pending();
        if !conn.handler.on_pump(&mut conn.out, pending, cause) {
            conn.closing = true;
        }
        // Touch the timer wheel only on actual delivery: a static backlog
        // toward a stuck peer must still idle out once the keep-alive
        // exemption lapses.
        if conn.out.pending() > pending {
            conn.last_active = now;
        }
        if let Some(stats) = &self.stats {
            stats.add_pump(cause);
        }
        self.flush_conn(token);
    }

    /// Removes a connection, deregistering it and firing `on_close` once.
    fn close(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(sys::raw_fd(&conn.stream));
            conn.handler.on_close();
        }
    }

    /// Advances the timer wheel and evicts connections idle past the
    /// timeout. Active connections found in a fired slot are re-armed.
    fn evict_idle(&mut self, now: Instant) {
        if self.config.idle_timeout.is_zero() {
            return;
        }
        let idle_timeout = self.config.idle_timeout;
        let mut evict = Vec::new();
        self.wheel.advance(now, |token, wheel| {
            let Some(conn) = self.conns.get(&token) else {
                return; // connection already gone; let the timer lapse
            };
            let idle = now.duration_since(conn.last_active);
            if conn.handler.keep_alive() && !conn.closing {
                // An active push subscription is legitimately silent between
                // events — exempt it while the subscription lives, but keep
                // it on the wheel so eviction resumes when it lapses. A
                // closing connection only waits on a peer that may never
                // drain it.
                wheel.insert_after(token, idle_timeout);
            } else if idle >= idle_timeout {
                evict.push(token);
            } else {
                wheel.insert_after(token, idle_timeout - idle);
            }
        });
        for token in evict {
            let peer = self
                .conns
                .get(&token)
                .and_then(|conn| conn.stream.peer_addr().ok());
            self.close(token);
            self.evicted.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            match peer {
                Some(peer) => crate::log!(
                    Level::Warn,
                    "evicted idle connection peer={peer} after {:?}",
                    idle_timeout
                ),
                None => crate::log!(Level::Warn, "evicted idle connection"),
            }
        }
    }
}

/// A hashed timer wheel tracking connection idle deadlines at coarse
/// granularity.
///
/// Each slot holds the tokens whose deadline falls in that tick. Insertions
/// go `slots - 1` ticks ahead (≈ the idle timeout); when a slot fires, its
/// tokens are handed to the callback, which either lets them lapse (evict /
/// already gone) or re-arms them further along the wheel. O(1) insert, O(1)
/// amortized advance, no per-connection timers.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    current: usize,
    tick: Duration,
    last_advance: Instant,
}

/// Re-arm view handed to the advance callback (borrowing rules prevent
/// handing out `&mut TimerWheel` while a slot is being drained).
struct WheelRearm<'w> {
    slots: &'w mut [Vec<u64>],
    current: usize,
    tick: Duration,
}

impl WheelRearm<'_> {
    /// Re-inserts a token to fire after roughly `delay`.
    fn insert_after(&mut self, token: u64, delay: Duration) {
        let ticks = (delay.as_nanos() / self.tick.as_nanos().max(1)) as usize;
        let ahead = ticks.clamp(1, self.slots.len() - 1);
        let slot = (self.current + ahead) % self.slots.len();
        self.slots[slot].push(token); // hb-lint: allow(index): slot was reduced modulo slots.len()
    }
}

impl TimerWheel {
    fn new(slots: usize, tick: Duration) -> Self {
        TimerWheel {
            slots: (0..slots.max(2)).map(|_| Vec::new()).collect(),
            current: 0,
            tick,
            last_advance: Instant::now(),
        }
    }

    /// Arms a new token to fire one full rotation from now.
    fn insert(&mut self, token: u64) {
        let slots = self.slots.len();
        self.slots[(self.current + slots - 1) % slots].push(token); // hb-lint: allow(index): index was reduced modulo slots.len()
    }

    /// Fires every slot whose tick has elapsed since the last advance.
    fn advance(&mut self, now: Instant, mut callback: impl FnMut(u64, &mut WheelRearm<'_>)) {
        // After a long stall (suspend, debugger) don't replay every missed
        // tick — two rotations visit every slot at least twice.
        let max_lag = self.tick * (2 * self.slots.len() as u32);
        if now.duration_since(self.last_advance) > max_lag {
            self.last_advance = now - max_lag;
        }
        while now.duration_since(self.last_advance) >= self.tick {
            self.last_advance += self.tick;
            self.current = (self.current + 1) % self.slots.len();
            let fired = std::mem::take(&mut self.slots[self.current]); // hb-lint: allow(index): current was reduced modulo slots.len()
            let current = self.current;
            let tick = self.tick;
            let mut rearm = WheelRearm {
                slots: &mut self.slots,
                current,
                tick,
            };
            for token in fired {
                callback(token, &mut rearm);
            }
        }
    }
}

/// The syscall surface: `epoll`, `eventfd` and vectored `readv`/`writev`
/// through the workspace `libc` shim.
mod sys {
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::time::Duration;

    use super::MAX_WRITE_IOVECS;

    /// One readiness notification.
    #[derive(Debug, Clone, Copy)]
    pub struct Event {
        pub token: u64,
        pub readable: bool,
        pub writable: bool,
    }

    /// An `epoll` instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: i32,
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = 0;
        if readable {
            // RDHUP rides with read interest: on a half-closed peer it is
            // level-triggered and would spin a write-only connection.
            bits |= libc::EPOLLIN | libc::EPOLLRDHUP;
        }
        if writable {
            bits |= libc::EPOLLOUT;
        }
        bits
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        fn ctl(
            &self,
            op: i32,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let mut event = libc::epoll_event {
                events: interest_bits(readable, writable),
                u64: token,
            };
            let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(
            &self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(libc::EPOLL_CTL_ADD, fd, token, readable, writable)
        }

        pub fn modify(
            &self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(libc::EPOLL_CTL_MOD, fd, token, readable, writable)
        }

        pub fn deregister(&self, fd: i32) -> io::Result<()> {
            let rc = unsafe {
                libc::epoll_ctl(self.epfd, libc::EPOLL_CTL_DEL, fd, std::ptr::null_mut())
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            let mut buf = [libc::epoll_event::default(); 128];
            let n = unsafe {
                libc::epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    timeout.as_millis().min(i32::MAX as u128) as i32,
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            for raw in buf.iter().take(n as usize) {
                // Copy out of the packed struct before touching the fields.
                let (bits, token) = ({ raw.events }, { raw.u64 });
                events.push(Event {
                    token,
                    readable: bits
                        & (libc::EPOLLIN | libc::EPOLLHUP | libc::EPOLLRDHUP | libc::EPOLLERR)
                        != 0,
                    writable: bits & (libc::EPOLLOUT | libc::EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                libc::close(self.epfd);
            }
        }
    }

    /// A non-blocking eventfd, owned as a `File` so reads, writes and the
    /// close on drop go through `std`.
    #[derive(Debug)]
    pub struct EventFd(pub File);

    impl EventFd {
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: eventfd takes no pointers; a negative return is the only failure mode and is checked below.
            let fd = unsafe { libc::eventfd(0, libc::EFD_NONBLOCK | libc::EFD_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` was just returned by eventfd and is owned by nothing else, so the File may close it.
            Ok(EventFd(unsafe { File::from_raw_fd(fd) }))
        }

        /// Makes the descriptor readable. The only possible failure is a
        /// saturated counter (`EAGAIN`), which is already readable.
        pub fn notify(&self) {
            let _ = (&self.0).write(&1u64.to_ne_bytes());
        }

        /// Resets the counter so the descriptor stops polling readable;
        /// returns how many notifications it had absorbed.
        pub fn drain(&self) -> u64 {
            let mut count = [0u8; 8];
            match (&self.0).read(&mut count) {
                Ok(8) => u64::from_ne_bytes(count),
                _ => 0,
            }
        }
    }

    /// Raw fd of any socket-like object.
    pub fn raw_fd(socket: &impl AsRawFd) -> i32 {
        socket.as_raw_fd()
    }

    /// Switches a stream to non-blocking mode via `fcntl(O_NONBLOCK)`.
    pub fn set_nonblocking(stream: &TcpStream) -> io::Result<()> {
        let fd = stream.as_raw_fd();
        let flags = unsafe { libc::fcntl(fd, libc::F_GETFL, 0) };
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        if unsafe { libc::fcntl(fd, libc::F_SETFL, flags | libc::O_NONBLOCK) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    // hb-lint: hot-path — per-readiness syscall wrappers; iovec arrays live
    // on the stack so no poll cycle ever touches the allocator.
    /// One scatter-read (`readv`) filling `scratch` through two iovecs —
    /// a single syscall can deliver the whole buffer.
    pub fn read_scattered(stream: &TcpStream, scratch: &mut [u8]) -> io::Result<usize> {
        let fd = stream.as_raw_fd();
        let split = scratch.len() / 2;
        let (lo, hi) = scratch.split_at_mut(split);
        let iov = [
            libc::iovec {
                iov_base: lo.as_mut_ptr() as *mut libc::c_void,
                iov_len: lo.len(),
            },
            libc::iovec {
                iov_base: hi.as_mut_ptr() as *mut libc::c_void,
                iov_len: hi.len(),
            },
        ];
        let n = unsafe { libc::readv(fd, iov.as_ptr(), 2) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// One gather-write (`writev`) draining up to [`MAX_WRITE_IOVECS`]
    /// buffer segments with a single syscall.
    pub fn write_gathered<'a>(
        stream: &TcpStream,
        slices: impl Iterator<Item = &'a [u8]>,
    ) -> io::Result<usize> {
        let fd = stream.as_raw_fd();
        let mut iov = [libc::iovec {
            iov_base: std::ptr::null_mut(),
            iov_len: 0,
        }; MAX_WRITE_IOVECS];
        let mut count = 0;
        for slice in slices {
            if count == iov.len() {
                break;
            }
            // hb-lint: allow(index): count == iov.len() breaks the loop just above
            iov[count] = libc::iovec {
                iov_base: slice.as_ptr() as *mut libc::c_void,
                iov_len: slice.len(),
            };
            count += 1;
        }
        if count == 0 {
            return Ok(0);
        }
        let n = unsafe { libc::writev(fd, iov.as_ptr(), count as i32) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
    // hb-lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::Mutex;

    /// Echo handler recording lifecycle callbacks.
    struct Echo {
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Handler for Echo {
        fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
            out.extend_from_slice(input);
            // A line containing "quit" asks for a handler-initiated close.
            !input.windows(4).any(|w| w == b"quit")
        }

        fn on_eof(&mut self, _out: &mut OutBuf) {
            self.log.lock().unwrap().push("eof".into());
        }

        fn on_close(&mut self) {
            self.log.lock().unwrap().push("close".into());
        }
    }

    fn echo_reactor(config: ReactorConfig) -> (Reactor, SocketAddr, Arc<Mutex<Vec<String>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let factory_log = Arc::clone(&log);
        let spec = ListenerSpec {
            listener,
            factory: Arc::new(move |_| {
                Box::new(Echo {
                    log: Arc::clone(&factory_log),
                }) as Box<dyn Handler>
            }),
        };
        let reactor = Reactor::spawn(vec![spec], config, Arc::new(AtomicU64::new(0))).unwrap();
        (reactor, addr, log)
    }

    #[test]
    fn out_buf_orders_owned_and_shared_segments() {
        let mut out = OutBuf::new();
        out.extend_from_slice(b"aa");
        out.push_shared(Arc::from(&b"SHARED"[..]));
        out.extend_from_slice(b"zz");
        assert_eq!(out.pending(), 10);
        let flat: Vec<u8> = out.iter_slices().flatten().copied().collect();
        assert_eq!(flat, b"aaSHAREDzz");

        // Partial consumption crosses segment boundaries correctly.
        out.consume(4);
        let flat: Vec<u8> = out.iter_slices().flatten().copied().collect();
        assert_eq!(flat, b"AREDzz");
        assert_eq!(out.pending(), 6);
        out.consume(6);
        assert!(out.is_empty());
    }

    #[test]
    fn out_buf_shares_segments_without_copying() {
        let payload: Arc<[u8]> = Arc::from(&b"encode-once"[..]);
        let mut queues: Vec<OutBuf> = (0..8).map(|_| OutBuf::new()).collect();
        for out in &mut queues {
            out.push_shared(Arc::clone(&payload));
        }
        // 8 queues + the original: references, not copies.
        assert_eq!(Arc::strong_count(&payload), 9);
        for out in &mut queues {
            assert_eq!(out.pending(), payload.len());
            out.consume(payload.len());
            out.reset();
        }
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn out_buf_write_impl_appends_to_tail() {
        let mut out = OutBuf::new();
        write!(out, "STATS apps={}", 3).unwrap();
        assert_eq!(out.pending(), 12);
        let flat: Vec<u8> = out.iter_slices().flatten().copied().collect();
        assert_eq!(flat, b"STATS apps=3");
    }

    #[test]
    fn echoes_bytes_back() {
        let (_reactor, addr, _log) = echo_reactor(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"heartbeat").unwrap();
        let mut buf = [0u8; 9];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"heartbeat");
    }

    #[test]
    fn thread_stats_track_wait_busy_and_dispatches() {
        let threads = Arc::new(ReactorThreads::new());
        let (_reactor, addr, _log) = echo_reactor(ReactorConfig {
            io_threads: 2,
            thread_stats: Some(Arc::clone(&threads)),
            ..ReactorConfig::default()
        });
        assert_eq!(threads.snapshot().len(), 2, "one entry per I/O thread");
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"tick").unwrap();
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snaps = threads.snapshot();
            let total_loops: u64 = snaps.iter().map(|s| s.loops).sum();
            let total_dispatches: u64 = snaps.iter().map(|s| s.dispatches).sum();
            let waited: u64 = snaps.iter().map(|s| s.wait_ns).sum();
            if total_loops > 0 && total_dispatches > 0 && waited > 0 {
                for snap in &snaps {
                    let u = snap.utilization();
                    assert!((0.0..=1.0).contains(&u), "utilization out of range: {u}");
                }
                break;
            }
            assert!(Instant::now() < deadline, "thread stats never advanced");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn handler_requested_close_closes_after_flush() {
        let (_reactor, addr, log) = echo_reactor(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"quit").unwrap();
        // The response still arrives, then the peer closes.
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"quit");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if log.lock().unwrap().iter().any(|e| e == "close") {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("on_close never fired");
    }

    #[test]
    fn peer_eof_fires_eof_then_close() {
        let (_reactor, addr, log) = echo_reactor(ReactorConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"bye").unwrap();
        // Drain the echo before dropping: closing with the reply still
        // unsent would race the reactor's write into an RST, which is a
        // connection *error* (close without eof), not the clean FIN this
        // test pins.
        let mut buf = [0u8; 3];
        stream.read_exact(&mut buf).unwrap();
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let log = log.lock().unwrap();
                if log.contains(&"close".to_string()) {
                    assert!(
                        log.contains(&"eof".to_string()),
                        "eof precedes close: {log:?}"
                    );
                    break;
                }
            }
            assert!(Instant::now() < deadline, "close never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn idle_connections_are_evicted() {
        let (reactor, addr, log) = echo_reactor(ReactorConfig {
            idle_timeout: Duration::from_millis(200),
            ..ReactorConfig::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.evicted_total() == 0 {
            assert!(Instant::now() < deadline, "idle eviction never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(log.lock().unwrap().contains(&"close".to_string()));
        drop(stream);
    }

    #[test]
    fn active_connections_survive_the_idle_wheel() {
        let (reactor, addr, _log) = echo_reactor(ReactorConfig {
            idle_timeout: Duration::from_millis(300),
            ..ReactorConfig::default()
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Keep talking for several multiples of the idle timeout.
        let until = Instant::now() + Duration::from_millis(1200);
        let mut buf = [0u8; 1];
        while Instant::now() < until {
            stream.write_all(b"x").unwrap();
            stream.read_exact(&mut buf).unwrap();
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(reactor.evicted_total(), 0, "active connection was evicted");
    }

    #[test]
    fn shutdown_closes_live_connections() {
        let (mut reactor, addr, log) = echo_reactor(ReactorConfig::default());
        let _streams: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // Give the reactor a moment to accept them all.
        let deadline = Instant::now() + Duration::from_secs(5);
        std::thread::sleep(Duration::from_millis(100));
        reactor.shutdown();
        while log.lock().unwrap().iter().filter(|e| *e == "close").count() < 8 {
            assert!(
                Instant::now() < deadline,
                "shutdown must close every accepted connection: {:?}",
                log.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn io_thread_count_is_fixed_and_configurable() {
        let (reactor, addr, _log) = echo_reactor(ReactorConfig {
            io_threads: 3,
            ..ReactorConfig::default()
        });
        assert_eq!(reactor.io_threads(), 3);
        // Connection churn does not change the thread count.
        for _ in 0..32 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"ping").unwrap();
        }
        assert_eq!(reactor.io_threads(), 3);
    }

    /// Echo handler that records which shard served each non-empty chunk
    /// and, once primed, asks to live on a fixed home shard.
    struct ShardProbe {
        served_by: Arc<Mutex<Vec<usize>>>,
        home: Option<usize>,
        want_home: Option<usize>,
    }

    impl Handler for ShardProbe {
        fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
            if !input.is_empty() {
                self.served_by
                    .lock()
                    .unwrap()
                    .push(current_shard().expect("reactor thread"));
                self.home = self.want_home;
                out.extend_from_slice(input);
            }
            true
        }

        fn home_shard(&self) -> Option<usize> {
            self.home
        }
    }

    fn probe_reactor(
        io_threads: usize,
        want_home: Option<usize>,
    ) -> (Reactor, SocketAddr, Arc<Mutex<Vec<usize>>>) {
        let served_by = Arc::new(Mutex::new(Vec::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = ListenerSpec {
            listener,
            factory: {
                let served_by = Arc::clone(&served_by);
                Arc::new(move |_| {
                    Box::new(ShardProbe {
                        served_by: Arc::clone(&served_by),
                        home: None,
                        want_home,
                    }) as Box<dyn Handler>
                })
            },
        };
        let reactor = Reactor::spawn(
            vec![spec],
            ReactorConfig {
                io_threads,
                ..ReactorConfig::default()
            },
            Arc::new(AtomicU64::new(0)),
        )
        .unwrap();
        (reactor, addr, served_by)
    }

    #[test]
    fn accepted_connections_are_distributed_across_shards() {
        let (_reactor, addr, served_by) = probe_reactor(2, None);
        let mut streams: Vec<TcpStream> = (0..4)
            .map(|_| {
                let s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                s
            })
            .collect();
        let mut buf = [0u8; 1];
        for stream in &mut streams {
            stream.write_all(b"x").unwrap();
            stream.read_exact(&mut buf).unwrap();
        }
        let shards = served_by.lock().unwrap().clone();
        assert_eq!(shards.len(), 4);
        assert!(
            shards.contains(&0) && shards.contains(&1),
            "round-robin must use both shards: {shards:?}"
        );
    }

    #[test]
    fn connections_migrate_to_their_home_shard() {
        let (_reactor, addr, served_by) = probe_reactor(2, Some(1));
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        // First chunk is served wherever round-robin placed us and primes
        // the home-shard request; subsequent chunks must run on shard 1.
        for _ in 0..3 {
            stream.write_all(b"m").unwrap();
            stream.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], b'm', "echo must survive migration");
        }
        let shards = served_by.lock().unwrap().clone();
        assert_eq!(shards.len(), 3);
        assert_eq!(
            &shards[1..],
            &[1, 1],
            "post-migration chunks must be served by the home shard: {shards:?}"
        );
    }

    /// Bytes produced outside the connection that delivers them — the
    /// shape of a subscriber queue.
    struct Source {
        bytes: Mutex<Vec<u8>>,
        pump: Mutex<Option<PumpHandle>>,
        /// Outbound backlog at which the handler stops draining (a peer
        /// that is not reading), as the collector's observer handler does.
        hold_at: usize,
        /// Set once a pump was refused because of that backlog.
        held: AtomicBool,
        /// Eviction exemption, as for an observer with live subscriptions.
        keep: AtomicBool,
    }

    impl Source {
        fn new(hold_at: usize, keep: bool) -> Arc<Source> {
            Arc::new(Source {
                bytes: Mutex::new(Vec::new()),
                pump: Mutex::new(None),
                hold_at,
                held: AtomicBool::new(false),
                keep: AtomicBool::new(keep),
            })
        }

        /// Publish, then request: the enqueuer half of the protocol.
        fn push(&self, bytes: &[u8]) {
            self.bytes.lock().unwrap().extend_from_slice(bytes);
            if let Some(pump) = &*self.pump.lock().unwrap() {
                pump.request();
            }
        }

        fn wait_installed(&self) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.pump.lock().unwrap().is_none() {
                assert!(Instant::now() < deadline, "connection never installed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Delivers a [`Source`]'s bytes through the pump path. With `feed`
    /// set, inbound bytes are pushed into that source instead of being
    /// ignored (an ingest connection fanning out to a subscriber).
    struct Pumped {
        source: Arc<Source>,
        feed: Option<Arc<Source>>,
    }

    impl Handler for Pumped {
        fn on_data(&mut self, input: &[u8], _out: &mut OutBuf) -> bool {
            if let (Some(feed), false) = (&self.feed, input.is_empty()) {
                feed.push(input);
            }
            true
        }

        fn on_install(&mut self, pump: PumpHandle) {
            *self.source.pump.lock().unwrap() = Some(pump.clone());
            pump.request(); // for bytes pushed before the handle was in place
        }

        fn on_pump(&mut self, out: &mut OutBuf, pending_out: usize, _cause: PumpCause) -> bool {
            if pending_out >= self.source.hold_at {
                self.source.held.store(true, Ordering::Release);
                return true;
            }
            let mut bytes = self.source.bytes.lock().unwrap();
            out.extend_from_slice(&bytes);
            bytes.clear();
            true
        }

        fn keep_alive(&self) -> bool {
            self.source.keep.load(Ordering::Relaxed)
        }
    }

    /// A reactor whose n-th accepted connection is served by `handlers[n]`.
    fn pumped_reactor(handlers: Vec<Pumped>, config: ReactorConfig) -> (Reactor, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handlers = Mutex::new(handlers.into_iter());
        let spec = ListenerSpec {
            listener,
            factory: Arc::new(move |_| {
                let handler = handlers.lock().unwrap().next();
                Box::new(handler.expect("one handler per connection")) as Box<dyn Handler>
            }),
        };
        let reactor = Reactor::spawn(vec![spec], config, Arc::new(AtomicU64::new(0))).unwrap();
        (reactor, addr)
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        let timeout = Some(Duration::from_secs(10));
        stream.set_read_timeout(timeout).unwrap();
        stream
    }

    #[test]
    fn pump_delivers_externally_produced_bytes() {
        let source = Source::new(usize::MAX, false);
        let pumped = Pumped {
            source: Arc::clone(&source),
            feed: None,
        };
        let (_reactor, addr) = pumped_reactor(vec![pumped], ReactorConfig::default());
        let mut stream = connect(addr);
        source.wait_installed();
        // Bytes from "somewhere else" — no inbound traffic ever arrives on
        // the socket.
        source.push(b"pushed!");
        let mut buf = [0u8; 7];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pushed!");
    }

    #[test]
    fn bytes_queued_before_the_owner_attached_are_delivered() {
        let source = Source::new(usize::MAX, false);
        // Pushed with no connection to request a pump from: the handler's
        // own request at install delivers the bytes.
        source.push(b"early");
        let pumped = Pumped {
            source: Arc::clone(&source),
            feed: None,
        };
        let (_reactor, addr) = pumped_reactor(
            vec![pumped],
            ReactorConfig {
                timed_pass: false,
                ..ReactorConfig::default()
            },
        );
        let mut stream = connect(addr);
        let mut buf = [0u8; 5];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"early");
    }

    #[test]
    fn enqueue_from_another_shard_wakes_an_idle_shard() {
        let threads = Arc::new(ReactorThreads::new());
        let source = Source::new(usize::MAX, false);
        // Round-robin: the first connection lands on shard 0 and feeds the
        // source; the second lands on shard 1 and delivers it. Shard 1 sees
        // no socket traffic at all.
        let feeder = Pumped {
            source: Source::new(usize::MAX, false),
            feed: Some(Arc::clone(&source)),
        };
        let subscriber = Pumped {
            source: Arc::clone(&source),
            feed: None,
        };
        let (_reactor, addr) = pumped_reactor(
            vec![feeder, subscriber],
            ReactorConfig {
                io_threads: 2,
                thread_stats: Some(Arc::clone(&threads)),
                // No timed pass: whatever reaches the peer was woken there.
                timed_pass: false,
                ..ReactorConfig::default()
            },
        );
        let mut feed = connect(addr);
        let mut sub = connect(addr);
        source.wait_installed();
        let before = threads.snapshot().remove(1);

        feed.write_all(b"fan-out").unwrap();
        let mut buf = [0u8; 7];
        sub.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"fan-out");

        let after = threads.snapshot().remove(1);
        assert!(
            after.wakeups > before.wakeups,
            "shard 1 must have been woken through its eventfd: {before:?} -> {after:?}"
        );
        assert!(after.pumps_wake > before.pumps_wake, "{after:?}");
        assert_eq!(after.pumps_timer, 0, "the timed pass was disabled");
        assert_eq!(
            after.dispatches, before.dispatches,
            "shard 1 saw no socket readiness, only the wake-up"
        );
    }

    #[test]
    fn same_shard_requests_write_no_eventfd() {
        let source = Source::new(usize::MAX, false);
        // One connection that feeds its own source: every request is made
        // on the owning shard's thread.
        let pumped = Pumped {
            source: Arc::clone(&source),
            feed: Some(Arc::clone(&source)),
        };
        let threads = Arc::new(ReactorThreads::new());
        let (reactor, addr) = pumped_reactor(
            vec![pumped],
            ReactorConfig {
                io_threads: 1,
                thread_stats: Some(Arc::clone(&threads)),
                timed_pass: false,
                ..ReactorConfig::default()
            },
        );
        let wakeups = || threads.snapshot().remove(0).wakeups;
        let mut stream = connect(addr);
        let mut buf = [0u8; 4];
        for _ in 0..16 {
            stream.write_all(b"self").unwrap();
            stream.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"self");
        }
        assert_eq!(
            (wakeups(), reactor.wakers[0].event.drain()),
            (0, 0),
            "install, attach and 16 deliveries all ran on the shard itself"
        );
        // The control: the same request from outside the shard does write.
        source.push(b"from");
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"from");
        assert_eq!(wakeups(), 1);
    }

    #[test]
    fn requests_coalesce_into_one_wakeup_per_turn() {
        let waker = Arc::new(Waker::new().unwrap());
        let pumps = |waker: &Waker| -> Vec<u64> {
            let inbox = waker.inbox.lock().unwrap();
            inbox
                .iter()
                .map(|work| match work {
                    Work::Pump(token) => *token,
                    Work::Install(_) => panic!("nothing was handed off"),
                })
                .collect()
        };
        for token in 0..100 {
            waker.send(Work::Pump(token));
        }
        // The eventfd counts the writes it absorbed since the last read.
        assert_eq!(waker.event.drain(), 1, "a raised flag suppresses writes");
        assert_eq!(pumps(&waker).len(), 100, "no request is dropped");
        // The shard lowers the flag before collecting; the next request
        // writes again.
        waker.pending.store(false, Ordering::Release);
        waker.send(Work::Pump(100));
        assert_eq!(waker.event.drain(), 1);

        // One connection, many enqueues: one inbox entry until the shard
        // disarms the handle for the drain.
        waker.inbox.lock().unwrap().clear();
        let pump = PumpHandle {
            waker: Arc::clone(&waker),
            token: 7,
            armed: Arc::new(AtomicBool::new(false)),
        };
        for _ in 0..100 {
            pump.clone().request();
        }
        assert_eq!(pumps(&waker), vec![7]);
        pump.armed.store(false, Ordering::Release);
        pump.request();
        pump.request();
        assert_eq!(pumps(&waker), vec![7, 7]);
    }

    #[test]
    fn stuck_peer_neither_spins_the_loop_nor_escapes_idle_eviction() {
        const CHUNK: usize = 256 * 1024;
        let threads = Arc::new(ReactorThreads::new());
        let source = Source::new(CHUNK, false);
        let pumped = Pumped {
            source: Arc::clone(&source),
            feed: None,
        };
        let (reactor, addr) = pumped_reactor(
            vec![pumped],
            ReactorConfig {
                io_threads: 1,
                idle_timeout: Duration::from_millis(300),
                thread_stats: Some(Arc::clone(&threads)),
                ..ReactorConfig::default()
            },
        );
        // The peer connects and never reads.
        let stream = connect(addr);
        source.wait_installed();
        let chunk = vec![0x5Au8; CHUNK];
        let deadline = Instant::now() + Duration::from_secs(30);
        // Fill the socket buffers until the handler refuses to drain.
        while !source.held.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "socket never filled up");
            if source.bytes.lock().unwrap().is_empty() {
                source.push(&chunk);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // More events for the stuck peer: each costs one refused pump,
        // none re-queues itself, and the loop goes back to idling at the
        // poll-timeout cadence.
        for _ in 0..64 {
            source.push(&chunk[..1024]);
        }
        // Let the refused pumps those requested drain out of the inbox.
        let mut before = threads.snapshot().remove(0);
        loop {
            assert!(Instant::now() < deadline, "pump requests never settled");
            std::thread::sleep(Duration::from_millis(60));
            let now = threads.snapshot().remove(0);
            if now.pumps_wake == before.pumps_wake {
                before = now;
                break;
            }
            before = now;
        }
        let since = Instant::now();
        std::thread::sleep(Duration::from_millis(200));
        let after = threads.snapshot().remove(0);
        let idle_loops = since.elapsed().as_millis() as u64 / POLL_TIMEOUT.as_millis() as u64 + 2;
        assert_eq!(after.wakeups, before.wakeups, "{before:?} -> {after:?}");
        assert_eq!(
            after.pumps_wake, before.pumps_wake,
            "a refused pump must not re-request itself"
        );
        assert!(
            after.loops - before.loops <= 2 * idle_loops,
            "loop must idle, not spin: {} turns in {:?}",
            after.loops - before.loops,
            since.elapsed()
        );
        // Nothing is delivered any more, so the connection idles out.
        while reactor.evicted_total() == 0 {
            assert!(Instant::now() < deadline, "stuck peer was never evicted");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stream);
    }

    #[test]
    fn keep_alive_connections_survive_idle_eviction_until_released() {
        let source = Source::new(usize::MAX, true);
        let pumped = Pumped {
            source: Arc::clone(&source),
            feed: None,
        };
        let (reactor, addr) = pumped_reactor(
            vec![pumped],
            ReactorConfig {
                idle_timeout: Duration::from_millis(150),
                ..ReactorConfig::default()
            },
        );
        let stream = TcpStream::connect(addr).unwrap();
        // Far past the idle timeout: the keep-alive exemption holds.
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(
            reactor.evicted_total(),
            0,
            "keep-alive connection must not be evicted while exempt"
        );
        // Release the exemption: eviction resumes on the next wheel pass.
        source.keep.store(false, Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.evicted_total() == 0 {
            assert!(
                Instant::now() < deadline,
                "released connection must be evicted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stream);
    }

    #[test]
    fn keep_alive_does_not_pin_a_closing_connection_to_a_stuck_peer() {
        /// Exempt from eviction; answers its first bytes with more than the
        /// socket takes and asks to close.
        struct Parting;
        impl Handler for Parting {
            fn on_data(&mut self, input: &[u8], out: &mut OutBuf) -> bool {
                if input.is_empty() {
                    return true;
                }
                out.extend_from_slice(&vec![0x5Au8; 16 << 20]);
                false
            }
            fn keep_alive(&self) -> bool {
                true
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let spec = ListenerSpec {
            listener,
            factory: Arc::new(|_| Box::new(Parting) as Box<dyn Handler>),
        };
        let config = ReactorConfig {
            idle_timeout: Duration::from_millis(150),
            max_outbound: 64 << 20,
            ..ReactorConfig::default()
        };
        let reactor = Reactor::spawn(vec![spec], config, Arc::new(AtomicU64::new(0))).unwrap();
        // The peer says something and then never reads: the close waits on
        // a flush that cannot finish.
        let mut stream = connect(addr);
        stream.write_all(b"bye").unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.evicted_total() == 0 {
            assert!(
                Instant::now() < deadline,
                "closing connection was never evicted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stream);
    }

    #[test]
    fn shutdown_wakes_parked_shards() {
        let threads = Arc::new(ReactorThreads::new());
        let (mut reactor, _addr, _log) = echo_reactor(ReactorConfig {
            io_threads: 4,
            thread_stats: Some(Arc::clone(&threads)),
            ..ReactorConfig::default()
        });
        let waker = Arc::clone(&reactor.wakers[3]);
        reactor.shutdown();
        // Either the shard consumed the wake-up or it saw the stop flag
        // first and the write is still in the eventfd.
        assert_eq!(
            threads.snapshot().remove(3).wakeups + waker.event.drain(),
            1,
            "shutdown must wake each shard, not wait for its poll timeout"
        );
    }

    #[test]
    fn wheel_rearms_active_tokens() {
        let tick = Duration::from_millis(10);
        let mut wheel = TimerWheel::new(8, tick);
        let t0 = wheel.last_advance;
        wheel.insert(42);
        let mut fired = Vec::new();
        // After one full rotation the token fires; re-arm it once.
        wheel.advance(t0 + tick * 7, |token, rearm| {
            fired.push(token);
            rearm.insert_after(token, tick * 3);
        });
        assert_eq!(fired, vec![42]);
        // It must fire again roughly 3 ticks later.
        fired.clear();
        wheel.advance(t0 + tick * 11, |token, _| fired.push(token));
        assert_eq!(fired, vec![42]);
    }
}
