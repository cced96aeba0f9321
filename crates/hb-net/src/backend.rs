//! [`TcpBackend`] — mirrors a heartbeat stream to a remote collector over
//! TCP without ever blocking the producer's hot path.
//!
//! `on_beat` only pushes the record into a bounded in-memory queue; a
//! dedicated flusher thread drains the queue in batches, maintains the
//! connection (including reconnection with backoff) and ships
//! [`Frame`]s. When the collector is slow or down the queue fills and the
//! backend sheds the *oldest* queued beats, counting every loss — the
//! freshest telemetry is the most valuable, and the producer never stalls.
//!
//! On every (re)connect the flusher sends its hello and waits for the
//! collector's [`Frame::HelloAck`] — a required handshake, not a
//! negotiation: no ack, any other frame, or an ack advertising less than
//! [`wire::VERSION`] is a failed connect (batch shed and counted, reason
//! logged, retried on the backoff like an unreachable collector).

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use heartbeats::{Backend, BackendStats, BeatScope, HeartbeatRecord};

use crate::error::{NetError, Result};
use crate::frame::{FrameDecoder, FrameWriter};
use crate::telemetry::Level;
use crate::wire::{self, BatchEncoder, Frame, Hello, WireBeat};

/// How long a fresh connection waits for the collector's hello-ack. There
/// is no fallback behind the wait, so expiry has to mean a dead or foreign
/// peer rather than a busy collector: the same order as the socket's write
/// timeout. It also bounds how long dropping a backend mid-handshake blocks.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Tuning knobs for a [`TcpBackend`].
#[derive(Debug, Clone)]
pub struct TcpBackendConfig {
    /// Maximum beats buffered while the collector is unreachable or slow;
    /// beyond this the oldest queued beat is shed (and counted).
    pub queue_capacity: usize,
    /// Maximum records shipped per [`Frame::Beats`].
    pub batch_max: usize,
    /// Delay between reconnection attempts while the collector is down.
    pub reconnect_backoff: Duration,
    /// The rate window advertised in the hello frame so the collector's
    /// server-side estimate matches the producer's default window.
    pub default_window: u32,
    /// Process id advertised in the hello frame.
    pub pid: u32,
}

impl Default for TcpBackendConfig {
    fn default() -> Self {
        TcpBackendConfig {
            queue_capacity: 8192,
            batch_max: 512,
            reconnect_backoff: Duration::from_millis(100),
            default_window: heartbeats::DEFAULT_WINDOW as u32,
            pid: std::process::id(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<WireBeat>,
    /// Configured bound on `queue` (a `VecDeque`'s real allocation may be
    /// larger than requested, so the bound is tracked explicitly).
    capacity: usize,
    /// Latest declared target; `dirty` marks it unsent (set on change and on
    /// reconnect so goals survive collector restarts).
    target: Option<(f64, f64)>,
    target_dirty: bool,
    stop: bool,
}

#[derive(Debug)]
struct Shared {
    inner: Mutex<Inner>,
    wake: Condvar,
    dropped: AtomicU64,
    sent: AtomicU64,
    /// True while the flusher holds a connection whose handshake completed.
    connected: AtomicBool,
}

/// A [`Backend`] that ships heartbeats to an `hb-collector` over TCP.
///
/// The constructor does not require the collector to be up: the flusher
/// connects lazily and keeps retrying, buffering (and eventually shedding)
/// beats in the meantime. All backpressure is visible through
/// [`Backend::stats`].
///
/// ```
/// use std::sync::Arc;
/// use hb_net::{Collector, TcpBackend};
/// use heartbeats::{Backend, HeartbeatBuilder};
///
/// let collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
/// let backend = Arc::new(TcpBackend::new(
///     collector.ingest_addr().to_string(),
///     "doc app", // names are sanitized to the wire's rules
/// ));
/// assert_eq!(backend.app(), "doc-app");
///
/// let hb = HeartbeatBuilder::new("doc-app")
///     .backend(Arc::clone(&backend) as Arc<dyn Backend>)
///     .build()
///     .unwrap();
/// hb.heartbeat();
/// hb.flush().unwrap(); // best effort: nudges the flusher thread
/// assert_eq!(hb.total_beats(), 1);
/// ```
#[derive(Debug)]
pub struct TcpBackend {
    app: String,
    shared: Arc<Shared>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl TcpBackend {
    /// Creates a backend for application `app` shipping to `addr`
    /// (`host:port`) with default tuning.
    pub fn new(addr: impl Into<String>, app: impl Into<String>) -> Self {
        Self::with_config(addr, app, TcpBackendConfig::default())
    }

    /// Creates a backend with explicit tuning.
    ///
    /// The application name is sanitized to the wire's rules (no
    /// whitespace/control/quote characters, bounded length) and
    /// `batch_max` is clamped so every batch fits one frame — otherwise a
    /// collector would reject the stream on every connect.
    pub fn with_config(
        addr: impl Into<String>,
        app: impl Into<String>,
        mut config: TcpBackendConfig,
    ) -> Self {
        let addr = addr.into();
        let app = wire::sanitize_app_name(&app.into());
        // Worst case: a 10-byte `dropped_total` varint, then maximal records.
        let frame_max = (wire::MAX_PAYLOAD - 10) / wire::MAX_COMPACT_BEAT_LEN;
        config.batch_max = config.batch_max.clamp(1, frame_max);
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(config.queue_capacity.min(1 << 16)),
                capacity: config.queue_capacity.max(1),
                target: None,
                target_dirty: false,
                stop: false,
            }),
            wake: Condvar::new(),
            dropped: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            connected: AtomicBool::new(false),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            let app = app.clone();
            std::thread::Builder::new()
                .name(format!("hb-net-flusher-{app}"))
                .spawn(move || flusher_loop(&shared, &addr, &app, &config))
                .expect("failed to spawn hb-net flusher thread")
        };
        TcpBackend {
            app,
            shared,
            flusher: Some(flusher),
        }
    }

    /// The application name announced to the collector.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Beats successfully handed to the TCP stream so far.
    pub fn sent(&self) -> u64 {
        self.shared.sent.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Beats shed under backpressure (queue overflow or dead connection).
    pub fn dropped_beats(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Whether the flusher currently holds a live connection.
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Relaxed) // ordering: monitoring read; staleness is acceptable
    }

    /// Whether the handshake completed on the live connection — the same
    /// condition as [`is_connected`](Self::is_connected) now that there is
    /// one wire version and a connection exists only once the collector
    /// acknowledged it.
    pub fn negotiated_compact(&self) -> bool {
        self.is_connected()
    }

    /// Beats currently waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.shared.inner.lock().unwrap_or_else(|e| e.into_inner()).queue.len()
    }
}

impl Backend for TcpBackend {
    fn on_beat(&self, _app: &str, record: &HeartbeatRecord, scope: BeatScope) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.queue.len() >= inner.capacity {
            // Drop-oldest: fresh telemetry is worth more than stale.
            inner.queue.pop_front();
            self.shared.dropped.fetch_add(1, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
        }
        inner.queue.push_back(WireBeat {
            record: *record,
            scope,
        });
        drop(inner);
        self.shared.wake.notify_one();
    }

    fn on_target_change(&self, _app: &str, min_bps: f64, max_bps: f64) {
        let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.target = Some((min_bps, max_bps));
        inner.target_dirty = true;
        drop(inner);
        self.shared.wake.notify_one();
    }

    fn flush(&self) -> heartbeats::Result<()> {
        // Best effort: give the flusher a moment to drain, but never block
        // the caller on a dead collector.
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let drained = {
                let inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.queue.is_empty() && !inner.target_dirty
            };
            if drained || !self.is_connected() || Instant::now() >= deadline {
                return Ok(());
            }
            self.shared.wake.notify_one();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            mirrored: self.sent(),
            dropped: self.dropped_beats(),
        }
    }
}

impl Drop for TcpBackend {
    fn drop(&mut self) {
        {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.stop = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.flusher.take() {
            let _ = handle.join();
        }
    }
}

enum Work {
    /// Drained work to ship.
    Batch {
        beats: Vec<WireBeat>,
        target: Option<(f64, f64)>,
    },
    /// Stop requested and nothing left to ship.
    Shutdown,
}

fn collect_work(shared: &Shared, config: &TcpBackendConfig) -> Work {
    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if !inner.queue.is_empty() || inner.target_dirty {
            let n = inner.queue.len().min(config.batch_max);
            let beats: Vec<WireBeat> = inner.queue.drain(..n).collect();
            let target = if inner.target_dirty {
                inner.target_dirty = false;
                inner.target
            } else {
                None
            };
            return Work::Batch { beats, target };
        }
        if inner.stop {
            return Work::Shutdown;
        }
        // Every transition out of "empty queue, no dirty target, not
        // stopping" signals `wake` (`on_beat`, `on_target_change`,
        // `flush`, drop), so an idle flusher parks indefinitely instead of
        // spinning on a timed re-check — with hundreds of mostly-idle
        // producers on one host, periodic wakeups alone were measurable
        // scheduler load.
        inner = shared.wake.wait(inner).unwrap_or_else(|e| e.into_inner());
    }
}

fn flusher_loop(shared: &Shared, addr: &str, app: &str, config: &TcpBackendConfig) {
    let mut connection: Option<FrameWriter<TcpStream>> = None;
    let mut last_attempt: Option<Instant> = None;
    let mut encoder = BatchEncoder::new();
    loop {
        let work = collect_work(shared, config);
        let (beats, target) = match work {
            Work::Batch { beats, target } => (beats, target),
            Work::Shutdown => break,
        };

        // (Re)establish the connection, rate-limited by the backoff.
        if connection.is_none() {
            let due = last_attempt
                .map(|t| t.elapsed() >= config.reconnect_backoff)
                .unwrap_or(true);
            if due {
                last_attempt = Some(Instant::now());
                connection = try_connect(addr, app, config);
                if connection.is_some() {
                    // Re-announce the goal after every (re)connect.
                    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
                    if inner.target.is_some() {
                        inner.target_dirty = true;
                    }
                }
                shared
                    .connected
                    .store(connection.is_some(), Ordering::Relaxed); // ordering: advisory flag/stat; no payload is published with it
            }
        }

        let Some(writer) = connection.as_mut() else {
            // Collector unreachable (or it refused the handshake): shed this
            // batch (counted) and let the target stay pending for the next
            // successful connect.
            shared
                .dropped
                .fetch_add(beats.len() as u64, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = target {
                inner.target = Some(t);
                inner.target_dirty = true;
            }
            if inner.stop {
                // The queue's remainder is accounted below; retrying per
                // batch could cost one handshake wait each.
                break;
            }
            // Avoid a hot spin while down: nap one backoff.
            let _ = shared
                .wake
                .wait_timeout(inner, config.reconnect_backoff)
                .unwrap_or_else(|e| e.into_inner());
            continue;
        };

        let sent_len = beats.len() as u64;
        match ship(writer, &mut encoder, &beats, target, shared) {
            Ok(()) => {
                shared.sent.fetch_add(sent_len, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
            }
            Err(_) => {
                // The batch is lost with the connection; count it and retry
                // the link on the next pass.
                shared.dropped.fetch_add(sent_len, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
                connection = None;
                shared.connected.store(false, Ordering::Relaxed); // ordering: advisory flag/stat; no payload is published with it
            }
        }
    }
    // Orderly goodbye if we still hold a link.
    if let Some(writer) = connection.as_mut() {
        let _ = writer.write_frame(&Frame::Bye);
        let _ = writer.flush();
    }
    // Anything left in the queue at shutdown is lost; account for it.
    let mut inner = shared.inner.lock().unwrap_or_else(|e| e.into_inner());
    let remaining = inner.queue.len() as u64;
    if remaining > 0 {
        inner.queue.clear();
        shared.dropped.fetch_add(remaining, Ordering::Relaxed); // ordering: relaxed counter; read only for monitoring totals
    }
    shared.connected.store(false, Ordering::Relaxed); // ordering: advisory flag/stat; no payload is published with it
}

/// Connects, sends the hello and completes the handshake. A peer that
/// accepts but fails the handshake is logged: unlike a refused connection
/// it looks alive to everything but this check.
fn try_connect(
    addr: &str,
    app: &str,
    config: &TcpBackendConfig,
) -> Option<FrameWriter<TcpStream>> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok();
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .ok();
    let mut writer = FrameWriter::new(stream);
    let handshake = writer
        .write_frame(&Frame::Hello(Hello {
            app: app.to_string(),
            pid: config.pid,
            default_window: config.default_window,
        }))
        .and_then(|()| writer.flush())
        .and_then(|()| await_hello_ack(writer.get_ref()));
    match handshake {
        Ok(()) => Some(writer),
        Err(err) => {
            crate::log!(
                Level::Warn,
                "handshake with collector {addr} failed app={app}: {err}"
            );
            None
        }
    }
}

/// Reads the collector's [`Frame::HelloAck`] off the freshly connected
/// ingest socket (the only frame a collector ever writes there), failing
/// once [`HANDSHAKE_TIMEOUT`] has passed however the bytes trickle in.
fn await_hello_ack(stream: &TcpStream) -> Result<()> {
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 64];
    let mut reader = stream;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::from(io::ErrorKind::TimedOut).into());
        }
        stream.set_read_timeout(Some(left))?;
        match reader.read(&mut buf) {
            Ok(0) => return Err(NetError::UnexpectedEof),
            Ok(n) => decoder.push(&buf[..n]),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err.into()),
        }
        match decoder.next_frame()? {
            Some(Frame::HelloAck { max_version }) if max_version >= wire::VERSION => return Ok(()),
            Some(other) => {
                return Err(NetError::Unsupported(format!(
                    "expected a version-{} hello-ack, got {other:?}",
                    wire::VERSION
                )))
            }
            None => {}
        }
    }
}

/// Ships one drained flush: an optional target frame plus the beats,
/// coalesced into a single beats frame by the streaming [`BatchEncoder`].
fn ship(
    writer: &mut FrameWriter<TcpStream>,
    encoder: &mut BatchEncoder,
    beats: &[WireBeat],
    target: Option<(f64, f64)>,
    shared: &Shared,
) -> Result<()> {
    if let Some((min_bps, max_bps)) = target {
        writer.write_frame(&Frame::Target { min_bps, max_bps })?;
    }
    if !beats.is_empty() {
        let dropped_total = shared.dropped.load(Ordering::Relaxed); // ordering: drop total piggybacks on the batch frame; cross-thread exactness is not required
        encoder.begin_compact(dropped_total);
        for beat in beats {
            if !encoder.push(beat) {
                // Backstop behind the `batch_max` clamp: seal and ship the
                // full frame, then continue in a fresh one — no beat is ever
                // silently lost to the frame bound.
                writer.write_encoded(encoder.finish())?;
                encoder.begin_compact(dropped_total);
                let pushed = encoder.push(beat);
                debug_assert!(pushed, "an empty frame must accept a record");
            }
        }
        writer.write_encoded(encoder.finish())?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heartbeats::{BeatThreadId, Tag};

    fn record(seq: u64) -> HeartbeatRecord {
        HeartbeatRecord::new(seq, seq * 1_000, Tag::NONE, BeatThreadId(0))
    }

    #[test]
    fn on_beat_never_blocks_without_a_collector() {
        // Grab a port with no listener behind it.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::with_config(
            addr.to_string(),
            "orphan",
            TcpBackendConfig {
                queue_capacity: 64,
                ..TcpBackendConfig::default()
            },
        );
        let start = Instant::now();
        for i in 0..10_000u64 {
            backend.on_beat("orphan", &record(i), BeatScope::Global);
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "10k beats into a dead collector must not stall"
        );
        assert!(backend.queue_len() <= 64);
        drop(backend);
    }

    #[test]
    fn dropped_counter_reflects_shedding() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::with_config(
            addr.to_string(),
            "shed",
            TcpBackendConfig {
                queue_capacity: 16,
                reconnect_backoff: Duration::from_millis(10),
                ..TcpBackendConfig::default()
            },
        );
        for i in 0..1_000u64 {
            backend.on_beat("shed", &record(i), BeatScope::Global);
        }
        // Queue overflow alone guarantees visible drops immediately.
        assert!(backend.dropped_beats() > 0);
        let stats = backend.stats();
        assert_eq!(stats.mirrored, 0, "nothing can have been sent");
        drop(backend);
    }

    #[test]
    fn drop_accounts_for_unsent_queue() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::new(addr.to_string(), "leftover");
        for i in 0..100u64 {
            backend.on_beat("leftover", &record(i), BeatScope::Global);
        }
        let shared = Arc::clone(&backend.shared);
        drop(backend);
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 100);
        assert!(shared.inner.lock().unwrap().queue.is_empty());
    }

    #[test]
    fn flush_returns_quickly_when_disconnected() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let backend = TcpBackend::new(addr.to_string(), "flush");
        backend.on_beat("flush", &record(0), BeatScope::Global);
        let start = Instant::now();
        backend.flush().unwrap();
        assert!(start.elapsed() < Duration::from_millis(500));
    }
}
