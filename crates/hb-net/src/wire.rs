//! The heartbeat wire protocol: a compact binary framing for shipping
//! heartbeat telemetry between processes and machines.
//!
//! ## Frame layout
//!
//! Every frame is self-delimiting (little-endian throughout):
//!
//! ```text
//! offset  size  field
//! 0       4     magic        0x48425754 ("HBWT")
//! 4       1     version      always VERSION (3)
//! 5       1     kind         frame type discriminant
//! 6       4     payload_len  bytes following the header (<= MAX_PAYLOAD)
//! 10      4     crc32        IEEE CRC-32 of the payload bytes
//! 14      n     payload
//! ```
//!
//! The magic and version let a receiver reject foreign or other-version
//! streams immediately; the length prefix makes framing O(1); the CRC
//! rejects corruption and desynchronization deterministically. Beat records
//! delta/varint-encode the monotone fields (LEB128 sequence deltas, zigzag
//! timestamp deltas, tag elided when [`Tag::NONE`], scope packed into a
//! per-record flag byte) so a steady heartbeat stream costs ~5 bytes per
//! beat, and decode without per-record allocation through the borrowing
//! [`BeatsView`] iterator.
//!
//! Every other payload is decoded by one private cursor, `Reader`, that
//! reads the fields in the order the encoder writes them: each layout is
//! stated once as that sequence of reads, a short payload fails as
//! truncated, and bytes left over after the last field reject the frame.
//!
//! ## One version
//!
//! Every frame is stamped [`VERSION`] and [`Frame::decode_header`] refuses
//! any other version byte with [`NetError::Unsupported`] — there is no
//! negotiation and no fallback encoding. The collector answers every
//! [`Frame::Hello`] with a [`Frame::HelloAck`]; a producer that does not
//! see `max_version >= VERSION` treats the connect as failed (see
//! [`TcpBackend`](crate::TcpBackend)). Kind 2, the fixed-width beat batch
//! of protocol versions 1–2, is retired and refused like any unknown kind.
//! See `docs/WIRE.md` for the byte-level specification with worked examples.
//!
//! ## Frame kinds
//!
//! Producer ⇄ collector, on the ingest port:
//!
//! * [`Frame::Hello`] — sent once per connection: application identity plus
//!   its default rate window, so the collector can size its server-side
//!   [`MovingRate`](heartbeats::MovingRate).
//! * [`Frame::HelloAck`] — the collector's answer: the handshake a producer
//!   waits for before it ships anything else.
//! * [`Frame::Beats`] — a batch of heartbeat records plus the producer-side
//!   drop counter (beats shed under backpressure), so observers can
//!   distinguish "slow app" from "slow network". Streamed without an
//!   intermediate [`BeatBatch`] by [`BatchEncoder`].
//! * [`Frame::Target`] — the application changed its declared heart-rate
//!   goal (`HB_set_target_rate`).
//! * [`Frame::Bye`] — orderly goodbye; the collector marks the app
//!   disconnected rather than waiting for staleness.
//!
//! Observer ⇄ collector, on the query port:
//!
//! * [`Frame::HistoryReq`] / [`Frame::History`] — ask for / return the
//!   collector's bounded history ring for one application
//!   ([`HistorySample`] records).
//! * [`Frame::HealthReq`] / [`Frame::Health`] — ask for / return the
//!   windowed anomaly classification ([`HealthReport`]).
//! * [`Frame::SnapshotReq`] / [`Frame::Snapshot`] — ask for / return one
//!   application's full [`AppSnapshot`].
//! * [`Frame::ListReq`] / [`Frame::List`], [`Frame::MetricsReq`] /
//!   [`Frame::Metrics`] — the registered names / the Prometheus text
//!   export, each split across as many frames as [`MAX_PAYLOAD`] requires
//!   (the last one flagged).
//! * [`Frame::StatsReq`] / [`Frame::Stats`] — the collector-wide counters
//!   ([`CollectorStats`]).
//! * [`Frame::Subscribe`] / [`Frame::SubAck`] — open a push subscription
//!   (application glob, interest mask, minimum update interval) /
//!   acknowledge it.
//! * [`Frame::Event`] — one pushed observation event (snapshot update,
//!   health transition, or raw beats), varint/delta encoded with the same
//!   machinery as beat records.
//! * [`Frame::Unsubscribe`] — cancel a subscription; acknowledged with a
//!   [`Frame::SubAck`], after which no events for it follow.

use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

use crate::collector::AppSnapshot;
use crate::crc::crc32;
use crate::error::{NetError, Result};
use crate::health::{HealthReason, HealthReport, HealthStatus, HistorySample};
use crate::query::{CollectorStats, UplinkStats};

/// Frame magic: `HBWT` interpreted as a little-endian u32.
pub const MAGIC: u32 = 0x5457_4248;

/// The protocol version: stamped on every frame, and the only one accepted.
pub const VERSION: u8 = 3;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 14;

/// Upper bound on a frame payload; anything larger is a protocol violation.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Worst-case encoded size of one beat record: flag byte + 10-byte seq
/// varint + 10-byte timestamp varint + 10-byte tag varint + 5-byte thread
/// varint. Typical records are 4–7 bytes; the bound only gates
/// [`BatchEncoder`] capacity checks.
pub const MAX_COMPACT_BEAT_LEN: usize = 1 + 10 + 10 + 10 + 5;

/// Maximum application-name length accepted in a hello frame.
pub const MAX_NAME_LEN: usize = 256;

/// Maximum federation node (origin) name length accepted in a
/// [`Frame::NodeHello`]. Node names become `node/` prefixes on every
/// re-exported application name, so they are bounded much tighter than
/// [`MAX_NAME_LEN`] to leave room for the application part.
pub const MAX_NODE_LEN: usize = 64;

/// Encoded size of one [`HistorySample`] inside a [`Frame::History`]
/// payload.
pub const SAMPLE_LEN: usize = 40;

/// Most history samples a single [`Frame::History`] can carry within
/// [`MAX_PAYLOAD`] (the fixed prefix plus a maximal name leave room for the
/// rest).
pub const MAX_HISTORY_SAMPLES: usize = (MAX_PAYLOAD - 15 - MAX_NAME_LEN) / SAMPLE_LEN;

const KIND_HELLO: u8 = 1;
// Kind 2 was the fixed-width beat batch of versions 1–2: retired, refused.
const KIND_TARGET: u8 = 3;
const KIND_BYE: u8 = 4;
const KIND_HISTORY_REQ: u8 = 5;
const KIND_HISTORY: u8 = 6;
const KIND_HEALTH_REQ: u8 = 7;
const KIND_HEALTH: u8 = 8;
const KIND_HELLO_ACK: u8 = 9;
pub(crate) const KIND_BEATS: u8 = 10;
const KIND_SUBSCRIBE: u8 = 11;
const KIND_SUB_ACK: u8 = 12;
const KIND_EVENT: u8 = 13;
const KIND_UNSUBSCRIBE: u8 = 14;
const KIND_NODE_HELLO: u8 = 15;
const KIND_RELAY_EVENT: u8 = 16;
const KIND_RELAY_ACK: u8 = 17;
const KIND_NODE_CHALLENGE: u8 = 18;
const KIND_NODE_AUTH: u8 = 19;
const KIND_SNAPSHOT_REQ: u8 = 20;
const KIND_SNAPSHOT: u8 = 21;
const KIND_LIST_REQ: u8 = 22;
const KIND_LIST: u8 = 23;
const KIND_STATS_REQ: u8 = 24;
const KIND_STATS: u8 = 25;
// The kind byte is outside the CRC, so the kinds that may be body-less (Bye,
// an unknown-app Snapshot and these three requests) are numbered at least
// two bits apart: no single flipped bit turns one valid empty frame into
// another. Hence MetricsReq after Metrics.
const KIND_METRICS: u8 = 26;
const KIND_METRICS_REQ: u8 = 27;

/// Most ancestry entries a [`Frame::NodeHello`] path vector may carry —
/// bounds the announced subtree, and therefore the federation tree depth ×
/// fan-in a single hello can describe. Far beyond any deployment this
/// codebase targets; the bound exists so a hostile hello cannot make the
/// parent buffer an unbounded name list.
pub const MAX_PATH_NODES: usize = 64;

/// Nonce and MAC length in the [`Frame::NodeChallenge`] /
/// [`Frame::NodeAuth`] handshake (the SHA-256 digest width).
pub const AUTH_LEN: usize = 32;

/// True if `kind` is the beat-batch frame kind — the frame [`BeatsView`]
/// can walk.
pub fn is_beats_kind(kind: u8) -> bool {
    kind == KIND_BEATS
}

/// True if `name` is acceptable as an application name on the wire:
/// non-empty, within [`MAX_NAME_LEN`] bytes, and free of whitespace,
/// control characters and quotes (which would corrupt the collector's
/// line-based query protocol and Prometheus labels).
pub fn valid_app_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .chars()
            .all(|c| !c.is_whitespace() && !c.is_control() && c != '"' && c != '\\')
}

/// True if `pattern` is acceptable as a subscription application pattern:
/// the same rules as [`valid_app_name`], except that `*` wildcards are also
/// allowed (each matches any — possibly empty — run of characters).
pub fn valid_subscribe_pattern(pattern: &str) -> bool {
    !pattern.is_empty()
        && pattern.len() <= MAX_NAME_LEN
        && pattern
            .chars()
            .all(|c| c == '*' || (!c.is_whitespace() && !c.is_control() && c != '"' && c != '\\'))
}

/// Matches an application name against a subscription pattern: literal
/// characters match themselves, `*` matches any (possibly empty) run.
/// Byte-wise (safe for UTF-8: `*` is ASCII and multi-byte sequences only
/// match themselves).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let p = pattern.as_bytes();
    let n = name.as_bytes();
    let (mut pi, mut ni) = (0usize, 0usize);
    // Backtracking point: the most recent `*` and the name position its
    // match currently extends to.
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ni < n.len() {
        // hb-lint: allow(index): pi < p.len() guards on this line
        if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = ni;
            pi += 1;
        // hb-lint: allow(index): pi/ni bounded by the matcher loop conditions
        } else if pi < p.len() && p[pi] == n[ni] {
            pi += 1;
            ni += 1;
        } else if star != usize::MAX {
            // Extend the last star's match by one byte and retry.
            pi = star + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    // hb-lint: allow(index): pi < p.len() guards on this line
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// True if `name` is acceptable as a federation node (origin) name:
/// everything [`valid_app_name`] demands, within [`MAX_NODE_LEN`] bytes,
/// and additionally free of `/` (the namespace separator) and `*` (the
/// subscription wildcard) — so `node/app` parses unambiguously and node
/// prefixes never alias glob patterns.
pub fn valid_node_name(name: &str) -> bool {
    valid_app_name(name) && name.len() <= MAX_NODE_LEN && !name.contains('/') && !name.contains('*')
}

/// True if some application name starting with `prefix` could match
/// `pattern` — i.e. the glob can consume all of `prefix` and still have a
/// viable (possibly empty) remainder. Used by federation to decide whether
/// a subscription at a parent must be propagated to the child behind a
/// `node/` prefix. May report `true` for patterns no concrete child name
/// ends up matching (the parent re-filters on delivery); it never reports
/// `false` for a pattern that could match.
pub fn glob_overlaps_prefix(pattern: &str, prefix: &str) -> bool {
    let p = pattern.as_bytes();
    let n = prefix.as_bytes();
    let (mut pi, mut ni) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ni < n.len() {
        // hb-lint: allow(index): pi < p.len() guards on this line
        if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = ni;
            pi += 1;
        // hb-lint: allow(index): pi/ni bounded by the matcher loop conditions
        } else if pi < p.len() && p[pi] == n[ni] {
            pi += 1;
            ni += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ni = mark;
        } else {
            return false;
        }
    }
    // The prefix is consumed. Any remaining pattern tail can always be
    // satisfied by some suffix (literals match themselves, `*` matches
    // anything), so consuming the prefix is sufficient.
    true
}

/// Rewrites an arbitrary string into a valid wire application name:
/// offending characters become `-` and the result is truncated to
/// [`MAX_NAME_LEN`] bytes (empty input becomes `"unnamed"`).
pub fn sanitize_app_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len().min(MAX_NAME_LEN));
    for c in name.chars() {
        if out.len() + c.len_utf8() > MAX_NAME_LEN {
            break;
        }
        if c.is_whitespace() || c.is_control() || c == '"' || c == '\\' {
            out.push('-');
        } else {
            out.push(c);
        }
    }
    if out.is_empty() {
        out.push_str("unnamed");
    }
    out
}

/// Connection preamble: who is producing, and how it measures itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Application name (registry key on the collector).
    pub app: String,
    /// Producer process id, for operator diagnostics.
    pub pid: u32,
    /// The window (in beats) the application registered at
    /// `HB_initialize`; the collector sizes its server-side window to match
    /// so local and remote rate estimates agree.
    pub default_window: u32,
}

/// One heartbeat record with its scope, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireBeat {
    /// The heartbeat record (sequence, timestamp, tag, thread).
    pub record: HeartbeatRecord,
    /// Global (application-wide) or local (per-thread) stream.
    pub scope: BeatScope,
}

/// A batch of beats plus the producer's cumulative drop counter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BeatBatch {
    /// Total beats the producer has shed so far under backpressure.
    pub dropped_total: u64,
    /// The records in this batch, in production order.
    pub beats: Vec<WireBeat>,
}

/// A slice of one application's collector-side history ring, as returned by
/// a [`Frame::HistoryReq`] query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryChunk {
    /// The application the history belongs to.
    pub app: String,
    /// False when the collector has never seen the application (the chunk
    /// is then empty but well-formed).
    pub known: bool,
    /// Samples ever pushed into the ring, including those already
    /// overwritten — `total - samples.len()` is the number lost to the
    /// ring's bound.
    pub total: u64,
    /// The retained samples, chronological.
    pub samples: Vec<HistorySample>,
}

/// A health classification for one application, as returned by a
/// [`Frame::HealthReq`] query.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthFrame {
    /// The application the report describes.
    pub app: String,
    /// False when the collector has never seen the application (the report
    /// is then [`HealthReport::no_signal`]).
    pub known: bool,
    /// The windowed anomaly detector's verdict.
    pub report: HealthReport,
}

/// A push-subscription request, as carried by [`Frame::Subscribe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeReq {
    /// Client-chosen subscription id, echoed in the [`Frame::SubAck`] and
    /// stamped on every [`Frame::Event`] the subscription produces. Scoped
    /// to the connection.
    pub sub_id: u32,
    /// Application pattern (`*` wildcards; see [`glob_match`]).
    pub pattern: String,
    /// Interest mask — the stable bit layout of
    /// [`heartbeats::observe::Interest`] (`1` snapshots, `2` health
    /// transitions, `4` raw beats).
    pub interests: u8,
    /// Minimum spacing between snapshot events and health re-assessments
    /// per application, in nanoseconds. Raw-beat events are not throttled
    /// (they are bounded by the subscriber queue instead).
    pub min_interval_ns: u64,
    /// First event cursor the subscriber wants (`0` = no resume: start
    /// fresh). A federation parent re-issuing a propagated subscription
    /// after a link drop sets this to one past its last-delivered cursor;
    /// the child replays what its bounded replay ring still holds and
    /// continues the cursor sequence without a gap. Encoded as a mandatory
    /// trailing varint.
    pub resume_from: u64,
}

/// Outcome of a [`Frame::Subscribe`] / [`Frame::Unsubscribe`] request, as
/// carried by [`Frame::SubAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SubStatus {
    /// The subscription was registered (or removed).
    Ok = 0,
    /// The pattern violates [`valid_subscribe_pattern`] or the interest
    /// mask has no (or unknown) bits.
    InvalidFilter = 1,
    /// The connection reached the collector's per-connection subscription
    /// bound.
    TooManySubscriptions = 2,
}

impl SubStatus {
    /// The stable wire encoding.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decodes the stable wire encoding.
    pub fn from_u8(value: u8) -> Option<SubStatus> {
        match value {
            0 => Some(SubStatus::Ok),
            1 => Some(SubStatus::InvalidFilter),
            2 => Some(SubStatus::TooManySubscriptions),
            _ => None,
        }
    }
}

/// One pushed observation event, as carried by [`Frame::Event`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventFrame {
    /// The subscription that produced the event.
    pub sub_id: u32,
    /// When the collector enqueued the event: wall-clock nanoseconds since
    /// the UNIX epoch (collector clock), or `0` when unknown. Observers
    /// subtract their own wall clock to estimate delivery lag
    /// ([`Subscription::delivery_lag`](crate::Subscription::delivery_lag)).
    pub sent_at_ns: u64,
    /// Per-subscription delivery cursor: monotone from 1 in queue order,
    /// or `0` when the emitter does not number this stream (local
    /// deliveries and plain observer connections). Federation uplinks
    /// stamp the real cursor when forwarding
    /// ([`splice_event_cursor`]), and the parent uses it to deduplicate
    /// replays and detect gaps across reconnects.
    pub cursor: u64,
    /// The application the event describes.
    pub app: String,
    /// What happened.
    pub payload: EventPayload,
}

/// The body of an [`EventFrame`]. Numeric fields are varint/delta encoded
/// with the same machinery as beat records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// A periodic application snapshot (interest bit `1`).
    Snapshot {
        /// Global beats received so far.
        total_beats: u64,
        /// Beats the producer shed before they reached the collector.
        producer_dropped: u64,
        /// The collector's windowed rate estimate, if measurable.
        rate_bps: Option<f64>,
        /// The application's declared target range, if any.
        target: Option<(f64, f64)>,
        /// False once the stream is stale by the collector's threshold.
        alive: bool,
    },
    /// The windowed health classification changed (interest bit `2`).
    HealthTransition {
        /// Classification before the transition.
        from: HealthStatus,
        /// Classification after the transition.
        to: HealthStatus,
        /// Machine-readable reasons for the new classification.
        reasons: Vec<HealthReason>,
        /// Beats inside the assessed window.
        window_beats: u32,
    },
    /// Raw beats as they arrived at the collector (interest bit `4`),
    /// compact-encoded. Batches larger than [`MAX_EVENT_BEATS`] are split
    /// across several events by the emitter.
    Beats {
        /// The producer's cumulative drop counter at this batch.
        dropped_total: u64,
        /// The records, in arrival order.
        beats: Vec<WireBeat>,
    },
}

/// Most beat records one [`EventPayload::Beats`] may carry; emitters chunk
/// larger batches so every event fits a frame with room to spare
/// (worst-case compact records are [`MAX_COMPACT_BEAT_LEN`] bytes).
pub const MAX_EVENT_BEATS: usize = 8192;

const EVENT_SNAPSHOT: u8 = 1;
const EVENT_HEALTH: u8 = 2;
const EVENT_BEATS: u8 = 3;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection preamble.
    Hello(Hello),
    /// A batch of heartbeat records, delta/varint encoded. [`BatchEncoder`]
    /// streams the byte-identical frame without materializing the batch.
    Beats(BeatBatch),
    /// A target heart-rate declaration.
    Target {
        /// Minimum desired rate in beats/s.
        min_bps: f64,
        /// Maximum desired rate in beats/s.
        max_bps: f64,
    },
    /// Orderly end of stream.
    Bye,
    /// Query: the history ring of one application (`limit == 0` = all
    /// retained samples, otherwise the most recent `limit`).
    HistoryReq {
        /// Application name.
        app: String,
        /// Most recent samples wanted; `0` means all retained.
        limit: u32,
    },
    /// Response to [`Frame::HistoryReq`].
    History(HistoryChunk),
    /// Query: the windowed health classification of one application.
    HealthReq {
        /// Application name.
        app: String,
    },
    /// Response to [`Frame::HealthReq`].
    Health(HealthFrame),
    /// Collector → producer, answering a [`Frame::Hello`]: the required
    /// handshake. A producer that sees no ack, or one advertising less than
    /// [`VERSION`], treats the connect as failed.
    HelloAck {
        /// Highest protocol version the collector accepts.
        max_version: u8,
    },
    /// Observer → collector, on the query port: open a push subscription.
    /// Answered with a [`Frame::SubAck`]; matching [`Frame::Event`]s follow
    /// on the same connection, interleaved with any query replies.
    Subscribe(SubscribeReq),
    /// Collector → observer: outcome of a [`Frame::Subscribe`] or
    /// [`Frame::Unsubscribe`].
    SubAck {
        /// The request's subscription id, echoed back.
        sub_id: u32,
        /// Whether the request was applied.
        status: SubStatus,
    },
    /// Collector → observer: one pushed observation event.
    Event(EventFrame),
    /// Observer → collector: cancel a subscription. Answered with a
    /// [`Frame::SubAck`]; no events for the subscription follow the ack.
    Unsubscribe {
        /// The subscription to cancel.
        sub_id: u32,
    },
    /// Child collector → parent, first frame on a federation uplink (in
    /// place of [`Frame::Hello`] on the ingest port): identifies the child
    /// as a relaying collector node rather than a single producer. The
    /// parent prefixes every re-exported application with `node/` and
    /// answers with a [`Frame::RelayAck`] carrying the highest link
    /// sequence it has already applied, so the child can resume without
    /// re-sending acknowledged batches.
    NodeHello {
        /// Federation node (origin) name; must satisfy [`valid_node_name`].
        node: String,
        /// The child collector's process id, for diagnostics.
        pid: u32,
        /// Every node name in the subtree the child is announcing: its own
        /// name plus the announced paths of its currently-connected
        /// children (at most [`MAX_PATH_NODES`] entries). The parent
        /// refuses the uplink if its *own* node name appears here — that
        /// is a relay cycle, and accepting it would loop beats forever.
        /// Mandatory, and `path[0]` must be `node`: an empty path would
        /// sail past that check, so the decoder rejects it.
        path: Vec<String>,
    },
    /// Parent → child, answering a [`Frame::NodeHello`] when the parent
    /// runs with a cluster secret: a fresh nonce the child must MAC before
    /// the link opens. A parent without a secret skips this and answers
    /// with [`Frame::RelayAck`] directly.
    NodeChallenge {
        /// Fresh per-handshake nonce.
        nonce: [u8; AUTH_LEN],
    },
    /// Child → parent, answering a [`Frame::NodeChallenge`]:
    /// `HMAC-SHA256(secret, nonce || node)` (see [`crate::auth`]). A valid
    /// MAC is answered with the resume [`Frame::RelayAck`]; anything else
    /// closes the connection and counts toward
    /// `hb_collector_uplink_rejected_total{reason="auth"}`.
    NodeAuth {
        /// The keyed MAC over the challenge nonce and the node name.
        mac: [u8; AUTH_LEN],
    },
    /// Child collector → parent: one rollup event, tagged with a link
    /// sequence number for exactly-once application across reconnects. The
    /// parent applies the event only if `seq` is greater than the highest
    /// it has applied for this node, and acknowledges with
    /// [`Frame::RelayAck`].
    RelayEvent {
        /// Link-scoped sequence number, monotone from 1 per node.
        seq: u64,
        /// The event, named in the child's (un-prefixed) namespace.
        event: EventFrame,
    },
    /// Parent → child: cumulative acknowledgment of [`Frame::RelayEvent`]s.
    /// Also sent in answer to a [`Frame::NodeHello`] as the resume point.
    RelayAck {
        /// Highest link sequence applied so far (`0` = none).
        last_applied: u64,
    },
    /// Query: the full snapshot of one application.
    SnapshotReq {
        /// Application name.
        app: String,
    },
    /// Response to [`Frame::SnapshotReq`]: every [`AppSnapshot`] field, so a
    /// remote reader sees exactly what an in-process one does; `None` when
    /// the collector has never seen the application.
    Snapshot(Option<AppSnapshot>),
    /// Query: the names of all registered applications.
    ListReq,
    /// Response to [`Frame::ListReq`]: sorted names. A registry too large
    /// for one payload is split across consecutive frames by the emitter;
    /// the reader concatenates until `last`.
    List {
        /// True on the final frame of the reply.
        last: bool,
        /// This frame's share of the names.
        names: Vec<String>,
    },
    /// Query: the collector-wide counters.
    StatsReq,
    /// Response to [`Frame::StatsReq`].
    Stats(CollectorStats),
    /// Query: the Prometheus text export.
    MetricsReq,
    /// Response to [`Frame::MetricsReq`]: the export text, split across
    /// consecutive frames at character boundaries by the emitter so an
    /// export over [`MAX_PAYLOAD`] is chunked, not truncated; the reader
    /// concatenates until `last`.
    Metrics {
        /// True on the final frame of the reply.
        last: bool,
        /// This frame's share of the text.
        text: String,
    },
}

/// A borrowed, validated view of one beat-batch payload, iterable without
/// materializing a `Vec<WireBeat>`.
///
/// [`parse`](BeatsView::parse) validates the *entire* payload up front —
/// record framing, varint bounds, flag bits, exact payload consumption —
/// so iteration afterwards is infallible and allocation-free.
/// This is the collector reactor's ingest path: frames decode in place in
/// the receive buffer and stream straight into the registry.
///
/// ```
/// use hb_net::wire::{BatchEncoder, BeatsView, Frame, WireBeat, HEADER_LEN};
/// use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
///
/// let mut encoder = BatchEncoder::new();
/// encoder.begin_compact(2);
/// encoder.push(&WireBeat {
///     record: HeartbeatRecord::new(7, 1_000, Tag::NONE, BeatThreadId(0)),
///     scope: BeatScope::Global,
/// });
/// let bytes = encoder.finish();
/// let (kind, payload_len, _crc) = Frame::decode_header(bytes).unwrap();
/// let view = BeatsView::parse(kind, &bytes[HEADER_LEN..HEADER_LEN + payload_len]).unwrap();
/// assert_eq!(view.dropped_total(), 2);
/// assert_eq!(view.len(), 1);
/// assert_eq!(view.iter().next().unwrap().record.seq, 7);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BeatsView<'a> {
    dropped_total: u64,
    /// The record region of the payload (prefix already consumed).
    records: &'a [u8],
    count: usize,
}

impl<'a> BeatsView<'a> {
    /// Validates a beats payload of the given frame `kind` (as returned by
    /// [`Frame::decode_header`]) and returns the view. Fails on non-beats
    /// kinds and on any malformed record, so the returned view iterates
    /// infallibly.
    pub fn parse(kind: u8, payload: &'a [u8]) -> Result<BeatsView<'a>> {
        if kind != KIND_BEATS {
            return Err(NetError::Protocol(format!(
                "frame kind {kind} is not a beat batch"
            )));
        }
        let (dropped_total, prefix) = get_varint(payload, 0)?;
        let records = &payload[prefix..]; // hb-lint: allow(index): payload.len() >= prefix checked above
                                          // Walk every record once: the count is implicit (the payload length
                                          // delimits the batch) and the walk rejects malformed varints,
                                          // unknown flags and trailing garbage.
        let mut state = DeltaState::default();
        let mut at = 0;
        let mut count = 0;
        while at < records.len() {
            let (_, next) = decode_compact_beat(records, at, &mut state)?;
            at = next;
            count += 1;
        }
        Ok(BeatsView {
            dropped_total,
            records,
            count,
        })
    }

    /// The producer's cumulative drop counter carried by the batch.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the batch carries no records (legal: it still refreshes the
    /// drop counter).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the records in place. Infallible: the payload was fully
    /// validated by [`parse`](BeatsView::parse).
    pub fn iter(&self) -> BeatsIter<'a> {
        BeatsIter {
            records: self.records,
            at: 0,
            remaining: self.count,
            state: DeltaState::default(),
        }
    }
}

impl<'a> IntoIterator for &BeatsView<'a> {
    type Item = WireBeat;
    type IntoIter = BeatsIter<'a>;

    fn into_iter(self) -> BeatsIter<'a> {
        self.iter()
    }
}

/// Borrowing record iterator over a validated [`BeatsView`] payload.
#[derive(Debug, Clone)]
pub struct BeatsIter<'a> {
    records: &'a [u8],
    at: usize,
    remaining: usize,
    state: DeltaState,
}

// hb-lint: hot-path — per-record decode; runs once per beat on every ingest.
impl Iterator for BeatsIter<'_> {
    type Item = WireBeat;

    fn next(&mut self) -> Option<WireBeat> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Validated by BeatsView::parse; a decode error here would be a
        // logic bug, surfaced by ending the iteration early (the
        // ExactSizeIterator contract is checked in tests).
        let (beat, next) = decode_compact_beat(self.records, self.at, &mut self.state).ok()?;
        self.at = next;
        Some(beat)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BeatsIter<'_> {}
// hb-lint: end-hot-path

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian u32 at `at`; `None` when out of bounds.
fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// [`get_u32`] with a truncated-header protocol error for
/// [`Frame::decode_header`], whose fixed offsets are cheaper than a
/// [`Reader`] on the per-frame path.
fn read_u32(bytes: &[u8], at: usize) -> Result<u32> {
    get_u32(bytes, at).ok_or_else(|| NetError::Protocol(format!("u32 field at {at} truncated")))
}

/// Appends `v` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation; at most 10 bytes for a u64).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes an LEB128 varint at `at`, returning the value and the offset
/// just past it. Truncated or over-long (>10 byte / overflowing) varints
/// are protocol errors.
fn get_varint(bytes: &[u8], at: usize) -> Result<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut i = at;
    loop {
        let Some(&byte) = bytes.get(i) else {
            return Err(NetError::Protocol("varint truncated".into()));
        };
        i += 1;
        let bits = (byte & 0x7F) as u64;
        if shift == 63 && bits > 1 {
            return Err(NetError::Protocol("varint overflows u64".into()));
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i));
        }
        shift += 7;
        if shift > 63 {
            return Err(NetError::Protocol("varint longer than 10 bytes".into()));
        }
    }
}

/// Zigzag-maps a signed delta onto the unsigned varint space so small
/// magnitudes of either sign stay small on the wire (`0 → 0, -1 → 1,
/// 1 → 2, -2 → 3, …`).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Per-record flag bits of the beat encoding.
const FLAG_LOCAL: u8 = 0b01;
const FLAG_TAGGED: u8 = 0b10;
const FLAG_KNOWN: u8 = FLAG_LOCAL | FLAG_TAGGED;

/// Running delta state threaded through a compact batch: sequences and
/// timestamps are encoded relative to the previous record (both start
/// at 0), with wrapping arithmetic so *any* u64 pair round-trips — a
/// monotone stream costs 1-byte seq deltas and small zigzag timestamp
/// deltas, while a backwards clock merely costs a wider varint.
#[derive(Debug, Clone, Copy, Default)]
struct DeltaState {
    prev_seq: u64,
    prev_ts: u64,
}

/// Appends one compact record and advances the delta state.
fn encode_compact_beat(buf: &mut Vec<u8>, state: &mut DeltaState, beat: &WireBeat) {
    let mut flags = 0u8;
    if beat.scope == BeatScope::Local {
        flags |= FLAG_LOCAL;
    }
    let tag = beat.record.tag.value();
    if tag != Tag::NONE.value() {
        flags |= FLAG_TAGGED;
    }
    buf.push(flags);
    put_varint(buf, beat.record.seq.wrapping_sub(state.prev_seq));
    let ts_delta = beat.record.timestamp_ns.wrapping_sub(state.prev_ts) as i64;
    put_varint(buf, zigzag(ts_delta));
    if flags & FLAG_TAGGED != 0 {
        put_varint(buf, tag);
    }
    put_varint(buf, beat.record.thread.index() as u64);
    state.prev_seq = beat.record.seq;
    state.prev_ts = beat.record.timestamp_ns;
}

/// Appends a beat-batch body — the drop counter, then the records against a
/// fresh delta state — shared by [`Frame::Beats`] and [`EventPayload::Beats`].
fn encode_beats_body(buf: &mut Vec<u8>, dropped_total: u64, beats: &[WireBeat]) {
    put_varint(buf, dropped_total);
    let mut state = DeltaState::default();
    for beat in beats {
        encode_compact_beat(buf, &mut state, beat);
    }
}

/// Decodes one compact record at `at`, advancing the delta state and
/// returning the record plus the offset just past it.
fn decode_compact_beat(
    bytes: &[u8],
    at: usize,
    state: &mut DeltaState,
) -> Result<(WireBeat, usize)> {
    let Some(&flags) = bytes.get(at) else {
        return Err(NetError::Protocol("compact record truncated".into()));
    };
    if flags & !FLAG_KNOWN != 0 {
        return Err(NetError::Protocol(format!(
            "unknown compact record flags {flags:#04x}"
        )));
    }
    let (seq_delta, at) = get_varint(bytes, at + 1)?;
    let (ts_zigzag, at) = get_varint(bytes, at)?;
    let (tag, at) = if flags & FLAG_TAGGED != 0 {
        let (tag, at) = get_varint(bytes, at)?;
        if tag == Tag::NONE.value() {
            return Err(NetError::Protocol(
                "compact record carries an explicit NONE tag".into(),
            ));
        }
        (tag, at)
    } else {
        (Tag::NONE.value(), at)
    };
    let (thread, at) = get_varint(bytes, at)?;
    if thread > u32::MAX as u64 {
        return Err(NetError::Protocol(format!(
            "compact record thread id {thread} exceeds u32"
        )));
    }
    let seq = state.prev_seq.wrapping_add(seq_delta);
    let ts = state.prev_ts.wrapping_add(unzigzag(ts_zigzag) as u64);
    state.prev_seq = seq;
    state.prev_ts = ts;
    Ok((
        WireBeat {
            record: HeartbeatRecord::new(seq, ts, Tag::new(tag), BeatThreadId(thread as u32)),
            scope: if flags & FLAG_LOCAL != 0 {
                BeatScope::Local
            } else {
                BeatScope::Global
            },
        },
        at,
    ))
}

/// Appends a length-prefixed application name (u16 length + bytes). Names
/// beyond [`MAX_NAME_LEN`] cannot decode (every caller pre-validates; the
/// header's own length prefix means even a bogus name only yields a
/// rejected frame, never a desynchronized stream).
fn put_name(buf: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= MAX_NAME_LEN, "unvalidated name on the wire");
    put_u16(buf, bytes.len() as u16);
    buf.extend_from_slice(bytes);
}

/// Encodes an optional finite f64 as its bit pattern, with NaN as the
/// `None` sentinel.
fn put_opt_f64(buf: &mut Vec<u8>, value: Option<f64>) {
    put_u64(buf, value.unwrap_or(f64::NAN).to_bits());
}

fn encode_sample(buf: &mut Vec<u8>, sample: &HistorySample) {
    put_u64(buf, sample.seq);
    put_u64(buf, sample.timestamp_ns);
    put_u64(buf, sample.tag);
    put_u64(buf, sample.interval_ns);
    put_opt_f64(buf, sample.rate_bps);
}

/// Appends a complete [`Frame::Event`] payload body to `buf`. Shared by
/// the [`KIND_EVENT`] encoder and [`Frame::RelayEvent`], which embeds the
/// same body after its link sequence number — so federation relays can
/// splice child event bytes without re-encoding.
fn encode_event_payload(buf: &mut Vec<u8>, event: &EventFrame) {
    put_varint(buf, event.sub_id as u64);
    match &event.payload {
        EventPayload::Snapshot { .. } => buf.push(EVENT_SNAPSHOT),
        EventPayload::HealthTransition { .. } => buf.push(EVENT_HEALTH),
        EventPayload::Beats { .. } => buf.push(EVENT_BEATS),
    }
    put_name(buf, &event.app);
    put_varint(buf, event.sent_at_ns);
    put_varint(buf, event.cursor);
    match &event.payload {
        EventPayload::Snapshot {
            total_beats,
            producer_dropped,
            rate_bps,
            target,
            alive,
        } => {
            put_varint(buf, *total_beats);
            put_varint(buf, *producer_dropped);
            put_opt_f64(buf, *rate_bps);
            put_opt_f64(buf, target.map(|(min, _)| min));
            put_opt_f64(buf, target.map(|(_, max)| max));
            buf.push(u8::from(*alive));
        }
        EventPayload::HealthTransition {
            from,
            to,
            reasons,
            window_beats,
        } => {
            buf.push(from.as_u8());
            buf.push(to.as_u8());
            put_u16(buf, HealthReason::pack(reasons));
            put_u32(buf, *window_beats);
        }
        EventPayload::Beats {
            dropped_total,
            beats,
        } => {
            debug_assert!(beats.len() <= MAX_EVENT_BEATS, "unchunked beats event");
            encode_beats_body(buf, *dropped_total, beats);
        }
    }
}

impl Frame {
    pub(crate) fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => KIND_HELLO,
            Frame::Beats(_) => KIND_BEATS,
            Frame::Target { .. } => KIND_TARGET,
            Frame::Bye => KIND_BYE,
            Frame::HistoryReq { .. } => KIND_HISTORY_REQ,
            Frame::History(_) => KIND_HISTORY,
            Frame::HealthReq { .. } => KIND_HEALTH_REQ,
            Frame::Health(_) => KIND_HEALTH,
            Frame::HelloAck { .. } => KIND_HELLO_ACK,
            Frame::Subscribe(_) => KIND_SUBSCRIBE,
            Frame::SubAck { .. } => KIND_SUB_ACK,
            Frame::Event(_) => KIND_EVENT,
            Frame::Unsubscribe { .. } => KIND_UNSUBSCRIBE,
            Frame::NodeHello { .. } => KIND_NODE_HELLO,
            Frame::RelayEvent { .. } => KIND_RELAY_EVENT,
            Frame::RelayAck { .. } => KIND_RELAY_ACK,
            Frame::NodeChallenge { .. } => KIND_NODE_CHALLENGE,
            Frame::NodeAuth { .. } => KIND_NODE_AUTH,
            Frame::SnapshotReq { .. } => KIND_SNAPSHOT_REQ,
            Frame::Snapshot(_) => KIND_SNAPSHOT,
            Frame::ListReq => KIND_LIST_REQ,
            Frame::List { .. } => KIND_LIST,
            Frame::StatsReq => KIND_STATS_REQ,
            Frame::Stats(_) => KIND_STATS,
            Frame::MetricsReq => KIND_METRICS_REQ,
            Frame::Metrics { .. } => KIND_METRICS,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello(hello) => {
                put_u32(buf, hello.pid);
                put_u32(buf, hello.default_window);
                put_name(buf, &hello.app);
            }
            Frame::Beats(batch) => encode_beats_body(buf, batch.dropped_total, &batch.beats),
            Frame::Target { min_bps, max_bps } => {
                put_u64(buf, min_bps.to_bits());
                put_u64(buf, max_bps.to_bits());
            }
            Frame::Bye => {}
            Frame::HistoryReq { app, limit } => {
                put_u32(buf, *limit);
                put_name(buf, app);
            }
            Frame::History(chunk) => {
                buf.push(u8::from(chunk.known));
                put_u32(buf, chunk.samples.len() as u32);
                put_u64(buf, chunk.total);
                put_name(buf, &chunk.app);
                for sample in &chunk.samples {
                    encode_sample(buf, sample);
                }
            }
            Frame::HealthReq { app } => {
                put_name(buf, app);
            }
            Frame::Health(health) => {
                let report = &health.report;
                buf.push(u8::from(health.known));
                buf.push(report.status.as_u8());
                put_u16(buf, HealthReason::pack(&report.reasons));
                put_u32(buf, report.window_beats);
                put_u32(buf, report.missing);
                put_u32(buf, report.duplicated);
                put_u32(buf, report.reordered);
                put_u64(buf, report.silent_ns);
                put_opt_f64(buf, report.window_rate_bps);
                put_opt_f64(buf, report.jitter_cv);
                put_name(buf, &health.app);
            }
            Frame::HelloAck { max_version } => {
                buf.push(*max_version);
            }
            Frame::Subscribe(req) => {
                put_u32(buf, req.sub_id);
                buf.push(req.interests);
                put_u64(buf, req.min_interval_ns);
                put_name(buf, &req.pattern);
                put_varint(buf, req.resume_from);
            }
            Frame::SubAck { sub_id, status } => {
                put_u32(buf, *sub_id);
                buf.push(status.as_u8());
            }
            Frame::Event(event) => {
                encode_event_payload(buf, event);
            }
            Frame::Unsubscribe { sub_id } => {
                put_u32(buf, *sub_id);
            }
            Frame::NodeHello { node, pid, path } => {
                put_u32(buf, *pid);
                put_name(buf, node);
                debug_assert!(path.len() <= MAX_PATH_NODES, "oversize node path");
                buf.push(path.len() as u8);
                for entry in path {
                    debug_assert!(entry.len() <= MAX_NODE_LEN, "oversize path entry");
                    buf.push(entry.len() as u8);
                    buf.extend_from_slice(entry.as_bytes());
                }
            }
            Frame::RelayEvent { seq, event } => {
                put_varint(buf, *seq);
                encode_event_payload(buf, event);
            }
            Frame::RelayAck { last_applied } => {
                put_varint(buf, *last_applied);
            }
            Frame::NodeChallenge { nonce } => {
                buf.extend_from_slice(nonce);
            }
            Frame::NodeAuth { mac } => {
                buf.extend_from_slice(mac);
            }
            Frame::SnapshotReq { app } => put_name(buf, app),
            Frame::Snapshot(None) => {} // an empty payload: never seen
            Frame::Snapshot(Some(snap)) => {
                buf.push(u8::from(snap.alive));
                put_u32(buf, snap.pid);
                put_u32(buf, snap.window);
                put_u32(buf, snap.connections);
                put_u64(buf, snap.total_beats);
                put_u64(buf, snap.local_beats);
                put_u64(buf, snap.producer_dropped);
                buf.push(u8::from(snap.last_timestamp_ns.is_some()));
                put_u64(buf, snap.last_timestamp_ns.unwrap_or(0));
                put_opt_f64(buf, snap.rate_bps);
                put_opt_f64(buf, snap.mean_interval_ns);
                put_opt_f64(buf, snap.target.map(|(min, _)| min));
                put_opt_f64(buf, snap.target.map(|(_, max)| max));
                put_name(buf, &snap.app);
            }
            Frame::ListReq | Frame::StatsReq | Frame::MetricsReq => {}
            Frame::List { last, names } => {
                buf.push(u8::from(*last));
                put_u32(buf, names.len() as u32);
                for name in names {
                    put_name(buf, name);
                }
            }
            Frame::Stats(stats) => {
                for value in [
                    stats.apps,
                    stats.connections,
                    stats.frames,
                    stats.protocol_errors,
                    stats.io_threads,
                    stats.evicted,
                    stats.queries,
                    stats.subscriptions,
                    stats.events,
                    stats.events_dropped,
                    stats.cross_shard,
                    stats.origins,
                    stats.origins_up,
                    stats.uptime_s.to_bits(),
                ] {
                    put_u64(buf, value);
                }
                buf.push(u8::from(stats.upstream.is_some()));
                if let Some(up) = &stats.upstream {
                    buf.push(u8::from(up.connected));
                    for value in [
                        up.forwarded_beats,
                        up.dropped_beats,
                        up.forwarded_events,
                        up.reconnects,
                        up.retransmits,
                    ] {
                        put_u64(buf, value);
                    }
                }
            }
            Frame::Metrics { last, text } => {
                buf.push(u8::from(*last));
                buf.extend_from_slice(text.as_bytes());
            }
        }
    }

    /// Appends the full encoded frame (header + payload) to `buf`.
    ///
    /// Reusing one buffer across calls amortizes allocation on the producer
    /// hot path; the buffer is never shrunk.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let header_at = buf.len();
        put_u32(buf, MAGIC);
        buf.push(VERSION);
        buf.push(self.kind());
        put_u32(buf, 0); // payload_len, patched below
        put_u32(buf, 0); // crc, patched below
        let payload_at = buf.len();
        self.encode_payload(buf);
        let payload_len = (buf.len() - payload_at) as u32;
        // hb-lint: allow(index): payload_at <= buf.len(): the payload was appended above
        let crc = crc32(&buf[payload_at..]);
        // hb-lint: allow(index): patches the header this function wrote at header_at
        buf[header_at + 6..header_at + 10].copy_from_slice(&payload_len.to_le_bytes());
        // hb-lint: allow(index): patches the header this function wrote at header_at
        buf[header_at + 10..header_at + 14].copy_from_slice(&crc.to_le_bytes());
    }

    /// Encodes the frame into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(&mut buf);
        buf
    }

    /// Parses and validates a frame header, returning `(kind, payload_len,
    /// crc)`. `bytes` must hold at least [`HEADER_LEN`] bytes.
    pub fn decode_header(bytes: &[u8]) -> Result<(u8, usize, u32)> {
        if bytes.len() < HEADER_LEN {
            return Err(NetError::Protocol(format!(
                "header truncated: {} of {HEADER_LEN} bytes",
                bytes.len()
            )));
        }
        let magic = read_u32(bytes, 0)?;
        if magic != MAGIC {
            return Err(NetError::Protocol(format!("bad magic {magic:#010x}")));
        }
        let version = bytes[4]; // hb-lint: allow(index): bytes.len() >= HEADER_LEN checked at entry
        if version != VERSION {
            return Err(NetError::Unsupported(format!(
                "peer speaks protocol version {version}, this end only version {VERSION}"
            )));
        }
        let kind = bytes[5]; // hb-lint: allow(index): bytes.len() >= HEADER_LEN checked at entry
        if !matches!(kind, KIND_HELLO | KIND_TARGET..=KIND_METRICS_REQ) {
            return Err(NetError::Protocol(format!("unknown frame kind {kind}")));
        }
        let payload_len = read_u32(bytes, 6)? as usize;
        if payload_len > MAX_PAYLOAD {
            return Err(NetError::Protocol(format!(
                "payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
            )));
        }
        Ok((kind, payload_len, read_u32(bytes, 10)?))
    }

    /// Decodes a payload whose CRC has already been verified (the frame
    /// layer's `split_frame` checks it once, and [`FrameDecoder`] then
    /// dispatches between this and the zero-copy [`BeatsView`] path). Each
    /// arm reads its fields in the order
    /// [`encode_payload`](Frame::encode_payload) writes them.
    ///
    /// [`FrameDecoder`]: crate::frame::FrameDecoder
    pub(crate) fn decode_payload_body(kind: u8, payload: &[u8]) -> Result<Frame> {
        let mut r = Reader::new(payload);
        let frame = match kind {
            // Returned from its own arm for the same reason Reader::event
            // is inlined: one move fewer on the push path's client decode.
            KIND_EVENT => {
                let event = r.event()?;
                r.finish(kind)?;
                return Ok(Frame::Event(event));
            }
            KIND_HELLO => {
                let w = "hello payload";
                let hello = Hello {
                    pid: r.u32(w)?,
                    default_window: r.u32(w)?,
                    app: r.name()?,
                };
                // `/` is the federation namespace separator: `node/app`
                // names are minted exclusively by a parent collector when
                // it prefixes a child's re-exports, so a producer claiming
                // one at hello could impersonate (or double-count against)
                // a federated application.
                if hello.app.contains('/') {
                    return Err(NetError::Protocol(format!(
                        "invalid application name {:?}: '/' is reserved for \
                         federation origin namespacing",
                        hello.app
                    )));
                }
                Frame::Hello(hello)
            }
            // Materialized here for `Frame::decode` and
            // `FrameDecoder::next_frame` (the reactor iterates a BeatsView
            // instead, never this Vec).
            KIND_BEATS => Frame::Beats(BeatBatch {
                dropped_total: r.varint()?,
                beats: r.beats()?,
            }),
            KIND_TARGET => Frame::Target {
                min_bps: r.f64("target payload")?,
                max_bps: r.f64("target payload")?,
            },
            KIND_BYE => Frame::Bye,
            KIND_HISTORY_REQ => Frame::HistoryReq {
                limit: r.u32("history request")?,
                app: r.name()?,
            },
            KIND_HISTORY => {
                let w = "history payload";
                let (known, count, total, app) = (r.flag(w)?, r.u32(w)?, r.u64(w)?, r.name()?);
                let samples = (0..count)
                    .map(|_| {
                        Ok(HistorySample {
                            seq: r.u64(w)?,
                            timestamp_ns: r.u64(w)?,
                            tag: r.u64(w)?,
                            interval_ns: r.u64(w)?,
                            rate_bps: r.opt_f64(w)?,
                        })
                    })
                    .collect::<Result<_>>()?;
                Frame::History(HistoryChunk {
                    app,
                    known,
                    total,
                    samples,
                })
            }
            KIND_HEALTH_REQ => Frame::HealthReq { app: r.name()? },
            KIND_HEALTH => {
                let w = "health payload";
                Frame::Health(HealthFrame {
                    known: r.flag(w)?,
                    report: HealthReport {
                        status: r.status(w)?,
                        reasons: HealthReason::unpack(r.u16(w)?),
                        window_beats: r.u32(w)?,
                        missing: r.u32(w)?,
                        duplicated: r.u32(w)?,
                        reordered: r.u32(w)?,
                        silent_ns: r.u64(w)?,
                        window_rate_bps: r.opt_f64(w)?,
                        jitter_cv: r.opt_f64(w)?,
                    },
                    app: r.name()?,
                })
            }
            KIND_HELLO_ACK => Frame::HelloAck {
                max_version: r.u8("hello-ack payload")?,
            },
            KIND_SUBSCRIBE => {
                let w = "subscribe payload";
                let sub_id = r.u32(w)?;
                let interests = r.u8(w)?;
                // One source of truth for the bit layout: the shared
                // Interest mask.
                let valid = heartbeats::observe::Interest::from_bits(interests)
                    .is_some_and(|mask| !mask.is_empty());
                if !valid {
                    return Err(NetError::Protocol(format!(
                        "invalid subscription interest mask {interests:#04x}"
                    )));
                }
                Frame::Subscribe(SubscribeReq {
                    sub_id,
                    interests,
                    min_interval_ns: r.u64(w)?,
                    pattern: r.pattern()?,
                    resume_from: r.varint()?,
                })
            }
            KIND_SUB_ACK => {
                let sub_id = r.u32("sub-ack payload")?;
                let byte = r.u8("sub-ack payload")?;
                let status = SubStatus::from_u8(byte).ok_or_else(|| {
                    NetError::Protocol(format!("invalid sub-ack status byte {byte}"))
                })?;
                Frame::SubAck { sub_id, status }
            }
            KIND_UNSUBSCRIBE => Frame::Unsubscribe {
                sub_id: r.u32("unsubscribe payload")?,
            },
            KIND_NODE_HELLO => {
                let pid = r.u32("node hello")?;
                let len = r.u16("node hello")?.into();
                let node = r.str(len, MAX_NODE_LEN, "node name", valid_node_name)?;
                // The path vector is mandatory and led by the announcing
                // node: an empty one would sail past the parent's cycle
                // check (`CollectorState::node_hello`).
                if r.remaining() == 0 {
                    return Err(NetError::Protocol(
                        "node hello carries no path vector".into(),
                    ));
                }
                let count = usize::from(r.u8("node hello")?);
                if count > MAX_PATH_NODES {
                    return Err(NetError::Protocol(format!(
                        "node path of {count} entries exceeds the {MAX_PATH_NODES}-entry limit"
                    )));
                }
                let path: Vec<String> = (0..count)
                    .map(|_| {
                        let len = r.u8("node path")?.into();
                        r.str(len, MAX_NODE_LEN, "node path entry", valid_node_name)
                    })
                    .collect::<Result<_>>()?;
                if path.first() != Some(&node) {
                    return Err(NetError::Protocol(format!(
                        "node path {path:?} does not start with the announcing node {node:?}"
                    )));
                }
                Frame::NodeHello { node, pid, path }
            }
            KIND_RELAY_EVENT => {
                let seq = r.varint()?;
                if seq == 0 {
                    return Err(NetError::Protocol(
                        "relay event sequence 0 is reserved".into(),
                    ));
                }
                Frame::RelayEvent {
                    seq,
                    event: r.event()?,
                }
            }
            KIND_RELAY_ACK => Frame::RelayAck {
                last_applied: r.varint()?,
            },
            KIND_NODE_CHALLENGE => Frame::NodeChallenge {
                nonce: r.array("node challenge")?,
            },
            KIND_NODE_AUTH => Frame::NodeAuth {
                mac: r.array("node auth")?,
            },
            KIND_SNAPSHOT_REQ => Frame::SnapshotReq { app: r.name()? },
            KIND_LIST_REQ => Frame::ListReq,
            KIND_STATS_REQ => Frame::StatsReq,
            KIND_METRICS_REQ => Frame::MetricsReq,
            // An empty payload: the application was never seen.
            KIND_SNAPSHOT if payload.is_empty() => Frame::Snapshot(None),
            KIND_SNAPSHOT => {
                let w = "snapshot payload";
                Frame::Snapshot(Some(AppSnapshot {
                    alive: r.flag(w)?,
                    pid: r.u32(w)?,
                    window: r.u32(w)?,
                    connections: r.u32(w)?,
                    total_beats: r.u64(w)?,
                    local_beats: r.u64(w)?,
                    producer_dropped: r.u64(w)?,
                    last_timestamp_ns: r.flag(w)?.then_some(r.u64(w)?),
                    rate_bps: r.opt_f64(w)?,
                    mean_interval_ns: r.opt_f64(w)?,
                    target: r.opt_range(w)?,
                    app: r.name()?,
                }))
            }
            KIND_LIST => Frame::List {
                last: r.flag("list payload")?,
                names: (0..r.u32("list payload")?)
                    .map(|_| r.name())
                    .collect::<Result<_>>()?,
            },
            KIND_STATS => {
                let w = "stats payload";
                Frame::Stats(CollectorStats {
                    apps: r.u64(w)?,
                    connections: r.u64(w)?,
                    frames: r.u64(w)?,
                    protocol_errors: r.u64(w)?,
                    io_threads: r.u64(w)?,
                    evicted: r.u64(w)?,
                    queries: r.u64(w)?,
                    subscriptions: r.u64(w)?,
                    events: r.u64(w)?,
                    events_dropped: r.u64(w)?,
                    cross_shard: r.u64(w)?,
                    origins: r.u64(w)?,
                    origins_up: r.u64(w)?,
                    uptime_s: r.f64(w)?,
                    upstream: match r.flag(w)? {
                        false => None,
                        true => Some(UplinkStats {
                            connected: r.flag(w)?,
                            forwarded_beats: r.u64(w)?,
                            dropped_beats: r.u64(w)?,
                            forwarded_events: r.u64(w)?,
                            reconnects: r.u64(w)?,
                            retransmits: r.u64(w)?,
                        }),
                    },
                })
            }
            KIND_METRICS => Frame::Metrics {
                last: r.flag("metrics payload")?,
                text: r.str(r.remaining(), MAX_PAYLOAD, "metrics text", |_| true)?,
            },
            // decode_header has refused every other kind.
            _ => return Err(NetError::Protocol(format!("unknown frame kind {kind}"))),
        };
        r.finish(kind)?;
        Ok(frame)
    }

    /// Decodes one frame from the front of `bytes`, returning the frame and
    /// the number of bytes consumed.
    ///
    /// See [`BatchEncoder`] for the allocation-free producer-side encoding
    /// of beat batches.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize)> {
        let Some((kind, payload, total)) = crate::frame::split_frame(bytes)? else {
            return Err(truncated("frame"));
        };
        Ok((Self::decode_payload_body(kind, payload)?, total))
    }
}

/// Front-to-back cursor over one payload. Every per-kind decoder reads its
/// fields through it in encode order, so a layout is stated once, as a
/// sequence of reads and never as byte offsets: a read past the end fails
/// as "`what` truncated", and bytes left over after the last field fail in
/// [`finish`](Reader::finish).
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

/// The error for a field that runs past the end of its payload.
#[cold]
fn truncated(what: &str) -> NetError {
    NetError::Protocol(format!("{what} truncated"))
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not read yet.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Fails unless every byte of the payload has been read.
    fn finish(&self, kind: u8) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(NetError::Protocol(format!(
                "kind {kind} payload has {extra} trailing bytes"
            ))),
        }
    }

    #[inline]
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.at.saturating_add(len);
        let bytes = self
            .bytes
            .get(self.at..end)
            .ok_or_else(|| truncated(what))?;
        self.at = end;
        Ok(bytes)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let bytes = self.bytes.get(self.at..).and_then(<[u8]>::first_chunk);
        let &bytes = bytes.ok_or_else(|| truncated(what))?;
        self.at += N;
        Ok(bytes)
    }

    #[inline]
    fn u8(&mut self, what: &str) -> Result<u8> {
        self.array(what).map(u8::from_le_bytes)
    }

    #[inline]
    fn u16(&mut self, what: &str) -> Result<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    #[inline]
    fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    #[inline]
    fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A boolean byte: any non-zero value is `true`.
    #[inline]
    fn flag(&mut self, what: &str) -> Result<bool> {
        Ok(self.u8(what)? != 0)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64> {
        let (value, at) = get_varint(self.bytes, self.at)?;
        self.at = at;
        Ok(value)
    }

    /// The optional-f64 convention ([`put_opt_f64`]): NaN means `None`;
    /// any other non-finite value is a protocol violation.
    #[inline]
    fn opt_f64(&mut self, what: &str) -> Result<Option<f64>> {
        let value = f64::from_bits(self.u64(what)?);
        if value.is_nan() {
            Ok(None)
        } else if value.is_finite() {
            Ok(Some(value))
        } else {
            Err(NetError::Protocol(format!("non-finite value in {what}")))
        }
    }

    /// A finite f64.
    fn f64(&mut self, what: &str) -> Result<f64> {
        self.opt_f64(what)?
            .ok_or_else(|| NetError::Protocol(format!("non-finite value in {what}")))
    }

    /// An optional `(min, max)` target range: both halves or neither.
    fn opt_range(&mut self, what: &str) -> Result<Option<(f64, f64)>> {
        match (self.opt_f64(what)?, self.opt_f64(what)?) {
            (Some(min), Some(max)) => Ok(Some((min, max))),
            (None, None) => Ok(None),
            _ => Err(NetError::Protocol(format!("half a target range in {what}"))),
        }
    }

    /// A `len`-byte UTF-8 string of at most `max` bytes that `valid`
    /// accepts.
    #[inline]
    fn str(
        &mut self,
        len: usize,
        max: usize,
        what: &str,
        valid: impl Fn(&str) -> bool,
    ) -> Result<String> {
        if len > max {
            return Err(NetError::Protocol(format!(
                "{what} of {len} bytes exceeds the {max}-byte limit"
            )));
        }
        let text = std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| NetError::Protocol(format!("{what} is not UTF-8")))?;
        if !valid(text) {
            return Err(NetError::Protocol(format!("invalid {what} {text:?}")));
        }
        Ok(text.to_string())
    }

    /// A [`put_name`] application name.
    #[inline]
    fn name(&mut self) -> Result<String> {
        let len = self.u16("application name")?.into();
        self.str(len, MAX_NAME_LEN, "application name", valid_app_name)
    }

    /// A subscription pattern: the [`put_name`] layout, checked by
    /// [`valid_subscribe_pattern`].
    fn pattern(&mut self) -> Result<String> {
        let len = self.u16("subscription pattern")?.into();
        self.str(
            len,
            MAX_NAME_LEN,
            "subscription pattern",
            valid_subscribe_pattern,
        )
    }

    fn status(&mut self, what: &str) -> Result<HealthStatus> {
        let byte = self.u8(what)?;
        HealthStatus::from_u8(byte)
            .ok_or_else(|| NetError::Protocol(format!("invalid health status byte {byte}")))
    }

    /// Compact beat records against a fresh delta state, up to the end of
    /// the payload (the count is implicit in the payload length).
    #[inline]
    fn beats(&mut self) -> Result<Vec<WireBeat>> {
        let mut beats = Vec::new();
        let mut state = DeltaState::default();
        while self.remaining() > 0 {
            let (beat, next) = decode_compact_beat(self.bytes, self.at, &mut state)?;
            beats.push(beat);
            self.at = next;
        }
        Ok(beats)
    }

    /// An [`encode_event_payload`] body: the whole of a [`Frame::Event`]
    /// payload, and the tail of a [`Frame::RelayEvent`] one.
    // Always inlined: the event is then built in its caller's frame
    // instead of being moved out through a returned `Result`, a move that
    // measurably slows the per-event decode (`wire.event_decode_ns`).
    #[inline(always)]
    fn event(&mut self) -> Result<EventFrame> {
        let w = "event";
        let sub_id = self.varint()?;
        let sub_id = u32::try_from(sub_id).map_err(|_| {
            NetError::Protocol(format!("event subscription id {sub_id} exceeds u32"))
        })?;
        let event_kind = self.u8(w)?;
        let app = self.name()?;
        let sent_at_ns = self.varint()?;
        let cursor = self.varint()?;
        let payload = match event_kind {
            EVENT_SNAPSHOT => EventPayload::Snapshot {
                total_beats: self.varint()?,
                producer_dropped: self.varint()?,
                rate_bps: self.opt_f64(w)?,
                target: self.opt_range(w)?,
                alive: match self.u8(w)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(NetError::Protocol(format!(
                            "invalid snapshot event alive byte {other}"
                        )))
                    }
                },
            },
            EVENT_HEALTH => EventPayload::HealthTransition {
                from: self.status(w)?,
                to: self.status(w)?,
                reasons: HealthReason::unpack(self.u16(w)?),
                window_beats: self.u32(w)?,
            },
            EVENT_BEATS => EventPayload::Beats {
                dropped_total: self.varint()?,
                beats: self.beats()?,
            },
            other => return Err(NetError::Protocol(format!("unknown event kind {other}"))),
        };
        Ok(EventFrame {
            sub_id,
            sent_at_ns,
            cursor,
            app,
            payload,
        })
    }
}

/// Rewrites the delivery-cursor varint inside an already-encoded
/// [`Frame::Event`] that occupies `buf[frame_at..]`, re-patching the
/// header's payload length and CRC. Subscription events are encoded once
/// and fanned out as shared bytes with `cursor == 0`; the federation
/// uplink copies those bytes into its outbox and stamps each
/// subscription's real monotone cursor here — a splice on the freshly
/// appended tail instead of a full re-encode.
pub fn splice_event_cursor(buf: &mut Vec<u8>, frame_at: usize, cursor: u64) -> Result<()> {
    let (kind, payload_len, _crc) = Frame::decode_header(&buf[frame_at..])?; // hb-lint: allow(index): decode_header re-validates the slice it is given
    if kind != KIND_EVENT {
        return Err(NetError::Protocol(
            "cursor splice on a non-event frame".into(),
        ));
    }
    let payload_at = frame_at + HEADER_LEN;
    let payload_end = payload_at + payload_len;
    if buf.len() < payload_end {
        return Err(NetError::Protocol(
            "cursor splice on a truncated frame".into(),
        ));
    }
    // Walk to the cursor field: sub_id varint, event-kind byte, name,
    // sent_at varint — the prefix Reader::event consumes, here unchecked.
    let mut r = Reader::new(&buf[payload_at..payload_end]); // hb-lint: allow(index): payload_end <= buf.len() checked just above
    r.varint()?;
    r.u8("event")?;
    let name_len = r.u16("event")?.into();
    r.take(name_len, "event")?;
    r.varint()?;
    let at = r.at;
    r.varint()?;
    let after = r.at;
    let mut scratch = Vec::with_capacity(10);
    put_varint(&mut scratch, cursor);
    buf.splice(payload_at + at..payload_at + after, scratch.iter().copied());
    let new_len = payload_len - (after - at) + scratch.len();
    let crc = crc32(&buf[payload_at..payload_at + new_len]); // hb-lint: allow(index): splice_at stays inside the validated payload
    buf[frame_at + 6..frame_at + 10].copy_from_slice(&(new_len as u32).to_le_bytes()); // hb-lint: allow(index): patches the header at frame_at validated by decode_header
    buf[frame_at + 10..frame_at + 14].copy_from_slice(&crc.to_le_bytes()); // hb-lint: allow(index): patches the header at frame_at validated by decode_header
    Ok(())
}

/// Streaming encoder for one [`Frame::Beats`] batch.
///
/// The flusher in [`TcpBackend`](crate::TcpBackend) drains its queue once
/// per flush; materializing a [`BeatBatch`] (a `Vec<WireBeat>`) just to
/// encode it would copy every record twice. `BatchEncoder` instead appends
/// beats straight into the frame's wire encoding and patches the header
/// (payload length, CRC) when the batch is sealed — one frame per flush,
/// zero intermediate structures. The internal buffer is reused across
/// batches, so steady-state flushing does not allocate.
///
/// ```
/// use hb_net::wire::{BatchEncoder, Frame, WireBeat};
/// use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};
///
/// let mut encoder = BatchEncoder::new();
/// encoder.begin_compact(3); // 3 beats shed so far
/// encoder.push(&WireBeat {
///     record: HeartbeatRecord::new(0, 1_000, Tag::NONE, BeatThreadId(0)),
///     scope: BeatScope::Global,
/// });
/// let bytes = encoder.finish();
/// let (frame, used) = Frame::decode(bytes).unwrap();
/// assert_eq!(used, bytes.len());
/// assert!(matches!(frame, Frame::Beats(batch) if batch.beats.len() == 1));
/// ```
#[derive(Debug, Default)]
pub struct BatchEncoder {
    buf: Vec<u8>,
    count: u32,
    open: bool,
    state: DeltaState,
}

impl BatchEncoder {
    /// Creates an encoder with an empty reusable buffer.
    pub fn new() -> Self {
        BatchEncoder::default()
    }

    /// Starts a new batch carrying the producer's cumulative drop counter.
    /// Any previous unfinished batch is discarded.
    pub fn begin_compact(&mut self, dropped_total: u64) {
        self.buf.clear();
        self.count = 0;
        self.open = true;
        self.state = DeltaState::default();
        put_u32(&mut self.buf, MAGIC);
        self.buf.push(VERSION);
        self.buf.push(KIND_BEATS);
        put_u32(&mut self.buf, 0); // payload_len, patched by finish()
        put_u32(&mut self.buf, 0); // crc, patched by finish()
        put_varint(&mut self.buf, dropped_total);
    }

    /// Appends one beat. Returns `false` (leaving the batch unchanged) once
    /// another worst-case record could overflow the [`MAX_PAYLOAD`] byte
    /// budget; seal the frame with [`finish`](Self::finish) and begin a new
    /// one.
    pub fn push(&mut self, beat: &WireBeat) -> bool {
        debug_assert!(self.open, "push called before begin_compact");
        if self.buf.len() + MAX_COMPACT_BEAT_LEN > HEADER_LEN + MAX_PAYLOAD {
            return false;
        }
        encode_compact_beat(&mut self.buf, &mut self.state, beat);
        self.count += 1;
        true
    }

    /// Beats appended to the current batch so far.
    pub fn beats(&self) -> usize {
        self.count as usize
    }

    /// True if no beats have been appended since `begin_compact`.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Seals the batch — patches the payload length and CRC (the record
    /// count is implicit in the payload length) — and returns the complete
    /// encoded frame.
    pub fn finish(&mut self) -> &[u8] {
        debug_assert!(self.open, "finish called before begin_compact");
        self.open = false;
        let payload_len = (self.buf.len() - HEADER_LEN) as u32;
        let crc = crc32(&self.buf[HEADER_LEN..]); // hb-lint: allow(index): finish() patches the header begin_compact() wrote into self.buf
        self.buf[6..10].copy_from_slice(&payload_len.to_le_bytes()); // hb-lint: allow(index): finish() patches the header begin_compact() wrote into self.buf
        self.buf[10..14].copy_from_slice(&crc.to_le_bytes()); // hb-lint: allow(index): finish() patches the header begin_compact() wrote into self.buf
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(seq: u64, scope: BeatScope) -> WireBeat {
        WireBeat {
            record: HeartbeatRecord::new(
                seq,
                seq.wrapping_mul(1_000).wrapping_add(7),
                Tag::new(seq.wrapping_mul(3)),
                BeatThreadId(2),
            ),
            scope,
        }
    }

    #[test]
    fn hello_roundtrip() {
        let frame = Frame::Hello(Hello {
            app: "x264".into(),
            pid: 1234,
            default_window: 20,
        });
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn beats_roundtrip_preserves_records_and_scopes() {
        let frame = Frame::Beats(BeatBatch {
            dropped_total: 99,
            beats: vec![
                beat(0, BeatScope::Global),
                beat(1, BeatScope::Local),
                beat(u64::MAX / 2, BeatScope::Global),
            ],
        });
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let frame = Frame::Beats(BeatBatch::default());
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn target_and_bye_roundtrip() {
        for frame in [
            Frame::Target {
                min_bps: 29.97,
                max_bps: 35.5,
            },
            Frame::Bye,
        ] {
            let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn multiple_frames_in_one_buffer() {
        let mut buf = Vec::new();
        Frame::Bye.encode_into(&mut buf);
        Frame::Target {
            min_bps: 1.0,
            max_bps: 2.0,
        }
        .encode_into(&mut buf);
        let (first, used) = Frame::decode(&buf).unwrap();
        assert_eq!(first, Frame::Bye);
        let (second, used2) = Frame::decode(&buf[used..]).unwrap();
        assert!(matches!(second, Frame::Target { .. }));
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Frame::Bye.encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::Protocol(msg)) if msg.contains("magic")
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        // Older, newer and nonsense versions alike: the typed refusal, for
        // every kind (a version-1 Hello and a version-2 query included).
        for frame in [
            Frame::Bye,
            Frame::Hello(Hello {
                app: "legacy".into(),
                pid: 1,
                default_window: 20,
            }),
            Frame::HealthReq { app: "app".into() },
        ] {
            for version in [0, 1, 2, VERSION + 1, u8::MAX] {
                let mut bytes = frame.encode();
                assert_eq!(bytes[4], VERSION, "{frame:?}");
                bytes[4] = version;
                assert!(
                    matches!(Frame::decode(&bytes), Err(NetError::Unsupported(_))),
                    "{frame:?} claiming version {version}"
                );
            }
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        // 2 is the retired fixed-width beat batch; 0 and 28 bracket the range.
        for kind in [0, 2, KIND_METRICS_REQ + 1, 200] {
            let mut bytes = Frame::Bye.encode();
            bytes[5] = kind;
            assert!(matches!(
                Frame::decode(&bytes),
                Err(NetError::Protocol(msg)) if msg.contains("kind")
            ));
        }
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let frame = Frame::Hello(Hello {
            app: "bodytrack".into(),
            pid: 1,
            default_window: 10,
        });
        let mut bytes = frame.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::Protocol(msg)) if msg.contains("CRC")
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_reading() {
        let mut bytes = Frame::Bye.encode();
        bytes[6..10].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::Protocol(msg)) if msg.contains("limit")
        ));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let bytes = Frame::Hello(Hello {
            app: "ferret".into(),
            pid: 2,
            default_window: 30,
        })
        .encode();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn non_finite_target_is_rejected() {
        let mut bytes = Frame::Target {
            min_bps: 1.0,
            max_bps: 2.0,
        }
        .encode();
        bytes[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let crc = crate::crc::crc32(&bytes[HEADER_LEN..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn whitespace_and_quote_names_are_rejected_on_decode() {
        for bad in [
            "two words",
            "line\nbreak",
            "tab\there",
            "quo\"te",
            "back\\slash",
        ] {
            let bytes = Frame::Hello(Hello {
                app: bad.into(),
                pid: 1,
                default_window: 20,
            })
            .encode();
            assert!(
                matches!(Frame::decode(&bytes), Err(NetError::Protocol(_))),
                "name {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn sanitize_app_name_produces_valid_names() {
        assert_eq!(sanitize_app_name("my app"), "my-app");
        assert_eq!(sanitize_app_name("ok-name"), "ok-name");
        assert_eq!(sanitize_app_name(""), "unnamed");
        let long = "x".repeat(MAX_NAME_LEN * 2);
        assert_eq!(sanitize_app_name(&long).len(), MAX_NAME_LEN);
        for weird in ["a\nb", "c\"d", "e\\f", "  ", "\u{7}bell"] {
            assert!(
                valid_app_name(&sanitize_app_name(weird)),
                "sanitized {weird:?} must be valid"
            );
        }
    }

    #[test]
    fn batch_encoder_matches_frame_encoding() {
        let beats: Vec<WireBeat> = (0..100)
            .map(|i| {
                beat(
                    i,
                    if i % 3 == 0 {
                        BeatScope::Local
                    } else {
                        BeatScope::Global
                    },
                )
            })
            .collect();
        let via_frame = Frame::Beats(BeatBatch {
            dropped_total: 7,
            beats: beats.clone(),
        })
        .encode();
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(7);
        for b in &beats {
            assert!(encoder.push(b));
        }
        assert_eq!(encoder.beats(), 100);
        assert_eq!(
            encoder.finish(),
            via_frame.as_slice(),
            "byte-identical encodings"
        );
    }

    #[test]
    fn batch_encoder_is_reusable_across_batches() {
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(0);
        encoder.push(&beat(1, BeatScope::Global));
        let first = encoder.finish().to_vec();

        encoder.begin_compact(5);
        encoder.push(&beat(2, BeatScope::Global));
        encoder.push(&beat(3, BeatScope::Local));
        let (frame, _) = Frame::decode(encoder.finish()).unwrap();
        match frame {
            Frame::Beats(batch) => {
                assert_eq!(batch.dropped_total, 5);
                assert_eq!(batch.beats.len(), 2);
                assert_eq!(batch.beats[1].scope, BeatScope::Local);
            }
            other => panic!("expected beats frame, got {other:?}"),
        }
        // The earlier batch was independent and valid too.
        assert!(matches!(Frame::decode(&first), Ok((Frame::Beats(_), _))));
    }

    #[test]
    fn batch_encoder_empty_batch_is_valid() {
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(42);
        assert!(encoder.is_empty());
        let (frame, _) = Frame::decode(encoder.finish()).unwrap();
        assert_eq!(
            frame,
            Frame::Beats(BeatBatch {
                dropped_total: 42,
                beats: vec![],
            })
        );
    }

    #[test]
    fn batch_encoder_refuses_overflow() {
        // Typical 4-byte records: the byte budget, not a record count, is
        // what fills the frame.
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(0);
        let sample = beat(0, BeatScope::Global);
        while encoder.push(&sample) {}
        assert!(
            !encoder.push(&sample),
            "frame at capacity rejects more beats"
        );
        let beats = encoder.beats();
        assert!(beats > MAX_PAYLOAD / MAX_COMPACT_BEAT_LEN, "{beats} beats");
        // Still decodable at the payload ceiling.
        let bytes = encoder.finish();
        assert!(bytes.len() - HEADER_LEN <= MAX_PAYLOAD);
        assert!(matches!(Frame::decode(bytes), Ok((Frame::Beats(b), _)) if b.beats.len() == beats));
    }

    #[test]
    fn history_and_health_frames_roundtrip() {
        use crate::health::{HealthReason, HealthReport, HealthStatus, HistorySample};
        let frames = [
            Frame::HistoryReq {
                app: "x264".into(),
                limit: 128,
            },
            Frame::History(HistoryChunk {
                app: "x264".into(),
                known: true,
                total: 5_000,
                samples: vec![
                    HistorySample {
                        seq: 1,
                        timestamp_ns: 1_000,
                        tag: 7,
                        interval_ns: 0,
                        rate_bps: None,
                    },
                    HistorySample {
                        seq: 2,
                        timestamp_ns: 2_000,
                        tag: 8,
                        interval_ns: 1_000,
                        rate_bps: Some(29.97),
                    },
                ],
            }),
            Frame::History(HistoryChunk {
                app: "ghost".into(),
                known: false,
                total: 0,
                samples: vec![],
            }),
            Frame::HealthReq {
                app: "dedup".into(),
            },
            Frame::Health(HealthFrame {
                app: "dedup".into(),
                known: true,
                report: HealthReport {
                    status: HealthStatus::Degraded,
                    reasons: vec![HealthReason::RateBelowTarget, HealthReason::JitterSpike],
                    window_beats: 42,
                    window_rate_bps: Some(12.5),
                    jitter_cv: Some(1.75),
                    missing: 3,
                    duplicated: 0,
                    reordered: 1,
                    silent_ns: 250_000_000,
                },
            }),
            Frame::Health(HealthFrame {
                app: "ghost".into(),
                known: false,
                report: HealthReport::no_signal(),
            }),
        ];
        for frame in frames {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn infinite_rate_in_sample_is_rejected() {
        let frame = Frame::History(HistoryChunk {
            app: "x".into(),
            known: true,
            total: 1,
            samples: vec![HistorySample {
                seq: 0,
                timestamp_ns: 0,
                tag: 0,
                interval_ns: 0,
                rate_bps: Some(1.0),
            }],
        });
        let mut bytes = frame.encode();
        // The rate is the final 8 bytes of the only sample.
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        let crc = crate::crc::crc32(&bytes[HEADER_LEN..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::Protocol(msg)) if msg.contains("non-finite")
        ));
    }

    #[test]
    fn invalid_health_status_byte_is_rejected() {
        let frame = Frame::Health(HealthFrame {
            app: "x".into(),
            known: true,
            report: HealthReport::no_signal(),
        });
        let mut bytes = frame.encode();
        bytes[HEADER_LEN + 1] = 200; // status byte
        let crc = crate::crc::crc32(&bytes[HEADER_LEN..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::Protocol(msg)) if msg.contains("status")
        ));
    }

    #[test]
    fn history_count_mismatch_is_rejected() {
        let frame = Frame::History(HistoryChunk {
            app: "x".into(),
            known: true,
            total: 1,
            samples: vec![],
        });
        let mut bytes = frame.encode();
        // Claim one sample while carrying none.
        bytes[HEADER_LEN + 1..HEADER_LEN + 5].copy_from_slice(&1u32.to_le_bytes());
        let crc = crate::crc::crc32(&bytes[HEADER_LEN..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(Frame::decode(&bytes).is_err());
    }

    #[test]
    fn max_history_samples_fit_one_frame() {
        let chunk = HistoryChunk {
            app: "n".repeat(MAX_NAME_LEN),
            known: true,
            total: u64::MAX,
            samples: vec![
                HistorySample {
                    seq: 0,
                    timestamp_ns: 0,
                    tag: 0,
                    interval_ns: 0,
                    rate_bps: None,
                };
                MAX_HISTORY_SAMPLES
            ],
        };
        let bytes = Frame::History(chunk).encode();
        assert!(bytes.len() - HEADER_LEN <= MAX_PAYLOAD);
        assert!(Frame::decode(&bytes).is_ok());
    }

    /// Pins the worked hex examples in `docs/WIRE.md` byte for byte, so the
    /// documentation cannot rot silently.
    #[test]
    fn worked_examples_match_wire_md() {
        fn hex(bytes: &[u8]) -> String {
            bytes
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
        assert_eq!(
            hex(&Frame::Bye.encode()),
            "48 42 57 54 03 04 00 00 00 00 00 00 00 00"
        );
        assert_eq!(
            hex(&Frame::Hello(Hello {
                app: "cam".into(),
                pid: 7,
                default_window: 20,
            })
            .encode()),
            "48 42 57 54 03 01 0d 00 00 00 0d 1b ff c1 \
             07 00 00 00 14 00 00 00 03 00 63 61 6d"
        );
        assert_eq!(
            hex(&Frame::HealthReq { app: "cam".into() }.encode()),
            "48 42 57 54 03 07 05 00 00 00 b7 bf f6 84 03 00 63 61 6d"
        );
        assert_eq!(
            hex(&Frame::HistoryReq {
                app: "cam".into(),
                limit: 2,
            }
            .encode()),
            "48 42 57 54 03 05 09 00 00 00 82 74 2b 8a \
             02 00 00 00 03 00 63 61 6d"
        );
    }

    #[test]
    fn encode_into_reuses_buffer_without_clearing() {
        let mut buf = vec![0xAB];
        Frame::Bye.encode_into(&mut buf);
        assert_eq!(buf[0], 0xAB);
        let (frame, used) = Frame::decode(&buf[1..]).unwrap();
        assert_eq!(frame, Frame::Bye);
        assert_eq!(used, buf.len() - 1);
    }

    // ------------------------------------------------------------------
    // Beat-batch framing
    // ------------------------------------------------------------------

    /// Encodes `batch` through the streaming [`BatchEncoder`].
    fn encode_compact(batch: &BeatBatch) -> Vec<u8> {
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(batch.dropped_total);
        for beat in &batch.beats {
            assert!(encoder.push(beat), "batch must fit one frame");
        }
        encoder.finish().to_vec()
    }

    /// Wraps a raw beats payload in a valid frame (header + CRC), for
    /// malformed-payload tests that must get past the checksum.
    fn compact_frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAGIC);
        bytes.push(VERSION);
        bytes.push(KIND_BEATS);
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crate::crc::crc32(payload));
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let (decoded, used) = get_varint(&buf, 0).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
        // Truncated and over-long varints are rejected.
        assert!(get_varint(&[0x80], 0).is_err());
        assert!(get_varint(&[0x80; 11], 0).is_err());
        // A 10th byte carrying more than the top bit overflows u64.
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        assert!(get_varint(&overflow, 0).is_err());
    }

    #[test]
    fn zigzag_roundtrips() {
        for v in [
            0i64,
            1,
            -1,
            2,
            -2,
            i64::MAX,
            i64::MIN,
            1_000_000,
            -1_000_000,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn hello_ack_roundtrip() {
        let frame = Frame::HelloAck {
            max_version: VERSION,
        };
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
        // Oversized payloads are rejected.
        let mut bad = Frame::HelloAck { max_version: 3 }.encode();
        bad[6..10].copy_from_slice(&2u32.to_le_bytes());
        bad.push(0);
        assert!(Frame::decode(&bad).is_err());
    }

    #[test]
    fn compact_batch_roundtrips_exactly() {
        let batch = BeatBatch {
            dropped_total: 12345,
            beats: vec![
                beat(0, BeatScope::Global),
                beat(1, BeatScope::Local),
                beat(2, BeatScope::Global),
                WireBeat {
                    record: HeartbeatRecord::new(100, 50, Tag::NONE, BeatThreadId(9)),
                    scope: BeatScope::Global,
                },
            ],
        };
        let bytes = encode_compact(&batch);
        assert_eq!((bytes[4], bytes[5]), (VERSION, KIND_BEATS));
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, Frame::Beats(batch));
    }

    #[test]
    fn compact_survives_backwards_clocks_and_max_jumps() {
        // Non-monotone timestamps, maximal seq/tag jumps, huge thread ids:
        // every u64 pair round-trips through the wrapping delta arithmetic.
        let batch = BeatBatch {
            dropped_total: u64::MAX,
            beats: vec![
                WireBeat {
                    record: HeartbeatRecord::new(
                        u64::MAX,
                        u64::MAX,
                        Tag::new(u64::MAX),
                        BeatThreadId(u32::MAX),
                    ),
                    scope: BeatScope::Local,
                },
                WireBeat {
                    record: HeartbeatRecord::new(0, 0, Tag::NONE, BeatThreadId(0)),
                    scope: BeatScope::Global,
                },
                WireBeat {
                    record: HeartbeatRecord::new(5, 2, Tag::new(1), BeatThreadId(1)),
                    scope: BeatScope::Global,
                },
                WireBeat {
                    // Clock went backwards between beats.
                    record: HeartbeatRecord::new(6, 1, Tag::NONE, BeatThreadId(1)),
                    scope: BeatScope::Global,
                },
            ],
        };
        let bytes = encode_compact(&batch);
        let (decoded, _) = Frame::decode(&bytes).unwrap();
        assert_eq!(decoded, Frame::Beats(batch));
    }

    /// The acceptance pin: a realistic 64-beat batch — sequence deltas of
    /// 1, ~1 ms timestamp jitter, untagged, single-threaded — must encode
    /// to at most 40% of what the retired fixed-width encoding (a 12-byte
    /// prefix plus 29 bytes per record) took. (In practice it lands near
    /// 20%.)
    #[test]
    fn compact_batch_is_at_most_40_percent_of_v2() {
        let mut ts = 1_700_000_000_000_000_000u64; // a realistic epoch-ns clock
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let beats: Vec<WireBeat> = (0..64u64)
            .map(|i| {
                // 1 ms nominal period, ±128 µs deterministic jitter.
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ts += 1_000_000 - 128_000 + (lcg >> 40) % 256_000;
                WireBeat {
                    record: HeartbeatRecord::new(i, ts, Tag::NONE, BeatThreadId(0)),
                    scope: BeatScope::Global,
                }
            })
            .collect();
        let batch = BeatBatch {
            dropped_total: 0,
            beats,
        };
        let v2_len = HEADER_LEN + 12 + 64 * 29;
        let v3 = encode_compact(&batch);
        assert!(
            v3.len() * 100 <= v2_len * 40,
            "batch is {} bytes, fixed-width was {v2_len} — must be <= 40%",
            v3.len(),
        );
        // And it still decodes to the identical batch.
        let (decoded, _) = Frame::decode(&v3).unwrap();
        assert_eq!(decoded, Frame::Beats(batch));
    }

    #[test]
    fn beats_view_matches_materialized_decode() {
        let batch = BeatBatch {
            dropped_total: 3,
            beats: (0..50)
                .map(|i| {
                    beat(
                        i,
                        if i % 2 == 0 {
                            BeatScope::Global
                        } else {
                            BeatScope::Local
                        },
                    )
                })
                .collect(),
        };
        let bytes = encode_compact(&batch);
        let (kind, payload_len, _) = Frame::decode_header(&bytes).unwrap();
        let view = BeatsView::parse(kind, &bytes[HEADER_LEN..HEADER_LEN + payload_len]).unwrap();
        assert_eq!(view.dropped_total(), 3);
        assert_eq!(view.len(), 50);
        let iter = view.iter();
        assert_eq!(iter.len(), 50, "ExactSizeIterator agrees with the view");
        let collected: Vec<WireBeat> = iter.collect();
        assert_eq!(
            collected, batch.beats,
            "view iteration == materialized decode"
        );
    }

    #[test]
    fn beats_view_rejects_non_beats_kinds() {
        assert!(BeatsView::parse(KIND_HELLO, &[]).is_err());
        assert!(BeatsView::parse(KIND_HEALTH, &[]).is_err());
    }

    #[test]
    fn malformed_compact_payloads_are_rejected() {
        // Unknown flag bit set on the only record.
        let bad_flags = compact_frame(&[0x00, 0x04, 0x01, 0x00, 0x00]);
        assert!(matches!(
            Frame::decode(&bad_flags),
            Err(NetError::Protocol(msg)) if msg.contains("flags")
        ));
        // Record cut off mid-varint (timestamp continuation never ends).
        let truncated = compact_frame(&[0x00, 0x00, 0x01, 0x80]);
        assert!(matches!(
            Frame::decode(&truncated),
            Err(NetError::Protocol(msg)) if msg.contains("truncated")
        ));
        // Explicitly encoded NONE tag (non-canonical: must be elided).
        let none_tag = compact_frame(&[0x00, 0x02, 0x01, 0x02, 0x00, 0x00]);
        assert!(matches!(
            Frame::decode(&none_tag),
            Err(NetError::Protocol(msg)) if msg.contains("NONE")
        ));
        // Thread id beyond u32 (varint of 2^32).
        let big_thread = compact_frame(&[0x00, 0x00, 0x01, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10]);
        assert!(matches!(
            Frame::decode(&big_thread),
            Err(NetError::Protocol(msg)) if msg.contains("thread")
        ));
        // Empty payload: even the dropped_total prefix is missing.
        let empty = compact_frame(&[]);
        assert!(Frame::decode(&empty).is_err());
    }

    #[test]
    fn compact_encoder_refuses_overflow_and_stays_decodable() {
        // Worst-case records (huge alternating deltas, max tag and thread)
        // approach MAX_COMPACT_BEAT_LEN each; the encoder must stop before
        // overflowing MAX_PAYLOAD and the sealed frame must still decode.
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(u64::MAX);
        let mut i = 0u64;
        loop {
            let worst = WireBeat {
                record: HeartbeatRecord::new(
                    if i.is_multiple_of(2) { u64::MAX } else { 0 },
                    if i.is_multiple_of(2) { 0 } else { u64::MAX },
                    Tag::new(u64::MAX),
                    BeatThreadId(u32::MAX),
                ),
                scope: BeatScope::Local,
            };
            if !encoder.push(&worst) {
                break;
            }
            i += 1;
        }
        assert!(encoder.beats() * MAX_COMPACT_BEAT_LEN >= MAX_PAYLOAD - 2 * MAX_COMPACT_BEAT_LEN);
        let bytes = encoder.finish();
        assert!(bytes.len() - HEADER_LEN <= MAX_PAYLOAD);
        let (frame, _) = Frame::decode(bytes).unwrap();
        assert!(matches!(frame, Frame::Beats(b) if b.beats.len() == i as usize));
    }

    // ------------------------------------------------------------------
    // Subscription frames (kinds 11–14)
    // ------------------------------------------------------------------

    #[test]
    fn glob_match_semantics() {
        for (pattern, name, expected) in [
            ("*", "anything", true),
            ("*", "", true),
            ("cam", "cam", true),
            ("cam", "camera", false),
            ("cam*", "camera", true),
            ("cam*", "cam", true),
            ("cam*", "dam", false),
            ("*cam", "webcam", true),
            ("*cam*", "a-camera", true),
            ("a*b*c", "a-bee-c", true),
            ("a*b*c", "a-c", false),
            ("**", "x", true),
            ("shard-*-replica", "shard-7-replica", true),
            ("shard-*-replica", "shard-7-primary", false),
        ] {
            assert_eq!(
                glob_match(pattern, name),
                expected,
                "glob_match({pattern:?}, {name:?})"
            );
        }
    }

    #[test]
    fn subscribe_pattern_validation() {
        assert!(valid_subscribe_pattern("*"));
        assert!(valid_subscribe_pattern("cam*"));
        assert!(valid_subscribe_pattern("exact-name"));
        assert!(!valid_subscribe_pattern(""));
        assert!(!valid_subscribe_pattern("two words"));
        assert!(!valid_subscribe_pattern("quo\"te"));
        assert!(!valid_subscribe_pattern(&"x".repeat(MAX_NAME_LEN + 1)));
    }

    #[test]
    fn subscription_frames_roundtrip() {
        let frames = [
            Frame::Subscribe(SubscribeReq {
                sub_id: 7,
                pattern: "cam*".into(),
                interests: 0b111,
                min_interval_ns: 250_000_000,
                resume_from: 0,
            }),
            Frame::Subscribe(SubscribeReq {
                sub_id: 8,
                pattern: "*".into(),
                interests: 0b100,
                min_interval_ns: 0,
                resume_from: u64::MAX / 5,
            }),
            Frame::SubAck {
                sub_id: 7,
                status: SubStatus::Ok,
            },
            Frame::SubAck {
                sub_id: 9,
                status: SubStatus::TooManySubscriptions,
            },
            Frame::Unsubscribe { sub_id: 7 },
            Frame::Event(EventFrame {
                sub_id: 7,
                sent_at_ns: 1_722_000_000_123_456_789,
                cursor: 42,
                app: "cam3".into(),
                payload: EventPayload::Snapshot {
                    total_beats: 12_345,
                    producer_dropped: 9,
                    rate_bps: Some(29.97),
                    target: Some((30.0, 35.0)),
                    alive: true,
                },
            }),
            Frame::Event(EventFrame {
                sub_id: 7,
                sent_at_ns: 0,
                cursor: 0,
                app: "cam3".into(),
                payload: EventPayload::Snapshot {
                    total_beats: 1,
                    producer_dropped: 0,
                    rate_bps: None,
                    target: None,
                    alive: false,
                },
            }),
            Frame::Event(EventFrame {
                sub_id: u32::MAX,
                sent_at_ns: u64::MAX,
                cursor: u64::MAX,
                app: "cam3".into(),
                payload: EventPayload::HealthTransition {
                    from: crate::health::HealthStatus::Healthy,
                    to: crate::health::HealthStatus::Stalled,
                    reasons: vec![crate::health::HealthReason::Silent],
                    window_beats: 42,
                },
            }),
            Frame::Event(EventFrame {
                sub_id: 0,
                sent_at_ns: 1,
                cursor: 7,
                app: "cam3".into(),
                payload: EventPayload::Beats {
                    dropped_total: 3,
                    beats: vec![
                        beat(5, BeatScope::Global),
                        beat(6, BeatScope::Local),
                        beat(7, BeatScope::Global),
                    ],
                },
            }),
            Frame::Event(EventFrame {
                sub_id: 1,
                sent_at_ns: 128,
                cursor: 128,
                app: "cam3".into(),
                payload: EventPayload::Beats {
                    dropped_total: 0,
                    beats: vec![],
                },
            }),
        ];
        for frame in frames {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn malformed_subscription_frames_are_rejected() {
        // Interest mask with no bits.
        let mut bad = Frame::Subscribe(SubscribeReq {
            sub_id: 1,
            pattern: "x".into(),
            interests: 0b001,
            min_interval_ns: 0,
            resume_from: 0,
        })
        .encode();
        bad[HEADER_LEN + 4] = 0;
        let crc = crate::crc::crc32(&bad[HEADER_LEN..]);
        bad[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bad),
            Err(NetError::Protocol(msg)) if msg.contains("interest")
        ));

        // Interest mask with unknown bits.
        bad[HEADER_LEN + 4] = 0b1001;
        let crc = crate::crc::crc32(&bad[HEADER_LEN..]);
        bad[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(Frame::decode(&bad).is_err());

        // A pattern that violates the pattern rules (whitespace).
        let mut sneaky = Frame::Subscribe(SubscribeReq {
            sub_id: 1,
            pattern: "ab".into(),
            interests: 0b010,
            min_interval_ns: 0,
            resume_from: 0,
        })
        .encode();
        // The pattern's last byte sits just before the trailing
        // resume-cursor varint (one byte for 0).
        let at = sneaky.len() - 3;
        sneaky[at] = b' ';
        let crc = crate::crc::crc32(&sneaky[HEADER_LEN..]);
        sneaky[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&sneaky),
            Err(NetError::Protocol(msg)) if msg.contains("pattern")
        ));

        // Unknown sub-ack status byte.
        let mut ack = Frame::SubAck {
            sub_id: 1,
            status: SubStatus::Ok,
        }
        .encode();
        ack[HEADER_LEN + 4] = 99;
        let crc = crate::crc::crc32(&ack[HEADER_LEN..]);
        ack[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&ack),
            Err(NetError::Protocol(msg)) if msg.contains("status")
        ));

        // Unknown event kind byte (sits right after the 1-byte sub_id
        // varint).
        let mut event = Frame::Event(EventFrame {
            sub_id: 1,
            sent_at_ns: 0,
            cursor: 0,
            app: "x".into(),
            payload: EventPayload::Snapshot {
                total_beats: 0,
                producer_dropped: 0,
                rate_bps: None,
                target: None,
                alive: true,
            },
        })
        .encode();
        event[HEADER_LEN + 1] = 77;
        let crc = crate::crc::crc32(&event[HEADER_LEN..]);
        event[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&event),
            Err(NetError::Protocol(msg)) if msg.contains("event kind")
        ));
    }

    /// Pins the subscription-frame worked hex examples in `docs/WIRE.md`
    /// byte for byte, so the documentation cannot rot silently.
    #[test]
    fn subscription_worked_examples_match_wire_md() {
        fn hex(bytes: &[u8]) -> String {
            bytes
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
        assert_eq!(
            hex(&Frame::Subscribe(SubscribeReq {
                sub_id: 1,
                pattern: "cam*".into(),
                interests: 0b010,
                min_interval_ns: 1_000_000_000,
                resume_from: 0,
            })
            .encode()),
            "48 42 57 54 03 0b 14 00 00 00 72 1d 45 30 \
             01 00 00 00 02 00 ca 9a 3b 00 00 00 00 04 00 63 61 6d 2a 00"
        );
        assert_eq!(
            hex(&Frame::SubAck {
                sub_id: 1,
                status: SubStatus::Ok,
            }
            .encode()),
            "48 42 57 54 03 0c 05 00 00 00 ad de 42 fb 01 00 00 00 00"
        );
        assert_eq!(
            hex(&Frame::Event(EventFrame {
                sub_id: 1,
                sent_at_ns: 0,
                cursor: 0,
                app: "cam7".into(),
                payload: EventPayload::HealthTransition {
                    from: crate::health::HealthStatus::Healthy,
                    to: crate::health::HealthStatus::Stalled,
                    reasons: vec![crate::health::HealthReason::Silent],
                    window_beats: 42,
                },
            })
            .encode()),
            "48 42 57 54 03 0d 12 00 00 00 ba dd 8e b6 \
             01 02 04 00 63 61 6d 37 00 00 03 01 02 00 2a 00 00 00"
        );
        assert_eq!(
            hex(&Frame::Unsubscribe { sub_id: 1 }.encode()),
            "48 42 57 54 03 0e 04 00 00 00 79 b8 f8 99 01 00 00 00"
        );
    }

    #[test]
    fn sub_status_encoding_is_stable() {
        for (status, value) in [
            (SubStatus::Ok, 0),
            (SubStatus::InvalidFilter, 1),
            (SubStatus::TooManySubscriptions, 2),
        ] {
            assert_eq!(status.as_u8(), value);
            assert_eq!(SubStatus::from_u8(value), Some(status));
        }
        assert_eq!(SubStatus::from_u8(3), None);
    }

    /// Pins the handshake and beat-batch worked hex examples in
    /// `docs/WIRE.md`.
    #[test]
    fn v3_worked_examples_match_wire_md() {
        fn hex(bytes: &[u8]) -> String {
            bytes
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
        assert_eq!(
            hex(&Frame::HelloAck { max_version: 3 }.encode()),
            "48 42 57 54 03 09 01 00 00 00 37 be 0b 4b 03"
        );
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(0);
        encoder.push(&WireBeat {
            record: HeartbeatRecord::new(1, 1_000_000, Tag::NONE, BeatThreadId(0)),
            scope: BeatScope::Global,
        });
        encoder.push(&WireBeat {
            record: HeartbeatRecord::new(2, 2_000_500, Tag::new(7), BeatThreadId(0)),
            scope: BeatScope::Local,
        });
        assert_eq!(
            hex(encoder.finish()),
            "48 42 57 54 03 0a 0e 00 00 00 74 b4 15 0b \
             00 00 01 80 89 7a 00 03 01 e8 90 7a 07 00"
        );
    }

    /// Pins the federation-hardening worked hex in `docs/WIRE.md`: the
    /// NodeHello path vector, the auth handshake pair (the MAC
    /// cross-checked against an independent HMAC-SHA256 implementation),
    /// and the cursored Subscribe/Event forms.
    #[test]
    fn federation_worked_examples_match_wire_md() {
        fn hex(bytes: &[u8]) -> String {
            bytes
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
        assert_eq!(
            hex(&Frame::NodeHello {
                node: "leaf0".into(),
                pid: 7,
                path: vec!["leaf0".into(), "edge".into()],
            }
            .encode()),
            "48 42 57 54 03 0f 17 00 00 00 00 8f 09 06 \
             07 00 00 00 05 00 6c 65 61 66 30 02 05 6c 65 61 66 30 04 65 64 67 65"
        );
        let nonce = [0xa5u8; AUTH_LEN];
        assert_eq!(
            hex(&Frame::NodeChallenge { nonce }.encode()),
            "48 42 57 54 03 12 20 00 00 00 85 2f 5f 77 \
             a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 \
             a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5 a5"
        );
        // The answer for secret "hunter2", node "leaf0": the expected MAC
        // was computed with an independent HMAC-SHA256 implementation.
        let mac = crate::auth::uplink_mac("hunter2", &nonce, "leaf0");
        assert_eq!(
            hex(&Frame::NodeAuth { mac }.encode()),
            "48 42 57 54 03 13 20 00 00 00 50 27 7e 1a \
             aa 9b 67 2d 3b 60 cc 93 49 17 aa 2f da c6 b4 bd \
             1d 6a 35 32 40 54 b3 35 be 6f 1a e8 35 6f 42 6f"
        );
        // Cursored resume forms: Subscribe with resume_from = 43 asks the
        // child to replay from cursor 43; the first replayed Event carries
        // that cursor.
        assert_eq!(
            hex(&Frame::Subscribe(SubscribeReq {
                sub_id: 1,
                pattern: "cam*".into(),
                interests: 0b010,
                min_interval_ns: 1_000_000_000,
                resume_from: 43,
            })
            .encode()),
            "48 42 57 54 03 0b 14 00 00 00 32 e4 f9 9c \
             01 00 00 00 02 00 ca 9a 3b 00 00 00 00 04 00 63 61 6d 2a 2b"
        );
        assert_eq!(
            hex(&Frame::Event(EventFrame {
                sub_id: 1,
                sent_at_ns: 0,
                cursor: 43,
                app: "cam7".into(),
                payload: EventPayload::HealthTransition {
                    from: crate::health::HealthStatus::Healthy,
                    to: crate::health::HealthStatus::Stalled,
                    reasons: vec![crate::health::HealthReason::Silent],
                    window_beats: 42,
                },
            })
            .encode()),
            "48 42 57 54 03 0d 12 00 00 00 c4 c1 2a b6 \
             01 02 04 00 63 61 6d 37 00 2b 03 01 02 00 2a 00 00 00"
        );
    }

    #[test]
    fn hello_rejects_namespaced_names() {
        // `/` passes valid_app_name (queries and events must accept
        // namespaced names) but a *producer* may not claim one at hello.
        assert!(valid_app_name("leaf-1/cam"));
        let frame = Frame::Hello(Hello {
            app: "leaf-1/cam".into(),
            pid: 1,
            default_window: 20,
        });
        assert!(matches!(
            Frame::decode(&frame.encode()),
            Err(NetError::Protocol(msg)) if msg.contains("federation")
        ));
    }

    #[test]
    fn node_name_validation() {
        assert!(valid_node_name("leaf-1"));
        assert!(valid_node_name("rack07.eu"));
        assert!(!valid_node_name(""));
        assert!(!valid_node_name("leaf/1"));
        assert!(!valid_node_name("leaf*"));
        assert!(!valid_node_name("leaf 1"));
        assert!(!valid_node_name("leaf\u{7}"));
        assert!(!valid_node_name(&"n".repeat(MAX_NODE_LEN + 1)));
        assert!(valid_node_name(&"n".repeat(MAX_NODE_LEN)));
    }

    #[test]
    fn node_hello_roundtrip_and_rejections() {
        for path in [
            vec!["leaf-1".to_string()],
            vec![
                "leaf-1".to_string(),
                "rack07.eu".to_string(),
                "x".to_string(),
            ],
        ] {
            let frame = Frame::NodeHello {
                node: "leaf-1".into(),
                pid: 4242,
                path,
            };
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
        for bad in ["leaf/1", "leaf*", "has space", ""] {
            let frame = Frame::NodeHello {
                node: bad.into(),
                pid: 1,
                path: vec![bad.into()],
            };
            assert!(
                matches!(Frame::decode(&frame.encode()), Err(NetError::Protocol(_))),
                "node name {bad:?} should be rejected"
            );
        }
    }

    /// A hello without a path — the pre-loop-detection body that ends after
    /// the node name, an explicit empty vector, or a path led by another
    /// node — would make the parent's cycle check vacuously pass: refused.
    #[test]
    fn node_hello_without_a_leading_own_name_is_rejected() {
        let restamp = |frame: &mut Vec<u8>| {
            let payload_len = (frame.len() - HEADER_LEN) as u32;
            frame[6..10].copy_from_slice(&payload_len.to_le_bytes());
            let crc = crc32(&frame[HEADER_LEN..]);
            frame[10..14].copy_from_slice(&crc.to_le_bytes());
        };
        let hello = |path: &[&str]| Frame::NodeHello {
            node: "leaf-1".into(),
            pid: 7,
            path: path.iter().map(|p| p.to_string()).collect(),
        };
        let mut legacy = hello(&[]).encode();
        legacy.pop(); // strip the path-count byte: the legacy body
        restamp(&mut legacy);
        assert!(matches!(
            Frame::decode(&legacy),
            Err(NetError::Protocol(msg)) if msg.contains("no path vector")
        ));
        for path in [&[][..], &["rack07", "leaf-1"]] {
            assert!(matches!(
                Frame::decode(&hello(path).encode()),
                Err(NetError::Protocol(msg)) if msg.contains("does not start with")
            ));
        }
    }

    #[test]
    fn node_hello_path_rejections() {
        // An invalid name inside the path vector is rejected even though
        // the node name itself is fine.
        let frame = Frame::NodeHello {
            node: "leaf-1".into(),
            pid: 1,
            path: vec!["leaf-1".into(), "bad/one".into()],
        };
        assert!(matches!(
            Frame::decode(&frame.encode()),
            Err(NetError::Protocol(msg)) if msg.contains("path entry")
        ));
        // A count byte promising more entries than the payload holds.
        let mut truncated = Frame::NodeHello {
            node: "leaf-1".into(),
            pid: 1,
            path: vec![],
        }
        .encode();
        let at = truncated.len() - 1;
        truncated[at] = 3; // claims 3 entries, provides none
        let crc = crc32(&truncated[HEADER_LEN..]);
        truncated[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&truncated),
            Err(NetError::Protocol(msg)) if msg.contains("path truncated")
        ));
    }

    #[test]
    fn node_challenge_and_auth_roundtrip() {
        let nonce = crate::auth::fresh_nonce();
        let frame = Frame::NodeChallenge { nonce };
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);

        let mac = crate::auth::uplink_mac("swordfish", &nonce, "leaf-1");
        let frame = Frame::NodeAuth { mac };
        let (decoded, used) = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(used, frame.encode().len());
        assert_eq!(decoded, frame);

        // Wrong payload length is rejected, not padded.
        let mut short = Frame::NodeAuth { mac }.encode();
        short.truncate(short.len() - 1);
        let payload_len = (short.len() - HEADER_LEN) as u32;
        short[6..10].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&short[HEADER_LEN..]);
        short[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(Frame::decode(&short).is_err());
    }

    #[test]
    fn subscribe_body_without_cursor_is_rejected() {
        let mut frame = Frame::Subscribe(SubscribeReq {
            sub_id: 3,
            pattern: "cam*".into(),
            interests: 0b100,
            min_interval_ns: 5,
            resume_from: 0,
        })
        .encode();
        // Strip the trailing resume varint (one byte for 0) and re-stamp:
        // the body now ends at the pattern, which no v3 encoder produces.
        frame.pop();
        let payload_len = (frame.len() - HEADER_LEN) as u32;
        frame[6..10].copy_from_slice(&payload_len.to_le_bytes());
        let crc = crc32(&frame[HEADER_LEN..]);
        frame[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&frame),
            Err(NetError::Protocol(msg)) if msg.contains("varint truncated")
        ));
    }

    #[test]
    fn splice_event_cursor_rewrites_in_place() {
        for (cursor, trailing) in [(1u64, false), (300, false), (u64::MAX, true)] {
            let event = Frame::Event(EventFrame {
                sub_id: 9,
                sent_at_ns: 123_456,
                cursor: 0,
                app: "leaf/cam3".into(),
                payload: EventPayload::Beats {
                    dropped_total: 2,
                    beats: vec![beat(5, BeatScope::Global), beat(6, BeatScope::Local)],
                },
            });
            let mut buf = Vec::new();
            let frame_at = if trailing {
                // The spliced frame need not start at offset 0.
                Frame::Bye.encode_into(&mut buf);
                buf.len()
            } else {
                0
            };
            event.encode_into(&mut buf);
            splice_event_cursor(&mut buf, frame_at, cursor).unwrap();
            let (decoded, used) = Frame::decode(&buf[frame_at..]).unwrap();
            assert_eq!(used, buf.len() - frame_at);
            let Frame::Event(decoded) = decoded else {
                panic!("not an event");
            };
            assert_eq!(decoded.cursor, cursor);
            assert_eq!(decoded.app, "leaf/cam3");
            assert!(matches!(
                decoded.payload,
                EventPayload::Beats { dropped_total: 2, ref beats } if beats.len() == 2
            ));
        }
        // Non-event frames are refused.
        let mut buf = Frame::Bye.encode();
        assert!(splice_event_cursor(&mut buf, 0, 1).is_err());
    }

    #[test]
    fn relay_event_roundtrip() {
        for payload in [
            EventPayload::Beats {
                dropped_total: 17,
                beats: vec![beat(1, BeatScope::Global), beat(2, BeatScope::Local)],
            },
            EventPayload::HealthTransition {
                from: HealthStatus::Healthy,
                to: HealthStatus::Stalled,
                reasons: vec![HealthReason::Silent],
                window_beats: 12,
            },
        ] {
            let frame = Frame::RelayEvent {
                seq: u64::MAX / 3,
                event: EventFrame {
                    sub_id: 0,
                    sent_at_ns: 123_456_789,
                    cursor: 0,
                    app: "cam".into(),
                    payload,
                },
            };
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn relay_event_rejects_seq_zero() {
        let frame = Frame::RelayEvent {
            seq: 1,
            event: EventFrame {
                sub_id: 0,
                sent_at_ns: 0,
                cursor: 0,
                app: "cam".into(),
                payload: EventPayload::Beats {
                    dropped_total: 0,
                    beats: vec![],
                },
            },
        };
        let mut bytes = frame.encode();
        // Rewrite the seq varint (first payload byte) from 1 to 0 and
        // re-stamp the CRC.
        bytes[HEADER_LEN] = 0;
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[10..14].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(NetError::Protocol(msg)) if msg.contains("reserved")
        ));
    }

    #[test]
    fn relay_ack_roundtrip() {
        for last_applied in [0u64, 1, 300, u64::MAX] {
            let frame = Frame::RelayAck { last_applied };
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn glob_overlaps_prefix_cases() {
        // Anything a subscription could match under the prefix → true.
        assert!(glob_overlaps_prefix("*", "leaf-1/"));
        assert!(glob_overlaps_prefix("leaf-1/*", "leaf-1/"));
        assert!(glob_overlaps_prefix("leaf-1/cam", "leaf-1/"));
        assert!(glob_overlaps_prefix("leaf*", "leaf-1/"));
        assert!(glob_overlaps_prefix("le*af/x", "leaf/"));
        assert!(glob_overlaps_prefix("*cam", "leaf-1/"));
        // Patterns that cannot reach past the prefix → false.
        assert!(!glob_overlaps_prefix("other/*", "leaf-1/"));
        assert!(!glob_overlaps_prefix("cam", "leaf-1/"));
        assert!(!glob_overlaps_prefix("leaf-2*", "leaf-1/"));
        // Consistency with glob_match: a matching full name implies overlap.
        for (pattern, name) in [("*", "leaf-1/cam"), ("leaf-1/c*m", "leaf-1/cam")] {
            assert!(glob_match(pattern, name));
            assert!(glob_overlaps_prefix(pattern, "leaf-1/"));
        }
    }

    fn sample_snapshot() -> AppSnapshot {
        AppSnapshot {
            app: "x264".into(),
            pid: 41,
            window: 20,
            total_beats: 500,
            local_beats: 3,
            rate_bps: Some(29.97),
            mean_interval_ns: Some(33_366_700.0),
            target: Some((30.0, 35.0)),
            producer_dropped: 12,
            last_timestamp_ns: Some(123_456_789),
            connections: 1,
            alive: true,
        }
    }

    fn sample_stats(upstream: Option<UplinkStats>) -> CollectorStats {
        CollectorStats {
            apps: 3,
            connections: 280,
            frames: 9000,
            protocol_errors: 1,
            io_threads: 2,
            evicted: 5,
            queries: 77,
            subscriptions: 4,
            events: 1000,
            events_dropped: 6,
            uptime_s: 12.5,
            cross_shard: 0,
            origins: 2,
            origins_up: 1,
            upstream,
        }
    }

    #[test]
    fn query_plane_frames_roundtrip() {
        let uplink = UplinkStats {
            connected: true,
            forwarded_beats: 10,
            dropped_beats: 2,
            forwarded_events: 3,
            reconnects: 1,
            retransmits: 4,
        };
        let frames = [
            Frame::SnapshotReq { app: "x264".into() },
            Frame::Snapshot(Some(sample_snapshot())),
            // A fresh app: every optional field absent.
            Frame::Snapshot(Some(AppSnapshot {
                rate_bps: None,
                mean_interval_ns: None,
                target: None,
                last_timestamp_ns: None,
                ..sample_snapshot()
            })),
            Frame::Snapshot(None),
            Frame::ListReq,
            Frame::List {
                last: false,
                names: vec!["a".into(), "edge/cam".into()],
            },
            Frame::List {
                last: true,
                names: vec![],
            },
            Frame::StatsReq,
            Frame::Stats(sample_stats(None)),
            Frame::Stats(sample_stats(Some(uplink))),
            Frame::MetricsReq,
            Frame::Metrics {
                last: false,
                text: "# HELP hb_app_alive \u{3bc}s\n".into(),
            },
            Frame::Metrics {
                last: true,
                text: String::new(),
            },
        ];
        for frame in frames {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn malformed_query_plane_frames_are_rejected() {
        // Re-stamps length and CRC so only the body is at fault.
        fn with_payload(frame: &Frame, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
            let mut bytes = frame.encode();
            let mut payload = bytes.split_off(HEADER_LEN);
            edit(&mut payload);
            bytes[6..10].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes[10..14].copy_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes
        }
        let snapshot = Frame::Snapshot(Some(sample_snapshot()));
        let stats = Frame::Stats(sample_stats(None));
        let list = Frame::List {
            last: true,
            names: vec!["a".into(), "b".into()],
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "request with a body",
                with_payload(&Frame::StatsReq, |p| p.push(0)),
            ),
            (
                "snapshot cut short",
                with_payload(&snapshot, |p| p.truncate(40)),
            ),
            (
                "snapshot of one byte",
                with_payload(&Frame::Snapshot(None), |p| p.push(0)),
            ),
            (
                "snapshot trailing byte",
                with_payload(&snapshot, |p| p.push(0)),
            ),
            (
                "half a target",
                with_payload(&snapshot, |p| {
                    p[62..70].copy_from_slice(&f64::NAN.to_le_bytes())
                }),
            ),
            (
                "infinite rate",
                with_payload(&snapshot, |p| {
                    p[46..54].copy_from_slice(&f64::INFINITY.to_le_bytes())
                }),
            ),
            ("stats cut short", with_payload(&stats, |p| p.truncate(100))),
            (
                "stats without uplink flag",
                with_payload(&stats, |p| p.truncate(112)),
            ),
            (
                "stats uplink cut short",
                with_payload(&stats, |p| p[112] = 1),
            ),
            (
                "stats NaN uptime",
                with_payload(&stats, |p| {
                    p[104..112].copy_from_slice(&f64::NAN.to_le_bytes())
                }),
            ),
            ("list count too high", with_payload(&list, |p| p[1] = 3)),
            ("list count too low", with_payload(&list, |p| p[1] = 1)),
            (
                "list hostile count",
                with_payload(&list, |p| p[1..5].copy_from_slice(&[0xFF; 4])),
            ),
            ("empty list payload", with_payload(&list, |p| p.clear())),
            (
                "empty metrics payload",
                with_payload(
                    &Frame::Metrics {
                        last: true,
                        text: String::new(),
                    },
                    |p| p.clear(),
                ),
            ),
            (
                "metrics not UTF-8",
                with_payload(
                    &Frame::Metrics {
                        last: true,
                        text: "ok".into(),
                    },
                    |p| p[1] = 0xFF,
                ),
            ),
        ];
        for (what, bytes) in cases {
            assert!(
                matches!(Frame::decode(&bytes), Err(NetError::Protocol(_))),
                "{what} must be a protocol error"
            );
        }
    }

    /// Pins the query-plane worked hex in `docs/WIRE.md`.
    #[test]
    fn query_plane_worked_examples_match_wire_md() {
        fn hex(bytes: &[u8]) -> String {
            bytes
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        }
        assert_eq!(
            hex(&Frame::SnapshotReq { app: "x264".into() }.encode()),
            "48 42 57 54 03 14 06 00 00 00 f8 3f 9f 0b 04 00 78 32 36 34"
        );
        let snapshot = Frame::Snapshot(Some(sample_snapshot()));
        assert_eq!(
            hex(&snapshot.encode()),
            "48 42 57 54 03 15 54 00 00 00 73 96 e6 35 \
             01 29 00 00 00 14 00 00 00 01 00 00 00 \
             f4 01 00 00 00 00 00 00 03 00 00 00 00 00 00 00 0c 00 00 00 00 00 00 00 \
             01 15 cd 5b 07 00 00 00 00 \
             b8 1e 85 eb 51 f8 3d 40 00 00 00 c0 2a d2 7f 41 \
             00 00 00 00 00 00 3e 40 00 00 00 00 00 80 41 40 \
             04 00 78 32 36 34"
        );
        assert_eq!(
            hex(&Frame::ListReq.encode()),
            "48 42 57 54 03 16 00 00 00 00 00 00 00 00"
        );
        let list = Frame::List {
            last: true,
            names: vec!["x264".into(), "edge/cam".into()],
        };
        assert_eq!(
            hex(&list.encode()),
            "48 42 57 54 03 17 15 00 00 00 63 ee b6 50 \
             01 02 00 00 00 04 00 78 32 36 34 08 00 65 64 67 65 2f 63 61 6d"
        );
        assert_eq!(
            hex(&Frame::StatsReq.encode()),
            "48 42 57 54 03 18 00 00 00 00 00 00 00 00"
        );
        assert_eq!(
            hex(&Frame::Stats(sample_stats(None)).encode()),
            "48 42 57 54 03 19 71 00 00 00 70 25 61 77 \
             03 00 00 00 00 00 00 00 18 01 00 00 00 00 00 00 28 23 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00 05 00 00 00 00 00 00 00 \
             4d 00 00 00 00 00 00 00 04 00 00 00 00 00 00 00 e8 03 00 00 00 00 00 00 \
             06 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00 \
             01 00 00 00 00 00 00 00 00 00 00 00 00 00 29 40 00"
        );
        assert_eq!(
            hex(&Frame::MetricsReq.encode()),
            "48 42 57 54 03 1b 00 00 00 00 00 00 00 00"
        );
        let metrics = Frame::Metrics {
            last: true,
            text: "hb_collector_apps 3\n".into(),
        };
        assert_eq!(
            hex(&metrics.encode()),
            "48 42 57 54 03 1a 15 00 00 00 b0 ac 43 dd \
             01 68 62 5f 63 6f 6c 6c 65 63 74 6f 72 5f 61 70 70 73 20 33 0a"
        );
    }
}
