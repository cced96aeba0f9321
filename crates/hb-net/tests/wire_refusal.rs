//! Refusal on all three surfaces of the one-version wire, over real
//! loopback sockets:
//!
//! * producer: a peer that accepts but never completes the handshake — by
//!   staying silent or by acknowledging an older version — is a failed
//!   connect: never "connected", every beat shed and counted, retried on
//!   the backoff;
//! * collector: frames stamped with another version, the retired
//!   fixed-width beat kind and a pathless `NodeHello` close the connection
//!   and count one protocol error each, with nothing ingested;
//! * observer: `RemoteReader::subscribe` refuses a collector whose
//!   `VERSION` answer is not exactly this build's.
//!
//! Every wait polls a condition under a deadline; nothing depends on a
//! fixed sleep.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hb_net::wire::{Frame, Hello, HEADER_LEN, MAGIC, VERSION};
use hb_net::{Collector, NetError, RemoteReader, TcpBackend, TcpBackendConfig};
use heartbeats::{Backend, BeatScope, BeatThreadId, HeartbeatRecord, Interest, ObserveFilter, Tag};

fn record(seq: u64) -> HeartbeatRecord {
    HeartbeatRecord::new(seq, 1_000_000 * seq + 500, Tag::NONE, BeatThreadId(0))
}

/// Polls until `cond` holds or panics after a generous deadline.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A stand-in ingest port: accepts every connection, optionally writes
/// `greeting` on it, then holds it open without ever reading or writing
/// again. Records when each accept happened.
struct StubIngest {
    addr: SocketAddr,
    accepts: Arc<Mutex<Vec<Instant>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StubIngest {
    fn spawn(greeting: Option<Vec<u8>>) -> StubIngest {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepts = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (accepts, stop) = (Arc::clone(&accepts), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut conn = conn.unwrap();
                    accepts.lock().unwrap().push(Instant::now());
                    if let Some(greeting) = &greeting {
                        conn.write_all(greeting).unwrap();
                    }
                    held.push(conn);
                }
            })
        };
        StubIngest {
            addr,
            accepts,
            stop,
            thread: Some(thread),
        }
    }

    fn accepts(&self) -> Vec<Instant> {
        self.accepts.lock().unwrap().clone()
    }
}

impl Drop for StubIngest {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr); // unblocks the accept loop
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Issues `beats` beats into a backend pointed at `stub`, asserting at
/// every poll that the handshake never completes, until every beat is
/// accounted as dropped and the backend has retried at least `retries`
/// times.
fn refused_producer(
    stub: &StubIngest,
    backoff: Duration,
    beats: u64,
    retries: usize,
) -> TcpBackend {
    let backend = TcpBackend::with_config(
        stub.addr.to_string(),
        "refused-app",
        TcpBackendConfig {
            reconnect_backoff: backoff,
            ..TcpBackendConfig::default()
        },
    );
    let mut issued = 0u64;
    wait_for(
        "every issued beat to be shed and the connect retried",
        || {
            assert!(
                !backend.is_connected(),
                "a failed handshake is not a connection"
            );
            assert!(!backend.negotiated_compact());
            if issued < beats {
                backend.on_beat("refused-app", &record(issued), BeatScope::Global);
                issued += 1;
                return false;
            }
            backend.dropped_beats() == beats && stub.accepts().len() >= retries
        },
    );
    assert_eq!(
        backend.sent(),
        0,
        "nothing may be shipped past a failed handshake"
    );
    assert_eq!(
        backend.dropped_beats(),
        beats,
        "every issued beat is accounted, exactly"
    );
    backend
}

/// Retries are paced by `backoff`: `n` accepts span at least `n - 1`
/// backoffs (less one scheduling slack for the stub's own timestamps).
fn assert_paced(accepts: &[Instant], backoff: Duration) {
    let span = *accepts.last().unwrap() - accepts[0];
    let floor = backoff * (accepts.len() as u32 - 1);
    assert!(
        span + backoff / 2 >= floor,
        "{} accepts in {span:?} outrun the {backoff:?} backoff",
        accepts.len()
    );
}

#[test]
fn handshake_completes_against_a_real_collector() {
    let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let backend = TcpBackend::new(collector.ingest_addr().to_string(), "acked-app");
    for i in 0..500u64 {
        backend.on_beat("acked-app", &record(i), BeatScope::Global);
    }
    let state = collector.state();
    wait_for("all beats ingested", || {
        state
            .snapshot("acked-app")
            .is_some_and(|s| s.total_beats + s.producer_dropped >= 500)
    });
    assert!(backend.is_connected() && backend.negotiated_compact());
    let snap = state.snapshot("acked-app").unwrap();
    assert_eq!(snap.total_beats + snap.producer_dropped, 500);
    // Timestamps survived the delta encoding: the windowed rate is the
    // nominal 1 kHz of `record`'s 1 ms spacing.
    let rate = snap.rate_bps.expect("enough beats for a rate");
    assert!((rate - 1_000.0).abs() < 1.0, "rate {rate}");
    drop(backend);
    collector.shutdown();
}

/// (i) A listener that accepts and never answers. Each connect waits out
/// the handshake bound, so this case also pins that bound from both sides:
/// retries do happen, and a drop mid-handshake joins within it.
#[test]
fn silent_listener_is_a_failed_connect() {
    let stub = StubIngest::spawn(None);
    let backoff = Duration::from_millis(50);
    let backend = refused_producer(&stub, backoff, 100, 2);
    assert_paced(&stub.accepts(), backoff);

    // One more beat starts one more handshake; drop the backend inside it.
    let before = stub.accepts().len();
    backend.on_beat("refused-app", &record(100), BeatScope::Global);
    wait_for("the next handshake to start", || {
        stub.accepts().len() > before
    });
    let started = Instant::now();
    drop(backend);
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "drop mid-handshake took {:?}: it must join within one 2 s handshake wait",
        started.elapsed()
    );
}

/// (ii) A listener that acknowledges an older version: refused at once,
/// so the retry pace is the backoff itself.
#[test]
fn old_version_ack_is_a_failed_connect() {
    let stub = StubIngest::spawn(Some(Frame::HelloAck { max_version: 2 }.encode()));
    let backoff = Duration::from_millis(100);
    let backend = refused_producer(&stub, backoff, 400, 5);
    assert_paced(&stub.accepts(), backoff);
    drop(backend);
}

/// Wraps `payload` in a frame header with the given version and kind.
fn raw_frame(version: u8, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[version, kind]);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&hb_net::crc::crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// (iii) Old-protocol byte streams against a real collector.
#[test]
fn collector_refuses_other_versions_and_retired_kinds() {
    let mut collector = Collector::bind("127.0.0.1:0", "127.0.0.1:0").unwrap();
    let state = collector.state();
    let hello = Frame::Hello(Hello {
        app: "old-binary".into(),
        pid: 42,
        default_window: 20,
    })
    .encode();

    // What a version-1 binary opens with: the same hello, stamped 1.
    let mut v1_hello = hello.clone();
    v1_hello[4] = 1;
    // The retired fixed-width batch (kind 2: u64 dropped, u32 count, 29-byte
    // records) after a current hello, so only its kind can be at fault.
    let mut fixed_width = 3u64.to_le_bytes().to_vec();
    fixed_width.extend_from_slice(&1u32.to_le_bytes());
    fixed_width.extend_from_slice(&[0u8; 29]);
    let mut kind_2 = hello.clone();
    kind_2.extend_from_slice(&raw_frame(VERSION, 2, &fixed_width));
    // A NodeHello that ends after the node name: no path vector to check
    // for a relay cycle.
    let mut pathless = 7u32.to_le_bytes().to_vec();
    pathless.extend_from_slice(&4u16.to_le_bytes());
    pathless.extend_from_slice(b"leaf");
    let pathless = raw_frame(VERSION, 15, &pathless);

    for (what, stream) in [
        ("a version-1 hello", v1_hello),
        ("a kind-2 beats frame", kind_2),
        ("a pathless node hello", pathless),
    ] {
        let errors = state.protocol_errors();
        let accounted = state.beats_accounted();
        let mut conn = TcpStream::connect(collector.ingest_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        conn.write_all(&stream).unwrap();
        // The collector closes the connection (EOF or reset) after at most
        // the ack of a hello that was still valid.
        let mut rest = Vec::new();
        match conn.read_to_end(&mut rest) {
            Ok(_) => {}
            Err(err) if err.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(err) => panic!("{what}: connection not closed: {err}"),
        }
        assert!(
            rest.len() <= HEADER_LEN + 1,
            "{what}: served {} bytes",
            rest.len()
        );
        wait_for("the protocol error to be counted", || {
            state.protocol_errors() == errors + 1
        });
        assert_eq!(
            state.beats_accounted(),
            accounted,
            "{what}: nothing is ingested"
        );
    }
    collector.shutdown();
}

/// (iv) The observer-side probe is an equality: an older *and* a newer
/// collector are both refused before any `Subscribe` is sent.
#[test]
fn subscribe_refuses_any_other_collector_version() {
    for answer in [VERSION - 1, VERSION + 1] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut out = stream.try_clone().unwrap();
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        let _ = match line.trim() {
                            "PING" => writeln!(out, "PONG"),
                            "VERSION" => writeln!(out, "VERSION {answer}"),
                            other => writeln!(out, "ERR unknown command {other} (try HELP)"),
                        };
                    }
                });
            }
        });

        let reader = Arc::new(RemoteReader::connect(addr.to_string()).unwrap());
        reader.ping().expect("the stub answers pings");
        let err = reader
            .subscribe("anything", &ObserveFilter::new(Interest::HEALTH))
            .expect_err("subscribe must fail against another wire version");
        assert!(
            matches!(err, NetError::Unsupported(_)),
            "VERSION {answer}: expected Unsupported, got {err:?}"
        );
    }
}
