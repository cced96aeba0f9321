//! Rungs: direct timed calls into each module's public functions, run in
//! the traced pass. Each rung prices one layer alone, with no socket or
//! thread it does not need, so the ledger can say how much of the
//! end-to-end cost the layers explain.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hb_net::frame::{FrameDecoder, FrameEvent};
use hb_net::health::{self, HealthConfig, HistoryRing, HistorySample};
use hb_net::reactor::{Handler, ListenerSpec, OutBuf, Reactor, ReactorConfig};
use hb_net::wire::{
    BatchEncoder, BeatsView, EventFrame, EventPayload, Frame, WireBeat, HEADER_LEN,
};
use hb_net::{Collector, CollectorConfig, CollectorState, UpstreamConfig};
use heartbeats::{
    BeatScope, BeatThreadId, HeartbeatBuilder, HeartbeatRecord, Interest, NullBackend, Tag,
};

use crate::proc::thread_cpu_ns;
use crate::spec::Report;
use crate::stats::median;
use crate::workload::TICK_NS;

const REPEATS: usize = 5;
const MIN_RUN: Duration = Duration::from_millis(10);
/// Apps in the embedded registry the collector rungs run against.
const REGISTRY_APPS: usize = 256;

/// Median over [`REPEATS`] runs of `elapsed / operations`, each run calling
/// `body` (which returns how many operations it did) for [`MIN_RUN`].
fn per_op_ns(mut body: impl FnMut() -> u64) -> f64 {
    let mut runs = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        let mut ops = 0u64;
        while started.elapsed() < MIN_RUN {
            ops += body();
        }
        runs.push(started.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&mut runs)
}

fn median_of(mut run: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..REPEATS).map(|_| run()).collect();
    median(&mut runs)
}

/// Beats 1 ms apart with a little jitter, untagged, from one thread: the
/// stream shape the compact encoding is built for.
fn beat(seq: u64) -> WireBeat {
    WireBeat {
        record: HeartbeatRecord::new(
            seq,
            1_700_000_000_000_000_000 + seq * 1_000_000 + (seq * 7919) % 4096,
            Tag::NONE,
            BeatThreadId(0),
        ),
        scope: BeatScope::Global,
    }
}

fn encode_frame(first_seq: u64, beats: u64) -> Vec<u8> {
    let mut encoder = BatchEncoder::new();
    encoder.begin_compact(0);
    for seq in first_seq..first_seq + beats {
        encoder.push(&beat(seq));
    }
    encoder.finish().to_vec()
}

fn heartbeats_rungs(report: &mut Report) {
    let hb = HeartbeatBuilder::new("rung").build().expect("heartbeat");
    report.set(
        "heartbeats.issue_ns",
        per_op_ns(|| {
            for _ in 0..1000 {
                std::hint::black_box(hb.heartbeat());
            }
            1000
        }),
    );

    // The paced generator's own cost: the same sleep-and-burst loop with
    // nothing behind the heartbeat, priced in this thread's CPU time.
    let hb = HeartbeatBuilder::new("rung-gen")
        .backend(Arc::new(NullBackend))
        .build()
        .expect("heartbeat");
    let (ticks, burst) = (300u64, 10u64);
    let cpu_before = thread_cpu_ns();
    let started = Instant::now();
    for tick in 1..=ticks {
        for _ in 0..burst {
            hb.heartbeat();
        }
        let due = Duration::from_nanos(tick * TICK_NS);
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
    }
    report.set(
        "gen.cpu_ns_per_beat",
        (thread_cpu_ns() - cpu_before) as f64 / (ticks * burst) as f64,
    );
}

fn wire_and_frame_rungs(report: &mut Report) {
    for (label, n) in [("b4", 4u64), ("b512", 512)] {
        let beats: Vec<WireBeat> = (0..n).map(beat).collect();
        let mut encoder = BatchEncoder::new();
        report.set(
            &format!("wire.encode_ns_per_beat_{label}"),
            per_op_ns(|| {
                encoder.begin_compact(0);
                for beat in &beats {
                    encoder.push(beat);
                }
                std::hint::black_box(encoder.finish().len());
                n
            }),
        );
        let bytes = encode_frame(0, n);
        report.set(
            &format!("wire.bytes_per_beat_{label}"),
            bytes.len() as f64 / n as f64,
        );
        let (kind, payload_len, _crc) = Frame::decode_header(&bytes).expect("own frame");
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        report.set(
            &format!("wire.decode_ns_per_beat_{label}"),
            per_op_ns(|| {
                let view =
                    BeatsView::parse(kind, std::hint::black_box(payload)).expect("own frame");
                let mut acc = 0u64;
                for beat in view.iter() {
                    acc = acc.wrapping_add(beat.record.timestamp_ns);
                }
                std::hint::black_box(acc);
                n
            }),
        );
        let mut decoder = FrameDecoder::new();
        report.set(
            &format!("frame.decode_ns_per_frame_{label}"),
            per_op_ns(|| {
                decoder.push(&bytes);
                match decoder.next_event() {
                    Ok(Some(FrameEvent::Beats(view))) => {
                        let mut acc = 0u64;
                        for beat in view.iter() {
                            acc = acc.wrapping_add(beat.record.timestamp_ns);
                        }
                        std::hint::black_box(acc);
                    }
                    other => panic!("rung frame did not decode: {other:?}"),
                }
                1
            }),
        );
    }

    // A frame that arrives in two reads: the first push must yield nothing.
    let bytes = encode_frame(0, 4);
    let (head, tail) = bytes.split_at(bytes.len() / 2);
    let mut decoder = FrameDecoder::new();
    report.set(
        "frame.split_read_ns_per_frame",
        per_op_ns(|| {
            decoder.push(head);
            assert!(matches!(decoder.next_event(), Ok(None)));
            decoder.push(tail);
            assert!(matches!(
                decoder.next_event(),
                Ok(Some(FrameEvent::Beats(_)))
            ));
            1
        }),
    );

    let event = Frame::Event(EventFrame {
        sub_id: 1,
        sent_at_ns: 1_700_000_000_000_000_000,
        cursor: 0,
        app: "app0000-0".into(),
        payload: EventPayload::Beats {
            dropped_total: 0,
            beats: (0..4).map(beat).collect(),
        },
    });
    let mut buf = Vec::new();
    report.set(
        "wire.event_encode_ns",
        per_op_ns(|| {
            buf.clear();
            event.encode_into(&mut buf);
            std::hint::black_box(buf.len());
            1
        }),
    );
    let encoded = event.encode();
    report.set(
        "wire.event_decode_ns",
        per_op_ns(|| {
            std::hint::black_box(Frame::decode(std::hint::black_box(&encoded)).expect("own event"));
            1
        }),
    );

    let block = vec![0xA5u8; 64 * 1024];
    report.set(
        "crc.ns_per_kib",
        per_op_ns(|| {
            std::hint::black_box(hb_net::crc::crc32(std::hint::black_box(&block)));
            64
        }),
    );
}

/// Counts the bytes the reactor hands it and does nothing else.
struct Discard(Arc<AtomicU64>);

impl Handler for Discard {
    fn on_data(&mut self, input: &[u8], _out: &mut OutBuf) -> bool {
        self.0.fetch_add(input.len() as u64, Ordering::Release); // ordering: pairs with the Acquire load in the rung's wait loop
        true
    }
}

/// One socket writing pre-encoded frames into a one-shard reactor whose
/// handler discards them: poll, read and dispatch, with no decode.
fn reactor_rungs(report: &mut Report) -> Result<(), String> {
    let io = |err: std::io::Error| format!("reactor rung: {err}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let seen = Arc::new(AtomicU64::new(0));
    let factory_seen = Arc::clone(&seen);
    let mut reactor = Reactor::spawn(
        vec![ListenerSpec {
            listener,
            factory: Arc::new(move |_peer| {
                Box::new(Discard(Arc::clone(&factory_seen))) as Box<dyn Handler>
            }),
        }],
        ReactorConfig {
            io_threads: 1,
            ..ReactorConfig::default()
        },
        Arc::new(AtomicU64::new(0)),
    )
    .map_err(io)?;
    let mut socket = TcpStream::connect(addr).map_err(io)?;
    socket.set_nodelay(true).map_err(io)?;

    let mut sent = 0u64;
    // Writes `burst` and waits until the handler has seen all of it.
    let mut pump = |burst: &[u8]| -> Result<f64, String> {
        let mut failure = None;
        let per_burst = per_op_ns(|| {
            if let Err(err) = socket.write_all(burst) {
                failure = Some(io(err));
                return 1;
            }
            sent += burst.len() as u64;
            let deadline = Instant::now() + Duration::from_secs(10);
            while seen.load(Ordering::Acquire) < sent {
                // ordering: pairs with the Release add in Discard::on_data
                if Instant::now() > deadline {
                    failure = Some("reactor rung: discard handler stalled".into());
                    return 1;
                }
                std::hint::spin_loop();
            }
            1
        });
        failure.map_or(Ok(per_burst), Err)
    };
    // One small frame at a time, each waited for: what a frame costs when
    // it arrives alone and finds the reactor parked in its poller, as on
    // the paced workloads (wake-up, one read, one dispatch).
    let per_frame = pump(&encode_frame(0, 4))?;
    // Large frames back to back: the per-byte cost of a busy reactor.
    let large = encode_frame(0, 512);
    let burst: Vec<u8> = large
        .iter()
        .copied()
        .cycle()
        .take(large.len() * 64)
        .collect();
    let per_kib = pump(&burst)? / burst.len() as f64 * 1024.0;
    drop(socket);
    reactor.shutdown();
    report.set("reactor.discard_ns_per_frame", per_frame);
    report.set("reactor.discard_ns_per_kib", per_kib);
    Ok(())
}

/// An embedded registry of [`REGISTRY_APPS`] apps with full history rings.
fn registry() -> (CollectorState, Vec<hb_net::collector::AppHandle>) {
    let state = CollectorState::new(CollectorConfig::default());
    let handles = (0..REGISTRY_APPS)
        .map(|i| {
            let handle = state.hello(&format!("reg{i:03}"), 1, 20);
            state.ingest_batch_with(&handle, 0, (0..1024).map(beat));
            handle
        })
        .collect();
    (state, handles)
}

fn collector_rungs(report: &mut Report) -> (f64, f64) {
    let (state, handles) = registry();
    let mut next = 1024u64;
    let mut ingest = [0.0f64; 2];
    for (slot, (label, n)) in [("b4", 4u64), ("b512", 512)].into_iter().enumerate() {
        ingest[slot] = per_op_ns(|| {
            for handle in &handles {
                state.ingest_batch_with(handle, 0, (next..next + n).map(beat));
            }
            next += n;
            n * handles.len() as u64
        });
        report.set(
            &format!("collector.ingest_ns_per_beat_{label}"),
            ingest[slot],
        );
    }

    let names: Vec<String> = handles.iter().map(|h| h.app().to_string()).collect();
    let mut cursor = 0usize;
    let mut each = |mut call: Box<dyn FnMut(&str) + '_>| {
        per_op_ns(|| {
            for _ in 0..64 {
                cursor = (cursor + 97) % names.len();
                call(&names[cursor]);
            }
            64
        })
    };
    report.set(
        "collector.snapshot_ns",
        each(Box::new(|app| {
            std::hint::black_box(state.snapshot(app));
        })),
    );
    report.set(
        "collector.health_ns",
        each(Box::new(|app| {
            std::hint::black_box(state.health(app));
        })),
    );
    report.set(
        "collector.history_us",
        each(Box::new(|app| {
            std::hint::black_box(state.history(app, 256));
        })) / 1e3,
    );
    report.set(
        "collector.prometheus_ms",
        per_op_ns(|| {
            std::hint::black_box(state.prometheus().len());
            1
        }) / 1e6,
    );

    // Registering a new app allocates its history ring; a fresh registry
    // per run keeps the memory bounded.
    let fresh: Vec<String> = (0..REGISTRY_APPS).map(|i| format!("new{i:03}")).collect();
    report.set(
        "collector.hello_us",
        median_of(|| {
            let state = CollectorState::new(CollectorConfig::default());
            let started = Instant::now();
            for name in &fresh {
                std::hint::black_box(state.hello(name, 1, 20));
            }
            started.elapsed().as_nanos() as f64 / fresh.len() as f64 / 1e3
        }),
    );
    (ingest[0], ingest[1])
}

fn health_rungs(report: &mut Report) {
    let sample = |seq: u64| HistorySample {
        seq,
        timestamp_ns: seq * 1_000_000,
        tag: 0,
        interval_ns: 1_000_000,
        rate_bps: Some(1000.0),
    };
    let mut ring = HistoryRing::new(1024);
    let mut seq = 0u64;
    report.set(
        "health.ring_push_ns",
        per_op_ns(|| {
            for _ in 0..1024 {
                ring.push(sample(seq));
                seq += 1;
            }
            1024
        }),
    );
    let window: Vec<HistorySample> = (0..256).map(sample).collect();
    let config = HealthConfig::default();
    report.set(
        "health.assess_us_w256",
        per_op_ns(|| {
            std::hint::black_box(health::assess(
                std::hint::black_box(&window),
                256,
                Duration::from_millis(1),
                Some((500.0, 2000.0)),
                &config,
            ));
            1
        }) / 1e3,
    );
}

/// Eight local `BEATS` subscriptions on one app: the time a 4-beat batch
/// takes to ingest, fan out and drain, less the same batch with nobody
/// subscribed, per event.
fn subscribe_rung(report: &mut Report) {
    const SUBS: usize = 8;
    let batch_ns = |subscribers: usize| {
        let state = CollectorState::new(CollectorConfig::default());
        let handle = state.hello("fan", 1, 20);
        let subs: Vec<_> = (0..subscribers)
            .map(|_| {
                state
                    .subscribe_local("fan*", Interest::BEATS, Duration::ZERO)
                    .expect("local subscription")
            })
            .collect();
        let mut next = 0u64;
        per_op_ns(|| {
            state.ingest_batch_with(&handle, 0, (next..next + 4).map(beat));
            next += 4;
            for sub in &subs {
                std::hint::black_box(sub.drain().len());
            }
            1
        })
    };
    let fanned = batch_ns(SUBS);
    let bare = batch_ns(0);
    report.set(
        "subscribe.fanout_ns_per_event",
        (fanned - bare).max(0.0) / SUBS as f64,
    );
}

/// One federation hop with default tuning: beats ingested at a leaf until
/// the parent has accounted them, 64 apps × 64 beats a round.
fn upstream_rung(report: &mut Report) -> Result<(), String> {
    let bind = |config| {
        Collector::with_config("127.0.0.1:0", "127.0.0.1:0", config)
            .map_err(|err| format!("upstream rung: {err}"))
    };
    let mut parent = bind(CollectorConfig::default())?;
    let mut leaf = bind(CollectorConfig {
        upstream: Some(UpstreamConfig::new(
            parent.ingest_addr().to_string(),
            "rung",
        )),
        ..CollectorConfig::default()
    })?;
    let (leaf_state, parent_state) = (leaf.state(), parent.state());
    let apps: Vec<String> = (0..64).map(|i| format!("up{i:02}")).collect();
    let mut next = 0u64;
    let mut goal = 0u64;
    let mut stalled = false;
    let mut round = || {
        let started = Instant::now();
        for app in &apps {
            leaf_state.ingest_batch(app, 0, (next..next + 64).map(beat));
        }
        next += 64;
        goal += 64 * apps.len() as u64;
        while parent_state.beats_accounted() < goal {
            if started.elapsed() > Duration::from_secs(10) {
                stalled = true;
                break;
            }
            std::thread::yield_now();
        }
        started.elapsed().as_nanos() as f64 / (64 * apps.len()) as f64
    };
    round(); // link establishment and first-use allocations
    let per_beat = median_of(&mut round);
    leaf.shutdown();
    parent.shutdown();
    if stalled {
        return Err("upstream rung: the parent never accounted a round".into());
    }
    report.set("upstream.relay_ns_per_beat", per_beat);
    Ok(())
}

/// Per-beat CPU cost of the path `heartbeat()` → ingest at
/// `beats_per_frame`, from the rungs: each layer's cost is split into a
/// per-frame and a per-beat part using its 4-beat and 512-beat
/// measurements. The reactor enters with its per-byte cost only:
/// `reactor.discard_ns_per_frame` is the wall time of a frame that finds
/// the reactor asleep, which a busy pipeline does not pay. What this sum
/// leaves unexplained is the per-frame syscalls on both sides of the socket
/// and the scheduler.
pub fn attributed_ns_per_beat(report: &Report, on_beat_ns: f64, beats_per_frame: f64) -> f64 {
    let get = |name: &str| report.get(name).unwrap_or(0.0);
    let b = beats_per_frame.max(1.0);
    // cost(b) = per_beat + per_frame / b, solved from cost(4) and cost(512).
    let at = |c4: f64, c512: f64| {
        let per_frame = (c4 - c512) / (1.0 / 4.0 - 1.0 / 512.0);
        (c512 - per_frame / 512.0) + per_frame / b
    };
    get("heartbeats.issue_ns")
        + on_beat_ns
        + at(
            get("wire.encode_ns_per_beat_b4"),
            get("wire.encode_ns_per_beat_b512"),
        )
        + get("reactor.discard_ns_per_kib") / 1024.0
            * at(
                get("wire.bytes_per_beat_b4"),
                get("wire.bytes_per_beat_b512"),
            )
        + at(
            get("frame.decode_ns_per_frame_b4") / 4.0,
            get("frame.decode_ns_per_frame_b512") / 512.0,
        )
        + at(
            get("collector.ingest_ns_per_beat_b4"),
            get("collector.ingest_ns_per_beat_b512"),
        )
}

/// Runs every rung into `report`.
pub fn run_all(report: &mut Report) -> Result<(), String> {
    heartbeats_rungs(report);
    wire_and_frame_rungs(report);
    reactor_rungs(report)?;
    collector_rungs(report);
    health_rungs(report);
    subscribe_rung(report);
    upstream_rung(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_interpolates_between_the_two_batch_sizes() {
        let mut report = Report::default();
        for (name, value) in [
            ("heartbeats.issue_ns", 100.0),
            ("wire.encode_ns_per_beat_b4", 0.0),
            ("wire.encode_ns_per_beat_b512", 0.0),
            ("reactor.discard_ns_per_kib", 1024.0),
            ("wire.bytes_per_beat_b4", 6.0),
            ("wire.bytes_per_beat_b512", 6.0),
            ("frame.decode_ns_per_frame_b4", 0.0),
            ("frame.decode_ns_per_frame_b512", 0.0),
            // 10 ns per beat plus 508 ns per frame.
            ("collector.ingest_ns_per_beat_b4", 10.0 + 508.0 / 4.0),
            ("collector.ingest_ns_per_beat_b512", 10.0 + 508.0 / 512.0),
        ] {
            report.set(name, value);
        }
        let at8 = attributed_ns_per_beat(&report, 50.0, 8.0);
        assert!((at8 - (100.0 + 50.0 + 6.0 + 10.0 + 508.0 / 8.0)).abs() < 1e-6);
    }
}
