//! Randomized property tests for the wire protocol: encode→decode equality
//! for records, batches and every frame kind, plus rejection of malformed
//! and corrupted frames.

use proptest::prelude::*;

use hb_net::wire::{BatchEncoder, BeatBatch, BeatsView, Frame, Hello, WireBeat, HEADER_LEN};
use hb_net::FrameDecoder;
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

/// Deterministically expands compact random tuples into a WireBeat.
fn beat_from(parts: (u64, u64, u64, u32, bool)) -> WireBeat {
    let (seq, timestamp_ns, tag, thread, local) = parts;
    WireBeat {
        record: HeartbeatRecord::new(seq, timestamp_ns, Tag::new(tag), BeatThreadId(thread)),
        scope: if local {
            BeatScope::Local
        } else {
            BeatScope::Global
        },
    }
}

/// Expands one random seed into an adversarial record: non-monotone
/// timestamps, maximal sequence/tag jumps, a mix of elided (NONE) and
/// explicit tags, both scopes, arbitrary thread ids.
fn adversarial_beat(i: usize, s: u64) -> WireBeat {
    beat_from((
        s,
        s.rotate_left((i % 64) as u32),
        if s.is_multiple_of(3) { 0 } else { s ^ 0x5A5A },
        (s >> 32) as u32,
        s.is_multiple_of(2),
    ))
}

/// Encodes a batch through the streaming [`BatchEncoder`].
fn encode_compact(batch: &BeatBatch) -> Vec<u8> {
    let mut encoder = BatchEncoder::new();
    encoder.begin_compact(batch.dropped_total);
    for beat in &batch.beats {
        assert!(encoder.push(beat), "test batches fit one frame");
    }
    encoder.finish().to_vec()
}

/// Expands random seeds into one frame of every query-plane kind the
/// `RemoteReader` exchanges beyond History/Health: SnapshotReq, Snapshot
/// (with every optional field present or absent, and unknown),
/// ListReq, List, StatsReq, Stats (with and without the uplink half),
/// MetricsReq and Metrics.
fn query_plane_frames(seeds: &[u64]) -> Vec<Frame> {
    use hb_net::{AppSnapshot, CollectorStats, UplinkStats};

    let s = |i: usize| seeds[i % seeds.len()].rotate_left(i as u32);
    let name = |i: usize| format!("app-{:x}", s(i) >> 40);
    let finite = |i: usize| (s(i) % 1_000_000_007) as f64 / 7.0;
    let full = s(0).is_multiple_of(2);
    let snapshot = AppSnapshot {
        app: name(1),
        pid: s(2) as u32,
        window: s(3) as u32,
        total_beats: s(4),
        local_beats: s(5),
        rate_bps: full.then(|| finite(6)),
        mean_interval_ns: full.then(|| finite(7)),
        target: full.then(|| (finite(8), finite(8) + finite(9))),
        producer_dropped: s(10),
        last_timestamp_ns: full.then(|| s(11)),
        connections: s(12) as u32,
        alive: s(13).is_multiple_of(2),
    };
    let stats = CollectorStats {
        apps: s(14),
        connections: s(15),
        frames: s(16),
        protocol_errors: s(17),
        io_threads: s(18),
        evicted: s(19),
        queries: s(20),
        subscriptions: s(21),
        events: s(22),
        events_dropped: s(23),
        uptime_s: finite(24),
        cross_shard: s(25),
        origins: s(26),
        origins_up: s(27),
        upstream: full.then(|| UplinkStats {
            connected: s(28).is_multiple_of(2),
            forwarded_beats: s(29),
            dropped_beats: s(30),
            forwarded_events: s(31),
            reconnects: s(32),
            retransmits: s(33),
        }),
    };
    vec![
        Frame::SnapshotReq { app: name(1) },
        Frame::Snapshot(Some(snapshot)),
        Frame::Snapshot(None),
        Frame::ListReq,
        Frame::List {
            last: full,
            names: (0..seeds.len() % 7).map(|i| name(35 + i)).collect(),
        },
        Frame::StatsReq,
        Frame::Stats(stats),
        Frame::MetricsReq,
        Frame::Metrics {
            last: !full,
            text: seeds
                .iter()
                .map(|v| format!("hb_app_beats_total{{app=\"µ{v}\"}} {v}\n"))
                .collect(),
        },
    ]
}

proptest! {
    /// Any single record round-trips exactly through a batch frame.
    #[test]
    fn single_record_roundtrip(
        seq in any::<u64>(),
        timestamp_ns in any::<u64>(),
        tag in any::<u64>(),
        thread in any::<u32>(),
        local in any::<bool>(),
        dropped in any::<u64>(),
    ) {
        let frame = Frame::Beats(BeatBatch {
            dropped_total: dropped,
            beats: vec![beat_from((seq, timestamp_ns, tag, thread, local))],
        });
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Arbitrary batches — non-monotone timestamps, maximal varint
    /// seq/tag jumps, empty batches included — round-trip exactly, and the
    /// owned frame and the streaming encoder emit the same bytes.
    #[test]
    fn batch_roundtrip(
        seeds in prop::collection::vec(any::<u64>(), 0..200),
        dropped in any::<u64>(),
    ) {
        let beats: Vec<WireBeat> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| adversarial_beat(i, s))
            .collect();
        let batch = BeatBatch { dropped_total: dropped, beats };
        let bytes = encode_compact(&batch);
        let frame = Frame::Beats(batch);
        prop_assert_eq!(&bytes, &frame.encode());
        let (decoded, used) = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// Hello frames round-trip for arbitrary (short) names.
    #[test]
    fn hello_roundtrip(
        pid in any::<u32>(),
        window in any::<u32>(),
        name_seed in prop::collection::vec(97u8..123, 1..64),
    ) {
        let app = String::from_utf8(name_seed).unwrap();
        let frame = Frame::Hello(Hello { app, pid, default_window: window });
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// Target frames round-trip bit-exactly for finite rates.
    #[test]
    fn target_roundtrip(min in -1.0e12f64..1.0e12, width in 0.0f64..1.0e12) {
        let frame = Frame::Target { min_bps: min, max_bps: min + width };
        let (decoded, _) = Frame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    /// A stream of many frames fed to the decoder in random chunk sizes
    /// comes out in order, every frame exactly once, with nothing left
    /// buffered.
    #[test]
    fn stream_roundtrip(
        batch_sizes in prop::collection::vec(0usize..30, 1..20),
        chunk_sizes in prop::collection::vec(1usize..200, 1..16),
    ) {
        let frames: Vec<Frame> = batch_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                Frame::Beats(BeatBatch {
                    dropped_total: i as u64,
                    beats: (0..n)
                        .map(|j| beat_from((j as u64, j as u64 * 31 + i as u64, 0, 0, false)))
                        .collect(),
                })
            })
            .collect();
        let mut wire = Vec::new();
        for frame in &frames {
            frame.encode_into(&mut wire);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut rest = wire.as_slice();
        for &size in chunk_sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            decoder.push(chunk);
            rest = tail;
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// Flipping any single byte of an encoded frame never yields a DIFFERENT
    /// valid frame: decoding either fails or returns the original (the CRC
    /// catches everything the varint grammar might accept).
    #[test]
    fn single_byte_corruption_is_never_misread(
        seeds in prop::collection::vec(any::<u64>(), 1..30),
        corrupt_at_fraction in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut frames = query_plane_frames(&seeds);
        frames.push(Frame::Beats(BeatBatch {
            dropped_total: 1,
            beats: seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| adversarial_beat(i, s))
                .collect(),
        }));
        for frame in frames {
            let mut bytes = frame.encode();
            let at = ((bytes.len() as f64 * corrupt_at_fraction) as usize).min(bytes.len() - 1);
            bytes[at] ^= 1 << flip_bit;
            match Frame::decode(&bytes) {
                Err(_) => {}
                Ok((decoded, _)) => prop_assert_eq!(decoded, frame, "corruption at byte {}", at),
            }
        }
    }

    /// Truncating an encoded frame anywhere always fails to decode.
    #[test]
    fn truncation_is_always_rejected(
        seqs in prop::collection::vec(any::<u64>(), 1..20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut frames = query_plane_frames(&seqs);
        frames.push(Frame::Beats(BeatBatch {
            dropped_total: 0,
            beats: seqs.iter().map(|&s| beat_from((s, s, s, 0, true))).collect(),
        }));
        for frame in frames {
            let bytes = frame.encode();
            let cut = ((bytes.len() as f64 * cut_fraction) as usize).min(bytes.len() - 1);
            prop_assert!(Frame::decode(&bytes[..cut]).is_err(), "{:?} cut at {}", frame, cut);
        }
    }

    /// Random byte soup never decodes as a frame (the magic plus CRC make
    /// accidental acceptance practically impossible).
    #[test]
    fn random_bytes_are_rejected(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Reject only inputs that do not start with the real magic/version.
        if bytes.len() >= HEADER_LEN
            && bytes[..4] == hb_net::wire::MAGIC.to_le_bytes()
        {
            return Ok(());
        }
        prop_assert!(Frame::decode(&bytes).is_err());
    }

    /// The borrowing view and the materialized decode agree on every batch
    /// (and the view's length is exact).
    #[test]
    fn compact_view_matches_materialized_decode(
        seeds in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let beats: Vec<WireBeat> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| adversarial_beat(i, s))
            .collect();
        let batch = BeatBatch { dropped_total: 9, beats };
        let bytes = encode_compact(&batch);
        let (kind, payload_len, _) = Frame::decode_header(&bytes).unwrap();
        let view = BeatsView::parse(kind, &bytes[HEADER_LEN..HEADER_LEN + payload_len]).unwrap();
        prop_assert_eq!(view.len(), batch.beats.len());
        let collected: Vec<WireBeat> = view.iter().collect();
        prop_assert_eq!(collected, batch.beats);
    }

    /// A well-behaved stream (monotone seq, bounded jitter, untagged)
    /// stays far below the retired fixed-width encoding's 29 bytes per
    /// beat: at most 8.
    #[test]
    fn compact_monotone_stream_stays_small(
        jitters in prop::collection::vec(0u64..2_000_000, 2..200),
    ) {
        let mut ts = 1_700_000_000_000_000_000u64;
        let beats: Vec<WireBeat> = jitters
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                ts += j;
                beat_from((i as u64, ts, 0, 0, false))
            })
            .collect();
        let n = beats.len();
        let batch = BeatBatch { dropped_total: 0, beats };
        let bytes = encode_compact(&batch);
        // Header + dropped varint + first record's absolute timestamp are
        // amortized; per-record cost must stay under 8 bytes.
        prop_assert!(
            bytes.len() <= HEADER_LEN + 11 + 10 + n * 8,
            "{} beats took {} bytes",
            n,
            bytes.len()
        );
    }
}

/// A representative multi-frame stream covering the federation-hardening
/// surface: NodeHello with its path vector, the challenge/response
/// pair, a cursored Subscribe, a cursored Event inside and outside the
/// relay envelope, plus plain beats and acks.
fn federation_stream() -> Vec<u8> {
    use hb_net::wire::{EventFrame, EventPayload, SubscribeReq, AUTH_LEN};
    let event = EventFrame {
        sub_id: 7,
        sent_at_ns: 1_700_000_000_000_000_000,
        cursor: 42,
        app: "edge/camera".into(),
        payload: EventPayload::Beats {
            dropped_total: 3,
            beats: (0..4)
                .map(|i| adversarial_beat(i, 0x9E37_79B9 + i as u64))
                .collect(),
        },
    };
    let frames = vec![
        Frame::NodeHello {
            node: "edge".into(),
            pid: 4242,
            path: vec!["edge".into(), "leaf-a".into(), "leaf-b".into()],
        },
        Frame::NodeChallenge {
            nonce: [0xA5; AUTH_LEN],
        },
        Frame::NodeAuth {
            mac: [0x5A; AUTH_LEN],
        },
        Frame::Subscribe(SubscribeReq {
            sub_id: 7,
            pattern: "edge/*".into(),
            interests: 0x07,
            min_interval_ns: 1_000_000,
            resume_from: 41,
        }),
        Frame::Event(event.clone()),
        Frame::RelayEvent { seq: 9, event },
        Frame::RelayAck { last_applied: 9 },
        Frame::Beats(BeatBatch {
            dropped_total: 1,
            beats: (0..8)
                .map(|i| adversarial_beat(i, i as u64 * 0x517C_C1B7))
                .collect(),
        }),
    ];
    let mut stream = Vec::new();
    for frame in &frames {
        stream.extend_from_slice(&frame.encode());
    }
    stream
}

proptest! {
    /// Decoder survival under faultnet mangling: feed a valid federation
    /// stream through [`hb_testkit::faultnet::mangle`] (truncation plus random
    /// bit flips) in arbitrary chunk sizes. Corruption must surface as a
    /// decode error or a clean early end of stream — never a panic. This
    /// is the offline twin of the chaos test's in-flight corruption.
    #[test]
    fn mangled_streams_never_panic_the_decoder(
        seed in any::<u64>(),
        chunk in 1usize..512,
    ) {
        let mangled = hb_testkit::faultnet::mangle(seed, &federation_stream());

        // One-shot decode of the mangled head: Ok or Err, never a panic.
        let _ = Frame::decode(&mangled);

        // Incremental decode in adversarial chunk sizes: frames before the
        // first corruption may decode; the stream then errors or ends.
        let mut decoder = hb_net::FrameDecoder::new();
        let mut dead = false;
        for part in mangled.chunks(chunk) {
            if dead {
                break;
            }
            decoder.push(part);
            loop {
                match decoder.next_event() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
    }
}

/// Expands one random seed into a history sample with a finite-or-absent
/// rate (NaN is the wire's None sentinel, so `Some(NaN)` is unrepresentable).
fn sample_from(s: u64) -> hb_net::HistorySample {
    hb_net::HistorySample {
        seq: s,
        timestamp_ns: s.rotate_left(17),
        tag: s ^ 0xA5A5,
        interval_ns: s >> 3,
        rate_bps: if s.is_multiple_of(2) {
            None
        } else {
            Some((s % 100_000) as f64 / 7.0)
        },
    }
}

proptest! {
    /// Every query/control frame kind round-trips exactly: Bye, HistoryReq,
    /// History, HealthReq, Health, HelloAck, SubAck, Unsubscribe and the
    /// rest of the query plane (`query_plane_frames`). Keeps the long tail
    /// of small frames honest — no kind ships without an encode→decode
    /// property (hb-lint's wire-kind check enforces this coverage).
    #[test]
    fn control_frames_roundtrip(
        name_seed in prop::collection::vec(97u8..123, 1..16),
        limit in any::<u32>(),
        total in any::<u64>(),
        known in any::<bool>(),
        max_version in any::<u8>(),
        sub_id in any::<u32>(),
        status_byte in 0u8..3,
        sample_seeds in prop::collection::vec(any::<u64>(), 0..5),
        health_sel in 0u8..4,
        window_beats in any::<u32>(),
        silent_ns in any::<u64>(),
    ) {
        use hb_net::wire::{HealthFrame, HistoryChunk, SubStatus};
        use hb_net::{HealthReason, HealthReport, HealthStatus};

        let app = String::from_utf8(name_seed).unwrap();
        let report = HealthReport {
            status: HealthStatus::from_u8(health_sel).unwrap(),
            reasons: if health_sel == 3 {
                vec![]
            } else {
                vec![HealthReason::Silent, HealthReason::SequenceAnomaly]
            },
            window_beats,
            window_rate_bps: if window_beats.is_multiple_of(2) {
                None
            } else {
                Some(f64::from(window_beats) / 3.0)
            },
            jitter_cv: if window_beats.is_multiple_of(3) {
                Some(f64::from(window_beats % 1000) / 999.0)
            } else {
                None
            },
            missing: window_beats / 7,
            duplicated: window_beats / 11,
            reordered: window_beats / 13,
            silent_ns,
        };
        let mut frames = query_plane_frames(&[total, silent_ns, u64::from(limit)]);
        frames.extend([
            Frame::Bye,
            Frame::HistoryReq { app: app.clone(), limit },
            Frame::History(HistoryChunk {
                app: app.clone(),
                known,
                total,
                samples: sample_seeds.iter().map(|&s| sample_from(s)).collect(),
            }),
            Frame::HealthReq { app: app.clone() },
            Frame::Health(HealthFrame { app: app.clone(), known, report }),
            Frame::HelloAck { max_version },
            Frame::SubAck { sub_id, status: SubStatus::from_u8(status_byte).unwrap() },
            Frame::Unsubscribe { sub_id },
        ]);
        for frame in frames {
            let bytes = frame.encode();
            let (decoded, used) = Frame::decode(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(decoded, frame);
        }
    }
}

/// One frame of every kind (1, 3–27) from the seeds: the query plane
/// (`query_plane_frames`), the producer and federation kinds, and an
/// `Event` of each payload kind.
fn every_kind_frames(seeds: &[u64]) -> Vec<Frame> {
    use hb_net::wire::{
        EventFrame, EventPayload, HealthFrame, HistoryChunk, SubStatus, SubscribeReq, AUTH_LEN,
    };
    use hb_net::{HealthReason, HealthReport, HealthStatus};

    let s = |i: usize| seeds[i % seeds.len()].rotate_left(i as u32 * 7);
    let app = format!("app-{:x}", s(0) >> 44);
    let beats = |n: usize| -> Vec<WireBeat> { (0..n).map(|i| adversarial_beat(i, s(i))).collect() };
    let event = |payload| EventFrame {
        sub_id: s(1) as u32,
        sent_at_ns: s(2),
        cursor: s(3) >> 40,
        app: app.clone(),
        payload,
    };
    let mut frames = query_plane_frames(seeds);
    frames.extend([
        Frame::Hello(Hello {
            app: app.clone(),
            pid: s(4) as u32,
            default_window: s(5) as u32,
        }),
        Frame::Target {
            min_bps: (s(6) % 1000) as f64,
            max_bps: (s(6) % 1000 + 10) as f64,
        },
        Frame::Bye,
        Frame::HistoryReq {
            app: app.clone(),
            limit: s(7) as u32,
        },
        Frame::History(HistoryChunk {
            app: app.clone(),
            known: true,
            total: s(8),
            samples: (0..seeds.len() % 4)
                .map(|i| sample_from(s(9 + i)))
                .collect(),
        }),
        Frame::HealthReq { app: app.clone() },
        Frame::Health(HealthFrame {
            app: app.clone(),
            known: s(10).is_multiple_of(2),
            report: HealthReport {
                status: HealthStatus::Degraded,
                reasons: vec![HealthReason::JitterSpike],
                window_beats: s(11) as u32,
                window_rate_bps: Some((s(12) % 10_000) as f64 / 3.0),
                jitter_cv: None,
                missing: 1,
                duplicated: 2,
                reordered: 3,
                silent_ns: s(13),
            },
        }),
        Frame::HelloAck { max_version: 3 },
        Frame::Beats(BeatBatch {
            dropped_total: s(14),
            beats: beats(seeds.len() % 5),
        }),
        Frame::Subscribe(SubscribeReq {
            sub_id: s(15) as u32,
            pattern: "app-*".into(),
            interests: 0b111,
            min_interval_ns: s(16),
            resume_from: s(17) >> 50,
        }),
        Frame::SubAck {
            sub_id: s(18) as u32,
            status: SubStatus::TooManySubscriptions,
        },
        Frame::Event(event(EventPayload::Snapshot {
            total_beats: s(19),
            producer_dropped: s(20) >> 30,
            rate_bps: Some((s(21) % 5000) as f64),
            target: Some((1.0, 2.0)),
            alive: true,
        })),
        Frame::Event(event(EventPayload::HealthTransition {
            from: HealthStatus::Healthy,
            to: HealthStatus::Stalled,
            reasons: vec![HealthReason::Silent],
            window_beats: s(22) as u32,
        })),
        Frame::Event(event(EventPayload::Beats {
            dropped_total: s(23) >> 20,
            beats: beats(1 + seeds.len() % 4),
        })),
        Frame::Unsubscribe {
            sub_id: s(24) as u32,
        },
        Frame::NodeHello {
            node: "edge".into(),
            pid: s(25) as u32,
            path: vec!["edge".into(), "leaf-a".into()],
        },
        Frame::RelayEvent {
            seq: 1 + (s(26) >> 1),
            event: event(EventPayload::Beats {
                dropped_total: 0,
                beats: beats(2),
            }),
        },
        Frame::RelayAck {
            last_applied: s(27),
        },
        Frame::NodeChallenge {
            nonce: [s(28) as u8; AUTH_LEN],
        },
        Frame::NodeAuth {
            mac: [s(29) as u8; AUTH_LEN],
        },
    ]);
    frames
}

/// `header` (a valid frame header) with `payload` behind it, the length
/// and CRC restamped to match.
fn restamped(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = header[..HEADER_LEN].to_vec();
    bytes[6..10].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes[10..14].copy_from_slice(&hb_net::crc::crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

proptest! {
    /// Payload lengths are exact for every kind: a payload cut to any
    /// shorter length, or one byte longer, under a restamped length and
    /// CRC, either fails with a protocol error or decodes to a frame that
    /// re-encodes to exactly those bytes. The header-declared length stays
    /// consistent here, so this reaches the per-kind decoders that
    /// `truncation_is_always_rejected` (which cuts the frame short of its
    /// declared length) never does.
    #[test]
    fn payload_lengths_are_exact_for_every_kind(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        for frame in every_kind_frames(&seeds) {
            let bytes = frame.encode();
            let (header, payload) = bytes.split_at(HEADER_LEN);
            let cuts = (0..payload.len()).map(|len| payload[..len].to_vec());
            let grown = [0u8, 1, 0x80, 0xff, b'a'].map(|extra| [payload, &[extra]].concat());
            for variant in cuts.chain(grown) {
                let variant = restamped(header, &variant);
                match Frame::decode(&variant) {
                    Err(hb_net::NetError::Protocol(_)) => {}
                    Err(other) => prop_assert!(false, "{:?}: non-protocol error {:?}", frame, other),
                    Ok((decoded, used)) => {
                        prop_assert_eq!(used, variant.len());
                        prop_assert_eq!(decoded.encode(), variant, "{:?} decoded as {:?}", frame, decoded);
                    }
                }
            }
        }
    }
}
