//! Characterizes what one producer batch does to an embedded
//! `CollectorState`, for every mix of watchers the ingest path
//! distinguishes: nobody, snapshot or health watchers only, raw-beats
//! watchers (alone, beside snapshots, and two sharing one sub id), each
//! with and without an upstream tap (`CollectorConfig::upstream` set; no
//! socket is opened by a bare state).
//!
//! A seeded script of batches — empty ones, local beats, a batch larger
//! than one event may carry, drop-counter jumps and a stale (lower) drop
//! counter — runs through `ingest_batch` and `ingest_batch_with`, and every
//! subscription is drained after every batch. The ledger kept beside it
//! must match the collector exactly.

use std::time::Duration;

use hb_net::wire::{EventFrame, EventPayload, WireBeat, MAX_EVENT_BEATS};
use hb_net::{CollectorConfig, CollectorState, HealthStatus, LocalSubscription, UpstreamConfig};
use heartbeats::observe::Interest;
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

const APPS: [&str; 2] = ["ledger-a", "ledger-b"];
const BATCHES: usize = 160;

/// SplitMix64: a deterministic script from a fixed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the ledger expects the registry to hold for one app.
#[derive(Default)]
struct AppLedger {
    seq: u64,
    ts: u64,
    total_beats: u64,
    producer_dropped: u64,
}

/// One scripted batch: the app, the producer's cumulative drop counter,
/// and the records.
fn scripted_batch(
    rng: &mut Rng,
    index: usize,
    ledgers: &mut [AppLedger],
) -> (usize, u64, Vec<WireBeat>) {
    let app = rng.below(APPS.len() as u64) as usize;
    let ledger = &mut ledgers[app];
    let len = match (index, rng.below(8)) {
        // One batch larger than a single event may carry.
        (40, _) => MAX_EVENT_BEATS + 37,
        (_, 0) => 0,
        (_, 1) => 1,
        _ => 1 + rng.below(64) as usize,
    };
    let dropped_total = match rng.below(6) {
        0 => ledger.producer_dropped + 1 + rng.below(500),
        // A stale counter (an older connection's) must not lower the total.
        1 => ledger.producer_dropped.saturating_sub(rng.below(3)),
        _ => ledger.producer_dropped,
    };
    let beats = (0..len)
        .map(|_| {
            ledger.seq += 1;
            ledger.ts += 1_000 + rng.below(2_000_000);
            let scope = if rng.below(10) == 0 {
                BeatScope::Local
            } else {
                BeatScope::Global
            };
            let tag = if rng.below(4) == 0 {
                Tag::new(rng.below(1000))
            } else {
                Tag::NONE
            };
            let thread = BeatThreadId(rng.below(4) as u32);
            WireBeat {
                record: HeartbeatRecord::new(ledger.seq, ledger.ts, tag, thread),
                scope,
            }
        })
        .collect();
    (app, dropped_total, beats)
}

fn run_mix(mixes: &[Interest], tap: bool, seed: u64) {
    let label = format!(
        "mix={:?} tap={tap}",
        mixes.iter().map(|m| m.bits()).collect::<Vec<_>>()
    );
    let state = CollectorState::new(CollectorConfig {
        upstream: tap.then(|| UpstreamConfig::new("127.0.0.1:9", "ledger-node")),
        ..CollectorConfig::default()
    });
    let subs: Vec<(Interest, LocalSubscription)> = mixes
        .iter()
        .map(|&interests| {
            let sub = state
                .subscribe_local("ledger-*", interests, Duration::ZERO)
                .unwrap();
            (interests, sub)
        })
        .collect();
    let handles: Vec<_> = APPS.iter().map(|app| state.handle(app)).collect();
    let mut rng = Rng(seed);
    let mut ledgers: Vec<AppLedger> = APPS.iter().map(|_| AppLedger::default()).collect();
    // The last health class each subscription was told, per app.
    let mut told: Vec<[Option<HealthStatus>; APPS.len()]> =
        subs.iter().map(|_| [None; APPS.len()]).collect();
    let mut accounted = 0u64;
    let mut records = 0u64;

    for index in 0..BATCHES {
        let (app, dropped_total, beats) = scripted_batch(&mut rng, index, &mut ledgers);
        let ledger = &mut ledgers[app];
        accounted += dropped_total.saturating_sub(ledger.producer_dropped) + beats.len() as u64;
        records += beats.len() as u64;
        ledger.producer_dropped = ledger.producer_dropped.max(dropped_total);
        ledger.total_beats += beats
            .iter()
            .filter(|beat| beat.scope == BeatScope::Global)
            .count() as u64;
        if index % 2 == 0 {
            state.ingest_batch(APPS[app], dropped_total, beats.iter().copied());
        } else {
            state.ingest_batch_with(&handles[app], dropped_total, beats.iter().copied());
        }
        assert_eq!(state.beats_accounted(), accounted, "{label} batch {index}");

        for (sub_index, (interests, sub)) in subs.iter().enumerate() {
            let events = sub.drain();
            if beats.is_empty() {
                assert!(
                    events.is_empty(),
                    "{label} batch {index}: an empty batch emitted {events:?}"
                );
                continue;
            }
            check_events(
                &label,
                index,
                *interests,
                &events,
                APPS[app],
                &ledgers[app],
                &mut told[sub_index][app],
                &beats,
                &state,
            );
        }
    }

    for (app, ledger) in APPS.iter().zip(&ledgers) {
        let snap = state.snapshot(app).unwrap();
        assert_eq!(snap.total_beats, ledger.total_beats, "{label} {app}");
        assert_eq!(
            snap.producer_dropped, ledger.producer_dropped,
            "{label} {app}"
        );
    }
    match state.upstream_tap() {
        Some(capture) => {
            assert!(tap);
            assert_eq!(capture.captured_beats(), records, "{label}");
        }
        None => assert!(!tap, "{label}: upstream configured but no tap"),
    }
    for (_, sub) in &subs {
        assert_eq!(sub.dropped(), 0, "{label}: the ledger drains every batch");
    }
}

/// Checks the events one subscription got for one non-empty batch.
#[allow(clippy::too_many_arguments)]
fn check_events(
    label: &str,
    index: usize,
    interests: Interest,
    events: &[EventFrame],
    app: &str,
    ledger: &AppLedger,
    told: &mut Option<HealthStatus>,
    beats: &[WireBeat],
    state: &CollectorState,
) {
    let at = format!("{label} batch {index} interests={}", interests.bits());
    let mut received = Vec::new();
    let mut snapshots = 0;
    let mut transitions = 0;
    for event in events {
        assert_eq!(event.app, app, "{at}");
        assert_eq!(event.sub_id, 0, "{at}");
        match &event.payload {
            EventPayload::Snapshot {
                total_beats,
                producer_dropped,
                alive,
                ..
            } => {
                assert!(
                    interests.contains(Interest::SNAPSHOTS),
                    "{at}: unasked snapshot"
                );
                assert!(
                    received.is_empty(),
                    "{at}: a snapshot after the batch's beats"
                );
                assert_eq!(*total_beats, ledger.total_beats, "{at}: post-batch total");
                assert_eq!(*producer_dropped, ledger.producer_dropped, "{at}");
                assert!(alive, "{at}");
                snapshots += 1;
            }
            EventPayload::HealthTransition { from, to, .. } => {
                assert!(
                    interests.contains(Interest::HEALTH),
                    "{at}: unasked transition"
                );
                assert!(
                    received.is_empty(),
                    "{at}: a transition after the batch's beats"
                );
                assert_eq!(*from, told.unwrap_or(HealthStatus::NoSignal), "{at}");
                assert_ne!(from, to, "{at}");
                assert_eq!(*to, state.health(app).unwrap().status, "{at}");
                *told = Some(*to);
                transitions += 1;
            }
            EventPayload::Beats {
                dropped_total,
                beats: chunk,
            } => {
                assert!(interests.contains(Interest::BEATS), "{at}: unasked beats");
                assert_eq!(
                    *dropped_total, ledger.producer_dropped,
                    "{at}: the entry's drop counter"
                );
                assert!(!chunk.is_empty() && chunk.len() <= MAX_EVENT_BEATS, "{at}");
                received.extend_from_slice(chunk);
            }
        }
    }
    assert_eq!(
        snapshots,
        usize::from(interests.contains(Interest::SNAPSHOTS)),
        "{at}: one snapshot per batch at a zero interval"
    );
    assert!(transitions <= 1, "{at}");
    if interests.contains(Interest::BEATS) {
        assert_eq!(
            received, beats,
            "{at}: exactly the batch's records, in order"
        );
    }
}

#[test]
fn every_watcher_mix_keeps_the_ingest_ledger_exact() {
    let mixes: [&[Interest]; 6] = [
        &[],
        &[Interest::SNAPSHOTS],
        &[Interest::HEALTH],
        &[Interest::BEATS],
        &[Interest::BEATS | Interest::SNAPSHOTS],
        &[Interest::BEATS, Interest::BEATS],
    ];
    for (n, mix) in mixes.iter().enumerate() {
        for tap in [false, true] {
            run_mix(mix, tap, 0x5EED_0000 + n as u64);
        }
    }
}
