//! Pins the steady-state allocations of a *watched* app's ingest: one
//! `SNAPSHOTS` subscriber throttled by a 1 h `min_interval`, so after the
//! first snapshot no event is ever due. A counting global allocator
//! measures the heap operations while 256 frames flow through
//! `FrameDecoder::next_event` into `CollectorState::ingest_batch_with`.
//!
//! The per-app watch is looked up without allocating its key, so the only
//! allocation left is the one-element `Vec` that
//! `SubscriptionRegistry::matching` returns: exactly one per batch.
//!
//! The file contains a single test so no concurrent test thread can
//! attribute its allocations to the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hb_net::frame::{FrameDecoder, FrameEvent};
use hb_net::wire::{BatchEncoder, WireBeat};
use hb_net::{CollectorConfig, CollectorState};
use heartbeats::observe::Interest;
use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

struct CountingAllocator;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Encodes one batch frame of `n` beats starting at `base`.
fn encode_batch(encoder: &mut BatchEncoder, base: u64, n: u64) -> Vec<u8> {
    encoder.begin_compact(0);
    for i in 0..n {
        let seq = base + i;
        encoder.push(&WireBeat {
            record: HeartbeatRecord::new(seq, seq * 1_000_000 + 17, Tag::NONE, BeatThreadId(0)),
            scope: BeatScope::Global,
        });
    }
    encoder.finish().to_vec()
}

#[test]
fn a_throttled_snapshot_watch_allocates_once_per_batch() {
    const BATCH: u64 = 64;
    const FRAMES: usize = 256;
    let state = CollectorState::new(CollectorConfig::default());
    let handle = state.hello("alloc-watched", 1, 20);
    let sub = state
        .subscribe_local(
            "alloc-watched",
            Interest::SNAPSHOTS,
            Duration::from_secs(3600),
        )
        .unwrap();
    let mut encoder = BatchEncoder::new();
    let mut decoder = FrameDecoder::new();
    let mut base = 0u64;
    let mut encode_frames = |count: usize| -> Vec<Vec<u8>> {
        (0..count)
            .map(|_| {
                let f = encode_batch(&mut encoder, base, BATCH);
                base += BATCH;
                f
            })
            .collect()
    };
    let warm_frames = encode_frames(64);
    let measured_frames = encode_frames(FRAMES);
    let drive = |decoder: &mut FrameDecoder, frames: &[Vec<u8>]| {
        for frame in frames {
            decoder.push(frame);
            while let Some(event) = decoder.next_event().unwrap() {
                match event {
                    FrameEvent::Beats(view) => {
                        state.ingest_batch_with(&handle, view.dropped_total(), view.iter());
                    }
                    FrameEvent::Control(other) => panic!("unexpected frame {other:?}"),
                }
            }
        }
    };
    // Warm-up: grows the buffers, creates the app's watch and delivers the
    // one snapshot the interval allows.
    drive(&mut decoder, &warm_frames);

    let before = ALLOC_OPS.load(Ordering::Relaxed);
    drive(&mut decoder, &measured_frames);
    let after = ALLOC_OPS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        FRAMES as u64,
        "a watched app's ingest must allocate only the matched-subscription list, once per batch"
    );

    let snap = state.snapshot("alloc-watched").unwrap();
    assert_eq!(snap.total_beats, (64 + FRAMES as u64) * BATCH);
    drop(sub);
}
