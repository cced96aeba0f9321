//! Proves the reactor's Beats decode→ingest path is allocation-free at
//! steady state: a counting global allocator measures the exact number of
//! heap operations while frames flow through `FrameDecoder::next_event`
//! (yielding borrowing `BeatsView`s) into
//! `CollectorState::ingest_batch_with` — and requires zero.
//!
//! The file contains a single test so no concurrent test thread can
//! attribute its allocations to the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hb_net::frame::{FrameDecoder, FrameEvent};
use hb_net::wire::{BatchEncoder, WireBeat};
use hb_net::{CollectorConfig, CollectorState};
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

/// Encodes one batch frame of `n` beats starting at `base`, reusing
/// `encoder`'s buffer.
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
fn beats_decode_to_ingest_allocates_nothing_at_steady_state() {
    const BATCH: u64 = 64;
    let state = CollectorState::new(CollectorConfig::default());
    let handle = state.hello("alloc-probe", 1, 20);
    let mut encoder = BatchEncoder::new();
    let mut decoder = FrameDecoder::new();
    let mut base = 0u64;
    // Warm-up: grow the decoder buffer to steady state, create the registry
    // entry's rate window/history ring, and fill the moving window to its
    // bound (frames are encoded up front so the measured loop touches
    // producer-side buffers not at all).
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
    let measured_frames = encode_frames(256);
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
    drive(&mut decoder, &warm_frames);

    let before = ALLOC_OPS.load(Ordering::Relaxed);
    drive(&mut decoder, &measured_frames);
    let after = ALLOC_OPS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "decode→ingest of 256 frames must not allocate"
    );

    // The beats really arrived.
    let snap = state.snapshot("alloc-probe").unwrap();
    assert_eq!(snap.total_beats, (64 + 256) * BATCH);
}
