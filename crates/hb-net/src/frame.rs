//! The frame layer: [`FrameDecoder`] turns a byte stream into [`Frame`]s,
//! whether the bytes arrive as arbitrary fragments on a non-blocking
//! reactor connection ([`push`](FrameDecoder::push) +
//! [`next_event`](FrameDecoder::next_event)) or off a blocking socket with a
//! deadline ([`read_frame`](FrameDecoder::read_frame)). Every frame hb-net
//! reads is split off its stream by one step, `split_frame`: header, length,
//! CRC.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::crc::crc32;
use crate::error::{NetError, Result};
use crate::wire::{is_beats_kind, BeatBatch, BeatsView, Frame, HEADER_LEN};

/// Splits the frame at the front of `avail`: validates its header, waits
/// for its whole payload and checks the payload's CRC. `Ok(None)` means
/// more bytes are needed; `Some((kind, payload, total))` borrows the
/// payload, and `total` counts the header too. Errors are permanent: a
/// stream cannot be resynchronized after one.
pub(crate) fn split_frame(avail: &[u8]) -> Result<Option<(u8, &[u8], usize)>> {
    if avail.len() < HEADER_LEN {
        return Ok(None);
    }
    let (kind, payload_len, crc) = Frame::decode_header(avail)?;
    let total = HEADER_LEN + payload_len;
    let Some(payload) = avail.get(HEADER_LEN..total) else {
        return Ok(None);
    };
    if crc32(payload) != crc {
        return Err(NetError::Protocol("payload CRC mismatch".into()));
    }
    Ok(Some((kind, payload, total)))
}

/// One decoded message from a [`FrameDecoder`], borrowing beat payloads in
/// place.
///
/// Beat batches — the hot path, thousands per second per connection — are
/// yielded as a [`BeatsView`] over the decoder's receive buffer, so the
/// decode→ingest path allocates nothing per frame. Everything else (hellos,
/// targets, queries; rare, tiny) is materialized as an owned [`Frame`].
#[derive(Debug)]
pub enum FrameEvent<'a> {
    /// A beat batch, validated and iterable in place.
    Beats(BeatsView<'a>),
    /// Any non-batch frame, decoded to its owned representation.
    Control(Frame),
}

impl FrameEvent<'_> {
    /// The wire kind byte of the frame this event was decoded from.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            FrameEvent::Beats(_) => crate::wire::KIND_BEATS,
            FrameEvent::Control(frame) => frame.kind(),
        }
    }
}

/// Incremental frame decoder: hb-net's one frame parser.
///
/// `epoll` hands an event-driven connection arbitrary byte fragments — half
/// a header, three frames and a tail, … — so the decoder accumulates them
/// and yields frames as they complete. [`push`](FrameDecoder::push) appends
/// freshly read bytes; [`next_frame`](FrameDecoder::next_frame) yields
/// decoded frames until the buffered bytes no longer hold a complete one.
/// A blocking socket reads through the same buffer with
/// [`read_frame`](FrameDecoder::read_frame). Payloads are parsed in place
/// from the accumulation buffer (no per-frame payload copy); the consumed
/// prefix is compacted away lazily so steady-state decoding does not shift
/// bytes on every frame.
///
/// ```
/// use hb_net::frame::FrameDecoder;
/// use hb_net::wire::Frame;
///
/// let bytes = Frame::Bye.encode();
/// let mut decoder = FrameDecoder::new();
/// decoder.push(&bytes[..3]); // a fragment: not decodable yet
/// assert_eq!(decoder.next_frame().unwrap(), None);
/// decoder.push(&bytes[3..]);
/// assert_eq!(decoder.next_frame().unwrap(), Some(Frame::Bye));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-yielded frames.
    start: usize,
}

/// Compact the buffer once the dead prefix crosses this threshold (or the
/// buffer has been fully consumed, which makes compaction free).
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// The least and the most a blocking [`read_frame`](FrameDecoder::read_frame)
/// asks the socket for at once. The least is a `BufReader`'s capacity; in
/// between, a read asks for as much as is buffered, so a large frame takes
/// few reads, and the zero-filled room for one read stays bounded.
const READ_CHUNK: usize = 8 * 1024;
const READ_MAX: usize = 64 * 1024;

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes to the accumulation buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Drops the consumed prefix when that is free or it has grown large.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed: [`next_event`](Self::next_event) with a beat batch
    /// materialized. Protocol violations (bad magic, CRC mismatch,
    /// oversized payload) are permanent errors: the stream cannot be
    /// resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        Ok(self.next_event()?.map(|event| match event {
            FrameEvent::Beats(view) => Frame::Beats(BeatBatch {
                dropped_total: view.dropped_total(),
                beats: view.iter().collect(),
            }),
            FrameEvent::Control(frame) => frame,
        }))
    }

    /// Like [`next_frame`](Self::next_frame), but yields beat batches as a
    /// borrowing [`BeatsView`] over the accumulation buffer instead of
    /// materializing a `Vec<WireBeat>` — the reactor's allocation-free
    /// ingest path. The view's borrow ends before the next `push`/
    /// `next_event` call, which is exactly the consume-then-continue shape
    /// of a handler loop.
    pub fn next_event(&mut self) -> Result<Option<FrameEvent<'_>>> {
        let avail = &self.buf[self.start..]; // hb-lint: allow(index): start <= buf.len() is the FrameBuf invariant
        let Some((kind, payload, total)) = split_frame(avail)? else {
            return Ok(None);
        };
        // Consume the frame first; the returned view borrows the (now
        // dead-prefix) bytes, which outlive it because push() only compacts
        // on the *next* call.
        self.start += total;
        if is_beats_kind(kind) {
            Ok(Some(FrameEvent::Beats(BeatsView::parse(kind, payload)?)))
        } else {
            Ok(Some(FrameEvent::Control(Frame::decode_payload_body(
                kind, payload,
            )?)))
        }
    }

    /// Blocks on `stream` for the next frame until `deadline`: each read
    /// waits at most the time left. `Ok(None)` is a clean end of stream at a
    /// frame boundary; a stream that ends mid-frame is
    /// [`NetError::UnexpectedEof`], and one still short of a frame at the
    /// deadline is an I/O error — however its bytes trickle in.
    pub fn read_frame(&mut self, stream: &TcpStream, deadline: Instant) -> Result<Option<Frame>> {
        self.read_frame_with(deadline, |buf, left| {
            stream.set_read_timeout(Some(left))?;
            let mut stream = stream;
            stream.read(buf)
        })
    }

    /// [`read_frame`](Self::read_frame) over any source: `read(buf, left)`
    /// reads once into `buf`, waiting at most `left`.
    fn read_frame_with(
        &mut self,
        deadline: Instant,
        mut read: impl FnMut(&mut [u8], Duration) -> io::Result<usize>,
    ) -> Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(Some(frame));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::from(io::ErrorKind::TimedOut).into());
            }
            self.compact();
            let len = self.buf.len();
            self.buf
                .resize(len + self.buffered().clamp(READ_CHUNK, READ_MAX), 0);
            let got = read(&mut self.buf[len..], left); // hb-lint: allow(index): len is the length before the resize
            self.buf.truncate(len + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) if self.buffered() > 0 => return Err(NetError::UnexpectedEof),
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err.into()),
            }
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame: after the
    /// stream's end, more than 0 means it ended mid-frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Hello;
    use heartbeats::{BeatScope, BeatThreadId, HeartbeatRecord, Tag};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                app: "dedup".into(),
                pid: 77,
                default_window: 40,
            }),
            Frame::Beats(BeatBatch {
                dropped_total: 3,
                beats: (0..10)
                    .map(|i| crate::wire::WireBeat {
                        record: HeartbeatRecord::new(i, i * 500, Tag::new(i), BeatThreadId(0)),
                        scope: BeatScope::Global,
                    })
                    .collect(),
            }),
            Frame::Target {
                min_bps: 10.0,
                max_bps: 20.0,
            },
            Frame::Bye,
        ]
    }

    /// The blocking read over an in-memory stream, its deadline out of
    /// reach.
    fn read_from(decoder: &mut FrameDecoder, stream: &mut &[u8]) -> Result<Option<Frame>> {
        let deadline = Instant::now() + Duration::from_secs(60);
        decoder.read_frame_with(deadline, |buf, _| stream.read(buf))
    }

    #[test]
    fn stream_roundtrip() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            frame.encode_into(&mut wire);
        }
        let (mut decoder, mut stream) = (FrameDecoder::new(), wire.as_slice());
        for expected in sample_frames() {
            assert_eq!(
                read_from(&mut decoder, &mut stream).unwrap(),
                Some(expected)
            );
        }
        assert_eq!(
            read_from(&mut decoder, &mut stream).unwrap(),
            None,
            "clean EOF"
        );
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let bytes = Frame::Bye.encode();
        assert!(matches!(
            read_from(&mut FrameDecoder::new(), &mut &bytes[..HEADER_LEN - 2]),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn eof_mid_payload_is_an_error() {
        let bytes = Frame::Hello(Hello {
            app: "canneal".into(),
            pid: 9,
            default_window: 20,
        })
        .encode();
        assert!(matches!(
            read_from(&mut FrameDecoder::new(), &mut &bytes[..bytes.len() - 3]),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn garbage_stream_is_a_protocol_error() {
        assert!(matches!(
            read_from(&mut FrameDecoder::new(), &mut &[0xFFu8; 64][..]),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn a_read_timing_out_mid_frame_ends_the_read() {
        // A socket read that times out is the deadline passing, wherever
        // the frame stands: it is not retried.
        let bytes = Frame::Bye.encode();
        let mut sent = false;
        let outcome = FrameDecoder::new().read_frame_with(
            Instant::now() + Duration::from_secs(60),
            |buf, _| {
                if std::mem::replace(&mut sent, true) {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                buf[..8].copy_from_slice(&bytes[..8]);
                Ok(8)
            },
        );
        assert!(
            matches!(outcome, Err(NetError::Io(err)) if err.kind() == io::ErrorKind::WouldBlock)
        );
    }

    #[test]
    fn a_large_frame_is_read_in_bounded_steps() {
        let frame = Frame::Metrics {
            last: true,
            text: "x".repeat(3 * READ_MAX),
        };
        let wire = frame.encode();
        let mut reads = Vec::new();
        let mut stream = wire.as_slice();
        let read = FrameDecoder::new().read_frame_with(
            Instant::now() + Duration::from_secs(60),
            |buf, _| {
                reads.push(buf.len());
                stream.read(buf)
            },
        );
        assert_eq!(read.unwrap(), Some(frame));
        // Reads grow with what is buffered, up to READ_MAX each.
        assert_eq!(
            reads[..4],
            [READ_CHUNK, READ_CHUNK, 2 * READ_CHUNK, 4 * READ_CHUNK]
        );
        assert!(reads[4..].iter().all(|&n| n == READ_MAX), "{reads:?}");
    }

    #[test]
    fn decoder_handles_byte_dribble() {
        // Feed a multi-frame stream one byte at a time; every frame must
        // come out intact exactly when its final byte lands.
        let mut wire = Vec::new();
        for frame in sample_frames() {
            frame.encode_into(&mut wire);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for &byte in &wire {
            decoder.push(&[byte]);
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, sample_frames());
        assert_eq!(decoder.buffered(), 0, "stream ended at a frame boundary");
    }

    #[test]
    fn decoder_yields_all_frames_from_one_push() {
        let mut wire = Vec::new();
        for frame in sample_frames() {
            frame.encode_into(&mut wire);
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        let mut decoded = Vec::new();
        while let Some(frame) = decoder.next_frame().unwrap() {
            decoded.push(frame);
        }
        assert_eq!(decoded, sample_frames());
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_reports_partial_tail() {
        let bytes = Frame::Hello(Hello {
            app: "streamcluster".into(),
            pid: 3,
            default_window: 20,
        })
        .encode();
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes[..bytes.len() - 1]);
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert!(decoder.buffered() > 0);
        decoder.push(&bytes[bytes.len() - 1..]);
        assert!(matches!(
            decoder.next_frame().unwrap(),
            Some(Frame::Hello(_))
        ));
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn decoder_surfaces_protocol_errors() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&[0xFFu8; 64]);
        assert!(matches!(decoder.next_frame(), Err(NetError::Protocol(_))));
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        // Run enough frames through one decoder that the consumed prefix
        // would grow without bound if never compacted.
        let bytes = Frame::Beats(BeatBatch {
            dropped_total: 0,
            beats: (0..64)
                .map(|i| crate::wire::WireBeat {
                    record: HeartbeatRecord::new(i, i * 10, Tag::NONE, BeatThreadId(0)),
                    scope: BeatScope::Global,
                })
                .collect(),
        })
        .encode();
        let mut decoder = FrameDecoder::new();
        for _ in 0..1_000 {
            decoder.push(&bytes);
            assert!(decoder.next_frame().unwrap().is_some());
        }
        assert_eq!(decoder.buffered(), 0);
        // The internal buffer must stay near one frame's size, not 1000×.
        assert!(
            decoder.buf.capacity() < bytes.len() + 2 * super::COMPACT_THRESHOLD,
            "decoder buffer grew to {} bytes",
            decoder.buf.capacity()
        );
    }

    #[test]
    fn next_event_yields_borrowing_views_for_beat_batches() {
        use crate::wire::{BatchEncoder, WireBeat};

        let beats: Vec<WireBeat> = (0..20)
            .map(|i| WireBeat {
                record: HeartbeatRecord::new(i, 1_000_000 * i + 17, Tag::NONE, BeatThreadId(0)),
                scope: BeatScope::Global,
            })
            .collect();
        let mut wire = Vec::new();
        Frame::Hello(Hello {
            app: "mix".into(),
            pid: 1,
            default_window: 20,
        })
        .encode_into(&mut wire);
        // The same records through the owned frame and the BatchEncoder.
        Frame::Beats(BeatBatch {
            dropped_total: 5,
            beats: beats.clone(),
        })
        .encode_into(&mut wire);
        let mut encoder = BatchEncoder::new();
        encoder.begin_compact(6);
        for beat in &beats {
            encoder.push(beat);
        }
        wire.extend_from_slice(encoder.finish());
        Frame::Bye.encode_into(&mut wire);

        // Feed in awkward fragments; events must appear exactly when the
        // final byte of each frame lands.
        let mut decoder = FrameDecoder::new();
        let mut hellos = 0;
        let mut byes = 0;
        let mut batches = Vec::new();
        for chunk in wire.chunks(7) {
            decoder.push(chunk);
            loop {
                match decoder.next_event().unwrap() {
                    Some(FrameEvent::Control(Frame::Hello(_))) => hellos += 1,
                    Some(FrameEvent::Control(Frame::Bye)) => byes += 1,
                    Some(FrameEvent::Control(other)) => panic!("unexpected {other:?}"),
                    Some(FrameEvent::Beats(view)) => {
                        let collected: Vec<WireBeat> = view.iter().collect();
                        batches.push((view.dropped_total(), collected));
                    }
                    None => break,
                }
            }
        }
        assert_eq!(hellos, 1);
        assert_eq!(byes, 1);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], (5, beats.clone()));
        assert_eq!(batches[1], (6, beats));
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn next_event_surfaces_crc_and_protocol_errors() {
        let mut bytes = Frame::Hello(Hello {
            app: "x".into(),
            pid: 1,
            default_window: 20,
        })
        .encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        assert!(matches!(
            decoder.next_event(),
            Err(NetError::Protocol(msg)) if msg.contains("CRC")
        ));
    }
}
