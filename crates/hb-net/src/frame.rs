//! Stream adapters: reading and writing [`Frame`]s over any
//! `std::io::Read`/`Write` transport (TCP sockets in production, in-memory
//! buffers in tests), plus the incremental [`FrameDecoder`] used by the
//! non-blocking reactor path where reads arrive in arbitrary fragments.

use std::io::{self, Read, Write};

use crate::crc::crc32;
use crate::error::{NetError, Result};
use crate::wire::{is_beats_kind, BeatsView, Frame, HEADER_LEN};

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

/// Incremental frame decoder for non-blocking transports.
///
/// The blocking [`FrameReader`] owns its transport and can simply block until
/// a full frame arrives. An event-driven server cannot: `epoll` hands it
/// arbitrary byte fragments — half a header, three frames and a tail, … — and
/// the decoder must accumulate them and yield frames as they complete.
///
/// [`push`](FrameDecoder::push) appends freshly read bytes;
/// [`next_frame`](FrameDecoder::next_frame) yields decoded frames until the
/// buffered bytes no longer hold a complete one. Payloads are parsed in place
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

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly received bytes to the accumulation buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, or `Ok(None)` if more bytes are
    /// needed. Protocol violations (bad magic, CRC mismatch, oversized
    /// payload) are permanent errors: the stream cannot be resynchronized.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let avail = &self.buf[self.start..]; // hb-lint: allow(index): start <= buf.len() is the FrameBuf invariant
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let (kind, payload_len, crc) = Frame::decode_header(avail)?;
        let total = HEADER_LEN + payload_len;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode_payload(kind, &avail[HEADER_LEN..total], crc)?; // hb-lint: allow(index): avail.len() >= total checked just above
        self.start += total;
        Ok(Some(frame))
    }

    /// Like [`next_frame`](Self::next_frame), but yields beat batches as a
    /// borrowing [`BeatsView`] over the accumulation buffer instead of
    /// materializing a `Vec<WireBeat>` — the reactor's allocation-free
    /// ingest path. The view's borrow ends before the next `push`/
    /// `next_event` call, which is exactly the consume-then-continue shape
    /// of a handler loop.
    pub fn next_event(&mut self) -> Result<Option<FrameEvent<'_>>> {
        let avail = &self.buf[self.start..]; // hb-lint: allow(index): start <= buf.len() is the FrameBuf invariant
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let (kind, payload_len, crc) = Frame::decode_header(avail)?;
        let total = HEADER_LEN + payload_len;
        if avail.len() < total {
            return Ok(None);
        }
        // Consume the frame first; the returned view borrows the (now
        // dead-prefix) bytes, which outlive it because push() only compacts
        // on the *next* call.
        self.start += total;
        let payload = &self.buf[self.start - payload_len..self.start]; // hb-lint: allow(index): start was just advanced past a frame of payload_len bytes
        if crc32(payload) != crc {
            return Err(NetError::Protocol("payload CRC mismatch".into()));
        }
        if is_beats_kind(kind) {
            Ok(Some(FrameEvent::Beats(BeatsView::parse(kind, payload)?)))
        } else {
            Ok(Some(FrameEvent::Control(Frame::decode_payload_body(
                kind, payload,
            )?)))
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True if the stream ended mid-frame: bytes remain that do not form a
    /// complete frame. Used to distinguish a clean EOF from truncation.
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }
}

/// Reads frames off a byte stream, validating each one.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a readable transport.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            payload: Vec::new(),
        }
    }

    /// The underlying transport.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Reads the next frame. Returns `Ok(None)` on a clean end-of-stream at
    /// a frame boundary; an EOF mid-frame is [`NetError::UnexpectedEof`].
    pub fn read_frame(&mut self) -> Result<Option<Frame>> {
        let mut header = [0u8; HEADER_LEN];
        match read_exact_or_eof(&mut self.inner, &mut header, false)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Partial => return Err(NetError::UnexpectedEof),
            ReadOutcome::Full => {}
        }
        let (kind, payload_len, crc) = Frame::decode_header(&header)?;
        self.payload.resize(payload_len, 0);
        if payload_len > 0 {
            // The payload is mid-frame by definition, so timeouts retry.
            match read_exact_or_eof(&mut self.inner, &mut self.payload, true)? {
                ReadOutcome::Full => {}
                ReadOutcome::Eof | ReadOutcome::Partial => return Err(NetError::UnexpectedEof),
            }
        }
        Ok(Some(Frame::decode_payload(kind, &self.payload, crc)?))
    }
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// Fills `buf` completely, distinguishing "no bytes at all" (clean EOF) from
/// "some but not all" (truncated frame).
///
/// Read timeouts (used by servers to poll a shutdown flag) are surfaced to
/// the caller only between frames — `buf` still empty and not `mid_frame`.
/// Once a frame has started arriving, timeouts are retried (boundedly) so a
/// mid-frame pause never desynchronizes the stream.
fn read_exact_or_eof<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    mid_frame: bool,
) -> Result<ReadOutcome> {
    let mut filled = 0;
    let mut stalls = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) { // hb-lint: allow(index): filled < buf.len() is the loop condition
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                })
            }
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err)
                if (filled > 0 || mid_frame)
                    && matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                stalls += 1;
                if stalls > 100 {
                    return Err(NetError::UnexpectedEof);
                }
            }
            Err(err) => return Err(NetError::Io(err)),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Writes frames onto a byte stream, reusing one encode buffer.
#[derive(Debug)]
pub struct FrameWriter<W> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a writable transport.
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            buf: Vec::with_capacity(4096),
        }
    }

    /// The underlying transport.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Encodes and writes one frame.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<()> {
        self.buf.clear();
        frame.encode_into(&mut self.buf);
        self.inner.write_all(&self.buf)?;
        Ok(())
    }

    /// Writes bytes that are already a fully encoded frame (e.g. produced by
    /// a [`BatchEncoder`](crate::wire::BatchEncoder)), skipping re-encoding.
    pub fn write_encoded(&mut self, frame_bytes: &[u8]) -> Result<()> {
        self.inner.write_all(frame_bytes)?;
        Ok(())
    }

    /// Flushes the transport.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{BeatBatch, Hello};
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

    #[test]
    fn stream_roundtrip() {
        let mut wire = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut wire);
            for frame in sample_frames() {
                writer.write_frame(&frame).unwrap();
            }
            writer.flush().unwrap();
        }
        let mut reader = FrameReader::new(wire.as_slice());
        for expected in sample_frames() {
            assert_eq!(reader.read_frame().unwrap(), Some(expected));
        }
        assert_eq!(reader.read_frame().unwrap(), None, "clean EOF");
    }

    #[test]
    fn eof_mid_frame_is_an_error() {
        let bytes = Frame::Bye.encode();
        let mut reader = FrameReader::new(&bytes[..HEADER_LEN - 2]);
        assert!(matches!(
            reader.read_frame(),
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
        let mut reader = FrameReader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(
            reader.read_frame(),
            Err(NetError::UnexpectedEof)
        ));
    }

    #[test]
    fn garbage_stream_is_a_protocol_error() {
        let mut reader = FrameReader::new(&[0xFFu8; 64][..]);
        assert!(matches!(
            reader.read_frame(),
            Err(NetError::Protocol(_))
        ));
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
        assert!(!decoder.has_partial(), "stream ended at a frame boundary");
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
        assert!(decoder.has_partial());
        decoder.push(&bytes[bytes.len() - 1..]);
        assert!(matches!(
            decoder.next_frame().unwrap(),
            Some(Frame::Hello(_))
        ));
        assert!(!decoder.has_partial());
    }

    #[test]
    fn decoder_surfaces_protocol_errors() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&[0xFFu8; 64]);
        assert!(matches!(
            decoder.next_frame(),
            Err(NetError::Protocol(_))
        ));
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
        assert!(!decoder.has_partial());
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

    #[test]
    fn write_encoded_matches_write_frame() {
        let frame = Frame::Target {
            min_bps: 3.5,
            max_bps: 4.5,
        };
        let mut via_frame = Vec::new();
        FrameWriter::new(&mut via_frame).write_frame(&frame).unwrap();
        let mut via_bytes = Vec::new();
        FrameWriter::new(&mut via_bytes)
            .write_encoded(&frame.encode())
            .unwrap();
        assert_eq!(via_frame, via_bytes);
    }
}
