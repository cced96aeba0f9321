//! The heartbeat-instrumented encoder.
//!
//! [`HbEncoder`] encodes a [`VideoTrace`] frame by frame in virtual time: each
//! frame advances the shared clock by its modelled cost and registers one
//! heartbeat tagged with the frame type, exactly as the instrumented x264 of
//! Section 5.2 does. The encoder itself never adapts — that is the job of
//! [`AdaptiveEncoder`](crate::AdaptiveEncoder) — which makes it the
//! "unmodified x264" baseline for Figures 4 and 8.

use std::sync::Arc;

use heartbeats::{Heartbeat, HeartbeatBuilder, HeartbeatReader, ManualClock, Tag};
use simcore::Machine;

use crate::knobs::EncoderConfig;
use crate::model::EncoderModel;
use crate::video::{FrameType, VideoTrace};

/// The result of encoding one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedFrame {
    /// Frame index in display order.
    pub frame: u64,
    /// Frame type (also carried as the heartbeat tag).
    pub frame_type: FrameType,
    /// Virtual seconds the frame took to encode.
    pub seconds: f64,
    /// PSNR achieved for this frame, in dB.
    pub psnr_db: f64,
    /// Configuration used for this frame.
    pub config: EncoderConfig,
    /// Cores the frame was encoded on.
    pub cores: usize,
}

/// A non-adaptive, heartbeat-instrumented H.264-like encoder.
#[derive(Debug)]
pub struct HbEncoder {
    model: EncoderModel,
    trace: VideoTrace,
    config: EncoderConfig,
    heartbeat: Heartbeat,
    clock: ManualClock,
    next_frame: usize,
    total_seconds: f64,
}

impl HbEncoder {
    /// Creates an encoder on `machine`'s clock with the given starting
    /// configuration. The heartbeat window defaults to the 40-frame window
    /// the paper's adaptive encoder uses.
    pub fn new(
        trace: VideoTrace,
        model: EncoderModel,
        config: EncoderConfig,
        machine: &Machine,
    ) -> Self {
        Self::with_window(trace, model, config, machine, 40)
    }

    /// Creates an encoder with an explicit heartbeat window.
    pub fn with_window(
        trace: VideoTrace,
        model: EncoderModel,
        config: EncoderConfig,
        machine: &Machine,
        window: usize,
    ) -> Self {
        let clock = machine.clock();
        let heartbeat = HeartbeatBuilder::new("x264-encoder")
            .window(window)
            .capacity(trace.len().clamp(64, 1 << 16))
            .clock(Arc::new(clock.clone()))
            .build()
            .expect("encoder heartbeat configuration is valid");
        HbEncoder {
            model,
            trace,
            config,
            heartbeat,
            clock,
            next_frame: 0,
            total_seconds: 0.0,
        }
    }

    /// The encoder's heartbeat producer.
    pub fn heartbeat(&self) -> &Heartbeat {
        &self.heartbeat
    }

    /// A read-only observer for the encoder's heartbeat.
    pub fn reader(&self) -> HeartbeatReader {
        self.heartbeat.reader()
    }

    /// The active configuration.
    pub fn config(&self) -> EncoderConfig {
        self.config
    }

    /// Switches the configuration used for subsequent frames.
    pub fn set_config(&mut self, config: EncoderConfig) {
        self.config = config;
    }

    /// The cost/quality model.
    pub fn model(&self) -> &EncoderModel {
        &self.model
    }

    /// The input trace.
    pub fn trace(&self) -> &VideoTrace {
        &self.trace
    }

    /// Frames encoded so far.
    pub fn frames_encoded(&self) -> u64 {
        self.next_frame as u64
    }

    /// Total virtual seconds spent encoding so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.total_seconds
    }

    /// True once the whole trace has been encoded.
    pub fn is_done(&self) -> bool {
        self.next_frame >= self.trace.len()
    }

    /// Encodes the next frame on `cores` cores, advancing the virtual clock
    /// and registering a heartbeat tagged with the frame type. Returns `None`
    /// when the trace is exhausted.
    pub fn encode_next(&mut self, cores: usize) -> Option<EncodedFrame> {
        let frame = *self.trace.frame(self.next_frame)?;
        let cores = cores.max(1);
        let seconds = self.model.frame_seconds(&frame, &self.config, cores);
        let psnr_db = self.model.frame_psnr(&frame, &self.config);
        self.clock.advance_secs(seconds);
        self.heartbeat
            .heartbeat_tagged(Tag::new(frame.frame_type.as_tag()));
        self.next_frame += 1;
        self.total_seconds += seconds;
        Some(EncodedFrame {
            frame: frame.index,
            frame_type: frame.frame_type,
            seconds,
            psnr_db,
            config: self.config,
            cores,
        })
    }

    /// Encodes the remaining frames on a fixed core count and returns every
    /// per-frame result.
    pub fn encode_all(&mut self, cores: usize) -> Vec<EncodedFrame> {
        let mut frames = Vec::with_capacity(self.trace.len() - self.next_frame);
        while let Some(encoded) = self.encode_next(cores) {
            frames.push(encoded);
        }
        frames
    }

    /// Lifetime average heart rate (frames per second) so far.
    pub fn average_rate(&self) -> Option<f64> {
        if self.total_seconds > 0.0 {
            Some(self.next_frame as f64 / self.total_seconds)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::paper_testbed()
    }

    #[test]
    fn demanding_encode_runs_near_paper_rate() {
        let machine = machine();
        let mut encoder = HbEncoder::new(
            VideoTrace::demanding_uniform(300, 1),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine,
        );
        let frames = encoder.encode_all(8);
        assert_eq!(frames.len(), 300);
        assert!(encoder.is_done());
        let rate = encoder.average_rate().unwrap();
        assert!((7.0..11.0).contains(&rate), "average rate {rate:.2}");
        assert_eq!(encoder.heartbeat().total_beats(), 300);
    }

    #[test]
    fn heartbeats_carry_frame_type_tags() {
        let machine = machine();
        let mut encoder = HbEncoder::new(
            VideoTrace::demanding_uniform(50, 2),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine,
        );
        encoder.encode_all(8);
        let history = encoder.heartbeat().history(50);
        assert_eq!(history.len(), 50);
        for record in history {
            assert!(FrameType::from_tag(record.tag.value()).is_some());
        }
    }

    #[test]
    fn cheaper_config_is_faster_and_lower_quality() {
        let trace = VideoTrace::demanding_uniform(100, 3);
        let machine_a = machine();
        let mut demanding = HbEncoder::new(
            trace.clone(),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine_a,
        );
        let demanding_frames = demanding.encode_all(8);

        let machine_b = machine();
        let mut fast = HbEncoder::new(
            trace,
            EncoderModel::paper(),
            EncoderConfig::fastest(),
            &machine_b,
        );
        let fast_frames = fast.encode_all(8);

        assert!(fast.average_rate().unwrap() > demanding.average_rate().unwrap() * 4.0);
        let mean_psnr = |frames: &[EncodedFrame]| {
            frames.iter().map(|f| f.psnr_db).sum::<f64>() / frames.len() as f64
        };
        let quality_loss = mean_psnr(&demanding_frames) - mean_psnr(&fast_frames);
        assert!(
            quality_loss > 0.3 && quality_loss < 1.5,
            "loss {quality_loss:.2} dB"
        );
    }

    #[test]
    fn config_can_be_changed_mid_run() {
        let machine = machine();
        let mut encoder = HbEncoder::new(
            VideoTrace::demanding_uniform(20, 4),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine,
        );
        let slow = encoder.encode_next(8).unwrap();
        encoder.set_config(EncoderConfig::fastest());
        let fast = encoder.encode_next(8).unwrap();
        assert_eq!(encoder.config(), EncoderConfig::fastest());
        assert!(fast.seconds < slow.seconds);
        assert_eq!(fast.config, EncoderConfig::fastest());
    }

    #[test]
    fn reader_sees_the_windowed_rate() {
        let machine = machine();
        let mut encoder = HbEncoder::with_window(
            VideoTrace::demanding_uniform(120, 5),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine,
            20,
        );
        let reader = encoder.reader();
        encoder.encode_all(8);
        let windowed = reader.current_rate(0).unwrap();
        assert!(
            (6.0..12.0).contains(&windowed),
            "windowed rate {windowed:.2}"
        );
    }

    #[test]
    fn fewer_cores_slow_the_encode() {
        let trace = VideoTrace::demanding_uniform(60, 6);
        let machine_a = machine();
        let mut eight = HbEncoder::new(
            trace.clone(),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine_a,
        );
        eight.encode_all(8);
        let machine_b = machine();
        let mut two = HbEncoder::new(
            trace,
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine_b,
        );
        two.encode_all(2);
        assert!(two.average_rate().unwrap() < eight.average_rate().unwrap());
    }

    #[test]
    fn exhausted_encoder_returns_none() {
        let machine = machine();
        let mut encoder = HbEncoder::new(
            VideoTrace::demanding_uniform(3, 7),
            EncoderModel::paper(),
            EncoderConfig::paper_demanding(),
            &machine,
        );
        assert!(encoder.average_rate().is_none());
        encoder.encode_all(8);
        assert!(encoder.encode_next(8).is_none());
        assert_eq!(encoder.frames_encoded(), 3);
        assert!(encoder.elapsed_seconds() > 0.0);
    }
}
