//! Synthetic video traces.
//!
//! The paper's experiments use two inputs: the PARSEC native sequence (whose
//! three performance phases are visible in Figure 2) and a "more
//! computationally demanding and more uniform" sequence chosen for the
//! adaptive-encoder experiments (Figures 3, 4, 8). A [`VideoTrace`] captures
//! what the cost/quality model needs from an input video: per-frame
//! complexity (how much work the frame takes relative to an average frame),
//! per-frame achievable PSNR, and the frame type (I/P/B) used as the
//! heartbeat tag.

use simcore::SplitMix64;

/// H.264 frame types, carried as heartbeat tags ("a video application may
/// wish to indicate the type of frame (I, B or P) to which the heartbeat
/// corresponds").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intra-coded frame.
    I,
    /// Predicted frame.
    P,
    /// Bi-directionally predicted frame.
    B,
}

impl FrameType {
    /// Encodes the frame type as a heartbeat tag value.
    pub fn as_tag(self) -> u64 {
        match self {
            FrameType::I => 1,
            FrameType::P => 2,
            FrameType::B => 3,
        }
    }

    /// Decodes a heartbeat tag value back into a frame type.
    pub fn from_tag(tag: u64) -> Option<FrameType> {
        match tag {
            1 => Some(FrameType::I),
            2 => Some(FrameType::P),
            3 => Some(FrameType::B),
            _ => None,
        }
    }
}

/// One frame of a synthetic input video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Frame index in display order.
    pub index: u64,
    /// Frame type (determines the heartbeat tag and part of the cost).
    pub frame_type: FrameType,
    /// Work required relative to an average frame (1.0 = average).
    pub complexity: f64,
    /// PSNR in dB the reference (most demanding) configuration achieves.
    pub base_psnr_db: f64,
}

/// A sequence of frames plus metadata about how it was generated.
#[derive(Debug, Clone)]
pub struct VideoTrace {
    name: String,
    frames: Vec<Frame>,
}

impl VideoTrace {
    /// Builds a trace from explicit frames.
    pub fn from_frames(name: impl Into<String>, frames: Vec<Frame>) -> Self {
        VideoTrace {
            name: name.into(),
            frames,
        }
    }

    /// The demanding, fairly uniform input used for the adaptive-encoder
    /// experiments (Figures 3, 4 and 8): complexity hovers around 1.0 with
    /// mild scene-to-scene variation and gets slightly easier toward the end
    /// (the paper notes performance "increases slightly towards the end of
    /// execution as the input video becomes slightly easier").
    pub fn demanding_uniform(frames: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let gop = 24; // one I frame per 24-frame group
        let frame_list = (0..frames as u64)
            .map(|index| {
                let in_gop = (index % gop) as usize;
                let frame_type = if in_gop == 0 {
                    FrameType::I
                } else if in_gop.is_multiple_of(3) {
                    FrameType::P
                } else {
                    FrameType::B
                };
                let type_cost = match frame_type {
                    FrameType::I => 1.25,
                    FrameType::P => 1.05,
                    FrameType::B => 0.92,
                };
                // Mild easing over the final quarter of the sequence.
                let progress = index as f64 / frames.max(1) as f64;
                let easing = if progress > 0.75 {
                    1.0 - 0.12 * (progress - 0.75) / 0.25
                } else {
                    1.0
                };
                let noise = 1.0 + 0.05 * rng.gaussian();
                let complexity = (type_cost * easing * noise).max(0.2);
                let base_psnr_db = 42.0 + 1.5 * rng.gaussian().clamp(-2.0, 2.0);
                Frame {
                    index,
                    frame_type,
                    complexity,
                    base_psnr_db,
                }
            })
            .collect();
        VideoTrace::from_frames("demanding-uniform", frame_list)
    }

    /// The PARSEC-native-like input whose phase structure produces Figure 2:
    /// hard frames up to ~100, a much easier stretch until ~330, then hard
    /// frames again.
    pub fn parsec_native(frames: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let gop = 30;
        let frame_list = (0..frames as u64)
            .map(|index| {
                let in_gop = (index % gop) as usize;
                let frame_type = if in_gop == 0 {
                    FrameType::I
                } else if in_gop.is_multiple_of(2) {
                    FrameType::P
                } else {
                    FrameType::B
                };
                let phase = if index < 100 {
                    1.15
                } else if index < 330 {
                    0.55
                } else {
                    1.10
                };
                let type_cost = match frame_type {
                    FrameType::I => 1.2,
                    FrameType::P => 1.0,
                    FrameType::B => 0.9,
                };
                let noise = 1.0 + 0.07 * rng.gaussian();
                Frame {
                    index,
                    frame_type,
                    complexity: (phase * type_cost * noise).max(0.15),
                    base_psnr_db: 41.0 + 1.2 * rng.gaussian().clamp(-2.0, 2.0),
                }
            })
            .collect();
        VideoTrace::from_frames("parsec-native", frame_list)
    }

    /// Trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the trace has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// A specific frame.
    pub fn frame(&self, index: usize) -> Option<&Frame> {
        self.frames.get(index)
    }

    /// Mean complexity across the trace.
    pub fn mean_complexity(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.complexity).sum::<f64>() / self.frames.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_type_tag_roundtrip() {
        for ft in [FrameType::I, FrameType::P, FrameType::B] {
            assert_eq!(FrameType::from_tag(ft.as_tag()), Some(ft));
        }
        assert_eq!(FrameType::from_tag(0), None);
        assert_eq!(FrameType::from_tag(99), None);
    }

    #[test]
    fn demanding_trace_shape() {
        let trace = VideoTrace::demanding_uniform(600, 1);
        assert_eq!(trace.len(), 600);
        assert!(!trace.is_empty());
        assert_eq!(trace.name(), "demanding-uniform");
        // Mean complexity close to 1 (uniform input).
        let mean = trace.mean_complexity();
        assert!((0.85..1.15).contains(&mean), "mean complexity {mean}");
        // First frame of each GOP is an I frame.
        assert_eq!(trace.frame(0).unwrap().frame_type, FrameType::I);
        assert_eq!(trace.frame(24).unwrap().frame_type, FrameType::I);
        // Every frame has sane values.
        for frame in trace.frames() {
            assert!(frame.complexity > 0.0);
            assert!(frame.base_psnr_db > 30.0 && frame.base_psnr_db < 50.0);
        }
    }

    #[test]
    fn demanding_trace_eases_at_the_end() {
        let trace = VideoTrace::demanding_uniform(800, 2);
        let early: f64 = trace.frames()[100..300]
            .iter()
            .map(|f| f.complexity)
            .sum::<f64>()
            / 200.0;
        let late: f64 = trace.frames()[700..800]
            .iter()
            .map(|f| f.complexity)
            .sum::<f64>()
            / 100.0;
        assert!(late < early, "end of the video should be slightly easier");
    }

    #[test]
    fn parsec_native_trace_has_three_phases() {
        let trace = VideoTrace::parsec_native(512, 3);
        let mean = |range: std::ops::Range<usize>| {
            trace.frames()[range.clone()]
                .iter()
                .map(|f| f.complexity)
                .sum::<f64>()
                / range.len() as f64
        };
        let first = mean(0..100);
        let middle = mean(100..330);
        let last = mean(330..512);
        assert!(middle < first * 0.6, "middle phase is much easier");
        assert!(last > middle * 1.5, "final phase is hard again");
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = VideoTrace::demanding_uniform(100, 7);
        let b = VideoTrace::demanding_uniform(100, 7);
        let c = VideoTrace::demanding_uniform(100, 8);
        assert_eq!(a.frames(), b.frames());
        assert_ne!(a.frames(), c.frames());
    }

    #[test]
    fn from_frames_and_accessors() {
        let frames = vec![Frame {
            index: 0,
            frame_type: FrameType::I,
            complexity: 1.0,
            base_psnr_db: 40.0,
        }];
        let trace = VideoTrace::from_frames("tiny", frames);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.frame(0).unwrap().frame_type, FrameType::I);
        assert!(trace.frame(1).is_none());
        assert_eq!(trace.mean_complexity(), 1.0);
        assert_eq!(
            VideoTrace::from_frames("empty", vec![]).mean_complexity(),
            0.0
        );
    }
}
