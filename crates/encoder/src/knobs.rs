//! Encoder configuration knobs.
//!
//! Section 5.2 of the paper launches x264 with "a computationally demanding
//! set of parameters": exhaustive motion-estimation search, analysis of all
//! macroblock sub-partitionings, the most demanding sub-pixel motion
//! estimation, and up to five reference frames. As the adaptive encoder falls
//! behind its 30 beat/s goal it "tries several search algorithms for motion
//! estimation and finally settles on the computationally light diamond
//! search", stops using sub-macroblock partitionings, and picks a less
//! demanding sub-pixel estimator.
//!
//! [`EncoderConfig`] models exactly those four knobs. Each configuration has
//! a *cost factor* (how much work a frame takes relative to the cheapest
//! settings) and a *quality penalty* (PSNR lost relative to the most
//! demanding settings), which drive the virtual-time cost model and the
//! Figure 4 quality comparison.

/// Motion-estimation search algorithm, from most to least demanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MotionEstimation {
    /// Exhaustive search over the full window (x264 `esa`).
    Exhaustive,
    /// Uneven multi-hexagon search (x264 `umh`).
    UnevenMultiHex,
    /// Hexagonal search (x264 `hex`).
    Hexagon,
    /// Diamond search, the computationally light algorithm the paper's
    /// adaptive encoder settles on (x264 `dia`).
    Diamond,
}

impl MotionEstimation {
    /// Relative cost of the search algorithm (diamond = 1.0).
    pub fn cost_factor(self) -> f64 {
        match self {
            MotionEstimation::Exhaustive => 3.4,
            MotionEstimation::UnevenMultiHex => 2.0,
            MotionEstimation::Hexagon => 1.35,
            MotionEstimation::Diamond => 1.0,
        }
    }

    /// PSNR penalty in dB relative to exhaustive search.
    pub fn quality_penalty_db(self) -> f64 {
        match self {
            MotionEstimation::Exhaustive => 0.0,
            MotionEstimation::UnevenMultiHex => 0.15,
            MotionEstimation::Hexagon => 0.33,
            MotionEstimation::Diamond => 0.55,
        }
    }

    /// The next cheaper algorithm, if any.
    pub fn cheaper(self) -> Option<MotionEstimation> {
        match self {
            MotionEstimation::Exhaustive => Some(MotionEstimation::UnevenMultiHex),
            MotionEstimation::UnevenMultiHex => Some(MotionEstimation::Hexagon),
            MotionEstimation::Hexagon => Some(MotionEstimation::Diamond),
            MotionEstimation::Diamond => None,
        }
    }
}

/// Maximum sub-pixel refinement level (mirrors x264's `subme` scale).
pub const MAX_SUBPIXEL: u8 = 7;

/// Maximum number of reference frames used by the demanding configuration.
pub const MAX_REFERENCE_FRAMES: u8 = 5;

/// One complete encoder parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncoderConfig {
    /// Motion-estimation search algorithm.
    pub motion_estimation: MotionEstimation,
    /// Sub-pixel refinement level, `0..=MAX_SUBPIXEL`.
    pub subpixel: u8,
    /// Whether all macroblock sub-partitionings are analysed.
    pub subblock_partitions: bool,
    /// Number of reference frames for predicted frames, `1..=MAX_REFERENCE_FRAMES`.
    pub reference_frames: u8,
}

impl EncoderConfig {
    /// The paper's demanding Main-profile configuration (Section 5.2).
    pub fn paper_demanding() -> Self {
        EncoderConfig {
            motion_estimation: MotionEstimation::Exhaustive,
            subpixel: MAX_SUBPIXEL,
            subblock_partitions: true,
            reference_frames: MAX_REFERENCE_FRAMES,
        }
    }

    /// The configuration the adaptive encoder converges to: diamond search,
    /// no sub-macroblock partitioning, light sub-pixel estimation.
    pub fn fastest() -> Self {
        EncoderConfig {
            motion_estimation: MotionEstimation::Diamond,
            subpixel: 1,
            subblock_partitions: false,
            reference_frames: 1,
        }
    }

    /// Relative computational cost of this configuration (fastest ≈ 1.0).
    pub fn cost_factor(&self) -> f64 {
        let me = self.motion_estimation.cost_factor();
        let subpel = 1.0 + 0.12 * self.subpixel as f64;
        let partitions = if self.subblock_partitions { 1.45 } else { 1.0 };
        let refs = 1.0 + 0.15 * (self.reference_frames.max(1) - 1) as f64;
        me * subpel * partitions * refs
    }

    /// PSNR lost relative to [`EncoderConfig::paper_demanding`], in dB.
    pub fn quality_penalty_db(&self) -> f64 {
        let me = self.motion_estimation.quality_penalty_db();
        let subpel = 0.045 * (MAX_SUBPIXEL - self.subpixel.min(MAX_SUBPIXEL)) as f64;
        let partitions = if self.subblock_partitions { 0.0 } else { 0.18 };
        let refs = 0.03
            * (MAX_REFERENCE_FRAMES - self.reference_frames.clamp(1, MAX_REFERENCE_FRAMES)) as f64;
        me + subpel + partitions + refs
    }

    /// The ordered ladder of configurations the adaptive encoder walks, from
    /// the demanding starting point down to the fastest setting. Each step
    /// trades a little quality for speed, mirroring the order of changes the
    /// paper describes (search algorithm first, then partitions, then
    /// sub-pixel refinement and reference frames).
    pub fn ladder() -> Vec<EncoderConfig> {
        let mut ladder = Vec::new();
        let mut config = Self::paper_demanding();
        ladder.push(config);
        // Walk down the motion-estimation algorithms.
        while let Some(me) = config.motion_estimation.cheaper() {
            config.motion_estimation = me;
            ladder.push(config);
        }
        // Drop sub-macroblock partitioning.
        config.subblock_partitions = false;
        ladder.push(config);
        // Lighter sub-pixel refinement in two steps.
        config.subpixel = 4;
        ladder.push(config);
        config.subpixel = 2;
        ladder.push(config);
        // Fewer reference frames.
        config.reference_frames = 3;
        ladder.push(config);
        config.reference_frames = 1;
        ladder.push(config);
        // Final, fastest setting.
        config.subpixel = 1;
        ladder.push(config);
        ladder
    }

    /// Index of this configuration in the ladder, if it is one of the ladder
    /// steps.
    pub fn ladder_index(&self) -> Option<usize> {
        Self::ladder().iter().position(|c| c == self)
    }
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self::paper_demanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motion_estimation_cost_is_ordered() {
        assert!(
            MotionEstimation::Exhaustive.cost_factor()
                > MotionEstimation::UnevenMultiHex.cost_factor()
        );
        assert!(
            MotionEstimation::UnevenMultiHex.cost_factor()
                > MotionEstimation::Hexagon.cost_factor()
        );
        assert!(MotionEstimation::Hexagon.cost_factor() > MotionEstimation::Diamond.cost_factor());
        assert_eq!(MotionEstimation::Diamond.cost_factor(), 1.0);
    }

    #[test]
    fn motion_estimation_quality_is_inverse_of_cost() {
        assert_eq!(MotionEstimation::Exhaustive.quality_penalty_db(), 0.0);
        assert!(
            MotionEstimation::Diamond.quality_penalty_db()
                > MotionEstimation::Hexagon.quality_penalty_db()
        );
    }

    #[test]
    fn cheaper_chain_ends_at_diamond() {
        let mut me = MotionEstimation::Exhaustive;
        let mut count = 0;
        while let Some(next) = me.cheaper() {
            me = next;
            count += 1;
        }
        assert_eq!(me, MotionEstimation::Diamond);
        assert_eq!(count, 3);
    }

    #[test]
    fn demanding_config_is_most_expensive_and_best_quality() {
        let demanding = EncoderConfig::paper_demanding();
        let fastest = EncoderConfig::fastest();
        assert!(demanding.cost_factor() > 5.0 * fastest.cost_factor());
        assert_eq!(demanding.quality_penalty_db(), 0.0);
        assert!(fastest.quality_penalty_db() > 0.5);
    }

    #[test]
    fn quality_penalty_stays_near_one_db() {
        // The paper reports a worst case of about 1 dB.
        let worst = EncoderConfig::fastest().quality_penalty_db();
        assert!(worst > 0.7 && worst < 1.3, "worst-case penalty {worst}");
    }

    #[test]
    fn ladder_is_monotonically_cheaper() {
        let ladder = EncoderConfig::ladder();
        assert!(ladder.len() >= 8);
        assert_eq!(ladder[0], EncoderConfig::paper_demanding());
        assert_eq!(*ladder.last().unwrap(), EncoderConfig::fastest());
        for pair in ladder.windows(2) {
            assert!(
                pair[1].cost_factor() < pair[0].cost_factor(),
                "ladder must strictly decrease in cost"
            );
            assert!(
                pair[1].quality_penalty_db() >= pair[0].quality_penalty_db(),
                "ladder must not improve quality as it gets cheaper"
            );
        }
    }

    #[test]
    fn ladder_walks_search_algorithms_first() {
        let ladder = EncoderConfig::ladder();
        assert_eq!(
            ladder[1].motion_estimation,
            MotionEstimation::UnevenMultiHex
        );
        assert_eq!(ladder[2].motion_estimation, MotionEstimation::Hexagon);
        assert_eq!(ladder[3].motion_estimation, MotionEstimation::Diamond);
        assert!(ladder[3].subblock_partitions);
        assert!(!ladder[4].subblock_partitions);
    }

    #[test]
    fn ladder_index_roundtrip() {
        let ladder = EncoderConfig::ladder();
        for (i, config) in ladder.iter().enumerate() {
            assert_eq!(config.ladder_index(), Some(i));
        }
        let off_ladder = EncoderConfig {
            motion_estimation: MotionEstimation::Exhaustive,
            subpixel: 0,
            subblock_partitions: false,
            reference_frames: 2,
        };
        assert_eq!(off_ladder.ladder_index(), None);
    }

    #[test]
    fn default_is_demanding() {
        assert_eq!(EncoderConfig::default(), EncoderConfig::paper_demanding());
    }
}
