//! Per-item load phases.
//!
//! Workloads in the paper exhibit distinct execution phases: x264's native
//! PARSEC input runs at 12–14 beat/s, jumps to 23–29 beat/s between frames
//! ~100 and ~330, and settles back down (Figure 2); bodytrack's computational
//! load "suddenly decreases" at beat 141 (Figure 5). A [`PhaseSchedule`] maps
//! the item index (the beat number) to a work multiplier so synthetic
//! workloads reproduce those shapes.

/// One contiguous phase of a workload: items `[start, end)` cost
/// `work_multiplier` times the base per-item work.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// First item index of the phase (inclusive).
    pub start: u64,
    /// One past the last item index of the phase (exclusive); `u64::MAX` for
    /// an open-ended final phase.
    pub end: u64,
    /// Multiplier applied to the base per-item work during this phase.
    pub work_multiplier: f64,
}

/// A piecewise-constant schedule of work multipliers over item indices.
#[derive(Debug, Clone, Default)]
pub struct PhaseSchedule {
    phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// A schedule with a single phase of multiplier 1 covering everything.
    pub fn uniform() -> Self {
        PhaseSchedule {
            phases: vec![Phase {
                start: 0,
                end: u64::MAX,
                work_multiplier: 1.0,
            }],
        }
    }

    /// Builds a schedule from `(start, multiplier)` breakpoints: each
    /// breakpoint opens a phase that lasts until the next breakpoint.
    /// Breakpoints must be given in increasing index order and include 0.
    pub fn from_breakpoints(breakpoints: &[(u64, f64)]) -> Self {
        assert!(!breakpoints.is_empty(), "at least one breakpoint required");
        assert_eq!(breakpoints[0].0, 0, "first breakpoint must start at item 0");
        let mut phases = Vec::with_capacity(breakpoints.len());
        for (i, &(start, mult)) in breakpoints.iter().enumerate() {
            if i > 0 {
                assert!(
                    start > breakpoints[i - 1].0,
                    "breakpoints must be strictly increasing"
                );
            }
            let end = breakpoints.get(i + 1).map(|&(s, _)| s).unwrap_or(u64::MAX);
            phases.push(Phase {
                start,
                end,
                work_multiplier: mult,
            });
        }
        PhaseSchedule { phases }
    }

    /// Work multiplier for item `index` (1.0 outside any declared phase).
    pub fn multiplier(&self, index: u64) -> f64 {
        self.phases
            .iter()
            .find(|p| index >= p.start && index < p.end)
            .map(|p| p.work_multiplier)
            .unwrap_or(1.0)
    }

    /// The declared phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of declared phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True if no phases are declared (multiplier is 1 everywhere).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schedule_is_always_one() {
        let schedule = PhaseSchedule::uniform();
        assert_eq!(schedule.multiplier(0), 1.0);
        assert_eq!(schedule.multiplier(1_000_000), 1.0);
        assert_eq!(schedule.len(), 1);
    }

    #[test]
    fn default_schedule_is_empty_and_one() {
        let schedule = PhaseSchedule::default();
        assert!(schedule.is_empty());
        assert_eq!(schedule.multiplier(42), 1.0);
    }

    #[test]
    fn breakpoints_define_piecewise_phases() {
        // Mirrors Figure 2's shape: slow, fast, slow.
        let schedule = PhaseSchedule::from_breakpoints(&[(0, 1.0), (100, 0.5), (330, 1.0)]);
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule.multiplier(0), 1.0);
        assert_eq!(schedule.multiplier(99), 1.0);
        assert_eq!(schedule.multiplier(100), 0.5);
        assert_eq!(schedule.multiplier(329), 0.5);
        assert_eq!(schedule.multiplier(330), 1.0);
        assert_eq!(schedule.multiplier(10_000), 1.0);
    }

    #[test]
    fn phases_accessor_exposes_bounds() {
        let schedule = PhaseSchedule::from_breakpoints(&[(0, 2.0), (10, 3.0)]);
        let phases = schedule.phases();
        assert_eq!(
            phases[0],
            Phase {
                start: 0,
                end: 10,
                work_multiplier: 2.0
            }
        );
        assert_eq!(phases[1].end, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one breakpoint")]
    fn empty_breakpoints_panic() {
        PhaseSchedule::from_breakpoints(&[]);
    }

    #[test]
    #[should_panic(expected = "must start at item 0")]
    fn first_breakpoint_must_be_zero() {
        PhaseSchedule::from_breakpoints(&[(5, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn breakpoints_must_increase() {
        PhaseSchedule::from_breakpoints(&[(0, 1.0), (10, 2.0), (10, 3.0)]);
    }
}
