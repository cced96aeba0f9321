//! Parallel speedup models.
//!
//! The paper's scheduler experiments (Section 5.3) change the number of cores
//! allocated to a PARSEC benchmark and observe the resulting heart rate. To
//! reproduce those experiments deterministically, each simulated workload
//! carries a [`SpeedupModel`] describing how its throughput scales with the
//! number of cores it may use. Amdahl's law with a per-benchmark parallel
//! fraction captures the first-order behaviour; a table model allows
//! arbitrary measured curves.

/// How a workload's throughput scales with allocated cores.
pub trait SpeedupModel: Send + Sync + std::fmt::Debug {
    /// Speedup factor relative to one core (must return ≥ a small positive
    /// value; `cores == 0` models a fully stalled application).
    fn speedup(&self, cores: usize) -> f64;

    /// Throughput in work-units/second given single-core throughput.
    fn throughput(&self, single_core_throughput: f64, cores: usize) -> f64 {
        single_core_throughput * self.speedup(cores)
    }
}

/// Amdahl's-law speedup with a parallel fraction `p` and an optional
/// per-core parallelization efficiency.
#[derive(Debug, Clone)]
pub struct Amdahl {
    /// Fraction of the work that is parallelizable, in `[0, 1]`.
    pub parallel_fraction: f64,
    /// Multiplicative efficiency applied to the parallel part per extra core
    /// (models synchronization overhead); 1.0 = ideal.
    pub efficiency: f64,
}

impl Amdahl {
    /// Ideal Amdahl model with the given parallel fraction.
    pub fn new(parallel_fraction: f64) -> Self {
        Amdahl {
            parallel_fraction: parallel_fraction.clamp(0.0, 1.0),
            efficiency: 1.0,
        }
    }

    /// Amdahl model with a per-core efficiency factor in `(0, 1]`.
    pub fn with_efficiency(parallel_fraction: f64, efficiency: f64) -> Self {
        Amdahl {
            parallel_fraction: parallel_fraction.clamp(0.0, 1.0),
            efficiency: efficiency.clamp(0.05, 1.0),
        }
    }
}

impl SpeedupModel for Amdahl {
    fn speedup(&self, cores: usize) -> f64 {
        if cores == 0 {
            return 1e-9; // a stalled application makes essentially no progress
        }
        let n = cores as f64;
        let p = self.parallel_fraction;
        // Effective parallelism shrinks with imperfect efficiency.
        let effective = 1.0 + (n - 1.0) * self.efficiency;
        1.0 / ((1.0 - p) + p / effective.max(1.0))
    }
}

/// Linear speedup with a fixed efficiency (`speedup = 1 + (n-1) * e`).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Marginal speedup contributed by each additional core.
    pub efficiency: f64,
}

impl Linear {
    /// Creates a linear model; `efficiency` is clamped to `[0, 1]`.
    pub fn new(efficiency: f64) -> Self {
        Linear {
            efficiency: efficiency.clamp(0.0, 1.0),
        }
    }
}

impl SpeedupModel for Linear {
    fn speedup(&self, cores: usize) -> f64 {
        if cores == 0 {
            return 1e-9;
        }
        1.0 + (cores as f64 - 1.0) * self.efficiency
    }
}

/// Speedup given by an explicit per-core-count table (index 0 = 1 core).
/// Core counts beyond the table use the last entry.
#[derive(Debug, Clone)]
pub struct TableSpeedup {
    entries: Vec<f64>,
}

impl TableSpeedup {
    /// Creates a table model. Empty tables behave as "no speedup".
    pub fn new(entries: Vec<f64>) -> Self {
        TableSpeedup { entries }
    }
}

impl SpeedupModel for TableSpeedup {
    fn speedup(&self, cores: usize) -> f64 {
        if cores == 0 {
            return 1e-9;
        }
        if self.entries.is_empty() {
            return 1.0;
        }
        let idx = (cores - 1).min(self.entries.len() - 1);
        self.entries[idx].max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_monotone_and_bounded() {
        let model = Amdahl::new(0.9);
        let mut prev = 0.0;
        for cores in 1..=16 {
            let s = model.speedup(cores);
            assert!(s >= prev, "speedup must not decrease with cores");
            prev = s;
        }
        // Amdahl bound: 1 / (1 - p) = 10.
        assert!(prev < 10.0);
        assert!((model.speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_fully_serial_never_speeds_up() {
        let model = Amdahl::new(0.0);
        assert!((model.speedup(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_fully_parallel_is_linear() {
        let model = Amdahl::new(1.0);
        assert!((model.speedup(8) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn amdahl_zero_cores_is_stalled() {
        let model = Amdahl::new(0.9);
        assert!(model.speedup(0) < 1e-6);
    }

    #[test]
    fn amdahl_efficiency_reduces_speedup() {
        let ideal = Amdahl::new(0.95);
        let lossy = Amdahl::with_efficiency(0.95, 0.7);
        assert!(lossy.speedup(8) < ideal.speedup(8));
        assert!((lossy.speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_clamps_parallel_fraction() {
        let model = Amdahl::new(1.5);
        assert!((model.speedup(4) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn linear_model() {
        let model = Linear::new(0.5);
        assert!((model.speedup(1) - 1.0).abs() < 1e-12);
        assert!((model.speedup(5) - 3.0).abs() < 1e-12);
        assert!(
            Linear::new(2.0).speedup(2) <= 2.0,
            "efficiency clamped to 1"
        );
    }

    #[test]
    fn table_model_lookup_and_saturation() {
        let model = TableSpeedup::new(vec![1.0, 1.8, 2.5, 3.0]);
        assert_eq!(model.speedup(1), 1.0);
        assert_eq!(model.speedup(3), 2.5);
        assert_eq!(model.speedup(10), 3.0, "beyond table uses last entry");
        assert!(model.speedup(0) < 1e-6);
    }

    #[test]
    fn empty_table_is_flat() {
        assert_eq!(TableSpeedup::new(vec![]).speedup(4), 1.0);
    }

    #[test]
    fn throughput_uses_speedup() {
        let model = Amdahl::new(1.0);
        assert!((model.throughput(10.0, 4) - 40.0).abs() < 1e-9);
    }
}
