//! Real-execution runner: drives the computational kernels on real threads
//! with real time, optionally instrumented with heartbeats.
//!
//! This is the substrate for the overhead study of Section 5.1 — the paper
//! reports that instrumenting PARSEC costs almost nothing except when
//! blackscholes registered a beat after *every* option (an order-of-magnitude
//! slowdown) instead of every 25 000 options. The runner can execute a kernel
//! with any beat granularity, with or without heartbeats, so the bench
//! harness can reproduce that comparison.

use std::time::Instant;

use heartbeats::{Heartbeat, HeartbeatBuilder, Tag};

use crate::kernels;

/// Which real kernel to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Black–Scholes option pricing.
    Blackscholes,
    /// Particle-filter body tracking.
    Bodytrack,
    /// Simulated-annealing placement.
    Canneal,
    /// Content-defined chunking.
    Dedup,
    /// Spring-mass face simulation.
    Facesim,
    /// Similarity search.
    Ferret,
    /// SPH fluid simulation.
    Fluidanimate,
    /// Online clustering.
    Streamcluster,
    /// Monte-Carlo swaption pricing.
    Swaptions,
    /// Synthetic H.264 frame encode.
    X264,
}

impl Kernel {
    /// Executes one work item of the given size and returns its checksum.
    pub fn run_item(&self, size: usize, seed: u64) -> f64 {
        match self {
            Kernel::Blackscholes => kernels::blackscholes_batch(size),
            Kernel::Bodytrack => kernels::bodytrack_frame(size),
            Kernel::Canneal => kernels::canneal_moves(size, seed),
            Kernel::Dedup => kernels::dedup_chunk(size, seed),
            Kernel::Facesim => kernels::facesim_frame(size),
            Kernel::Ferret => kernels::ferret_query(size, 32),
            Kernel::Fluidanimate => kernels::fluidanimate_frame(size),
            Kernel::Streamcluster => kernels::streamcluster_assign(size, 8),
            Kernel::Swaptions => kernels::swaption_price(size, seed),
            Kernel::X264 => kernels::x264_frame(size, 4),
        }
    }

    /// All kernels, in Table 2 order.
    pub fn all() -> [Kernel; 10] {
        [
            Kernel::Blackscholes,
            Kernel::Bodytrack,
            Kernel::Canneal,
            Kernel::Dedup,
            Kernel::Facesim,
            Kernel::Ferret,
            Kernel::Fluidanimate,
            Kernel::Streamcluster,
            Kernel::Swaptions,
            Kernel::X264,
        ]
    }

    /// The kernel's Table 2 benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Blackscholes => "blackscholes",
            Kernel::Bodytrack => "bodytrack",
            Kernel::Canneal => "canneal",
            Kernel::Dedup => "dedup",
            Kernel::Facesim => "facesim",
            Kernel::Ferret => "ferret",
            Kernel::Fluidanimate => "fluidanimate",
            Kernel::Streamcluster => "streamcluster",
            Kernel::Swaptions => "swaptions",
            Kernel::X264 => "x264",
        }
    }
}

/// Configuration of a real-execution run.
#[derive(Debug, Clone)]
pub struct RealRunConfig {
    /// Which kernel to run.
    pub kernel: Kernel,
    /// Total number of work items.
    pub items: usize,
    /// Size of each item (kernel-specific units: options, particles, bytes…).
    pub item_size: usize,
    /// Register one heartbeat every `beat_every` items (0 = no heartbeats,
    /// reproducing the uninstrumented baseline).
    pub beat_every: usize,
    /// Run items in parallel: contiguous chunks, one scoped thread per
    /// available core.
    pub parallel: bool,
}

/// Result of a real-execution run.
#[derive(Debug, Clone)]
pub struct RealRunResult {
    /// Wall-clock seconds the run took.
    pub seconds: f64,
    /// Sum of all item checksums (prevents dead-code elimination).
    pub checksum: f64,
    /// Number of heartbeats registered.
    pub beats: u64,
    /// Average heart rate over the run, if heartbeats were enabled and at
    /// least two beats were produced.
    pub average_rate_bps: Option<f64>,
}

/// Runs a kernel with the given configuration, returning timing and the
/// heartbeat statistics.
pub fn run_real(config: &RealRunConfig) -> RealRunResult {
    let heartbeat: Option<Heartbeat> = if config.beat_every > 0 {
        Some(
            HeartbeatBuilder::new(format!("real-{}", config.kernel.name()))
                .window(20)
                .capacity(1 << 14)
                .build()
                .expect("real-run heartbeat config is valid"),
        )
    } else {
        None
    };

    let start = Instant::now();
    let run_item = |i: usize| {
        let value = config.kernel.run_item(config.item_size, i as u64);
        if let Some(hb) = &heartbeat {
            if (i + 1).is_multiple_of(config.beat_every) {
                hb.heartbeat_tagged(Tag::new(i as u64));
            }
        }
        value
    };
    let checksum: f64 = if config.parallel {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = config.items.div_ceil(workers).max(1);
        std::thread::scope(|scope| {
            let chunks: Vec<_> = (0..config.items)
                .step_by(chunk)
                .map(|from| {
                    let to = (from + chunk).min(config.items);
                    scope.spawn(move || (from..to).map(run_item).sum::<f64>())
                })
                .collect();
            chunks
                .into_iter()
                .map(|chunk| chunk.join().expect("kernel worker panicked"))
                .sum()
        })
    } else {
        (0..config.items).map(run_item).sum()
    };
    let seconds = start.elapsed().as_secs_f64();

    let (beats, average_rate_bps) = match &heartbeat {
        Some(hb) => (hb.total_beats(), hb.global_average_rate()),
        None => (0, None),
    };
    RealRunResult {
        seconds,
        checksum,
        beats,
        average_rate_bps,
    }
}

/// Measures heartbeat overhead for a kernel: runs the same work without
/// heartbeats, with coarse-grained beats, and with fine-grained beats, and
/// returns the three wall-clock times in seconds as
/// `(baseline, coarse, fine)`.
pub fn measure_overhead(
    kernel: Kernel,
    items: usize,
    item_size: usize,
    coarse_every: usize,
    fine_every: usize,
) -> (f64, f64, f64) {
    let base = run_real(&RealRunConfig {
        kernel,
        items,
        item_size,
        beat_every: 0,
        parallel: false,
    });
    let coarse = run_real(&RealRunConfig {
        kernel,
        items,
        item_size,
        beat_every: coarse_every.max(1),
        parallel: false,
    });
    let fine = run_real(&RealRunConfig {
        kernel,
        items,
        item_size,
        beat_every: fine_every.max(1),
        parallel: false,
    });
    (base.seconds, coarse.seconds, fine.seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_table2_names() {
        let names: Vec<&str> = Kernel::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"blackscholes"));
        assert!(names.contains(&"x264"));
    }

    #[test]
    fn every_kernel_produces_finite_work() {
        for kernel in Kernel::all() {
            let value = kernel.run_item(64, 3);
            assert!(value.is_finite(), "{} produced {value}", kernel.name());
        }
    }

    #[test]
    fn sequential_run_counts_beats() {
        let result = run_real(&RealRunConfig {
            kernel: Kernel::Blackscholes,
            items: 100,
            item_size: 50,
            beat_every: 10,
            parallel: false,
        });
        assert_eq!(result.beats, 10);
        assert!(result.checksum > 0.0);
        assert!(result.seconds > 0.0);
        assert!(result.average_rate_bps.is_some());
    }

    #[test]
    fn uninstrumented_run_has_no_beats() {
        let result = run_real(&RealRunConfig {
            kernel: Kernel::Swaptions,
            items: 20,
            item_size: 50,
            beat_every: 0,
            parallel: false,
        });
        assert_eq!(result.beats, 0);
        assert!(result.average_rate_bps.is_none());
    }

    #[test]
    fn parallel_run_matches_sequential_checksum() {
        let sequential = run_real(&RealRunConfig {
            kernel: Kernel::Ferret,
            items: 40,
            item_size: 30,
            beat_every: 4,
            parallel: false,
        });
        let parallel = run_real(&RealRunConfig {
            kernel: Kernel::Ferret,
            items: 40,
            item_size: 30,
            beat_every: 4,
            parallel: true,
        });
        assert!((sequential.checksum - parallel.checksum).abs() < 1e-6);
        assert_eq!(parallel.beats, 10);
    }

    #[test]
    fn overhead_measurement_returns_three_timings() {
        let (base, coarse, fine) =
            measure_overhead(Kernel::Blackscholes, 200, 20, 100, 1);
        assert!(base > 0.0 && coarse > 0.0 && fine > 0.0);
        assert!(base.is_finite() && coarse.is_finite() && fine.is_finite());
        // The three runs differ in how often they beat, which is exact;
        // how their wall-clock times order on a shared CI core is not.
        let beats = |beat_every| {
            run_real(&RealRunConfig {
                kernel: Kernel::Blackscholes,
                items: 200,
                item_size: 20,
                beat_every,
                parallel: false,
            })
            .beats
        };
        assert_eq!((beats(0), beats(100), beats(1)), (0, 2, 200));
    }
}
