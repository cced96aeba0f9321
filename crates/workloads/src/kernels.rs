//! Real computational kernels.
//!
//! The virtual-time simulation reproduces the *shape* of the paper's
//! experiments; the kernels in this module provide *real* work for the
//! overhead measurements (Section 5.1: "for eight of the ten benchmarks the
//! overhead of Heartbeats was negligible") and for the real-execution
//! examples. Each kernel mirrors the computational character of its PARSEC
//! namesake at a miniature scale and returns a checksum so the optimizer
//! cannot remove the work.

/// Prices one European call option with the Black–Scholes closed form
/// (the blackscholes benchmark prices millions of these).
pub fn black_scholes_call(spot: f64, strike: f64, rate: f64, volatility: f64, time: f64) -> f64 {
    let sqrt_t = time.sqrt().max(1e-12);
    let d1 = ((spot / strike).ln() + (rate + 0.5 * volatility * volatility) * time)
        / (volatility * sqrt_t);
    let d2 = d1 - volatility * sqrt_t;
    spot * normal_cdf(d1) - strike * (-rate * time).exp() * normal_cdf(d2)
}

/// Cumulative distribution function of the standard normal (Abramowitz &
/// Stegun polynomial approximation, as used by the PARSEC kernel).
pub fn normal_cdf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs() / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    0.5 * (1.0 + sign * y)
}

/// Prices a batch of `count` options with varying parameters and returns the
/// summed premium. One Table 2 heartbeat corresponds to `count = 25_000`.
pub fn blackscholes_batch(count: usize) -> f64 {
    let mut sum = 0.0;
    for i in 0..count {
        let f = (i % 1000) as f64 / 1000.0;
        sum += black_scholes_call(90.0 + 20.0 * f, 100.0, 0.02, 0.15 + 0.3 * f, 0.25 + f);
    }
    sum
}

/// One body-tracking style particle-filter update: weights `particles`
/// hypotheses against a synthetic observation (bodytrack).
pub fn bodytrack_frame(particles: usize) -> f64 {
    let mut weight_sum = 0.0;
    for p in 0..particles {
        let x = (p as f64 * 0.37).sin();
        let y = (p as f64 * 0.17).cos();
        // Synthetic likelihood of the hypothesis against an "edge map".
        let error = (x * x + y * y - 0.8).abs();
        weight_sum += (-4.0 * error).exp();
    }
    weight_sum
}

/// A block of simulated-annealing element swaps over a synthetic netlist
/// (canneal). One Table 2 heartbeat corresponds to `moves = 1_875`.
pub fn canneal_moves(moves: usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut cost = 1_000.0;
    for _ in 0..moves {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let delta = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        // Accept improving moves, and worsening ones with a fixed temperature.
        if delta < 0.0 || delta < 0.3 {
            cost += delta * 0.01;
        }
    }
    cost
}

/// Content-defined chunking plus a rolling checksum over a synthetic buffer
/// (dedup). Returns the number of chunk boundaries found.
pub fn dedup_chunk(buffer_len: usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut rolling: u64 = 0;
    let mut boundaries = 0u64;
    for _ in 0..buffer_len {
        state = state
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let byte = (state >> 56) as u8;
        rolling = rolling.rotate_left(1) ^ u64::from(byte);
        if rolling & 0xFFF == 0 {
            boundaries += 1;
        }
    }
    boundaries as f64
}

/// One explicit spring-mass relaxation sweep over a `nodes`-element surface
/// mesh (facesim).
pub fn facesim_frame(nodes: usize) -> f64 {
    let mut positions: Vec<f64> = (0..nodes).map(|i| (i as f64 * 0.01).sin()).collect();
    for _ in 0..4 {
        for i in 1..nodes.saturating_sub(1) {
            positions[i] = 0.5 * positions[i] + 0.25 * (positions[i - 1] + positions[i + 1]);
        }
    }
    positions.iter().sum()
}

/// One content-based similarity query: distance of a query feature vector to
/// `candidates` database vectors (ferret).
pub fn ferret_query(candidates: usize, dims: usize) -> f64 {
    let query: Vec<f64> = (0..dims).map(|d| (d as f64 * 0.31).cos()).collect();
    let mut best = f64::INFINITY;
    for c in 0..candidates {
        let mut dist = 0.0;
        for (d, q) in query.iter().enumerate() {
            let feature = ((c * 31 + d * 7) as f64 * 0.013).sin();
            dist += (q - feature) * (q - feature);
        }
        best = best.min(dist);
    }
    best
}

/// One smoothed-particle-hydrodynamics density/force pass over `particles`
/// particles in a coarse grid (fluidanimate).
pub fn fluidanimate_frame(particles: usize) -> f64 {
    let mut density_sum = 0.0;
    for p in 0..particles {
        let x = (p as f64 * 0.013).sin();
        let y = (p as f64 * 0.027).cos();
        let z = (p as f64 * 0.041).sin();
        // Kernel-weighted contribution of a fixed neighbourhood.
        for n in 0..8 {
            let dx = x - (n as f64 * 0.1);
            let r2 = dx * dx + y * y + z * z;
            if r2 < 1.0 {
                let w = 1.0 - r2;
                density_sum += w * w * w;
            }
        }
    }
    density_sum
}

/// Assigns `points` streamed points to the nearest of `medians` candidate
/// medians and returns the total cost (streamcluster).
pub fn streamcluster_assign(points: usize, medians: usize) -> f64 {
    let mut total_cost = 0.0;
    for p in 0..points {
        let px = (p as f64 * 0.017).sin();
        let py = (p as f64 * 0.029).cos();
        let mut best = f64::INFINITY;
        for m in 0..medians.max(1) {
            let mx = (m as f64 * 0.61).sin();
            let my = (m as f64 * 0.37).cos();
            let d = (px - mx) * (px - mx) + (py - my) * (py - my);
            best = best.min(d);
        }
        total_cost += best;
    }
    total_cost
}

/// Prices one swaption with a small Monte-Carlo simulation of `paths` HJM
/// paths (swaptions).
pub fn swaption_price(paths: usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut payoff_sum = 0.0;
    for _ in 0..paths {
        let mut forward: f64 = 0.04;
        for _ in 0..16 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let z = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            forward += 0.001 * z + 0.0001;
        }
        payoff_sum += (forward - 0.045).max(0.0);
    }
    payoff_sum / paths.max(1) as f64
}

/// Encodes one synthetic frame of `macroblocks` 16x16 blocks: a SAD motion
/// search over a small window plus a toy 4x4 transform (x264).
pub fn x264_frame(macroblocks: usize, search_range: usize) -> f64 {
    let mut bits = 0.0;
    for mb in 0..macroblocks {
        let base = (mb as f64 * 0.07).sin();
        // Motion search: evaluate SAD at each candidate offset.
        let mut best_sad = f64::INFINITY;
        for dx in 0..search_range.max(1) {
            for dy in 0..search_range.max(1) {
                let mut sad = 0.0;
                for px in 0..16 {
                    let cur = (base + px as f64 * 0.01).sin();
                    let refp = (base + (px + dx + dy) as f64 * 0.01).cos();
                    sad += (cur - refp).abs();
                }
                best_sad = best_sad.min(sad);
            }
        }
        // Residual "transform": sum of absolute 4x4 Hadamard-ish terms.
        bits += best_sad.sqrt() + (base * 8.0).abs();
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_cdf_symmetry_and_bounds() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_cdf(5.0) > 0.999);
        assert!(normal_cdf(-5.0) < 0.001);
        for x in [-2.0, -0.5, 0.3, 1.7] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn black_scholes_known_value() {
        // S=100, K=100, r=5%, sigma=20%, T=1: call ≈ 10.45.
        let price = black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0);
        assert!((price - 10.45).abs() < 0.05, "price {price}");
    }

    #[test]
    fn black_scholes_deep_in_the_money() {
        let price = black_scholes_call(200.0, 100.0, 0.01, 0.2, 0.5);
        assert!(price > 99.0);
    }

    #[test]
    fn blackscholes_batch_is_deterministic_and_positive() {
        let a = blackscholes_batch(1_000);
        let b = blackscholes_batch(1_000);
        assert_eq!(a, b);
        assert!(a > 0.0);
        assert!(blackscholes_batch(2_000) > a);
    }

    #[test]
    fn bodytrack_frame_weights_are_positive() {
        let w = bodytrack_frame(500);
        assert!(w > 0.0);
        assert!(w.is_finite());
    }

    #[test]
    fn canneal_moves_deterministic_per_seed() {
        assert_eq!(canneal_moves(1_875, 7), canneal_moves(1_875, 7));
        assert_ne!(canneal_moves(1_875, 7), canneal_moves(1_875, 8));
    }

    #[test]
    fn dedup_chunk_finds_boundaries() {
        let boundaries = dedup_chunk(200_000, 42);
        assert!(
            boundaries > 0.0,
            "a 200 kB buffer should contain boundaries"
        );
        assert_eq!(dedup_chunk(50_000, 1), dedup_chunk(50_000, 1));
    }

    #[test]
    fn facesim_frame_converges_to_finite_sum() {
        let s = facesim_frame(2_000);
        assert!(s.is_finite());
        assert!(facesim_frame(10) != 0.0);
    }

    #[test]
    fn ferret_query_finds_nonnegative_distance() {
        let d = ferret_query(200, 32);
        assert!(d >= 0.0);
        assert!(d.is_finite());
    }

    #[test]
    fn fluidanimate_density_positive() {
        assert!(fluidanimate_frame(1_000) > 0.0);
    }

    #[test]
    fn streamcluster_cost_decreases_with_more_medians() {
        let few = streamcluster_assign(2_000, 2);
        let many = streamcluster_assign(2_000, 16);
        assert!(many <= few);
        assert!(many >= 0.0);
    }

    #[test]
    fn swaption_price_is_reasonable() {
        let p = swaption_price(2_000, 11);
        assert!(p >= 0.0);
        assert!(p < 0.2, "tiny rates produce small payoffs, got {p}");
        assert_eq!(swaption_price(500, 3), swaption_price(500, 3));
    }

    #[test]
    fn x264_frame_cost_scales_with_search_range() {
        let small = x264_frame(50, 2);
        let large = x264_frame(50, 8);
        assert!(small.is_finite() && large.is_finite());
        assert!(small > 0.0 && large > 0.0);
    }
}
