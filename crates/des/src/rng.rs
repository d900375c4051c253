//! Deterministic randomness for simulations.
//!
//! [`SimRng`] wraps a ChaCha8 stream cipher RNG: fast, high quality, and —
//! the property we actually need — *stable across platforms and versions*,
//! so every experiment in EXPERIMENTS.md reproduces exactly from its seed.
//!
//! Besides the raw `rand` API it provides the samplers the workload
//! generators need (exponential inter-arrivals, log-uniform work sizes,
//! bounded-Pareto/Weibull/lognormal heavy tails) implemented by inverse-CDF /
//! Box–Muller directly, so we do not need the `rand_distr` crate.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic simulation RNG. Cloning forks the exact stream state.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create from a seed. Equal seeds ⇒ identical streams, forever.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream. Children with distinct `stream`
    /// ids are statistically independent of each other and of the parent;
    /// used to give each generator/component its own stream so adding a
    /// component does not perturb the draws of the others.
    pub fn child(&self, stream: u64) -> SimRng {
        let mut c = self.clone();
        // Mix the stream id through SplitMix64 so nearby ids diverge fully.
        let mut z = stream.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let seed = c.inner.next_u64() ^ z;
        SimRng::seed_from(seed)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform u64.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "int_range: lo {lo} > hi {hi}");
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform float in `[lo, hi)`. Panics unless `lo < hi` and both finite.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite());
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given mean (inter-arrival times of a Poisson
    /// process of rate `1/mean`).
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exp: non-positive mean {mean}");
        // Inverse CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Log-uniform in `[lo, hi]`: `exp(U(ln lo, ln hi))`. The classic
    /// "sizes spread over orders of magnitude" distribution used by the
    /// Fig. 2 workloads. Requires `0 < lo <= hi`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && lo <= hi, "log_uniform: bad bounds [{lo}, {hi}]");
        if lo == hi {
            return lo;
        }
        (self.range(lo.ln(), hi.ln())).exp()
    }

    /// Bounded Pareto on `[lo, hi]` with shape `alpha > 0` — heavy-tailed
    /// job sizes (many small, few huge), truncated for finite moments.
    pub fn bounded_pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && lo < hi);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the truncated Pareto.
        let x = (u * ha - u * la - ha) / (ha * la);
        (-x).powf(-1.0 / alpha)
    }

    /// Weibull with given shape and scale (shape < 1 models the heavy-tailed
    /// runtimes seen in production traces).
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(shape > 0.0 && scale > 0.0);
        scale * (-(1.0 - self.f64()).ln()).powf(1.0 / shape)
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0);
        let u1 = 1.0 - self.f64(); // (0, 1]
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Lognormal: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choice on empty slice");
        &items[self.int_range(0, items.len() as u64 - 1) as usize]
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn child_streams_are_independent_and_stable() {
        let root = SimRng::seed_from(7);
        let mut c1 = root.child(0);
        let mut c1b = root.child(0);
        let mut c2 = root.child(1);
        assert_eq!(c1.u64(), c1b.u64(), "same stream id ⇒ same draws");
        assert_ne!(c1.u64(), c2.u64());
    }

    #[test]
    fn ranges_respected() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = r.range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
            let n = r.int_range(10, 20);
            assert!((10..=20).contains(&n));
            let lu = r.log_uniform(1.0, 1000.0);
            assert!((1.0..=1000.0).contains(&lu));
            let bp = r.bounded_pareto(1.5, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&bp));
            let w = r.weibull(0.7, 10.0);
            assert!(w >= 0.0 && w.is_finite());
        }
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut r = SimRng::seed_from(11);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < 0.15,
            "exp mean off: {observed} vs {mean}"
        );
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = SimRng::seed_from(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_uniform_median_is_geometric_mean() {
        let mut r = SimRng::seed_from(17);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.log_uniform(1.0, 10_000.0)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        // Geometric mean of bounds = 100.
        assert!((50.0..200.0).contains(&median), "median {median}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(29);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
