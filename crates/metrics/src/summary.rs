//! Streaming summary statistics (Welford) and percentiles.

use serde::{Deserialize, Serialize};

/// Online mean/variance/min/max accumulator plus exact percentiles
/// (values are retained; the experiment scale makes that cheap).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    values: Vec<f64>,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Build from an iterator (inherent helper; `Summary` deliberately
    /// does not implement `FromIterator`, which needs `Self: Sized` churn).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Summary {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }

    /// Add one observation (must be finite).
    pub fn add(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite observation {x}");
        self.values.push(x);
        let n = self.values.len() as f64;
        let delta = x - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample (n−1, Bessel-corrected) standard deviation — the same
    /// estimator [`Summary::ci95`] is built on, so `mean ± std` and
    /// `mean ± ci95` never disagree about the spread estimate. Zero for
    /// fewer than two observations.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        (self.m2 / (self.values.len() as f64 - 1.0)).sqrt()
    }

    /// Half-width of the normal-approximation 95% confidence interval on
    /// the mean: `1.96 · s / √n` with `s` the *sample* (n−1) standard
    /// deviation. Zero when fewer than two observations exist — a single
    /// replication carries no spread information, and campaign aggregate
    /// rows must stay finite.
    pub fn ci95(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let sample_var = self.m2 / (n as f64 - 1.0);
        1.96 * (sample_var / n as f64).sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact q-quantile by lower nearest-rank (`0 <= q <= 1`); panics when
    /// empty. The lower rank makes the median of an even-size sample the
    /// smaller of the two central values — deterministic and exact.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles([q])[0]
    }

    /// [`quantile`](Self::quantile) at each of `qs`, sorting the
    /// observations once.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        assert!(qs.iter().all(|q| (0.0..=1.0).contains(q)));
        assert!(!self.values.is_empty(), "quantile of empty summary");
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        qs.map(|q| sorted[((sorted.len() as f64 - 1.0) * q).floor() as usize])
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Render `mean ± std [min, max]` with the given precision.
    pub fn display(&self, decimals: usize) -> String {
        format!(
            "{:.prec$} ± {:.prec$} [{:.prec$}, {:.prec$}]",
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max(),
            prec = decimals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // m2 = 32, so the sample estimator gives sqrt(32/7) — NOT the
        // population sqrt(32/8) = 2.0 this test once encoded.
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 4.0);
        assert_eq!(s.quantile(1.0), 9.0);
        assert_eq!(s.quantile(0.0), 2.0);
        assert_eq!(s.quantiles([0.0, 0.5, 1.0]), [2.0, 4.0, 9.0]);
    }

    #[test]
    fn single_and_empty() {
        let mut s = Summary::new();
        assert_eq!(s.n(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        s.add(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.median(), 3.5);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        Summary::new().add(f64::NAN);
    }

    #[test]
    fn ci95_is_zero_for_degenerate_samples() {
        let mut s = Summary::new();
        assert_eq!(s.ci95(), 0.0, "n = 0");
        s.add(7.0);
        assert_eq!(s.ci95(), 0.0, "n = 1");
        s.add(7.0);
        assert_eq!(s.ci95(), 0.0, "zero variance");
    }

    #[test]
    fn ci95_matches_known_dataset() {
        // [2, 4, 4, 4, 5, 5, 7, 9]: sample std = sqrt(32/7), n = 8.
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let expected = 1.96 * (32.0f64 / 7.0).sqrt() / (8.0f64).sqrt();
        assert!((s.ci95() - expected).abs() < 1e-12, "{}", s.ci95());
        // And the interval is the textbook mean ± half-width shape.
        assert!((s.mean() - expected..s.mean() + expected).contains(&5.0));
    }

    #[test]
    fn display_formats() {
        // Sample std of [1, 3] is sqrt(2) ≈ 1.4 (population would be 1.0).
        let s = Summary::from_iter([1.0, 3.0]);
        assert_eq!(s.display(1), "2.0 ± 1.4 [1.0, 3.0]");
    }

    #[test]
    fn std_dev_and_ci95_share_the_sample_estimator() {
        // Regression: std_dev once divided m2 by n (population) while ci95
        // used n−1, so ci95 != 1.96·std/√n. They must agree.
        let s = Summary::from_iter([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let expected = 1.96 * s.std_dev() / (s.n() as f64).sqrt();
        assert!((s.ci95() - expected).abs() < 1e-12);
    }
}
