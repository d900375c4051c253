//! Steady-state estimation for open-arrival runs: warmup truncation,
//! batch-means confidence intervals, and per-class response-time
//! distributions.
//!
//! A terminating run reports exact criteria; an *open* run samples an
//! ongoing stochastic process, so its statistics need the standard
//! steady-state toolkit:
//!
//! * **Warmup truncation** ([`WarmupSpec`]) — the first observations are
//!   biased by the empty-system start. Either discard a fixed fraction, or
//!   detect the transient with the MSER rule: over the completion-ordered
//!   flow sequence `z_0..z_{n-1}`, pick the cut
//!
//!   ```text
//!   d* = argmin_{0 ≤ d ≤ n/2}  Var(z_d..z_{n-1}) / (n − d)
//!   ```
//!
//!   — the truncation that minimizes the squared standard error of the
//!   remaining mean. Computed in one backward pass over suffix sums.
//!
//! * **Batch means** — post-warmup observations are serially correlated,
//!   so the iid CI formula underestimates. Split the ordered sequence into
//!   `k` equal batches with means `ȳ_1..ȳ_k`; batch means are approximately
//!   independent for large batches, giving the half-width
//!
//!   ```text
//!   ci95 = 1.96 · s_k / √k,   s_k² = Σ (ȳ_i − ȳ)² / (k − 1)
//!   ```
//!
//!   With independent replications the campaign layer instead applies
//!   [`crate::Summary::ci95`] *across* replication means — same formula,
//!   replications as the batches.
//!
//! * **Response distributions** ([`ClassResponse`]) — per-class mean,
//!   p50/p95/p99 (exact, by sorting the retained values) and max slowdown
//!   (`flow / runtime`), the criteria that actually separate policies at
//!   ρ → 1.

use serde::{Deserialize, Serialize};

use crate::summary::Summary;

/// Warmup (initial-transient) truncation rule for one open run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WarmupSpec {
    /// Discard the first `frac ∈ [0, 1)` of observations.
    Fraction(f64),
    /// MSER stationarity detection (see the module docs); the cut is
    /// capped at half the observations so a mean shift late in the run
    /// cannot silently discard almost everything.
    Mser,
}

/// One response observation: the completion of one job, in completion
/// (event) order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResponseObs {
    /// Job-class index (mirrors the open stream's class list).
    pub class: u32,
    /// Response (flow) time: completion − release, seconds.
    pub flow_s: f64,
    /// Slowdown `flow / runtime` (≥ 1 for a job that ever ran).
    pub slowdown: f64,
}

/// Per-class response-time distribution of one open run, post-warmup.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassResponse {
    /// Class index into the stream's class list.
    pub class: u32,
    /// Post-warmup completions of this class.
    pub n: usize,
    /// Mean response time, seconds.
    pub mean_flow_s: f64,
    /// Median response time, seconds.
    pub p50_flow_s: f64,
    /// 95th-percentile response time, seconds.
    pub p95_flow_s: f64,
    /// 99th-percentile response time, seconds.
    pub p99_flow_s: f64,
    /// Largest slowdown observed.
    pub max_slowdown: f64,
    /// Batch-means 95% half-width on the mean response time (0 when fewer
    /// than two batches have data).
    pub ci95_flow_s: f64,
}

/// Accumulator for an open run's response observations. Memory is one
/// [`ResponseObs`] (24 bytes) per *counted* completion — bounded by the
/// stopping rule, not by simulated events.
#[derive(Clone, Debug, Default)]
pub struct SteadyState {
    obs: Vec<ResponseObs>,
}

impl SteadyState {
    /// An empty accumulator.
    pub fn new() -> SteadyState {
        SteadyState::default()
    }

    /// Record one completion (call in completion order).
    pub fn record(&mut self, class: u32, flow_s: f64, slowdown: f64) {
        assert!(flow_s.is_finite() && slowdown.is_finite());
        self.obs.push(ResponseObs {
            class,
            flow_s,
            slowdown,
        });
    }

    /// Observations recorded so far.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Number of leading observations the warmup rule discards.
    pub fn warmup_cut(&self, spec: WarmupSpec) -> usize {
        let n = self.obs.len();
        match spec {
            WarmupSpec::Fraction(frac) => {
                assert!((0.0..1.0).contains(&frac), "warmup fraction {frac}");
                (n as f64 * frac).floor() as usize
            }
            WarmupSpec::Mser => {
                if n < 4 {
                    return 0;
                }
                // Suffix sums in one backward pass: for each cut d,
                // SE²(d) = Var(z_d..) / (n − d) with the population
                // variance Var = (Q − S²/k) / k over the k = n − d tail
                // values.
                let mut s = 0.0f64; // Σ z_i over the suffix
                let mut q = 0.0f64; // Σ z_i² over the suffix
                let mut best = (f64::INFINITY, 0usize);
                let mut se2 = vec![f64::INFINITY; n / 2 + 1];
                for (i, o) in self.obs.iter().enumerate().rev() {
                    s += o.flow_s;
                    q += o.flow_s * o.flow_s;
                    let k = (n - i) as f64;
                    if i <= n / 2 {
                        se2[i] = (q - s * s / k).max(0.0) / (k * k);
                    }
                }
                // Smallest d wins ties: discard as little as possible.
                for (d, &v) in se2.iter().enumerate() {
                    if v < best.0 {
                        best = (v, d);
                    }
                }
                best.1
            }
        }
    }

    /// Per-class response distributions over the post-warmup observations
    /// (`cut` leading observations discarded), with batch-means CIs over
    /// `batches` equal batches per class. Classes are reported in index
    /// order; classes with no post-warmup completions are omitted.
    pub fn per_class(&self, cut: usize, batches: usize) -> Vec<ClassResponse> {
        assert!(batches >= 1);
        let tail = &self.obs[cut.min(self.obs.len())..];
        let mut classes: Vec<u32> = tail.iter().map(|o| o.class).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
            .into_iter()
            .map(|class| {
                // Completion order is preserved within the class — batch
                // means need the serial structure intact.
                let flows: Vec<f64> = tail
                    .iter()
                    .filter(|o| o.class == class)
                    .map(|o| o.flow_s)
                    .collect();
                let max_slowdown = tail
                    .iter()
                    .filter(|o| o.class == class)
                    .map(|o| o.slowdown)
                    .fold(0.0, f64::max);
                let summary = Summary::from_iter(flows.iter().copied());
                let [p50, p95, p99] = summary.quantiles([0.5, 0.95, 0.99]);
                ClassResponse {
                    class,
                    n: flows.len(),
                    mean_flow_s: summary.mean(),
                    p50_flow_s: p50,
                    p95_flow_s: p95,
                    p99_flow_s: p99,
                    max_slowdown,
                    ci95_flow_s: batch_means_ci95(&flows, batches),
                }
            })
            .collect()
    }
}

/// Batch-means 95% half-width over `values` (serial order) split into
/// `batches` equal batches: `1.96 · s_k / √k` with `s_k` the sample std of
/// the batch means. Short inputs use one batch per value; fewer than two
/// non-empty batches yield 0 (no spread information).
pub fn batch_means_ci95(values: &[f64], batches: usize) -> f64 {
    let k = batches.min(values.len());
    if k < 2 {
        return 0.0;
    }
    let mut means = Summary::new();
    let base = values.len() / k;
    let extra = values.len() % k;
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        let batch = &values[start..start + len];
        start += len;
        means.add(batch.iter().sum::<f64>() / batch.len() as f64);
    }
    1.96 * means.std_dev() / (k as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_with(flows: &[f64]) -> SteadyState {
        let mut s = SteadyState::new();
        for &f in flows {
            s.record(0, f, f);
        }
        s
    }

    #[test]
    fn fraction_warmup_cuts_the_prefix() {
        let s = steady_with(&[1.0; 100]);
        assert_eq!(s.warmup_cut(WarmupSpec::Fraction(0.0)), 0);
        assert_eq!(s.warmup_cut(WarmupSpec::Fraction(0.25)), 25);
        assert_eq!(s.warmup_cut(WarmupSpec::Fraction(0.999)), 99);
    }

    #[test]
    fn mser_detects_an_initial_transient() {
        // 50 inflated warmup observations, then a tight stationary regime:
        // the MSER cut must land at (or extremely near) the regime change.
        let mut flows = vec![100.0; 50];
        flows.extend(std::iter::repeat_n(10.0, 950));
        let s = steady_with(&flows);
        let cut = s.warmup_cut(WarmupSpec::Mser);
        assert!((48..=52).contains(&cut), "cut {cut}");
        // A stationary sequence needs no cut at all: constant tails tie at
        // SE = 0 and the smallest d wins.
        assert_eq!(steady_with(&[5.0; 200]).warmup_cut(WarmupSpec::Mser), 0);
    }

    #[test]
    fn mser_cut_is_capped_at_half() {
        // A late mean shift must not discard (almost) everything.
        let mut flows = vec![10.0; 900];
        flows.extend(std::iter::repeat_n(500.0, 100));
        let s = steady_with(&flows);
        assert!(s.warmup_cut(WarmupSpec::Mser) <= 500);
    }

    #[test]
    fn batch_means_match_the_hand_formula() {
        // 4 batches of 2 over 8 values: batch means 1.5, 3.5, 5.5, 7.5.
        let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let means = Summary::from_iter([1.5, 3.5, 5.5, 7.5]);
        let expected = 1.96 * means.std_dev() / 2.0;
        assert!((batch_means_ci95(&values, 4) - expected).abs() < 1e-12);
        // Degenerate: one batch (or one value) has no spread information.
        assert_eq!(batch_means_ci95(&values, 1), 0.0);
        assert_eq!(batch_means_ci95(&[3.0], 20), 0.0);
        assert_eq!(batch_means_ci95(&[], 20), 0.0);
    }

    #[test]
    fn per_class_distributions_are_exact() {
        let mut s = SteadyState::new();
        // Class 0: flows 1..=100 in order; class 1: constant 5 with one
        // big slowdown.
        for i in 1..=100 {
            s.record(0, i as f64, 1.0);
        }
        for _ in 0..10 {
            s.record(1, 5.0, 7.5);
        }
        let per = s.per_class(0, 10);
        assert_eq!(per.len(), 2);
        let c0 = &per[0];
        assert_eq!((c0.class, c0.n), (0, 100));
        assert!((c0.mean_flow_s - 50.5).abs() < 1e-12);
        // Lower nearest-rank on 1..=100: p50 = 50, p95 = 95, p99 = 99.
        assert_eq!(
            (c0.p50_flow_s, c0.p95_flow_s, c0.p99_flow_s),
            (50.0, 95.0, 99.0)
        );
        let c1 = &per[1];
        assert_eq!((c1.class, c1.n), (1, 10));
        assert_eq!(c1.max_slowdown, 7.5);
        assert_eq!(c1.ci95_flow_s, 0.0, "constant flows, zero spread");
    }

    #[test]
    fn warmup_cut_applies_before_class_stats() {
        let mut s = SteadyState::new();
        for _ in 0..50 {
            s.record(0, 1000.0, 1.0); // transient
        }
        for _ in 0..50 {
            s.record(0, 10.0, 1.0);
        }
        let cut = s.warmup_cut(WarmupSpec::Fraction(0.5));
        let per = s.per_class(cut, 5);
        assert_eq!(per[0].n, 50);
        assert!((per[0].mean_flow_s - 10.0).abs() < 1e-12);
    }
}
