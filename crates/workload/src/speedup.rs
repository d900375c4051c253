//! Parallel-time profiles for moldable tasks.
//!
//! The PT model folds every parallel-execution cost (data distribution,
//! synchronisation, preemption…) into a *global penalty factor* (§4 of the
//! paper). A [`SpeedupModel`] is an analytic shape for that penalty; a
//! [`MoldableProfile`] is the resulting table `p(k)` of execution times for
//! `k = 1..=k_max` processors.
//!
//! Every profile satisfies the two standard monotony assumptions used by the
//! MRT algorithm and most moldable-task theory:
//!
//! 1. **time monotony** — `p(k)` is non-increasing in `k` (a job may always
//!    leave extra processors idle), and
//! 2. **work monotony** — `w(k) = k·p(k)` is non-decreasing in `k`
//!    (parallelisation never comes for free).
//!
//! Models whose raw formula violates either (e.g. a communication penalty
//! that eventually dominates) are *clamped* into the feasible band at
//! construction, which is exactly the "use fewer processors and idle the
//! rest" interpretation.

use serde::{Deserialize, Serialize};

use lsps_des::Dur;

/// Analytic penalty shapes for parallel execution time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SpeedupModel {
    /// Ideal linear speedup: `p(k) = seq / k`.
    Linear,
    /// Amdahl's law with sequential fraction `f`:
    /// `p(k) = seq · (f + (1-f)/k)`.
    Amdahl {
        /// Non-parallelisable fraction, in `[0, 1]`.
        seq_fraction: f64,
    },
    /// Power-law (Downey-style) speedup: `p(k) = seq / k^sigma`,
    /// `sigma ∈ [0, 1]`; `sigma = 1` is linear, `sigma = 0` no speedup.
    PowerLaw {
        /// Parallelism exponent.
        sigma: f64,
    },
    /// Linear speedup plus a per-processor management overhead — the
    /// paper's "global penalty factor" in its simplest affine form:
    /// `p(k) = seq/k + overhead·(k-1)` where `overhead` is a fraction of
    /// `seq` per extra processor.
    CommPenalty {
        /// Overhead per additional processor, as a fraction of `seq`.
        overhead: f64,
    },
}

impl SpeedupModel {
    /// Check the parameter lies in the range
    /// [`relative_time`](Self::relative_time) asserts; the message names
    /// the parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SpeedupModel::Amdahl { seq_fraction: f } if !(0.0..=1.0).contains(&f) => {
                Err(format!("Amdahl `seq_fraction` {f} outside [0, 1]"))
            }
            SpeedupModel::PowerLaw { sigma } if !(0.0..=1.0).contains(&sigma) => {
                Err(format!("PowerLaw `sigma` {sigma} outside [0, 1]"))
            }
            SpeedupModel::CommPenalty { overhead }
                if !(overhead >= 0.0 && overhead.is_finite()) =>
            {
                Err(format!(
                    "CommPenalty `overhead` {overhead} must be finite and >= 0"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Raw (un-clamped) relative time at `k` processors, as a fraction of
    /// the sequential time. `k >= 1`.
    pub fn relative_time(&self, k: usize) -> f64 {
        assert!(k >= 1);
        let kf = k as f64;
        match *self {
            SpeedupModel::Linear => 1.0 / kf,
            SpeedupModel::Amdahl { seq_fraction } => {
                assert!((0.0..=1.0).contains(&seq_fraction));
                seq_fraction + (1.0 - seq_fraction) / kf
            }
            SpeedupModel::PowerLaw { sigma } => {
                assert!((0.0..=1.0).contains(&sigma));
                kf.powf(-sigma)
            }
            SpeedupModel::CommPenalty { overhead } => {
                assert!(overhead >= 0.0);
                1.0 / kf + overhead * (kf - 1.0)
            }
        }
    }
}

/// Execution-time profile of a moldable task: `time(k)` for
/// `k = 1..=max_procs`, monotone per the module invariants.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MoldableProfile {
    /// `times[k-1]` = execution time on `k` processors.
    times: Vec<Dur>,
}

impl MoldableProfile {
    /// Build from explicit times, clamping into the monotone band:
    /// `p(k) := min(p(k-1), max(raw(k), ceil((k-1)·p(k-1)/k)))`.
    ///
    /// # Panics
    /// If `times` is empty or contains a zero sequential time.
    pub fn from_times(times: Vec<Dur>) -> Self {
        assert!(!times.is_empty(), "profile needs at least k = 1");
        assert!(times[0] > Dur::ZERO, "sequential time must be positive");
        let mut clamped = Vec::with_capacity(times.len());
        clamped.push(times[0]);
        for k in 2..=times.len() {
            let prev: Dur = clamped[k - 2];
            // Work monotony floor: k·p(k) >= (k-1)·p(k-1).
            let floor = prev.saturating_mul(k as u64 - 1).div_ceil(k as u64);
            let raw = times[k - 1];
            clamped.push(raw.max(floor).min(prev));
        }
        MoldableProfile { times: clamped }
    }

    /// Build from a sequential time and an analytic model, for
    /// `k = 1..=max_procs`. Times are rounded *up* to whole ticks
    /// (conservative for guarantees), then clamped monotone.
    pub fn from_model(seq: Dur, model: &SpeedupModel, max_procs: usize) -> Self {
        assert!(max_procs >= 1);
        assert!(seq > Dur::ZERO);
        let times = (1..=max_procs)
            .map(|k| {
                seq.scale_ceil(model.relative_time(k))
                    .max(Dur::from_ticks(1))
            })
            .collect();
        MoldableProfile::from_times(times)
    }

    /// Largest admissible processor count.
    pub fn max_procs(&self) -> usize {
        self.times.len()
    }

    /// Execution time on `k` processors (`1 <= k <= max_procs`).
    pub fn time(&self, k: usize) -> Dur {
        assert!(
            k >= 1 && k <= self.times.len(),
            "allotment {k} outside profile 1..={}",
            self.times.len()
        );
        self.times[k - 1]
    }

    /// Sequential time `p(1)`.
    pub fn seq_time(&self) -> Dur {
        self.times[0]
    }

    /// Shortest achievable time (`p(max_procs)` by time monotony).
    pub fn min_time(&self) -> Dur {
        *self.times.last().expect("non-empty profile")
    }

    /// Work (processor-time product) at `k` processors.
    pub fn work(&self, k: usize) -> Dur {
        self.time(k).saturating_mul(k as u64)
    }

    /// The *minimal* allotment achieving `time(k) <= limit` — the γ(j, λ)
    /// selection at the heart of the MRT algorithm (\[8\] in the paper): by
    /// work monotony it is also the allotment of minimal work meeting the
    /// deadline. `None` when even `max_procs` cannot meet it.
    pub fn min_allotment_within(&self, limit: Dur) -> Option<usize> {
        // `times` is non-increasing: binary search for the first k meeting
        // the limit.
        if self.min_time() > limit {
            return None;
        }
        let (mut lo, mut hi) = (1usize, self.times.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.time(mid) <= limit {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// Restrict the profile to at most `k_max` processors (e.g. the size of
    /// the target cluster).
    pub fn truncated(&self, k_max: usize) -> MoldableProfile {
        assert!(k_max >= 1);
        let k = k_max.min(self.times.len());
        MoldableProfile {
            times: self.times[..k].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn linear_model_halves() {
        let p = MoldableProfile::from_model(d(1000), &SpeedupModel::Linear, 4);
        assert_eq!(p.time(1), d(1000));
        assert_eq!(p.time(2), d(500));
        // k=3 rounds up to 334 ticks (work 1002), so the work-monotony floor
        // lifts k=4 from the exact 250 to 251 — integer rounding is always
        // conservative, never optimistic.
        assert_eq!(p.time(3), d(334));
        assert_eq!(p.time(4), d(251));
        // Work stays within one rounding step of constant.
        assert!(p.work(4) >= p.work(1));
        assert!(p.work(4).ticks() <= p.work(1).ticks() + 4);
    }

    #[test]
    fn amdahl_floors_at_serial_fraction() {
        let m = SpeedupModel::Amdahl { seq_fraction: 0.25 };
        let p = MoldableProfile::from_model(d(1000), &m, 64);
        assert_eq!(p.time(1), d(1000));
        assert!(p.time(64) >= d(250), "cannot beat the sequential fraction");
        assert!(p.time(64) < d(280));
    }

    #[test]
    fn powerlaw_relative_times() {
        let m = SpeedupModel::PowerLaw { sigma: 0.5 };
        assert!((m.relative_time(4) - 0.5).abs() < 1e-12);
        let none = SpeedupModel::PowerLaw { sigma: 0.0 };
        assert_eq!(none.relative_time(16), 1.0);
    }

    #[test]
    fn comm_penalty_clamped_monotone() {
        // With a harsh penalty, the raw formula grows for large k; the
        // profile must stay non-increasing (idle the extras).
        let m = SpeedupModel::CommPenalty { overhead: 0.2 };
        let p = MoldableProfile::from_model(d(1000), &m, 32);
        for k in 2..=32 {
            assert!(p.time(k) <= p.time(k - 1), "time monotone at k={k}");
        }
        // And the useful parallelism saturates: beyond the optimum the time
        // is flat, equal to the best achievable.
        let best = (1..=32).map(|k| p.time(k)).min().unwrap();
        assert_eq!(p.min_time(), best);
    }

    #[test]
    fn monotony_invariants_from_arbitrary_table() {
        let p = MoldableProfile::from_times(vec![d(100), d(95), d(20), d(200)]);
        for k in 2..=p.max_procs() {
            assert!(p.time(k) <= p.time(k - 1), "time monotone at k={k}");
            assert!(p.work(k) >= p.work(k - 1), "work monotone at k={k}");
        }
        // Work floor lifted k=3's unrealistically good 20 up to ≥ ceil(2·95/3).
        assert!(p.time(3) >= d(64));
    }

    #[test]
    fn min_allotment_is_minimal() {
        let p = MoldableProfile::from_times(vec![d(100), d(60), d(40), d(30)]);
        assert_eq!(p.min_allotment_within(d(100)), Some(1));
        assert_eq!(p.min_allotment_within(d(60)), Some(2));
        assert_eq!(p.min_allotment_within(d(59)), Some(3));
        assert_eq!(p.min_allotment_within(d(30)), Some(4));
        assert_eq!(p.min_allotment_within(d(29)), None);
    }

    #[test]
    fn truncation() {
        let p = MoldableProfile::from_model(d(1000), &SpeedupModel::Linear, 16);
        let t = p.truncated(4);
        assert_eq!(t.max_procs(), 4);
        assert_eq!(t.time(4), p.time(4));
        let same = p.truncated(100);
        assert_eq!(same.max_procs(), 16);
    }

    #[test]
    #[should_panic]
    fn empty_profile_rejected() {
        MoldableProfile::from_times(vec![]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_allotment_panics() {
        MoldableProfile::from_times(vec![d(10)]).time(2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn model_strategy() -> impl Strategy<Value = SpeedupModel> {
        prop_oneof![
            Just(SpeedupModel::Linear),
            (0.0f64..=1.0).prop_map(|f| SpeedupModel::Amdahl { seq_fraction: f }),
            (0.0f64..=1.0).prop_map(|s| SpeedupModel::PowerLaw { sigma: s }),
            (0.0f64..0.5).prop_map(|o| SpeedupModel::CommPenalty { overhead: o }),
        ]
    }

    proptest! {
        /// Both monotony invariants hold for every model, seq time, k_max.
        #[test]
        fn profiles_always_monotone(
            model in model_strategy(),
            seq in 1u64..1_000_000,
            kmax in 1usize..128,
        ) {
            let p = MoldableProfile::from_model(Dur::from_ticks(seq), &model, kmax);
            for k in 2..=p.max_procs() {
                prop_assert!(p.time(k) <= p.time(k - 1));
                prop_assert!(p.work(k) >= p.work(k - 1));
            }
            prop_assert_eq!(p.seq_time(), p.time(1));
        }

        /// min_allotment_within returns the smallest feasible k.
        #[test]
        fn min_allotment_minimality(
            times in prop::collection::vec(1u64..10_000, 1..64),
            limit in 1u64..10_000,
        ) {
            let p = MoldableProfile::from_times(
                times.into_iter().map(Dur::from_ticks).collect());
            let limit = Dur::from_ticks(limit);
            match p.min_allotment_within(limit) {
                Some(k) => {
                    prop_assert!(p.time(k) <= limit);
                    if k > 1 {
                        prop_assert!(p.time(k - 1) > limit);
                    }
                }
                None => prop_assert!(p.min_time() > limit),
            }
        }
    }
}
