//! Open-arrival job streams: unbounded workloads for steady-state
//! (heavy-traffic) simulation.
//!
//! The generators in [`crate::gen`] expand a finite job list up front; the
//! queueing-theory setting of the related work (PAPERS.md: "The Merit of
//! Simple Policies", "Asymptotically Optimal Scheduling of Multiple
//! Parallelizable Job Classes") instead drives the scheduler with an *open*
//! Poisson stream at a target utilization ρ and reads off response-time
//! distributions. [`OpenStreamSpec`] describes such a stream declaratively —
//! an arrival process plus a mixture of rigid job classes — and
//! [`OpenStream`] samples it lazily, one job at a time, so a million-job
//! horizon never materializes a million-job `Vec`.
//!
//! The arrival rate is *derived*, not given: a job of width `w` running for
//! `s` seconds occupies area `w·s` processor-seconds, so on `m` processors
//! a stream with mean area `E[w]·E[s]` (widths and sizes are drawn
//! independently) offers load
//!
//! ```text
//! ρ = λ · Σ_c p_c · E[width_c] · E[service_c] / m
//! ```
//!
//! and the spec's target ρ fixes `λ`. Widths are sampled continuously,
//! rounded and clamped into `[1, m]`, so the realized load tracks the
//! target to the extent the width distribution stays inside the machine.
//!
//! Determinism: all draws flow from the [`SimRng`] handed to
//! [`OpenStreamSpec::stream`] in a fixed order (arrival, class, width,
//! service), so a given (spec, m, seed) triple always produces the
//! identical stream prefix — the property the campaign cache keys rely on.

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, SimRng, Time};

use crate::gen::{ArrivalSpec, DistSpec};
use crate::job::{Job, UserId};

/// Arrival process shape of an open stream. The *rate* is derived from the
/// spec's target utilization, so the variants only carry shape parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum OpenArrival {
    /// Homogeneous Poisson.
    Poisson,
    /// Non-homogeneous Poisson with a sinusoidal daily cycle, sampled by
    /// Ogata thinning against the peak intensity `λ0·(1 + amplitude)`
    /// (same mechanism as [`ArrivalSpec::DailyCycle`]); the *mean* rate
    /// over a day still matches the derived λ0.
    Diurnal {
        /// Day/night modulation depth in `[0, 1)`.
        amplitude: f64,
    },
}

/// One rigid, parallelizable job class of the mixture.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobClass {
    /// Class label (aggregate CSV rows are keyed by it).
    pub name: String,
    /// Relative mixing weight (normalized over the class list).
    pub mix: f64,
    /// Processors per job; samples are rounded and clamped into `[1, m]`.
    pub width: DistSpec,
    /// Per-processor service time (runtime), seconds.
    pub service_s: DistSpec,
}

/// Declarative open stream: target offered load, arrival shape, and the
/// job-class mixture.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpenStreamSpec {
    /// Target offered load `ρ = λ·E[area]/m`, in `(0, 1)` — steady state
    /// only exists below saturation.
    pub rho: f64,
    /// Arrival process shape.
    pub arrival: OpenArrival,
    /// Job classes (non-empty; one entry is the single-class stream).
    pub classes: Vec<JobClass>,
}

impl OpenStreamSpec {
    /// Check the spec is realizable; returns the problems found (empty =
    /// valid). Collect-all like the campaign validator so one pass reports
    /// every mistake.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if !(self.rho > 0.0 && self.rho < 1.0) {
            errs.push(format!(
                "rho {} outside (0, 1): steady state needs sub-saturation load",
                self.rho
            ));
        }
        if let OpenArrival::Diurnal { amplitude } = self.arrival {
            if !(0.0..1.0).contains(&amplitude) {
                errs.push(format!("diurnal amplitude {amplitude} outside [0, 1)"));
            }
        }
        if self.classes.is_empty() {
            errs.push("open stream needs at least one job class".into());
        }
        for c in &self.classes {
            if !(c.mix > 0.0 && c.mix.is_finite()) {
                errs.push(format!(
                    "class `{}`: mix {} must be positive",
                    c.name, c.mix
                ));
            }
            for (field, dist) in [("width", &c.width), ("service_s", &c.service_s)] {
                if let Err(e) = dist.validate() {
                    errs.push(format!("class `{}`: `{field}`: {e}", c.name));
                }
            }
            // Width draws are clamped up to one processor, so a class that
            // can draw below one offers more load than `rho` says: about
            // m/2 times it for widths spread evenly around 1.
            let lowest = match c.width {
                DistSpec::Exp(_) => 0.0,
                DistSpec::Fixed(lo)
                | DistSpec::Uniform(lo, _)
                | DistSpec::LogUniform(lo, _)
                | DistSpec::BoundedPareto(_, lo, _) => lo,
            };
            if !(c.width.mean() >= 1.0 && c.width.mean().is_finite()) {
                errs.push(format!(
                    "class `{}`: mean width {} below one processor",
                    c.name,
                    c.width.mean()
                ));
            } else if lowest < 1.0 {
                errs.push(format!(
                    "class `{}`: `width` can draw {lowest}, below one processor",
                    c.name
                ));
            }
            if !(c.service_s.mean() > 0.0 && c.service_s.mean().is_finite()) {
                errs.push(format!(
                    "class `{}`: mean service {} not positive",
                    c.name,
                    c.service_s.mean()
                ));
            }
        }
        errs
    }

    /// Mean job area `Σ p_c·E[width_c]·E[service_c]`, processor-seconds.
    pub fn mean_area(&self) -> f64 {
        let total: f64 = self.classes.iter().map(|c| c.mix).sum();
        self.classes
            .iter()
            .map(|c| c.mix / total * c.width.mean() * c.service_s.mean())
            .sum()
    }

    /// Mean inter-arrival time `1/λ = E[area] / (ρ·m)` on `m` processors.
    pub fn mean_interarrival_s(&self, m: usize) -> f64 {
        self.mean_area() / (self.rho * m as f64)
    }

    /// Start sampling the stream on an `m`-processor machine. Panics on an
    /// invalid spec (campaigns validate first and report nicely).
    pub fn stream(&self, m: usize, rng: SimRng) -> OpenStream {
        let errs = self.validate();
        assert!(errs.is_empty(), "invalid open stream: {errs:?}");
        let mean_interarrival_s = self.mean_interarrival_s(m);
        let arrival = match self.arrival {
            OpenArrival::Poisson => ArrivalSpec::Poisson {
                mean_interarrival_s,
            },
            OpenArrival::Diurnal { amplitude } => ArrivalSpec::DailyCycle {
                mean_interarrival_s,
                amplitude,
            },
        };
        let total_mix: f64 = self.classes.iter().map(|c| c.mix).sum();
        let cum_mix = self
            .classes
            .iter()
            .scan(0.0, |acc, c| {
                *acc += c.mix / total_mix;
                Some(*acc)
            })
            .collect();
        OpenStream {
            spec: self.clone(),
            arrival,
            cum_mix,
            m,
            rng,
            clock_s: 0.0,
            next_id: 0,
        }
    }
}

/// The lazy sampler behind an [`OpenStreamSpec`]: an unbounded,
/// deterministic job sequence with nondecreasing releases. O(1) memory —
/// this is what lets the des-online executor replay millions of jobs
/// without ever holding them all.
pub struct OpenStream {
    spec: OpenStreamSpec,
    arrival: ArrivalSpec,
    /// Normalized cumulative mixing weights, aligned with `spec.classes`.
    cum_mix: Vec<f64>,
    m: usize,
    rng: SimRng,
    clock_s: f64,
    next_id: u64,
}

impl OpenStream {
    /// Draw the next job: `(class index, job)`. Releases are
    /// nondecreasing; the class index is also recorded as the job's
    /// [`UserId`] so per-class metrics survive the trip through the
    /// scheduler. Draw order per job is fixed — arrival, class, width,
    /// service — which makes streams bit-reproducible per seed.
    pub fn next_job(&mut self) -> (usize, Job) {
        self.clock_s = self.arrival.next_after(self.clock_s, &mut self.rng);
        let u = self.rng.f64();
        let class = self
            .cum_mix
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.spec.classes.len() - 1);
        let spec = &self.spec.classes[class];
        let width =
            (spec.width.sample(&mut self.rng).round() as i64).clamp(1, self.m as i64) as usize;
        let service =
            Dur::from_secs_f64(spec.service_s.sample(&mut self.rng)).max(Dur::from_ticks(1));
        let id = self.next_id;
        self.next_id += 1;
        let job = Job::rigid(id, width, service)
            .released_at(Time::from_secs_f64(self.clock_s))
            .with_user(UserId(class as u32));
        (class, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_spec(rho: f64, arrival: OpenArrival) -> OpenStreamSpec {
        OpenStreamSpec {
            rho,
            arrival,
            classes: vec![
                JobClass {
                    name: "narrow".into(),
                    mix: 3.0,
                    width: DistSpec::Fixed(1.0),
                    service_s: DistSpec::Exp(120.0),
                },
                JobClass {
                    name: "wide".into(),
                    mix: 1.0,
                    width: DistSpec::Uniform(4.0, 16.0),
                    service_s: DistSpec::LogUniform(60.0, 3600.0),
                },
            ],
        }
    }

    #[test]
    fn streams_are_bit_reproducible_per_seed() {
        let spec = two_class_spec(0.9, OpenArrival::Diurnal { amplitude: 0.5 });
        let mut a = spec.stream(64, SimRng::seed_from(42));
        let mut b = spec.stream(64, SimRng::seed_from(42));
        let mut c = spec.stream(64, SimRng::seed_from(43));
        let ja: Vec<_> = (0..1000).map(|_| a.next_job()).collect();
        let jb: Vec<_> = (0..1000).map(|_| b.next_job()).collect();
        let jc: Vec<_> = (0..1000).map(|_| c.next_job()).collect();
        assert_eq!(ja, jb, "same seed, same stream");
        assert_ne!(ja, jc, "different seed, different stream");
        for w in ja.windows(2) {
            assert!(w[0].1.release <= w[1].1.release, "releases nondecreasing");
        }
    }

    #[test]
    fn empirical_rate_matches_the_derived_lambda() {
        // The whole point of the ρ-to-λ derivation: over a long horizon the
        // empirical inter-arrival mean must match `E[area]/(ρ·m)` within
        // normal-approximation CI bounds (exponential gaps: σ = mean, so
        // the sample mean has σ/√n spread; ±5σ/√n keeps flake ~0).
        for arrival in [
            OpenArrival::Poisson,
            OpenArrival::Diurnal { amplitude: 0.8 },
        ] {
            let spec = two_class_spec(0.9, arrival);
            let m = 64;
            let expected = spec.mean_interarrival_s(m);
            let n = 100_000u64;
            let mut s = spec.stream(m, SimRng::seed_from(7));
            let mut last = 0.0;
            for _ in 0..n {
                last = s.next_job().1.release.as_secs_f64();
            }
            let empirical = last / n as f64;
            let tol = 5.0 * expected / (n as f64).sqrt();
            assert!(
                (empirical - expected).abs() < tol,
                "{arrival:?}: empirical {empirical} vs derived {expected} (tol {tol})"
            );
        }
    }

    #[test]
    fn diurnal_thinning_never_exceeds_the_peak_rate() {
        // Thinning accepts with probability λ(t)/λ_max, so no window can
        // sustain more than the peak rate. Bucket a long run into hours and
        // check every bucket against λ_max with a generous Poisson slack
        // (4σ on the busiest bucket's expected count).
        let amplitude = 0.9;
        let spec = two_class_spec(0.8, OpenArrival::Diurnal { amplitude });
        let m = 64;
        let lambda0 = 1.0 / spec.mean_interarrival_s(m);
        let lambda_max = lambda0 * (1.0 + amplitude);
        let mut s = spec.stream(m, SimRng::seed_from(13));
        let bucket_s = 3600.0;
        let mut buckets: Vec<u32> = Vec::new();
        for _ in 0..200_000 {
            let t = s.next_job().1.release.as_secs_f64();
            let b = (t / bucket_s) as usize;
            if b >= buckets.len() {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += 1;
        }
        let cap = lambda_max * bucket_s;
        let slack = 4.0 * cap.sqrt();
        let worst = *buckets.iter().max().unwrap() as f64;
        assert!(
            worst <= cap + slack,
            "busiest hour saw {worst} arrivals vs thinning cap {cap} (+{slack})"
        );
    }

    #[test]
    fn offered_load_tracks_the_target_rho() {
        let spec = two_class_spec(0.9, OpenArrival::Poisson);
        let m = 256;
        let mut s = spec.stream(m, SimRng::seed_from(5));
        let mut area = 0.0;
        let mut horizon = 0.0;
        for _ in 0..200_000 {
            let (_, job) = s.next_job();
            horizon = job.release.as_secs_f64();
            // Rigid seq_time = width · service: exactly the job's area.
            area += job.seq_time().as_secs_f64();
        }
        let rho = area / (m as f64 * horizon);
        assert!(
            (rho - 0.9).abs() < 0.03,
            "empirical offered load {rho} vs target 0.9"
        );
    }

    #[test]
    fn class_mixture_respects_the_mix_weights() {
        let spec = two_class_spec(0.7, OpenArrival::Poisson);
        let mut s = spec.stream(64, SimRng::seed_from(3));
        let n = 40_000;
        let mut counts = [0usize; 2];
        for _ in 0..n {
            let (class, job) = s.next_job();
            counts[class] += 1;
            assert_eq!(
                job.user,
                UserId(class as u32),
                "class tag rides the user id"
            );
        }
        // mix 3:1 → 75% / 25%, binomial σ ≈ 0.22%·n.
        let frac = counts[0] as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.01, "narrow fraction {frac}");
    }

    #[test]
    fn validation_collects_every_problem() {
        let mut spec = two_class_spec(1.2, OpenArrival::Diurnal { amplitude: 1.5 });
        spec.classes[0].mix = 0.0;
        spec.classes[1].service_s = DistSpec::Fixed(0.0);
        let errs = spec.validate();
        assert_eq!(errs.len(), 4, "{errs:?}");
        assert!(two_class_spec(0.9, OpenArrival::Poisson)
            .validate()
            .is_empty());
    }
}
