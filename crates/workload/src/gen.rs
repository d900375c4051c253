//! Synthetic workload generators.
//!
//! Reproduces the workload shapes the paper evaluates or motivates:
//!
//! * [`WorkloadSpec::fig2_parallel`] / [`WorkloadSpec::fig2_sequential`] —
//!   the two job populations of the Fig. 2 simulation (a 100-machine
//!   cluster, "parallel and non-parallel jobs", weighted completion time and
//!   makespan criteria).
//! * [`CommunityProfile`] — the §5.2 communities: numerical physicists with
//!   very long sequential jobs, computer scientists with short debug runs,
//!   parametric campaigns (see [`crate::campaign`](mod@crate::campaign)).
//!
//! All draws flow from the [`SimRng`] passed in; a given (spec, seed) pair
//! always produces the identical job list.

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, SimRng, Time};

use crate::job::{Job, JobId, JobKind, UserId};
use crate::speedup::{MoldableProfile, SpeedupModel};

/// Arrival process of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalSpec {
    /// Everything available at t = 0 (the off-line setting of §4.1).
    AllAtZero,
    /// Poisson arrivals with the given mean inter-arrival time, in seconds
    /// (the on-line setting of §4.2).
    Poisson {
        /// Mean time between consecutive submissions.
        mean_interarrival_s: f64,
    },
    /// Non-homogeneous Poisson with a sinusoidal daily cycle (production
    /// traces submit far more by day than by night). Sampled by thinning:
    /// intensity `λ(t) = λ0·(1 + amplitude·sin(2πt/86400))`.
    DailyCycle {
        /// Mean inter-arrival time at the *average* intensity, seconds.
        mean_interarrival_s: f64,
        /// Day/night modulation depth in `[0, 1)`.
        amplitude: f64,
    },
}

impl ArrivalSpec {
    /// Draw the next arrival instant after `clock_s`; returns the updated
    /// clock (absolute seconds).
    pub fn next_after(&self, clock_s: f64, rng: &mut SimRng) -> f64 {
        match *self {
            ArrivalSpec::AllAtZero => clock_s,
            ArrivalSpec::Poisson {
                mean_interarrival_s,
            } => clock_s + rng.exp(mean_interarrival_s),
            ArrivalSpec::DailyCycle {
                mean_interarrival_s,
                amplitude,
            } => {
                assert!((0.0..1.0).contains(&amplitude));
                // Ogata thinning against the max intensity λ0·(1+a).
                let lambda0 = 1.0 / mean_interarrival_s;
                let lambda_max = lambda0 * (1.0 + amplitude);
                let mut t = clock_s;
                loop {
                    t += rng.exp(1.0 / lambda_max);
                    let phase = t / 86_400.0 * std::f64::consts::TAU;
                    let lambda_t = lambda0 * (1.0 + amplitude * phase.sin());
                    if rng.f64() < lambda_t / lambda_max {
                        return t;
                    }
                }
            }
        }
    }
}

/// Scalar distributions used for work sizes and weights.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DistSpec {
    /// Always the same value.
    Fixed(f64),
    /// Uniform over `[lo, hi)`.
    Uniform(f64, f64),
    /// Log-uniform over `[lo, hi]` — sizes spread across orders of
    /// magnitude, the classic parallel-workload shape.
    LogUniform(f64, f64),
    /// Exponential with the given mean.
    Exp(f64),
    /// Bounded Pareto with shape alpha over `[lo, hi]` (heavy tail).
    BoundedPareto(f64, f64, f64),
}

impl DistSpec {
    /// Draw one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            DistSpec::Fixed(v) => v,
            DistSpec::Uniform(lo, hi) => rng.range(lo, hi),
            DistSpec::LogUniform(lo, hi) => rng.log_uniform(lo, hi),
            DistSpec::Exp(mean) => rng.exp(mean),
            DistSpec::BoundedPareto(alpha, lo, hi) => rng.bounded_pareto(alpha, lo, hi),
        }
    }

    /// Check the parameters are ones [`sample`](Self::sample) accepts:
    /// every parameter finite, `Uniform` with `lo < hi`, `LogUniform` with
    /// `0 < lo <= hi`, `Exp` with a positive mean, `BoundedPareto` with
    /// `alpha > 0` and `0 < lo < hi`.
    pub fn validate(&self) -> Result<(), String> {
        let (ok, needs) = match *self {
            DistSpec::Fixed(v) => (v.is_finite(), "a finite value"),
            DistSpec::Uniform(lo, hi) => (
                lo.is_finite() && hi.is_finite() && lo < hi,
                "finite lo < hi",
            ),
            DistSpec::LogUniform(lo, hi) => (
                lo > 0.0 && lo <= hi && hi.is_finite(),
                "finite 0 < lo <= hi",
            ),
            DistSpec::Exp(mean) => (mean > 0.0 && mean.is_finite(), "a finite positive mean"),
            DistSpec::BoundedPareto(alpha, lo, hi) => (
                alpha > 0.0 && alpha.is_finite() && lo > 0.0 && lo < hi && hi.is_finite(),
                "finite alpha > 0 and 0 < lo < hi",
            ),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{self:?} needs {needs}"))
        }
    }

    /// Closed-form expectation of the distribution — the quantity the
    /// open-arrival layer needs to turn a target utilization ρ into an
    /// arrival rate (`λ = ρ·m / E[width]·E[service]`).
    ///
    /// * `Uniform(lo, hi)`: `(lo + hi) / 2`.
    /// * `LogUniform(lo, hi)`: `(hi − lo) / ln(hi/lo)` (the mean of
    ///   `e^U`, `U ~ Uniform[ln lo, ln hi]`).
    /// * `BoundedPareto(α, lo, hi)`:
    ///   `α·loᵅ·(hi^{1−α} − lo^{1−α}) / ((1 − α)·(1 − (lo/hi)ᵅ))`
    ///   for α ≠ 1, and `lo·hi·ln(hi/lo) / (hi − lo)` at α = 1.
    pub fn mean(&self) -> f64 {
        match *self {
            DistSpec::Fixed(v) => v,
            DistSpec::Uniform(lo, hi) => 0.5 * (lo + hi),
            DistSpec::LogUniform(lo, hi) => {
                if hi <= lo {
                    lo
                } else {
                    (hi - lo) / (hi / lo).ln()
                }
            }
            DistSpec::Exp(mean) => mean,
            DistSpec::BoundedPareto(alpha, lo, hi) => {
                if hi <= lo {
                    return lo;
                }
                if (alpha - 1.0).abs() < 1e-9 {
                    lo * hi * (hi / lo).ln() / (hi - lo)
                } else {
                    let norm = 1.0 - (lo / hi).powf(alpha);
                    alpha * lo.powf(alpha) * (hi.powf(1.0 - alpha) - lo.powf(1.0 - alpha))
                        / ((1.0 - alpha) * norm)
                }
            }
        }
    }
}

/// Full description of a synthetic workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of jobs.
    pub n_jobs: usize,
    /// Arrival process.
    pub arrival: ArrivalSpec,
    /// Sequential work of each job, in seconds.
    pub work_s: DistSpec,
    /// Fraction of jobs that are moldable parallel tasks (the rest are
    /// sequential rigid jobs). Fig. 2's "Parallel" series uses 1.0, its
    /// "Non Parallel" series 0.0.
    pub parallel_fraction: f64,
    /// Speedup models drawn uniformly for each parallel job.
    pub models: Vec<SpeedupModel>,
    /// Maximum useful processors of a parallel job, as a fraction of the
    /// machine size `m`, drawn uniformly in `[lo, hi]`.
    pub max_procs_frac: (f64, f64),
    /// Job weights ωi.
    pub weight: DistSpec,
    /// Owning user for all generated jobs.
    pub user: UserId,
}

impl WorkloadSpec {
    /// The Fig. 2 "Parallel" population: `n` moldable jobs, log-uniform
    /// sequential work from 30 s to 3000 s, mixed Amdahl / power-law
    /// penalties, weights log-uniform in `[1, 10]`, submitted on-line.
    pub fn fig2_parallel(n: usize) -> WorkloadSpec {
        WorkloadSpec {
            n_jobs: n,
            arrival: ArrivalSpec::Poisson {
                mean_interarrival_s: 10.0,
            },
            work_s: DistSpec::LogUniform(30.0, 3000.0),
            parallel_fraction: 1.0,
            models: vec![
                SpeedupModel::Amdahl { seq_fraction: 0.05 },
                SpeedupModel::Amdahl { seq_fraction: 0.15 },
                SpeedupModel::PowerLaw { sigma: 0.9 },
                SpeedupModel::CommPenalty { overhead: 0.01 },
            ],
            max_procs_frac: (0.05, 0.5),
            weight: DistSpec::LogUniform(1.0, 10.0),
            user: UserId(0),
        }
    }

    /// The Fig. 2 "Non Parallel" population: same sizes and weights, but
    /// every job sequential.
    pub fn fig2_sequential(n: usize) -> WorkloadSpec {
        WorkloadSpec {
            parallel_fraction: 0.0,
            ..WorkloadSpec::fig2_parallel(n)
        }
    }

    /// Check the spec is one [`generate`](Self::generate) can sample;
    /// returns the problems found (empty = valid), each naming its field.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.n_jobs == 0 {
            errs.push("`n_jobs` must be >= 1".into());
        }
        // `AllAtZero` draws nothing: stand-ins that pass both checks.
        let (mean, amplitude) = match self.arrival {
            ArrivalSpec::AllAtZero => (1.0, 0.0),
            ArrivalSpec::Poisson {
                mean_interarrival_s,
            } => (mean_interarrival_s, 0.0),
            ArrivalSpec::DailyCycle {
                mean_interarrival_s,
                amplitude,
            } => (mean_interarrival_s, amplitude),
        };
        if !(mean > 0.0 && mean.is_finite()) {
            errs.push(format!(
                "`arrival`: `mean_interarrival_s` {mean} must be positive and finite"
            ));
        }
        if !(0.0..1.0).contains(&amplitude) {
            errs.push(format!("`arrival`: `amplitude` {amplitude} outside [0, 1)"));
        }
        if !(0.0..=1.0).contains(&self.parallel_fraction) {
            errs.push(format!(
                "`parallel_fraction` {} outside [0, 1]",
                self.parallel_fraction
            ));
        }
        for m in &self.models {
            if let Err(e) = m.validate() {
                errs.push(format!("`models`: {e}"));
            }
        }
        let (lo, hi) = self.max_procs_frac;
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            errs.push(format!(
                "`max_procs_frac` [{lo}, {hi}] needs finite lo <= hi"
            ));
        }
        for (field, dist) in [("work_s", &self.work_s), ("weight", &self.weight)] {
            if let Err(e) = dist.validate() {
                errs.push(format!("`{field}`: {e}"));
            }
        }
        errs
    }

    /// Generate the job list for a machine of `m` processors.
    pub fn generate(&self, m: usize, rng: &mut SimRng) -> Vec<Job> {
        assert!(m >= 1);
        assert!((0.0..=1.0).contains(&self.parallel_fraction));
        let mut jobs = Vec::with_capacity(self.n_jobs);
        let mut clock = 0.0f64;
        for i in 0..self.n_jobs {
            let release = {
                clock = self.arrival.next_after(clock, rng);
                Time::from_secs_f64(clock)
            };
            let work = Dur::from_secs_f64(self.work_s.sample(rng)).max(Dur::from_ticks(1));
            let parallel = rng.chance(self.parallel_fraction) && !self.models.is_empty();
            let kind = if parallel {
                let model = rng.choice(&self.models).clone();
                let frac = rng.range(self.max_procs_frac.0, self.max_procs_frac.1 + f64::EPSILON);
                let kmax = ((m as f64 * frac).round() as usize).clamp(1, m);
                JobKind::Moldable {
                    profile: MoldableProfile::from_model(work, &model, kmax),
                }
            } else {
                JobKind::Rigid {
                    procs: 1,
                    len: work,
                }
            };
            jobs.push(Job {
                id: JobId(i as u64),
                kind,
                release,
                weight: self.weight.sample(rng).max(0.0),
                due: None,
                user: self.user,
            });
        }
        jobs
    }
}

/// The §5.2 communities of the CIMENT grid and their workload shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommunityProfile {
    /// Numerical physicists: long (hours to weeks) sequential jobs.
    NumericalPhysics,
    /// Computer scientists: short jobs "focusing mainly on debug".
    ComputerScience,
    /// Moldable HPC applications (astro/medical image processing).
    ParallelHpc,
}

impl CommunityProfile {
    /// A workload spec for `n` jobs of this community on an `m`-proc
    /// cluster. User ids: physics 1, CS 2, HPC 3.
    pub fn spec(&self, n: usize) -> WorkloadSpec {
        match self {
            CommunityProfile::NumericalPhysics => WorkloadSpec {
                n_jobs: n,
                arrival: ArrivalSpec::Poisson {
                    mean_interarrival_s: 1800.0,
                },
                // Hours up to ~2 weeks, heavy tail.
                work_s: DistSpec::BoundedPareto(1.1, 3600.0, 1.2e6),
                parallel_fraction: 0.0,
                models: vec![],
                max_procs_frac: (0.0, 0.0),
                weight: DistSpec::Fixed(1.0),
                user: UserId(1),
            },
            CommunityProfile::ComputerScience => WorkloadSpec {
                n_jobs: n,
                arrival: ArrivalSpec::Poisson {
                    mean_interarrival_s: 120.0,
                },
                // Seconds to ~20 min debug runs.
                work_s: DistSpec::LogUniform(5.0, 1200.0),
                parallel_fraction: 0.3,
                models: vec![SpeedupModel::Amdahl { seq_fraction: 0.2 }],
                max_procs_frac: (0.05, 0.2),
                weight: DistSpec::Fixed(1.0),
                user: UserId(2),
            },
            CommunityProfile::ParallelHpc => WorkloadSpec {
                n_jobs: n,
                arrival: ArrivalSpec::Poisson {
                    mean_interarrival_s: 600.0,
                },
                work_s: DistSpec::LogUniform(600.0, 86_400.0),
                parallel_fraction: 1.0,
                models: vec![
                    SpeedupModel::Amdahl { seq_fraction: 0.05 },
                    SpeedupModel::PowerLaw { sigma: 0.85 },
                ],
                max_procs_frac: (0.1, 0.6),
                weight: DistSpec::Fixed(1.0),
                user: UserId(3),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let spec = WorkloadSpec::fig2_parallel(50);
        let a = spec.generate(100, &mut SimRng::seed_from(9));
        let b = spec.generate(100, &mut SimRng::seed_from(9));
        assert_eq!(a, b);
        let c = spec.generate(100, &mut SimRng::seed_from(10));
        assert_ne!(a, c);
    }

    #[test]
    fn fig2_parallel_is_all_moldable() {
        let jobs = WorkloadSpec::fig2_parallel(80).generate(100, &mut SimRng::seed_from(1));
        assert_eq!(jobs.len(), 80);
        assert!(jobs.iter().all(|j| j.profile().is_some()));
        for j in &jobs {
            let p = j.profile().unwrap();
            assert!(p.max_procs() >= 1 && p.max_procs() <= 100);
            let secs = p.seq_time().as_secs_f64();
            assert!((29.0..3100.0).contains(&secs), "work {secs}");
            assert!((1.0..=10.0 + 1e-9).contains(&j.weight));
        }
    }

    #[test]
    fn fig2_sequential_is_all_sequential() {
        let jobs = WorkloadSpec::fig2_sequential(60).generate(100, &mut SimRng::seed_from(2));
        assert!(jobs
            .iter()
            .all(|j| matches!(j.kind, JobKind::Rigid { procs: 1, .. })));
    }

    #[test]
    fn poisson_releases_are_increasing() {
        let jobs = WorkloadSpec::fig2_parallel(40).generate(100, &mut SimRng::seed_from(3));
        for w in jobs.windows(2) {
            assert!(w[0].release <= w[1].release);
        }
        assert!(jobs.last().unwrap().release > Time::ZERO);
    }

    #[test]
    fn daily_cycle_modulates_rate() {
        // With full-depth modulation, the busy half-day (sin > 0) must
        // receive clearly more arrivals than the quiet half-day.
        let spec = ArrivalSpec::DailyCycle {
            mean_interarrival_s: 60.0,
            amplitude: 0.9,
        };
        let mut rng = SimRng::seed_from(31);
        let mut clock = 0.0;
        let mut busy = 0usize;
        let mut quiet = 0usize;
        for _ in 0..5_000 {
            clock = spec.next_after(clock, &mut rng);
            let phase = (clock / 86_400.0) % 1.0;
            if phase < 0.5 {
                busy += 1; // sin positive on the first half-cycle
            } else {
                quiet += 1;
            }
        }
        assert!(
            busy as f64 > 1.5 * quiet as f64,
            "busy {busy} vs quiet {quiet}"
        );
    }

    #[test]
    fn daily_cycle_mean_rate_roughly_preserved() {
        let spec = ArrivalSpec::DailyCycle {
            mean_interarrival_s: 30.0,
            amplitude: 0.5,
        };
        let mut rng = SimRng::seed_from(37);
        let n = 20_000;
        let mut clock = 0.0;
        for _ in 0..n {
            clock = spec.next_after(clock, &mut rng);
        }
        let mean = clock / n as f64;
        assert!((25.0..35.0).contains(&mean), "mean interarrival {mean}");
    }

    #[test]
    fn all_at_zero_releases() {
        let spec = WorkloadSpec {
            arrival: ArrivalSpec::AllAtZero,
            ..WorkloadSpec::fig2_parallel(10)
        };
        let jobs = spec.generate(50, &mut SimRng::seed_from(4));
        assert!(jobs.iter().all(|j| j.release == Time::ZERO));
    }

    #[test]
    fn community_profiles_differ() {
        let rng = SimRng::seed_from(5);
        let phys = CommunityProfile::NumericalPhysics
            .spec(100)
            .generate(200, &mut rng.child(0));
        let cs = CommunityProfile::ComputerScience
            .spec(100)
            .generate(200, &mut rng.child(1));
        let mean =
            |v: &[Job]| v.iter().map(|j| j.seq_time().as_secs_f64()).sum::<f64>() / v.len() as f64;
        assert!(
            mean(&phys) > 10.0 * mean(&cs),
            "physics jobs are much longer: {} vs {}",
            mean(&phys),
            mean(&cs)
        );
        assert!(phys.iter().all(|j| j.user == UserId(1)));
        assert!(cs.iter().all(|j| j.user == UserId(2)));
    }

    #[test]
    fn dist_spec_means_match_monte_carlo() {
        let dists = [
            DistSpec::Fixed(3.0),
            DistSpec::Uniform(1.0, 5.0),
            DistSpec::LogUniform(2.0, 200.0),
            DistSpec::Exp(7.0),
            DistSpec::BoundedPareto(1.5, 2.0, 50.0),
            DistSpec::BoundedPareto(1.0, 2.0, 50.0), // the α = 1 special case
        ];
        let mut rng = SimRng::seed_from(11);
        for d in dists {
            let n = 200_000;
            let empirical = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
            let rel = (empirical - d.mean()).abs() / d.mean();
            assert!(rel < 0.02, "{d:?}: analytic {} vs MC {empirical}", d.mean());
        }
    }

    #[test]
    fn dist_specs_sample_in_range() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..200 {
            assert_eq!(DistSpec::Fixed(3.0).sample(&mut rng), 3.0);
            let u = DistSpec::Uniform(1.0, 2.0).sample(&mut rng);
            assert!((1.0..2.0).contains(&u));
            let lu = DistSpec::LogUniform(1.0, 100.0).sample(&mut rng);
            assert!((1.0..=100.0).contains(&lu));
            let bp = DistSpec::BoundedPareto(1.5, 2.0, 50.0).sample(&mut rng);
            assert!((2.0..=50.0).contains(&bp));
            assert!(DistSpec::Exp(5.0).sample(&mut rng) >= 0.0);
        }
    }
}
