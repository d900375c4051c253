//! Named workload families — generator closures a campaign spec can name.
//!
//! A family is a seeded generator parameterized by an instance size `n`;
//! resolution happens at spec-validation time, so an unknown family fails
//! before any cell runs. The built-ins cover the paper's experiment
//! populations:
//!
//! * `fig2-parallel` / `fig2-sequential` — the Fig. 2 job populations,
//!   drawn through a per-`n` child stream (so every `n` of a sweep sees
//!   independent draws from one base seed), exactly as the `fig2` binary
//!   always generated them.
//! * `fig2-rigid` — the Fig. 2 parallel population rigidified at half its
//!   maximum width: the "realistic rigid trace" of the TAB-P comparison.
//! * `moldable0` / `moldable-online` / `rigid0` — the instance families of
//!   the guarantees experiment (TAB-G), drawn through a per-`m` child
//!   stream so every machine size sees its historical instances.
//!
//! Synthetic one-off workloads do not need a family: a spec can embed a
//! full [`lsps_workload::WorkloadSpec`] inline
//! ([`crate::spec::WorkloadSource::Spec`]).

use std::sync::Arc;

use lsps_des::{Dur, SimRng, Time};
use lsps_workload::{Job, JobKind, MoldableProfile, SpeedupModel, WorkloadSpec};

/// A resolved family: machine size + seeded RNG in, jobs out.
pub type FamilyGen = Arc<dyn Fn(usize, &mut SimRng) -> Vec<Job> + Send + Sync>;

/// A weighted moldable instance of the guarantees experiment: Amdahl
/// profiles, work 50..5000 s, optional staggered releases. (Moved verbatim
/// from the `guarantees` binary — the instances are seed-pinned history.)
pub fn moldable_instance(rng: &mut SimRng, n: usize, m: usize, online: bool) -> Vec<Job> {
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            if online {
                clock += rng.int_range(0, 200);
            }
            Job::moldable(
                i as u64,
                MoldableProfile::from_model(
                    Dur::from_ticks(rng.int_range(50, 5_000)),
                    &SpeedupModel::Amdahl {
                        seq_fraction: rng.range(0.0, 0.3),
                    },
                    rng.int_range(1, m as u64) as usize,
                ),
            )
            .released_at(Time::from_ticks(clock))
            .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// A weighted rigid instance of the guarantees experiment.
pub fn rigid_instance(rng: &mut SimRng, n: usize, m: usize) -> Vec<Job> {
    (0..n)
        .map(|i| {
            Job::rigid(
                i as u64,
                rng.int_range(1, m as u64) as usize,
                Dur::from_ticks(rng.int_range(10, 2_000)),
            )
            .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// Rigidify a moldable job list at half the maximum width (minimum one
/// processor) — the TAB-P "Rigid" application class.
pub fn rigidify_at_half_width(jobs: Vec<Job>) -> Vec<Job> {
    jobs.into_iter()
        .map(|j| match &j.kind {
            JobKind::Moldable { profile } => {
                let k = (profile.max_procs() / 2).max(1);
                let len = profile.time(k);
                Job {
                    kind: JobKind::Rigid { procs: k, len },
                    ..j
                }
            }
            _ => j,
        })
        .collect()
}

/// Resolve a built-in family name at instance size `n`. Returns `None` for
/// unknown names (spec validation reports that before any cell runs).
pub fn builtin_family(family: &str, n: usize) -> Option<FamilyGen> {
    Some(match family {
        "fig2-parallel" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(n as u64);
            WorkloadSpec::fig2_parallel(n).generate(m, &mut rng)
        }),
        "fig2-sequential" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(n as u64);
            WorkloadSpec::fig2_sequential(n).generate(m, &mut rng)
        }),
        "fig2-rigid" => Arc::new(move |m, rng: &mut SimRng| {
            rigidify_at_half_width(WorkloadSpec::fig2_parallel(n).generate(m, rng))
        }),
        "moldable0" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(m as u64);
            moldable_instance(&mut rng, n, m, false)
        }),
        "moldable-online" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(m as u64);
            moldable_instance(&mut rng, n, m, true)
        }),
        "rigid0" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(m as u64);
            rigid_instance(&mut rng, n, m)
        }),
        "large-scale" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(n as u64);
            large_scale_instance(&mut rng, n, m)
        }),
        "trace-100k" => Arc::new(move |m, rng: &mut SimRng| {
            let mut rng = rng.child(n as u64);
            trace_instance(&mut rng, n, m)
        }),
        "uniform-seq" => Arc::new(move |_m, rng: &mut SimRng| {
            let mut rng = rng.child(n as u64);
            uniform_seq_instance(&mut rng, n)
        }),
        "unknown-runtimes" => Arc::new(move |_m, rng: &mut SimRng| {
            let mut rng = rng.child(n as u64);
            unknown_runtimes_instance(&mut rng, n)
        }),
        _ => return None,
    })
}

/// The "large scale platforms" population of the paper's title: a
/// thousands-of-jobs rigid stream for 1024+-processor machines. Widths
/// are heavy-tailed log-uniform up to `m/8` (mostly narrow jobs, the
/// occasional wide one — the shape backfilling exploits), runtimes span
/// two orders of magnitude, and arrivals keep the machine near
/// saturation. Placing such an instance was infeasible with full-scan
/// timeline queries; the availability profile handles it in seconds.
pub fn large_scale_instance(rng: &mut SimRng, n: usize, m: usize) -> Vec<Job> {
    let max_w = (m / 8).max(1) as f64;
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            clock += rng.int_range(0, 120);
            let w = (rng.log_uniform(1.0, max_w).round() as usize).clamp(1, m);
            Job::rigid(
                i as u64,
                w,
                Dur::from_secs_f64(rng.log_uniform(120.0, 14_400.0)),
            )
            .released_at(Time::from_secs(clock))
            .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// A synthetic trace in the shape of the SWF archives the backfilling
/// literature replays, sized for 100k-job event-driven runs: rigid jobs
/// with power-of-two-biased widths (the allocation-request bias every
/// archive shows), log-normal runtimes (median 10 min, minutes-to-days
/// right tail), and diurnally modulated Poisson arrivals — rush hours
/// and quiet nights over an 86 400 s day. Arrivals trickle instead of
/// batching, which is exactly the regime where per-event incremental
/// replanning (O(dirty) work per decision) beats the full replan.
pub fn trace_instance(rng: &mut SimRng, n: usize, m: usize) -> Vec<Job> {
    let max_w = (m / 8).max(1);
    let mut clock = 0.0f64;
    (0..n)
        .map(|i| {
            // Arrival intensity peaks mid-day and bottoms out at night;
            // the mean inter-arrival stretches with the day phase. The
            // base rate is tuned to ~0.9 average offered load at m=1024:
            // the midday rush transiently overloads the machine and the
            // backlog drains overnight, so the queue is cyclo-stationary
            // — deep enough to exercise backfilling, bounded so the
            // planning horizon does not grow with the trace length.
            let phase = (clock % 86_400.0) / 86_400.0;
            let intensity = 0.6 - 0.4 * (std::f64::consts::TAU * phase).cos();
            clock += rng.exp(21.0 / intensity);
            let raw = (rng.log_uniform(1.0, max_w as f64).round() as usize).clamp(1, max_w);
            let w = if rng.chance(0.75) {
                // Snap down to a power of two, never past the cap.
                let p2 = raw.next_power_of_two();
                if p2 > raw {
                    p2 / 2
                } else {
                    p2
                }
            } else {
                raw
            };
            let len = rng.lognormal(600f64.ln(), 1.4).clamp(30.0, 172_800.0);
            Job::rigid(i as u64, w.max(1), Dur::from_secs_f64(len))
                .released_at(Time::from_secs_f64(clock))
                .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// A sequential bag for the *uniform-machine* model (§2.2): n weighted
/// one-processor jobs, 60–900 s, staggered arrivals — the workload class
/// where per-processor speeds, not widths, decide placement. Independent
/// of `m` (the machine is the axis under study).
pub fn uniform_seq_instance(rng: &mut SimRng, n: usize) -> Vec<Job> {
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            clock += rng.int_range(0, 120);
            Job::sequential(i as u64, Dur::from_secs(rng.int_range(60, 900)))
                .released_at(Time::from_secs(clock))
                .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// A sequential bag whose runtimes the scheduler must *discover* (§4.2
/// non-clairvoyance): heavy-tailed log-uniform lengths over 2.5 orders of
/// magnitude, so any fixed estimate is badly wrong for most jobs and the
/// exponential-trial doubling actually pays its overhead.
pub fn unknown_runtimes_instance(rng: &mut SimRng, n: usize) -> Vec<Job> {
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            clock += rng.int_range(0, 60);
            Job::sequential(i as u64, Dur::from_secs_f64(rng.log_uniform(10.0, 5_000.0)))
                .released_at(Time::from_secs(clock))
                .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every built-in family name.
    const FAMILY_NAMES: [&str; 10] = [
        "fig2-parallel",
        "fig2-sequential",
        "fig2-rigid",
        "moldable0",
        "moldable-online",
        "rigid0",
        "large-scale",
        "trace-100k",
        "uniform-seq",
        "unknown-runtimes",
    ];

    #[test]
    fn every_listed_family_resolves_and_generates() {
        for name in FAMILY_NAMES {
            let family = builtin_family(name, 8).unwrap_or_else(|| panic!("{name} resolves"));
            let mut rng = SimRng::seed_from(3);
            let jobs = family(32, &mut rng);
            assert_eq!(jobs.len(), 8, "{name}");
            // Deterministic: same seed, same jobs.
            let mut rng2 = SimRng::seed_from(3);
            assert_eq!(jobs, family(32, &mut rng2), "{name}");
        }
        assert!(builtin_family("nope", 8).is_none());
    }

    #[test]
    fn fig2_rigid_is_all_rigid() {
        let family = builtin_family("fig2-rigid", 20).unwrap();
        let jobs = family(100, &mut SimRng::seed_from(7));
        assert!(jobs.iter().all(|j| matches!(j.kind, JobKind::Rigid { .. })));
        // Half-width rigidification keeps widths within the machine.
        assert!(jobs.iter().all(|j| j.min_procs() <= 50));
    }

    #[test]
    fn sequential_families_are_sequential_and_machine_independent() {
        for name in ["uniform-seq", "unknown-runtimes"] {
            let family = builtin_family(name, 12).unwrap();
            let a = family(8, &mut SimRng::seed_from(9));
            let b = family(128, &mut SimRng::seed_from(9));
            assert_eq!(a, b, "{name}: machine size must not perturb the draws");
            assert!(
                a.iter()
                    .all(|j| matches!(j.kind, JobKind::Rigid { procs: 1, .. })),
                "{name}: every job is sequential"
            );
            assert!(a.iter().all(|j| !j.time_on(1).is_zero()), "{name}");
        }
        // The unknown-runtimes tail is heavy: the longest job dwarfs the
        // shortest by at least an order of magnitude on a modest draw.
        let family = builtin_family("unknown-runtimes", 30).unwrap();
        let jobs = family(8, &mut SimRng::seed_from(5));
        let lens: Vec<u64> = jobs.iter().map(|j| j.time_on(1).ticks()).collect();
        let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(hi / lo.max(&1) >= 10, "spread {lo}..{hi}");
    }

    #[test]
    fn large_scale_family_shape() {
        let family = builtin_family("large-scale", 200).unwrap();
        let m = 1024;
        let jobs = family(m, &mut SimRng::seed_from(11));
        assert_eq!(jobs.len(), 200);
        assert!(jobs.iter().all(|j| matches!(j.kind, JobKind::Rigid { .. })));
        // Widths respect the heavy-tail cap and runtimes are positive.
        assert!(jobs.iter().all(|j| (1..=m / 8).contains(&j.min_procs())));
        assert!(jobs.iter().all(|j| !j.time_on(j.min_procs()).is_zero()));
        // Mostly narrow: the median width is far below the cap.
        let mut widths: Vec<usize> = jobs.iter().map(|j| j.min_procs()).collect();
        widths.sort_unstable();
        assert!(widths[100] < m / 16, "median width {}", widths[100]);
        // Releases form a stream, not a batch.
        assert!(jobs.last().unwrap().release > jobs[0].release);
    }

    #[test]
    fn trace_family_shape() {
        let family = builtin_family("trace-100k", 4_000).unwrap();
        let m = 1024;
        let jobs = family(m, &mut SimRng::seed_from(13));
        assert_eq!(jobs.len(), 4_000);
        assert!(jobs.iter().all(|j| matches!(j.kind, JobKind::Rigid { .. })));
        assert!(jobs.iter().all(|j| (1..=m / 8).contains(&j.min_procs())));
        // Power-of-two allocation bias: a clear majority of widths.
        let p2 = jobs
            .iter()
            .filter(|j| j.min_procs().is_power_of_two())
            .count();
        assert!(p2 * 2 > jobs.len(), "only {p2}/4000 power-of-two widths");
        // Log-normal runtimes: heavy right tail, bounded floor/ceiling.
        let lens: Vec<f64> = jobs
            .iter()
            .map(|j| j.time_on(j.min_procs()).as_secs_f64())
            .collect();
        assert!(lens.iter().all(|&l| (30.0..=172_800.0).contains(&l)));
        let mut sorted = lens.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!(median < 2_000.0, "median runtime {median}");
        assert!(*sorted.last().unwrap() > 20_000.0, "tail too light");
        // Releases form a strictly growing stream (a trickle, not a batch),
        // and the diurnal modulation leaves visible density contrast: the
        // busiest six-hour-of-day bucket sees well over twice the arrivals
        // of the quietest.
        assert!(jobs.windows(2).all(|w| w[0].release <= w[1].release));
        assert!(jobs.last().unwrap().release.as_secs_f64() > 86_400.0);
        let mut buckets = [0usize; 4];
        for j in &jobs {
            let phase = j.release.as_secs_f64() % 86_400.0;
            buckets[(phase / 21_600.0) as usize % 4] += 1;
        }
        let (lo, hi) = (buckets.iter().min().unwrap(), buckets.iter().max().unwrap());
        assert!(hi > &(lo * 2), "diurnal contrast {buckets:?}");
    }

    #[test]
    fn guarantee_families_draw_one_stream_per_m() {
        // The per-m child stream means different machine sizes draw
        // different instances from the same seed — the historical shape.
        let family = builtin_family("rigid0", 10).unwrap();
        let a = family(16, &mut SimRng::seed_from(1));
        let b = family(64, &mut SimRng::seed_from(1));
        assert_ne!(a, b);
    }
}
