//! Certified lower bounds on the optimal criteria values.
//!
//! The paper's Fig. 2 plots performance *ratios* to the optimum. Computing
//! the optimum is NP-hard for every variant at hand, so — like every
//! empirical study in this literature — we divide by certified lower
//! bounds; the reported ratios are therefore *upper bounds* on the true
//! ones, which is conservative.
//!
//! * [`cmax_lower_bound`]: `max( ⌈W/m⌉ , max_j (rj + pj^min) )` where `W`
//!   is total minimal work — the *area* bound and the *tallest job* bound.
//! * [`wsum_lower_bound`]: the squashed-area WSPT bound used in the SMART
//!   analysis (\[14\] in the paper): compress each job to its minimal work on
//!   a single speed-`m` resource, order by Smith ratio (work/weight), and
//!   charge each job the max of its squashed completion and its individual
//!   bound `rj + pj^min`. Both components bound any feasible schedule from
//!   below, hence so does the combination.

use lsps_des::Dur;
use lsps_workload::{Job, JobId};

/// Lower bound on the optimal makespan of `jobs` on `m` identical
/// processors (moldable jobs contribute their minimal work and minimal
/// time).
pub fn cmax_lower_bound(jobs: &[Job], m: usize) -> Dur {
    assert!(m >= 1);
    let total_work: u128 = jobs.iter().map(|j| j.min_work().ticks() as u128).sum();
    let area = Dur::from_ticks(total_work.div_ceil(m as u128) as u64);
    let tallest = jobs
        .iter()
        .map(|j| (j.release + j.min_time()).since_epoch())
        .fold(Dur::ZERO, Dur::max);
    area.max(tallest)
}

/// Lower bound on the optimal `Σ ωj Cj` of `jobs` on `m` identical
/// processors, in weight-seconds.
///
/// The maximum of two certified totals:
///
/// * **squashed area** — relax release dates and compress all minimal work
///   onto one speed-`m` preemptive resource; the Smith-order (WSPT) value
///   of that relaxation bounds every feasible schedule from below;
/// * **individual** — `Σ ωj (rj + pj^min)`, since every job satisfies
///   `Cj ≥ rj + pj^min`.
///
/// Note the max is over the *totals*, not per job: a per-job max would
/// pair each job's release bound with a squashed completion that assumes a
/// specific relaxed order, which is not simultaneously achievable — that
/// combination exceeds the optimum on some on-line instances.
pub fn wsum_lower_bound(jobs: &[Job], m: usize) -> f64 {
    identical_bound(jobs, m, |j| j.weight)
}

/// Lower bound on the optimal *sum of completion times* (unweighted):
/// [`wsum_lower_bound`] with all weights forced to one.
pub fn csum_lower_bound(jobs: &[Job], m: usize) -> f64 {
    identical_bound(jobs, m, |_| 1.0)
}

/// `jobs` in Smith order under `weight`: ascending ratio work/weight — the
/// WSPT-optimal order on the squashed machine — ties broken by id, then by
/// input position (the order a stable sort keeps). Zero-weight jobs go
/// last (ratio ∞). Each ratio is computed once, not per comparison, and
/// sorted as its bit pattern: for non-negative floats (+∞ included) the
/// bits order exactly as the values do.
fn smith_order(jobs: &[Job], weight: &impl Fn(&Job) -> f64) -> Vec<usize> {
    let mut keys: Vec<(u64, JobId, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let ratio = j.min_work().ticks() as f64 / weight(j).max(f64::MIN_POSITIVE);
            assert!(ratio >= 0.0, "Smith ratios are non-negative numbers");
            (ratio.to_bits(), j.id, i)
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, _, i)| i).collect()
}

/// [`wsum_lower_bound`] under `weight` (see there).
fn identical_bound(jobs: &[Job], m: usize, weight: impl Fn(&Job) -> f64) -> f64 {
    assert!(m >= 1);
    let mut acc_work: u128 = 0;
    let mut squashed_total = 0.0;
    let mut individual_total = 0.0;
    for i in smith_order(jobs, &weight) {
        let j = &jobs[i];
        let w = weight(j);
        acc_work += j.min_work().ticks() as u128;
        // Squashed completion on the speed-m resource, in ticks.
        squashed_total += w * (acc_work as f64 / m as f64);
        individual_total += w * (j.release + j.min_time()).since_epoch().ticks() as f64;
    }
    squashed_total.max(individual_total) / lsps_des::TICKS_PER_SEC as f64
}

/// Assert a uniform-machine speed vector is usable for bounding.
fn check_speeds(speeds: &[f64]) -> (f64, f64) {
    assert!(
        !speeds.is_empty() && speeds.iter().all(|&s| s > 0.0 && s.is_finite()),
        "speeds must be non-empty, positive and finite"
    );
    let total: f64 = speeds.iter().sum();
    let max = speeds.iter().cloned().fold(f64::MIN, f64::max);
    (total, max)
}

/// Lower bound (seconds) on the optimal makespan of sequential `jobs` on
/// *uniform* machines with the given relative `speeds`: the speed-aware
/// area bound `Σ p / Σ s` and the tallest-job bound `max_j (rj + pj/s_max)`
/// — the identical-machine [`cmax_lower_bound`] with the machine count
/// replaced by aggregate speed and the per-job height scaled by the
/// fastest processor.
pub fn uniform_cmax_lower_bound(jobs: &[Job], speeds: &[f64]) -> f64 {
    let (total_speed, max_speed) = check_speeds(speeds);
    let ticks = lsps_des::TICKS_PER_SEC as f64;
    let total_work: f64 = jobs.iter().map(|j| j.min_work().ticks() as f64).sum();
    let area = total_work / total_speed / ticks;
    let tallest = jobs
        .iter()
        .map(|j| j.release.as_secs_f64() + j.min_time().ticks() as f64 / max_speed / ticks)
        .fold(0.0, f64::max);
    area.max(tallest)
}

/// Lower bound on the optimal `Σ ωj Cj` on uniform machines, in
/// weight-seconds — [`wsum_lower_bound`]'s two certified totals with the
/// squashed resource running at the aggregate speed `Σ s` and the
/// individual bound `Cj ≥ rj + pj / s_max`.
pub fn uniform_wsum_lower_bound(jobs: &[Job], speeds: &[f64]) -> f64 {
    uniform_bound(jobs, speeds, |j| j.weight)
}

/// Lower bound on the optimal sum of completion times on uniform machines:
/// [`uniform_wsum_lower_bound`] with all weights forced to one.
pub fn uniform_csum_lower_bound(jobs: &[Job], speeds: &[f64]) -> f64 {
    uniform_bound(jobs, speeds, |_| 1.0)
}

/// [`uniform_wsum_lower_bound`] under `weight` (see there).
fn uniform_bound(jobs: &[Job], speeds: &[f64], weight: impl Fn(&Job) -> f64) -> f64 {
    let (total_speed, max_speed) = check_speeds(speeds);
    let ticks = lsps_des::TICKS_PER_SEC as f64;
    let mut acc_work = 0.0;
    let mut squashed_total = 0.0;
    let mut individual_total = 0.0;
    for i in smith_order(jobs, &weight) {
        let j = &jobs[i];
        let w = weight(j);
        acc_work += j.min_work().ticks() as f64;
        squashed_total += w * (acc_work / total_speed);
        individual_total +=
            w * (j.release.since_epoch().ticks() as f64 + j.min_time().ticks() as f64 / max_speed);
    }
    squashed_total.max(individual_total) / ticks
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsps_des::Time;
    use lsps_workload::{MoldableProfile, SpeedupModel};

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn cmax_area_bound_dominates_when_machine_small() {
        // 10 unit jobs on 2 machines: area bound 5.
        let jobs: Vec<Job> = (0..10).map(|i| Job::sequential(i, d(1))).collect();
        assert_eq!(cmax_lower_bound(&jobs, 2), d(5));
        // On 100 machines the tallest job (1) dominates.
        assert_eq!(cmax_lower_bound(&jobs, 100), d(1));
    }

    #[test]
    fn cmax_tallest_includes_release() {
        let jobs = vec![Job::sequential(0, d(10)).released_at(Time::from_ticks(90))];
        assert_eq!(cmax_lower_bound(&jobs, 4), d(100));
    }

    #[test]
    fn cmax_moldable_uses_min_work_and_min_time() {
        let prof = MoldableProfile::from_model(d(100), &SpeedupModel::Linear, 4);
        let min_t = prof.min_time();
        let jobs = vec![Job::moldable(0, prof)];
        // Area bound on 1 machine = sequential work; tallest = min time.
        assert_eq!(cmax_lower_bound(&jobs, 1), d(100));
        assert_eq!(cmax_lower_bound(&jobs, 64), min_t);
    }

    #[test]
    fn uniform_bounds_reduce_to_identical_machine_bounds_at_unit_speed() {
        let jobs: Vec<Job> = (0..9)
            .map(|i| Job::sequential(i, Dur::from_secs(10 + i * 7)).with_weight(1.0 + i as f64))
            .collect();
        let speeds = vec![1.0; 4];
        let cmax = uniform_cmax_lower_bound(&jobs, &speeds);
        // The identical-machine bound ceils the area to whole ticks; the
        // uniform one does not — equal up to that rounding.
        let ident = cmax_lower_bound(&jobs, 4).as_secs_f64();
        assert!((cmax - ident).abs() < 1e-3, "{cmax} vs {ident}");
        let wsum = uniform_wsum_lower_bound(&jobs, &speeds);
        assert!((wsum - wsum_lower_bound(&jobs, 4)).abs() < 1e-6);
        let csum = uniform_csum_lower_bound(&jobs, &speeds);
        assert!((csum - csum_lower_bound(&jobs, 4)).abs() < 1e-6);
    }

    #[test]
    fn uniform_cmax_uses_aggregate_speed_and_fastest_height() {
        // Work 100 s on speeds (3, 1): area bound 25 s; a single 100 s job
        // bounded by 100/3 on the fastest machine.
        let jobs = vec![Job::sequential(0, Dur::from_secs(100))];
        let lb = uniform_cmax_lower_bound(&jobs, &[3.0, 1.0]);
        assert!((lb - 100.0 / 3.0).abs() < 1e-9, "lb = {lb}");
        let many: Vec<Job> = (0..8)
            .map(|i| Job::sequential(i, Dur::from_secs(100)))
            .collect();
        let lb = uniform_cmax_lower_bound(&many, &[3.0, 1.0]);
        assert!(
            (lb - 800.0 / 4.0).abs() < 1e-9,
            "area bound dominates: {lb}"
        );
    }

    #[test]
    #[should_panic]
    fn uniform_bounds_reject_bad_speeds() {
        uniform_cmax_lower_bound(&[], &[1.0, 0.0]);
    }

    #[test]
    fn wsum_single_machine_matches_wspt_exactly() {
        // On m = 1 with all releases 0, the squashed bound *is* the optimal
        // WSPT value. Jobs: (len 2, w 1), (len 1, w 1).
        let jobs = vec![
            Job::sequential(0, Dur::from_secs(2)),
            Job::sequential(1, Dur::from_secs(1)),
        ];
        // WSPT order: the 1s job first → C = 1 and 3 → Σ = 4.
        let lb = wsum_lower_bound(&jobs, 1);
        assert!((lb - 4.0).abs() < 1e-9, "lb = {lb}");
    }

    #[test]
    fn wsum_respects_weights() {
        // Same lengths, one heavy job: it must come first in the bound.
        let jobs = vec![
            Job::sequential(0, Dur::from_secs(1)).with_weight(1.0),
            Job::sequential(1, Dur::from_secs(1)).with_weight(10.0),
        ];
        // Optimal on one machine: heavy first → 10·1 + 1·2 = 12.
        let lb = wsum_lower_bound(&jobs, 1);
        assert!((lb - 12.0).abs() < 1e-9, "lb = {lb}");
    }

    #[test]
    fn wsum_individual_bound_kicks_in() {
        // A job released late: its completion can't precede release + len.
        let jobs = vec![Job::sequential(0, Dur::from_secs(1)).released_at(Time::from_secs(100))];
        let lb = wsum_lower_bound(&jobs, 8);
        assert!((lb - 101.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_scale_with_machines() {
        let jobs: Vec<Job> = (0..32)
            .map(|i| Job::sequential(i, Dur::from_secs(1)))
            .collect();
        // More machines ⇒ weaker (smaller) bounds.
        assert!(wsum_lower_bound(&jobs, 1) > wsum_lower_bound(&jobs, 4));
        assert!(cmax_lower_bound(&jobs, 1) > cmax_lower_bound(&jobs, 4));
    }

    #[test]
    fn csum_is_unweighted_wsum() {
        let jobs = vec![
            Job::sequential(0, Dur::from_secs(3)).with_weight(7.0),
            Job::sequential(1, Dur::from_secs(1)).with_weight(0.5),
        ];
        let a = csum_lower_bound(&jobs, 1);
        // Unweighted WSPT: 1 then 3 → 1 + 4 = 5.
        assert!((a - 5.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The squashed bound never exceeds the value of an explicit
        /// single-machine WSPT schedule built on a speed-m resource — i.e.
        /// it is what it claims to be.
        #[test]
        fn wsum_bound_below_any_list_schedule(
            lens in prop::collection::vec(1u64..1000, 1..40),
            m in 1usize..16,
        ) {
            let jobs: Vec<Job> = lens.iter().enumerate()
                .map(|(i, &l)| Job::sequential(i as u64, Dur::from_ticks(l)))
                .collect();
            let lb = wsum_lower_bound(&jobs, m);
            // Feasible schedule value: actually run the jobs one per
            // machine in arbitrary (id) order via a greedy earliest-machine
            // rule and compute its Σ C.
            let mut free = vec![0u64; m];
            let mut sum = 0.0;
            for j in &jobs {
                let (idx, _) = free.iter().enumerate().min_by_key(|&(_, &f)| f).unwrap();
                let start = free[idx];
                let end = start + j.min_work().ticks();
                free[idx] = end;
                sum += end as f64 / lsps_des::TICKS_PER_SEC as f64;
            }
            prop_assert!(lb <= sum + 1e-6, "lb {lb} > feasible {sum}");
        }

        /// Each ΣC bound is its ΣωC twin over unit-weight clones, bit for
        /// bit, on identical and on uniform machines — ratio ties (equal
        /// lengths), zero and fractional weights, and releases included.
        #[test]
        fn csum_is_unweighted_wsum_bit_for_bit(
            specs in prop::collection::vec((1u64..50, 0usize..4, 0u64..500), 0..40),
            m in 1usize..16,
            speeds in prop::collection::vec(0.25f64..4.0, 1..6),
        ) {
            const WEIGHTS: [f64; 4] = [0.0, 0.5, 1.0, 7.25];
            let jobs: Vec<Job> = specs.iter().enumerate()
                .map(|(i, &(len, w, rel))| {
                    Job::sequential(i as u64, Dur::from_ticks(len * 1_000))
                        .with_weight(WEIGHTS[w])
                        .released_at(lsps_des::Time::from_ticks(rel))
                })
                .collect();
            let unit: Vec<Job> = jobs.iter().cloned().map(|j| j.with_weight(1.0)).collect();
            prop_assert_eq!(
                csum_lower_bound(&jobs, m).to_bits(),
                wsum_lower_bound(&unit, m).to_bits()
            );
            prop_assert_eq!(
                uniform_csum_lower_bound(&jobs, &speeds).to_bits(),
                uniform_wsum_lower_bound(&unit, &speeds).to_bits()
            );
        }

        /// Cmax lower bound is below a greedy feasible schedule too.
        #[test]
        fn cmax_bound_below_greedy(
            lens in prop::collection::vec(1u64..1000, 1..40),
            m in 1usize..16,
        ) {
            let jobs: Vec<Job> = lens.iter().enumerate()
                .map(|(i, &l)| Job::sequential(i as u64, Dur::from_ticks(l)))
                .collect();
            let lb = cmax_lower_bound(&jobs, m).ticks();
            let mut free = vec![0u64; m];
            for j in &jobs {
                let idx = (0..m).min_by_key(|&i| free[i]).unwrap();
                free[idx] += j.min_work().ticks();
            }
            let cmax = free.into_iter().max().unwrap();
            prop_assert!(lb <= cmax, "lb {lb} > feasible {cmax}");
        }
    }
}
