//! List scheduling of rigid parallel tasks.
//!
//! The classical greedy the paper positions its shelf/batch algorithms
//! against: take jobs in a priority order, give each the processors that
//! free up earliest. No backfilling — holes left by wide jobs stay empty
//! (compare [`crate::backfill`]).
//!
//! For sequential jobs this is Graham's list scheduling with its
//! `2 − 1/m` guarantee. For rigid parallel tasks the greedy has no
//! constant-factor guarantee: take `m` pairs of a width-1 job of length
//! `L` followed by a width-`m` job of length 1. In FCFS order each wide
//! job waits for the narrow one before it, so the makespan is `m·(L + 1)`,
//! while running the narrow jobs side by side first takes `L + m`, the
//! area bound. The ratio tends to `m` as `L` grows. The greedy is still
//! the baseline used in the experiments.

use lsps_des::Time;
use lsps_platform::ProcSet;
use lsps_workload::Job;

use crate::schedule::Schedule;

/// Priority orders for list scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOrder {
    /// By release date, then id (submission order).
    Fcfs,
    /// Longest processing time first (ties by id).
    Lpt,
    /// Shortest processing time first.
    Spt,
    /// Highest weight density `ω / work` first (greedy for weighted
    /// completion criteria).
    WeightDensity,
}

/// Sort `(job, allotment)` pairs into `order`, ties by job id.
pub(crate) fn sort_jobs(items: &mut [(&Job, usize)], order: JobOrder) {
    match order {
        JobOrder::Fcfs => items.sort_by_key(|(j, _)| (j.release, j.id)),
        JobOrder::Lpt => items.sort_by_key(|(j, k)| (std::cmp::Reverse(j.time_on(*k)), j.id)),
        JobOrder::Spt => items.sort_by_key(|(j, k)| (j.time_on(*k), j.id)),
        JobOrder::WeightDensity => items.sort_by(|(a, ka), (b, kb)| {
            let da = a.weight / (a.time_on(*ka).ticks().max(1) as f64 * *ka as f64);
            let db = b.weight / (b.time_on(*kb).ticks().max(1) as f64 * *kb as f64);
            db.partial_cmp(&da)
                .expect("finite density")
                .then(a.id.cmp(&b.id))
        }),
    }
}

/// List-schedule jobs with explicit allotments `(job, k)` on `m` identical
/// processors: each job takes the `k` processors that become free earliest,
/// starting no earlier than its release date.
pub fn list_schedule_allotted(items: &[(&Job, usize)], m: usize, order: JobOrder) -> Schedule {
    assert!(m >= 1);
    let mut items: Vec<(&Job, usize)> = items.to_vec();
    for (j, k) in &items {
        assert!(
            *k >= 1 && *k <= m && *k <= j.max_procs() && *k >= j.min_procs(),
            "job {}: inadmissible allotment {k} on m={m}",
            j.id
        );
    }
    sort_jobs(&mut items, order);

    // free[i] = instant processor i becomes idle.
    let mut free = vec![Time::ZERO; m];
    let mut sched = Schedule::new(m);
    let mut by_free: Vec<usize> = (0..m).collect();
    for (job, k) in items {
        // Processors sorted by availability; ties by index for determinism.
        by_free.sort_by_key(|&i| (free[i], i));
        let chosen = &by_free[..k];
        let avail = chosen.iter().map(|&i| free[i]).max().expect("k >= 1");
        let start = avail.max(job.release);
        let end = start + job.time_on(k);
        let procs = ProcSet::from_indices(chosen.iter().copied());
        for &i in chosen {
            free[i] = end;
        }
        sched.place(job, start, procs);
    }
    sched
}

/// List-schedule rigid jobs (each uses its fixed processor count).
///
/// # Panics
/// If any job is moldable/divisible — choose allotments first (see
/// [`crate::allot`]).
pub fn list_schedule(jobs: &[Job], m: usize, order: JobOrder) -> Schedule {
    let items: Vec<(&Job, usize)> = jobs
        .iter()
        .map(|j| {
            assert!(
                matches!(j.kind, lsps_workload::JobKind::Rigid { .. }),
                "list_schedule expects rigid jobs; job {} is not",
                j.id
            );
            (j, j.min_procs())
        })
        .collect();
    list_schedule_allotted(&items, m, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsps_des::Dur;
    use lsps_metrics::cmax_lower_bound;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn packs_sequential_jobs_across_machines() {
        let jobs: Vec<Job> = (0..6).map(|i| Job::sequential(i, d(10))).collect();
        let s = list_schedule(&jobs, 3, JobOrder::Fcfs);
        assert!(s.validate(&jobs).is_ok());
        assert_eq!(s.makespan(), Time::from_ticks(20));
    }

    #[test]
    fn parallel_job_waits_for_enough_procs() {
        let jobs = vec![
            Job::sequential(1, d(10)),
            Job::sequential(2, d(20)),
            Job::rigid(3, 2, d(5)),
        ];
        let s = list_schedule(&jobs, 2, JobOrder::Fcfs);
        assert!(s.validate(&jobs).is_ok());
        // The wide job must wait until both procs free at t = 20.
        let a = s
            .assignments()
            .iter()
            .find(|a| a.job == lsps_workload::JobId(3))
            .unwrap();
        assert_eq!(a.start, Time::from_ticks(20));
        assert_eq!(s.makespan(), Time::from_ticks(25));
    }

    #[test]
    fn lpt_no_worse_than_fcfs_here() {
        let jobs = vec![
            Job::sequential(1, d(2)),
            Job::sequential(2, d(2)),
            Job::sequential(3, d(2)),
            Job::sequential(4, d(6)),
        ];
        let fcfs = list_schedule(&jobs, 2, JobOrder::Fcfs);
        let lpt = list_schedule(&jobs, 2, JobOrder::Lpt);
        assert!(lpt.makespan() <= fcfs.makespan());
        assert_eq!(lpt.makespan(), Time::from_ticks(6));
    }

    #[test]
    fn respects_release_dates() {
        let jobs = vec![Job::sequential(1, d(5)).released_at(Time::from_ticks(50))];
        let s = list_schedule(&jobs, 4, JobOrder::Fcfs);
        assert_eq!(s.assignments()[0].start, Time::from_ticks(50));
    }

    #[test]
    fn graham_bound_holds_for_sequential_jobs() {
        // Random-ish deterministic instance; LS ≤ (2 − 1/m)·LB must hold
        // because LB ≤ OPT.
        let lens = [7u64, 3, 9, 1, 12, 5, 8, 2, 11, 4, 6, 10];
        let jobs: Vec<Job> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Job::sequential(i as u64, d(l)))
            .collect();
        for m in [2usize, 3, 4] {
            let s = list_schedule(&jobs, m, JobOrder::Fcfs);
            assert!(s.validate(&jobs).is_ok());
            let lb = cmax_lower_bound(&jobs, m).ticks() as f64;
            let ratio = s.makespan().ticks() as f64 / lb;
            assert!(ratio <= 2.0 - 1.0 / m as f64 + 1e-9, "m={m}: ratio {ratio}");
        }
    }

    #[test]
    fn rigid_list_scheduling_is_no_constant_factor_heuristic() {
        // m pairs, ids interleaved: a width-1 job of 100 ticks, then a
        // width-m job of 1 tick, all released at 0.
        for (m, fcfs_cmax) in [(4usize, 404u64), (8, 808), (16, 1616)] {
            let jobs: Vec<Job> = (0..m as u64)
                .flat_map(|i| {
                    [
                        Job::sequential(2 * i, d(100)),
                        Job::rigid(2 * i + 1, m, d(1)),
                    ]
                })
                .collect();
            let fcfs = list_schedule(&jobs, m, JobOrder::Fcfs);
            assert!(fcfs.validate(&jobs).is_ok());
            assert_eq!(fcfs.makespan(), Time::from_ticks(fcfs_cmax), "m={m}");
            assert_eq!(fcfs_cmax, 101 * m as u64);
            let lb = cmax_lower_bound(&jobs, m);
            assert_eq!(lb, d(m as u64 + 100), "m={m}");
            // The bound is the optimum: narrow jobs side by side, then
            // the wide ones — the order LPT picks.
            let lpt = list_schedule(&jobs, m, JobOrder::Lpt);
            assert_eq!(lpt.makespan().since_epoch(), lb, "m={m}");
        }
    }

    #[test]
    fn allotted_moldable_jobs() {
        use lsps_workload::{MoldableProfile, SpeedupModel};
        let prof = MoldableProfile::from_model(d(100), &SpeedupModel::Linear, 8);
        let jobs = vec![Job::moldable(1, prof.clone()), Job::moldable(2, prof)];
        let items: Vec<(&Job, usize)> = jobs.iter().map(|j| (j, 4usize)).collect();
        let s = list_schedule_allotted(&items, 8, JobOrder::Fcfs);
        assert!(s.validate(&jobs).is_ok());
        // Both run side by side on 4 procs each.
        assert_eq!(s.makespan().ticks(), jobs[0].time_on(4).ticks());
    }

    #[test]
    #[should_panic]
    fn rejects_moldable_without_allotment() {
        use lsps_workload::{MoldableProfile, SpeedupModel};
        let prof = MoldableProfile::from_model(d(100), &SpeedupModel::Linear, 4);
        list_schedule(&[Job::moldable(1, prof)], 4, JobOrder::Fcfs);
    }

    #[test]
    #[should_panic]
    fn rejects_oversized_allotment() {
        let j = Job::rigid(1, 8, d(10));
        list_schedule(&[j], 4, JobOrder::Fcfs);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let jobs: Vec<Job> = (0..10).map(|i| Job::sequential(i, d(7))).collect();
        let a = list_schedule(&jobs, 3, JobOrder::Spt);
        let b = list_schedule(&jobs, 3, JobOrder::Spt);
        assert_eq!(a, b);
    }
}
