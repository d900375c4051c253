//! On-line batch scheduling (§4.2 of the paper; ref \[17\] Shmoys, Wein,
//! Williamson).
//!
//! "The jobs are gathered into sets (called batches) that are scheduled
//! together. All further arriving tasks are delayed to be considered in the
//! next batch. […] an algorithm for scheduling independent tasks without
//! release dates with a performance ratio of ρ \[becomes\] a batch scheduling
//! algorithm with unknown release dates with a performance ratio of 2ρ."
//!
//! [`batch_online`] is that transformation, generic over the off-line
//! procedure. Combined with [`crate::mrt`] it yields the paper's
//! "3 + ε for Cmax with release dates" algorithm.

use lsps_des::Time;
use lsps_workload::Job;

use crate::backfill::Reservation;
use crate::schedule::Schedule;

/// Run the Shmoys batch transformation: replay releases, and whenever the
/// machine falls idle with jobs waiting, hand every released-but-unscheduled
/// job (with its release date zeroed) to `offline` and append the resulting
/// schedule.
///
/// `offline(jobs, m)` must return a schedule of exactly `jobs` all released
/// at zero; its makespan positions the next batch boundary.
pub fn batch_online<F>(jobs: &[Job], m: usize, offline: F) -> Schedule
where
    F: FnMut(&[Job], usize) -> Schedule,
{
    batch_online_avoiding(jobs, m, &[], offline)
}

/// Batch scheduling around advance reservations (§5.1).
///
/// "A batch algorithm could try to ensure that batch boundaries match the
/// beginning and the end of the reservations, but that would likely be
/// inefficient." — this function implements exactly that idea so the
/// inefficiency can be *measured* (see the `reservations` test and the
/// `models_compare` discussion): reservations are treated as full-machine
/// blackout windows; a batch whose off-line schedule would cross the next
/// blackout is deferred past it.
///
/// Reservations must be pairwise disjoint in time.
pub fn batch_online_avoiding<F>(
    jobs: &[Job],
    m: usize,
    reservations: &[Reservation],
    mut offline: F,
) -> Schedule
where
    F: FnMut(&[Job], usize) -> Schedule,
{
    let mut windows: Vec<(Time, Time)> = reservations.iter().map(|r| (r.start, r.end)).collect();
    windows.sort_unstable();
    for w in windows.windows(2) {
        assert!(w[0].1 <= w[1].0, "reservations must not overlap in time");
    }
    let mut pending: Vec<&Job> = jobs.iter().collect();
    pending.sort_by_key(|j| (j.release, j.id));
    let mut sched = Schedule::new(m);
    let mut i = 0usize;
    // The first batch opens at the earliest release.
    let mut boundary = pending.first().map(|j| j.release).unwrap_or(Time::ZERO);
    while i < pending.len() {
        if pending[i].release > boundary {
            // Idle gap: jump to the next arrival.
            boundary = pending[i].release;
        }
        // Never start a batch inside a blackout window.
        for &(ws, we) in &windows {
            if boundary >= ws && boundary < we {
                boundary = we;
            }
        }
        // Collect the batch: everything released by the boundary.
        let mut batch: Vec<Job> = Vec::new();
        while i < pending.len() && pending[i].release <= boundary {
            let mut job = pending[i].clone();
            job.release = Time::ZERO;
            batch.push(job);
            i += 1;
        }
        let sub = offline(&batch, m);
        assert_eq!(sub.len(), batch.len(), "offline must schedule the batch");
        let span = sub.makespan().since_epoch();
        // If the batch would cross a blackout, defer it entirely past the
        // window — the aligned-boundaries idea, priced honestly. Loop: the
        // deferred position may run into the following window.
        loop {
            let crossing = windows
                .iter()
                .find(|&&(ws, we)| boundary < we && boundary + span > ws)
                .copied();
            match crossing {
                Some((_, we)) => boundary = we,
                None => break,
            }
        }
        sched.extend(sub.shifted(boundary.since_epoch()));
        boundary += span;
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, JobOrder};
    use crate::mrt::{mrt_schedule, MrtParams};
    use lsps_des::{Dur, SimRng};
    use lsps_metrics::cmax_lower_bound;
    use lsps_workload::{JobId, MoldableProfile, SpeedupModel};

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }
    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    #[test]
    fn batches_form_at_boundaries() {
        // j1 at 0 (runs 10), j2 arrives at 3 → must wait for batch 2 at 10.
        let jobs = vec![
            Job::sequential(1, d(10)),
            Job::sequential(2, d(5)).released_at(t(3)),
        ];
        let s = batch_online(&jobs, 1, |b, m| list_schedule(b, m, JobOrder::Fcfs));
        assert!(s.validate(&jobs).is_ok());
        let start2 = s
            .assignments()
            .iter()
            .find(|a| a.job == JobId(2))
            .unwrap()
            .start;
        assert_eq!(start2, t(10), "delayed to the next batch");
    }

    #[test]
    fn idle_gaps_are_skipped() {
        let jobs = vec![
            Job::sequential(1, d(5)),
            Job::sequential(2, d(5)).released_at(t(100)),
        ];
        let s = batch_online(&jobs, 2, |b, m| list_schedule(b, m, JobOrder::Fcfs));
        assert!(s.validate(&jobs).is_ok());
        let start2 = s
            .assignments()
            .iter()
            .find(|a| a.job == JobId(2))
            .unwrap()
            .start;
        assert_eq!(start2, t(100), "batch opens at the late arrival");
    }

    #[test]
    fn first_release_nonzero() {
        let jobs = vec![Job::sequential(1, d(5)).released_at(t(42))];
        let s = batch_online(&jobs, 1, |b, m| list_schedule(b, m, JobOrder::Fcfs));
        assert_eq!(s.assignments()[0].start, t(42));
    }

    #[test]
    fn mrt_batch_stays_within_3x_of_lower_bound() {
        // The paper's 3+ε on-line moldable algorithm: batches of MRT.
        let mut rng = SimRng::seed_from(21);
        for trial in 0..6 {
            let m = 16;
            let n = 10 + trial * 8;
            let mut clock = 0u64;
            let jobs: Vec<Job> = (0..n)
                .map(|i| {
                    clock += rng.int_range(0, 300);
                    Job::moldable(
                        i as u64,
                        MoldableProfile::from_model(
                            d(rng.int_range(50, 2000)),
                            &SpeedupModel::Amdahl {
                                seq_fraction: rng.range(0.0, 0.25),
                            },
                            rng.int_range(1, 16) as usize,
                        ),
                    )
                    .released_at(t(clock))
                })
                .collect();
            let s = batch_online(&jobs, m, |b, m| mrt_schedule(b, m, MrtParams::default()));
            assert!(s.validate(&jobs).is_ok(), "trial {trial}");
            let lb = cmax_lower_bound(&jobs, m).ticks() as f64;
            let ratio = s.makespan().ticks() as f64 / lb;
            assert!(
                ratio <= 3.0 * 1.01 + 1e-9,
                "trial {trial}: on-line ratio {ratio} above 3+ε"
            );
        }
    }

    #[test]
    fn empty_workload() {
        let s = batch_online(&[], 4, |b, m| list_schedule(b, m, JobOrder::Fcfs));
        assert!(s.is_empty());
    }

    #[test]
    fn reservation_aligned_batches_avoid_blackouts() {
        use crate::backfill::Reservation;
        use crate::backfill::{backfill_schedule, respects_reservations, BackfillPolicy};
        // One blackout window; jobs that would cross it get deferred.
        let resv = [Reservation {
            start: t(50),
            end: t(100),
            procs: 2, // full machine in the blackout interpretation
        }];
        let jobs = vec![
            Job::sequential(1, d(30)),
            Job::sequential(2, d(40)).released_at(t(10)),
            Job::sequential(3, d(20)).released_at(t(60)),
        ];
        let s = batch_online_avoiding(&jobs, 2, &resv, |b, m| list_schedule(b, m, JobOrder::Fcfs));
        assert!(s.validate(&jobs).is_ok());
        // No assignment intersects the blackout.
        for a in s.assignments() {
            assert!(
                a.end <= t(50) || a.start >= t(100),
                "assignment {:?} crosses the blackout",
                a
            );
        }
        // §5.1's prediction, measured: the aligned-batch construction is
        // never better than reservation-aware backfilling.
        let bf = backfill_schedule(&jobs, 2, &resv, BackfillPolicy::Conservative);
        assert!(respects_reservations(&bf, 2, &resv));
        assert!(
            bf.makespan() <= s.makespan(),
            "backfilling wins (paper §5.1)"
        );
    }

    #[test]
    #[should_panic]
    fn overlapping_reservations_rejected() {
        use crate::backfill::Reservation;
        let resv = [
            Reservation {
                start: t(0),
                end: t(10),
                procs: 1,
            },
            Reservation {
                start: t(5),
                end: t(15),
                procs: 1,
            },
        ];
        batch_online_avoiding(&[], 2, &resv, |b, m| list_schedule(b, m, JobOrder::Fcfs));
    }

    #[test]
    #[should_panic]
    fn offline_must_schedule_everything() {
        let jobs = vec![Job::sequential(1, d(5)), Job::sequential(2, d(5))];
        batch_online(&jobs, 1, |_b, m| Schedule::new(m));
    }
}
