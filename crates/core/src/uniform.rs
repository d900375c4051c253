//! Scheduling on *uniform* machines — processors of different speeds.
//!
//! "The heterogeneity of computational units or communication links can
//! also be considered by uniform or unrelated processors for instance"
//! (§2.2). Inside a cluster the paper's heterogeneity is *weak* (same
//! family, different clock generations); this module provides the
//! corresponding sequential-job machinery:
//!
//! * [`uniform_list_schedule`] — greedy **minimum completion time** (MCT):
//!   every job goes to the machine finishing it earliest, honouring
//!   release dates; with LPT ordering this is the classical uniform-machine
//!   heuristic;
//! * [`UniformSchedule`] — its own representation and validator, because
//!   execution times depend on the *machine*, not only the job (a
//!   `len/speed` check replaces the identical-machine shape check).
//!
//! Moldable jobs on uniform machines reduce to this after allotment
//! selection on the *host cluster's* speed (the `lsps-grid` layer does
//! exactly that scaling).

use std::collections::HashMap;

use lsps_des::{Dur, Time};
use lsps_metrics::CompletedJob;
use lsps_workload::{Job, JobId, JobKind};

use crate::list::{sort_jobs, JobOrder};

/// One job placed on one speeded machine.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformAssignment {
    /// The job.
    pub job: JobId,
    /// Machine index (into the speed vector).
    pub machine: usize,
    /// Start time.
    pub start: Time,
    /// Completion time = start + ⌈len / speed⌉.
    pub end: Time,
}

/// A schedule over machines of given relative speeds.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformSchedule {
    speeds: Vec<f64>,
    assignments: Vec<UniformAssignment>,
}

/// Validation failures for uniform schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniformError {
    /// Two jobs overlap on the same machine.
    Overlap(JobId, JobId),
    /// A job starts before its release.
    EarlyStart(JobId),
    /// An assignment's span differs from the speed-scaled execution time.
    WrongShape(JobId),
    /// Unknown machine index.
    BadMachine(JobId),
    /// A job is missing or duplicated.
    Cardinality(JobId),
}

impl UniformSchedule {
    /// Assemble a schedule from raw parts (unchecked here — run
    /// [`validate`](UniformSchedule::validate) before consuming it). This
    /// is how external tooling and property tests build candidate or
    /// deliberately-corrupted schedules.
    pub fn from_parts(speeds: Vec<f64>, assignments: Vec<UniformAssignment>) -> UniformSchedule {
        assert!(!speeds.is_empty(), "a machine needs at least one processor");
        UniformSchedule {
            speeds,
            assignments,
        }
    }

    /// Expected span of `job` on machine `m` (ceiling of `len / speed`).
    fn expected_span(speeds: &[f64], m: usize, job: &Job) -> Dur {
        job.time_on(1)
            .scale_ceil(1.0 / speeds[m])
            .max(Dur::from_ticks(1))
    }

    /// The machine speeds.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The assignments, in insertion order.
    pub fn assignments(&self) -> &[UniformAssignment] {
        &self.assignments
    }

    /// Latest completion.
    pub fn makespan(&self) -> Time {
        self.assignments
            .iter()
            .map(|a| a.end)
            .fold(Time::ZERO, Time::max)
    }

    /// Per-job records (each runs on one processor).
    pub fn completed(&self, jobs: &[Job]) -> Vec<CompletedJob> {
        let by_id: HashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
        self.assignments
            .iter()
            .map(|a| {
                let job = by_id
                    .get(&a.job)
                    .unwrap_or_else(|| panic!("unknown {}", a.job));
                CompletedJob::from_job(job, a.start, a.end, 1)
            })
            .collect()
    }

    /// Validate: machine-disjointness, release dates, speed-scaled spans,
    /// one assignment per job.
    pub fn validate(&self, jobs: &[Job]) -> Result<(), UniformError> {
        let by_id: HashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
        let mut seen: HashMap<JobId, ()> = HashMap::new();
        for a in &self.assignments {
            let job = by_id.get(&a.job).ok_or(UniformError::Cardinality(a.job))?;
            if seen.insert(a.job, ()).is_some() {
                return Err(UniformError::Cardinality(a.job));
            }
            if a.machine >= self.speeds.len() {
                return Err(UniformError::BadMachine(a.job));
            }
            if a.start < job.release {
                return Err(UniformError::EarlyStart(a.job));
            }
            if a.end - a.start != Self::expected_span(&self.speeds, a.machine, job) {
                return Err(UniformError::WrongShape(a.job));
            }
        }
        for j in jobs {
            if !seen.contains_key(&j.id) {
                return Err(UniformError::Cardinality(j.id));
            }
        }
        // Per-machine overlap sweep.
        let mut by_machine: HashMap<usize, Vec<&UniformAssignment>> = HashMap::new();
        for a in &self.assignments {
            by_machine.entry(a.machine).or_default().push(a);
        }
        for list in by_machine.values_mut() {
            list.sort_by_key(|a| (a.start, a.end, a.job));
            for w in list.windows(2) {
                if w[1].start < w[0].end {
                    return Err(UniformError::Overlap(w[0].job, w[1].job));
                }
            }
        }
        Ok(())
    }
}

/// Greedy minimum-completion-time scheduling of sequential jobs on
/// machines of the given `speeds`: in priority order, each job goes where
/// it finishes earliest (slow machines lose ties naturally).
///
/// # Panics
/// If a job needs more than one processor or `speeds` is empty /
/// non-positive.
pub fn uniform_list_schedule(jobs: &[Job], speeds: &[f64], order: JobOrder) -> UniformSchedule {
    assert!(!speeds.is_empty() && speeds.iter().all(|&s| s > 0.0));
    for j in jobs {
        assert!(
            matches!(j.kind, JobKind::Rigid { procs: 1, .. }),
            "uniform_list_schedule handles sequential jobs; job {} is not",
            j.id
        );
    }
    let mut items: Vec<(&Job, usize)> = jobs.iter().map(|j| (j, 1usize)).collect();
    // The rigid orderings at allotment 1.
    sort_jobs(&mut items, order);
    let mut free = vec![Time::ZERO; speeds.len()];
    let mut sched = UniformSchedule {
        speeds: speeds.to_vec(),
        assignments: Vec::new(),
    };
    for (job, _) in items {
        let mut best: Option<(Time, Time, usize)> = None; // (end, start, machine)
        for (mi, &f) in free.iter().enumerate() {
            let start = f.max(job.release);
            let end = start + UniformSchedule::expected_span(speeds, mi, job);
            // Ties: earlier end, then *faster* machine (lower span), then
            // lower index — deterministic.
            if best.is_none_or(|(be, bs, bm)| (end, start, mi) < (be, bs, bm)) {
                best = Some((end, start, mi));
            }
        }
        let (end, start, machine) = best.expect("speeds non-empty");
        free[machine] = end;
        sched.assignments.push(UniformAssignment {
            job: job.id,
            machine,
            start,
            end,
        });
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsps_metrics::Criteria;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn fast_machine_attracts_work() {
        // Speeds 2 and 1: a lone job must pick the fast machine.
        let jobs = vec![Job::sequential(1, d(100))];
        let s = uniform_list_schedule(&jobs, &[1.0, 2.0], JobOrder::Fcfs);
        assert_eq!(s.validate(&jobs), Ok(()));
        assert_eq!(s.assignments()[0].machine, 1);
        assert_eq!(s.makespan(), Time::from_ticks(50));
    }

    #[test]
    fn mct_balances_speed_weighted() {
        // 3 equal jobs on speeds (2, 1): two go fast, one slow; makespan
        // = max(2·100/2, 100/1) = 100.
        let jobs: Vec<Job> = (0..3).map(|i| Job::sequential(i, d(100))).collect();
        let s = uniform_list_schedule(&jobs, &[2.0, 1.0], JobOrder::Lpt);
        assert_eq!(s.validate(&jobs), Ok(()));
        assert_eq!(s.makespan(), Time::from_ticks(100));
        let on_fast = s.assignments().iter().filter(|a| a.machine == 0).count();
        assert_eq!(on_fast, 2);
    }

    #[test]
    fn identical_speeds_match_identical_machine_list() {
        use crate::list::list_schedule;
        let jobs: Vec<Job> = (0..8).map(|i| Job::sequential(i, d(50 + i * 10))).collect();
        let uni = uniform_list_schedule(&jobs, &[1.0; 4], JobOrder::Lpt);
        let idm = list_schedule(&jobs, 4, JobOrder::Lpt);
        assert_eq!(uni.validate(&jobs), Ok(()));
        assert_eq!(uni.makespan(), idm.makespan());
    }

    #[test]
    fn release_dates_honoured() {
        let jobs = vec![Job::sequential(1, d(10)).released_at(Time::from_ticks(500))];
        let s = uniform_list_schedule(&jobs, &[1.0, 3.0], JobOrder::Fcfs);
        assert!(s.assignments()[0].start >= Time::from_ticks(500));
        assert_eq!(s.validate(&jobs), Ok(()));
    }

    #[test]
    fn lpt_beats_fcfs_on_skewed_speeds() {
        // Long jobs placed first grab the fast machines; FCFS can strand a
        // long job on the slow machine.
        let jobs = vec![
            Job::sequential(1, d(10)),
            Job::sequential(2, d(10)),
            Job::sequential(3, d(1000)),
        ];
        let lpt = uniform_list_schedule(&jobs, &[10.0, 0.1], JobOrder::Lpt);
        let fcfs = uniform_list_schedule(&jobs, &[10.0, 0.1], JobOrder::Fcfs);
        assert!(lpt.makespan() <= fcfs.makespan());
        // The giant must land on the fast machine under LPT.
        let giant = lpt
            .assignments()
            .iter()
            .find(|a| a.job == JobId(3))
            .unwrap();
        assert_eq!(giant.machine, 0);
    }

    #[test]
    fn validation_catches_wrong_speed_scaling() {
        let jobs = vec![Job::sequential(1, d(100))];
        let bad = UniformSchedule {
            speeds: vec![2.0],
            assignments: vec![UniformAssignment {
                job: JobId(1),
                machine: 0,
                start: Time::ZERO,
                end: Time::from_ticks(100), // should be 50 at speed 2
            }],
        };
        assert_eq!(bad.validate(&jobs), Err(UniformError::WrongShape(JobId(1))));
    }

    #[test]
    fn validation_catches_machine_overlap() {
        let jobs = vec![Job::sequential(1, d(100)), Job::sequential(2, d(100))];
        let bad = UniformSchedule {
            speeds: vec![1.0],
            assignments: vec![
                UniformAssignment {
                    job: JobId(1),
                    machine: 0,
                    start: Time::ZERO,
                    end: Time::from_ticks(100),
                },
                UniformAssignment {
                    job: JobId(2),
                    machine: 0,
                    start: Time::from_ticks(50),
                    end: Time::from_ticks(150),
                },
            ],
        };
        assert_eq!(
            bad.validate(&jobs),
            Err(UniformError::Overlap(JobId(1), JobId(2)))
        );
    }

    #[test]
    fn criteria_extraction_works() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::sequential(i, d(100))).collect();
        let s = uniform_list_schedule(&jobs, &[1.0, 0.5], JobOrder::Spt);
        assert_eq!(s.validate(&jobs), Ok(()));
        let crit = Criteria::evaluate(&s.completed(&jobs));
        assert_eq!(crit.n, 4);
        assert!(crit.cmax > 0.0);
    }

    #[test]
    fn weak_heterogeneity_close_to_homogeneous() {
        // The paper's point: ±10% clock spread barely moves the makespan
        // relative to the mean-speed homogeneous machine.
        let jobs: Vec<Job> = (0..40).map(|i| Job::sequential(i, d(100))).collect();
        let hetero = uniform_list_schedule(&jobs, &[0.9, 0.95, 1.0, 1.05, 1.1], JobOrder::Lpt);
        assert_eq!(hetero.validate(&jobs), Ok(()));
        let homo = uniform_list_schedule(&jobs, &[1.0; 5], JobOrder::Lpt);
        let ratio = hetero.makespan().ticks() as f64 / homo.makespan().ticks() as f64;
        assert!((0.85..1.15).contains(&ratio), "ratio {ratio}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// MCT always validates and never beats the speed-aware area bound
        /// `Σ len / Σ speed`.
        #[test]
        fn mct_valid_and_bounded(
            lens in prop::collection::vec(1u64..1_000, 1..40),
            speeds in prop::collection::vec(0.2f64..4.0, 1..8),
        ) {
            let jobs: Vec<Job> = lens.iter().enumerate()
                .map(|(i, &l)| Job::sequential(i as u64, Dur::from_ticks(l)))
                .collect();
            let s = uniform_list_schedule(&jobs, &speeds, JobOrder::Lpt);
            prop_assert_eq!(s.validate(&jobs), Ok(()));
            let total_len: f64 = lens.iter().map(|&l| l as f64).sum();
            let total_speed: f64 = speeds.iter().sum();
            prop_assert!(
                s.makespan().ticks() as f64 >= total_len / total_speed - 1.0,
                "makespan below the speed-aware area bound"
            );
        }
    }
}
