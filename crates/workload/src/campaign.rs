//! Multi-parametric campaigns (§5.2 of the paper).
//!
//! "A majority of the jobs submitted in this context are *multi-parametric*
//! jobs. Such a job consists of a large number (up to several hundreds of
//! thousands) of runs of the same program, each having different parameters.
//! Each run takes a relatively short time to complete, this time being often
//! the same for every run."
//!
//! A [`Campaign`] is that object: a bag of `n_runs` short, identical,
//! independent sequential runs. It is the discrete counterpart of a
//! [`JobKind::Divisible`](crate::job::JobKind::Divisible) load and the
//! payload of the CiGri best-effort layer, where runs are killable and
//! resubmittable at unit grain.

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, Time};

use crate::job::{Job, UserId};

/// A multi-parametric job: `n_runs` runs of the same program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Identifier of the campaign as a whole.
    pub id: u64,
    /// Number of runs.
    pub n_runs: usize,
    /// Length of every run.
    pub run_len: Dur,
    /// Submission date of the campaign.
    pub release: Time,
    /// Owning community.
    pub user: UserId,
}

impl Campaign {
    /// A campaign of `n_runs` runs of `run_len` each.
    pub fn new(id: u64, n_runs: usize, run_len: Dur) -> Campaign {
        assert!(n_runs >= 1 && run_len > Dur::ZERO);
        Campaign {
            id,
            n_runs,
            run_len,
            release: Time::ZERO,
            user: UserId::default(),
        }
    }

    /// Builder: release date.
    pub fn released_at(mut self, t: Time) -> Campaign {
        self.release = t;
        self
    }

    /// Builder: owner.
    pub fn with_user(mut self, u: UserId) -> Campaign {
        self.user = u;
        self
    }

    /// Total sequential work of the campaign.
    pub fn total_work(&self) -> Dur {
        self.run_len.saturating_mul(self.n_runs as u64)
    }

    /// The equivalent divisible load, in abstract units (reference-CPU
    /// seconds) — what the DLT steady-state theory of §5.2 operates on.
    pub fn as_divisible_work(&self) -> f64 {
        self.total_work().as_secs_f64()
    }

    /// Materialize the runs as sequential jobs with ids
    /// `base_id + run_index`.
    pub fn runs(&self, base_id: u64) -> Vec<Job> {
        (0..self.n_runs)
            .map(|i| {
                Job::sequential(base_id + i as u64, self.run_len)
                    .released_at(self.release)
                    .with_user(self.user)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn runs_are_identical_sequential_jobs() {
        let jobs = Campaign::new(0, 100, d(500)).runs(10);
        assert_eq!(jobs.len(), 100);
        assert!(jobs.iter().all(|j| j.min_time() == d(500)));
        assert!(jobs.iter().all(|j| j.min_procs() == 1));
        assert_eq!(jobs[0].id, JobId(10));
        assert_eq!(jobs[99].id, JobId(109));
    }

    #[test]
    fn totals() {
        let c = Campaign::new(2, 1000, d(250));
        assert_eq!(c.total_work(), d(250_000));
        assert!((c.as_divisible_work() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn release_and_user_propagate() {
        let c = Campaign::new(3, 5, d(10))
            .released_at(Time::from_ticks(99))
            .with_user(UserId(4));
        for j in c.runs(0) {
            assert_eq!(j.release, Time::from_ticks(99));
            assert_eq!(j.user, UserId(4));
        }
    }
}
