//! Jobs: the unit of submission.
//!
//! A [`Job`] carries the PT/DLT classification of §2 of the paper
//! ([`JobKind`]), an arrival date (on-line submission), a weight (the ωi of
//! the Σ ωiCi criterion — priorities, §3), an optional due date (tardiness
//! criteria) and an owning user/community (fairness on the light grid,
//! §5.2).

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, Time};

use crate::speedup::MoldableProfile;

/// Job identifier, unique within a workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Submitting user / community (paper §5.2: physicists, astrophysicists,
/// medical researchers, computer scientists…).
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct UserId(pub u32);

/// The computational model a job follows (§2 and §2.2 of the paper).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JobKind {
    /// Rigid parallel task: the processor count is fixed a priori — a
    /// rectangle in the Gantt chart.
    Rigid {
        /// Required processors.
        procs: usize,
        /// Execution time on exactly `procs` processors.
        len: Dur,
    },
    /// Moldable parallel task: the processor count is chosen by the
    /// scheduler before execution and fixed thereafter.
    Moldable {
        /// Time as a function of the allotment.
        profile: MoldableProfile,
    },
    /// Malleable parallel task: the allotment may change during execution
    /// (same profile data; policies that support resizing use it
    /// incrementally).
    Malleable {
        /// Time as a function of the (current) allotment.
        profile: MoldableProfile,
    },
    /// Divisible load: `work` abstract units splittable at arbitrary grain
    /// (processed by the `lsps-dlt` policies). One unit = what a reference
    /// CPU processes in one second.
    Divisible {
        /// Total work in abstract units.
        work: f64,
    },
}

/// A submitted job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Model-specific shape.
    pub kind: JobKind,
    /// Submission date (release date `ri`).
    pub release: Time,
    /// Weight ωi for weighted criteria (1.0 = neutral).
    pub weight: f64,
    /// Optional due date for tardiness criteria.
    pub due: Option<Time>,
    /// Owning user/community.
    pub user: UserId,
}

impl Job {
    /// A rigid job with neutral weight, released at t = 0.
    pub fn rigid(id: u64, procs: usize, len: Dur) -> Job {
        assert!(procs >= 1 && len > Dur::ZERO);
        Job {
            id: JobId(id),
            kind: JobKind::Rigid { procs, len },
            release: Time::ZERO,
            weight: 1.0,
            due: None,
            user: UserId::default(),
        }
    }

    /// A moldable job with neutral weight, released at t = 0.
    pub fn moldable(id: u64, profile: MoldableProfile) -> Job {
        Job {
            id: JobId(id),
            kind: JobKind::Moldable { profile },
            release: Time::ZERO,
            weight: 1.0,
            due: None,
            user: UserId::default(),
        }
    }

    /// A sequential (1-processor rigid) job.
    pub fn sequential(id: u64, len: Dur) -> Job {
        Job::rigid(id, 1, len)
    }

    /// Builder: set the release date.
    pub fn released_at(mut self, t: Time) -> Job {
        self.release = t;
        self
    }

    /// Builder: set the weight.
    pub fn with_weight(mut self, w: f64) -> Job {
        assert!(w >= 0.0 && w.is_finite());
        self.weight = w;
        self
    }

    /// Builder: set the due date.
    pub fn with_due(mut self, d: Time) -> Job {
        self.due = Some(d);
        self
    }

    /// Builder: set the owner.
    pub fn with_user(mut self, u: UserId) -> Job {
        self.user = u;
        self
    }

    /// The moldable/malleable profile, if this job has one.
    pub fn profile(&self) -> Option<&MoldableProfile> {
        match &self.kind {
            JobKind::Moldable { profile } | JobKind::Malleable { profile } => Some(profile),
            _ => None,
        }
    }

    /// Execution time when run on `k` processors. For rigid jobs only the
    /// fixed count is admissible; divisible jobs have no PT time.
    ///
    /// # Panics
    /// On an inadmissible allotment.
    pub fn time_on(&self, k: usize) -> Dur {
        match &self.kind {
            JobKind::Rigid { procs, len } => {
                assert!(
                    k == *procs,
                    "rigid job {} needs exactly {} procs",
                    self.id,
                    procs
                );
                *len
            }
            JobKind::Moldable { profile } | JobKind::Malleable { profile } => profile.time(k),
            JobKind::Divisible { .. } => {
                panic!("divisible job {} has no PT execution time", self.id)
            }
        }
    }

    /// Smallest admissible allotment (1 for moldable, the fixed count for
    /// rigid).
    pub fn min_procs(&self) -> usize {
        match &self.kind {
            JobKind::Rigid { procs, .. } => *procs,
            JobKind::Moldable { .. } | JobKind::Malleable { .. } => 1,
            JobKind::Divisible { .. } => 1,
        }
    }

    /// Largest admissible/useful allotment.
    pub fn max_procs(&self) -> usize {
        match &self.kind {
            JobKind::Rigid { procs, .. } => *procs,
            JobKind::Moldable { profile } | JobKind::Malleable { profile } => profile.max_procs(),
            JobKind::Divisible { .. } => usize::MAX,
        }
    }

    /// Shortest achievable execution time over admissible allotments.
    pub fn min_time(&self) -> Dur {
        match &self.kind {
            JobKind::Rigid { len, .. } => *len,
            JobKind::Moldable { profile } | JobKind::Malleable { profile } => profile.min_time(),
            JobKind::Divisible { .. } => Dur::ZERO,
        }
    }

    /// Sequential processing time `p(1)` (used by stretch-style criteria);
    /// for rigid jobs, the work `procs · len` is the sequential equivalent.
    pub fn seq_time(&self) -> Dur {
        match &self.kind {
            JobKind::Rigid { procs, len } => len.saturating_mul(*procs as u64),
            JobKind::Moldable { profile } | JobKind::Malleable { profile } => profile.seq_time(),
            JobKind::Divisible { work } => Dur::from_secs_f64(*work),
        }
    }

    /// Minimal work over admissible allotments (the lower-bound currency of
    /// the area argument): for moldable jobs with monotone work this is the
    /// sequential work `p(1)`.
    pub fn min_work(&self) -> Dur {
        match &self.kind {
            JobKind::Rigid { procs, len } => len.saturating_mul(*procs as u64),
            JobKind::Moldable { profile } | JobKind::Malleable { profile } => profile.work(1),
            JobKind::Divisible { work } => Dur::from_secs_f64(*work),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::SpeedupModel;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn rigid_accessors() {
        let j = Job::rigid(1, 4, d(100));
        assert_eq!(j.time_on(4), d(100));
        assert_eq!(j.min_procs(), 4);
        assert_eq!(j.max_procs(), 4);
        assert_eq!(j.min_time(), d(100));
        assert_eq!(j.seq_time(), d(400));
        assert_eq!(j.min_work(), d(400));
        assert!(j.profile().is_none());
    }

    #[test]
    #[should_panic]
    fn rigid_rejects_other_allotments() {
        Job::rigid(1, 4, d(100)).time_on(2);
    }

    #[test]
    fn moldable_accessors() {
        let prof = MoldableProfile::from_model(d(1000), &SpeedupModel::Linear, 8);
        let j = Job::moldable(2, prof);
        assert_eq!(j.time_on(1), d(1000));
        // Ideal would be 125; integer work-monotony rounding adds one tick
        // per halving step (see speedup::tests::linear_model_halves).
        let t8 = j.time_on(8).ticks();
        assert!((125..=127).contains(&t8), "time_on(8) = {t8}");
        assert_eq!(j.min_procs(), 1);
        assert_eq!(j.max_procs(), 8);
        assert_eq!(j.min_time(), j.time_on(8));
        assert_eq!(j.min_work(), d(1000));
    }

    #[test]
    fn builders_compose() {
        let j = Job::sequential(3, d(50))
            .released_at(Time::from_ticks(7))
            .with_weight(2.5)
            .with_due(Time::from_ticks(100))
            .with_user(UserId(9));
        assert_eq!(j.release, Time::from_ticks(7));
        assert_eq!(j.weight, 2.5);
        assert_eq!(j.due, Some(Time::from_ticks(100)));
        assert_eq!(j.user, UserId(9));
        assert_eq!(j.min_procs(), 1);
    }

    #[test]
    fn divisible_work() {
        let j = Job {
            id: JobId(4),
            kind: JobKind::Divisible { work: 3.5 },
            release: Time::ZERO,
            weight: 1.0,
            due: None,
            user: UserId::default(),
        };
        assert_eq!(j.seq_time(), Dur::from_secs_f64(3.5));
        assert_eq!(j.min_time(), Dur::ZERO);
    }

    #[test]
    fn serde_roundtrip() {
        let prof = MoldableProfile::from_model(d(100), &SpeedupModel::Linear, 4);
        let j = Job::moldable(5, prof).with_weight(3.0);
        let s = serde_json::to_string(&j).unwrap();
        let back: Job = serde_json::from_str(&s).unwrap();
        assert_eq!(j, back);
    }
}
