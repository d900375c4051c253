//! Outcomes: what a policy run *produces*, beyond identical-machine
//! rectangles.
//!
//! The original comparison surface only spoke [`Schedule`] — every policy
//! emitted rectangles on `m` identical processors and every consumer read
//! completion records straight off them. That left the paper's two other
//! execution models stranded in bespoke return types: non-clairvoyant
//! exponential-trial runs (§4.2) carry [`TrialStats`] overhead counters,
//! and uniform-machine runs (§2.2) produce a [`UniformSchedule`] whose
//! spans depend on per-processor speeds. [`Outcome`] folds all three
//! behind one interface:
//!
//! * [`Outcome::completed`] — the uniform "extract [`CompletedJob`]
//!   records" view every metric consumer needs;
//! * [`Outcome::trial_stats`] — the auxiliary counters, `None` for
//!   outcomes without trial overhead;
//! * [`Outcome::validate`] — the matching validator (rectangle or
//!   uniform-machine), so experiments keep failing loudly instead of
//!   reporting flattering garbage.
//!
//! [`OutcomeKind`] is the *capability* side of the same coin: the
//! executor that can only drive rectangles (`des-online`) checks a
//! policy's kind before running it, and campaign validation rejects
//! incompatible (policy, executor) pairs before any cell runs.

use std::fmt;

use lsps_des::Time;
use lsps_metrics::CompletedJob;
use lsps_workload::Job;

use crate::nonclairvoyant::TrialStats;
use crate::schedule::{Schedule, ValidationError};
use crate::uniform::{UniformError, UniformSchedule};

/// The shape of outcome a policy produces — its capability tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Rectangles on identical processors ([`Outcome::Rect`]). The only
    /// kind the event-driven executor can drive.
    Rect,
    /// Rectangles plus non-clairvoyant trial counters ([`Outcome::Trial`]).
    Trial,
    /// Speed-scaled assignments on uniform machines ([`Outcome::Uniform`]).
    Uniform,
}

impl OutcomeKind {
    /// Stable identifier (error messages, docs).
    pub fn name(self) -> &'static str {
        match self {
            OutcomeKind::Rect => "rect",
            OutcomeKind::Trial => "trial",
            OutcomeKind::Uniform => "uniform",
        }
    }
}

impl fmt::Display for OutcomeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one policy run produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A validated-rectangle schedule on identical machines.
    Rect(Schedule),
    /// A rectangle schedule reached through kill-and-resubmit trials: the
    /// final (successful) trial of each job is its real execution, and the
    /// burnt machine time of killed trials lives in the counters.
    Trial {
        /// The actual-times schedule (final trials only).
        schedule: Schedule,
        /// Trial overhead: trials started, kills, wasted CPU-ticks.
        stats: TrialStats,
    },
    /// A schedule over machines of differing speeds.
    Uniform(UniformSchedule),
}

/// Validation failure of either outcome representation.
#[derive(Clone, Debug, PartialEq)]
pub enum OutcomeError {
    /// The rectangle validator rejected the schedule.
    Rect(ValidationError),
    /// The uniform-machine validator rejected the schedule.
    Uniform(UniformError),
}

impl fmt::Display for OutcomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutcomeError::Rect(e) => e.fmt(f),
            OutcomeError::Uniform(e) => write!(f, "uniform schedule invalid: {e:?}"),
        }
    }
}

impl std::error::Error for OutcomeError {}

impl Outcome {
    /// The capability tag of this outcome.
    pub fn kind(&self) -> OutcomeKind {
        match self {
            Outcome::Rect(_) => OutcomeKind::Rect,
            Outcome::Trial { .. } => OutcomeKind::Trial,
            Outcome::Uniform(_) => OutcomeKind::Uniform,
        }
    }

    /// Per-job completion records — the one extraction every §3 criterion
    /// consumes, whatever the machine/knowledge model underneath.
    pub fn completed(&self, jobs: &[Job]) -> Vec<CompletedJob> {
        match self {
            Outcome::Rect(s) | Outcome::Trial { schedule: s, .. } => s.completed(jobs),
            Outcome::Uniform(s) => s.completed(jobs),
        }
    }

    /// Auxiliary non-clairvoyance counters (`None` unless the outcome went
    /// through kill-and-resubmit trials).
    pub fn trial_stats(&self) -> Option<TrialStats> {
        match self {
            Outcome::Trial { stats, .. } => Some(*stats),
            _ => None,
        }
    }

    /// The rectangle schedule, when this outcome has one.
    pub fn as_rect(&self) -> Option<&Schedule> {
        match self {
            Outcome::Rect(s) | Outcome::Trial { schedule: s, .. } => Some(s),
            Outcome::Uniform(_) => None,
        }
    }

    /// The machine speeds, when this outcome ran on uniform machines.
    pub fn speeds(&self) -> Option<&[f64]> {
        match self {
            Outcome::Uniform(s) => Some(s.speeds()),
            _ => None,
        }
    }

    /// Number of scheduled jobs.
    pub fn len(&self) -> usize {
        match self {
            Outcome::Rect(s) | Outcome::Trial { schedule: s, .. } => s.len(),
            Outcome::Uniform(s) => s.assignments().len(),
        }
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latest completion time.
    pub fn makespan(&self) -> Time {
        match self {
            Outcome::Rect(s) | Outcome::Trial { schedule: s, .. } => s.makespan(),
            Outcome::Uniform(s) => s.makespan(),
        }
    }

    /// Validate against the job set with the representation's own
    /// validator.
    pub fn validate(&self, jobs: &[Job]) -> Result<(), OutcomeError> {
        match self {
            Outcome::Rect(s) | Outcome::Trial { schedule: s, .. } => {
                s.validate(jobs).map_err(OutcomeError::Rect)
            }
            Outcome::Uniform(s) => s.validate(jobs).map_err(OutcomeError::Uniform),
        }
    }
}

/// An outcome together with the as-scheduled job view it is valid against
/// — the outcome-generic counterpart of [`crate::policy::PolicyRun`].
#[derive(Clone, Debug)]
pub struct OutcomeRun {
    /// What the policy produced.
    pub outcome: Outcome,
    /// The jobs as the policy actually scheduled them (rigidified,
    /// possibly release-stripped).
    pub jobs: Vec<Job>,
}

impl OutcomeRun {
    /// Validate the outcome against the as-scheduled jobs.
    pub fn validate(&self) -> Result<(), OutcomeError> {
        self.outcome.validate(&self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, JobOrder};
    use crate::nonclairvoyant::exponential_trial_schedule;
    use crate::uniform::uniform_list_schedule;
    use lsps_des::Dur;

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    fn seq_jobs(n: u64) -> Vec<Job> {
        (0..n).map(|i| Job::sequential(i, d(50 + 10 * i))).collect()
    }

    #[test]
    fn rect_outcome_mirrors_schedule() {
        let jobs = seq_jobs(4);
        let s = list_schedule(&jobs, 2, JobOrder::Fcfs);
        let o = Outcome::Rect(s.clone());
        assert_eq!(o.kind(), OutcomeKind::Rect);
        assert_eq!(o.len(), 4);
        assert_eq!(o.makespan(), s.makespan());
        assert_eq!(o.trial_stats(), None);
        assert_eq!(o.speeds(), None);
        assert_eq!(o.completed(&jobs), s.completed(&jobs));
        assert_eq!(o.validate(&jobs), Ok(()));
        assert_eq!(o.as_rect(), Some(&s));
    }

    #[test]
    fn trial_outcome_exposes_stats_and_rect_view() {
        let jobs = seq_jobs(3);
        let (s, stats) = exponential_trial_schedule(&jobs, 2, d(20));
        let o = Outcome::Trial {
            schedule: s.clone(),
            stats,
        };
        assert_eq!(o.kind(), OutcomeKind::Trial);
        assert_eq!(o.trial_stats(), Some(stats));
        assert!(stats.kills > 0, "estimate 20 forces kills");
        assert_eq!(o.as_rect(), Some(&s));
        assert_eq!(o.validate(&jobs), Ok(()));
        assert_eq!(o.completed(&jobs).len(), 3);
    }

    #[test]
    fn uniform_outcome_validates_with_its_own_validator() {
        let jobs = seq_jobs(5);
        let speeds = [2.0, 1.0];
        let s = uniform_list_schedule(&jobs, &speeds, JobOrder::Lpt);
        let o = Outcome::Uniform(s.clone());
        assert_eq!(o.kind(), OutcomeKind::Uniform);
        assert_eq!(o.speeds(), Some(&speeds[..]));
        assert_eq!(o.as_rect(), None);
        assert_eq!(o.len(), 5);
        assert_eq!(o.validate(&jobs), Ok(()));
        // Wrong job set fails through the uniform validator.
        let err = o.validate(&seq_jobs(4)).unwrap_err();
        assert!(matches!(err, OutcomeError::Uniform(_)));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(OutcomeKind::Rect.to_string(), "rect");
        assert_eq!(OutcomeKind::Trial.to_string(), "trial");
        assert_eq!(OutcomeKind::Uniform.to_string(), "uniform");
    }
}
