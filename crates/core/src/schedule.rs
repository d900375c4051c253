//! Schedules: validated sets of `(job, start, processor-set)` assignments.
//!
//! Every policy in this crate returns a [`Schedule`]. Its
//! [`validate`](Schedule::validate) method checks the three feasibility
//! conditions exactly (integer time, bitset processors):
//!
//! 1. no two assignments overlap in time on a shared processor,
//! 2. every assignment starts at or after its job's release date and lasts
//!    exactly the job's execution time for the chosen allotment,
//! 3. every job appears exactly once and every processor index is within
//!    the machine.
//!
//! Experiments *always* validate before reporting numbers: a policy bug
//! fails loudly instead of producing flattering garbage.

use std::fmt;

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, Time};
use lsps_metrics::CompletedJob;
use lsps_platform::ProcSet;
use lsps_workload::{Job, JobId, JobKind};

/// One scheduled job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The job.
    pub job: JobId,
    /// Start time σ(j).
    pub start: Time,
    /// Completion time `start + p(|procs|)`.
    pub end: Time,
    /// Allocated processors.
    pub procs: ProcSet,
}

/// Why a schedule failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Two assignments overlap on at least one processor.
    Overlap(JobId, JobId),
    /// A job starts before its release date.
    EarlyStart(JobId),
    /// An assignment's duration differs from the job's execution time at
    /// that allotment, or the allotment is inadmissible.
    WrongShape(JobId),
    /// An assignment uses a processor outside the machine.
    OutsideMachine(JobId),
    /// A job is scheduled more than once.
    Duplicate(JobId),
    /// A job from the input set is missing.
    Missing(JobId),
    /// An assignment references a job not in the input set.
    Unknown(JobId),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Overlap(a, b) => write!(f, "jobs {a} and {b} overlap"),
            ValidationError::EarlyStart(j) => write!(f, "job {j} starts before release"),
            ValidationError::WrongShape(j) => write!(f, "job {j} has wrong duration/allotment"),
            ValidationError::OutsideMachine(j) => write!(f, "job {j} uses procs outside machine"),
            ValidationError::Duplicate(j) => write!(f, "job {j} scheduled twice"),
            ValidationError::Missing(j) => write!(f, "job {j} not scheduled"),
            ValidationError::Unknown(j) => write!(f, "assignment for unknown job {j}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A complete schedule on `m` identical processors.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    m: usize,
    assignments: Vec<Assignment>,
}

impl Schedule {
    /// An empty schedule on `m` processors.
    pub fn new(m: usize) -> Schedule {
        assert!(m >= 1, "a machine needs at least one processor");
        Schedule {
            m,
            assignments: Vec::new(),
        }
    }

    /// Append an assignment (unchecked here; run [`validate`](Self::validate)
    /// before consuming the schedule).
    pub fn push(&mut self, a: Assignment) {
        self.assignments.push(a);
    }

    /// Convenience: schedule `job` on `procs` starting at `start`, deriving
    /// the end from the job's profile.
    pub fn place(&mut self, job: &Job, start: Time, procs: ProcSet) {
        let dur = job.time_on(procs.len());
        self.push(Assignment {
            job: job.id,
            start,
            end: start + dur,
            procs,
        });
    }

    /// The assignments, in insertion order.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Number of scheduled jobs.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Latest completion time (`Cmax`), or `Time::ZERO` when empty.
    pub fn makespan(&self) -> Time {
        self.assignments
            .iter()
            .map(|a| a.end)
            .fold(Time::ZERO, Time::max)
    }

    /// Merge another schedule (same machine) into this one.
    pub fn extend(&mut self, other: Schedule) {
        assert_eq!(self.m, other.m, "merging schedules of different machines");
        self.assignments.extend(other.assignments);
    }

    /// Shift every assignment later by `offset` (used by batch wrappers).
    pub fn shifted(mut self, offset: Dur) -> Schedule {
        for a in &mut self.assignments {
            a.start += offset;
            a.end += offset;
        }
        self
    }

    /// Full validation against the job set (see module docs).
    pub fn validate(&self, jobs: &[Job]) -> Result<(), ValidationError> {
        let keys = id_keys(jobs);
        let machine = ProcSet::full(self.m);
        // Indexed like `jobs`; only the job an id resolves to is marked.
        let mut seen = vec![false; jobs.len()];

        for a in &self.assignments {
            let at = resolve(&keys, a.job).ok_or(ValidationError::Unknown(a.job))?;
            let job = &jobs[at];
            if std::mem::replace(&mut seen[at], true) {
                return Err(ValidationError::Duplicate(a.job));
            }
            if !a.procs.is_subset(&machine) || a.procs.is_empty() {
                return Err(ValidationError::OutsideMachine(a.job));
            }
            if a.start < job.release {
                return Err(ValidationError::EarlyStart(a.job));
            }
            let k = a.procs.len();
            let admissible = match &job.kind {
                JobKind::Rigid { procs, .. } => k == *procs,
                JobKind::Moldable { profile } | JobKind::Malleable { profile } => {
                    k >= 1 && k <= profile.max_procs()
                }
                JobKind::Divisible { .. } => k >= 1,
            };
            if !admissible {
                return Err(ValidationError::WrongShape(a.job));
            }
            if !matches!(job.kind, JobKind::Divisible { .. }) && a.end - a.start != job.time_on(k) {
                return Err(ValidationError::WrongShape(a.job));
            }
        }
        // Repeated ids share the mark of the job they resolve to.
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            let (_, last) = group[group.len() - 1];
            for &(_, at) in group {
                seen[at] = seen[last];
            }
        }
        if let Some((j, _)) = jobs.iter().zip(&seen).find(|&(_, &s)| !s) {
            return Err(ValidationError::Missing(j.id));
        }
        match self.first_overlap() {
            Some((earlier, later)) => Err(ValidationError::Overlap(earlier, later)),
            None => Ok(()),
        }
    }

    /// The first assignment in `(start, end, job)` order that shares a
    /// processor with an earlier one still running, paired with that
    /// earlier one. One sweep keeps each processor's last end and job: the
    /// assignments swept before the first clash are pairwise disjoint, so
    /// the last one on a processor ends latest there and any clash shows
    /// against it — O(n log n + Σ widths). Zero-length assignments occupy
    /// nothing. Processors must lie within the machine.
    fn first_overlap(&self) -> Option<(JobId, JobId)> {
        let mut order: Vec<&Assignment> = self
            .assignments
            .iter()
            .filter(|a| a.end > a.start)
            .collect();
        order.sort_by_key(|a| (a.start, a.end, a.job));
        let mut last: Vec<(Time, JobId)> = vec![(Time::ZERO, JobId(0)); self.m];
        for a in order {
            for p in a.procs.iter() {
                let (end, job) = last[p.index()];
                if end > a.start {
                    return Some((job, a.job));
                }
                last[p.index()] = (a.end, a.job);
            }
        }
        None
    }

    /// Extract the per-job outcome records for metrics.
    ///
    /// # Panics
    /// If an assignment references a job missing from `jobs` — validate
    /// first.
    pub fn completed(&self, jobs: &[Job]) -> Vec<CompletedJob> {
        let keys = id_keys(jobs);
        self.assignments
            .iter()
            .map(|a| {
                let at = resolve(&keys, a.job)
                    .unwrap_or_else(|| panic!("unknown job {} in schedule", a.job));
                CompletedJob::from_job(&jobs[at], a.start, a.end, a.procs.len())
            })
            .collect()
    }

    /// ASCII Gantt chart: one row per processor, time scaled to `width`
    /// columns. Jobs render as their id modulo 62 in base62 — enough to see
    /// the packing structure.
    pub fn gantt_ascii(&self, width: usize) -> String {
        const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        let span = self.makespan().ticks().max(1);
        let width = width.max(10);
        let mut rows = vec![vec![b'.'; width]; self.m];
        for a in &self.assignments {
            let c0 = (a.start.ticks() as u128 * width as u128 / span as u128) as usize;
            let c1 = (a.end.ticks() as u128 * width as u128 / span as u128) as usize;
            let c1 = c1.clamp(c0 + 1, width);
            let glyph = GLYPHS[(a.job.0 % 62) as usize];
            for p in a.procs.iter() {
                for cell in &mut rows[p.index()][c0..c1] {
                    *cell = glyph;
                }
            }
        }
        let mut out = String::with_capacity(self.m * (width + 8));
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!("{i:>4} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push('\n');
        }
        out
    }
}

/// `(id, index)` of every job, sorted: the id lookup of
/// [`Schedule::validate`] and [`Schedule::completed`], one sort instead of
/// a hash map.
fn id_keys(jobs: &[Job]) -> Vec<(JobId, usize)> {
    let mut keys: Vec<(JobId, usize)> = jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
    keys.sort_unstable();
    keys
}

/// Index of the job with id `id` in the keys' job slice. Of repeated ids
/// the last job wins, as it would in a map collected from the slice.
fn resolve(keys: &[(JobId, usize)], id: JobId) -> Option<usize> {
    let end = keys.partition_point(|&(k, _)| k <= id);
    keys[..end]
        .last()
        .filter(|&&(k, _)| k == id)
        .map(|&(_, at)| at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }
    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    fn jobs2() -> Vec<Job> {
        vec![Job::rigid(1, 2, d(10)), Job::rigid(2, 1, d(5))]
    }

    #[test]
    fn valid_schedule_passes() {
        let jobs = jobs2();
        let mut s = Schedule::new(3);
        s.place(&jobs[0], t(0), ProcSet::range(0, 2));
        s.place(&jobs[1], t(0), ProcSet::from_indices([2]));
        assert_eq!(s.validate(&jobs), Ok(()));
        assert_eq!(s.makespan(), t(10));
        let recs = s.completed(&jobs);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].procs, 2);
    }

    #[test]
    fn overlap_detected() {
        let jobs = jobs2();
        let mut s = Schedule::new(3);
        s.place(&jobs[0], t(0), ProcSet::range(0, 2));
        s.place(&jobs[1], t(5), ProcSet::from_indices([1]));
        assert_eq!(
            s.validate(&jobs),
            Err(ValidationError::Overlap(JobId(1), JobId(2)))
        );
    }

    #[test]
    fn adjacent_assignments_do_not_overlap() {
        let jobs = vec![Job::rigid(1, 1, d(10)), Job::rigid(2, 1, d(10))];
        let mut s = Schedule::new(1);
        s.place(&jobs[0], t(0), ProcSet::from_indices([0]));
        s.place(&jobs[1], t(10), ProcSet::from_indices([0]));
        assert_eq!(s.validate(&jobs), Ok(()));
    }

    #[test]
    fn early_start_detected() {
        let jobs = vec![Job::rigid(1, 1, d(5)).released_at(t(10))];
        let mut s = Schedule::new(1);
        s.place(&jobs[0], t(10), ProcSet::from_indices([0]));
        assert_eq!(s.validate(&jobs), Ok(()));
        let mut bad = Schedule::new(1);
        bad.push(Assignment {
            job: JobId(1),
            start: t(9),
            end: t(14),
            procs: ProcSet::from_indices([0]),
        });
        assert_eq!(
            bad.validate(&jobs),
            Err(ValidationError::EarlyStart(JobId(1)))
        );
    }

    #[test]
    fn wrong_shape_detected() {
        let jobs = jobs2();
        // Wrong duration.
        let mut s = Schedule::new(3);
        s.push(Assignment {
            job: JobId(1),
            start: t(0),
            end: t(9),
            procs: ProcSet::range(0, 2),
        });
        s.place(&jobs[1], t(20), ProcSet::from_indices([2]));
        assert_eq!(
            s.validate(&jobs),
            Err(ValidationError::WrongShape(JobId(1)))
        );
        // Wrong allotment for a rigid job.
        let mut s = Schedule::new(3);
        s.push(Assignment {
            job: JobId(1),
            start: t(0),
            end: t(10),
            procs: ProcSet::range(0, 3),
        });
        s.place(&jobs[1], t(20), ProcSet::from_indices([2]));
        assert_eq!(
            s.validate(&jobs),
            Err(ValidationError::WrongShape(JobId(1)))
        );
    }

    #[test]
    fn missing_duplicate_unknown_detected() {
        let jobs = jobs2();
        let mut s = Schedule::new(3);
        s.place(&jobs[0], t(0), ProcSet::range(0, 2));
        assert_eq!(s.validate(&jobs), Err(ValidationError::Missing(JobId(2))));
        s.place(&jobs[1], t(20), ProcSet::from_indices([2]));
        let mut dup = s.clone();
        dup.place(&jobs[1], t(40), ProcSet::from_indices([2]));
        assert_eq!(
            dup.validate(&jobs),
            Err(ValidationError::Duplicate(JobId(2)))
        );
        let mut unk = s;
        unk.place(&Job::rigid(9, 1, d(1)), t(0), ProcSet::from_indices([2]));
        assert_eq!(unk.validate(&jobs), Err(ValidationError::Unknown(JobId(9))));
    }

    #[test]
    fn outside_machine_detected() {
        let jobs = vec![Job::rigid(1, 1, d(5))];
        let mut s = Schedule::new(1);
        s.place(&jobs[0], t(0), ProcSet::from_indices([3]));
        assert_eq!(
            s.validate(&jobs),
            Err(ValidationError::OutsideMachine(JobId(1)))
        );
    }

    #[test]
    fn moldable_allotments_validate() {
        use lsps_workload::{MoldableProfile, SpeedupModel};
        let prof = MoldableProfile::from_model(d(100), &SpeedupModel::Linear, 4);
        let jobs = vec![Job::moldable(1, prof)];
        let mut s = Schedule::new(8);
        s.place(&jobs[0], t(0), ProcSet::range(0, 2));
        assert_eq!(s.validate(&jobs), Ok(()));
        // Allotment above the profile max is rejected.
        let mut bad = Schedule::new(8);
        bad.push(Assignment {
            job: JobId(1),
            start: t(0),
            end: t(20),
            procs: ProcSet::range(0, 5),
        });
        assert_eq!(
            bad.validate(&jobs),
            Err(ValidationError::WrongShape(JobId(1)))
        );
    }

    #[test]
    fn shift_and_extend() {
        let jobs = jobs2();
        let mut a = Schedule::new(3);
        a.place(&jobs[0], t(0), ProcSet::range(0, 2));
        let a = a.shifted(d(100));
        assert_eq!(a.assignments()[0].start, t(100));
        assert_eq!(a.makespan(), t(110));
        let mut b = Schedule::new(3);
        b.place(&jobs[1], t(0), ProcSet::from_indices([2]));
        let mut merged = a.clone();
        merged.extend(b);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.validate(&jobs), Ok(()));
    }

    #[test]
    fn gantt_renders() {
        let jobs = jobs2();
        let mut s = Schedule::new(3);
        s.place(&jobs[0], t(0), ProcSet::range(0, 2));
        s.place(&jobs[1], t(0), ProcSet::from_indices([2]));
        let g = s.gantt_ascii(20);
        assert_eq!(g.lines().count(), 3);
        assert!(g.contains('1') && g.contains('2'));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lsps_platform::{BookingKind, Timeline};
    use proptest::prelude::*;

    impl Schedule {
        /// The pairwise overlap check [`Schedule::first_overlap`] replaced:
        /// each assignment is tested against every one still running.
        fn first_overlap_pairwise(&self) -> Option<(JobId, JobId)> {
            let mut order: Vec<&Assignment> = self.assignments.iter().collect();
            order.sort_by_key(|a| (a.start, a.end, a.job));
            let mut active: Vec<&Assignment> = Vec::new();
            for a in order {
                active.retain(|b| b.end > a.start);
                for b in &active {
                    if !b.procs.is_disjoint(&a.procs) && a.start < b.end && a.end > a.start {
                        return Some((b.job, a.job));
                    }
                }
                if a.end > a.start {
                    active.push(a);
                }
            }
            None
        }
    }

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    proptest! {
        /// The sweep agrees with the pairwise oracle on valid schedules and
        /// on the same schedules with one injected overlapping assignment:
        /// same verdict, same later job, and the named pair really shares a
        /// processor while both run.
        #[test]
        fn linear_overlap_check_matches_the_pairwise_oracle(
            wide in any::<bool>(),
            jobs in prop::collection::vec((0u64..200, 0u64..50, 1usize..9), 1..40),
            inject in any::<bool>(),
            victim in 0usize..40,
            offset in 0u64..50,
            len in 1u64..30,
            shift in 0usize..9,
        ) {
            let m = if wide { 1024 } else { 8 };
            let unit = m / 8;
            // A valid schedule: every job placed at its earliest slot.
            let mut tl = Timeline::with_procs(m);
            let mut s = Schedule::new(m);
            for (i, &(release, dur, w)) in jobs.iter().enumerate() {
                // Off unit multiples, so wide sets end inside words.
                let width = (w * unit).saturating_sub(i % unit).max(1);
                let dur = Dur::from_ticks(dur);
                let (start, procs) = tl.earliest_slot(t(release), dur, width).expect("width fits");
                tl.book(start, start + dur, procs.clone(), BookingKind::Job);
                s.push(Assignment { job: JobId(i as u64), start, end: start + dur, procs });
            }
            prop_assert_eq!(s.first_overlap(), None);
            prop_assert_eq!(s.first_overlap_pairwise(), None);
            if inject {
                // A new assignment starting inside a victim's interval (or
                // at its start, if the victim is zero-length), on processors
                // shifted off the victim's so they overlap in part.
                let v = &s.assignments[victim % s.assignments.len()];
                let span = (v.end - v.start).ticks();
                let start = v.start + Dur::from_ticks(offset % span.max(1));
                let lo = v.procs.first().expect("placed sets are non-empty");
                let lo = lo.saturating_sub(shift * unit / 2);
                let procs = ProcSet::range(lo, (lo + v.procs.len()).min(m));
                s.push(Assignment {
                    job: JobId(jobs.len() as u64),
                    start,
                    end: start + Dur::from_ticks(len),
                    procs,
                });
            }
            let (fast, slow) = (s.first_overlap(), s.first_overlap_pairwise());
            prop_assert_eq!(fast.is_some(), slow.is_some(), "verdicts differ: {:?} vs {:?}", fast, slow);
            if let (Some((earlier, later)), Some((_, oracle_later))) = (fast, slow) {
                prop_assert_eq!(later, oracle_later, "later job differs");
                let find = |id: JobId| s.assignments.iter().find(|a| a.job == id).expect("named job exists");
                let (a, b) = (find(earlier), find(later));
                prop_assert!(a.start.max(b.start) < a.end.min(b.end), "named pair is disjoint in time");
                prop_assert!(!a.procs.is_disjoint(&b.procs), "named pair shares no processor");
            }
        }
    }
}
