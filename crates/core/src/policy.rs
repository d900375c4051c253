//! The unified `Policy` abstraction — "which policy" as a first-class value.
//!
//! The paper's whole programme is *comparing* scheduling policies across
//! application models. Before this module, every comparison was wired by
//! hand: each algorithm is a differently-shaped free function and every
//! experiment re-implemented its own policy × workload loop. [`Policy`]
//! gives all of them one shape:
//!
//! * [`Policy::schedule`] — jobs in, validated-rectangle [`Schedule`] out,
//!   under a shared [`PolicyCtx`] carrying reservations, the release-date
//!   mode and the clairvoyance knob;
//! * [`Policy::prepare`] — the *as-scheduled* job view. Policies that only
//!   handle rigid jobs rigidify moldable ones (via [`crate::allot`]),
//!   off-line-only policies strip release dates (documented as an
//!   *advantage* they are granted — they still lose where the paper says
//!   they should). Consumers validate and evaluate against this view,
//!   exactly as the hand-written experiment loops did;
//! * [`registry`] — every paper policy as a boxed, named instance, so
//!   experiment binaries, the grid layer and tests iterate one list
//!   instead of hard-coding dispatch.
//!
//! The trait is deliberately object-safe: the campaign executor
//! (`lsps_scenario::CampaignPlan`) and the advisor
//! ([`crate::advisor::PolicyChoice::instantiate`]) both traffic in
//! `Box<dyn Policy>`.
//!
//! # Online decisions
//!
//! Event-driven callers decide through a persistent
//! [`Policy::incremental_planner`]: each decision is one `plan` call over
//! the pending set, which commits the jobs it places and leaves the rest
//! pending. There are two planners: the backfill family keeps one
//! timeline alive and places each arrival in a hole around the running
//! work ([`BackfillPlanner`]); every other policy leaves arrivals pending
//! until the machine drains and schedules them as one batch
//! ([`BatchPlanner`], the §4.2 online batch transformation). The
//! invariants live in [`crate::replan`].

use std::borrow::Cow;

use lsps_des::{Dur, Time};
use lsps_platform::{ProcSet, Timeline};
use lsps_workload::{Job, JobKind};

use crate::allot::{choose_allotment, AllotRule};
use crate::backfill::{backfill_on_timeline, book_reservations, BackfillPolicy, Reservation};
use crate::batch::batch_online_avoiding;
use crate::bicriteria::{bicriteria_schedule, BiCriteriaParams};
use crate::list::{list_schedule_allotted, JobOrder};
use crate::malleable::{deq_schedule, MalleableSchedule};
use crate::mrt::{mrt_schedule, MrtParams};
use crate::nonclairvoyant::exponential_trial_schedule;
use crate::outcome::{Outcome, OutcomeKind, OutcomeRun};
use crate::replan::{BackfillPlanner, BatchPlanner, IncrementalPlanner};
use crate::schedule::{Assignment, Schedule};
use crate::shelf::{shelf_schedule, ShelfAlgo};
use crate::smart::smart_schedule;
use crate::uniform::uniform_list_schedule;

/// How release dates reach the policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReleaseMode {
    /// Jobs arrive over time; policies that understand release dates
    /// honour them, off-line-only policies strip them (their documented
    /// head start).
    #[default]
    Online,
    /// Zero every release date first: the pure off-line comparison.
    Offline,
}

/// What the policy knows about runtimes when a job arrives (§4.2): the
/// clairvoyant/non-clairvoyant split of on-line algorithms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Knowledge {
    /// Execution times are known on arrival (every classical policy here).
    #[default]
    Clairvoyant,
    /// Execution times are *unknown*: trial-based policies seed their
    /// kill-and-resubmit doubling from `initial_estimate`. Clairvoyant
    /// policies ignore the knob — the non-clairvoyant bridge is the
    /// [`NonclairvoyantExpTrial`] policy.
    NonClairvoyant {
        /// First runtime estimate handed to every job.
        initial_estimate: Dur,
    },
}

/// First estimate of the exponential-trial doubling (60 s) when the ctx
/// knowledge model does not pick one.
pub const DEFAULT_INITIAL_ESTIMATE: Dur = Dur::from_secs(60);

/// Everything a policy may need beyond the jobs and the machine size.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyCtx {
    /// Release-date handling.
    pub release_mode: ReleaseMode,
    /// Advance reservations (§5.1), placed first-fit by processor count.
    pub reservations: Vec<Reservation>,
    /// Clairvoyance knob: runtime estimates are `true × factor` (≥ 1;
    /// 1.0 = exact). Only estimate-aware policies (backfilling) use it.
    pub estimate_factor: f64,
    /// Allotment rule used when a rigid-only policy must rigidify
    /// moldable jobs.
    pub allot_rule: AllotRule,
    /// Machine model (§2.2): per-processor relative speeds. Empty (the
    /// default) means identical unit-speed processors; non-empty speeds
    /// are only consumed by uniform-capable policies
    /// ([`Policy::outcome_kind`] == [`OutcomeKind::Uniform`]) — every
    /// other policy rejects them instead of silently mis-reading the
    /// machine.
    pub speeds: Vec<f64>,
    /// Knowledge model (§4.2): clairvoyant, or non-clairvoyant with an
    /// initial runtime estimate.
    pub knowledge: Knowledge,
}

impl Default for PolicyCtx {
    fn default() -> Self {
        PolicyCtx {
            release_mode: ReleaseMode::Online,
            reservations: Vec::new(),
            estimate_factor: 1.0,
            allot_rule: AllotRule::Balanced,
            speeds: Vec::new(),
            knowledge: Knowledge::Clairvoyant,
        }
    }
}

impl PolicyCtx {
    /// An `m`-processor timeline holding the reservations placed
    /// first-fit — the decision-independent state every backfill run
    /// starts from.
    ///
    /// # Panics
    /// On unsatisfiable reservations.
    pub(crate) fn reserved_timeline(&self, m: usize) -> Timeline {
        let mut tl = Timeline::with_procs(m);
        book_reservations(&mut tl, &self.reservations);
        tl
    }

    /// True iff the machine model is identical processors — no speeds, or
    /// all speeds exactly 1 (the degenerate uniform machine).
    pub fn is_identical_machine(&self) -> bool {
        self.speeds.is_empty() || self.speeds.iter().all(|&s| s == 1.0)
    }
}

/// A schedule together with the as-scheduled job view it is valid against.
#[derive(Clone, Debug)]
pub struct PolicyRun {
    /// The produced schedule.
    pub schedule: Schedule,
    /// The jobs as the policy actually scheduled them (rigidified,
    /// possibly release-stripped).
    pub jobs: Vec<Job>,
}

impl PolicyRun {
    /// Validate the schedule against the as-scheduled jobs.
    pub fn validate(&self) -> Result<(), crate::schedule::ValidationError> {
        self.schedule.validate(&self.jobs)
    }
}

/// A scheduling policy: one shape for every algorithm in the paper.
///
/// `Send + Sync` is a supertrait so `Box<dyn Policy>` values can be shared
/// across the campaign worker pool's threads; every policy is a plain
/// configuration struct, so the bound costs nothing.
pub trait Policy: Send + Sync {
    /// Stable, unique identifier (used in CSV output and lookups).
    fn name(&self) -> &str;

    /// True iff the policy has a hole-filling incremental planner: it
    /// places work around arbitrary, possibly time-overlapping bookings
    /// without touching their processors. Required by volatile runs, which
    /// plan around outage windows; batch policies that can only treat
    /// reservations as disjoint full-machine blackouts return false.
    fn supports_pinned(&self) -> bool {
        false
    }

    /// The job view the policy actually schedules; idempotent. Borrows the
    /// input when no transformation is needed, so trait dispatch adds no
    /// copy on the hot path.
    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]>;

    /// Schedule `jobs` on `m` identical processors. The result validates
    /// against [`prepare`](Policy::prepare)`(jobs, m, ctx)`.
    ///
    /// # Panics
    /// If `ctx` requests a capability the policy lacks (reservations on a
    /// reservation-blind policy), or jobs are outside the PT domain
    /// (divisible loads — route those to `lsps-dlt`).
    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule;

    /// One-call pipeline: schedule plus the matching job view. `prepare`
    /// is idempotent, so scheduling the prepared view skips the second
    /// (potentially cloning) normalisation pass.
    fn run(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> PolicyRun {
        let prepared = self.prepare(jobs, m, ctx).into_owned();
        PolicyRun {
            schedule: self.schedule(&prepared, m, ctx),
            jobs: prepared,
        }
    }

    /// The [`OutcomeKind`] this policy's [`run_outcome`](Policy::run_outcome)
    /// produces — its capability tag. The executor that can only drive
    /// rectangles (`des-online`) checks this before running the policy,
    /// and campaign validation rejects incompatible (policy, executor)
    /// pairs up front.
    fn outcome_kind(&self) -> OutcomeKind {
        OutcomeKind::Rect
    }

    /// The generalized pipeline every executor cell goes through: schedule
    /// plus the matching job view, as an [`Outcome`]. The default wraps
    /// [`run`](Policy::run) in [`Outcome::Rect`], so the fourteen
    /// rectangle policies are untouched; trial- and uniform-outcome
    /// policies override it to carry their richer result.
    ///
    /// # Panics
    /// If `ctx` carries non-identical machine speeds and the policy is not
    /// uniform-capable — a rectangle policy silently ignoring speeds would
    /// mis-report every span.
    fn run_outcome(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> OutcomeRun {
        assert!(
            ctx.is_identical_machine(),
            "{}: heterogeneous machine speeds need a uniform-capable policy \
             (outcome kind `uniform`), e.g. `uniform-mct`",
            self.name()
        );
        let run = self.run(jobs, m, ctx);
        OutcomeRun {
            outcome: Outcome::Rect(run.schedule),
            jobs: run.jobs,
        }
    }

    /// Persistent planner for event-driven callers: the online batch
    /// transformation ([`BatchPlanner`]) by default. The backfill family
    /// overrides it with the hole-filling [`BackfillPlanner`]; see
    /// [`crate::replan`] for the invariants.
    fn incremental_planner<'a>(
        &'a self,
        m: usize,
        ctx: &'a PolicyCtx,
    ) -> Box<dyn IncrementalPlanner + 'a> {
        Box::new(BatchPlanner::new(self, m, ctx))
    }
}

/// Shared input normalisation. `allot`: when given, moldable/malleable
/// jobs are replaced by rigid ones at the allotment this function chooses.
/// `strip_releases`: zero release dates. Divisible jobs are always
/// rejected, for the whole list, before anything else.
fn normalize<'a>(
    policy_name: &str,
    jobs: &'a [Job],
    ctx: &PolicyCtx,
    allot: Option<&dyn Fn(&Job) -> usize>,
    strip_releases: bool,
) -> Cow<'a, [Job]> {
    for j in jobs {
        assert!(
            !matches!(j.kind, JobKind::Divisible { .. }),
            "{policy_name}: job {} is a divisible load; PT policies cannot \
             schedule it (use lsps-dlt)",
            j.id
        );
    }
    let strip = strip_releases || ctx.release_mode == ReleaseMode::Offline;
    let needs_work = jobs
        .iter()
        .any(|j| (strip && j.release != Time::ZERO) || (allot.is_some() && j.profile().is_some()));
    if !needs_work {
        return Cow::Borrowed(jobs);
    }
    Cow::Owned(
        jobs.iter()
            .map(|j| {
                let mut job = j.clone();
                if strip {
                    job.release = Time::ZERO;
                }
                if let Some(allot) = allot {
                    if let Some(profile) = job.profile() {
                        let k = allot(&job);
                        job.kind = JobKind::Rigid {
                            procs: k,
                            len: profile.time(k),
                        };
                    }
                }
                job
            })
            .collect(),
    )
}

/// The ctx-rule rigidification shared by the rigid-only policies.
fn normalize_rigid<'a>(
    policy_name: &str,
    jobs: &'a [Job],
    m: usize,
    ctx: &PolicyCtx,
    strip_releases: bool,
) -> Cow<'a, [Job]> {
    let n = jobs.len();
    let allot = move |j: &Job| choose_allotment(j, m, n, ctx.allot_rule);
    normalize(policy_name, jobs, ctx, Some(&allot), strip_releases)
}

fn reject_reservations(policy_name: &str, ctx: &PolicyCtx) {
    assert!(
        ctx.reservations.is_empty(),
        "{policy_name} cannot honour reservations; use a backfilling or \
         batch policy"
    );
}

/// List scheduling of (rigidified) jobs in a fixed priority order.
#[derive(Clone, Copy, Debug)]
pub struct ListScheduling {
    order: JobOrder,
}

impl ListScheduling {
    /// A list policy with the given priority order.
    pub fn new(order: JobOrder) -> ListScheduling {
        ListScheduling { order }
    }
}

impl Policy for ListScheduling {
    fn name(&self) -> &str {
        match self.order {
            JobOrder::Fcfs => "list-fcfs",
            JobOrder::Lpt => "list-lpt",
            JobOrder::Spt => "list-spt",
            JobOrder::WeightDensity => "list-wspt",
        }
    }

    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize_rigid(self.name(), jobs, m, ctx, false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        let items: Vec<(&Job, usize)> = jobs.iter().map(|j| (j, j.min_procs())).collect();
        list_schedule_allotted(&items, m, self.order)
    }
}

/// NFDH/FFDH shelf packing (off-line, rigid).
#[derive(Clone, Copy, Debug)]
pub struct ShelfPacking {
    algo: ShelfAlgo,
}

impl ShelfPacking {
    /// A shelf policy with the given packing rule.
    pub fn new(algo: ShelfAlgo) -> ShelfPacking {
        ShelfPacking { algo }
    }
}

impl Policy for ShelfPacking {
    fn name(&self) -> &str {
        match self.algo {
            ShelfAlgo::Nfdh => "shelf-nfdh",
            ShelfAlgo::Ffdh => "shelf-ffdh",
        }
    }

    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize_rigid(self.name(), jobs, m, ctx, true)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        shelf_schedule(&jobs, m, self.algo)
    }
}

/// EASY / conservative backfilling with reservations and estimates (§5.1).
#[derive(Clone, Copy, Debug)]
pub struct Backfilling {
    flavour: BackfillPolicy,
}

impl Backfilling {
    /// EASY (aggressive) backfilling.
    pub fn easy() -> Backfilling {
        Backfilling {
            flavour: BackfillPolicy::Easy,
        }
    }

    /// Conservative backfilling.
    pub fn conservative() -> Backfilling {
        Backfilling {
            flavour: BackfillPolicy::Conservative,
        }
    }
}

impl Policy for Backfilling {
    fn name(&self) -> &str {
        match self.flavour {
            BackfillPolicy::Easy => "backfill-easy",
            BackfillPolicy::Conservative => "backfill-conservative",
        }
    }

    fn supports_pinned(&self) -> bool {
        true
    }

    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize_rigid(self.name(), jobs, m, ctx, false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        let jobs = self.prepare(jobs, m, ctx);
        let tl = ctx.reserved_timeline(m);
        backfill_on_timeline(&jobs, m, tl, self.flavour, ctx.estimate_factor)
    }

    fn incremental_planner<'a>(
        &'a self,
        m: usize,
        ctx: &'a PolicyCtx,
    ) -> Box<dyn IncrementalPlanner + 'a> {
        Box::new(BackfillPlanner::new(self.flavour, m, ctx))
    }
}

/// SMART power-of-two shelves in Smith order (§4.3).
#[derive(Clone, Copy, Debug)]
pub struct SmartShelves {
    weighted: bool,
}

impl SmartShelves {
    /// Ratio-8 unweighted variant.
    pub fn unweighted() -> SmartShelves {
        SmartShelves { weighted: false }
    }

    /// Ratio-8.53 weighted variant.
    pub fn weighted() -> SmartShelves {
        SmartShelves { weighted: true }
    }
}

impl Policy for SmartShelves {
    fn name(&self) -> &str {
        if self.weighted {
            "smart-weighted"
        } else {
            "smart"
        }
    }

    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize_rigid(self.name(), jobs, m, ctx, true)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        smart_schedule(&jobs, m, self.weighted)
    }
}

/// MRT two-shelf dual approximation, off-line moldable makespan (§4.1).
#[derive(Clone, Copy, Debug, Default)]
pub struct MrtTwoShelf;

impl Policy for MrtTwoShelf {
    fn name(&self) -> &str {
        "mrt"
    }

    fn prepare<'a>(&self, jobs: &'a [Job], _m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize(self.name(), jobs, ctx, None, true)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        mrt_schedule(&jobs, m, MrtParams::default())
    }
}

/// MRT inside Shmoys doubling batches: the paper's 3 + ε on-line moldable
/// algorithm (§4.2), reservation-aware via blackout-aligned batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchedMrt;

impl Policy for BatchedMrt {
    fn name(&self) -> &str {
        "batch-mrt"
    }

    fn prepare<'a>(&self, jobs: &'a [Job], _m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize(self.name(), jobs, ctx, None, false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        let jobs = self.prepare(jobs, m, ctx);
        // Batch algorithms can only align batch boundaries with the
        // reservation windows (§5.1's "likely inefficient" idea, priced
        // honestly): every reservation becomes a full-machine blackout.
        batch_online_avoiding(&jobs, m, &ctx.reservations, |b, mm| {
            mrt_schedule(b, mm, MrtParams::default())
        })
    }
}

/// The bi-criteria doubling-batch algorithm (§4.4).
#[derive(Clone, Copy, Debug, Default)]
pub struct BiCriteriaDoubling;

impl Policy for BiCriteriaDoubling {
    fn name(&self) -> &str {
        "bicriteria"
    }

    fn prepare<'a>(&self, jobs: &'a [Job], _m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize(self.name(), jobs, ctx, None, false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        bicriteria_schedule(&jobs, m, BiCriteriaParams::default())
    }
}

/// Dynamic-equipartition adapter (§2.2).
///
/// DEQ proper produces a [`MalleableSchedule`] (allotments change at every
/// event), which the rectangle-exact [`Schedule`] cannot express; the
/// malleable run stays available through [`DeqEquipartition::deq`]. As a
/// [`Policy`], the adapter projects DEQ onto rectangles: every job gets the
/// *static* equipartition share `m / min(n, m)` (capped by its useful
/// parallelism, floor 1) and the shares are list-scheduled FCFS — the
/// standard moldable surrogate for equipartition.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeqEquipartition;

impl DeqEquipartition {
    /// The exact malleable DEQ run (for malleable-capable evaluations).
    pub fn deq(&self, jobs: &[Job], m: usize) -> MalleableSchedule {
        deq_schedule(jobs, m)
    }
}

impl Policy for DeqEquipartition {
    fn name(&self) -> &str {
        "deq-equipartition"
    }

    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        let share = (m / jobs.len().clamp(1, m)).max(1);
        let allot = move |j: &Job| share.min(j.max_procs()).max(1);
        normalize(self.name(), jobs, ctx, Some(&allot), false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        let items: Vec<(&Job, usize)> = jobs.iter().map(|j| (j, j.min_procs())).collect();
        list_schedule_allotted(&items, m, JobOrder::Fcfs)
    }
}

/// Non-clairvoyant exponential-trial scheduling (§4.2): run every rigid
/// job FCFS with a runtime estimate, kill it at expiry, resubmit with the
/// estimate doubled. The total processing paid per job with true time `p`
/// and first estimate `e` stays below `4·p + 2e`, so any clairvoyant
/// guarantee degrades by a constant factor — the classical price of not
/// knowing execution times.
///
/// The first estimate comes from the ctx knowledge model
/// ([`Knowledge::NonClairvoyant`]); under a clairvoyant ctx the policy
/// still runs its trials, seeded from [`DEFAULT_INITIAL_ESTIMATE`].
///
/// [`Policy::schedule`] returns the actual-times rectangle schedule (final
/// trials only); the burnt machine time of killed trials is only visible
/// through [`Policy::run_outcome`], whose [`Outcome::Trial`] carries the
/// [`crate::nonclairvoyant::TrialStats`] counters — which is why the
/// policy's outcome kind is [`OutcomeKind::Trial`] and the event-driven
/// executors refuse it.
#[derive(Clone, Copy, Debug, Default)]
pub struct NonclairvoyantExpTrial;

fn initial_estimate(ctx: &PolicyCtx) -> Dur {
    match ctx.knowledge {
        Knowledge::NonClairvoyant { initial_estimate } => initial_estimate,
        Knowledge::Clairvoyant => DEFAULT_INITIAL_ESTIMATE,
    }
}

impl Policy for NonclairvoyantExpTrial {
    fn name(&self) -> &str {
        "nonclairvoyant-exp-trial"
    }

    fn outcome_kind(&self) -> OutcomeKind {
        OutcomeKind::Trial
    }

    fn prepare<'a>(&self, jobs: &'a [Job], m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        normalize_rigid(self.name(), jobs, m, ctx, false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        let jobs = self.prepare(jobs, m, ctx);
        exponential_trial_schedule(&jobs, m, initial_estimate(ctx)).0
    }

    fn run_outcome(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> OutcomeRun {
        assert!(
            ctx.is_identical_machine(),
            "{}: heterogeneous machine speeds need a uniform-capable policy",
            self.name()
        );
        reject_reservations(self.name(), ctx);
        let prepared = self.prepare(jobs, m, ctx).into_owned();
        let (schedule, stats) = exponential_trial_schedule(&prepared, m, initial_estimate(ctx));
        OutcomeRun {
            outcome: Outcome::Trial { schedule, stats },
            jobs: prepared,
        }
    }
}

/// Greedy minimum-completion-time on uniform machines (§2.2): every
/// sequential job goes to the processor that finishes it earliest under
/// the per-processor speeds in [`PolicyCtx::speeds`], in LPT priority
/// order — the classical uniform-machine list heuristic.
///
/// The policy's domain is sequential work: moldable/malleable jobs are
/// rigidified at one processor ([`prepare`](Policy::prepare)); wider rigid
/// jobs are rejected, because a multi-processor rectangle has no
/// well-defined span across processors of different speeds.
///
/// [`Policy::run_outcome`] produces the real [`Outcome::Uniform`];
/// [`Policy::schedule`] is the identical-machine projection (all speeds 1,
/// machine index = processor index), which is what keeps the policy
/// runnable — and bit-comparable — next to the rectangle policies on
/// homogeneous platforms.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformMct;

impl UniformMct {
    fn effective_speeds(&self, m: usize, ctx: &PolicyCtx) -> Vec<f64> {
        if ctx.speeds.is_empty() {
            return vec![1.0; m];
        }
        assert_eq!(
            ctx.speeds.len(),
            m,
            "{}: {} speeds for an m = {m} machine",
            self.name(),
            ctx.speeds.len()
        );
        ctx.speeds.clone()
    }
}

impl Policy for UniformMct {
    fn name(&self) -> &str {
        "uniform-mct"
    }

    fn outcome_kind(&self) -> OutcomeKind {
        OutcomeKind::Uniform
    }

    fn prepare<'a>(&self, jobs: &'a [Job], _m: usize, ctx: &PolicyCtx) -> Cow<'a, [Job]> {
        // Sequential allotment: uniform machines run one-processor work.
        normalize(self.name(), jobs, ctx, Some(&|_: &Job| 1), false)
    }

    fn schedule(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> Schedule {
        reject_reservations(self.name(), ctx);
        assert!(
            ctx.is_identical_machine(),
            "{}: schedule() is the identical-machine projection; run \
             heterogeneous speeds through run_outcome()",
            self.name()
        );
        let jobs = self.prepare(jobs, m, ctx);
        let uni = uniform_list_schedule(&jobs, &vec![1.0; m], JobOrder::Lpt);
        let mut rect = Schedule::new(m);
        for a in uni.assignments() {
            rect.push(Assignment {
                job: a.job,
                start: a.start,
                end: a.end,
                procs: ProcSet::from_indices([a.machine]),
            });
        }
        rect
    }

    fn run_outcome(&self, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> OutcomeRun {
        reject_reservations(self.name(), ctx);
        let prepared = self.prepare(jobs, m, ctx).into_owned();
        let speeds = self.effective_speeds(m, ctx);
        OutcomeRun {
            outcome: Outcome::Uniform(uniform_list_schedule(&prepared, &speeds, JobOrder::Lpt)),
            jobs: prepared,
        }
    }
}

/// Every paper policy as a boxed, named instance.
///
/// Names are stable identifiers (CSV columns, [`by_name`] lookups):
/// `list-fcfs`, `list-lpt`, `list-spt`, `list-wspt`, `shelf-nfdh`,
/// `shelf-ffdh`, `backfill-easy`, `backfill-conservative`, `smart`,
/// `smart-weighted`, `mrt`, `batch-mrt`, `bicriteria`,
/// `deq-equipartition`, `nonclairvoyant-exp-trial`, `uniform-mct`.
///
/// The first fourteen produce rectangle outcomes; the last two carry the
/// paper's other execution models ([`OutcomeKind::Trial`] /
/// [`OutcomeKind::Uniform`]) and are appended *after* them so every
/// historical iteration order is preserved.
pub fn registry() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(ListScheduling::new(JobOrder::Fcfs)),
        Box::new(ListScheduling::new(JobOrder::Lpt)),
        Box::new(ListScheduling::new(JobOrder::Spt)),
        Box::new(ListScheduling::new(JobOrder::WeightDensity)),
        Box::new(ShelfPacking::new(ShelfAlgo::Nfdh)),
        Box::new(ShelfPacking::new(ShelfAlgo::Ffdh)),
        Box::new(Backfilling::easy()),
        Box::new(Backfilling::conservative()),
        Box::new(SmartShelves::unweighted()),
        Box::new(SmartShelves::weighted()),
        Box::new(MrtTwoShelf),
        Box::new(BatchedMrt),
        Box::new(BiCriteriaDoubling),
        Box::new(DeqEquipartition),
        Box::new(NonclairvoyantExpTrial),
        Box::new(UniformMct),
    ]
}

/// Look a registry policy up by its stable name.
pub fn by_name(name: &str) -> Option<Box<dyn Policy>> {
    registry().into_iter().find(|p| p.name() == name)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lsps_des::Dur;
    use lsps_workload::{MoldableProfile, SpeedupModel};

    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    fn mixed_jobs() -> Vec<Job> {
        vec![
            Job::rigid(0, 2, d(50)),
            Job::sequential(1, d(120)).released_at(Time::from_ticks(10)),
            Job::moldable(
                2,
                MoldableProfile::from_model(d(400), &SpeedupModel::Amdahl { seq_fraction: 0.1 }, 8),
            )
            .released_at(Time::from_ticks(25)),
        ]
    }

    /// The registry workload every policy can schedule: `mixed_jobs` with
    /// wide rigid work narrowed to the sequential domain for
    /// uniform-machine policies.
    pub(crate) fn domain_jobs(policy: &dyn Policy) -> Vec<Job> {
        match policy.outcome_kind() {
            OutcomeKind::Uniform => mixed_jobs()
                .into_iter()
                .map(|j| match j.kind {
                    JobKind::Rigid { len, .. } => Job {
                        kind: JobKind::Rigid { procs: 1, len },
                        ..j
                    },
                    _ => j,
                })
                .collect(),
            _ => mixed_jobs(),
        }
    }

    #[test]
    fn registry_names_are_unique_and_plentiful() {
        let reg = registry();
        assert!(reg.len() >= 16, "registry has {} policies", reg.len());
        let mut names: Vec<&str> = reg.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate policy names");
        // The historical prefix: rectangle policies first, new outcome
        // kinds appended after them.
        assert!(reg[..14]
            .iter()
            .all(|p| p.outcome_kind() == OutcomeKind::Rect));
        assert_eq!(reg[14].name(), "nonclairvoyant-exp-trial");
        assert_eq!(reg[15].name(), "uniform-mct");
    }

    #[test]
    fn by_name_roundtrips_every_registry_entry() {
        for p in registry() {
            let found = by_name(p.name()).expect("lookup succeeds");
            assert_eq!(found.name(), p.name());
        }
        assert!(by_name("no-such-policy").is_none());
    }

    #[test]
    fn every_policy_schedules_a_mixed_workload() {
        for policy in registry() {
            let jobs = domain_jobs(policy.as_ref());
            let offline = PolicyCtx {
                release_mode: ReleaseMode::Offline,
                ..PolicyCtx::default()
            };
            for ctx in [PolicyCtx::default(), offline] {
                let run = policy.run(&jobs, 8, &ctx);
                assert_eq!(
                    run.validate(),
                    Ok(()),
                    "{} ({:?})",
                    policy.name(),
                    ctx.release_mode
                );
                assert_eq!(run.schedule.len(), jobs.len(), "{}", policy.name());
            }
        }
    }

    #[test]
    fn every_policy_runs_through_the_outcome_interface() {
        for policy in registry() {
            let jobs = domain_jobs(policy.as_ref());
            let run = policy.run_outcome(&jobs, 8, &PolicyCtx::default());
            assert_eq!(run.validate(), Ok(()), "{}", policy.name());
            assert_eq!(
                run.outcome.kind(),
                policy.outcome_kind(),
                "{}",
                policy.name()
            );
            assert_eq!(run.outcome.len(), jobs.len(), "{}", policy.name());
            let records = run.outcome.completed(&run.jobs);
            assert_eq!(records.len(), jobs.len(), "{}", policy.name());
            // Rect policies: the outcome is exactly the batch run.
            if policy.outcome_kind() == OutcomeKind::Rect {
                let batch = policy.run(&jobs, 8, &PolicyCtx::default());
                assert_eq!(run.outcome.as_rect(), Some(&batch.schedule));
                assert_eq!(run.outcome.trial_stats(), None);
            }
        }
    }

    #[test]
    fn prepare_borrows_when_identity() {
        // Rigid, release-free jobs under the on-line ctx need no copy.
        let jobs = vec![Job::rigid(0, 2, d(10)), Job::sequential(1, d(5))];
        let p = ListScheduling::new(JobOrder::Fcfs);
        assert!(matches!(
            p.prepare(&jobs, 4, &PolicyCtx::default()),
            Cow::Borrowed(_)
        ));
        // Moldable input forces the rigidifying copy.
        let moldable = mixed_jobs();
        assert!(matches!(
            p.prepare(&moldable, 4, &PolicyCtx::default()),
            Cow::Owned(_)
        ));
    }

    #[test]
    fn offline_mode_strips_releases() {
        let jobs = mixed_jobs();
        let p = BiCriteriaDoubling;
        let offline = PolicyCtx {
            release_mode: ReleaseMode::Offline,
            ..PolicyCtx::default()
        };
        let prepared = p.prepare(&jobs, 8, &offline);
        assert!(prepared.iter().all(|j| j.release == Time::ZERO));
        // On-line mode keeps them (bicriteria handles releases natively).
        let online = p.prepare(&jobs, 8, &PolicyCtx::default());
        assert_eq!(online[1].release, Time::from_ticks(10));
    }

    #[test]
    fn backfill_policy_honours_reservations_and_estimates() {
        use crate::backfill::respects_reservations;
        let jobs = vec![Job::rigid(1, 2, d(10)), Job::rigid(2, 1, d(4))];
        let resv = Reservation {
            start: Time::from_ticks(5),
            end: Time::from_ticks(15),
            procs: 2,
        };
        let ctx = PolicyCtx {
            reservations: vec![resv],
            estimate_factor: 2.0,
            ..PolicyCtx::default()
        };
        for policy in [Backfilling::easy(), Backfilling::conservative()] {
            let run = policy.run(&jobs, 2, &ctx);
            assert_eq!(run.validate(), Ok(()), "{}", policy.name());
            assert!(respects_reservations(&run.schedule, 2, &[resv]));
        }
    }

    #[test]
    #[should_panic]
    fn reservation_blind_policies_reject_reservations() {
        let ctx = PolicyCtx {
            reservations: vec![Reservation {
                start: Time::ZERO,
                end: Time::from_ticks(10),
                procs: 1,
            }],
            ..PolicyCtx::default()
        };
        SmartShelves::weighted().schedule(&[Job::sequential(1, d(5))], 2, &ctx);
    }

    #[test]
    #[should_panic]
    fn divisible_jobs_rejected() {
        let j = Job {
            kind: JobKind::Divisible { work: 10.0 },
            ..Job::sequential(1, d(1))
        };
        ListScheduling::new(JobOrder::Fcfs).schedule(&[j], 2, &PolicyCtx::default());
    }

    #[test]
    fn batch_mrt_avoids_reservation_windows() {
        let resv = Reservation {
            start: Time::from_ticks(50),
            end: Time::from_ticks(100),
            procs: 2,
        };
        let jobs = vec![
            Job::sequential(1, d(30)),
            Job::sequential(2, d(40)).released_at(Time::from_ticks(10)),
        ];
        let ctx = PolicyCtx {
            reservations: vec![resv],
            ..PolicyCtx::default()
        };
        let run = BatchedMrt.run(&jobs, 2, &ctx);
        assert_eq!(run.validate(), Ok(()));
        for a in run.schedule.assignments() {
            assert!(
                a.end <= Time::from_ticks(50) || a.start >= Time::from_ticks(100),
                "assignment {a:?} crosses the blackout"
            );
        }
    }

    #[test]
    fn trial_policy_reads_the_ctx_estimate_and_reports_waste() {
        // True length 700 ticks, ctx estimate 100: kills at 100/200/400,
        // succeeds at 800 — the stats the rectangle interface cannot carry.
        let jobs = vec![Job::rigid(1, 1, d(700))];
        let policy = NonclairvoyantExpTrial;
        let ctx = PolicyCtx {
            knowledge: Knowledge::NonClairvoyant {
                initial_estimate: d(100),
            },
            ..PolicyCtx::default()
        };
        let run = policy.run_outcome(&jobs, 1, &ctx);
        assert_eq!(run.validate(), Ok(()));
        let stats = run.outcome.trial_stats().expect("trial outcome");
        assert_eq!(stats.trials, 4);
        assert_eq!(stats.kills, 3);
        assert_eq!(stats.wasted_ticks, 100 + 200 + 400);
        assert_eq!(run.outcome.makespan(), Time::from_ticks(1400));
        // schedule() is the same run minus the counters.
        assert_eq!(
            run.outcome.as_rect(),
            Some(&policy.schedule(&jobs, 1, &ctx))
        );
        // Clairvoyant ctx: the policy's own default estimate seeds the
        // doubling (60 s = 60 000 ticks > 700, so no kills).
        let clair = policy.run_outcome(&jobs, 1, &PolicyCtx::default());
        assert_eq!(clair.outcome.trial_stats().unwrap().kills, 0);
    }

    #[test]
    fn uniform_mct_consumes_ctx_speeds() {
        let jobs = vec![Job::sequential(1, d(100))];
        let ctx = PolicyCtx {
            speeds: vec![1.0, 2.0],
            ..PolicyCtx::default()
        };
        let run = UniformMct.run_outcome(&jobs, 2, &ctx);
        assert_eq!(run.validate(), Ok(()));
        // The lone job lands on the fast machine and finishes in 50 ticks.
        assert_eq!(run.outcome.makespan(), Time::from_ticks(50));
        assert_eq!(run.outcome.speeds(), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn uniform_mct_identical_projection_matches_unit_speed_outcome() {
        let jobs: Vec<Job> = (0..6).map(|i| Job::sequential(i, d(40 + 15 * i))).collect();
        let policy = UniformMct;
        let ctx = PolicyCtx::default();
        let rect = policy.run(&jobs, 3, &ctx);
        assert_eq!(rect.validate(), Ok(()));
        let outcome = policy.run_outcome(&jobs, 3, &ctx);
        assert_eq!(outcome.validate(), Ok(()));
        assert_eq!(rect.schedule.makespan(), outcome.outcome.makespan());
        // Same placements: machine index == processor index.
        let uni = match &outcome.outcome {
            Outcome::Uniform(u) => u,
            other => panic!("expected uniform outcome, got {:?}", other.kind()),
        };
        for (r, u) in rect.schedule.assignments().iter().zip(uni.assignments()) {
            assert_eq!(r.job, u.job);
            assert_eq!(r.start, u.start);
            assert_eq!(r.procs, ProcSet::from_indices([u.machine]));
        }
    }

    #[test]
    #[should_panic]
    fn rect_policies_reject_heterogeneous_speeds() {
        let ctx = PolicyCtx {
            speeds: vec![1.0, 0.5],
            ..PolicyCtx::default()
        };
        ListScheduling::new(JobOrder::Fcfs).run_outcome(&[Job::sequential(1, d(5))], 2, &ctx);
    }

    #[test]
    #[should_panic]
    fn uniform_mct_rejects_wide_rigid_jobs() {
        UniformMct.run_outcome(&[Job::rigid(1, 2, d(10))], 4, &PolicyCtx::default());
    }

    #[test]
    fn deq_adapter_exposes_true_malleable_run() {
        let profile = MoldableProfile::from_model(d(800), &SpeedupModel::Linear, 8);
        let jobs = vec![
            Job {
                kind: JobKind::Malleable {
                    profile: profile.clone(),
                },
                ..Job::sequential(1, d(800))
            },
            Job {
                kind: JobKind::Malleable { profile },
                ..Job::sequential(2, d(800))
            },
        ];
        let adapter = DeqEquipartition;
        let malleable = adapter.deq(&jobs, 8);
        assert_eq!(malleable.validate(&jobs), Ok(()));
        let rect = adapter.run(&jobs, 8, &PolicyCtx::default());
        assert_eq!(rect.validate(), Ok(()));
        // Static shares: two jobs on m=8 get 4 procs each.
        assert!(rect
            .schedule
            .assignments()
            .iter()
            .all(|a| a.procs.len() == 4));
    }
}
