//! Cell execution primitives: the executors, the result [`Cell`] and its
//! one CSV schema ([`CSV_HEADER`]), and the DES drivers every campaign
//! cell runs through.
//!
//! A cell crosses one policy (usually a [`lsps_core::policy::registry`]
//! entry) with one workload replication on one platform, and pushes it
//! through `Policy::run` → validation → `lsps_metrics`;
//! [`crate::CampaignPlan`] picks the drive per cell. Completion records
//! come from one of two executors sharing the schema:
//!
//! * [`Executor::Direct`] — read straight off the batch outcome;
//! * [`Executor::DesOnline`] — *drive* the policy event-by-event: arrivals
//!   enqueue into a pending set and every arrival/completion instant asks
//!   the policy's [`IncrementalPlanner`] to place it around the live
//!   commitments, so estimate-driven and non-clairvoyant behaviour is
//!   exercised in the regime where it actually differs (see
//!   [`des_online`]).
//!
//! Open (steady-state) entries run an unbounded stream through
//! [`des_online_open`]. Failing platforms kill and resubmit work through
//! the finite driver behind [`des_online`], of which a reliable platform
//! is the no-outage case.
//!
//! Every online commitment carries its placement: the processors the
//! planner gave it and the planner booking behind it. A node failure reads
//! both from the machine's running table to pick its victims and evict
//! their bookings, and a finite drive builds its records and its
//! final-attempt schedule from the completions alone, so the dispatcher
//! keeps no per-job table beyond the original shapes of interrupted jobs.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use lsps_core::outcome::OutcomeKind;
use lsps_core::policy::{Policy, PolicyCtx, PolicyRun, ReleaseMode};
use lsps_core::replan::{IncrementalPlanner, Placement};
use lsps_core::schedule::{Assignment, Schedule};
use lsps_des::{
    ArrivalSource, Commitment, Dispatcher, Dur, OnlineCounters, OnlineEvent, OnlineMachine,
    RunStats, SimRng, Time,
};
use lsps_metrics::{
    ClassResponse, CompletedJob, Criteria, CriteriaAcc, FailureStats, SteadyState, Summary,
};
use lsps_workload::{FailurePolicy, Job, JobId, JobKind, Outage};

use crate::spec::OpenEntry;
use crate::Table;

/// How a cell is executed and its completion records extracted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Executor {
    /// Batch-schedule once, read records straight off the assignments.
    #[default]
    Direct,
    /// Drive the policy online: jobs arrive at their release dates and
    /// every arrival/completion instant re-plans the pending set through
    /// the policy's [`IncrementalPlanner`]. The only executor in which
    /// *when* the policy learns a job exists matters.
    DesOnline,
}

impl Executor {
    /// Every executor, in comparison-sweep order.
    pub const ALL: [Executor; 2] = [Executor::Direct, Executor::DesOnline];

    /// Stable identifier (CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            Executor::Direct => "direct",
            Executor::DesOnline => "des-online",
        }
    }

    /// Can this executor run a policy of the given [`OutcomeKind`]?
    ///
    /// `direct` consumes every outcome through the uniform
    /// [`Outcome::completed`](lsps_core::outcome::Outcome::completed)
    /// interface; `des-online` drives *rectangles* — a trial outcome's
    /// burnt machine time and a uniform outcome's speed-scaled spans have
    /// no event representation there, so campaign expansion rejects those
    /// pairs before any cell exists.
    pub fn supports(self, kind: OutcomeKind) -> bool {
        matches!(self, Executor::Direct) || kind == OutcomeKind::Rect
    }
}

impl fmt::Display for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An executor name that matched nothing in [`Executor::ALL`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownExecutor(pub String);

impl fmt::Display for UnknownExecutor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = Executor::ALL.map(Executor::name).join(", ");
        write!(
            f,
            "unknown executor `{}` (expected one of: {names})",
            self.0
        )
    }
}

impl std::error::Error for UnknownExecutor {}

impl FromStr for Executor {
    type Err = UnknownExecutor;

    /// Parse the stable [`Executor::name`] identifiers, so campaign specs
    /// and CLI flags name executors without each binary re-rolling the
    /// mapping.
    fn from_str(s: &str) -> Result<Executor, UnknownExecutor> {
        Executor::ALL
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| UnknownExecutor(s.to_string()))
    }
}

/// One (policy × workload × platform) outcome. Serializable so the
/// campaign cache can persist cells as shards and replay them byte-for-byte
/// (`f64` values round-trip exactly through the JSON layer).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Policy name (registry identifier).
    pub policy: String,
    /// Executor that produced the records ([`Executor::name`]).
    pub executor: String,
    /// Workload family name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Platform name.
    pub platform: String,
    /// Machine size.
    pub m: usize,
    /// Number of jobs scheduled.
    pub n: usize,
    /// All §3 criteria.
    pub criteria: Criteria,
    /// Makespan over the certified `Cmax` lower bound.
    pub cmax_ratio: f64,
    /// `Σ Ci` over its lower bound.
    pub csum_ratio: f64,
    /// `Σ ωi Ci` over its lower bound.
    pub wsum_ratio: f64,
    /// Machine utilization in `[0, 1]`.
    pub utilization: f64,
    /// Trials started (non-clairvoyant outcomes only; `None` — an empty
    /// aggregate-CSV column — for rectangle and uniform outcomes).
    pub trials: Option<u64>,
    /// Trials killed at their estimate.
    pub kills: Option<u64>,
    /// CPU-ticks burnt on killed trials — the price of non-clairvoyance.
    pub wasted_ticks: Option<u64>,
    /// Open-arrival cells only: the stream's class names, indexed by the
    /// `class` field of [`responses`](Cell::responses). `None` for finite
    /// (closed) cells.
    pub class_names: Option<Vec<String>>,
    /// Open-arrival cells only: per-class post-warmup response-time
    /// distributions (mean/p50/p95/p99, max slowdown, batch-means CI).
    pub responses: Option<Vec<ClassResponse>>,
    /// Failure-aware cells only: goodput, wasted proc-ticks, resubmit
    /// counts and interrupted-job slowdown (`None` — empty aggregate
    /// columns — for reliable-platform cells, which keep today's output
    /// byte-identical).
    pub failures: Option<FailureStats>,
}

/// The one CSV schema every campaign and experiment binary emits.
pub const CSV_HEADER: &str = "policy,executor,workload,seed,platform,m,n,cmax_s,cmax_ratio,\
                              csum_ratio,wsum_ratio,mean_flow_s,max_flow_s,utilization";

impl Cell {
    /// Render as a [`CSV_HEADER`] row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
            self.policy,
            self.executor,
            self.workload,
            self.seed,
            self.platform,
            self.m,
            self.n,
            self.criteria.cmax,
            self.cmax_ratio,
            self.csum_ratio,
            self.wsum_ratio,
            self.criteria.mean_flow,
            self.criteria.max_flow,
            self.utilization,
        )
    }
}

/// Render cells as the standard CSV document.
pub fn to_csv(cells: &[Cell]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for c in cells {
        out.push_str(&c.csv_row());
        out.push('\n');
    }
    out
}

/// Print cells as a fixed-width table on stdout.
pub fn print_cells(cells: &[Cell]) {
    let mut table = Table::new(&[
        "policy",
        "executor",
        "workload",
        "seed",
        "platform",
        "Cmax ratio",
        "sC ratio",
        "sWC ratio",
        "mean flow (s)",
        "max flow (s)",
        "util %",
    ]);
    for c in cells {
        table.row(vec![
            c.policy.clone(),
            c.executor.clone(),
            c.workload.clone(),
            c.seed.to_string(),
            c.platform.clone(),
            format!("{:.3}", c.cmax_ratio),
            format!("{:.3}", c.csum_ratio),
            format!("{:.3}", c.wsum_ratio),
            format!("{:.1}", c.criteria.mean_flow),
            format!("{:.1}", c.criteria.max_flow),
            format!("{:.1}", c.utilization * 100.0),
        ]);
    }
    table.print();
}

/// Aggregate a cell metric over seeds, grouped by `key`. Returns groups in
/// first-seen order.
pub fn summarize_by<K: Eq + std::hash::Hash + Clone>(
    cells: &[Cell],
    key: impl Fn(&Cell) -> K,
    metric: impl Fn(&Cell) -> f64,
) -> Vec<(K, Summary)> {
    let mut order: Vec<K> = Vec::new();
    let mut groups: HashMap<K, Summary> = HashMap::new();
    for c in cells {
        let k = key(c);
        groups
            .entry(k.clone())
            .or_insert_with(|| {
                order.push(k);
                Summary::new()
            })
            .add(metric(c));
    }
    order
        .into_iter()
        .map(|k| {
            let s = groups.remove(&k).expect("group exists");
            (k, s)
        })
        .collect()
}

/// The [`lsps_des::Dispatcher`] that turns a [`Policy`] into an online
/// decision procedure: every decision is one
/// [`IncrementalPlanner::plan`] call, which moves the jobs it places out
/// of the pending set as commitments, each carrying its [`Placement`].
/// The jobs it leaves (all of them, when the
/// [`BatchPlanner`](lsps_core::replan::BatchPlanner) defers while work is
/// running) stay pending for a later instant. On a node failure it kills
/// the commitments holding the node and resubmits their jobs per the
/// recovery policy.
struct PolicyDispatch<'a> {
    policy: &'a dyn Policy,
    /// The policy's planner ([`Policy::incremental_planner`]), or a test
    /// planner such as the full-replan oracle.
    planner: Box<dyn IncrementalPlanner + 'a>,
    /// Checkpoint interval of the recovery policy; [`Dur::MAX`] under
    /// resubmit-from-scratch, whose killed work never reaches a checkpoint.
    checkpoint: Dur,
    /// Original (full-length, original-release) prepared shape of every
    /// job killed at least once, stored at its first kill — the reference
    /// for recovery accounting and completion records. Its keys are the
    /// interrupted jobs.
    originals: HashMap<JobId, Job>,
    /// Proc-ticks executed by killed attempts and not saved by a
    /// checkpoint.
    wasted_ticks: u64,
}

impl Dispatcher for PolicyDispatch<'_> {
    type Job = Job;
    type Placement = Placement;

    fn decide(
        &mut self,
        now: Time,
        pending: &mut Vec<Job>,
        out: &mut Vec<Commitment<Job, Placement>>,
    ) {
        self.planner.plan(now, pending, out);
    }

    fn node_down(
        &mut self,
        now: Time,
        node: u32,
        up: Time,
        running: &[Option<Commitment<Job, Placement>>],
        kill: &mut Vec<usize>,
        resubmit: &mut Vec<Job>,
    ) {
        // Victims in slot order (deterministic, whichever planner runs):
        // every commitment holding the failed node over
        // part of the outage window. `end == now` survives — the FIFO
        // tie-break fires this NodeDown before the same-instant Finish, and
        // a job that completed the instant the node died lost nothing.
        for (slot, c) in running.iter().enumerate() {
            let Some(c) = c else { continue };
            if !c.placed.procs.contains(node as usize) || c.end <= now || c.start >= up {
                continue;
            }
            self.planner.invalidate(c.placed.booking);
            kill.push(slot);
            // Recovery accounting, in ticks. A first kill finds the job in
            // its prepared shape. The commitment's span is the job's
            // *current* (possibly checkpoint-trimmed) length, so the
            // original length splits into work already checkpointed before
            // this attempt plus this attempt's span.
            let orig = self
                .originals
                .entry(c.job.id)
                .or_insert_with(|| c.job.clone());
            let (q, orig_len) = match orig.kind {
                JobKind::Rigid { procs, len } => (procs, len.ticks()),
                _ => unreachable!("failing platforms run prepared rigid jobs"),
            };
            let attempt = (c.end - c.start).ticks();
            let done_before = orig_len - attempt;
            let work_this = now.saturating_sub(c.start).ticks();
            let cum = done_before + work_this;
            let kept = cum / self.checkpoint.ticks() * self.checkpoint.ticks();
            debug_assert!(
                kept <= cum && cum < orig_len,
                "kill implies unfinished work"
            );
            self.wasted_ticks += (cum - kept) * q as u64;
            let mut job = orig.clone();
            job.release = now;
            job.kind = JobKind::Rigid {
                procs: q,
                len: Dur::from_ticks(orig_len - kept),
            };
            resubmit.push(job);
        }
        // The node is gone until `up`: pin the outage window so every
        // subsequent placement (the resubmits included) plans around it.
        // It expires off the profile at the repair instant exactly like a
        // completed commitment.
        self.planner.add_outage(node, now, up);
    }
}

impl<'a> PolicyDispatch<'a> {
    /// A dispatcher for `policy`, deciding through `planner` and
    /// recovering killed work per `recovery`.
    fn new(
        policy: &'a dyn Policy,
        planner: Box<dyn IncrementalPlanner + 'a>,
        recovery: FailurePolicy,
    ) -> Self {
        PolicyDispatch {
            policy,
            planner,
            checkpoint: recovery.checkpoint_period().unwrap_or(Dur::MAX),
            originals: HashMap::new(),
            wasted_ticks: 0,
        }
    }
}

/// When an online drive stops.
enum Stop {
    /// Run the agenda dry: every job commits and completes. No event
    /// budget is needed, because an online drive cannot run forever:
    /// arrivals and node events are finite, kills happen only at node
    /// events, each commitment completes once, and a decision needs
    /// another event at its instant. So a stalled dispatcher can only
    /// leave jobs pending, and the drain reports exactly that.
    Drain,
    /// Stop at the N-th completion, or earlier if the source runs dry.
    Completions(u64),
}

/// What one drive leaves behind.
struct Drive<'a> {
    dispatch: PolicyDispatch<'a>,
    counters: OnlineCounters,
    stats: RunStats,
}

/// The one online driver behind [`des_online`] (reliable and failing
/// platforms alike) and [`des_online_open`]: feed `arrivals` to an
/// [`OnlineMachine`] around `dispatch`, fail nodes per `outages`, hand
/// every completion to `sink`, and step until `stop`.
fn drive<'a>(
    dispatch: PolicyDispatch<'a>,
    arrivals: impl ArrivalSource<Job = Job>,
    outages: &[Outage],
    stop: Stop,
    sink: impl FnMut(Commitment<Job, Placement>),
) -> Drive<'a> {
    let policy = dispatch.policy;
    let mut sim = OnlineMachine::start(dispatch, arrivals, sink);
    // Failure events are seeded before the run, so the FIFO tie-break fires
    // a NodeDown *before* any same-instant Finish (scheduled later, at
    // commit time): a job ending exactly when its node dies has already
    // finished and is not killed.
    for o in outages {
        sim.schedule_at(
            o.start,
            OnlineEvent::NodeDown {
                node: o.node,
                up: o.end,
            },
        );
        sim.schedule_at(o.end, OnlineEvent::NodeUp { node: o.node });
    }
    let stats = match stop {
        Stop::Drain => {
            let stats = sim.run_to_completion(u64::MAX);
            let left = sim.model().pending().len();
            assert!(left == 0, "{}: {left} jobs never committed", policy.name());
            stats
        }
        Stop::Completions(n) => sim.run_while(u64::MAX, |m| m.counters().completions < n),
    };
    let machine = sim.into_model();
    Drive {
        counters: machine.counters(),
        dispatch: machine.into_dispatcher(),
        stats,
    }
}

/// Outcome of one event-driven online execution.
pub struct OnlineRun {
    /// The final attempt of every job, with the job shapes those attempts
    /// ran — validates exactly like a batch [`PolicyRun`]. Without outages
    /// the shapes are the prepared jobs.
    pub run: PolicyRun,
    /// The as-scheduled (prepared) job view, in input order — what the
    /// lower bounds measure.
    pub jobs: Vec<Job>,
    /// Completion records against the prepared job shapes (original
    /// release, full length) with the final attempt's start and end — a
    /// killed job's flow includes every lost attempt. Collected at
    /// simulated event times and sorted by job id.
    pub records: Vec<CompletedJob>,
    /// Kill, waste and goodput accounting (a perfect score without
    /// outages).
    pub failures: FailureStats,
    /// Engine counters (arrival wake-ups, completions and node events;
    /// decisions are no events).
    pub stats: RunStats,
    /// Jobs the planner examined over the whole run — the
    /// instrumentation the O(dirty) regression tests read.
    pub replan_touched: u64,
}

/// Drive `policy` through the event engine: every job arrives at its
/// release date (at time zero under [`ReleaseMode::Offline`]), arrivals at
/// the same instant coalesce into one decision, and each decision commits
/// the pending set through the policy's
/// [`incremental_planner`](Policy::incremental_planner) around the live
/// commitments. Completions fire as events; nothing is ever started before
/// its arrival, so the execution is honestly online.
///
/// With exact runtimes and all-zero releases the single decision at time
/// zero *is* the batch schedule, so the outcome is bit-identical to
/// [`Executor::Direct`] — the equivalence the test suite pins for every
/// registry policy.
pub fn des_online(policy: &dyn Policy, jobs: &[Job], m: usize, ctx: &PolicyCtx) -> OnlineRun {
    let planner = policy.incremental_planner(m, ctx);
    finite_online(policy, jobs, m, ctx, &RELIABLE, planner)
}

/// Failure realization + recovery policy for one run.
pub(crate) struct FailurePlan {
    /// Concrete outages (already generated from a
    /// [`FailureTraceSpec`](lsps_workload::FailureTraceSpec)), every node
    /// `< m`. Empty on a reliable platform.
    pub(crate) outages: Vec<Outage>,
    /// What happens to a commitment killed mid-flight.
    pub(crate) policy: FailurePolicy,
}

/// A reliable platform: no outages, so the recovery policy is moot.
const RELIABLE: FailurePlan = FailurePlan {
    outages: Vec::new(),
    policy: FailurePolicy::Resubmit,
};

/// The finite online drive behind [`des_online`], on a platform whose
/// nodes fail and recover per `plan`. Every failure kills the commitments
/// running on the node, and killed jobs come back per the recovery policy
/// (resubmitted from scratch, or from the last checkpoint). This is the
/// explicit relaxation of the "commitments are final" invariant — a kill
/// evicts the commitment's booking and the outage window is pinned as a
/// reservation until repair, so all replanning (incremental or full) packs
/// around the hole. A reliable platform is the plan with no outages.
///
/// Restrictions when `plan` has outages (asserted): a policy with a
/// hole-filling planner ([`Policy::supports_pinned`]),
/// [`ReleaseMode::Online`], identical machines, no reservations, prepared
/// rigid jobs of length ≥ 1, and outages inside the machine. The kill rule
/// lives here, not in `planner`, so the policy's planner and the
/// full-replan oracle stay bit-identical — the differential property the
/// failure proptests pin down.
pub(crate) fn finite_online<'a>(
    policy: &'a dyn Policy,
    jobs: &[Job],
    m: usize,
    ctx: &PolicyCtx,
    plan: &FailurePlan,
    planner: Box<dyn IncrementalPlanner + 'a>,
) -> OnlineRun {
    // The as-scheduled view (rigidified, possibly release-stripped) fixes
    // the job shapes once, against the full instance — re-preparing inside
    // each decision would let allotments drift with the pending count.
    let prepared = policy.prepare(jobs, m, ctx).into_owned();
    if !plan.outages.is_empty() {
        assert!(
            policy.supports_pinned(),
            "{}: volatility needs a hole-filling policy (it must plan around outage windows)",
            policy.name()
        );
        assert!(
            matches!(ctx.release_mode, ReleaseMode::Online),
            "volatility is an online phenomenon; offline release stripping is meaningless"
        );
        assert!(
            ctx.reservations.is_empty() && ctx.is_identical_machine(),
            "volatile runs support neither reservations nor speeds"
        );
        for o in &plan.outages {
            assert!(
                (o.node as usize) < m && o.end > o.start,
                "outage {o:?} does not fit an {m}-processor machine"
            );
        }
        for j in &prepared {
            let JobKind::Rigid { len, .. } = j.kind else {
                panic!(
                    "volatile driver expects prepared rigid jobs; job {} is not",
                    j.id
                )
            };
            assert!(len.ticks() >= 1, "job {} has zero length", j.id);
        }
    }
    // Arrival instants come from the *input* releases: offline-only
    // policies strip releases from their job view (their documented head
    // start on the clock they are measured against), but information still
    // reaches the scheduler only at the true release date.
    let releases: HashMap<JobId, Time> = jobs.iter().map(|j| (j.id, j.release)).collect();
    let mut arrivals: Vec<(Time, Job)> = prepared
        .iter()
        .map(|j| match ctx.release_mode {
            ReleaseMode::Offline => (Time::ZERO, j.clone()),
            ReleaseMode::Online => (releases[&j.id], j.clone()),
        })
        .collect();
    // Stable: same-instant arrivals keep the prepared order.
    arrivals.sort_by_key(|&(at, _)| at);
    let mut completed = Vec::with_capacity(prepared.len());
    let run = drive(
        PolicyDispatch::new(policy, planner, plan.policy),
        arrivals.into_iter(),
        &plan.outages,
        Stop::Drain,
        |c| completed.push(Some(c)),
    );
    let dispatch = run.dispatch;
    assert_eq!(
        completed.len(),
        prepared.len(),
        "every job must complete exactly once"
    );
    // One pass over the final attempts, in job-id order: the records, the
    // validated schedule with the shapes its attempts ran, the useful area
    // and the interrupted-job slowdowns (sorted-id order, so identical
    // across the planner and oracle paths). Only the `(id, index)` keys are
    // sorted; each commitment then moves out of its slot once.
    let mut by_id: Vec<(JobId, usize)> = completed
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_ref().expect("filled by the sink").job.id, i))
        .collect();
    by_id.sort_unstable();
    debug_assert!(
        by_id.windows(2).all(|w| w[0].0 < w[1].0),
        "duplicate completion records"
    );
    let mut records = Vec::with_capacity(completed.len());
    let mut schedule = Schedule::new(m);
    let mut attempted = Vec::with_capacity(completed.len());
    let mut useful_area = 0u64;
    let mut slowdowns = Vec::new();
    for (_, i) in by_id {
        let c = completed[i].take().expect("each index once");
        let orig = dispatch.originals.get(&c.job.id);
        let shape = orig.unwrap_or(&c.job);
        let q = c.placed.procs.len();
        let record = CompletedJob::from_job(shape, c.start, c.end, q);
        let len = shape.time_on(q).ticks();
        useful_area += len * q as u64;
        if orig.is_some() {
            slowdowns.push(record.flow().ticks() as f64 / len as f64);
        }
        records.push(record);
        schedule.push(Assignment {
            job: c.job.id,
            start: c.start,
            end: c.end,
            procs: c.placed.procs,
        });
        attempted.push(c.job);
    }
    let failures = FailureStats::evaluate(
        useful_area,
        dispatch.wasted_ticks,
        run.counters.kills,
        run.counters.resubmits,
        &slowdowns,
    );
    OnlineRun {
        run: PolicyRun {
            schedule,
            jobs: attempted,
        },
        jobs: prepared,
        records,
        failures,
        stats: run.stats,
        replan_touched: dispatch.planner.touched(),
    }
}

/// Outcome of one open-arrival (steady-state) drive: streaming criteria
/// over every counted completion, per-class post-warmup response
/// distributions, and the bounded-memory witnesses.
pub struct OpenOutcome {
    /// §3 criteria over *all* counted completions (warmup included — the
    /// criteria describe the run; the response distributions describe the
    /// steady state).
    pub criteria: Criteria,
    /// Per-class post-warmup response distributions.
    pub responses: Vec<ClassResponse>,
    /// Arrivals fed into the machine.
    pub arrivals: u64,
    /// Completions counted (= the stopping target unless a feed horizon
    /// drained the stream first).
    pub completions: u64,
    /// High-water mark of live (pending + running) jobs — the witness that
    /// memory tracked queue depth, not stream length.
    pub max_live: usize,
    /// Leading completions the warmup rule discarded.
    pub warmup_cut: usize,
}

/// The seeded arrival stream of an open entry on `m` processors, cut at
/// its feed horizon. The class index rides along inside each job as its
/// `user` tag.
pub(crate) fn open_arrivals(
    open: &OpenEntry,
    m: usize,
    seed: u64,
) -> impl Iterator<Item = (Time, Job)> {
    let mut stream = open.stream.stream(m, SimRng::seed_from(seed));
    let horizon = open.horizon_s.map_or(Time::MAX, Time::from_secs_f64);
    std::iter::from_fn(move || {
        let (_class, job) = stream.next_job();
        Some((job.release, job))
    })
    .take_while(move |&(at, _)| at <= horizon)
}

/// Drive `policy` over an unbounded open-arrival stream until the entry's
/// stopping rule fires: the steady-state sibling of [`des_online`].
///
/// Arrivals are pulled one ahead from the seeded stream, finished
/// commitments are folded into streaming accumulators by the machine's
/// sink instead of being retained (the finite driver collects them to
/// build and validate its schedule, which here would grow with the
/// stream), and the policy plans through the same `PolicyDispatch` as the
/// finite driver. Memory is `O(live jobs + counted completions)`.
///
/// Slowdown here is `flow / runtime` (runtime = completion − start), the
/// open-queueing convention: over a stream there is no fixed instance to
/// normalize against, and for rigid jobs runtime is the natural service
/// denominator.
pub fn des_online_open(
    policy: &dyn Policy,
    open: &OpenEntry,
    m: usize,
    ctx: &PolicyCtx,
    seed: u64,
) -> OpenOutcome {
    assert_eq!(
        policy.outcome_kind(),
        OutcomeKind::Rect,
        "{}: the open driver is rectangle-only, like every DES executor",
        policy.name()
    );
    assert_eq!(
        ctx.release_mode,
        ReleaseMode::Online,
        "an open stream needs honest online releases"
    );
    let mut steady = SteadyState::new();
    let mut crit = CriteriaAcc::new();
    let planner = policy.incremental_planner(m, ctx);
    let run = drive(
        // No outages reach an open drive.
        PolicyDispatch::new(policy, planner, RELIABLE.policy),
        open_arrivals(open, m, seed),
        &[],
        Stop::Completions(open.stop_completions),
        |c| {
            let rec = CompletedJob::from_job(&c.job, c.start, c.end, c.placed.procs.len());
            let flow = rec.flow().as_secs_f64();
            let runtime = c.end.saturating_sub(c.start).as_secs_f64();
            let slowdown = if runtime > 0.0 { flow / runtime } else { 1.0 };
            steady.record(c.job.user.0, flow, slowdown);
            crit.push(&rec);
        },
    );
    let OnlineCounters {
        arrivals,
        completions,
        max_live,
        ..
    } = run.counters;
    assert!(
        completions > 0,
        "open stream produced no completions (horizon {:?} s admitted nothing)",
        open.horizon_s
    );
    let cut = steady.warmup_cut(open.warmup);
    OpenOutcome {
        criteria: crit.finish(),
        responses: steady.per_class(cut, open.batches),
        arrivals,
        completions,
        max_live,
        warmup_cut: cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsps_des::Dur;

    #[test]
    fn executor_names_round_trip_through_fromstr_and_display() {
        for e in Executor::ALL {
            assert_eq!(e.to_string().parse::<Executor>(), Ok(e));
            assert_eq!(e.name().parse::<Executor>(), Ok(e));
        }
        let err = "batch".parse::<Executor>().unwrap_err();
        assert_eq!(err, UnknownExecutor("batch".into()));
        assert!(err.to_string().contains("des-online"));
        // Strict: the mapping is the stable CSV identifier, nothing looser.
        assert!("Direct".parse::<Executor>().is_err());
    }

    #[test]
    fn summarize_groups_in_first_seen_order() {
        let mk = |policy: &str, v: f64| Cell {
            policy: policy.into(),
            executor: "direct".into(),
            workload: "w".into(),
            seed: 0,
            platform: "p".into(),
            m: 1,
            n: 1,
            criteria: Criteria::evaluate(&[CompletedJob::from_job(
                &Job::sequential(1, Dur::from_ticks(1)),
                Time::ZERO,
                Time::from_ticks(1),
                1,
            )]),
            cmax_ratio: v,
            csum_ratio: v,
            wsum_ratio: v,
            utilization: 1.0,
            trials: None,
            kills: None,
            wasted_ticks: None,
            class_names: None,
            responses: None,
            failures: None,
        };
        let cells = vec![mk("b", 1.0), mk("a", 2.0), mk("b", 3.0)];
        let grouped = summarize_by(&cells, |c| c.policy.clone(), |c| c.cmax_ratio);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, "b");
        assert_eq!(grouped[0].1.mean(), 2.0);
        assert_eq!(grouped[1].0, "a");
    }
}

#[cfg(test)]
mod replan_tests {
    //! Differential tests for the incremental planner: the full replan
    //! ([`FullReplanOracle`]) is the oracle, and the planner must be
    //! bit-identical to it — assignments (starts, ends, exact processor
    //! sets), committed intervals and completion records alike.

    use super::*;
    use lsps_core::backfill::{
        backfill_on_timeline, book_reservations, BackfillPolicy, Reservation,
    };
    use lsps_core::policy::Backfilling;
    use lsps_des::{Dur, SimRng};
    use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};
    use lsps_workload::FailureTraceSpec;
    use proptest::prelude::*;

    use crate::families::large_scale_instance;

    /// The EASY or conservative backfill policy, with its flavour.
    fn backfill(easy: bool) -> (Box<dyn Policy>, BackfillPolicy) {
        if easy {
            (Box::new(Backfilling::easy()), BackfillPolicy::Easy)
        } else {
            (
                Box::new(Backfilling::conservative()),
                BackfillPolicy::Conservative,
            )
        }
    }

    fn online_ctx(factor: f64) -> PolicyCtx {
        PolicyCtx {
            release_mode: ReleaseMode::Online,
            estimate_factor: factor,
            ..PolicyCtx::default()
        }
    }

    /// The re-book-everything oracle for the backfill family: every
    /// decision builds a fresh timeline from the live commitments (then
    /// the reservations, first-fit, exactly as a batch run places them)
    /// and packs the pending batch with the batch-path
    /// [`backfill_on_timeline`]. O(live) work per event — the rebuild
    /// [`BackfillPlanner`](lsps_core::replan::BackfillPlanner) proves
    /// redundant, and the reference it must match bit for bit.
    struct FullReplanOracle {
        flavour: BackfillPolicy,
        factor: f64,
        reservations: Vec<Reservation>,
        /// Live commitments and outage windows at true lengths.
        committed: Timeline,
        touched: u64,
    }

    impl FullReplanOracle {
        fn new(flavour: BackfillPolicy, m: usize, ctx: &PolicyCtx) -> Self {
            FullReplanOracle {
                flavour,
                factor: ctx.estimate_factor,
                reservations: ctx.reservations.clone(),
                committed: Timeline::with_procs(m),
                touched: 0,
            }
        }
    }

    impl IncrementalPlanner for FullReplanOracle {
        fn plan(
            &mut self,
            now: Time,
            pending: &mut Vec<Job>,
            out: &mut Vec<Commitment<Job, Placement>>,
        ) {
            self.committed.gc(now);
            let m = self.committed.capacity().len();
            let mut tl = Timeline::with_procs(m);
            for (_, b) in self.committed.bookings().filter(|(_, b)| b.end > now) {
                tl.try_book(b.start, b.end, b.procs.clone(), BookingKind::Reservation)
                    .expect("live commitments are disjoint");
            }
            book_reservations(&mut tl, &self.reservations);
            let bumped: Vec<Job> = pending
                .iter()
                .map(|j| {
                    let mut j = j.clone();
                    j.release = j.release.max(now);
                    j
                })
                .collect();
            self.touched += (pending.len() + self.committed.n_bookings()) as u64;
            let placed = backfill_on_timeline(&bumped, m, tl, self.flavour, self.factor);
            for a in placed.assignments() {
                let booking = self
                    .committed
                    .try_book(a.start, a.end, a.procs.clone(), BookingKind::Job)
                    .expect("placements avoid live work");
                let at = pending.iter().position(|j| j.id == a.job).unwrap();
                out.push(Commitment {
                    job: pending.swap_remove(at),
                    start: a.start,
                    end: a.end,
                    placed: Placement {
                        procs: a.procs.clone(),
                        booking,
                    },
                });
            }
        }

        fn touched(&self) -> u64 {
            self.touched
        }

        fn invalidate(&mut self, id: BookingId) {
            self.committed
                .remove(id)
                .expect("killed booking still present");
        }

        fn add_outage(&mut self, node: u32, start: Time, end: Time) {
            self.committed
                .try_book(
                    start,
                    end,
                    ProcSet::from_indices([node as usize]),
                    BookingKind::Reservation,
                )
                .expect("outages on one node never overlap");
        }
    }

    proptest! {
        /// Incremental vs full-replan over random arrival/length/width
        /// interleavings, all three estimate regimes, both flavours, with
        /// and without an advance reservation in the way.
        #[test]
        fn planner_matches_full_replan_oracle(
            specs in prop::collection::vec((1usize..6, 1u64..40, 0u64..80), 1..30),
            factor_pick in 0usize..3,
            easy in any::<bool>(),
            with_resv in any::<bool>(),
            resv_spec in (0u64..50, 1u64..25, 1usize..3),
        ) {
            let m = 5;
            let jobs: Vec<Job> = specs.iter().enumerate()
                .map(|(i, &(q, len, rel))| {
                    Job::rigid(i as u64, q.min(m), Dur::from_ticks(len))
                        .released_at(Time::from_ticks(rel))
                })
                .collect();
            let mut ctx = online_ctx([1.0, 1.3, 2.0][factor_pick]);
            if with_resv {
                let (start, len, procs) = resv_spec;
                ctx.reservations.push(Reservation {
                    start: Time::from_ticks(start),
                    end: Time::from_ticks(start + len),
                    procs,
                });
            }
            let (policy, flavour) = backfill(easy);
            let fast = des_online(policy.as_ref(), &jobs, m, &ctx);
            let oracle = Box::new(FullReplanOracle::new(flavour, m, &ctx));
            let slow = finite_online(policy.as_ref(), &jobs, m, &ctx, &RELIABLE, oracle);
            prop_assert!(
                slow.replan_touched >= fast.replan_touched,
                "the oracle re-examines live work the planner skips"
            );
            prop_assert_eq!(
                fast.run.schedule.assignments(),
                slow.run.schedule.assignments(),
                "placements diverged"
            );
            prop_assert_eq!(&fast.records, &slow.records, "records diverged");
        }

        /// Failure-aware planner vs the naive kill-and-rerun oracle (full
        /// replan, no persistent state) over random failure interleavings:
        /// records, kill counts and waste accounting must all agree, under
        /// both recovery policies and all estimate regimes.
        #[test]
        fn volatile_planner_matches_kill_and_rerun_oracle(
            specs in prop::collection::vec((1usize..4, 1u64..40, 0u64..80), 1..20),
            raw_outages in prop::collection::vec((0u32..4, 0u64..150, 1u64..40), 0..10),
            factor_pick in 0usize..3,
            easy in any::<bool>(),
            checkpoint_ticks in 0u64..25,
        ) {
            let m = 4;
            let jobs: Vec<Job> = specs.iter().enumerate()
                .map(|(i, &(q, len, rel))| {
                    Job::rigid(i as u64, q.min(m), Dur::from_ticks(len))
                        .released_at(Time::from_ticks(rel))
                })
                .collect();
            // Raw draws → per-node non-overlapping outages: sort by
            // (node, start) and drop any outage starting inside its
            // predecessor's repair window.
            let mut sorted = raw_outages.clone();
            sorted.sort_by_key(|&(node, start, _)| (node, start));
            let mut outages: Vec<Outage> = Vec::new();
            let mut last_end = HashMap::new();
            for (node, start, len) in sorted {
                let start = Time::from_ticks(start);
                if last_end.get(&node).is_some_and(|&e| start < e) {
                    continue;
                }
                let end = start + Dur::from_ticks(len);
                last_end.insert(node, end);
                outages.push(Outage { node, start, end });
            }
            outages.sort_by_key(|o| (o.start, o.node));
            let plan = FailurePlan {
                outages,
                // 0 = resubmit-from-scratch; otherwise checkpoint every
                // `checkpoint_ticks` ticks.
                policy: match checkpoint_ticks {
                    0 => FailurePolicy::Resubmit,
                    t => FailurePolicy::Checkpoint { period_s: t as f64 / 1000.0 },
                },
            };
            let ctx = online_ctx([1.0, 1.3, 2.0][factor_pick]);
            let (policy, flavour) = backfill(easy);
            let policy = policy.as_ref();
            let fast = finite_online(
                policy, &jobs, m, &ctx, &plan, policy.incremental_planner(m, &ctx),
            );
            let oracle = Box::new(FullReplanOracle::new(flavour, m, &ctx));
            let slow = finite_online(policy, &jobs, m, &ctx, &plan, oracle);
            prop_assert!(
                slow.replan_touched >= fast.replan_touched,
                "the oracle re-examines live work the planner skips"
            );
            prop_assert_eq!(&fast.records, &slow.records, "records diverged");
            prop_assert_eq!(&fast.failures, &slow.failures, "failure accounting diverged");
            prop_assert_eq!(fast.records.len(), jobs.len(), "every job completes once");
            prop_assert!(fast.failures.goodput > 0.0 && fast.failures.goodput <= 1.0);
            // The final attempts form a valid schedule of the shapes they
            // ran: a checkpointed rerun is checked at its trimmed length.
            prop_assert_eq!(fast.run.validate(), Ok(()));
        }
    }

    /// A failure landing exactly on a commitment boundary: the job that
    /// ends at the failure instant has already completed (the NodeDown is
    /// seeded first and the FIFO tie-break fires it before the same-instant
    /// Finish, but `end == now` is not a victim), so nothing is killed,
    /// nothing double-killed, and no booking leaks — later work still plans
    /// cleanly around the outage window on both paths.
    #[test]
    fn failure_at_commitment_boundary_neither_double_kills_nor_leaks_a_booking() {
        use lsps_workload::{FailureRegime, ScriptedOutage};
        let jobs = vec![
            Job::rigid(0, 1, Dur::from_secs(10)),
            Job::rigid(1, 1, Dur::from_secs(2)).released_at(Time::from_secs(11)),
        ];
        let trace = FailureTraceSpec {
            regime: FailureRegime::Scripted {
                outages: vec![ScriptedOutage {
                    node: 0,
                    down_s: 10.0, // exactly job 0's completion instant
                    up_s: 15.0,
                }],
            },
            repair_s: lsps_workload::DistSpec::Fixed(1.0),
            horizon_s: 100.0,
        };
        let plan = FailurePlan {
            outages: trace.generate(1, &mut SimRng::seed_from(0)),
            policy: FailurePolicy::Resubmit,
        };
        let ctx = online_ctx(1.0);
        let policy = Backfilling::easy();
        let planners: [Box<dyn IncrementalPlanner>; 2] = [
            policy.incremental_planner(1, &ctx),
            Box::new(FullReplanOracle::new(BackfillPolicy::Easy, 1, &ctx)),
        ];
        for planner in planners {
            let out = finite_online(&policy, &jobs, 1, &ctx, &plan, planner);
            assert_eq!(out.failures.kills, 0, "boundary completion must survive");
            assert_eq!(out.failures.resubmits, 0);
            assert_eq!(out.failures.wasted_ticks, 0);
            assert_eq!(out.failures.goodput, 1.0);
            assert_eq!(out.records.len(), 2);
            assert_eq!(out.records[0].completion, Time::from_secs(10));
            // Job 1 arrives mid-outage: it must wait for the repair — the
            // outage window is booked, not leaked, on both paths.
            assert_eq!(out.records[1].start, Time::from_secs(15));
            assert_eq!(out.records[1].completion, Time::from_secs(17));
        }
    }

    /// Deterministic recovery accounting on one machine: a kill 4 s into a
    /// 10 s job wastes 4 s under resubmit, but only 1 s under 3 s
    /// checkpointing (the last completed checkpoint at 3 s survives).
    #[test]
    fn checkpoint_policy_trims_the_rerun_and_the_waste() {
        use lsps_workload::{FailureRegime, ScriptedOutage};
        let jobs = vec![Job::rigid(0, 1, Dur::from_secs(10))];
        let trace = FailureTraceSpec {
            regime: FailureRegime::Scripted {
                outages: vec![ScriptedOutage {
                    node: 0,
                    down_s: 4.0,
                    up_s: 6.0,
                }],
            },
            repair_s: lsps_workload::DistSpec::Fixed(1.0),
            horizon_s: 100.0,
        };
        let outages = trace.generate(1, &mut SimRng::seed_from(0));
        let ctx = online_ctx(1.0);
        let policy = Backfilling::conservative();
        let resubmit = finite_online(
            &policy,
            &jobs,
            1,
            &ctx,
            &FailurePlan {
                outages: outages.clone(),
                policy: FailurePolicy::Resubmit,
            },
            policy.incremental_planner(1, &ctx),
        );
        assert_eq!(resubmit.failures.kills, 1);
        assert_eq!(resubmit.failures.resubmits, 1);
        assert_eq!(resubmit.failures.wasted_ticks, Dur::from_secs(4).ticks());
        // Restart from scratch at repair: [6, 16).
        assert_eq!(resubmit.records[0].start, Time::from_secs(6));
        assert_eq!(resubmit.records[0].completion, Time::from_secs(16));
        let ckpt = finite_online(
            &policy,
            &jobs,
            1,
            &ctx,
            &FailurePlan {
                outages,
                policy: FailurePolicy::Checkpoint { period_s: 3.0 },
            },
            policy.incremental_planner(1, &ctx),
        );
        assert_eq!(ckpt.failures.kills, 1);
        // 4 s of work, checkpoint at 3 s → 1 s lost, 7 s left: [6, 13).
        assert_eq!(ckpt.failures.wasted_ticks, Dur::from_secs(1).ticks());
        assert_eq!(ckpt.records[0].start, Time::from_secs(6));
        assert_eq!(ckpt.records[0].completion, Time::from_secs(13));
        assert_eq!(ckpt.failures.interrupted_slowdown, Some(1.3));
        assert!(ckpt.failures.goodput > resubmit.failures.goodput);
        // Both final attempts validate: the checkpointed one against its
        // trimmed 7 s shape released at the kill.
        assert_eq!(resubmit.run.validate(), Ok(()));
        assert_eq!(ckpt.run.validate(), Ok(()));
        assert_eq!(ckpt.run.jobs[0].release, Time::from_secs(4));
    }

    fn sample_open_entry(rho: f64, stop: u64) -> OpenEntry {
        use lsps_metrics::WarmupSpec;
        use lsps_workload::{DistSpec, JobClass, OpenArrival, OpenStreamSpec};
        OpenEntry {
            stream: OpenStreamSpec {
                rho,
                arrival: OpenArrival::Poisson,
                classes: vec![
                    JobClass {
                        name: "narrow".into(),
                        mix: 3.0,
                        width: DistSpec::Fixed(1.0),
                        service_s: DistSpec::Exp(120.0),
                    },
                    JobClass {
                        name: "wide".into(),
                        mix: 1.0,
                        width: DistSpec::Uniform(2.0, 6.0),
                        service_s: DistSpec::Exp(300.0),
                    },
                ],
            },
            stop_completions: stop,
            horizon_s: None,
            warmup: WarmupSpec::Fraction(0.2),
            batches: 10,
        }
    }

    #[test]
    fn open_drive_hits_the_completion_target_in_bounded_memory() {
        let policy = lsps_core::policy::by_name("backfill-easy").unwrap();
        let ctx = PolicyCtx::default();
        let open = sample_open_entry(0.7, 600);
        let out = des_online_open(policy.as_ref(), &open, 16, &ctx, 11);
        assert_eq!(out.completions, 600);
        assert!(out.arrivals >= 600);
        assert_eq!(
            out.criteria.n, 600,
            "criteria fold every counted completion"
        );
        // The live-set high water tracks queue depth, not stream length.
        assert!(
            out.max_live < 600,
            "max_live {} ~ stream length",
            out.max_live
        );
        // Warmup applies before the class stats.
        assert_eq!(out.warmup_cut, 120);
        let n_post: usize = out.responses.iter().map(|r| r.n).sum();
        assert_eq!(n_post, 600 - out.warmup_cut);
        // Both classes completed, reported in index order with ordered
        // percentiles and slowdown ≥ 1 (a started job never beats its own
        // runtime).
        let classes: Vec<u32> = out.responses.iter().map(|r| r.class).collect();
        assert_eq!(classes, vec![0, 1]);
        for r in &out.responses {
            assert!(r.mean_flow_s > 0.0);
            assert!(r.p50_flow_s <= r.p95_flow_s && r.p95_flow_s <= r.p99_flow_s);
            assert!(r.max_slowdown >= 1.0);
        }
    }

    #[test]
    fn open_drive_is_bit_reproducible_per_seed() {
        let policy = lsps_core::policy::by_name("backfill-conservative").unwrap();
        let ctx = PolicyCtx::default();
        let open = sample_open_entry(0.8, 300);
        let a = des_online_open(policy.as_ref(), &open, 8, &ctx, 42);
        let b = des_online_open(policy.as_ref(), &open, 8, &ctx, 42);
        assert_eq!(a.criteria, b.criteria);
        assert_eq!(a.responses, b.responses);
        assert_eq!((a.arrivals, a.max_live), (b.arrivals, b.max_live));
        let c = des_online_open(policy.as_ref(), &open, 8, &ctx, 43);
        assert_ne!(
            a.criteria.mean_flow, c.criteria.mean_flow,
            "different seeds sample different paths"
        );
    }

    #[test]
    fn open_drive_horizon_drains_instead_of_hitting_the_target() {
        let policy = lsps_core::policy::by_name("backfill-easy").unwrap();
        let ctx = PolicyCtx::default();
        let mut open = sample_open_entry(0.5, 1_000_000);
        open.horizon_s = Some(4.0 * 3600.0);
        let out = des_online_open(policy.as_ref(), &open, 16, &ctx, 7);
        assert!(
            out.completions < 1_000_000,
            "four stream-hours cannot yield a million jobs"
        );
        // Everything admitted before the horizon drained to completion.
        assert_eq!(out.completions, out.arrivals);
    }

    /// The open and finite paths agree: a horizon-bounded open stream of
    /// rigid jobs, collected into a `Vec` and run through [`des_online`],
    /// completes every job exactly as the open drive does — and the open
    /// entry point folds exactly those completions.
    #[test]
    fn open_and_finite_paths_agree_on_a_collected_stream() {
        let ctx = PolicyCtx::default();
        let (m, seed) = (16, 5);
        let mut open = sample_open_entry(0.9, u64::MAX);
        open.horizon_s = Some(3.0 * 3600.0);
        let jobs: Vec<Job> = open_arrivals(&open, m, seed).map(|(_, j)| j).collect();
        assert!(jobs.len() > 100, "the horizon admits a real stream");
        for name in ["backfill-easy", "backfill-conservative"] {
            let policy = lsps_core::policy::by_name(name).unwrap();
            let policy = policy.as_ref();
            assert_eq!(policy.prepare(&jobs, m, &ctx).as_ref(), jobs.as_slice());
            let finite = des_online(policy, &jobs, m, &ctx);
            let mut streamed = Vec::new();
            drive(
                PolicyDispatch::new(
                    policy,
                    policy.incremental_planner(m, &ctx),
                    FailurePolicy::Resubmit,
                ),
                open_arrivals(&open, m, seed),
                &[],
                Stop::Completions(open.stop_completions),
                |c| streamed.push((c.job.id, c.start, c.end)),
            );
            let by_id: HashMap<JobId, &CompletedJob> =
                finite.records.iter().map(|r| (r.id, r)).collect();
            let in_stream_order: Vec<CompletedJob> =
                streamed.iter().map(|(id, ..)| by_id[id].clone()).collect();
            streamed.sort();
            let finite_done: Vec<(JobId, Time, Time)> = finite
                .records
                .iter()
                .map(|r| (r.id, r.start, r.completion))
                .collect();
            assert_eq!(streamed, finite_done, "{name}: completions diverged");
            let out = des_online_open(policy, &open, m, &ctx, seed);
            assert_eq!(out.completions, jobs.len() as u64, "{name}");
            assert_eq!(
                out.criteria,
                Criteria::evaluate(&in_stream_order),
                "{name}: the open fold saw other completions"
            );
        }
    }

    /// With exact estimates every completion lands exactly on its booking
    /// end, so each decision's dirty window is the new arrivals and
    /// nothing else: the planner must examine each job exactly once over
    /// the whole run — O(dirty), not O(pending) per event.
    #[test]
    fn planner_touches_each_job_once_with_exact_estimates() {
        let n = 400;
        let m = 64;
        let jobs = large_scale_instance(&mut SimRng::seed_from(3), n, m);
        let ctx = online_ctx(1.0);
        for policy in [Backfilling::conservative(), Backfilling::easy()] {
            let run = des_online(&policy, &jobs, m, &ctx);
            let touched = run.replan_touched;
            assert_eq!(
                touched,
                n as u64,
                "{}: planner touched {touched} jobs for {n} arrivals",
                policy.name()
            );
            assert_eq!(run.records.len(), n);
        }
    }

    /// A planner that defers every decision.
    struct Stalled;

    impl IncrementalPlanner for Stalled {
        fn plan(
            &mut self,
            _now: Time,
            _pending: &mut Vec<Job>,
            _out: &mut Vec<Commitment<Job, Placement>>,
        ) {
        }

        fn touched(&self) -> u64 {
            0
        }

        fn invalidate(&mut self, _id: BookingId) {
            unreachable!("a stalled planner books nothing")
        }

        fn add_outage(&mut self, _node: u32, _start: Time, _end: Time) {}
    }

    /// The drive has no event budget: a dispatcher that never commits
    /// still terminates, with the jobs left pending, and the drain check
    /// names them.
    #[test]
    #[should_panic(expected = "2 jobs never committed")]
    fn a_stalled_planner_fails_the_drain_check() {
        let jobs = vec![
            Job::rigid(0, 1, Dur::from_secs(1)),
            Job::rigid(1, 1, Dur::from_secs(1)).released_at(Time::from_secs(5)),
        ];
        let policy = Backfilling::easy();
        finite_online(
            &policy,
            &jobs,
            1,
            &online_ctx(1.0),
            &RELIABLE,
            Box::new(Stalled),
        );
    }

    /// Hands the policy's own planner only the lowest-id pending job, so
    /// each decision places some of the pending set and leaves the rest.
    struct LowestIdFirst<'a>(Box<dyn IncrementalPlanner + 'a>);

    impl IncrementalPlanner for LowestIdFirst<'_> {
        fn plan(
            &mut self,
            now: Time,
            pending: &mut Vec<Job>,
            out: &mut Vec<Commitment<Job, Placement>>,
        ) {
            let mut one = Vec::new();
            if let Some(at) = (0..pending.len()).min_by_key(|&i| pending[i].id) {
                one.push(pending.remove(at));
            }
            self.0.plan(now, &mut one, out);
            // A job the inner planner deferred waits with the rest.
            pending.append(&mut one);
        }

        fn touched(&self) -> u64 {
            self.0.touched()
        }

        fn invalidate(&mut self, id: BookingId) {
            self.0.invalidate(id)
        }

        fn add_outage(&mut self, node: u32, start: Time, end: Time) {
            self.0.add_outage(node, start, end)
        }
    }

    /// A decision may place some pending jobs and leave the rest: three
    /// 1-processor jobs arrive together on 4 idle processors, but a
    /// planner that places one job per decision runs them back to back,
    /// each starting when its predecessor completes (the completion is
    /// the next decision instant).
    #[test]
    fn a_planner_that_places_some_jobs_leaves_the_rest_pending() {
        let jobs = vec![
            Job::rigid(0, 1, Dur::from_secs(10)),
            Job::rigid(1, 1, Dur::from_secs(5)),
            Job::rigid(2, 1, Dur::from_secs(7)),
        ];
        let ctx = online_ctx(1.0);
        for name in ["backfill-easy", "backfill-conservative", "list-fcfs"] {
            let policy = lsps_core::policy::by_name(name).unwrap();
            let policy = policy.as_ref();
            let planner = Box::new(LowestIdFirst(policy.incremental_planner(4, &ctx)));
            let out = finite_online(policy, &jobs, 4, &ctx, &RELIABLE, planner);
            let spans: Vec<(u64, Time, Time)> = out
                .records
                .iter()
                .map(|r| (r.id.0, r.start, r.completion))
                .collect();
            let s = Time::from_secs;
            assert_eq!(
                spans,
                [(0, s(0), s(10)), (1, s(10), s(15)), (2, s(15), s(22))],
                "{name}"
            );
            assert_eq!(out.run.validate(), Ok(()), "{name}");
        }
    }
}
