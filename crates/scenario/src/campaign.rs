//! Campaign execution: expand a [`CampaignSpec`] into cells, skip the
//! cached ones, run the rest, aggregate replications.
//!
//! The canonical cell order is executor-major, then platform → failure
//! entry → workload entry → replication → policy. The cache never
//! affects ordering — a warm, partially warm or cold run emits exactly the
//! same bytes — so interrupting a campaign and re-running it *is* resume.
//!
//! The expansion itself is a first-class surface: [`CampaignPlan`] holds
//! the canonical cell list with each cell's content-addressed cache key
//! and runs any single cell in isolation ([`CampaignPlan::run_cell`]),
//! byte-identical to its place in a full [`run_campaign`]. Every cell,
//! whatever its workload source, executor or failure entry, becomes a
//! [`Cell`] through one private function of the plan. The
//! `lsps-campaignd` daemon plans campaigns and shards cells over worker
//! processes through exactly this surface, and `lsps-campaign --dry-run`
//! prints it.
//!
//! Expansion is also the spec's only check. [`CampaignPlan::expand`]
//! walks each axis once, resolves every policy, family and trace file
//! once, and checks each workload source where it resolves against one
//! job-count and job-time rule. Every problem lands in one [`SpecError`];
//! a plan exists only for a spec with none.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

use lsps_core::backfill::MAX_ESTIMATE_FACTOR;
use lsps_core::outcome::{Outcome, OutcomeKind};
use lsps_core::policy::{by_name, Knowledge, Policy, ReleaseMode};
use lsps_des::{Dur, SimRng, TICKS_PER_SEC};
use lsps_metrics::{
    cmax_lower_bound, csum_lower_bound, uniform_cmax_lower_bound, uniform_csum_lower_bound,
    uniform_wsum_lower_bound, wsum_lower_bound, Criteria, Summary, WarmupSpec,
};
use lsps_workload::{ArrivalSpec, DistSpec, Job, JobKind, WorkloadSpec};
use serde::{Serialize, Value};

use crate::cache::{CellCache, CACHE_VERSION};
use crate::families::{builtin_family, FamilyGen};
use crate::pool::pool_map;
use crate::runner::{
    des_online_open, des_replay, finite_online, open_arrivals, to_csv, Cell, Executor, FailurePlan,
};
use crate::spec::{
    fnv64, splitmix64, CampaignSpec, FailureEntry, OpenEntry, SpecError, WorkloadEntry,
    WorkloadSource,
};

// Size and time bounds on what a spec may ask for. A spec crosses a trust
// boundary (campaignd takes it over HTTP), so an absurd size must fail
// expansion instead of aborting the process on allocation. Each bound
// sits far above every checked-in spec, built-in campaign and benchmark
// spec, whose largest have 1 024 cells, m = 2 048 and n = 100 000.

/// Largest grid a spec may expand into (cells are planned in memory).
const MAX_CELLS: usize = 100_000;

/// Largest platform a spec may name, in processors.
const MAX_PROCS: usize = 65_536;

/// Largest job count of one workload entry: `Family` `n`, `Spec` `n_jobs`,
/// a trace's job list, and an open entry's `stop_completions` (its drive
/// keeps one response observation per counted completion).
const MAX_JOBS: u64 = 10_000_000;

/// Latest release and longest runtime a job entering a campaign may have,
/// in seconds (about 317 years). At the bound a booking ends by
/// `release + ⌈runtime × MAX_ESTIMATE_FACTOR⌉` ≈ 1.0e16 ticks, 1 800×
/// inside the `u64` tick axis, so time arithmetic on such jobs cannot
/// wrap.
const MAX_JOB_TIME_S: f64 = 1e10;

/// Largest value `dist` can draw, in its own unit. `SimRng` draws its
/// uniforms on a 2^-53 grid, so an exponential draw `-mean·ln(1 - u)` never
/// exceeds 53·ln 2 ≈ 36.7 means.
fn reach(dist: &DistSpec) -> f64 {
    match *dist {
        DistSpec::Fixed(v) => v,
        DistSpec::Uniform(_, hi)
        | DistSpec::LogUniform(_, hi)
        | DistSpec::BoundedPareto(_, _, hi) => hi,
        DistSpec::Exp(mean) => mean * 53.0 * std::f64::consts::LN_2,
    }
}

/// Latest release `n` arrivals can draw, in seconds: `n` inter-arrival
/// gaps, each within the exponential reach of the mean gap. Thinning can
/// stretch a daily cycle past that, but only with vanishing probability,
/// and the margin of [`MAX_JOB_TIME_S`] to the tick axis absorbs it.
fn release_reach(n: u64, mean_gap_s: f64) -> f64 {
    n as f64 * reach(&DistSpec::Exp(mean_gap_s))
}

/// The job-count and job-time rule every workload source answers to:
/// `count` is the field that sets how many jobs the entry holds, and each
/// of `times` names a quantity with the latest value it can draw.
fn check_jobs(
    problems: &mut Vec<String>,
    (field, n): (&str, u64),
    times: impl IntoIterator<Item = (String, f64)>,
) {
    if n > MAX_JOBS {
        problems.push(format!("`{field}` = {n} is above the {MAX_JOBS}-job bound"));
    }
    for (what, at) in times {
        if at > MAX_JOB_TIME_S {
            problems.push(format!(
                "{what} can draw {at:e} s, past the {MAX_JOB_TIME_S:e} s job-time bound"
            ));
        }
    }
}

/// How a campaign runs: where the cache lives, how wide the pool is, and
/// what relative trace paths resolve against.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Cell-cache directory; `None` disables caching (every cell runs).
    pub cache_dir: Option<PathBuf>,
    /// Worker-pool size (`0` = one thread per core).
    pub threads: usize,
    /// Base directory for relative trace-file paths (usually the spec
    /// file's directory); `None` resolves against the current directory.
    pub base_dir: Option<PathBuf>,
}

/// Everything a campaign run produced.
pub struct CampaignReport {
    /// Every cell, in canonical order.
    pub cells: Vec<Cell>,
    /// The raw per-cell CSV (standard runner schema).
    pub raw_csv: String,
    /// Replications aggregated per (policy, executor, workload, platform).
    pub aggregate_csv: String,
    /// Total cell count.
    pub total: usize,
    /// Cells served from the cache.
    pub cache_hits: usize,
}

impl CampaignReport {
    /// Cache-hit rate in percent (100 when there was nothing to run).
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            100.0 * self.cache_hits as f64 / self.total as f64
        }
    }
}

/// Why a campaign could not run.
#[derive(Debug)]
pub enum CampaignError {
    /// The spec is invalid: every problem [`CampaignPlan::expand`] found,
    /// trace files included.
    Spec(SpecError),
    /// The cache directory could not be created.
    Cache(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => e.fmt(f),
            CampaignError::Cache(e) => write!(f, "cache: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecError> for CampaignError {
    fn from(e: SpecError) -> CampaignError {
        CampaignError::Spec(e)
    }
}

/// Where one workload entry's jobs come from, resolved once at expansion.
/// Nothing is generated there: a synthetic entry keeps its generator and
/// runs it per (seed, m) when a cell needs the jobs.
enum EntryGen {
    /// A synthetic generator spec.
    Spec(WorkloadSpec),
    /// A built-in family, resolved by name.
    Family(FamilyGen),
    /// A parsed SWF/JSONL trace: every replication runs these jobs, and
    /// every cell borrows them.
    Trace(Vec<Job>),
    /// An open stream, drawn lazily by each cell's drive.
    Open(OpenEntry),
}

/// A workload entry expanded to its replication seeds, its generator and
/// the canonical source value that goes into cell keys (trace files by
/// content hash). Trace files are read and parsed exactly once, here —
/// every cell of the entry (and fully-warm runs) shares the parsed job
/// list instead of re-reading an immutable file.
struct ExpandedEntry {
    seeds: Vec<u64>,
    canonical_source: Value,
    gen: EntryGen,
}

fn resolve_path(base: &Option<PathBuf>, path: &str) -> PathBuf {
    let p = Path::new(path);
    match base {
        Some(dir) if p.is_relative() => dir.join(p),
        _ => p.to_path_buf(),
    }
}

/// Resolve one workload entry and check it where it resolves: its source's
/// own rules, the job bounds, trace widths against the platforms, and
/// whether an open horizon admits an arrival. The problems come back
/// without the entry's name, which the caller prefixes.
fn expand_entry(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
    entry: &WorkloadEntry,
    seeds: Vec<u64>,
) -> Result<ExpandedEntry, Vec<String>> {
    let mut problems = Vec::new();
    let mut canonical_source = None;
    let gen = match &entry.source {
        WorkloadSource::Spec(ws) => {
            problems.extend(ws.validate());
            let arrivals = match ws.arrival {
                ArrivalSpec::AllAtZero => 0.0,
                ArrivalSpec::Poisson {
                    mean_interarrival_s,
                }
                | ArrivalSpec::DailyCycle {
                    mean_interarrival_s,
                    ..
                } => release_reach(ws.n_jobs as u64, mean_interarrival_s),
            };
            check_jobs(
                &mut problems,
                ("n_jobs", ws.n_jobs as u64),
                [
                    ("`work_s`".into(), reach(&ws.work_s)),
                    ("`arrival`".into(), arrivals),
                ],
            );
            EntryGen::Spec(ws.clone())
        }
        WorkloadSource::Family { family, n } => {
            check_jobs(&mut problems, ("n", *n as u64), []);
            let Some(gen) = builtin_family(family, *n) else {
                problems.push(format!("unknown family `{family}`"));
                return Err(problems);
            };
            EntryGen::Family(gen)
        }
        WorkloadSource::SwfFile(path) | WorkloadSource::JsonlFile(path) => {
            let resolved = resolve_path(&opts.base_dir, path);
            let text = std::fs::read_to_string(&resolved)
                .map_err(|e| vec![format!("{}: {e}", resolved.display())])?;
            let (tag, jobs) = match &entry.source {
                WorkloadSource::SwfFile(_) => ("SwfFile", lsps_workload::swf::from_swf(&text)),
                _ => ("JsonlFile", lsps_workload::swf::from_jsonl(&text)),
            };
            let jobs = jobs.map_err(|e| vec![e.to_string()])?;
            // A job released or running past the job-time bound would wrap
            // the tick axis, and one wider than some platform could never
            // start: every policy would panic on either inside a worker. A
            // moldable job runs longest on one processor (time monotony).
            check_jobs(&mut problems, ("jobs", jobs.len() as u64), []);
            let time_bound = Dur::from_secs_f64(MAX_JOB_TIME_S);
            let runtime = |j: &Job| match j.kind {
                JobKind::Rigid { len, .. } => len,
                _ => j.seq_time(),
            };
            if let Some(j) = jobs
                .iter()
                .find(|j| j.release.since_epoch() > time_bound || runtime(j) > time_bound)
            {
                problems.push(format!(
                    "job {} is released at {:e} s and runs {:e} s; both must stay \
                     within the {MAX_JOB_TIME_S:e} s job-time bound",
                    j.id,
                    j.release.as_secs_f64(),
                    runtime(j).as_secs_f64()
                ));
            }
            if let Some(widest) = jobs.iter().max_by_key(|j| j.min_procs()) {
                for p in spec.platforms.iter().filter(|p| widest.min_procs() > p.m) {
                    problems.push(format!(
                        "job {} needs {} processors, wider than platform `{}` (m = {})",
                        widest.id,
                        widest.min_procs(),
                        p.name,
                        p.m
                    ));
                }
            }
            // Trace files are keyed by *content*: replacing the file
            // invalidates its cells even though the path is unchanged.
            canonical_source = Some(Value::Map(vec![(
                tag.into(),
                Value::Map(vec![
                    ("path".into(), path.to_value()),
                    (
                        "content_fnv".into(),
                        format!("{:016x}", fnv64(text.as_bytes())).to_value(),
                    ),
                ]),
            )]));
            EntryGen::Trace(jobs)
        }
        WorkloadSource::Open(open) => {
            problems.extend(open.stream.validate());
            if open.stop_completions == 0 {
                problems.push("`stop_completions` must be >= 1".into());
            }
            if open.batches < 2 {
                problems.push("`batches` must be >= 2".into());
            }
            if let Some(h) = open.horizon_s {
                if !(h > 0.0 && h.is_finite()) {
                    problems.push("`horizon_s` must be positive and finite".into());
                }
            }
            if let WarmupSpec::Fraction(f) = open.warmup {
                if !(0.0..1.0).contains(&f) {
                    problems.push("warmup fraction must be in [0, 1)".into());
                }
            }
            // A service draw rounds up to one tick, so a class whose mean
            // service is shorter offers more load than `rho` says: at the
            // extreme, unboundedly many arrivals per tick.
            let tick_s = 1.0 / TICKS_PER_SEC as f64;
            for c in &open.stream.classes {
                let mean = c.service_s.mean();
                if mean > 0.0 && mean < tick_s {
                    problems.push(format!(
                        "class `{}`: mean service {mean:e} s is below one tick ({tick_s} s)",
                        c.name
                    ));
                }
            }
            // The drive counts `stop_completions` jobs, released at gaps
            // that are widest on the smallest platform; platforms out of
            // bounds fail their own check.
            let services = open.stream.classes.iter().map(|c| {
                (
                    format!("class `{}`: `service_s`", c.name),
                    reach(&c.service_s),
                )
            });
            let arrivals = (spec.platforms.iter().map(|p| p.m))
                .filter(|m| (1..=MAX_PROCS).contains(m))
                .min()
                .map(|m| {
                    let gap_s = open.stream.mean_interarrival_s(m);
                    (
                        "`arrival`".into(),
                        release_reach(open.stop_completions, gap_s),
                    )
                });
            check_jobs(
                &mut problems,
                ("stop_completions", open.stop_completions),
                services.chain(arrivals),
            );
            // A cell whose horizon admits no arrival would drive nothing.
            // Drawing each cell's first arrival is O(1), but it samples the
            // stream, so it waits for an otherwise sound entry and skips
            // platforms that failed their own checks.
            if let (Some(h), true) = (open.horizon_s, problems.is_empty()) {
                let empty = spec
                    .platforms
                    .iter()
                    .filter(|p| (1..=MAX_PROCS).contains(&p.m))
                    .flat_map(|p| seeds.iter().map(move |&seed| (p, seed)))
                    .find(|&(p, seed)| open_arrivals(open, p.m, seed).next().is_none());
                if let Some((p, seed)) = empty {
                    problems.push(format!(
                        "`horizon_s` {h} admits no arrival (platform `{}`, seed {seed})",
                        p.name
                    ));
                }
            }
            EntryGen::Open(open.clone())
        }
    };
    if !problems.is_empty() {
        return Err(problems);
    }
    Ok(ExpandedEntry {
        seeds,
        canonical_source: canonical_source.unwrap_or_else(|| entry.source.to_value()),
        gen,
    })
}

/// The key preimage of one cell: everything its outcome depends on, as
/// canonical compact JSON. One argument per cell-grid axis, by design.
#[allow(clippy::too_many_arguments)]
fn cell_key(
    spec: &CampaignSpec,
    executor: crate::runner::Executor,
    platform_idx: usize,
    policy_idx: usize,
    entry: &ExpandedEntry,
    entry_name: &str,
    seed: u64,
    failure: &FailureEntry,
) -> String {
    let plat = &spec.platforms[platform_idx];
    let mut key = vec![
        ("v".into(), Value::UInt(CACHE_VERSION as u64)),
        ("policy".into(), spec.policies[policy_idx].to_value()),
        ("executor".into(), executor.name().to_value()),
        ("platform".into(), plat.to_value()),
        ("workload".into(), entry_name.to_value()),
        ("seed".into(), Value::UInt(seed)),
        ("source".into(), entry.canonical_source.clone()),
        ("ctx".into(), spec.ctx.to_value()),
    ];
    // Reliable entries carry no key field: the key text of a cell without
    // failures is exactly what it was before the axis existed.
    if failure.trace.is_some() {
        key.push(("failures".into(), failure.to_value()));
    }
    serde_json::to_string(&Value::Map(key)).expect("keys serialize")
}

/// One cell of an expanded campaign: the grid coordinates that determine
/// its outcome plus its content-addressed cache key. Cells live in the
/// canonical campaign order (executor-major, then platform → failure
/// entry → workload entry → replication → policy), and the index of a cell in
/// [`CampaignPlan::cells`] is its stable identity for sharded execution —
/// the daemon ships `(campaign, cell index)` pairs to workers and both
/// sides agree on what the index means because both expanded the same
/// spec.
#[derive(Clone, Debug)]
pub struct PlannedCell {
    /// Executor the cell runs under.
    pub executor: Executor,
    /// Index into [`CampaignSpec::platforms`].
    pub platform: usize,
    /// Index into [`CampaignSpec::failures`] (0 when the spec has no
    /// `failures` block — the implicit reliable entry).
    pub failure: usize,
    /// Index into [`CampaignSpec::policies`].
    pub policy: usize,
    /// Index into [`CampaignSpec::workloads`].
    pub entry: usize,
    /// Replication seed.
    pub seed: u64,
    /// The cell's content-addressed cache key preimage (canonical JSON) —
    /// also the dedup/resume token the service tier shards on.
    pub key: String,
}

/// A validated, fully expanded campaign: the spec, its resolved policies,
/// each workload entry's generator (trace content read once, keyed by
/// hash), and every cell in canonical order with its cache key. A plan is
/// the only proof that a spec is valid: [`CampaignPlan::expand`] is its
/// only constructor. This is the library surface shared by
/// [`run_campaign`], the `lsps-campaign --dry-run` breakdown, and the
/// `lsps-campaignd` / `lsps-worker` service tier: the daemon plans, probes
/// the cache and shards cell indices; each worker re-expands the same spec
/// and runs single cells via [`CampaignPlan::run_cell`].
pub struct CampaignPlan {
    spec: CampaignSpec,
    policies: Vec<Box<dyn Policy>>,
    expanded: Vec<ExpandedEntry>,
    cells: Vec<PlannedCell>,
}

impl CampaignPlan {
    /// Validate `spec` and expand it into the canonical cell list: the one
    /// check a spec gets. One pass over each axis resolves every policy and
    /// family name once and reads every trace file once, checking each
    /// source where it resolves. Beyond JSON shape that means non-empty
    /// axes, resolvable names, the size and time bounds, and executor /
    /// platform × policy *capability compatibility* — the DES executors
    /// and speeded platforms only accept the policies that can honour them.
    /// Every problem is collected into one [`SpecError`] (joined with
    /// `; `), so a sweep with three typos fails with three messages up
    /// front instead of panicking mid-run on the first.
    pub fn expand(
        spec: &CampaignSpec,
        opts: &CampaignOptions,
    ) -> Result<CampaignPlan, CampaignError> {
        let mut problems: Vec<String> = Vec::new();
        if spec.name.is_empty() {
            problems.push("empty campaign name".into());
        }
        for (what, empty) in [
            ("policies", spec.policies.is_empty()),
            ("executors", spec.executors.is_empty()),
            ("platforms", spec.platforms.is_empty()),
            ("workloads", spec.workloads.is_empty()),
        ] {
            if empty {
                problems.push(format!("`{what}` must be non-empty"));
            }
        }
        let volatile = spec.is_volatile();
        let mut seen_policies = HashSet::new();
        let mut policies = Vec::with_capacity(spec.policies.len());
        for p in &spec.policies {
            if !seen_policies.insert(p.as_str()) {
                problems.push(format!("duplicate policy `{p}`"));
            }
            let Some(policy) = by_name(p) else {
                problems.push(format!("unknown policy `{p}` (not in the registry)"));
                continue;
            };
            // Capability compatibility, checked before any cell runs: the
            // DES executors replay/drive rectangles only, a speeded
            // platform needs a uniform-capable policy, and a volatile axis
            // a hole-filling one (it plans around outage windows).
            let kind = policy.outcome_kind();
            for &e in &spec.executors {
                if !e.supports(kind) {
                    problems.push(format!(
                        "policy `{p}` produces `{kind}` outcomes, which executor \
                         `{e}` cannot replay or drive (use `direct`)"
                    ));
                }
            }
            if kind != OutcomeKind::Uniform {
                for plat in spec.platforms.iter().filter(|pl| pl.speeds.is_some()) {
                    problems.push(format!(
                        "platform `{}` has per-processor speeds, which policy \
                         `{p}` (outcome `{kind}`) cannot honour — uniform-capable \
                         policies only",
                        plat.name
                    ));
                }
            }
            if volatile && !policy.supports_pinned() {
                problems.push(format!(
                    "policy `{p}` cannot plan around outage windows \
                     (hole-filling policies only under a volatile `failures` axis)"
                ));
            }
            policies.push(policy);
        }
        let mut seen_executors = HashSet::new();
        for e in &spec.executors {
            if !seen_executors.insert(e.name()) {
                problems.push(format!("duplicate executor `{e}`"));
            }
        }
        // Workload entries may share a name (explicit per-seed entries of
        // one family group under it), but platforms group the aggregate by
        // name alone — two different machines under one name would silently
        // pool into one row.
        let mut seen_platforms = HashSet::new();
        for plat in &spec.platforms {
            if plat.m == 0 {
                problems.push(format!("platform `{}` has m = 0", plat.name));
            }
            if plat.m > MAX_PROCS {
                problems.push(format!(
                    "platform `{}` has m = {}, above the {MAX_PROCS}-processor bound",
                    plat.name, plat.m
                ));
            }
            if !seen_platforms.insert(plat.name.as_str()) {
                problems.push(format!("duplicate platform name `{}`", plat.name));
            }
            if let Some(speeds) = &plat.speeds {
                if speeds.len() != plat.m {
                    problems.push(format!(
                        "platform `{}`: {} speeds for m = {}",
                        plat.name,
                        speeds.len(),
                        plat.m
                    ));
                }
                if !speeds.iter().all(|&s| s > 0.0 && s.is_finite()) {
                    problems.push(format!(
                        "platform `{}`: speeds must be positive and finite",
                        plat.name
                    ));
                }
            }
        }
        // Seeds are built only for a grid within the cell bound. An empty
        // axis makes the cell count 0, so the rep count is the guard.
        let reps_ok = spec.workload_reps() <= MAX_CELLS;
        let mut expanded = Vec::with_capacity(spec.workloads.len());
        for w in &spec.workloads {
            let seeds = if reps_ok {
                spec.replication.seeds_for(w)
            } else {
                Vec::new()
            };
            match expand_entry(spec, opts, w, seeds) {
                Ok(exp) => expanded.push(exp),
                Err(ps) => {
                    problems.extend(ps.iter().map(|p| format!("workload `{}`: {p}", w.name)))
                }
            }
        }
        // Open (steady-state) entries change the execution model — the
        // campaign drives a stream with a stopping rule instead of running
        // a job list to completion — so they demand a uniform campaign:
        // every entry open, exactly the des-online executor, honest online
        // releases.
        let n_open = spec
            .workloads
            .iter()
            .filter(|w| matches!(w.source, WorkloadSource::Open(_)))
            .count();
        if n_open > 0 {
            if n_open != spec.workloads.len() {
                problems.push(
                    "open-arrival entries cannot mix with finite workload entries \
                     in one campaign"
                        .into(),
                );
            }
            if spec.executors != vec![Executor::DesOnline] {
                problems.push(
                    "open-arrival workloads run under exactly `[\"des-online\"]` executors".into(),
                );
            }
            if spec.ctx.release_mode != ReleaseMode::Online {
                problems.push(
                    "open-arrival workloads require `ctx.release_mode: \"online\"` \
                     (offline would collapse the stream to one batch)"
                        .into(),
                );
            }
        }
        if spec.failures.is_empty() {
            problems.push(
                "`failures` must be non-empty (omit the block for the reliable default)".into(),
            );
        }
        let mut seen_failures = HashSet::new();
        for f in &spec.failures {
            if !seen_failures.insert(f.name.as_str()) {
                problems.push(format!("duplicate failure entry name `{}`", f.name));
            }
            let Some(trace) = &f.trace else { continue };
            for p in trace.validate().into_iter().chain(f.policy.validate()) {
                problems.push(format!("failure entry `{}`: {p}", f.name));
            }
            if let Some(max_node) = trace.max_node() {
                for plat in spec.platforms.iter().filter(|pl| max_node as usize >= pl.m) {
                    problems.push(format!(
                        "failure entry `{}` scripts node {max_node}, but platform \
                         `{}` only has m = {}",
                        f.name, plat.name, plat.m
                    ));
                }
            }
        }
        // A volatile axis changes the execution model the same way open
        // entries do: cells must be *driven* (kills happen mid-flight), so
        // the campaign has to be uniformly des-online with honest releases,
        // hole-filling policies (checked with the policies above),
        // identical machines, and finite workloads.
        if volatile {
            if spec.executors != vec![Executor::DesOnline] {
                problems.push(
                    "a volatile `failures` axis runs under exactly `[\"des-online\"]` executors"
                        .into(),
                );
            }
            if spec.ctx.release_mode != ReleaseMode::Online {
                problems.push(
                    "a volatile `failures` axis requires `ctx.release_mode: \"online\"`".into(),
                );
            }
            for plat in spec.platforms.iter().filter(|pl| pl.speeds.is_some()) {
                problems.push(format!(
                    "platform `{}` has per-processor speeds, which the volatile \
                     executor does not model",
                    plat.name
                ));
            }
            if n_open > 0 {
                problems.push(
                    "open-arrival workloads cannot combine with a volatile `failures` axis".into(),
                );
            }
        }
        if spec.replication.replications == 0 {
            problems.push("`replication.replications` must be >= 1".into());
        }
        if spec.cell_count() > MAX_CELLS {
            problems.push(format!(
                "the grid has {} cells, above the {MAX_CELLS}-cell bound \
                 (check `replication.replications` and the axes)",
                spec.cell_count()
            ));
        }
        if !(1.0..=MAX_ESTIMATE_FACTOR).contains(&spec.ctx.estimate_factor) {
            problems.push(format!(
                "`ctx.estimate_factor` must lie in [1, {MAX_ESTIMATE_FACTOR}]"
            ));
        }
        if let Knowledge::NonClairvoyant { initial_estimate } = spec.ctx.knowledge {
            if initial_estimate.is_zero() {
                problems.push("`ctx.initial_estimate_s` must be positive".into());
            }
        }
        if !problems.is_empty() {
            return Err(SpecError(problems.join("; ")).into());
        }
        let mut cells = Vec::with_capacity(spec.cell_count());
        for &executor in &spec.executors {
            for pi in 0..spec.platforms.len() {
                for fi in 0..spec.failures.len() {
                    for (ei, exp) in expanded.iter().enumerate() {
                        for &seed in &exp.seeds {
                            for ki in 0..spec.policies.len() {
                                cells.push(PlannedCell {
                                    executor,
                                    platform: pi,
                                    failure: fi,
                                    policy: ki,
                                    entry: ei,
                                    seed,
                                    key: cell_key(
                                        spec,
                                        executor,
                                        pi,
                                        ki,
                                        exp,
                                        &spec.workloads[ei].name,
                                        seed,
                                        &spec.failures[fi],
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(CampaignPlan {
            spec: spec.clone(),
            policies,
            expanded,
            cells,
        })
    }

    /// The validated spec the plan was expanded from.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Every cell, in canonical order.
    pub fn cells(&self) -> &[PlannedCell] {
        &self.cells
    }

    /// The spec as canonical compact JSON — the content the service tier
    /// derives campaign ids from and journals for restart resume. Two
    /// spellings of the same spec (key order, layered defaults) canonicalize
    /// to the same bytes.
    pub fn canonical_spec_json(&self) -> String {
        serde_json::to_string(&self.spec).expect("specs serialize")
    }

    /// Run one cell by canonical index, in isolation: the single-cell entry
    /// point workers execute. Generates only this cell's workload, and is
    /// byte-identical to the same cell's outcome inside a full
    /// [`run_campaign`].
    pub fn run_cell(&self, idx: usize) -> Cell {
        self.run_cells(&[idx], 1)
            .pop()
            .expect("one index yields one cell")
    }

    /// Run the cells at the given canonical indices across a worker pool of
    /// `threads`, returning cells aligned with `indices`. Results are
    /// slot-indexed, so the output is byte-identical whatever the thread
    /// count and whichever subset runs.
    pub fn run_cells(&self, indices: &[usize], threads: usize) -> Vec<Cell> {
        // Each distinct (entry, seed, m) workload is generated once, on the
        // calling thread, and shared by every cell that runs it; the
        // workers stay pure functions of their cell.
        let m_of = |c: &PlannedCell| self.spec.platforms[c.platform].m;
        let mut workloads = HashMap::new();
        for &idx in indices {
            let c = &self.cells[idx];
            workloads
                .entry((c.entry, c.seed, m_of(c)))
                .or_insert_with(|| self.workload(c.entry, c.seed, m_of(c)));
        }
        pool_map(threads, indices.len(), |i| {
            let c = &self.cells[indices[i]];
            self.execute(c, &workloads[&(c.entry, c.seed, m_of(c))])
        })
    }

    /// The jobs of one replication of workload entry `entry` on `m`
    /// processors: generated from a fresh RNG seeded with `seed` — a pure
    /// function of (entry, seed, m) — or borrowed from the parsed trace.
    /// Empty for an open entry, whose drive draws its stream itself.
    fn workload(&self, entry: usize, seed: u64, m: usize) -> Cow<'_, [Job]> {
        let mut rng = SimRng::seed_from(seed);
        match &self.expanded[entry].gen {
            EntryGen::Spec(ws) => Cow::Owned(ws.generate(m, &mut rng)),
            EntryGen::Family(family) => Cow::Owned(family(m, &mut rng)),
            EntryGen::Trace(jobs) => Cow::Borrowed(jobs),
            EntryGen::Open(_) => Cow::Borrowed(&[]),
        }
    }

    /// The one path from a planned cell to its [`Cell`]. The workload
    /// source, executor and failure entry pick the drive: an open entry
    /// runs its stream through [`des_online_open`]; `des-online` drives
    /// `jobs` through the finite online driver behind
    /// [`des_online`](crate::runner::des_online), on the failure entry's
    /// outages (none for a reliable entry); `direct` and `des-replay`
    /// batch-schedule once. Every finite schedule is validated — on a
    /// failing platform, its final attempts — so a policy bug fails loudly
    /// instead of producing flattering numbers.
    fn execute(&self, c: &PlannedCell, jobs: &[Job]) -> Cell {
        let policy = self.policies[c.policy].as_ref();
        let workload = &self.spec.workloads[c.entry].name;
        let plat = &self.spec.platforms[c.platform];
        let failure = &self.spec.failures[c.failure];
        let m = plat.m;
        // Volatile entries suffix the platform's display name, so CSV rows
        // group per failure regime.
        let platform = match &failure.trace {
            Some(_) => format!("{}+{}", plat.name, failure.name),
            None => plat.name.clone(),
        };
        // Per-cell context: a speeded platform injects its machine model.
        let mut ctx = self.spec.ctx.to_policy_ctx();
        if let Some(speeds) = &plat.speeds {
            ctx.speeds = speeds.clone();
        }
        // `expand` has matched executor, platform and failure entry to the
        // policy, and a plan has no other constructor.
        let cell_id = || {
            format!(
                "{} on {workload}/{} (m={m}, {})",
                policy.name(),
                c.seed,
                c.executor.name()
            )
        };
        // Every finite drive yields the as-scheduled jobs (for the bounds)
        // and the completion records; the batch executors also yield their
        // outcome, whose machine model and trial counters feed the columns
        // below, and a volatile platform its failure accounting.
        let mut failures = None;
        let gen = &self.expanded[c.entry].gen;
        let (scheduled, mut records, outcome) = match (gen, c.executor, &failure.trace) {
            (EntryGen::Open(open), ..) => {
                let out = des_online_open(policy, open, m, &ctx, c.seed);
                return Cell {
                    policy: policy.name().to_string(),
                    executor: c.executor.name().to_string(),
                    workload: workload.clone(),
                    seed: c.seed,
                    platform,
                    m,
                    n: out.completions as usize,
                    utilization: out.criteria.utilization(m),
                    // An open stream has no finite instance to lower-bound,
                    // so the ratio columns carry a finite 0 sentinel
                    // (aggregate-safe).
                    cmax_ratio: 0.0,
                    csum_ratio: 0.0,
                    wsum_ratio: 0.0,
                    criteria: out.criteria,
                    trials: None,
                    kills: None,
                    wasted_ticks: None,
                    class_names: Some(open.stream.classes.iter().map(|k| k.name.clone()).collect()),
                    responses: Some(out.responses),
                    failures: None,
                };
            }
            (_, Executor::DesOnline, trace) => {
                // Failure realization: a pure function of (platform display
                // name, workload seed), so replications resample the failure
                // trace along with the workload. A reliable entry has no
                // outages.
                let trace_seed = splitmix64(c.seed ^ fnv64(platform.as_bytes()));
                let plan = FailurePlan {
                    outages: trace.as_ref().map_or_else(Vec::new, |t| {
                        t.generate(m, &mut SimRng::seed_from(trace_seed))
                    }),
                    policy: failure.policy,
                };
                let planner = policy.incremental_planner(m, &ctx);
                let online = finite_online(policy, jobs, m, &ctx, &plan, planner);
                online
                    .run
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", cell_id()));
                failures = trace.is_some().then_some(online.failures);
                (online.jobs, online.records, None)
            }
            _ => {
                // Batch-schedule once, and validate before extracting: a
                // policy bug must fail with cell context, not deep inside
                // the replay. `direct` reads every outcome kind (rectangle,
                // trial-annotated, uniform-machine) through the one
                // `Outcome::completed` interface; `des-replay` replays the
                // rectangles through the event engine instead.
                let orun = policy.run_outcome(jobs, m, &ctx);
                orun.validate()
                    .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", cell_id()));
                let records = match orun.outcome.as_rect() {
                    Some(schedule) if c.executor == Executor::DesReplay => {
                        des_replay(schedule, &orun.jobs)
                    }
                    _ => orun.outcome.completed(&orun.jobs),
                };
                (orun.jobs, records, Some(orun.outcome))
            }
        };
        // Canonical record order (job id) so every executor feeds Criteria
        // the same summation order — the online-equivalence tests assert
        // *bit*-identical metrics across executors.
        records.sort_by_key(|r| r.id);
        let criteria = Criteria::evaluate(&records);
        // Bounds on the as-scheduled jobs: policies that strip releases or
        // rigidify are measured against the instance they actually solved —
        // on the machine model they actually solved it for (speed-aware
        // bounds for uniform outcomes).
        let (cmax_lb, csum_lb, wsum_lb) = match outcome.as_ref().and_then(Outcome::speeds) {
            Some(speeds) => (
                uniform_cmax_lower_bound(&scheduled, speeds),
                uniform_csum_lower_bound(&scheduled, speeds),
                uniform_wsum_lower_bound(&scheduled, speeds),
            ),
            None => (
                cmax_lower_bound(&scheduled, m).as_secs_f64(),
                csum_lower_bound(&scheduled, m),
                wsum_lower_bound(&scheduled, m),
            ),
        };
        let stats = outcome.as_ref().and_then(Outcome::trial_stats);
        Cell {
            policy: policy.name().to_string(),
            executor: c.executor.name().to_string(),
            workload: workload.clone(),
            seed: c.seed,
            platform,
            m,
            n: scheduled.len(),
            utilization: criteria.utilization(m),
            cmax_ratio: criteria.cmax / cmax_lb.max(f64::MIN_POSITIVE),
            csum_ratio: criteria.sum_completion / csum_lb.max(f64::MIN_POSITIVE),
            wsum_ratio: criteria.weighted_sum_completion / wsum_lb.max(f64::MIN_POSITIVE),
            criteria,
            trials: stats.map(|s| s.trials),
            kills: stats.map(|s| s.kills),
            wasted_ticks: stats.map(|s| s.wasted_ticks),
            class_names: None,
            responses: None,
            failures,
        }
    }
}

/// Run a campaign: validate, expand, serve cached cells, execute the rest
/// over the worker pool, persist fresh cells, aggregate.
pub fn run_campaign(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<CampaignReport, CampaignError> {
    let plan = CampaignPlan::expand(spec, opts)?;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(CellCache::new(dir).map_err(|e| CampaignError::Cache(e.to_string()))?),
        None => None,
    };
    let mut slots: Vec<Option<Cell>> = match &cache {
        Some(c) => plan.cells().iter().map(|t| c.load(&t.key)).collect(),
        None => plan.cells().iter().map(|_| None).collect(),
    };
    let cache_hits = slots.iter().filter(|s| s.is_some()).count();
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    let fresh = plan.run_cells(&missing, opts.threads);
    for (&idx, cell) in missing.iter().zip(fresh) {
        if let Some(c) = &cache {
            c.store(&plan.cells()[idx].key, &cell);
        }
        slots[idx] = Some(cell);
    }
    let cells: Vec<Cell> = slots
        .into_iter()
        .map(|s| s.expect("every slot filled (cache hit or fresh run)"))
        .collect();
    let total = cells.len();
    Ok(CampaignReport {
        raw_csv: to_csv(&cells),
        aggregate_csv: aggregate_csv(&cells),
        cells,
        total,
        cache_hits,
    })
}

/// A cell metric accessor, as the aggregate table names them.
pub type MetricFn = fn(&Cell) -> f64;

/// The metrics the aggregate CSV summarizes, as (column stem, accessor).
pub const AGG_METRICS: [(&str, MetricFn); 5] = [
    ("cmax_ratio", |c| c.cmax_ratio),
    ("csum_ratio", |c| c.csum_ratio),
    ("wsum_ratio", |c| c.wsum_ratio),
    ("mean_flow_s", |c| c.criteria.mean_flow),
    ("utilization", |c| c.utilization),
];

const AGG_STATS: [&str; 6] = ["mean", "std", "ci95", "min", "median", "max"];

/// The trial-overhead columns appended after the metric statistics:
/// per-group means of the non-clairvoyant counters, *empty* for groups of
/// rectangle/uniform outcomes (which have no trial overhead).
const AGG_TRIAL_COLUMNS: [&str; 3] = ["trials", "kills", "wasted_ticks"];

/// The per-class response-time columns appended after the trial counters,
/// filled only for open-arrival groups (one aggregate row *per class*);
/// finite groups leave them empty.
const AGG_RESPONSE_COLUMNS: [&str; 8] = [
    "class",
    "resp_n",
    "resp_mean_s",
    "resp_ci95_s",
    "resp_p50_s",
    "resp_p95_s",
    "resp_p99_s",
    "resp_max_slowdown",
];

/// The failure-accounting columns appended after the response columns:
/// per-group means of the volatile-run counters ([`lsps_metrics::FailureStats`]).
/// The whole block is present only when some cell of the campaign carries
/// failure stats — a campaign without a volatile `failures` axis emits
/// exactly the pre-axis header, byte for byte.
pub const AGG_FAILURE_COLUMNS: [&str; 4] = [
    "fail_goodput",
    "fail_wasted_ticks",
    "fail_resubmits",
    "fail_interrupted_slowdown",
];

/// Header of the aggregate CSV (without the volatile failure block — the
/// stable prefix every campaign shares).
pub fn aggregate_header() -> String {
    aggregate_header_for(false)
}

/// Header of the aggregate CSV, with the failure block iff `volatile`.
pub fn aggregate_header_for(volatile: bool) -> String {
    let mut h = String::from("policy,executor,workload,platform,m,reps");
    for (metric, _) in AGG_METRICS {
        for stat in AGG_STATS {
            h.push(',');
            h.push_str(metric);
            h.push('_');
            h.push_str(stat);
        }
    }
    for col in AGG_TRIAL_COLUMNS {
        h.push(',');
        h.push_str(col);
    }
    for col in AGG_RESPONSE_COLUMNS {
        h.push(',');
        h.push_str(col);
    }
    if volatile {
        for col in AGG_FAILURE_COLUMNS {
            h.push(',');
            h.push_str(col);
        }
    }
    h
}

/// Per-class response aggregation across one group's replications.
struct RespAgg {
    /// Post-warmup completions, summed over replications.
    n: u64,
    /// Per-replication mean response times — their spread is the
    /// across-replication CI.
    means: Summary,
    p50: Summary,
    p95: Summary,
    p99: Summary,
    /// Max slowdown over every replication.
    max_slowdown: f64,
    /// The single-replication batch-means CI, used when only one
    /// replication contributed (no across-replication spread to measure).
    single_ci: f64,
}

/// Aggregate replications: one row per (policy, executor, workload,
/// platform) group, each metric summarized as mean/std/ci95/min/median/max
/// over the group's cells, plus the mean trial-overhead counters (empty
/// columns for groups without them). Groups are written in canonical cell
/// order — sorted by each group's first cell index — so the row order is a
/// function of the cell list alone, never of `--threads`, worker count, or
/// accumulation order.
///
/// Open-arrival groups emit one row **per job class** instead: the group
/// statistics repeat and the trailing `AGG_RESPONSE_COLUMNS` carry the
/// class's response distribution — means/percentiles averaged across
/// replications, `resp_ci95_s` the across-replication 95% half-width on
/// the mean response (falling back to the single run's batch-means CI
/// when the group has one replication), max slowdown the max.
pub fn aggregate_csv(cells: &[Cell]) -> String {
    type GroupKey = (String, String, String, String);
    struct Group {
        m: usize,
        metrics: Vec<Summary>,
        trial: [Summary; 3],
        /// goodput / wasted_ticks / resubmits means, volatile groups only.
        fail: [Summary; 3],
        /// Interrupted-job slowdown mean, over the replications where some
        /// job was actually interrupted.
        fail_slow: Summary,
        class_names: Vec<String>,
        resp: std::collections::BTreeMap<u32, RespAgg>,
    }
    let volatile = cells.iter().any(|c| c.failures.is_some());
    let mut order: Vec<(usize, GroupKey)> = Vec::new();
    let mut groups: std::collections::HashMap<GroupKey, Group> = std::collections::HashMap::new();
    for (ci, c) in cells.iter().enumerate() {
        let key = (
            c.policy.clone(),
            c.executor.clone(),
            c.workload.clone(),
            c.platform.clone(),
        );
        let g = groups.entry(key.clone()).or_insert_with(|| {
            order.push((ci, key));
            Group {
                m: c.m,
                metrics: AGG_METRICS.iter().map(|_| Summary::new()).collect(),
                trial: [Summary::new(), Summary::new(), Summary::new()],
                fail: [Summary::new(), Summary::new(), Summary::new()],
                fail_slow: Summary::new(),
                class_names: c.class_names.clone().unwrap_or_default(),
                resp: std::collections::BTreeMap::new(),
            }
        });
        for ((_, metric), s) in AGG_METRICS.iter().zip(g.metrics.iter_mut()) {
            s.add(metric(c));
        }
        for (counter, s) in [c.trials, c.kills, c.wasted_ticks].iter().zip(&mut g.trial) {
            if let Some(v) = counter {
                s.add(*v as f64);
            }
        }
        if let Some(f) = &c.failures {
            g.fail[0].add(f.goodput);
            g.fail[1].add(f.wasted_ticks as f64);
            g.fail[2].add(f.resubmits as f64);
            if let Some(s) = f.interrupted_slowdown {
                g.fail_slow.add(s);
            }
        }
        for r in c.responses.iter().flatten() {
            let agg = g.resp.entry(r.class).or_insert_with(|| RespAgg {
                n: 0,
                means: Summary::new(),
                p50: Summary::new(),
                p95: Summary::new(),
                p99: Summary::new(),
                max_slowdown: 0.0,
                single_ci: 0.0,
            });
            agg.n += r.n as u64;
            agg.means.add(r.mean_flow_s);
            agg.p50.add(r.p50_flow_s);
            agg.p95.add(r.p95_flow_s);
            agg.p99.add(r.p99_flow_s);
            agg.max_slowdown = agg.max_slowdown.max(r.max_slowdown);
            agg.single_ci = r.ci95_flow_s;
        }
    }
    order.sort_by_key(|&(first_cell, _)| first_cell);
    let mut out = aggregate_header_for(volatile);
    out.push('\n');
    for (_, key) in order {
        let g = &groups[&key];
        let (policy, executor, workload, platform) = &key;
        let mut stats = format!(
            "{policy},{executor},{workload},{platform},{},{}",
            g.m,
            g.metrics[0].n()
        );
        for s in &g.metrics {
            stats.push_str(&format!(
                ",{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                s.mean(),
                s.std_dev(),
                s.ci95(),
                s.min(),
                s.median(),
                s.max()
            ));
        }
        for s in &g.trial {
            if s.n() == 0 {
                stats.push(',');
            } else {
                stats.push_str(&format!(",{:.2}", s.mean()));
            }
        }
        // Failure columns trail every row of a volatile campaign; groups
        // without failure stats (and replications that interrupted no job)
        // leave them empty — an absent measurement, not a zero.
        let fail_cols = if !volatile {
            String::new()
        } else if g.fail[0].n() == 0 {
            ",".repeat(AGG_FAILURE_COLUMNS.len())
        } else {
            let mut s = format!(
                ",{:.6},{:.2},{:.2}",
                g.fail[0].mean(),
                g.fail[1].mean(),
                g.fail[2].mean()
            );
            if g.fail_slow.n() == 0 {
                s.push(',');
            } else {
                s.push_str(&format!(",{:.6}", g.fail_slow.mean()));
            }
            s
        };
        if g.resp.is_empty() {
            out.push_str(&stats);
            out.push_str(&",".repeat(AGG_RESPONSE_COLUMNS.len()));
            out.push_str(&fail_cols);
            out.push('\n');
            continue;
        }
        for (&class, agg) in &g.resp {
            let name = g
                .class_names
                .get(class as usize)
                .cloned()
                .unwrap_or_else(|| class.to_string());
            let ci = if agg.means.n() >= 2 {
                agg.means.ci95()
            } else {
                agg.single_ci
            };
            out.push_str(&stats);
            out.push_str(&format!(
                ",{name},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                agg.n,
                agg.means.mean(),
                ci,
                agg.p50.mean(),
                agg.p95.mean(),
                agg.p99.mean(),
                agg.max_slowdown,
            ));
            out.push_str(&fail_cols);
            out.push('\n');
        }
    }
    out
}

pub mod builtin;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lsps_core::outcome::OutcomeKind;
    use lsps_core::policy::registry;
    use lsps_des::{Dur, Time};

    use crate::runner::CSV_HEADER;
    use crate::spec::{PlatformSpec, WorkloadEntry};

    /// The spec check for tests that need no plan: expand `spec` and keep
    /// only the verdict, a spec error's text without its `campaign spec: `
    /// prefix. Panics on an error other than a spec error.
    pub(crate) fn check_spec(spec: &CampaignSpec, opts: &CampaignOptions) -> Result<(), String> {
        match CampaignPlan::expand(spec, opts) {
            Ok(_) => Ok(()),
            Err(CampaignError::Spec(SpecError(msg))) => Err(msg),
            Err(e) => panic!("not a spec error: {e}"),
        }
    }

    /// The policies the DES executors can run (see [`Executor::supports`]).
    fn rect_names() -> Vec<String> {
        registry()
            .into_iter()
            .filter(|p| p.outcome_kind() == OutcomeKind::Rect)
            .map(|p| p.name().to_string())
            .collect()
    }

    fn platform(name: &str, m: usize) -> PlatformSpec {
        PlatformSpec {
            name: name.into(),
            m,
            speeds: None,
        }
    }

    fn entry(name: &str, seed: u64, source: WorkloadSource) -> WorkloadEntry {
        WorkloadEntry {
            name: name.into(),
            source,
            seed: Some(seed),
        }
    }

    /// The rectangle policies over both Fig. 2 populations (n = 30, seed 7)
    /// on 32 processors.
    fn fig2_spec(executors: Vec<Executor>) -> CampaignSpec {
        let mut spec = CampaignSpec::new("fig2-small");
        spec.policies = rect_names();
        spec.executors = executors;
        spec.platforms = vec![platform("m32", 32)];
        spec.workloads = vec![
            entry(
                "fig2-par",
                7,
                WorkloadSource::Spec(WorkloadSpec::fig2_parallel(30)),
            ),
            entry(
                "fig2-seq",
                7,
                WorkloadSource::Spec(WorkloadSpec::fig2_sequential(30)),
            ),
        ];
        spec
    }

    fn run(spec: &CampaignSpec, threads: usize) -> Vec<Cell> {
        let opts = CampaignOptions {
            threads,
            ..CampaignOptions::default()
        };
        run_campaign(spec, &opts).expect("campaign runs").cells
    }

    #[test]
    fn full_registry_cross_product_runs() {
        // Under `direct`, *every* registry policy — all three outcome
        // kinds — runs through the one code path. (The fig2 workloads are
        // moldable/sequential, inside every policy's domain.)
        let mut spec = fig2_spec(vec![Executor::Direct]);
        spec.policies = registry().iter().map(|p| p.name().to_string()).collect();
        let cells = run(&spec, 0);
        assert_eq!(cells.len(), registry().len() * 2);
        for c in &cells {
            assert!(c.cmax_ratio >= 1.0 - 1e-9, "{}: beats the LB?", c.policy);
            assert!(c.utilization <= 1.0 + 1e-9, "{}", c.policy);
            assert_eq!(c.n, 30);
        }
        // Trial cells carry counters; everything else leaves them empty.
        for c in &cells {
            let has_stats = c.trials.is_some();
            assert_eq!(
                has_stats,
                c.policy == "nonclairvoyant-exp-trial",
                "{}",
                c.policy
            );
            assert_eq!(c.kills.is_some(), has_stats, "{}", c.policy);
            assert_eq!(c.wasted_ticks.is_some(), has_stats, "{}", c.policy);
        }
    }

    #[test]
    fn uniform_cells_run_on_speeded_platforms() {
        let mut spec = fig2_spec(vec![Executor::Direct]);
        spec.policies = vec!["uniform-mct".into()];
        spec.workloads.remove(0);
        // Two CPU generations in one cluster (§2.2 weak heterogeneity).
        let speeds: Vec<f64> = (0..16).map(|i| if i < 8 { 1.0 } else { 0.55 }).collect();
        spec.platforms = vec![PlatformSpec {
            name: "two-gen".into(),
            m: speeds.len(),
            speeds: Some(speeds),
        }];
        let cells = run(&spec, 0);
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(c.m, 16);
        assert_eq!(c.n, 30);
        assert!(c.cmax_ratio >= 1.0 - 1e-9, "speed-aware LB holds");
        assert_eq!(c.trials, None, "uniform outcomes carry no trial counters");
    }

    #[test]
    fn des_executors_reject_non_rect_policies() {
        let mut spec = fig2_spec(vec![Executor::DesOnline]);
        spec.policies = vec!["nonclairvoyant-exp-trial".into()];
        let Err(CampaignError::Spec(e)) = run_campaign(&spec, &CampaignOptions::default()) else {
            panic!("a trial policy under des-online must be a spec error");
        };
        assert!(e.0.contains("cannot replay or drive"), "{e}");
    }

    #[test]
    fn des_replay_matches_direct_extraction() {
        let mut spec = fig2_spec(vec![Executor::Direct, Executor::DesReplay]);
        spec.workloads.truncate(1);
        let cells = run(&spec, 0);
        let (direct, replayed) = cells.split_at(cells.len() / 2);
        assert_eq!(direct.len(), replayed.len());
        for (a, b) in direct.iter().zip(replayed) {
            assert_eq!(
                (a.executor.as_str(), b.executor.as_str()),
                ("direct", "des-replay")
            );
            assert_eq!(a.policy, b.policy);
            assert!((a.criteria.cmax - b.criteria.cmax).abs() < 1e-12);
            assert!((a.criteria.mean_flow - b.criteria.mean_flow).abs() < 1e-12);
            assert!(
                (a.criteria.weighted_sum_completion - b.criteria.weighted_sum_completion).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn csv_schema_is_stable() {
        let mut spec = fig2_spec(vec![Executor::Direct]);
        spec.workloads.truncate(1);
        spec.policies = vec!["list-fcfs".into()];
        let csv = to_csv(&run(&spec, 0));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().expect("one data row");
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        assert!(row.starts_with("list-fcfs,direct,fig2-par,7,m32,32,30,"));
    }

    #[test]
    fn des_online_commits_everything_and_respects_arrivals() {
        let mut spec = fig2_spec(vec![Executor::DesOnline]);
        spec.workloads.truncate(1);
        let cells = run(&spec, 0);
        assert_eq!(cells.len(), rect_names().len());
        for c in &cells {
            assert_eq!(c.n, 30, "{}", c.policy);
            assert_eq!(c.executor, "des-online");
            assert!(c.cmax_ratio >= 1.0 - 1e-9, "{}", c.policy);
        }
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        for executor in Executor::ALL {
            let spec = fig2_spec(vec![executor]);
            let sequential = to_csv(&run(&spec, 1));
            let parallel = to_csv(&run(&spec, 4));
            assert_eq!(sequential, parallel, "{}", executor.name());
        }
    }

    fn fixture_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/data")
    }

    /// A one-policy (`list-fcfs`) campaign over a single trace entry on 16
    /// processors, relative paths resolved against the fixture directory.
    fn trace_spec(source: WorkloadSource) -> (CampaignSpec, CampaignOptions) {
        let mut spec = CampaignSpec::new("trace");
        spec.policies = vec!["list-fcfs".into()];
        spec.platforms = vec![platform("m16", 16)];
        spec.workloads = vec![entry("trace", 5, source)];
        let opts = CampaignOptions {
            base_dir: Some(fixture_dir()),
            ..CampaignOptions::default()
        };
        (spec, opts)
    }

    #[test]
    fn swf_file_workload_feeds_the_campaign() {
        let (spec, opts) = trace_spec(WorkloadSource::SwfFile("sample_trace.swf".into()));
        let plan = CampaignPlan::expand(&spec, &opts).expect("fixture parses");
        let jobs = plan.workload(0, 5, 16);
        assert!(
            matches!(jobs, Cow::Borrowed(_)),
            "cells borrow the parsed trace"
        );
        assert_eq!(jobs.len(), 10);
        assert!(jobs.iter().all(|j| j.min_procs() <= 8));
        // Submits are staggered: the trace exercises the release-date path.
        assert!(jobs.last().unwrap().release > Time::ZERO);
        let cells = run_campaign(&spec, &opts).expect("runs").cells;
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].n, 10);
        assert!(cells[0].cmax_ratio >= 1.0 - 1e-9);
    }

    #[test]
    fn jsonl_file_workload_round_trips_profiles() {
        use lsps_workload::{MoldableProfile, SpeedupModel};
        let jobs = vec![
            Job::rigid(1, 4, Dur::from_ticks(100)),
            Job::moldable(
                2,
                MoldableProfile::from_model(Dur::from_ticks(500), &SpeedupModel::Linear, 8),
            ),
        ];
        let dir = std::env::temp_dir().join(format!("lsps-jsonl-case-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, lsps_workload::swf::to_jsonl(&jobs)).unwrap();
        let (spec, opts) = trace_spec(WorkloadSource::JsonlFile(path.display().to_string()));
        let plan = CampaignPlan::expand(&spec, &opts).expect("round-trips");
        assert_eq!(plan.workload(0, 5, 16).as_ref(), jobs.as_slice());
        assert_eq!(plan.run_cell(0).n, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_load_errors_are_reported() {
        let (spec, opts) = trace_spec(WorkloadSource::SwfFile("/nonexistent/trace.swf".into()));
        let error = check_spec(&spec, &opts).unwrap_err();
        assert!(
            error.starts_with("workload `trace`: /nonexistent/trace.swf: "),
            "{error}"
        );
        let dir = std::env::temp_dir().join(format!("lsps-bad-swf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.swf");
        std::fs::write(&path, "1 2 3\n").unwrap();
        let (spec, opts) = trace_spec(WorkloadSource::SwfFile(path.display().to_string()));
        let error = check_spec(&spec, &opts).unwrap_err();
        assert!(
            error.starts_with("workload `trace`: trace parse error"),
            "{error}"
        );
        let dup = dir.join("dup.swf");
        std::fs::write(&dup, "10 0 -1 60 1\n10 5 -1 30 1\n").unwrap();
        let (spec, opts) = trace_spec(WorkloadSource::SwfFile(dup.display().to_string()));
        assert_eq!(
            check_spec(&spec, &opts).unwrap_err(),
            "workload `trace`: trace parse error at line 2: duplicate job id j10 (first at line 1)"
        );
        // A job wider than the platform parses but could never start.
        let wide = dir.join("wide.swf");
        std::fs::write(&wide, "1 0 -1 60 1\n2 0 -1 60 64\n").unwrap();
        let (spec, opts) = trace_spec(WorkloadSource::SwfFile(wide.display().to_string()));
        assert_eq!(
            check_spec(&spec, &opts).unwrap_err(),
            "workload `trace`: job j2 needs 64 processors, wider than platform `m16` (m = 16)"
        );
        // A release or runtime past the job-time bound would wrap the tick
        // axis inside a worker.
        for (name, line, needle) in [
            ("late.swf", "2 1e300 -1 60 1", "job j2 is released at 1.8"),
            ("long.swf", "2 0 -1 1e300 1", "and runs 1.8"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, format!("1 0 -1 60 1\n{line}\n")).unwrap();
            let (spec, opts) = trace_spec(WorkloadSource::SwfFile(path.display().to_string()));
            let error = check_spec(&spec, &opts).unwrap_err();
            assert!(error.starts_with("workload `trace`: "), "{error}");
            assert!(error.contains(needle), "{error}");
            assert!(
                error.ends_with("within the 1e10 s job-time bound"),
                "{error}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_expansion_names_every_problem_across_sources() {
        // Three problems in three places: the policy axis, a trace file
        // that is not there, and a trace job wider than the platform.
        let dir = std::env::temp_dir().join(format!("lsps-all-problems-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wide = dir.join("wide.swf");
        std::fs::write(&wide, "1 0 -1 60 1\n2 0 -1 60 64\n").unwrap();
        let (mut spec, opts) = trace_spec(WorkloadSource::SwfFile("/nonexistent/trace.swf".into()));
        spec.policies.push("no-such-policy".into());
        spec.workloads.push(entry(
            "wide",
            5,
            WorkloadSource::SwfFile(wide.display().to_string()),
        ));
        let error = check_spec(&spec, &opts).unwrap_err();
        for needle in [
            "unknown policy `no-such-policy`",
            "workload `trace`: /nonexistent/trace.swf: ",
            "workload `wide`: job j2 needs 64 processors, wider than platform `m16`",
        ] {
            assert!(error.contains(needle), "`{needle}` missing from: {error}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
