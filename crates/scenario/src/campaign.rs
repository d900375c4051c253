//! Campaign execution: expand a [`CampaignSpec`] into runner cells, skip
//! the cached ones, run the rest, aggregate replications.
//!
//! The canonical cell order is executor-major, then the runner's own order
//! (platform → failure entry → workload entry → replication → policy). The cache never
//! affects ordering — a warm, partially warm or cold run emits exactly the
//! same bytes — so interrupting a campaign and re-running it *is* resume.
//!
//! The expansion itself is a first-class surface: [`CampaignPlan`] holds
//! the canonical cell list with each cell's content-addressed cache key
//! and runs any single cell in isolation ([`CampaignPlan::run_cell`]),
//! byte-identical to its place in a full [`run_campaign`]. The
//! `lsps-campaignd` daemon plans campaigns and shards cells over worker
//! processes through exactly this surface, and `lsps-campaign --dry-run`
//! prints it.

use std::fmt;
use std::path::{Path, PathBuf};

use lsps_core::policy::{by_name, Policy};
use lsps_metrics::Summary;
use serde::{Serialize, Value};

use crate::cache::{CellCache, CACHE_VERSION};
use crate::families::builtin_family;
use crate::pool::pool_map;
use crate::runner::{
    des_online_open, open_arrivals, to_csv, Cell, Executor, ExperimentRunner, PlatformCase,
    VolatilityCase, WorkloadCase,
};
use crate::spec::{fnv64, CampaignSpec, FailureEntry, SpecError, WorkloadSource};

/// How a campaign runs: where the cache lives, how wide the pool is, and
/// what relative trace paths resolve against.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// Cell-cache directory; `None` disables caching (every cell runs).
    pub cache_dir: Option<PathBuf>,
    /// Worker-pool size per executor sweep (`0` = one thread per core).
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
    /// The spec itself is invalid.
    Spec(SpecError),
    /// A trace-backed workload entry failed to load.
    Trace {
        /// Workload entry name.
        entry: String,
        /// Underlying error rendering.
        error: String,
    },
    /// The cache directory could not be created.
    Cache(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => e.fmt(f),
            CampaignError::Trace { entry, error } => {
                write!(f, "workload `{entry}`: {error}")
            }
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

/// A workload entry expanded to its replication seeds plus the canonical
/// source value that goes into cell keys (trace files by content hash).
/// Trace files are read and parsed exactly once, here — the per-seed
/// cases (and every executor sweep, and fully-warm runs) share the parsed
/// job list instead of re-reading an immutable file.
struct ExpandedEntry {
    entry_idx: usize,
    seeds: Vec<u64>,
    canonical_source: Value,
    trace_jobs: Option<Vec<lsps_workload::Job>>,
}

fn resolve_path(base: &Option<PathBuf>, path: &str) -> PathBuf {
    let p = Path::new(path);
    match base {
        Some(dir) if p.is_relative() => dir.join(p),
        _ => p.to_path_buf(),
    }
}

fn expand_entries(
    spec: &CampaignSpec,
    opts: &CampaignOptions,
) -> Result<Vec<ExpandedEntry>, CampaignError> {
    spec.workloads
        .iter()
        .enumerate()
        .map(|(entry_idx, entry)| {
            let trace_err = |error: String| CampaignError::Trace {
                entry: entry.name.clone(),
                error,
            };
            let (canonical_source, trace_jobs) = match &entry.source {
                // Trace files are keyed by *content*: replacing the file
                // invalidates its cells even though the path is unchanged.
                WorkloadSource::SwfFile(path) | WorkloadSource::JsonlFile(path) => {
                    let resolved = resolve_path(&opts.base_dir, path);
                    let text = std::fs::read_to_string(&resolved)
                        .map_err(|e| trace_err(format!("{}: {e}", resolved.display())))?;
                    let (tag, jobs) = match &entry.source {
                        WorkloadSource::SwfFile(_) => {
                            ("SwfFile", lsps_workload::swf::from_swf(&text))
                        }
                        _ => ("JsonlFile", lsps_workload::swf::from_jsonl(&text)),
                    };
                    let jobs = jobs.map_err(|e| trace_err(e.to_string()))?;
                    let canon = Value::Map(vec![(
                        tag.into(),
                        Value::Map(vec![
                            ("path".into(), path.to_value()),
                            (
                                "content_fnv".into(),
                                format!("{:016x}", fnv64(text.as_bytes())).to_value(),
                            ),
                        ]),
                    )]);
                    (canon, Some(jobs))
                }
                source => (source.to_value(), None),
            };
            Ok(ExpandedEntry {
                entry_idx,
                seeds: spec.replication.seeds_for(entry),
                canonical_source,
                trace_jobs,
            })
        })
        .collect()
}

/// The expanded workload list plus, per case, its (entry index, seed).
type ExpandedCases = (Vec<WorkloadCase>, Vec<(usize, u64)>);

/// Build the runner workload list — one [`WorkloadCase`] per (entry,
/// replication seed), in entry order — plus the aligned expanded-entry
/// index of every case.
fn build_cases(spec: &CampaignSpec, expanded: &[ExpandedEntry]) -> ExpandedCases {
    let mut cases = Vec::new();
    let mut meta = Vec::new();
    for exp in expanded {
        let entry = &spec.workloads[exp.entry_idx];
        for &seed in &exp.seeds {
            let case = match &entry.source {
                WorkloadSource::Spec(ws) => {
                    WorkloadCase::from_spec(entry.name.clone(), seed, ws.clone())
                }
                WorkloadSource::Family { family, n } => {
                    let family = builtin_family(family, *n).expect("validated family");
                    WorkloadCase::new(entry.name.clone(), seed, move |m, rng| family(m, rng))
                }
                WorkloadSource::SwfFile(_) | WorkloadSource::JsonlFile(_) => WorkloadCase::fixed(
                    entry.name.clone(),
                    seed,
                    exp.trace_jobs.clone().expect("trace parsed at expansion"),
                ),
                WorkloadSource::Open(_) => {
                    unreachable!("open campaigns bypass the runner case list")
                }
            };
            cases.push(case);
            meta.push((exp.entry_idx, seed));
        }
    }
    (cases, meta)
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
    /// Runner case index (the workload-case axis of
    /// [`ExperimentRunner::cell_order`]): position of this cell's
    /// (entry, seed) pair in the entry-major case list.
    case: usize,
}

/// A validated, fully expanded campaign: the spec, its trace content (read
/// once, keyed by hash), and every cell in canonical order with its cache
/// key. This is the library surface shared by [`run_campaign`], the
/// `lsps-campaign --dry-run` breakdown, and the `lsps-campaignd` /
/// `lsps-worker` service tier: the daemon plans, probes the cache and
/// shards cell indices; each worker re-expands the same spec and runs
/// single cells via [`CampaignPlan::run_cell`].
pub struct CampaignPlan {
    spec: CampaignSpec,
    expanded: Vec<ExpandedEntry>,
    cells: Vec<PlannedCell>,
    open: bool,
}

impl CampaignPlan {
    /// Validate `spec` and expand it into the canonical cell list.
    pub fn expand(
        spec: &CampaignSpec,
        opts: &CampaignOptions,
    ) -> Result<CampaignPlan, CampaignError> {
        spec.validate()?;
        let expanded = expand_entries(spec, opts)?;
        // An open cell whose horizon admits no arrival would drive nothing:
        // reject it here, where a bad spec is an error (campaignd's 400)
        // rather than a worker panic. Drawing each cell's first arrival is
        // O(1).
        for exp in &expanded {
            let entry = &spec.workloads[exp.entry_idx];
            let WorkloadSource::Open(open) = &entry.source else {
                continue;
            };
            let Some(horizon_s) = open.horizon_s else {
                continue;
            };
            for p in &spec.platforms {
                for &seed in &exp.seeds {
                    if open_arrivals(open, p.m, seed).next().is_none() {
                        return Err(SpecError(format!(
                            "workload `{}`: `horizon_s` {horizon_s} admits no arrival \
                             (platform `{}`, seed {seed})",
                            entry.name, p.name
                        ))
                        .into());
                    }
                }
            }
        }
        let open = spec
            .workloads
            .iter()
            .any(|w| matches!(w.source, WorkloadSource::Open(_)));
        let mut cells = Vec::with_capacity(spec.cell_count());
        for &executor in &spec.executors {
            for pi in 0..spec.platforms.len() {
                for fi in 0..spec.failures.len() {
                    let mut case = 0usize;
                    for exp in &expanded {
                        for &seed in &exp.seeds {
                            for ki in 0..spec.policies.len() {
                                cells.push(PlannedCell {
                                    executor,
                                    platform: pi,
                                    failure: fi,
                                    policy: ki,
                                    entry: exp.entry_idx,
                                    seed,
                                    key: cell_key(
                                        spec,
                                        executor,
                                        pi,
                                        ki,
                                        exp,
                                        &spec.workloads[exp.entry_idx].name,
                                        seed,
                                        &spec.failures[fi],
                                    ),
                                    case,
                                });
                            }
                            case += 1;
                        }
                    }
                }
            }
        }
        Ok(CampaignPlan {
            spec: spec.clone(),
            expanded,
            cells,
            open,
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

    /// Whether this is an open (steady-state) campaign.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The spec as canonical compact JSON — the content the service tier
    /// derives campaign ids from and journals for restart resume. Two
    /// spellings of the same spec (key order, layered defaults) canonicalize
    /// to the same bytes.
    pub fn canonical_spec_json(&self) -> String {
        serde_json::to_string(&self.spec).expect("specs serialize")
    }

    /// The runner for one executor sweep, cases in canonical order. The
    /// runner's platform axis is the spec's platforms × failure entries
    /// (platform-major): index `pi * n_failures + fi`, with volatile
    /// entries suffixing the display name so CSV rows group per regime.
    fn runner(&self, executor: Executor, threads: usize) -> ExperimentRunner {
        let (workloads, _meta) = build_cases(&self.spec, &self.expanded);
        let mut platforms =
            Vec::with_capacity(self.spec.platforms.len() * self.spec.failures.len());
        for p in &self.spec.platforms {
            for f in &self.spec.failures {
                platforms.push(PlatformCase {
                    name: match &f.trace {
                        Some(_) => format!("{}+{}", p.name, f.name),
                        None => p.name.clone(),
                    },
                    m: p.m,
                    speeds: p.speeds.clone(),
                    volatility: f.trace.clone().map(|trace| VolatilityCase {
                        trace,
                        policy: f.policy,
                    }),
                });
            }
        }
        ExperimentRunner {
            policies: self
                .spec
                .policies
                .iter()
                .map(|p| by_name(p).expect("validated policy"))
                .collect(),
            workloads,
            platforms,
            ctx: self.spec.ctx.to_policy_ctx(),
            executor,
            threads,
        }
    }

    /// Drive one open-arrival cell to completion.
    fn open_cell(&self, c: &PlannedCell, policy: &dyn Policy) -> Cell {
        let entry = &self.spec.workloads[c.entry];
        let WorkloadSource::Open(open) = &entry.source else {
            unreachable!("validated: open campaigns are uniformly open")
        };
        let plat = &self.spec.platforms[c.platform];
        let ctx = self.spec.ctx.to_policy_ctx();
        let out = des_online_open(policy, open, plat.m, &ctx, c.seed);
        let utilization = out.criteria.utilization(plat.m);
        Cell {
            policy: policy.name().to_string(),
            executor: c.executor.name().to_string(),
            workload: entry.name.clone(),
            seed: c.seed,
            platform: plat.name.clone(),
            m: plat.m,
            n: out.completions as usize,
            utilization,
            // An open stream has no finite instance to lower-bound, so the
            // ratio columns carry a finite 0 sentinel (aggregate-safe).
            cmax_ratio: 0.0,
            csum_ratio: 0.0,
            wsum_ratio: 0.0,
            criteria: out.criteria,
            trials: None,
            kills: None,
            wasted_ticks: None,
            class_names: Some(open.stream.classes.iter().map(|c| c.name.clone()).collect()),
            responses: Some(out.responses),
            failures: None,
        }
    }

    /// Run one cell by canonical index, in isolation: the single-cell entry
    /// point workers execute. Byte-identical to the same cell's outcome
    /// inside a full [`run_campaign`] — the workload is regenerated from
    /// (entry, seed, m), which is a pure function.
    pub fn run_cell(&self, idx: usize) -> Cell {
        let c = &self.cells[idx];
        if self.open {
            let policy = by_name(&self.spec.policies[c.policy]).expect("validated policy");
            return self.open_cell(c, policy.as_ref());
        }
        let runner = self.runner(c.executor, 1);
        let plat = c.platform * self.spec.failures.len() + c.failure;
        let mut fresh = runner.run_cells(&[(plat, c.case, c.policy)]);
        fresh.pop().expect("one task yields one cell")
    }

    /// Run the cells at the given canonical indices across a worker pool of
    /// `threads`, returning cells aligned with `indices`. Finite campaigns
    /// batch by executor through [`ExperimentRunner::run_cells`] (sharing
    /// generated workloads across the policies of a sweep); open campaigns
    /// fan independent drives over the same pool shape.
    pub fn run_cells(&self, indices: &[usize], threads: usize) -> Vec<Cell> {
        if self.open {
            let policies: Vec<Box<dyn Policy>> = self
                .spec
                .policies
                .iter()
                .map(|p| by_name(p).expect("validated policy"))
                .collect();
            return pool_map(threads, indices.len(), |i| {
                let c = &self.cells[indices[i]];
                self.open_cell(c, policies[c.policy].as_ref())
            });
        }
        // Finite: cells are executor-major, so an ordered index list splits
        // into contiguous per-executor runs; each run batches through the
        // runner (which generates every referenced workload exactly once).
        let mut out: Vec<Cell> = Vec::with_capacity(indices.len());
        let mut i = 0;
        while i < indices.len() {
            let executor = self.cells[indices[i]].executor;
            let mut j = i;
            while j < indices.len() && self.cells[indices[j]].executor == executor {
                j += 1;
            }
            let tasks: Vec<(usize, usize, usize)> = indices[i..j]
                .iter()
                .map(|&idx| {
                    let c = &self.cells[idx];
                    (
                        c.platform * self.spec.failures.len() + c.failure,
                        c.case,
                        c.policy,
                    )
                })
                .collect();
            out.extend(self.runner(executor, threads).run_cells(&tasks));
            i = j;
        }
        out
    }
}

/// Run a campaign: validate, expand, serve cached cells, execute the rest
/// through the runner's worker pool, persist fresh cells, aggregate.
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
