//! `perfbench` — end-to-end benchmark of the scheduling stack.
//!
//! ```text
//! perfbench --workload <open-steady|trace-online> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a campaign spec whose cells run through
//! `CampaignPlan::run_cell`, the call `lsps-campaign` and the campaign
//! workers make:
//!
//! * `open-steady` — open-arrival steady state. One unit is one cell of an
//!   open campaign (a ρ = 0.9 Poisson stream of narrow and wide jobs on 64
//!   processors, EASY backfilling, 20 000 completions). Long drives through
//!   the event queue, the open machine and the incremental planner; no
//!   schedule is retained.
//! * `trace-online` — finite trace replay. One unit is one cell of a
//!   `trace-100k`-family campaign (5 000 jobs on 1 024 processors,
//!   conservative backfilling, `des-online`): generate, drive, validate
//!   the retained schedule, bound. A wide machine and a deep queue.
//!
//! Units are timed in the CPU time of the whole process, so work the
//! program moves onto other threads still counts. On a shared virtual
//! machine wall time also counts the time the hypervisor gives the CPU to
//! other guests, which swings run to run by more than the changes the
//! benchmark should resolve; CPU time excludes it.
//!
//! CPU time still follows the host's speed, which other tenants move by
//! up to twofold within seconds (a contended core, cache or memory bus).
//! So right before every unit and set-up the benchmark runs a fixed
//! [`Reference`] computation that shares no code with the program, and
//! scales the end-to-end times by [`REF_MS`] over the reference's CPU
//! time: they are the times of a host on which the reference takes
//! [`REF_MS`]. On a 2-vCPU virtual machine, ten `trace-online` runs had
//! raw median unit times from 33 to 56 ms and scaled ones from 48 to 52.
//!
//! A run derives all inputs from `--seed`, sets up, runs two warm-up
//! units, then runs units back to back for `--seconds` of wall time and
//! checks the output of every one. It sets up again at even intervals
//! through the run; `setup_s` is the median set-up. With `--trace 0` it
//! reports the end-to-end metrics: the median and the 90th percentile
//! unit time and the set-up time, all scaled. With `--trace 1` it runs
//! the same units and also times each layer on the unit's inputs, one
//! call at a time: spec expansion (`plan_ms`), workload generation
//! (`gen_ms`), the DES drive with dispatcher and planner (`drive_ms`), CSV
//! folding and aggregation (`fold_ms`), a store and load of the unit's
//! cell through the cell cache (`cache_ms`) and the cell's execution
//! through the campaign surface (`exec_ms`, the median unit time), along
//! with the number of timed units (`units`) and the median reference time
//! (`ref_ms`); these are raw CPU times, not scaled. The last line of
//! stdout is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lsps_core::policy::by_name;
use lsps_des::SimRng;
use lsps_scenario::cache::CellCache;
use lsps_scenario::campaign::aggregate_csv;
use lsps_scenario::families::builtin_family;
use lsps_scenario::runner::{des_online, des_online_open, to_csv};
use lsps_scenario::spec::WorkloadSource;
use lsps_scenario::{CampaignOptions, CampaignPlan, CampaignSpec, Cell};

const USAGE: &str = "usage: perfbench --workload <open-steady|trace-online> \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per run, spread evenly over it; `setup_s` is their median.
const SETUPS: u32 = 41;
/// Units run and checked before timing starts (page faults, lazy
/// initialization).
const WARMUP_UNITS: u64 = 2;
/// Timed units run even when `--seconds` is already spent.
const MIN_UNITS: u64 = 5;
/// Replications of the campaigns: more cells than a run uses, so every
/// unit drives a distinct seed.
const CAMPAIGN_REPLICATIONS: usize = 1024;
/// Completions per open-steady cell.
const OPEN_COMPLETIONS: usize = 20_000;
/// Jobs per trace-online cell.
const TRACE_JOBS: usize = 5_000;
/// Nominal CPU time of one [`Reference`] run, ms: the end-to-end times are
/// those of a host on which the reference takes this long.
const REF_MS: f64 = 1.25;
/// Scratch directory for the cell cache of traced runs, under the working
/// directory; removed when the run ends.
const RUN_DIR: &str = ".perfbench-run";

/// This run's own directory under [`RUN_DIR`].
fn scratch_dir() -> PathBuf {
    Path::new(RUN_DIR).join(std::process::id().to_string())
}

/// Remove this run's scratch directory, and [`RUN_DIR`] once empty.
fn remove_scratch() {
    let _ = std::fs::remove_dir_all(scratch_dir());
    let _ = std::fs::remove_dir(RUN_DIR);
}

/// The cell cache traced runs time, created on first use.
fn bench_cache(cache: &mut Option<CellCache>) -> Result<&CellCache, String> {
    if cache.is_none() {
        let dir = scratch_dir().join("bench-cache");
        *cache = Some(CellCache::new(dir).map_err(|e| format!("cache: {e}"))?);
    }
    Ok(cache.as_ref().expect("created above"))
}

/// CPU time to store `cell` in the cache under `key` and load it back; a
/// cell that does not come back byte for byte is an error.
fn cache_round_trip(cache: &CellCache, key: &str, cell: &Cell) -> Result<f64, String> {
    let (back, cpu_ms) = timed(|| {
        cache.store(key, cell);
        cache.load(key)
    });
    let same =
        back.is_some_and(|b| serde_json::to_string(&b).ok() == serde_json::to_string(cell).ok());
    if !same {
        return Err(format!("cache round trip changed cell {key}"));
    }
    Ok(cpu_ms)
}

/// CPU time of this process, all threads.
fn process_cpu() -> Duration {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call, and
    // clock_gettime writes nothing else.
    let ok = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0;
    assert!(ok && ts.tv_sec >= 0 && ts.tv_nsec >= 0, "process CPU clock");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A fixed computation that shares no code with the program: sorting a
/// copy of fixed pseudo-random keys. Its CPU time measures the host's
/// current speed. It allocates nothing while it runs, so the program's
/// heap cannot change its cost. Of the candidates tried (this sort, a
/// random walk through memory, map inserts), this sort's time followed the
/// unit times most closely.
struct Reference {
    keys: Vec<u64>,
    buf: Vec<u64>,
}

impl Reference {
    const KEYS: usize = 50_000;

    fn new() -> Reference {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        Reference {
            keys: (0..Self::KEYS).map(|_| next()).collect(),
            buf: vec![0; Self::KEYS],
        }
    }

    /// Run once; returns its CPU time in ms.
    fn run(&mut self) -> f64 {
        let Reference { keys, buf } = self;
        let ((), cpu_ms) = timed(|| {
            buf.copy_from_slice(keys);
            buf.sort_unstable();
            black_box(buf[Self::KEYS / 2]);
        });
        cpu_ms
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy)]
enum Kind {
    OpenSteady,
    TraceOnline,
}

impl Kind {
    fn from_name(name: &str) -> Option<Kind> {
        match name {
            "open-steady" => Some(Kind::OpenSteady),
            "trace-online" => Some(Kind::TraceOnline),
            _ => None,
        }
    }

    /// The workload's campaign spec, as JSON text.
    fn spec(self, base_seed: u64, replications: usize) -> String {
        match self {
            Kind::OpenSteady => format!(
                r#"{{
  "name": "open-steady",
  "policies": ["backfill-easy"],
  "executors": ["des-online"],
  "platforms": [{{"name": "m64", "m": 64}}],
  "workloads": [{{"name": "rho-0.90", "source": {{"Open": {{
    "stream": {{"rho": 0.9, "arrival": "Poisson", "classes": [
      {{"name": "narrow", "mix": 3.0, "width": {{"Fixed": 1.0}}, "service_s": {{"Exp": 120.0}}}},
      {{"name": "wide", "mix": 1.0, "width": {{"Uniform": [2.0, 16.0]}}, "service_s": {{"Exp": 600.0}}}}
    ]}},
    "stop_completions": {OPEN_COMPLETIONS}, "warmup": {{"Fraction": 0.2}}, "batches": 20}}}}}}],
  "replication": {{"base_seed": {base_seed}, "replications": {replications}, "derivation": "splitmix"}},
  "ctx": {{"release_mode": "online", "estimate_factor": 1.0}}
}}"#
            ),
            Kind::TraceOnline => format!(
                r#"{{
  "name": "trace-online",
  "policies": ["backfill-conservative"],
  "executors": ["des-online"],
  "platforms": [{{"name": "m1024", "m": 1024}}],
  "workloads": [{{"name": "trace", "source": {{"Family": {{"family": "trace-100k", "n": {TRACE_JOBS}}}}}}}],
  "replication": {{"base_seed": {base_seed}, "replications": {replications}, "derivation": "splitmix"}},
  "ctx": {{"release_mode": "online", "estimate_factor": 1.0}}
}}"#
            ),
        }
    }

    /// Check one cell's outcome.
    fn check(self, cell: &Cell) -> Result<(), String> {
        match self {
            Kind::OpenSteady => check_open(cell),
            Kind::TraceOnline => check_trace(cell),
        }
    }

    /// Time the layers of cell `idx` of `plan`, whose outcome is `cell`.
    fn layers(self, plan: &CampaignPlan, idx: usize, cell: &Cell) -> Result<Spans, String> {
        match self {
            Kind::OpenSteady => open_layers(plan, idx, cell),
            Kind::TraceOnline => trace_layers(plan, idx, cell),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad duration `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process CPU time of `f`, in ms, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c0 = process_cpu();
    let out = f();
    (out, ms(process_cpu() - c0))
}

fn parse_spec(text: &str) -> Result<CampaignSpec, String> {
    serde_json::from_str(text).map_err(|e| format!("spec: {e}"))
}

fn expand(text: &str) -> Result<CampaignPlan, String> {
    CampaignPlan::expand(&parse_spec(text)?, &CampaignOptions::default()).map_err(|e| e.to_string())
}

/// Expand the workload's campaign; returns the plan and the CPU seconds
/// the set-up took.
fn setup(kind: Kind, seed: u64) -> Result<(CampaignPlan, f64), String> {
    let (plan, cpu_ms) = timed(|| expand(&kind.spec(seed, CAMPAIGN_REPLICATIONS)));
    Ok((plan?, cpu_ms / 1e3))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Per-layer CPU times of one traced unit, in ms. Each layer but `exec`
/// is timed by calling it alone on the unit's inputs.
#[derive(Default)]
struct Spans {
    plan: f64,
    gen: f64,
    drive: f64,
    fold: f64,
    cache: f64,
    exec: f64,
}

/// What one unit of work produced.
struct UnitOut {
    /// CPU time of the unit, ms.
    cpu_ms: f64,
    /// Jobs the unit scheduled.
    jobs: u64,
    /// Layer times, in traced runs only.
    spans: Option<Spans>,
}

/// A workload's state: each unit runs one cell of its campaign plan.
struct PlanCells {
    kind: Kind,
    plan: CampaignPlan,
    cache: Option<CellCache>,
    /// The first unit's cell, serialized.
    first: Option<String>,
}

impl PlanCells {
    /// Run unit `k`, check its outputs, and when `trace` time its layers.
    fn unit(&mut self, k: u64, trace: bool) -> Result<UnitOut, String> {
        let plan = &self.plan;
        let idx = k as usize % plan.cells().len();
        let (cell, cpu_ms) = timed(|| plan.run_cell(idx));
        self.kind.check(&cell)?;
        let spans = if trace {
            let mut spans = self.kind.layers(plan, idx, &cell)?;
            let key = plan.cells()[idx].key.as_str();
            spans.cache = cache_round_trip(bench_cache(&mut self.cache)?, key, &cell)?;
            spans.exec = cpu_ms;
            Some(spans)
        } else {
            None
        };
        if k == 0 {
            self.first = Some(serde_json::to_string(&cell).map_err(|e| e.to_string())?);
        }
        Ok(UnitOut {
            cpu_ms,
            jobs: cell.n as u64,
            spans,
        })
    }

    /// Run the first unit's input again: it must give the same output.
    fn recheck(&self) -> Result<(), String> {
        let again = serde_json::to_string(&self.plan.run_cell(0)).map_err(|e| e.to_string())?;
        match &self.first {
            Some(first) if *first == again => Ok(()),
            Some(_) => Err("cell 0 gave different output on its second run".into()),
            None => Err("cell 0 never completed".into()),
        }
    }
}

fn check_open(cell: &Cell) -> Result<(), String> {
    if cell.n != OPEN_COMPLETIONS {
        return Err(format!(
            "open cell counted {} completions, expected {OPEN_COMPLETIONS}",
            cell.n
        ));
    }
    // The stream offers ρ = 0.9 of the machine; a stable drive keeps it
    // busy close to that share of the time.
    if !(0.7..=1.0).contains(&cell.utilization) {
        return Err(format!("utilization {} far from ρ = 0.9", cell.utilization));
    }
    let responses = cell
        .responses
        .as_ref()
        .ok_or("open cell without response distributions")?;
    if responses.len() != 2 {
        return Err(format!("{} response classes, expected 2", responses.len()));
    }
    for r in responses {
        let ordered = r.p50_flow_s <= r.p95_flow_s && r.p95_flow_s <= r.p99_flow_s;
        let plausible = r.n > 0 && r.mean_flow_s > 0.0 && ordered && r.max_slowdown >= 1.0;
        if !plausible {
            return Err(format!("class {}: implausible response {r:?}", r.class));
        }
    }
    Ok(())
}

fn check_trace(cell: &Cell) -> Result<(), String> {
    // `run_cell` validates the retained schedule itself and panics on an
    // invalid one; here the outcome is held against its lower bounds.
    if cell.n != TRACE_JOBS {
        return Err(format!(
            "trace cell has {} jobs, expected {TRACE_JOBS}",
            cell.n
        ));
    }
    for (name, ratio) in [
        ("cmax", cell.cmax_ratio),
        ("csum", cell.csum_ratio),
        ("wsum", cell.wsum_ratio),
    ] {
        if !(ratio.is_finite() && ratio >= 1.0 - 1e-9) {
            return Err(format!("{name} ratio {ratio} is below its lower bound"));
        }
    }
    if !(cell.utilization > 0.0 && cell.utilization <= 1.0 + 1e-9) {
        return Err(format!("utilization {} out of (0, 1]", cell.utilization));
    }
    Ok(())
}

/// Time the result folding of one cell: the raw and aggregate CSVs.
fn fold_ms(cell: &Cell) -> f64 {
    let cells = std::slice::from_ref(cell);
    timed(|| black_box((to_csv(cells), aggregate_csv(cells)))).1
}

fn open_layers(plan: &CampaignPlan, idx: usize, cell: &Cell) -> Result<Spans, String> {
    let c = &plan.cells()[idx];
    let spec = plan.spec();
    let WorkloadSource::Open(open) = &spec.workloads[c.entry].source else {
        return Err("open-steady expects an open workload".into());
    };
    let m = spec.platforms[c.platform].m;
    let ctx = spec.ctx.to_policy_ctx();
    let policy = by_name(&spec.policies[c.policy]).ok_or("unknown policy")?;
    let (one, plan_ms) = timed(|| expand(&Kind::OpenSteady.spec(c.seed, 1)));
    black_box(one?);
    let (out, drive_ms) = timed(|| des_online_open(policy.as_ref(), open, m, &ctx, c.seed));
    if out.completions != cell.n as u64 {
        return Err("the direct drive disagrees with the cell".into());
    }
    // The drive draws its arrivals lazily; draw the same ones alone and
    // attribute the rest of the drive to the engine.
    let ((), gen_ms) = timed(|| {
        let mut stream = open.stream.stream(m, SimRng::seed_from(c.seed));
        for _ in 0..out.arrivals {
            black_box(stream.next_job());
        }
    });
    Ok(Spans {
        plan: plan_ms,
        gen: gen_ms,
        drive: drive_ms - gen_ms,
        fold: fold_ms(cell),
        ..Spans::default()
    })
}

fn trace_layers(plan: &CampaignPlan, idx: usize, cell: &Cell) -> Result<Spans, String> {
    let c = &plan.cells()[idx];
    let spec = plan.spec();
    let WorkloadSource::Family { family, n } = &spec.workloads[c.entry].source else {
        return Err("trace-online expects a family workload".into());
    };
    let generate = builtin_family(family, *n).ok_or("unknown family")?;
    let m = spec.platforms[c.platform].m;
    let ctx = spec.ctx.to_policy_ctx();
    let policy = by_name(&spec.policies[c.policy]).ok_or("unknown policy")?;
    let (one, plan_ms) = timed(|| expand(&Kind::TraceOnline.spec(c.seed, 1)));
    black_box(one?);
    let (jobs, gen_ms) = timed(|| generate(m, &mut SimRng::seed_from(c.seed)));
    let (run, drive_ms) = timed(|| des_online(policy.as_ref(), &jobs, m, &ctx));
    if run.records.len() != cell.n {
        return Err("the direct drive disagrees with the cell".into());
    }
    Ok(Spans {
        plan: plan_ms,
        gen: gen_ms,
        drive: drive_ms,
        fold: fold_ms(cell),
        ..Spans::default()
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut reference = Reference::new();
    reference.run();
    let scale = |ref_ms: f64| REF_MS / ref_ms;
    let r = reference.run();
    let (plan, secs) = setup(args.kind, args.seed)?;
    let mut setups = vec![secs * scale(r)];
    let mut w = PlanCells {
        kind: args.kind,
        plan,
        cache: None,
        first: None,
    };
    let (mut attempted, mut failed, mut jobs) = (0u64, 0u64, 0u64);
    // Raw and scaled unit CPU times, and the reference time before each.
    let (mut units, mut scaled, mut refs) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut k = 0u64;
    while k < WARMUP_UNITS + MIN_UNITS || start.elapsed() < budget {
        let r = reference.run();
        if start.elapsed() >= budget * setups.len() as u32 / SETUPS {
            let (plan, secs) = setup(args.kind, args.seed)?;
            w.plan = plan;
            setups.push(secs * scale(r));
        }
        attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| w.unit(k, args.trace))) {
            Ok(Ok(out)) => {
                if k >= WARMUP_UNITS {
                    units.push(out.cpu_ms);
                    scaled.push(out.cpu_ms * scale(r));
                    refs.push(r);
                    jobs += out.jobs;
                    spans.extend(out.spans);
                }
            }
            Ok(Err(e)) => {
                failed += 1;
                eprintln!("unit {k}: {e}");
            }
            Err(_) => {
                failed += 1;
                eprintln!("unit {k}: panicked");
            }
        }
        k += 1;
    }
    while setups.len() < SETUPS as usize {
        let r = reference.run();
        setups.push(setup(args.kind, args.seed)?.1 * scale(r));
    }
    attempted += 1;
    let recheck =
        catch_unwind(AssertUnwindSafe(|| w.recheck())).unwrap_or_else(|_| Err("panicked".into()));
    if let Err(e) = recheck {
        failed += 1;
        eprintln!("recheck: {e}");
    }
    if units.is_empty() {
        return Err("no unit completed".into());
    }
    let per_unit = |f: fn(&Spans) -> f64| median(&spans.iter().map(f).collect::<Vec<f64>>());
    let metrics = if args.trace {
        vec![
            metric("plan_ms", per_unit(|s| s.plan), "ms"),
            metric("gen_ms", per_unit(|s| s.gen), "ms"),
            metric("drive_ms", per_unit(|s| s.drive), "ms"),
            metric("fold_ms", per_unit(|s| s.fold), "ms"),
            metric("cache_ms", per_unit(|s| s.cache), "ms"),
            metric("exec_ms", per_unit(|s| s.exec), "ms"),
            metric("units", units.len() as f64, "count"),
            metric("ref_ms", median(&refs), "ms"),
            metric("jobs", jobs as f64 / units.len() as f64, "count"),
        ]
    } else {
        if units.len() < 100 {
            eprintln!(
                "note: {} timed units; the p90 has fewer than ten beyond it",
                units.len()
            );
        }
        eprintln!(
            "raw CPU ms: unit median {} p90 {}, reference median {}",
            median(&units),
            percentile(&units, 0.9),
            median(&refs)
        );
        vec![
            metric("unit_ms", median(&scaled), "ms"),
            metric("unit_p90_ms", percentile(&scaled, 0.9), "ms"),
            metric("setup_s", median(&setups), "s"),
        ]
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    eprintln!(
        "{} units timed, {attempted} attempted, {failed} failed",
        units.len()
    );
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    remove_scratch();
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
