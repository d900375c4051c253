//! `lsps-campaign` — run a declarative campaign spec.
//!
//! ```text
//! lsps-campaign <spec.json> [--dry-run] [--no-cache] [--threads N] [--cache-dir DIR]
//! ```
//!
//! Reads a JSON [`CampaignSpec`], expands the grid, serves every cell it
//! can from the content-addressed cache (default `results/cache/`), runs
//! the rest through the worker pool, and writes two CSVs under `results/`:
//! `<name>.csv` (raw per-cell rows, standard runner schema) and
//! `<name>_agg.csv` (replications aggregated with mean/std/ci95/min/
//! median/max per metric). Output is byte-identical whether cells came
//! from the cache or fresh execution, so re-running after an interruption
//! *is* resume; `--no-cache` turns the cache off.
//!
//! `--dry-run` stops after expansion: it prints the cell count, how many
//! cells the cache would serve, and a per-group breakdown (the same
//! [`CampaignPlan`] surface the `lsps-campaignd` daemon shards on) without
//! executing anything or writing any file.

use std::path::PathBuf;
use std::process::ExitCode;

use lsps_scenario::campaign::aggregate_header;
use lsps_scenario::{
    results_dir, run_campaign, write_file_atomic, CampaignOptions, CampaignPlan, CampaignSpec,
    Table,
};

struct Args {
    spec_path: PathBuf,
    dry_run: bool,
    no_cache: bool,
    threads: usize,
    cache_dir: Option<PathBuf>,
}

const USAGE: &str =
    "usage: lsps-campaign <spec.json> [--dry-run] [--no-cache] [--threads N] [--cache-dir DIR]";

/// `Ok(None)` means help was requested: print usage to stdout, exit 0.
fn parse_args() -> Result<Option<Args>, String> {
    let mut spec_path = None;
    let mut dry_run = false;
    let mut no_cache = false;
    let mut threads = 0usize;
    let mut cache_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--dry-run" => dry_run = true,
            "--no-cache" => no_cache = true,
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(
                    argv.next().ok_or("--cache-dir needs a value")?,
                ));
            }
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => {
                if spec_path.replace(PathBuf::from(other)).is_some() {
                    return Err("exactly one spec path expected".into());
                }
            }
        }
    }
    Ok(Some(Args {
        spec_path: spec_path.ok_or(USAGE)?,
        dry_run,
        no_cache,
        threads,
        cache_dir,
    }))
}

fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        println!("{USAGE}");
        return Ok(());
    };
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| format!("{}: {e}", args.spec_path.display()))?;
    let spec: CampaignSpec =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", args.spec_path.display()))?;
    let results = results_dir();
    let opts = CampaignOptions {
        cache_dir: (!args.no_cache).then(|| {
            args.cache_dir
                .clone()
                .unwrap_or_else(|| results.join("cache"))
        }),
        threads: args.threads,
        base_dir: args.spec_path.parent().map(PathBuf::from),
    };
    // Survey the cache up front with the stray-file-tolerant listing: a
    // long-lived cache dir full of editor droppings must not kill the run.
    if let Some(dir) = &opts.cache_dir {
        match lsps_scenario::cache::CellCache::new(dir) {
            Ok(cache) => println!(
                "cache: {} shards under {}",
                cache.shard_names().len(),
                dir.display()
            ),
            Err(e) => eprintln!("[warn] cache dir {}: {e}", dir.display()),
        }
    }
    println!(
        "campaign `{}`: {} cells ({} policies x {} executors x {} platforms x {} workload reps)",
        spec.name,
        spec.cell_count(),
        spec.policies.len(),
        spec.executors.len(),
        spec.platforms.len(),
        spec.workload_reps(),
    );
    if args.dry_run {
        return dry_run(&spec, &opts);
    }
    let report = run_campaign(&spec, &opts).map_err(|e| e.to_string())?;

    // Aggregate table on stdout: the campaign-level view.
    let mut table = Table::new(&[
        "policy",
        "executor",
        "workload",
        "platform",
        "reps",
        "Cmax ratio",
        "±ci95",
        "sWC ratio",
        "util %",
    ]);
    for line in report.aggregate_csv.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        let col = |name: &str| {
            let idx = aggregate_header()
                .split(',')
                .position(|h| h == name)
                .expect("known aggregate column");
            f[idx].to_string()
        };
        let pct = |s: &str| format!("{:.1}", s.parse::<f64>().unwrap_or(f64::NAN) * 100.0);
        table.row(vec![
            f[0].into(),
            f[1].into(),
            f[2].into(),
            f[3].into(),
            f[5].into(),
            col("cmax_ratio_mean"),
            col("cmax_ratio_ci95"),
            col("wsum_ratio_mean"),
            pct(&col("utilization_mean")),
        ]);
    }
    table.print();

    let raw = write_file_atomic(&results, &format!("{}.csv", spec.name), &report.raw_csv);
    let agg = write_file_atomic(
        &results,
        &format!("{}_agg.csv", spec.name),
        &report.aggregate_csv,
    );
    println!("\n[written] {}", raw.display());
    println!("[written] {}", agg.display());
    println!(
        "cache: {}/{} cells served from cache, {} executed; cache-hit-rate: {:.1}%",
        report.cache_hits,
        report.total,
        report.total - report.cache_hits,
        report.hit_rate(),
    );
    Ok(())
}

/// Expand the spec and report what a real run would do — cell count,
/// cache hits, per-group breakdown — without executing a single cell.
fn dry_run(spec: &CampaignSpec, opts: &CampaignOptions) -> Result<(), String> {
    let plan = CampaignPlan::expand(spec, opts).map_err(|e| e.to_string())?;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(lsps_scenario::cache::CellCache::new(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    // Group in canonical cell order by (executor, platform, workload): the
    // same axes the aggregate table groups on, minus the policy (each group
    // spans the whole policy set).
    let mut order: Vec<(String, String, String)> = Vec::new();
    let mut counts: std::collections::HashMap<(String, String, String), (usize, usize)> =
        std::collections::HashMap::new();
    let mut cached = 0usize;
    for cell in plan.cells() {
        let key = (
            cell.executor.name().to_string(),
            spec.platforms[cell.platform].name.clone(),
            spec.workloads[cell.entry].name.clone(),
        );
        let hit = cache.as_ref().is_some_and(|c| c.load(&cell.key).is_some());
        cached += hit as usize;
        let e = counts.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (0, 0)
        });
        e.0 += 1;
        e.1 += hit as usize;
    }
    let mut table = Table::new(&["executor", "platform", "workload", "cells", "cached"]);
    for key in order {
        let (total, hits) = counts[&key];
        table.row(vec![
            key.0,
            key.1,
            key.2,
            total.to_string(),
            hits.to_string(),
        ]);
    }
    table.print();
    println!(
        "\ndry-run: {} cells, {} cached ({:.1}%), {} to execute — nothing run, nothing written",
        plan.cells().len(),
        cached,
        if plan.cells().is_empty() {
            100.0
        } else {
            100.0 * cached as f64 / plan.cells().len() as f64
        },
        plan.cells().len() - cached,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
