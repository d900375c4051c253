//! The checked-in volatile campaign end to end: the `failures` axis runs
//! cold and warm (100% cache hits, byte-identical CSVs), the aggregate
//! grows the failure columns, and the zero-failure entries reproduce the
//! reliable campaign's rows byte for byte.

use std::fs;
use std::path::{Path, PathBuf};

use lsps_scenario::campaign::{aggregate_header, aggregate_header_for};
use lsps_scenario::{run_campaign, CampaignOptions, CampaignPlan, CampaignSpec, FailureEntry};

fn example_spec() -> (CampaignSpec, PathBuf) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/volatile_campaign.json");
    let text = fs::read_to_string(&path).expect("checked-in example spec");
    let spec: CampaignSpec = serde_json::from_str(&text).expect("example spec parses");
    (spec, path.parent().expect("spec dir").to_path_buf())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lsps-volatile-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(base_dir: &Path, cache: Option<PathBuf>) -> CampaignOptions {
    CampaignOptions {
        cache_dir: cache,
        threads: 0,
        base_dir: Some(base_dir.to_path_buf()),
    }
}

#[test]
fn checked_in_volatile_spec_parses_validates_and_counts() {
    let (spec, base) = example_spec();
    CampaignPlan::expand(&spec, &opts(&base, None)).expect("valid");
    assert!(spec.is_volatile());
    // 2 policies × 1 executor × (1 platform × 5 failure entries) × 1
    // workload × 2 replications.
    assert_eq!(spec.cell_count(), 20);
    // Round-trip through canonical JSON keeps the axis.
    let back: CampaignSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(back, spec);
}

#[test]
fn volatile_warm_rerun_is_fully_cached_and_byte_identical() {
    let (spec, base) = example_spec();
    let cache = temp_dir("warm");
    let cold = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("cold run");
    assert_eq!(cold.total, spec.cell_count());
    assert_eq!(cold.cache_hits, 0, "cold cache serves nothing");
    let warm = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("warm run");
    assert_eq!(warm.cache_hits, warm.total, "every cell cached");
    assert_eq!(cold.raw_csv, warm.raw_csv, "raw CSV byte-identical");
    assert_eq!(
        cold.aggregate_csv, warm.aggregate_csv,
        "aggregate CSV byte-identical"
    );
    // The cache is an accelerator, not an input: an uncached run agrees.
    let uncached = run_campaign(&spec, &opts(&base, None)).expect("uncached run");
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(cold.raw_csv, uncached.raw_csv);
    assert_eq!(cold.aggregate_csv, uncached.aggregate_csv);
    fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn aggregate_grows_failure_columns_and_reliable_rows_match_baseline() {
    let (spec, base) = example_spec();
    let volatile = run_campaign(&spec, &opts(&base, None)).expect("volatile run");

    // The aggregate header carries the failure block; the per-entry rows
    // land under suffixed platform names.
    let mut lines = volatile.aggregate_csv.lines();
    let header = lines.next().expect("header");
    assert_eq!(header, aggregate_header_for(true));
    for col in ["fail_goodput", "fail_wasted_ticks", "fail_resubmits"] {
        assert!(header.split(',').any(|c| c == col), "missing column {col}");
    }
    let goodput_col = header
        .split(',')
        .position(|c| c == "fail_goodput")
        .expect("col");
    let resub_col = header
        .split(',')
        .position(|c| c == "fail_resubmits")
        .expect("col");
    let plat_col = header
        .split(',')
        .position(|c| c == "platform")
        .expect("col");
    let rows: Vec<&str> = lines.collect();
    // 2 policies × (1 reliable + 4 volatile) platform rows.
    assert_eq!(rows.len(), 10, "one row per (policy, platform): {rows:?}");
    let mut total_resubmits = 0.0;
    for row in &rows {
        let cols: Vec<&str> = row.split(',').collect();
        if cols[plat_col].contains('+') {
            let goodput: f64 = cols[goodput_col].parse().expect("non-empty goodput");
            assert!(goodput > 0.0 && goodput <= 1.0, "goodput in (0,1]: {row}");
            total_resubmits += cols[resub_col].parse::<f64>().expect("non-empty resubmits");
        } else {
            assert!(cols[goodput_col].is_empty(), "reliable rows leave it blank");
        }
    }
    assert!(
        total_resubmits > 0.0,
        "the regimes actually kill jobs somewhere in the grid"
    );

    // Dropping the axis reproduces today's campaign byte for byte: same
    // raw rows (the reliable subset) and the pre-axis aggregate header.
    let mut baseline_spec = spec.clone();
    baseline_spec.failures = vec![FailureEntry::reliable()];
    let baseline = run_campaign(&baseline_spec, &opts(&base, None)).expect("baseline run");
    assert!(baseline.aggregate_csv.starts_with(&aggregate_header()));
    let reliable_rows: Vec<&str> = volatile
        .raw_csv
        .lines()
        .filter(|l| !l.split(',').nth(4).is_some_and(|p| p.contains('+')))
        .collect();
    assert_eq!(
        reliable_rows,
        baseline.raw_csv.lines().collect::<Vec<_>>(),
        "zero-failure cells reproduce the reliable campaign's raw rows"
    );
    // Aggregate: the reliable group's row is the baseline row plus the
    // empty failure block.
    let empty_block = ",".repeat(4);
    for b in baseline.aggregate_csv.lines().skip(1) {
        let expected = format!("{b}{empty_block}");
        assert!(
            volatile.aggregate_csv.lines().any(|l| l == expected),
            "baseline aggregate row survives under the axis: {b}"
        );
    }
}
