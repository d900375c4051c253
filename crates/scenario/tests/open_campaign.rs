//! Open-arrival campaign end-to-end: a steady-state spec drives the open
//! DES executor through the declarative layer, per-class response
//! distributions land in the aggregate CSV, and the cell cache makes a
//! warm rerun byte-identical — the same contract the finite campaigns
//! keep in `campaign_cache.rs`.

use std::fs;
use std::path::{Path, PathBuf};

use lsps_scenario::spec::WorkloadSource;
use lsps_scenario::{run_campaign, CampaignError, CampaignOptions, CampaignPlan, CampaignSpec};

/// A trimmed heavy-traffic spec: small completion targets so the drive is
/// cheap under the debug profile, but the same shape as the checked-in
/// `examples/heavy_traffic_campaign.json`.
const SPEC: &str = r#"{
    "name": "open-smoke",
    "policies": ["backfill-easy"],
    "executors": ["des-online"],
    "platforms": [{"name": "m32", "m": 32}],
    "workloads": [
        {"name": "rho-0.70", "source": {"Open": {
            "stream": {
                "rho": 0.7,
                "arrival": "Poisson",
                "classes": [
                    {"name": "narrow", "mix": 3.0,
                     "width": {"Fixed": 1.0}, "service_s": {"Exp": 120.0}},
                    {"name": "wide", "mix": 1.0,
                     "width": {"Uniform": [2.0, 8.0]}, "service_s": {"Exp": 300.0}}
                ]
            },
            "stop_completions": 1500,
            "batches": 10
        }}},
        {"name": "rho-0.90", "source": {"Open": {
            "stream": {
                "rho": 0.9,
                "arrival": "Poisson",
                "classes": [
                    {"name": "narrow", "mix": 3.0,
                     "width": {"Fixed": 1.0}, "service_s": {"Exp": 120.0}},
                    {"name": "wide", "mix": 1.0,
                     "width": {"Uniform": [2.0, 8.0]}, "service_s": {"Exp": 300.0}}
                ]
            },
            "stop_completions": 1500,
            "batches": 10
        }}}
    ],
    "replication": {"base_seed": 77, "replications": 2, "derivation": "splitmix"},
    "ctx": {"release_mode": "online", "estimate_factor": 1.0}
}"#;

fn spec() -> CampaignSpec {
    let spec: CampaignSpec = serde_json::from_str(SPEC).expect("spec parses");
    spec.validate().expect("spec valid");
    spec
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lsps-open-campaign-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(cache: Option<PathBuf>) -> CampaignOptions {
    CampaignOptions {
        cache_dir: cache,
        threads: 0,
        base_dir: None,
    }
}

#[test]
fn open_campaign_emits_per_class_rows_and_warm_rerun_is_byte_identical() {
    let spec = spec();
    let cache = temp_dir("warm");
    let cold = run_campaign(&spec, &opts(Some(cache.clone()))).expect("cold run");
    assert_eq!(cold.total, spec.cell_count());
    assert_eq!(cold.cache_hits, 0, "cold cache serves nothing");

    // Response distributions are first-class aggregate output: the header
    // carries the per-class columns and every group emits one row per job
    // class, keyed by the class name from the stream spec.
    let mut lines = cold.aggregate_csv.lines();
    let header = lines.next().expect("header");
    for col in [
        "class",
        "resp_n",
        "resp_mean_s",
        "resp_ci95_s",
        "resp_p50_s",
        "resp_p95_s",
        "resp_p99_s",
        "resp_max_slowdown",
    ] {
        assert!(header.split(',').any(|c| c == col), "missing column {col}");
    }
    let rows: Vec<&str> = lines.collect();
    // 1 policy × 2 workloads × 2 classes = 4 rows.
    assert_eq!(rows.len(), 4, "one row per (group, class): {rows:?}");
    for class in ["narrow", "wide"] {
        assert_eq!(
            rows.iter()
                .filter(|r| r.split(',').any(|c| c == class))
                .count(),
            2,
            "one `{class}` row per group"
        );
    }
    // The response sample counts are post-warmup completions: with the
    // default 20% cut, the classes together keep 80% of the target.
    let n_col = header.split(',').position(|c| c == "resp_n").expect("col");
    let per_workload: u64 = rows
        .iter()
        .take(2)
        .map(|r| r.split(',').nth(n_col).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(per_workload, 1500 * 2 * 8 / 10, "2 reps × 80% of target");

    // Warm rerun: every cell from the cache, byte-identical CSVs.
    let warm = run_campaign(&spec, &opts(Some(cache.clone()))).expect("warm run");
    assert_eq!(warm.cache_hits, warm.total, "every cell cached");
    assert_eq!(cold.raw_csv, warm.raw_csv, "raw CSV byte-identical");
    assert_eq!(cold.aggregate_csv, warm.aggregate_csv, "agg byte-identical");

    // The cache is an accelerator, not an input: an uncached run agrees.
    let uncached = run_campaign(&spec, &opts(None)).expect("uncached run");
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(cold.raw_csv, uncached.raw_csv);
    assert_eq!(cold.aggregate_csv, uncached.aggregate_csv);
    fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn checked_in_open_specs_parse_and_validate() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    for (file, cells) in [
        ("heavy_traffic_campaign.json", 12),
        ("open_1m_campaign.json", 1),
    ] {
        let text = fs::read_to_string(dir.join(file)).expect("checked-in spec");
        let spec: CampaignSpec = serde_json::from_str(&text).expect("parses");
        spec.validate().expect("valid");
        assert_eq!(spec.cell_count(), cells, "{file}");
    }
}

#[test]
fn an_open_horizon_that_admits_nothing_is_a_spec_error() {
    // A heavy-traffic workload cut at one millisecond: the spec itself is
    // well-formed, but no cell's stream releases a job that early, so the
    // campaign must fail at expansion with a spec error — not panic in a
    // worker thread mid-run.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/heavy_traffic_campaign.json");
    let mut spec: CampaignSpec =
        serde_json::from_str(&fs::read_to_string(path).expect("checked-in spec")).expect("parses");
    let WorkloadSource::Open(open) = &mut spec.workloads[0].source else {
        panic!("heavy-traffic workloads are open");
    };
    open.horizon_s = Some(0.001);
    spec.validate()
        .expect("a positive horizon passes validation");
    for err in [
        CampaignPlan::expand(&spec, &opts(None)).err(),
        run_campaign(&spec, &opts(None)).err(),
    ] {
        match err {
            Some(CampaignError::Spec(e)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("horizon_s") && msg.contains("rho-0.70"),
                    "{msg}"
                );
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }
}
