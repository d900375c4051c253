//! Campaign cache correctness: warm reruns are byte-identical, poisoned
//! shards are recomputed (never trusted), and resuming after an
//! interruption reproduces a cold run exactly — all on the checked-in
//! `examples/small_campaign.json`.

use std::fs;
use std::path::{Path, PathBuf};

use lsps_scenario::{run_campaign, CampaignOptions, CampaignSpec};

fn example_spec() -> (CampaignSpec, PathBuf) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/small_campaign.json");
    let text = fs::read_to_string(&path).expect("checked-in example spec");
    let spec: CampaignSpec = serde_json::from_str(&text).expect("example spec parses");
    (spec, path.parent().expect("spec dir").to_path_buf())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lsps-campaign-{tag}-{}-{:?}",
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
fn warm_rerun_is_fully_cached_and_byte_identical() {
    let (spec, base) = example_spec();
    let cache = temp_dir("warm");
    let cold = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("cold run");
    assert_eq!(cold.total, spec.cell_count());
    assert_eq!(cold.cache_hits, 0, "cold cache serves nothing");
    let warm = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("warm run");
    assert_eq!(warm.cache_hits, warm.total, "every cell cached");
    assert!((warm.hit_rate() - 100.0).abs() < 1e-12);
    assert_eq!(cold.raw_csv, warm.raw_csv, "raw CSV byte-identical");
    assert_eq!(
        cold.aggregate_csv, warm.aggregate_csv,
        "aggregate CSV byte-identical"
    );
    // The cache is an accelerator, not an input: an uncached run agrees.
    let uncached = run_campaign(&spec, &opts(&base, None)).expect("uncached run");
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(cold.raw_csv, uncached.raw_csv);
    fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn poisoned_shard_is_recomputed_not_trusted() {
    let (spec, base) = example_spec();
    let cache = temp_dir("poison");
    let cold = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("cold run");
    // Poison one shard: flip a digit inside the serialized cell without
    // touching the stored content hash.
    let shard = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("at least one shard");
    let text = fs::read_to_string(&shard).unwrap();
    let at = text.rfind("\"utilization\":").expect("cell payload") + "\"utilization\":".len();
    let mut bytes = text.into_bytes();
    let digit = bytes[at + 2]; // inside the float's digits
    bytes[at + 2] = if digit == b'9' { b'8' } else { b'9' };
    fs::write(&shard, &bytes).unwrap();
    let rerun = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("rerun");
    assert_eq!(
        rerun.cache_hits,
        rerun.total - 1,
        "exactly the poisoned cell recomputes"
    );
    assert_eq!(cold.raw_csv, rerun.raw_csv, "poison never reaches output");
    assert_eq!(cold.aggregate_csv, rerun.aggregate_csv);
    // The recomputation repaired the shard: next run is fully cached.
    let healed = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("healed");
    assert_eq!(healed.cache_hits, healed.total);
    fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn resume_after_interruption_matches_cold_run() {
    let (spec, base) = example_spec();
    let cache = temp_dir("resume");
    let cold = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("cold run");
    // Simulate an interrupted campaign: only half the shards survived.
    let mut shards: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    shards.sort();
    let removed = shards.len() / 2;
    for p in shards.iter().take(removed) {
        fs::remove_file(p).unwrap();
    }
    let resumed = run_campaign(&spec, &opts(&base, Some(cache.clone()))).expect("resume");
    assert_eq!(resumed.cache_hits, resumed.total - removed);
    assert_eq!(cold.raw_csv, resumed.raw_csv, "resume is byte-identical");
    assert_eq!(cold.aggregate_csv, resumed.aggregate_csv);
    fs::remove_dir_all(&cache).unwrap();
}

#[test]
fn aggregate_order_independent_of_thread_count() {
    // Aggregate row order is sorted on the canonical cell-order key (each
    // group's first cell index), so the worker-pool width — 1 thread vs 8 —
    // must never reorder (or otherwise alter) a single byte of output.
    let (spec, base) = example_spec();
    let single = run_campaign(
        &spec,
        &CampaignOptions {
            cache_dir: None,
            threads: 1,
            base_dir: Some(base.clone()),
        },
    )
    .expect("1-thread run");
    let wide = run_campaign(
        &spec,
        &CampaignOptions {
            cache_dir: None,
            threads: 8,
            base_dir: Some(base),
        },
    )
    .expect("8-thread run");
    assert_eq!(
        single.aggregate_csv, wide.aggregate_csv,
        "aggregate CSV must not depend on --threads"
    );
    assert_eq!(
        single.raw_csv, wide.raw_csv,
        "raw CSV must not depend on --threads"
    );
}
