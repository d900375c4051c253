//! Spec fuzzing at the campaign boundary: a spec that parses either
//! expands or comes back as one error — it never panics or aborts — and a
//! spec that expands runs.
//!
//! The edge values are the ones that broke earlier bounds: zero, a
//! negative, a subnormal-scale positive, sizes past the job bound, times
//! past the job-time bound, and the first `u64` past `i64::MAX`.

use std::fs;
use std::path::{Path, PathBuf};

use lsps_metrics::WarmupSpec;
use lsps_scenario::spec::{PlatformSpec, WorkloadEntry, WorkloadSource};
use lsps_scenario::{CampaignOptions, CampaignPlan, CampaignSpec, Executor, OpenEntry};
use lsps_workload::{DistSpec, JobClass, OpenArrival, OpenStreamSpec};
use proptest::prelude::*;
use serde::{Deserialize, Value};

/// Integers where a count can take them (an integer leaf rejects a float
/// at parse time), floats where only a float fits.
const EDGES: [Value; 6] = [
    Value::UInt(0),
    Value::Int(-1),
    Value::Float(1e-300),
    Value::UInt(1_000_000_000_000),
    Value::Float(1e300),
    Value::UInt(1 << 63),
];

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

/// Every numeric leaf of `v`, as a path of child indices.
fn numeric_leaves(v: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let children: Vec<&Value> = match v {
        Value::UInt(_) | Value::Int(_) | Value::Float(_) => return out.push(path.clone()),
        Value::Seq(items) => items.iter().collect(),
        Value::Map(fields) => fields.iter().map(|(_, x)| x).collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        numeric_leaves(child, path, out);
        path.pop();
    }
}

fn leaf_mut<'v>(v: &'v mut Value, path: &[usize]) -> &'v mut Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Seq(items) => &mut items[i],
        Value::Map(fields) => &mut fields[i].1,
        _ => unreachable!("paths only run through containers"),
    })
}

#[test]
fn every_numeric_leaf_of_every_example_expands_or_errs() {
    let opts = CampaignOptions {
        base_dir: Some(examples_dir()),
        ..CampaignOptions::default()
    };
    let mut specs = 0;
    for file in fs::read_dir(examples_dir()).expect("examples dir") {
        let path = file.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("checked-in spec");
        let tree: Value = serde_json::from_str(&text).expect("checked-in spec is JSON");
        let mut leaves = Vec::new();
        numeric_leaves(&tree, &mut Vec::new(), &mut leaves);
        for leaf in &leaves {
            for edge in &EDGES {
                let mut v = tree.clone();
                *leaf_mut(&mut v, leaf) = edge.clone();
                if let Ok(spec) = CampaignSpec::from_value(&v) {
                    // Ok or Err are both fine; a panic fails the test.
                    let _ = CampaignPlan::expand(&spec, &opts);
                }
            }
        }
        specs += 1;
    }
    assert!(specs >= 8, "only {specs} example specs found");
}

/// `x` or, as often, one of the edge values.
fn edge_or(x: f64) -> impl Strategy<Value = f64> {
    (0..2 * EDGES.len()).prop_map(move |i| match EDGES.get(i) {
        None => x,
        Some(&Value::UInt(n)) => n as f64,
        Some(&Value::Int(n)) => n as f64,
        Some(&Value::Float(f)) => f,
        Some(_) => unreachable!("edges are numbers"),
    })
}

/// A one-class open campaign on eight processors.
fn open_spec(rho: f64, width: DistSpec, service_s: DistSpec, stop: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new("fuzz");
    spec.policies = vec!["backfill-easy".into()];
    spec.executors = vec![Executor::DesOnline];
    spec.platforms = vec![PlatformSpec {
        name: "m8".into(),
        m: 8,
        speeds: None,
    }];
    spec.workloads = vec![WorkloadEntry {
        name: "stream".into(),
        source: WorkloadSource::Open(OpenEntry {
            stream: OpenStreamSpec {
                rho,
                arrival: OpenArrival::Poisson,
                classes: vec![JobClass {
                    name: "only".into(),
                    mix: 1.0,
                    width,
                    service_s,
                }],
            },
            stop_completions: stop,
            horizon_s: None,
            warmup: WarmupSpec::Fraction(0.2),
            batches: 4,
        }),
        seed: Some(3),
    }];
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    /// Whenever expansion accepts an open stream, its drive finishes.
    #[test]
    fn accepted_open_streams_drive_to_their_stop(
        rho in edge_or(0.5),
        width in (edge_or(1.0), edge_or(4.0), any::<bool>()),
        service in (edge_or(60.0), edge_or(600.0), 0usize..3),
        stop in 1u64..=50,
    ) {
        let width = match width {
            (w, _, false) => DistSpec::Fixed(w),
            (lo, hi, true) => DistSpec::Uniform(lo, hi),
        };
        let service_s = match service {
            (s, _, 0) => DistSpec::Exp(s),
            (s, _, 1) => DistSpec::Fixed(s),
            (lo, hi, _) => DistSpec::LogUniform(lo, hi),
        };
        let spec = open_spec(rho, width, service_s, stop);
        if let Ok(plan) = CampaignPlan::expand(&spec, &CampaignOptions::default()) {
            let cell = plan.run_cell(0);
            prop_assert!(cell.n as u64 >= stop, "{} completions of {stop}", cell.n);
        }
    }
}
