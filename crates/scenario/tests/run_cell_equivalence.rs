//! The single-cell path the campaign workers take is the batch path:
//! `CampaignPlan::run_cell(i)` and any `run_cells` subset, at any thread
//! count, reproduce cell `i` of a full `run_campaign` byte for byte — on
//! finite, outcome-kind and volatile checked-in specs.

use std::fs;
use std::path::Path;

use lsps_scenario::{run_campaign, CampaignOptions, CampaignPlan, CampaignSpec, Cell};

fn json(cell: &Cell) -> String {
    serde_json::to_string(cell).expect("cells serialize")
}

fn check(spec_file: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(spec_file);
    let text = fs::read_to_string(&path).expect("checked-in example spec");
    let spec: CampaignSpec = serde_json::from_str(&text).expect("example spec parses");
    let opts = CampaignOptions {
        base_dir: path.parent().map(Path::to_path_buf),
        ..CampaignOptions::default()
    };
    let full = run_campaign(&spec, &opts).expect("campaign runs");
    let plan = CampaignPlan::expand(&spec, &opts).expect("spec expands");
    assert_eq!(plan.cells().len(), full.cells.len(), "{spec_file}");
    for (i, cell) in full.cells.iter().enumerate() {
        assert_eq!(json(&plan.run_cell(i)), json(cell), "{spec_file}: cell {i}");
    }
    // Reversed and non-contiguous: every third cell, last first.
    let subset: Vec<usize> = (0..full.cells.len()).rev().step_by(3).collect();
    assert!(subset.len() > 1, "{spec_file}: the subset spans cells");
    let partial = plan.run_cells(&subset, 3);
    assert_eq!(partial.len(), subset.len());
    for (cell, &i) in partial.iter().zip(&subset) {
        assert_eq!(json(cell), json(&full.cells[i]), "{spec_file}: cell {i}");
    }
}

#[test]
fn run_cell_matches_the_full_run_on_the_small_campaign() {
    check("small_campaign.json");
}

#[test]
fn run_cell_matches_the_full_run_on_the_outcomes_campaign() {
    check("outcomes_campaign.json");
}

#[test]
fn run_cell_matches_the_full_run_on_the_volatile_campaign() {
    check("volatile_campaign.json");
}
