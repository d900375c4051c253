//! A campaign built in code: cross the whole policy registry with the two
//! Fig. 2 workload families over three seeds on one 64-processor platform,
//! get every §3 criterion and the standard CSV, with every schedule
//! validated on the way.
//!
//! ```sh
//! cargo run --example experiment_runner --release
//! ```

use lsps_core::policy::registry;
use lsps_scenario::runner::{print_cells, summarize_by};
use lsps_scenario::spec::{
    PlatformSpec, ReplicationSpec, SeedDerivation, WorkloadEntry, WorkloadSource,
};
use lsps_scenario::{run_campaign, CampaignOptions, CampaignSpec};
use lsps_workload::WorkloadSpec;

fn main() {
    let mut spec = CampaignSpec::new("experiment-runner");
    spec.policies = registry().iter().map(|p| p.name().to_string()).collect();
    spec.platforms = vec![PlatformSpec {
        name: "cluster".into(),
        m: 64,
        speeds: None,
    }];
    spec.workloads = vec![
        WorkloadEntry {
            name: "parallel".into(),
            source: WorkloadSource::Spec(WorkloadSpec::fig2_parallel(120)),
            seed: None,
        },
        WorkloadEntry {
            name: "sequential".into(),
            source: WorkloadSource::Spec(WorkloadSpec::fig2_sequential(120)),
            seed: None,
        },
    ];
    // Seeds 0, 1 and 2 for every workload entry.
    spec.replication = ReplicationSpec {
        base_seed: 0,
        replications: 3,
        derivation: SeedDerivation::Sequential,
    };
    let report = run_campaign(&spec, &CampaignOptions::default()).expect("valid campaign");
    let cells = report.cells;

    print_cells(&cells);
    println!("\nmean Cmax ratio per policy over all cells:");
    for (policy, summary) in summarize_by(&cells, |c| c.policy.clone(), |c| c.cmax_ratio) {
        println!("  {policy:<22} {:.3}", summary.mean());
    }
}
