//! Reproducibility: every layer of the stack must produce bit-identical
//! results from the same seed — the property EXPERIMENTS.md relies on.

use lsps::core::policy::registry;
use lsps::dlt::selfsched::best_chunk;
use lsps::grid::cigri::run_cigri;
use lsps::grid::exchange::{run_exchange, ExchangeParams};
use lsps::grid::scenario::{ciment_locals, ciment_scenario, ScenarioParams};
use lsps::platform::presets;
use lsps::prelude::*;
use lsps::scenario::runner::{to_csv, Executor};
use lsps::scenario::spec::{PlatformSpec, WorkloadEntry, WorkloadSource};
use lsps::scenario::{run_campaign, CampaignOptions, CampaignSpec};

#[test]
fn workload_generation_is_deterministic() {
    let spec = WorkloadSpec::fig2_parallel(100);
    let a = spec.generate(100, &mut SimRng::seed_from(9));
    let b = spec.generate(100, &mut SimRng::seed_from(9));
    assert_eq!(a, b);
}

#[test]
fn policies_are_deterministic() {
    let jobs = WorkloadSpec::fig2_parallel(80).generate(64, &mut SimRng::seed_from(4));
    let a = bicriteria_schedule(&jobs, 64, BiCriteriaParams::default());
    let b = bicriteria_schedule(&jobs, 64, BiCriteriaParams::default());
    assert_eq!(a, b);

    let zeroed: Vec<Job> = jobs
        .iter()
        .map(|j| {
            let mut c = j.clone();
            c.release = Time::ZERO;
            c
        })
        .collect();
    let a = mrt_schedule(&zeroed, 64, MrtParams::default());
    let b = mrt_schedule(&zeroed, 64, MrtParams::default());
    assert_eq!(a, b);
}

#[test]
fn grid_simulations_are_deterministic() {
    let p = presets::ciment();
    let mk = || ciment_locals(&p, 10, &mut SimRng::seed_from(2));
    let c = Campaign::new(1, 200, Dur::from_secs(60));
    let a = run_cigri(&p, mk(), vec![c.clone()], Dur::from_secs(30), true);
    let b = run_cigri(&p, mk(), vec![c], Dur::from_secs(30), true);
    assert_eq!(a.local_records, b.local_records);
    assert_eq!(a.kills, b.kills);
    assert_eq!(a.be_completed, b.be_completed);
    assert_eq!(a.campaign_done_at, b.campaign_done_at);
}

#[test]
fn exchange_simulation_is_deterministic() {
    let p = presets::ciment();
    let mk = || -> Vec<(usize, Job)> {
        (0..40)
            .map(|i| (0usize, Job::sequential(i, Dur::from_secs(100 + i))))
            .collect()
    };
    let a = run_exchange(&p, mk(), ExchangeParams::default());
    let b = run_exchange(&p, mk(), ExchangeParams::default());
    assert_eq!(a.records, b.records);
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn online_executor_is_deterministic_including_the_parallel_runner() {
    // Two full sweeps of the same seeded workload through the online
    // event-driven executor must render byte-identical CSV — and the
    // worker-pool fan-out must not perturb a single byte either, whatever
    // the thread count. This is the guard against ordering nondeterminism
    // in the pool (results are slot-indexed, not completion-ordered).
    // DesOnline drives rectangle policies only (capability check).
    let mut spec = CampaignSpec::new("determinism");
    spec.policies = registry()
        .into_iter()
        .filter(|p| p.outcome_kind() == lsps::core::OutcomeKind::Rect)
        .map(|p| p.name().to_string())
        .collect();
    spec.executors = vec![Executor::DesOnline];
    spec.platforms = vec![PlatformSpec {
        name: "m32".into(),
        m: 32,
        speeds: None,
    }];
    spec.workloads = [
        ("fig2-par", WorkloadSpec::fig2_parallel(40)),
        ("fig2-seq", WorkloadSpec::fig2_sequential(40)),
    ]
    .into_iter()
    .map(|(name, ws)| WorkloadEntry {
        name: name.into(),
        source: WorkloadSource::Spec(ws),
        seed: Some(11),
    })
    .collect();
    let run = |threads: usize| {
        let opts = CampaignOptions {
            threads,
            ..CampaignOptions::default()
        };
        to_csv(&run_campaign(&spec, &opts).expect("campaign runs").cells)
    };
    let sequential = run(1);
    let sequential_again = run(1);
    assert_eq!(sequential, sequential_again, "two seeded runs diverged");
    for threads in [2, 4, 0] {
        let parallel = run(threads);
        assert_eq!(
            sequential, parallel,
            "worker pool (threads = {threads}) perturbed the output"
        );
    }
}

#[test]
fn dlt_sweeps_are_deterministic() {
    let ws: Vec<Worker> = (0..12)
        .map(|i| Worker::new(1.0 + (i % 3) as f64 * 0.2, 5.0, 0.01))
        .collect();
    let (c1, p1) = best_chunk(5_000.0, &ws);
    let (c2, p2) = best_chunk(5_000.0, &ws);
    assert_eq!(c1, c2);
    assert_eq!(p1, p2);
}

#[test]
fn full_scenario_is_deterministic() {
    let params = ScenarioParams {
        local_jobs_per_cluster: 8,
        campaign_runs: 100,
        ..Default::default()
    };
    let a = ciment_scenario(params);
    let b = ciment_scenario(params);
    assert_eq!(a.with_grid.local_records, b.with_grid.local_records);
    assert!((a.fairness - b.fairness).abs() < 1e-15);
}
