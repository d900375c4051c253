//! "Which policy for which application?" — the paper's question, answered
//! for every cell of the (application × objective) matrix, and made
//! runnable: each recommendation is instantiated into the `Policy` object
//! a campaign would execute.
//!
//! ```sh
//! cargo run --example policy_advisor
//! ```

use lsps::prelude::*;

fn main() {
    let apps = [
        Application::SequentialBag,
        Application::RigidParallel,
        Application::Moldable,
        Application::DivisibleLoad,
    ];
    let objectives = [
        Objective::Makespan,
        Objective::WeightedCompletion,
        Objective::BiCriteria,
        Objective::Throughput,
        Objective::GridFairness,
    ];
    for app in apps {
        println!("== {app:?}");
        for obj in objectives {
            let r = advise(app, obj, true);
            let g = r
                .guarantee
                .map(|g| format!(" [ratio {g}]"))
                .unwrap_or_default();
            let runnable = r
                .policy
                .instantiate()
                .map(|p| format!("registry `{}`", p.name()))
                .unwrap_or_else(|| "event-driven layer (lsps-dlt / lsps-grid)".into());
            println!("  {obj:?} -> {:?}{g}  ({runnable})", r.policy);
            println!("      {}", r.rationale);
        }
        println!();
    }

    // The recommendations are not just labels: run the moldable-makespan
    // pick on a small workload right here.
    let rec = advise(Application::Moldable, Objective::Makespan, true);
    let policy = rec.policy.instantiate().expect("PT recommendation");
    let mut rng = SimRng::seed_from(1);
    let jobs = WorkloadSpec::fig2_parallel(40).generate(32, &mut rng);
    let run = policy.run(&jobs, 32, &PolicyCtx::default());
    run.validate().expect("valid schedule");
    let crit = Criteria::evaluate(&run.schedule.completed(&run.jobs));
    println!(
        "ran `{}` on 40 moldable jobs / 32 procs: Cmax {:.1}s, mean flow {:.1}s",
        policy.name(),
        crit.cmax,
        crit.mean_flow
    );
}
