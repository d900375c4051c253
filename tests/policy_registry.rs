//! Property-style coverage of the policy registry: **every** registered
//! policy, over seeded random rigid/moldable workloads, must produce a
//! schedule that validates and whose makespan respects the certified
//! area/critical-path lower bound. Plus the advisor round-trip:
//! `PolicyChoice::instantiate()` yields runnable `Box<dyn Policy>` values.

use lsps::core::advisor::{advise, Application, Objective, PolicyChoice};
use lsps::core::policy::{by_name, registry, PolicyCtx, ReleaseMode};
use lsps::prelude::*;

/// A random mixed workload: rigid and moldable jobs, scattered releases,
/// varied weights — the shape every policy must cope with.
fn random_workload(seed: u64, n: usize, m: usize) -> Vec<Job> {
    let mut rng = SimRng::seed_from(seed);
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            clock += rng.int_range(0, 150);
            let seq = Dur::from_ticks(rng.int_range(20, 3_000));
            let job = if rng.chance(0.5) {
                Job::moldable(
                    i as u64,
                    MoldableProfile::from_model(
                        seq,
                        &SpeedupModel::Amdahl {
                            seq_fraction: rng.range(0.0, 0.3),
                        },
                        rng.int_range(1, m as u64) as usize,
                    ),
                )
            } else {
                Job::rigid(i as u64, rng.int_range(1, m as u64 / 2) as usize, seq)
            };
            job.released_at(Time::from_ticks(clock))
                .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// Narrow wide rigid jobs to the sequential domain of uniform-machine
/// policies (a multi-processor rectangle has no span across processors of
/// different speeds); every other policy takes the workload as-is.
fn domain_workload(policy: &dyn lsps::core::policy::Policy, jobs: &[Job]) -> Vec<Job> {
    match policy.outcome_kind() {
        OutcomeKind::Uniform => jobs
            .iter()
            .map(|j| match j.kind {
                JobKind::Rigid { len, .. } => Job {
                    kind: JobKind::Rigid { procs: 1, len },
                    ..j.clone()
                },
                _ => j.clone(),
            })
            .collect(),
        _ => jobs.to_vec(),
    }
}

#[test]
fn every_registered_policy_validates_and_respects_the_lower_bound() {
    for seed in 0..6u64 {
        let m = [8usize, 24, 50][seed as usize % 3];
        let n = 10 + (seed as usize * 13) % 50;
        let all_jobs = random_workload(seed, n, m);
        for policy in registry() {
            let jobs = domain_workload(policy.as_ref(), &all_jobs);
            for mode in [ReleaseMode::Online, ReleaseMode::Offline] {
                let ctx = PolicyCtx {
                    release_mode: mode,
                    ..PolicyCtx::default()
                };
                let run = policy.run(&jobs, m, &ctx);
                assert_eq!(
                    run.validate(),
                    Ok(()),
                    "{} seed {seed} ({mode:?})",
                    policy.name()
                );
                assert_eq!(run.schedule.len(), jobs.len(), "{}", policy.name());
                // No schedule may beat the certified lower bound — computed
                // on the as-scheduled jobs (rigidified/stripped views have
                // their own, different bound).
                let lb = cmax_lower_bound(&run.jobs, m);
                assert!(
                    run.schedule.makespan().since_epoch() >= lb,
                    "{} seed {seed} ({mode:?}): makespan {:?} beats the bound {lb:?}",
                    policy.name(),
                    run.schedule.makespan()
                );
            }
        }
    }
}

#[test]
fn registry_has_at_least_nine_distinct_policies() {
    let mut names: Vec<String> = registry().iter().map(|p| p.name().to_string()).collect();
    let before = names.len();
    names.sort();
    names.dedup();
    assert_eq!(before, names.len(), "duplicate names in the registry");
    assert!(before >= 9, "only {before} policies registered");
}

#[test]
fn advisor_choices_instantiate_into_runnable_policies() {
    let m = 16;
    let jobs = random_workload(42, 20, m);
    let every_choice = [
        PolicyChoice::MrtBatch,
        PolicyChoice::SmartShelves,
        PolicyChoice::BiCriteriaBatches,
        PolicyChoice::Backfilling,
        PolicyChoice::WsptList,
        PolicyChoice::DynamicEquipartition,
        PolicyChoice::DivisibleSteadyState,
        PolicyChoice::BestEffortGrid,
    ];
    for choice in every_choice {
        match choice.instantiate() {
            Some(policy) => {
                // The instance is registered under the same name…
                let registered = by_name(policy.name());
                assert!(registered.is_some(), "{} not in registry", policy.name());
                // …and actually runs.
                let run = policy.run(&jobs, m, &PolicyCtx::default());
                assert_eq!(run.validate(), Ok(()), "{}", policy.name());
            }
            None => assert!(
                matches!(
                    choice,
                    PolicyChoice::DivisibleSteadyState | PolicyChoice::BestEffortGrid
                ),
                "{choice:?} should instantiate"
            ),
        }
    }
}

#[test]
fn advisor_recommendations_round_trip_through_the_registry() {
    // Every PT recommendation the advisor makes must be runnable as-is.
    for app in [
        Application::SequentialBag,
        Application::RigidParallel,
        Application::Moldable,
        Application::MalleableCapable,
    ] {
        for obj in [
            Objective::Makespan,
            Objective::WeightedCompletion,
            Objective::BiCriteria,
        ] {
            for on_line in [false, true] {
                let rec = advise(app, obj, on_line);
                let Some(policy) = rec.policy.instantiate() else {
                    continue; // grid/DLT recommendations live in other crates
                };
                let jobs = random_workload(7, 12, 8);
                let run = policy.run(&jobs, 8, &PolicyCtx::default());
                assert_eq!(
                    run.validate(),
                    Ok(()),
                    "{app:?}/{obj:?} -> {}",
                    policy.name()
                );
            }
        }
    }
}

/// Registry dispatch adds no behaviour: on a 1000-job online rigid
/// workload (m = 100, seed 5), the `Box<dyn Policy>` from `by_name`
/// produces the same schedule as the direct algorithm call.
#[test]
fn registry_dispatch_matches_the_direct_call() {
    use lsps::core::backfill::{backfill_schedule, BackfillPolicy};
    use lsps::core::bicriteria::{bicriteria_schedule, BiCriteriaParams};
    use lsps::core::list::{list_schedule, JobOrder};

    let m = 100;
    let mut rng = SimRng::seed_from(5);
    let mut clock = 0u64;
    let jobs: Vec<Job> = (0..1000)
        .map(|i| {
            clock += rng.int_range(0, 100);
            Job::rigid(
                i as u64,
                rng.int_range(1, m as u64 / 2) as usize,
                Dur::from_ticks(rng.int_range(10, 2_000)),
            )
            .released_at(Time::from_ticks(clock))
            .with_weight(rng.range(0.5, 5.0))
        })
        .collect();
    let ctx = PolicyCtx::default();
    for (name, direct) in [
        ("list-lpt", list_schedule(&jobs, m, JobOrder::Lpt)),
        (
            "backfill-easy",
            backfill_schedule(&jobs, m, &[], BackfillPolicy::Easy),
        ),
        (
            "bicriteria",
            bicriteria_schedule(&jobs, m, BiCriteriaParams::default()),
        ),
    ] {
        let policy = by_name(name).expect("registered");
        assert_eq!(policy.schedule(&jobs, m, &ctx), direct, "{name}");
    }
}
