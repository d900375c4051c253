//! Cross-model consistency: the PT and DLT views of the same computation
//! must agree where they overlap, and the simulated dynamic policies must
//! respect the analytic bounds.

use lsps::dlt::multiround::multi_round;
use lsps::dlt::MultiRoundParams;
use lsps::grid::cigri::run_cigri;
use lsps::platform::presets;
use lsps::prelude::*;

#[test]
fn campaign_as_pt_jobs_matches_divisible_work() {
    // A campaign's total work must be identical whether counted as
    // discrete sequential runs (PT view) or as a divisible load (DLT view).
    let c = Campaign::new(1, 500, Dur::from_secs(120));
    let runs = c.runs(0);
    let pt_work: f64 = runs.iter().map(|j| j.seq_time().as_secs_f64()).sum();
    assert!((pt_work - c.as_divisible_work()).abs() < 1e-9);
}

#[test]
fn steady_state_bounds_every_distribution_policy() {
    // No finite policy beats W / steady-throughput minus nothing: the
    // steady-state rate is an upper bound on sustainable speed.
    let ws: Vec<Worker> = (0..8)
        .map(|i| Worker::new(1.0 + (i % 2) as f64, 4.0, 0.01))
        .collect();
    let w = 10_000.0;
    let bound = w / star_steady_state(&ws).throughput;
    let one = star_single_round(w, &ws, WorkerOrder::ByBandwidth);
    let multi = multi_round(
        w,
        &ws,
        MultiRoundParams {
            rounds: 8,
            growth: 1.5,
        },
    );
    let dynamic = self_schedule(w, &ws, 50.0);
    for (name, makespan) in [
        ("one round", one.makespan),
        ("multi round", multi.makespan),
        ("self sched", dynamic.makespan),
    ] {
        assert!(
            makespan >= bound * 0.999,
            "{name}: {makespan} beats the steady-state bound {bound}"
        );
    }
}

#[test]
fn grid_campaign_drain_respects_capacity() {
    // The CiGri layer cannot complete a campaign faster than the platform's
    // aggregate power allows.
    let p = presets::ciment();
    let c = Campaign::new(1, 2_000, Dur::from_secs(100));
    let report = run_cigri(&p, vec![], vec![c.clone()], Dur::from_secs(10), true);
    assert_eq!(report.be_completed, 2_000);
    let total_work_s = c.total_work().as_secs_f64(); // reference CPU-s
    let floor = total_work_s / p.total_power();
    assert!(
        report.campaign_done_at.as_secs_f64() >= floor * 0.999,
        "drained at {} but the power floor is {floor}",
        report.campaign_done_at.as_secs_f64()
    );
}

#[test]
fn advisor_agrees_with_measured_winner_on_moldable_makespan() {
    // The advisor says MRT-batch for moldable/makespan; verify it actually
    // beats the naive alternatives on a random instance.
    let m = 64;
    let jobs: Vec<Job> = {
        let mut rng = SimRng::seed_from(11);
        let mut js = WorkloadSpec::fig2_parallel(80).generate(m, &mut rng);
        for j in &mut js {
            j.release = Time::ZERO;
        }
        js
    };
    let rec = advise(Application::Moldable, Objective::Makespan, false);
    assert_eq!(rec.policy, PolicyChoice::MrtBatch);
    let mrt = mrt_schedule(&jobs, m, MrtParams::default());
    mrt.validate(&jobs).expect("valid");
    let seq = lsps::core::allot::two_phase_moldable(
        &jobs,
        m,
        lsps::core::allot::AllotRule::Sequential,
        JobOrder::Lpt,
    );
    let fast = lsps::core::allot::two_phase_moldable(
        &jobs,
        m,
        lsps::core::allot::AllotRule::MinTime,
        JobOrder::Lpt,
    );
    assert!(mrt.makespan() <= seq.makespan());
    assert!(mrt.makespan() <= fast.makespan());
}

#[test]
fn heterogeneous_cluster_scaling_is_conservative() {
    // The grid layer scales job durations by cluster speed with a ceiling:
    // a job must never finish *earlier* on a slower cluster.
    let p = presets::ciment(); // cluster 3 runs at 0.55
    let job = Job::sequential(1, Dur::from_secs(100));
    let fast = run_cigri(&p, vec![(0, job.clone())], vec![], Dur::from_secs(10), true);
    let slow = run_cigri(&p, vec![(3, job)], vec![], Dur::from_secs(10), true);
    let f = fast.local.unwrap().cmax;
    let s = slow.local.unwrap().cmax;
    assert!(s > f, "slower cluster must take longer: {s} vs {f}");
    assert!((f - 100.0).abs() < 1e-6);
    assert!((s - 100.0 / 0.55).abs() < 1.0);
}
