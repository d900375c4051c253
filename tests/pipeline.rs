//! End-to-end integration: workload generation → every PT policy →
//! validation → criteria, across the crate boundaries.

use lsps::core::allot::{two_phase_moldable, AllotRule};
use lsps::core::backfill::book_reservations;
use lsps::core::mixed::{mixed_schedule, MixedStrategy};
use lsps::prelude::*;

const M: usize = 50;

fn moldable_workload(n: usize, seed: u64) -> Vec<Job> {
    let mut rng = SimRng::seed_from(seed);
    WorkloadSpec::fig2_parallel(n).generate(M, &mut rng)
}

fn rigidify(jobs: &[Job]) -> Vec<Job> {
    jobs.iter()
        .map(|j| match j.profile() {
            Some(p) => {
                let k = (p.max_procs() / 2).max(1);
                let mut c = j.clone();
                c.kind = JobKind::Rigid {
                    procs: k,
                    len: p.time(k),
                };
                c
            }
            None => j.clone(),
        })
        .collect()
}

fn zeroed(jobs: &[Job]) -> Vec<Job> {
    jobs.iter()
        .map(|j| {
            let mut c = j.clone();
            c.release = Time::ZERO;
            c
        })
        .collect()
}

#[test]
fn every_policy_schedules_the_same_workload_validly() {
    let moldable = moldable_workload(60, 1);
    let rigid = rigidify(&moldable);
    let rigid0 = zeroed(&rigid);
    let moldable0 = zeroed(&moldable);

    // (name, schedule, jobs to validate against)
    let runs: Vec<(&str, Schedule, &Vec<Job>)> = vec![
        (
            "list FCFS",
            list_schedule(&rigid0, M, JobOrder::Fcfs),
            &rigid0,
        ),
        (
            "shelf FFDH",
            shelf_schedule(&rigid0, M, ShelfAlgo::Ffdh),
            &rigid0,
        ),
        (
            "EASY backfill",
            backfill_schedule(&rigid, M, &[], BackfillPolicy::Easy),
            &rigid,
        ),
        (
            "conservative backfill",
            backfill_schedule(&rigid, M, &[], BackfillPolicy::Conservative),
            &rigid,
        ),
        ("SMART", smart_schedule(&rigid0, M, true), &rigid0),
        (
            "MRT",
            mrt_schedule(&moldable0, M, MrtParams::default()),
            &moldable0,
        ),
        (
            "batch(MRT)",
            batch_online(&moldable, M, |b, m| {
                mrt_schedule(b, m, MrtParams::default())
            }),
            &moldable,
        ),
        (
            "bi-criteria",
            bicriteria_schedule(&moldable, M, BiCriteriaParams::default()),
            &moldable,
        ),
        (
            "two-phase balanced",
            two_phase_moldable(&moldable0, M, AllotRule::Balanced, JobOrder::Lpt),
            &moldable0,
        ),
        (
            "mixed rigid-into-batches",
            mixed_schedule(&moldable, M, MixedStrategy::RigidIntoBatches),
            &moldable,
        ),
    ];

    for (name, sched, jobs) in &runs {
        assert_eq!(sched.validate(jobs), Ok(()), "{name} must validate");
        assert_eq!(sched.len(), jobs.len(), "{name} schedules everything");
        let crit = Criteria::evaluate(&sched.completed(jobs));
        assert!(crit.cmax > 0.0, "{name} has a real makespan");
        // No schedule may beat the certified lower bounds.
        let lb = cmax_lower_bound(jobs, M).as_secs_f64();
        assert!(
            crit.cmax >= lb - 1e-9,
            "{name}: makespan {} below the lower bound {lb}!",
            crit.cmax
        );
        let wlb = wsum_lower_bound(jobs, M);
        assert!(
            crit.weighted_sum_completion >= wlb - 1e-6,
            "{name}: sum wC below the lower bound!"
        );
    }
}

#[test]
fn criteria_consistency_across_policies() {
    // Mean flow >= mean run; Cmax >= max flow component; utilization <= 1.
    let jobs = zeroed(&rigidify(&moldable_workload(40, 3)));
    let sched = smart_schedule(&jobs, M, true);
    let recs = sched.completed(&jobs);
    let crit = Criteria::evaluate(&recs);
    assert!(crit.utilization(M) <= 1.0 + 1e-9);
    assert!(crit.mean_flow <= crit.max_flow + 1e-9);
    assert!(crit.cmax >= crit.mean_completion);
    for r in &recs {
        assert!(r.flow() >= r.run());
    }
}

#[test]
fn trace_roundtrip_preserves_scheduling_outcome() {
    // JSON-lines roundtrip must not perturb a single start time.
    let jobs = moldable_workload(30, 5);
    let text = lsps::workload::swf::to_jsonl(&jobs);
    let back = lsps::workload::swf::from_jsonl(&text).expect("roundtrip");
    assert_eq!(jobs, back);
    let a = bicriteria_schedule(&jobs, M, BiCriteriaParams::default());
    let b = bicriteria_schedule(&back, M, BiCriteriaParams::default());
    assert_eq!(a, b);
}

#[test]
fn reservations_flow_through_the_whole_stack() {
    let jobs = rigidify(&moldable_workload(25, 7));
    let resv = [Reservation {
        start: Time::from_secs(100),
        end: Time::from_secs(2_000),
        procs: M / 2,
    }];
    for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
        let s = backfill_schedule(&jobs, M, &resv, policy);
        assert_eq!(s.validate(&jobs), Ok(()));
        // Every job books around the reservations, on the processors the
        // backfiller's own first-fit rule placed them.
        let mut tl = Timeline::with_procs(M);
        book_reservations(&mut tl, &resv);
        for a in s.assignments() {
            let booked = tl.try_book(a.start, a.end, a.procs.clone(), BookingKind::Job);
            assert!(booked.is_ok(), "{policy:?} violated a reservation");
        }
    }
}
