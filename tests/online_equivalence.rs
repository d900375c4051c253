//! The contract of `Executor::DesOnline`, pinned for **every** registry
//! policy the executor accepts (rectangle outcomes — trial and uniform
//! policies are rejected by the validated capability check, covered in
//! the campaign's own tests):
//!
//! * with exact runtimes (clairvoyance factor 1.0) and all-zero release
//!   dates, the online event-driven execution is **bit-identical** to the
//!   batch (`Direct`) evaluation — arrivals coalesce into the single
//!   decision at time zero, which *is* the batch schedule;
//! * with staggered releases the executions differ (that is the point),
//!   but the online run must never start a job before its release, and its
//!   completed set must match the replay's event accounting: the same
//!   jobs, one completion event each.
//!
//! * conservative backfilling books every job at its runtime estimate
//!   and never compresses a booking under either executor, so with
//!   staggered releases and inexact estimates too, `des-online` and
//!   `direct` give bit-identical assignments and records.
//!
//! The replay is a test-only differential oracle on the public
//! `lsps::des` online machine: it pushes a finished batch schedule through
//! the event engine and reads each record off the engine's clock. For all
//! 16 registry policies, under both release modes, the replayed records
//! equal `Schedule::completed` bit for bit.

use std::cell::RefCell;
use std::collections::HashMap;

use lsps::core::policy::{registry, Backfilling, Policy, PolicyCtx, ReleaseMode};
use lsps::des::{Commitment, Dispatcher, OnlineMachine};
use lsps::prelude::*;
use lsps::scenario::runner::{des_online, to_csv, Executor};
use lsps::scenario::spec::{PlatformSpec, WorkloadEntry, WorkloadSource};
use lsps::scenario::{run_campaign, CampaignOptions, CampaignSpec};
use lsps::workload::swf::to_jsonl;

/// The registry policies the DES executors can drive (`Executor::supports`).
fn rect_registry() -> Vec<Box<dyn Policy>> {
    registry()
        .into_iter()
        .filter(|p| p.outcome_kind() == OutcomeKind::Rect)
        .collect()
}

/// Mixed rigid/moldable workload with weights; releases come from `stagger`.
fn workload(seed: u64, n: usize, m: usize, stagger: bool) -> Vec<Job> {
    let mut rng = SimRng::seed_from(seed);
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            clock += rng.int_range(5, 200);
            let seq = Dur::from_ticks(rng.int_range(20, 2_000));
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
            let release = if stagger { clock } else { 0 };
            job.released_at(Time::from_ticks(release))
                .with_weight(rng.range(0.5, 4.0))
        })
        .collect()
}

/// Commits every arriving assignment (an index into the schedule) at the
/// instant it arrives, for its scheduled length.
struct Replay<'a>(&'a [Assignment]);

impl Dispatcher for Replay<'_> {
    type Job = usize;
    type Placement = ();

    fn decide(&mut self, now: Time, pending: &mut Vec<usize>, out: &mut Vec<Commitment<usize>>) {
        out.extend(pending.drain(..).map(|i| Commitment {
            job: i,
            start: now,
            end: now + (self.0[i].end - self.0[i].start),
            placed: (),
        }));
    }
}

/// Replay a finished schedule through the DES engine: each assignment
/// arrives at its start, and its record takes its start from the decision
/// instant and its completion from the engine's clock at its completion
/// event. One record per completion event, sorted by job id.
fn replay(schedule: &Schedule, jobs: &[Job]) -> Vec<CompletedJob> {
    let by_id: HashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
    let assignments = schedule.assignments();
    let mut order: Vec<usize> = (0..assignments.len()).collect();
    order.sort_by_key(|&i| assignments[i].start);
    let finished = RefCell::new(Vec::new());
    let mut sim = OnlineMachine::start(
        Replay(assignments),
        order.into_iter().map(|i| (assignments[i].start, i)),
        |c: Commitment<usize>| finished.borrow_mut().push(c),
    );
    let mut records = Vec::with_capacity(assignments.len());
    while sim.step() {
        for c in finished.borrow_mut().drain(..) {
            let a = &assignments[c.job];
            records.push(CompletedJob::from_job(
                by_id[&a.job],
                c.start,
                sim.now(),
                a.procs.len(),
            ));
        }
    }
    records.sort_by_key(|r| r.id);
    records
}

/// Narrow wide rigid jobs to one processor for uniform-machine policies
/// (their domain is sequential work); every other policy takes the
/// workload as-is.
fn domain_workload(policy: &dyn Policy, jobs: &[Job]) -> Vec<Job> {
    if policy.outcome_kind() != OutcomeKind::Uniform {
        return jobs.to_vec();
    }
    jobs.iter()
        .map(|j| match j.kind {
            JobKind::Rigid { len, .. } => Job {
                kind: JobKind::Rigid { procs: 1, len },
                ..j.clone()
            },
            _ => j.clone(),
        })
        .collect()
}

#[test]
fn every_registry_schedule_replays_bit_for_bit_through_the_engine() {
    let m = 24;
    let policies = registry();
    assert_eq!(policies.len(), 16);
    for stagger in [false, true] {
        let all_jobs = workload(11, 35, m, stagger);
        for policy in &policies {
            let jobs = domain_workload(policy.as_ref(), &all_jobs);
            for release_mode in [ReleaseMode::Online, ReleaseMode::Offline] {
                let ctx = PolicyCtx {
                    release_mode,
                    ..PolicyCtx::default()
                };
                let case = format!("{} ({release_mode:?}, stagger {stagger})", policy.name());
                let run = policy.run(&jobs, m, &ctx);
                run.validate().unwrap_or_else(|e| panic!("{case}: {e}"));
                let mut direct = run.schedule.completed(&run.jobs);
                direct.sort_by_key(|r| r.id);
                let replayed = replay(&run.schedule, &run.jobs);
                // Exactly one completion event per job...
                let mut ids: Vec<JobId> = run.jobs.iter().map(|j| j.id).collect();
                ids.sort_unstable();
                let replayed_ids: Vec<JobId> = replayed.iter().map(|r| r.id).collect();
                assert_eq!(replayed_ids, ids, "{case}");
                // ...and each record equal to the static one in every bit.
                assert_eq!(replayed, direct, "{case}");
            }
        }
    }
}

#[test]
fn zero_releases_make_online_bit_identical_to_direct() {
    let m = 32;
    let jobs = workload(5, 40, m, false);
    let ctx = PolicyCtx::default(); // estimate_factor = 1.0: exact runtimes
    for policy in rect_registry() {
        let direct = policy.run(&jobs, m, &ctx);
        direct
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
        let mut direct_records = direct.schedule.completed(&direct.jobs);
        direct_records.sort_by_key(|r| r.id);

        let online = des_online(policy.as_ref(), &jobs, m, &ctx);
        online
            .run
            .validate()
            .unwrap_or_else(|e| panic!("{} (online): {e}", policy.name()));
        // Record-level bit-identity (integer times, copied weights): the
        // strongest possible equivalence — every metric follows.
        assert_eq!(direct_records, online.records, "{}", policy.name());
    }
}

#[test]
fn zero_release_cells_agree_bit_for_bit_across_executors() {
    // Same property one layer up: whole campaign cells, CSV-rendered,
    // equal in every byte except the executor column itself. The jobs
    // reach the campaign as a JSONL trace (the lossless native format).
    let dir = std::env::temp_dir().join(format!("lsps-zero-rel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zero-rel.jsonl");
    std::fs::write(&path, to_jsonl(&workload(5, 30, 32, false))).unwrap();
    let mut spec = CampaignSpec::new("zero-rel");
    spec.policies = rect_registry()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    spec.executors = vec![Executor::Direct, Executor::DesOnline];
    spec.platforms = vec![PlatformSpec {
        name: "m32".into(),
        m: 32,
        speeds: None,
    }];
    spec.workloads = vec![WorkloadEntry {
        name: "zero-rel".into(),
        source: WorkloadSource::JsonlFile(path.display().to_string()),
        seed: Some(5),
    }];
    let cells = run_campaign(&spec, &CampaignOptions::default())
        .expect("campaign runs")
        .cells;
    std::fs::remove_dir_all(&dir).unwrap();
    let rows = |csv: String| -> Vec<String> {
        csv.lines()
            .skip(1)
            .map(|l| {
                l.replacen(Executor::Direct.name(), "X", 1).replacen(
                    Executor::DesOnline.name(),
                    "X",
                    1,
                )
            })
            .collect()
    };
    // Cells are executor-major: the direct sweep, then the online one.
    let (direct, online) = cells.split_at(cells.len() / 2);
    assert!(direct.iter().all(|c| c.executor == "direct"));
    assert!(online.iter().all(|c| c.executor == "des-online"));
    assert_eq!(rows(to_csv(direct)), rows(to_csv(online)));
}

#[test]
fn staggered_releases_never_start_early_and_match_replay_accounting() {
    let m = 24;
    let jobs = workload(9, 35, m, true);
    let release_of: HashMap<JobId, Time> = jobs.iter().map(|j| (j.id, j.release)).collect();
    let ctx = PolicyCtx::default();
    for policy in rect_registry() {
        let online = des_online(policy.as_ref(), &jobs, m, &ctx);
        online
            .run
            .validate()
            .unwrap_or_else(|e| panic!("{} (online): {e}", policy.name()));
        // No clairvoyance about existence: a job's rectangle may not begin
        // before the instant the scheduler learned about it — even for
        // policies whose *prepared view* strips release dates.
        for a in online.run.schedule.assignments() {
            assert!(
                a.start >= release_of[&a.job],
                "{}: job {} starts at {:?} before release {:?}",
                policy.name(),
                a.job,
                a.start,
                release_of[&a.job]
            );
        }
        // Completed-set equivalence with the replay's event accounting:
        // same jobs, exactly one completion event per job.
        let batch = policy.run(&jobs, m, &ctx);
        let online_ids: Vec<JobId> = online.records.iter().map(|r| r.id).collect();
        let replay_ids: Vec<JobId> = replay(&batch.schedule, &batch.jobs)
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(online_ids, replay_ids, "{}", policy.name());
        // Event budget: at most one arrival wake-up per job plus exactly
        // n completions, nothing else — decisions are no events.
        let n = jobs.len() as u64;
        assert!(
            online.stats.events_dispatched > n && online.stats.events_dispatched <= 2 * n,
            "{}: {} events for n = {n}",
            policy.name(),
            online.stats.events_dispatched
        );
    }
}

/// `backfill-conservative`'s assignments (sorted by job id, processor
/// sets included) and records under `direct` and `des-online`, which
/// must be equal in every bit. Returns the records.
fn conservative_records(jobs: &[Job], m: usize, ctx: &PolicyCtx, case: &str) -> Vec<CompletedJob> {
    let policy = Backfilling::conservative();
    let direct = policy.run(jobs, m, ctx);
    direct.validate().unwrap_or_else(|e| panic!("{case}: {e}"));
    let mut direct_placed = direct.schedule.assignments().to_vec();
    direct_placed.sort_by_key(|a| a.job);
    let mut direct_records = direct.schedule.completed(&direct.jobs);
    direct_records.sort_by_key(|r| r.id);
    let online = des_online(&policy, jobs, m, ctx);
    online
        .run
        .validate()
        .unwrap_or_else(|e| panic!("{case} (online): {e}"));
    let mut online_placed = online.run.schedule.assignments().to_vec();
    online_placed.sort_by_key(|a| a.job);
    assert_eq!(direct_placed, online_placed, "{case}: assignments");
    assert_eq!(direct_records, online.records, "{case}: records");
    online.records
}

/// Staggered releases at factors 1, 1.5 and 3, with and without an
/// advance reservation in the way: a conservative booking keeps its
/// estimate under `des-online` as it does under `direct`, so a later
/// arrival never slides into the estimate tail of a job that finished
/// early.
#[test]
fn conservative_backfilling_is_bit_identical_across_executors() {
    let m = 16;
    for seed in [3, 17, 29, 41] {
        let jobs = workload(seed, 60, m, true);
        for factor in [1.0, 1.5, 3.0] {
            for reserved in [false, true] {
                let reservations = if reserved {
                    vec![Reservation {
                        start: Time::from_ticks(1_500),
                        end: Time::from_ticks(4_000),
                        procs: 6,
                    }]
                } else {
                    Vec::new()
                };
                let ctx = PolicyCtx {
                    release_mode: ReleaseMode::Online,
                    estimate_factor: factor,
                    reservations,
                    ..PolicyCtx::default()
                };
                let case = format!("seed {seed}, factor {factor}, reservation {reserved}");
                conservative_records(&jobs, m, &ctx, &case);
            }
        }
    }
}

/// Two processors, factor 2. Job A (1 processor, 10 s) arrives at 0 and
/// is booked until 20 s; job B (2 processors, 5 s) arrives at 1 s. A
/// truly ends at 10 s, but a conservative booking is never compressed,
/// so B starts at 20 s under both executors: an online start at 10 s
/// would use A's true runtime before A finished.
#[test]
fn conservative_backfilling_waits_out_an_estimate_tail_under_both_executors() {
    let jobs = [
        Job::rigid(0, 1, Dur::from_secs(10)),
        Job::rigid(1, 2, Dur::from_secs(5)).released_at(Time::from_secs(1)),
    ];
    let ctx = PolicyCtx {
        release_mode: ReleaseMode::Online,
        estimate_factor: 2.0,
        ..PolicyCtx::default()
    };
    let records = conservative_records(&jobs, 2, &ctx, "two jobs");
    let b = &records[1];
    assert_eq!(b.id, JobId(1));
    assert_eq!(
        (b.start, b.completion),
        (Time::from_secs(20), Time::from_secs(25))
    );
}
