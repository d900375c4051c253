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
//!   completed set must match the DES-replay event accounting: the same
//!   jobs, one completion event each.

use std::collections::HashMap;

use lsps::core::policy::{registry, Policy, PolicyCtx};
use lsps::prelude::*;
use lsps::scenario::runner::{des_online, des_replay, to_csv, Executor};
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
        // Completed-set equivalence with the replay executor's event
        // accounting: same jobs, exactly one completion event per job.
        let batch = policy.run(&jobs, m, &ctx);
        let replay = des_replay(&batch.schedule, &batch.jobs);
        let online_ids: Vec<JobId> = online.records.iter().map(|r| r.id).collect();
        let replay_ids: Vec<JobId> = replay.iter().map(|r| r.id).collect();
        assert_eq!(online_ids, replay_ids, "{}", policy.name());
        // Event budget: n arrivals + n completions + at most one decision
        // per arrival/completion instant, nothing else.
        let n = jobs.len() as u64;
        assert!(
            online.stats.events_dispatched > 2 * n && online.stats.events_dispatched <= 4 * n,
            "{}: {} events for n = {n}",
            policy.name(),
            online.stats.events_dispatched
        );
    }
}
