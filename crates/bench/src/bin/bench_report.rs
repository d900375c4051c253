//! The workspace's one benchmark harness: times the [`Timeline`] and
//! [`ProcSet`] hot operations (the backfill / CiGri / DES placement
//! workhorse), the end-to-end scheduler loops — conservative/EASY
//! backfill of a `large-scale` instance, a 100k-job `trace-100k`
//! DesOnline replay through the incremental planner, a million-completion
//! open drive, a campaignd submit-to-aggregate — and the single-call
//! kernels the paper's policy comparison rests on: DES dispatch, the
//! divisible-load solvers, policy construction and registry dispatch
//! against the direct call. It writes the medians to
//! `BENCH_timeline.json`, the committed perf trajectory future PRs
//! compare against.
//!
//! ```text
//! cargo build --release --workspace                               # builds lsps-worker too
//! cargo run --release -p lsps-bench --bin bench_report            # BENCH_timeline.json
//! cargo run --release -p lsps-bench --bin bench_report -- out.json
//! cargo run --release -p lsps-bench --bin bench_report -- --check # CI perf smoke gate
//! ```
//!
//! `--check` re-measures with a reduced sample count and compares every
//! datapoint against the committed baseline (`BENCH_timeline.json` or the
//! path given after the flag): any op slower than 3× its committed median
//! fails the run, and so does an op measured on only one side, so a
//! renamed or dropped op cannot fall out of the gate. The 3× headroom
//! absorbs machine noise and CI jitter — the gate exists to catch
//! algorithmic regressions (a dropped index, an accidental O(n²)), not
//! percent-level drift. Absolute numbers are machine-specific — the
//! trajectory tracks *relative* movement per op and size.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

use lsps_core::backfill::{backfill_schedule, backfill_schedule_estimated, BackfillPolicy};
use lsps_core::bicriteria::{bicriteria_schedule, BiCriteriaParams};
use lsps_core::list::{list_schedule, JobOrder};
use lsps_core::mrt::{mrt_schedule, MrtParams};
use lsps_core::policy::{by_name, Backfilling, PolicyCtx, ReleaseMode};
use lsps_core::smart::smart_schedule;
use lsps_des::{Ctx, Dur, EventQueue, Model, SimRng, Simulation, Time};
use lsps_dlt::{
    multi_round, self_schedule, star_single_round, star_steady_state, MultiRoundParams, Worker,
    WorkerOrder,
};
use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};
use lsps_scenario::families::{large_scale_instance, trace_instance};
use lsps_scenario::runner::{des_online, des_online_open};
use lsps_scenario::spec::OpenEntry;
use lsps_workload::{
    DistSpec, Job, JobClass, MoldableProfile, OpenArrival, OpenStreamSpec, SpeedupModel,
};

/// Median wall-clock nanoseconds per call of `f` over `samples` batches.
fn median_ns(samples: usize, batch: u32, mut f: impl FnMut()) -> u64 {
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            (t0.elapsed().as_nanos() / batch as u128) as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Whole drives timed per online op, of which the median is recorded: one
/// run of the million-completion drive has read anywhere from 1.4 to 2.5 s
/// on the same binary.
const DRIVE_RUNS: usize = 5;

/// A randomly loaded timeline with `bookings` live bookings.
fn loaded_timeline(m: usize, bookings: usize, rng: &mut SimRng) -> Timeline {
    let mut tl = Timeline::with_procs(m);
    for _ in 0..bookings {
        let q = rng.int_range(1, (m as u64 / 4).max(1)) as usize;
        let len = Dur::from_ticks(rng.int_range(10, 500));
        let (start, procs) = tl
            .earliest_slot(Time::from_ticks(rng.int_range(0, 50_000)), len, q)
            .expect("fits");
        tl.book(start, start + len, procs, BookingKind::Job);
    }
    tl
}

/// Expiry order of a rolling timeline's bookings, earliest end first.
type Expiry = BinaryHeap<Reverse<(Time, BookingId)>>;

/// Place one random job (up to `m / 4` processors, 10–500 ticks) at its
/// earliest slot from `now`, book it and queue its end.
fn place_rolling(tl: &mut Timeline, expiry: &mut Expiry, now: Time, rng: &mut SimRng) {
    let m = tl.capacity().len() as u64;
    let q = rng.int_range(1, (m / 4).max(1)) as usize;
    let len = Dur::from_ticks(rng.int_range(10, 500));
    let (start, procs) = tl.earliest_slot(now, len, q).expect("fits");
    let id = tl.book(start, start + len, procs, BookingKind::Job);
    expiry.push(Reverse((start + len, id)));
}

/// Machine width of the policy-construction and registry-dispatch ops.
const POLICY_M: usize = 100;

/// `n` weighted rigid jobs of 1..`POLICY_M`/2 processors and 10..2000
/// ticks, released at a seeded random walk (`online`) or all at zero.
fn rigid_jobs(n: usize, online: bool, seed: u64) -> Vec<Job> {
    let mut rng = SimRng::seed_from(seed);
    let mut clock = 0u64;
    (0..n)
        .map(|i| {
            if online {
                clock += rng.int_range(0, 100);
            }
            Job::rigid(
                i as u64,
                rng.int_range(1, POLICY_M as u64 / 2) as usize,
                Dur::from_ticks(rng.int_range(10, 2_000)),
            )
            .released_at(Time::from_ticks(clock))
            .with_weight(rng.range(0.5, 5.0))
        })
        .collect()
}

/// `n` Amdahl moldable jobs over up to `POLICY_M` processors.
fn moldable_jobs(n: usize, seed: u64) -> Vec<Job> {
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| {
            Job::moldable(
                i as u64,
                MoldableProfile::from_model(
                    Dur::from_ticks(rng.int_range(50, 5_000)),
                    &SpeedupModel::Amdahl {
                        seq_fraction: rng.range(0.0, 0.3),
                    },
                    rng.int_range(1, POLICY_M as u64) as usize,
                ),
            )
        })
        .collect()
}

/// `n` star workers with four speeds and three link bandwidths.
fn dlt_workers(n: usize) -> Vec<Worker> {
    (0..n)
        .map(|i| Worker::new(1.0 + (i % 4) as f64 * 0.25, 5.0 + (i % 3) as f64, 1e-4))
        .collect()
}

/// A DES model whose every event schedules the next one tick later until
/// `left` runs out: pure engine dispatch, no model work.
struct Chain {
    left: u64,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _: Time, _: (), ctx: &mut Ctx<'_, ()>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_in(Dur::from_ticks(1), ());
        }
    }
}

/// One single-call op: name, size, batch and the call, its result type
/// erased.
type Row<'a> = (&'static str, usize, u32, Box<dyn FnMut() + 'a>);

/// A [`Row`] whose call black-boxes `f`'s result so the work is kept.
fn row<'a, T>(op: &'static str, size: usize, batch: u32, mut f: impl FnMut() -> T + 'a) -> Row<'a> {
    let call = move || {
        std::hint::black_box(f());
    };
    (op, size, batch, Box::new(call))
}

/// One measured datapoint: a micro-op over a loaded timeline (`size` =
/// live bookings) or an `ops` entry (`size` = instance jobs, or the
/// events, workers or processors of a single-call kernel).
struct Datapoint {
    op: &'static str,
    size: usize,
    median_ns: u64,
}

/// Measure everything. `samples` scales the micro-op and single-call
/// batching; the scheduler loops are one-shot (they are seconds-scale
/// already). Fails before timing anything when `lsps-worker` is not built
/// next to this binary, so the campaignd ops are never silently dropped.
fn measure(samples: usize) -> Result<(Vec<Datapoint>, Vec<Datapoint>), String> {
    let worker = lsps_service::daemon::default_worker_cmd();
    if !worker.is_file() {
        return Err(format!(
            "{} is missing: run `cargo build --release --workspace` first",
            worker.display()
        ));
    }
    let m = 1024;
    let mut micro: Vec<Datapoint> = Vec::new();
    let push = |v: &mut Vec<Datapoint>, op: &'static str, size: usize, ns: u64| {
        eprintln!("{op:<28} @ {size:>6}: {ns:>12} ns/op");
        v.push(Datapoint {
            op,
            size,
            median_ns: ns,
        });
    };

    for &bookings in &[100usize, 1_000, 4_000] {
        let mut rng = SimRng::seed_from(3);
        let tl = loaded_timeline(m, bookings, &mut rng);
        push(
            &mut micro,
            "earliest_slot",
            bookings,
            median_ns(samples, 64, || {
                std::hint::black_box(tl.earliest_slot(
                    Time::from_ticks(10_000),
                    Dur::from_ticks(100),
                    16,
                ));
            }),
        );
        // Book and remove 8 processors at the earliest slot from inside
        // the loaded span, chosen before timing, so every cycle splits and
        // coalesces segments among live bookings.
        let (at, procs) = tl
            .earliest_slot(Time::from_ticks(25_000), Dur::from_ticks(100), 8)
            .expect("fits");
        let last_end = tl.bookings().map(|(_, b)| b.end).max().expect("loaded");
        assert!(
            !procs.is_empty() && at < last_end,
            "book_remove_cycle slot {at:?} lies past the last booking end {last_end:?}"
        );
        let mut churn = tl.clone();
        push(
            &mut micro,
            "book_remove_cycle",
            bookings,
            median_ns(samples, 64, || {
                let id = churn.book(
                    at,
                    at + Dur::from_ticks(100),
                    procs.clone(),
                    BookingKind::Job,
                );
                churn.remove(id).expect("present");
            }),
        );
    }

    // The backfill planner's rolling-horizon cycle, one step per call: the
    // clock moves to the next booking end, the timeline forgets the
    // profile before it, the expired bookings are removed and as many new
    // jobs are placed by `earliest_slot` and booked, so `live` bookings
    // stay live. The one op that edits a forgetting timeline.
    let live = 1_000;
    let mut rng = SimRng::seed_from(5);
    let mut rolling = Timeline::with_procs(m);
    let mut expiry = Expiry::new();
    for _ in 0..live {
        place_rolling(&mut rolling, &mut expiry, Time::ZERO, &mut rng);
    }
    push(
        &mut micro,
        "rolling_horizon_cycle",
        live,
        median_ns(samples, 64, || {
            let Reverse((now, _)) = *expiry.peek().expect("live bookings");
            rolling.forget_before(now);
            while let Some(&Reverse((end, id))) = expiry.peek() {
                if end > now {
                    break;
                }
                expiry.pop();
                rolling.remove(id).expect("live");
                place_rolling(&mut rolling, &mut expiry, now, &mut rng);
            }
        }),
    );

    // A ProcSet datapoint so the bitset layer has a trajectory too.
    let a = ProcSet::from_indices((0..m).filter(|i| i % 3 != 0));
    let b = ProcSet::from_indices((0..m).filter(|i| i % 2 == 0));
    push(
        &mut micro,
        "procset_difference_len",
        0,
        median_ns(samples, 4096, || {
            std::hint::black_box(a.difference_len(&b));
        }),
    );

    // The clone_from + in-place-op churn of a scratch set refreshed in a
    // loop: refresh it from a wide (heap-repr) source, mask it, then do
    // the same over a 64-proc inline source — the DES bench machine
    // width. Tracks that the pooling path stays allocation-free. (The
    // timeline no longer runs this pattern: its profile keeps busy sets as
    // raw arena rows.)
    let small_a = ProcSet::from_indices((0..64).filter(|i| i % 3 != 0));
    let small_b = ProcSet::from_indices((0..64).filter(|i| i % 2 == 0));
    let mut scratch = ProcSet::new();
    push(
        &mut micro,
        "procset_clone_hot",
        0,
        median_ns(samples, 4096, || {
            scratch.clone_from(&a);
            scratch.subtract(&b);
            std::hint::black_box(scratch.len());
            scratch.clone_from(&small_a);
            scratch.intersect_with(&small_b);
            std::hint::black_box(scratch.len());
        }),
    );

    // Scheduler loops, one-shot. Batch placement: conservative + EASY
    // backfill of a full `large-scale` instance — the workload
    // `examples/large_scale_campaign.json` sweeps.
    let mut ops: Vec<Datapoint> = Vec::new();
    let n = 5_000;
    let jobs = large_scale_instance(&mut SimRng::seed_from(7), n, m);
    for (name, policy) in [
        ("conservative_backfill_5k", BackfillPolicy::Conservative),
        ("easy_backfill_5k", BackfillPolicy::Easy),
    ] {
        let t0 = Instant::now();
        let sched = backfill_schedule_estimated(&jobs, m, &[], policy, 1.2);
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(sched.len(), n);
        push(&mut ops, name, n, ns);
    }

    // Raw event-queue throughput: a million schedule/cancel/pop rounds
    // against a rolling live set — the slab + 4-ary-heap hot path the DES
    // engine hits once per event, with a third of the events cancelled so
    // the tombstone compaction policy is part of what gets timed.
    let n = 1_000_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed_from(11);
    let mut live_keys = Vec::new();
    let mut clock: u64 = 0;
    let mut digest: u64 = 0;
    let t0 = Instant::now();
    for i in 0..n as u64 {
        clock += rng.int_range(0, 3);
        live_keys.push(q.schedule(Time::from_ticks(clock + rng.int_range(1, 1_000)), i));
        if i % 3 == 0 {
            let victim = rng.int_range(0, live_keys.len() as u64 - 1) as usize;
            q.cancel(live_keys.swap_remove(victim));
        }
        if q.len() > 8_192 {
            if let Some((at, _, ev)) = q.pop() {
                digest = digest.wrapping_add(at.ticks() ^ ev);
            }
        }
    }
    while let Some((at, _, ev)) = q.pop() {
        digest = digest.wrapping_add(at.ticks() ^ ev);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(digest);
    push(&mut ops, "event_queue_1m_churn", n, ns);

    // Event-driven placement: the full 100k-job `trace-100k` replay the
    // campaign `examples/trace_100k_campaign.json` runs — one decision per
    // arrival/completion through the incremental planner.
    let n = 100_000;
    let jobs = trace_instance(&mut SimRng::seed_from(4096).child(n as u64), n, m);
    let ctx = PolicyCtx {
        release_mode: ReleaseMode::Online,
        estimate_factor: 1.0,
        ..PolicyCtx::default()
    };
    let policy = Backfilling::conservative();
    let ns = median_ns(DRIVE_RUNS, 1, || {
        let run = des_online(&policy, &jobs, m, &ctx);
        assert_eq!(run.records.len(), n);
        assert_eq!(run.replan_touched, n as u64);
    });
    push(&mut ops, "des_online_100k", n, ns);

    // Open-arrival steady state: a million completions at ρ = 0.9 through
    // the open driver — the `examples/open_1m_campaign.json` cell. Memory
    // stays `O(live jobs + completions counted)`, so this is the long-run
    // throughput trajectory of the whole arrive → plan → complete loop.
    let n = 1_000_000;
    let open = OpenEntry {
        stream: OpenStreamSpec {
            rho: 0.9,
            arrival: OpenArrival::Poisson,
            classes: vec![
                JobClass {
                    name: "narrow".into(),
                    mix: 3.0,
                    width: DistSpec::Fixed(1.0),
                    service_s: DistSpec::Exp(120.0),
                },
                JobClass {
                    name: "wide".into(),
                    mix: 1.0,
                    width: DistSpec::Uniform(2.0, 16.0),
                    service_s: DistSpec::Exp(600.0),
                },
            ],
        },
        stop_completions: n as u64,
        horizon_s: None,
        warmup: OpenEntry::DEFAULT_WARMUP,
        batches: OpenEntry::DEFAULT_BATCHES,
    };
    let policy = Backfilling::easy();
    let ns = median_ns(DRIVE_RUNS, 1, || {
        let out = des_online_open(&policy, &open, 64, &ctx, 9001);
        assert_eq!(out.completions, n as u64);
    });
    push(&mut ops, "des_online_open_1m", n, ns);

    // Service tier: `examples/small_campaign.json` end to end through the
    // lsps-campaignd machinery — daemon boot, spec submission, sharding
    // over worker processes, final aggregate — cold (every cell computed
    // by a worker) and warm (a restarted daemon serving every cell from
    // the content-addressed cache).
    let spec_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/small_campaign.json");
    let spec_text = std::fs::read_to_string(&spec_path).expect("small campaign spec");
    let root = std::env::temp_dir().join(format!("lsps-bench-campaignd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let base_dir = spec_path.parent().expect("spec dir").to_path_buf();
    let mut cells = 0usize;
    let mut run_service = |tag: &str| -> u64 {
        let mut cfg = lsps_service::daemon::config_under(&root, &worker);
        cfg.workers = 4;
        cfg.base_dir = Some(base_dir.clone());
        // A fresh journal per boot so each timing covers exactly one
        // submit-to-aggregate pass; the cache carries between passes.
        cfg.journal_dir = root.join(format!("journal-{tag}"));
        let t0 = Instant::now();
        let daemon = lsps_service::Daemon::start(cfg).expect("daemon starts");
        let id = daemon.submit(&spec_text).expect("spec accepted");
        loop {
            let status = daemon.status_json(&id).expect("status");
            assert!(status.contains("\"failed\":0"), "cells failed: {status}");
            if status.contains("\"complete\":true") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let (_, agg) = daemon.csvs(&id).expect("aggregate");
        cells = agg.lines().count() - 1;
        daemon.shutdown();
        t0.elapsed().as_nanos() as u64
    };
    let cold = run_service("cold");
    let warm = run_service("warm");
    push(&mut ops, "campaignd_small_spec_cold", 54, cold);
    push(&mut ops, "campaignd_small_spec_warm", 54, warm);
    assert_eq!(cells, 18, "small campaign aggregates to 18 groups");
    let _ = std::fs::remove_dir_all(&root);

    // Single-call kernels no datapoint above covers: DES engine dispatch,
    // the divisible-load solvers, policy construction (n = 400) and
    // registry dispatch next to the direct call (n = 1000; the trait
    // object's `prepare` borrows its input, so the pair must cost the
    // same), and the ProcSet ops the m = 1024 datapoints leave out, at
    // m = 4096. `size` counts events, workers, jobs or processors.
    let rigid0 = rigid_jobs(400, false, 1);
    let rigid_online = rigid_jobs(400, true, 2);
    let moldable = moldable_jobs(400, 3);
    let dispatch = rigid_jobs(1000, true, 5);
    let default_ctx = PolicyCtx::default();
    let [list_obj, easy_obj, bicriteria_obj] =
        ["list-lpt", "backfill-easy", "bicriteria"].map(|name| by_name(name).expect("registered"));
    let workers64 = dlt_workers(64);
    let workers = dlt_workers(1024);
    let rounds = MultiRoundParams {
        rounds: 8,
        growth: 1.5,
    };
    let wide_a = ProcSet::from_indices((0..4096).filter(|i| i % 3 != 0));
    let wide_b = ProcSet::from_indices((0..4096).filter(|i| i % 2 == 0));
    let calls: Vec<Row> = vec![
        row("engine_100k_chained_events", 100_000, 1, || {
            let mut sim = Simulation::new(Chain { left: 100_000 });
            sim.schedule_at(Time::ZERO, ());
            sim.run_to_completion(200_000)
        }),
        row("self_sched_10k_chunks", 64, 1, || {
            self_schedule(1e4, &workers64, 1.0)
        }),
        row("star_closed_form", 1024, 16, || {
            star_single_round(1e5, &workers, WorkerOrder::ByBandwidth)
        }),
        row("steady_state", 1024, 16, || star_steady_state(&workers)),
        row("multi_round_8", 1024, 4, || {
            multi_round(1e5, &workers, rounds)
        }),
        row("list_fcfs", 400, 1, || {
            list_schedule(&rigid0, POLICY_M, JobOrder::Fcfs)
        }),
        row("smart_weighted", 400, 1, || {
            smart_schedule(&rigid0, POLICY_M, true)
        }),
        row("mrt", 400, 1, || {
            mrt_schedule(&moldable, POLICY_M, MrtParams::default())
        }),
        row("bicriteria", 400, 1, || {
            bicriteria_schedule(&rigid_online, POLICY_M, BiCriteriaParams::default())
        }),
        row("list_lpt_direct", 1000, 1, || {
            list_schedule(&dispatch, POLICY_M, JobOrder::Lpt)
        }),
        row("list_lpt_trait_object", 1000, 1, || {
            list_obj.schedule(&dispatch, POLICY_M, &default_ctx)
        }),
        row("backfill_easy_direct", 1000, 1, || {
            backfill_schedule(&dispatch, POLICY_M, &[], BackfillPolicy::Easy)
        }),
        row("backfill_easy_trait_object", 1000, 1, || {
            easy_obj.schedule(&dispatch, POLICY_M, &default_ctx)
        }),
        row("bicriteria_direct", 1000, 1, || {
            bicriteria_schedule(&dispatch, POLICY_M, BiCriteriaParams::default())
        }),
        row("bicriteria_trait_object", 1000, 1, || {
            bicriteria_obj.schedule(&dispatch, POLICY_M, &default_ctx)
        }),
        row("procset_union", 4096, 1024, || wide_a.union(&wide_b)),
        row("procset_is_disjoint", 4096, 4096, || {
            wide_a.is_disjoint(&wide_b)
        }),
        row("procset_iter_sum", 4096, 64, || {
            wide_a.iter().map(|p| p.index()).sum::<usize>()
        }),
        row("procset_take_first_half", 4096, 1024, || {
            wide_a.take_first(wide_a.len() / 2)
        }),
        row("procset_take_first_16", 4096, 4096, || {
            wide_a.take_first(16)
        }),
    ];
    for (op, size, batch, call) in calls {
        push(&mut ops, op, size, median_ns(samples, batch, call));
    }

    Ok((micro, ops))
}

fn to_json(entries: &[Datapoint], size_key: &str) -> Value {
    Value::Seq(
        entries
            .iter()
            .map(|d| {
                Value::Map(vec![
                    ("op".into(), d.op.to_value()),
                    (size_key.into(), d.size.to_value()),
                    ("median_ns".into(), d.median_ns.to_value()),
                ])
            })
            .collect(),
    )
}

/// Flatten a committed report into `(op, size, median_ns)` rows. Reads
/// both the v1 layout (everything under `results`, size key `bookings`)
/// and v2 (`results` + `ops`, size key `n` for ops).
fn baseline_rows(report: &Value) -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for section in ["results", "ops"] {
        let Some(Value::Seq(entries)) = report.get(section) else {
            continue;
        };
        for e in entries {
            let Some(Value::Str(op)) = e.get("op") else {
                continue;
            };
            let size = match e.get("bookings").or_else(|| e.get("n")) {
                Some(Value::UInt(v)) => *v,
                _ => 0,
            };
            let Some(Value::UInt(ns)) = e.get("median_ns") else {
                continue;
            };
            rows.push((op.clone(), size, *ns));
        }
    }
    rows
}

/// Compare fresh medians against the committed baseline: fail on any op
/// slower than `factor ×` its committed median, and on any op measured on
/// only one side (a renamed or skipped op must not drop out of the gate).
fn check(baseline_path: &str, factor: f64) -> Result<(), String> {
    let text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("read {baseline_path}: {e}"))?;
    let committed: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {baseline_path}: {e:?}"))?;
    let baseline = baseline_rows(&committed);

    let (micro, ops) = measure(9)?;
    let fresh: Vec<(String, u64, u64)> = micro
        .iter()
        .chain(ops.iter())
        .map(|d| (d.op.to_string(), d.size as u64, d.median_ns))
        .collect();

    let missing = |from: &[(String, u64, u64)], side: &str, other: &[(String, u64, u64)]| {
        from.iter()
            .filter(|(op, size, _)| !other.iter().any(|(o, s, _)| o == op && s == size))
            .map(|(op, size, _)| format!("{op} @ {size}: {side}"))
            .collect::<Vec<_>>()
    };
    let mut failures = missing(&baseline, "committed but not measured", &fresh);
    failures.extend(missing(&fresh, "measured but not committed", &baseline));
    for (op, size, committed_ns) in &baseline {
        let Some((_, _, fresh_ns)) = fresh
            .iter()
            .find(|(fop, fsize, _)| fop == op && fsize == size)
        else {
            continue;
        };
        let ratio = *fresh_ns as f64 / (*committed_ns).max(1) as f64;
        if ratio > factor {
            failures.push(format!(
                "{op} @ {size}: {fresh_ns} ns vs committed {committed_ns} ns ({ratio:.2}x > {factor}x)"
            ));
        }
    }
    if failures.is_empty() {
        eprintln!(
            "[check] {} datapoints within {factor}x of {baseline_path}",
            baseline.len()
        );
        Ok(())
    } else {
        Err(format!(
            "perf gate failed vs {baseline_path}:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let baseline = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_timeline.json");
        if let Err(msg) = check(baseline, 3.0) {
            fail(&msg);
        }
        return;
    }

    let out = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_timeline.json".into());
    let samples = 30;
    let (micro, ops) = measure(samples).unwrap_or_else(|msg| fail(&msg));
    let report = Value::Map(vec![
        ("schema".into(), "lsps-bench/timeline-v2".to_value()),
        ("m".into(), 1024usize.to_value()),
        ("samples".into(), samples.to_value()),
        ("results".into(), to_json(&micro, "bookings")),
        ("ops".into(), to_json(&ops, "n")),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    let path = std::path::Path::new(&out);
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let name = path
        .file_name()
        .unwrap_or_else(|| panic!("output path `{out}` has no file name"))
        .to_string_lossy();
    lsps_scenario::write_file_atomic(dir, &name, &(json + "\n"));
    println!("[written] {out}");
}
