//! TAB-P — "which policy for which application?", quantified.
//!
//! The paper's thesis is that the right policy depends on the application
//! class and the criterion. This binary is a thin wrapper over the
//! built-in [`lsps_scenario::campaign::builtin::models_compare_spec`]
//! campaigns: the advisor's policy choices (by registry name) cross three
//! workload classes on the Fig. 2 machine (m = 100) and every executor,
//! one campaign per release mode, through one code path. The measured
//! winners are then compared against the advisor's recommendations.

use lsps_bench::write_csv;
use lsps_core::advisor::{advise, Application, Objective};
use lsps_core::allot::{two_phase_moldable, AllotRule};
use lsps_core::list::JobOrder;
use lsps_core::mrt::{mrt_schedule, MrtParams};
use lsps_core::policy::ReleaseMode;
use lsps_des::{Dur, SimRng, Time};
use lsps_metrics::cmax_lower_bound;
use lsps_scenario::campaign::builtin::models_compare_spec;
use lsps_scenario::runner::{self, Cell};
use lsps_scenario::Table;
use lsps_scenario::{run_campaign, CampaignOptions};
use lsps_workload::{Job, MoldableProfile, SpeedupModel, WorkloadSpec};

const M: usize = 100;
const N: usize = 400;

fn main() {
    println!("TAB-P — policy × workload matrix on m = {M} (ratios vs lower bounds)\n");

    // Every (mode × executor) through one campaign per mode: the executor
    // column quantifies what moving from a batch rectangle evaluation
    // (direct) to honest event-driven online execution (des-online) costs
    // each policy.
    let mut all_cells: Vec<(String, Cell)> = Vec::new();
    for mode in [ReleaseMode::Offline, ReleaseMode::Online] {
        let mode_name = match mode {
            ReleaseMode::Offline => "off-line",
            ReleaseMode::Online => "on-line",
        };
        let report = run_campaign(&models_compare_spec(mode), &CampaignOptions::default())
            .expect("built-in campaign spec runs");
        for cell in report.cells {
            all_cells.push((mode_name.to_string(), cell));
        }
    }

    let mut table = Table::new(&[
        "mode",
        "executor",
        "workload",
        "policy",
        "Cmax ratio",
        "sWC ratio",
        "mean flow (s)",
        "max flow (s)",
        "util %",
    ]);
    let mut csv = String::from("mode,");
    csv.push_str(runner::CSV_HEADER);
    csv.push('\n');
    for (mode, c) in &all_cells {
        table.row(vec![
            mode.clone(),
            c.executor.clone(),
            c.workload.clone(),
            c.policy.clone(),
            format!("{:.3}", c.cmax_ratio),
            format!("{:.3}", c.wsum_ratio),
            format!("{:.1}", c.criteria.mean_flow),
            format!("{:.1}", c.criteria.max_flow),
            format!("{:.1}", c.utilization * 100.0),
        ]);
        csv.push_str(&format!("{mode},{}\n", c.csv_row()));
    }
    table.print();
    write_csv("models_compare.csv", &csv);

    println!("\nmeasured winners vs advisor recommendations:");
    println!("(the advisor optimizes worst-case guarantees; on random instances the");
    println!(" greedy policies are competitive — the paper's own pragmatic point)");
    let mut t2 = Table::new(&[
        "mode",
        "workload",
        "criterion",
        "measured best",
        "advisor says",
        "guarantee",
    ]);
    for mode in ["off-line", "on-line"] {
        for wl in ["SequentialBag", "Rigid", "Moldable"] {
            // Winners are judged on the batch evaluation (direct); the
            // des-online rows quantify the online-execution cost separately.
            let group: Vec<&Cell> = all_cells
                .iter()
                .filter(|(m, c)| m == mode && c.workload == wl && c.executor == "direct")
                .map(|(_, c)| c)
                .collect();
            let best = |metric: &dyn Fn(&Cell) -> f64| -> String {
                group
                    .iter()
                    .min_by(|a, b| metric(a).total_cmp(&metric(b)))
                    .expect("non-empty group")
                    .policy
                    .clone()
            };
            let app = match wl {
                "SequentialBag" => Application::SequentialBag,
                "Rigid" => Application::RigidParallel,
                _ => Application::Moldable,
            };
            let on_line = mode == "on-line";
            for (criterion, metric, objective) in [
                (
                    "Cmax",
                    (&|c: &Cell| c.cmax_ratio) as &dyn Fn(&Cell) -> f64,
                    Objective::Makespan,
                ),
                (
                    "sum wC",
                    &|c: &Cell| c.wsum_ratio,
                    Objective::WeightedCompletion,
                ),
            ] {
                let rec = advise(app, objective, on_line);
                let advised = rec
                    .policy
                    .instantiate()
                    .map(|p| p.name().to_string())
                    .unwrap_or_else(|| format!("{:?}", rec.policy));
                t2.row(vec![
                    mode.into(),
                    wl.into(),
                    criterion.into(),
                    best(metric),
                    advised,
                    rec.guarantee
                        .map(|g| format!("{g:.2}"))
                        .unwrap_or_else(|| "-".into()),
                ]);
            }
        }
    }
    t2.print();

    // Campaign class: DLT policies (the PT policies would schedule 10^5
    // unit jobs; DLT treats them as one divisible load — the paper's §5.2
    // point).
    println!("\ncampaign class (divisible): see dlt_policies; steady-state is the advisor pick:");
    let rec = advise(Application::DivisibleLoad, Objective::Throughput, true);
    println!("  advisor: {:?} — {}", rec.policy, rec.rationale);

    // Quantified §5.1 remark: mixed strategies.
    println!("\nmixed rigid+moldable strategies (§5.1), Cmax ratio:");
    let mut rng = SimRng::seed_from(11);
    let mixed: Vec<Job> = (0..N)
        .map(|i| {
            let seq = Dur::from_ticks(rng.int_range(1_000, 300_000));
            if rng.chance(0.4) {
                Job::rigid(i as u64, rng.int_range(1, 40) as usize, seq)
            } else {
                Job::moldable(
                    i as u64,
                    MoldableProfile::from_model(
                        seq,
                        &SpeedupModel::Amdahl {
                            seq_fraction: rng.range(0.0, 0.2),
                        },
                        rng.int_range(1, M as u64) as usize,
                    ),
                )
            }
        })
        .collect();
    let lb = cmax_lower_bound(&mixed, M).as_secs_f64();
    let mut t3 = Table::new(&["strategy", "Cmax ratio"]);
    for strategy in [
        lsps_core::mixed::MixedStrategy::SeparatePhases,
        lsps_core::mixed::MixedStrategy::PreallocateThenRigid,
        lsps_core::mixed::MixedStrategy::RigidIntoBatches,
    ] {
        let s = lsps_core::mixed::mixed_schedule(&mixed, M, strategy);
        s.validate(&mixed).expect("valid");
        t3.row(vec![
            format!("{strategy:?}"),
            format!("{:.3}", s.makespan().as_secs_f64() / lb),
        ]);
    }
    t3.print();

    // Two-phase allotment ablation (DESIGN.md §5).
    println!("\nmoldable allotment-rule ablation (two-phase, Cmax ratio):");
    let moldable = {
        let mut rng = SimRng::seed_from(13);
        WorkloadSpec::fig2_parallel(N).generate(M, &mut rng)
    };
    let zero: Vec<Job> = moldable
        .iter()
        .map(|j| {
            let mut c = j.clone();
            c.release = Time::ZERO;
            c
        })
        .collect();
    let lb = cmax_lower_bound(&zero, M).as_secs_f64();
    let mut t4 = Table::new(&["allot rule", "Cmax ratio"]);
    for rule in [
        AllotRule::Sequential,
        AllotRule::MinTime,
        AllotRule::Balanced,
    ] {
        let s = two_phase_moldable(&zero, M, rule, JobOrder::Lpt);
        s.validate(&zero).expect("valid");
        t4.row(vec![
            format!("{rule:?}"),
            format!("{:.3}", s.makespan().as_secs_f64() / lb),
        ]);
    }
    let s = mrt_schedule(&zero, M, MrtParams::default());
    s.validate(&zero).expect("valid");
    t4.row(vec![
        "MRT knapsack".into(),
        format!("{:.3}", s.makespan().as_secs_f64() / lb),
    ]);
    t4.print();
}
