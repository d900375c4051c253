//! FIG3 — the CIMENT light grid under CiGri best-effort sharing.
//!
//! Uses the four Fig. 3 clusters and the §5.2 story: each community keeps
//! submitting to its own cluster; one multi-parametric campaign flows
//! through the central best-effort server. Measures the paper's claims:
//!
//! 1. local users are *not* disturbed (bit-identical local records with
//!    and without the grid layer; the binary exits 1, after writing its
//!    CSVs, when this reads `VIOLATED`);
//! 2. the grid layer converts idle holes into completed campaign runs
//!    (utilization rises);
//! 3. the cost of the kill/resubmit mechanism ("the cost of killing one of
//!    them is not too big") — ablated over the campaign run length.

use lsps_bench::write_csv;
use lsps_des::{Dur, SimRng};
use lsps_grid::exchange::{run_exchange, ExchangeParams, ExchangeStrategy};
use lsps_grid::{ciment_scenario, ScenarioParams};
use lsps_metrics::{jain_index, per_user};
use lsps_platform::presets;
use lsps_scenario::Table;
use lsps_workload::{CommunityProfile, Job, UserId};

fn main() {
    println!("FIG3 — CIMENT grid, CiGri best-effort layer\n");
    // The local workloads (heavy-tailed physics jobs) span days of
    // simulated time; size the campaign to the idle capacity so the
    // utilization effect is visible — §5.2's campaigns run "up to several
    // hundreds of thousands" of runs.
    let base = ScenarioParams {
        local_jobs_per_cluster: 60,
        campaign_runs: 150_000,
        campaign_run_s: 600.0,
        ..Default::default()
    };
    let out = ciment_scenario(base);
    let with = &out.with_grid;
    let without = &out.without_grid;
    let wl = with.local.as_ref().expect("locals ran");
    let nl = without.local.as_ref().expect("locals ran");

    let mut t = Table::new(&["metric", "without grid", "with grid"]);
    t.row(vec![
        "local Cmax (s)".into(),
        format!("{:.0}", nl.cmax),
        format!("{:.0}", wl.cmax),
    ]);
    t.row(vec![
        "local mean flow (s)".into(),
        format!("{:.1}", nl.mean_flow),
        format!("{:.1}", wl.mean_flow),
    ]);
    t.row(vec![
        "local mean slowdown".into(),
        format!("{:.3}", nl.mean_slowdown),
        format!("{:.3}", wl.mean_slowdown),
    ]);
    t.row(vec![
        "campaign runs done".into(),
        without.be_completed.to_string(),
        with.be_completed.to_string(),
    ]);
    t.row(vec![
        "kills".into(),
        without.kills.to_string(),
        with.kills.to_string(),
    ]);
    t.row(vec![
        "wasted CPU (s)".into(),
        format!("{:.0}", without.wasted_cpu_s),
        format!("{:.0}", with.wasted_cpu_s),
    ]);
    t.row(vec![
        "campaign drained at (s)".into(),
        "-".into(),
        format!("{:.0}", with.campaign_done_at.as_secs_f64()),
    ]);
    for (i, (u_with, u_without)) in with
        .utilization
        .iter()
        .zip(&without.utilization)
        .enumerate()
    {
        t.row(vec![
            format!("cluster {i} utilization"),
            format!("{:.1}%", u_without * 100.0),
            format!("{:.1}%", u_with * 100.0),
        ]);
    }
    t.row(vec![
        "community fairness (Jain)".into(),
        "-".into(),
        format!("{:.3}", out.fairness),
    ]);
    t.print();

    let undisturbed = with.local_records == without.local_records;
    println!(
        "\nclaim check — locals undisturbed by best-effort jobs: {}",
        if undisturbed { "HOLDS" } else { "VIOLATED" }
    );

    // Ablation: kill cost vs campaign run length (§5.2: "Since there are a
    // large number of relatively small runs, the cost of killing one of
    // them is not too big").
    println!("\nablation — kill overhead vs run length:");
    let mut t2 = Table::new(&[
        "run length (s)",
        "runs",
        "kills",
        "wasted CPU (s)",
        "wasted / useful",
        "drained at (s)",
    ]);
    let mut csv = String::from("run_s,runs,kills,wasted_cpu_s,wasted_frac,drained_s\n");
    for run_s in [60.0, 600.0, 3600.0, 14400.0] {
        // Same total campaign work in every row (9e7 CPU-s).
        let runs = (150_000.0 * 600.0 / run_s) as usize;
        let out = ciment_scenario(ScenarioParams {
            campaign_runs: runs,
            campaign_run_s: run_s,
            ..base
        });
        let g = &out.with_grid;
        let useful = g.be_completed as f64 * run_s;
        let frac = g.wasted_cpu_s / useful.max(1.0);
        t2.row(vec![
            format!("{run_s:.0}"),
            runs.to_string(),
            g.kills.to_string(),
            format!("{:.0}", g.wasted_cpu_s),
            format!("{:.4}", frac),
            format!("{:.0}", g.campaign_done_at.as_secs_f64()),
        ]);
        csv.push_str(&format!(
            "{run_s},{runs},{},{:.2},{:.6},{:.2}\n",
            g.kills,
            g.wasted_cpu_s,
            frac,
            g.campaign_done_at.as_secs_f64()
        ));
    }
    t2.print();
    write_csv("ciment.csv", &csv);
    println!("\npaper shape check: small runs ⇒ negligible wasted fraction; very long runs ⇒ kills start to cost.");

    // §5.2's second vision: decentralized load exchange between the local
    // queues, compared on a lopsided sequential workload (one community
    // floods its own cluster while the others idle).
    println!("\ndecentralized vision — load exchange between the CIMENT clusters:");
    let platform = presets::ciment();
    let mk_subs = || -> Vec<(usize, Job)> {
        use lsps_workload::{ArrivalSpec, DistSpec, WorkloadSpec};
        let rng = SimRng::seed_from(17);
        let mut subs = Vec::new();
        // A physics campaign deadline: 500 sequential jobs dumped on the
        // 96-CPU Xeon cluster at once — the flooding §5.2 worries about.
        let flood = WorkloadSpec {
            n_jobs: 500,
            arrival: ArrivalSpec::AllAtZero,
            work_s: DistSpec::LogUniform(3_600.0, 86_400.0),
            parallel_fraction: 0.0,
            models: vec![],
            max_procs_frac: (0.0, 0.0),
            weight: DistSpec::Fixed(1.0),
            user: UserId(1),
        };
        for (i, mut j) in flood
            .generate(96, &mut rng.child(0))
            .into_iter()
            .enumerate()
        {
            j.id = lsps_workload::JobId(i as u64);
            subs.push((1usize, j));
        }
        // Light debug load on the Athlon cluster.
        let light = CommunityProfile::ComputerScience
            .spec(40)
            .generate(80, &mut rng.child(1));
        for (i, mut j) in light.into_iter().enumerate() {
            j.id = lsps_workload::JobId(1_000 + i as u64);
            j.kind = lsps_workload::JobKind::Rigid {
                procs: 1,
                len: j.seq_time(),
            };
            j.user = UserId(2);
            subs.push((2usize, j));
        }
        subs
    };
    let mut t3 = Table::new(&[
        "strategy",
        "migrations",
        "mean flow (s)",
        "max flow (s)",
        "fairness (Jain)",
    ]);
    let mut csv3 = String::from("strategy,migrations,mean_flow,max_flow,fairness\n");
    for (name, params) in [
        (
            "isolated",
            ExchangeParams {
                enabled: false,
                ..Default::default()
            },
        ),
        (
            "threshold",
            ExchangeParams {
                period: Dur::from_secs(120),
                strategy: ExchangeStrategy::Threshold,
                ..Default::default()
            },
        ),
        (
            "auction",
            ExchangeParams {
                period: Dur::from_secs(120),
                strategy: ExchangeStrategy::Auction,
                ..Default::default()
            },
        ),
    ] {
        let report = run_exchange(&platform, mk_subs(), params);
        let flows: Vec<f64> = per_user(&report.records)
            .iter()
            .map(|r| r.mean_flow.max(1e-9))
            .collect();
        let fairness = jain_index(&flows);
        t3.row(vec![
            name.into(),
            report.migrations.to_string(),
            format!("{:.0}", report.overall.mean_flow),
            format!("{:.0}", report.overall.max_flow),
            format!("{:.3}", fairness),
        ]);
        csv3.push_str(&format!(
            "{name},{},{:.2},{:.2},{:.4}\n",
            report.migrations, report.overall.mean_flow, report.overall.max_flow, fairness
        ));
    }
    t3.print();
    write_csv("ciment_exchange.csv", &csv3);
    println!("\nreading: exchanging work cuts the flooded community's flow times; the\nauction rule migrates only when the move pays for its WAN cost.");
    // A failed claim still gets its CSVs; the exit code reports it.
    if !undisturbed {
        eprintln!("ciment: locals undisturbed claim VIOLATED");
        std::process::exit(1);
    }
}
