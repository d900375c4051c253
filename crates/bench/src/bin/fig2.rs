//! FIG2 — regenerates Figure 2 of the paper.
//!
//! "A simulated implementation of a variation of the bi-criteria algorithm
//! has been realized […] the simulation assumed a cluster of 100 machines,
//! parallel and non-parallel jobs, and two criteria Cmax and Σ ωiCi."
//!
//! A thin wrapper over the built-in
//! [`lsps_scenario::campaign::builtin::fig2_spec`] campaign: one policy
//! (`bicriteria` from the registry), workloads = the two Fig. 2 job
//! populations × n = 50..1000 × 10 seeds, one platform (m = 100). The
//! table reports the two ratios the figure plots, aggregated over seeds;
//! the CSV carries every raw cell in the standard runner schema
//! (byte-identical to the pre-campaign hand-rolled sweep).
//!
//! Expected shape (paper): ratios between 1 and ~2.8, decreasing with the
//! number of tasks, the non-parallel series above the parallel one for
//! Σ ωiCi.

use lsps_bench::write_csv;
use lsps_scenario::campaign::builtin::fig2_spec;
use lsps_scenario::runner::{self, summarize_by};
use lsps_scenario::Table;
use lsps_scenario::{run_campaign, CampaignOptions};

fn main() {
    let spec = fig2_spec();
    // Banner shape comes from the spec itself: m from the single platform,
    // seeds/point from how many entries share one series name.
    let m = spec.platforms[0].m;
    let seeds = spec
        .workloads
        .iter()
        .filter(|w| w.name == spec.workloads[0].name)
        .count();
    println!("FIG2 — bi-criteria simulation on {m} machines ({seeds} seeds/point)\n");

    let report =
        run_campaign(&spec, &CampaignOptions::default()).expect("built-in campaign spec runs");
    let cells = report.cells;

    let wici = summarize_by(&cells, |c| c.workload.clone(), |c| c.wsum_ratio);
    let cmax = summarize_by(&cells, |c| c.workload.clone(), |c| c.cmax_ratio);
    let cmax_of = |key: &String| {
        cmax.iter()
            .find(|(k, _)| k == key)
            .map(|(_, s)| s)
            .expect("same grouping")
    };

    let mut table = Table::new(&["n", "series", "WiCi ratio", "±", "Cmax ratio", "±"]);
    for (key, w) in &wici {
        let (series, n) = key.split_once('/').expect("series/n key");
        let c = cmax_of(key);
        table.row(vec![
            n.to_string(),
            series.to_string(),
            format!("{:.3}", w.mean()),
            format!("{:.3}", w.std_dev()),
            format!("{:.3}", c.mean()),
            format!("{:.3}", c.std_dev()),
        ]);
    }
    table.print();
    write_csv("fig2.csv", &runner::to_csv(&cells));
    println!(
        "\npaper shape check: ratios should start high at small n and decrease \
         toward 1 as n grows (both plots of Fig. 2)."
    );
}
