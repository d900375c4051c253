//! Built-in campaign specs: the historical experiment binaries as data.
//!
//! `models_compare`, `guarantees` and `fig2` are thin wrappers over these
//! constructors — each binary builds its spec(s), calls
//! [`run_campaign`](crate::campaign::run_campaign), and keeps only its
//! bespoke table/advisor presentation. The specs pin the *exact* workload
//! names, seeds and orderings of the hand-rolled sweeps (sequential seed
//! derivation, explicit per-seed entries where the historical loop
//! interleaved series), so the emitted CSVs are byte-identical to the
//! pre-campaign binaries.

use lsps_core::policy::ReleaseMode;
use lsps_workload::WorkloadSpec;

use crate::runner::Executor;
use crate::spec::{
    CampaignSpec, PlatformSpec, ReplicationSpec, SeedDerivation, WorkloadEntry, WorkloadSource,
};

fn family(name: &str, n: usize) -> WorkloadSource {
    WorkloadSource::Family {
        family: name.into(),
        n,
    }
}

/// FIG2 — one policy (`bicriteria`), the two Fig. 2 job populations ×
/// n = 50..1000 × 10 seeds, m = 100. Entries carry explicit seeds in the
/// historical interleaving (per n: per seed: non-parallel, then parallel),
/// reproducing the original CSV row order exactly.
pub fn fig2_spec() -> CampaignSpec {
    const M: usize = 100;
    const SEEDS: u64 = 10;
    const NS: [usize; 11] = [50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000];
    let mut spec = CampaignSpec::new("fig2");
    spec.policies = vec!["bicriteria".into()];
    spec.platforms = vec![PlatformSpec {
        name: "fig2".into(),
        m: M,
        speeds: None,
    }];
    for &n in &NS {
        for seed in 0..SEEDS {
            for (series, fam) in [
                ("Non Parallel", "fig2-sequential"),
                ("Parallel", "fig2-parallel"),
            ] {
                spec.workloads.push(WorkloadEntry {
                    name: format!("{series}/{n}"),
                    source: family(fam, n),
                    seed: Some(1000 + seed),
                });
            }
        }
    }
    spec
}

/// TAB-P — the advisor's five policy choices × the three application
/// classes × every executor on the Fig. 2 machine, in the given release
/// mode. One spec per mode; the binary runs both.
pub fn models_compare_spec(mode: ReleaseMode) -> CampaignSpec {
    const M: usize = 100;
    const N: usize = 400;
    const SEED: u64 = 7;
    let mode_name = match mode {
        ReleaseMode::Offline => "offline",
        ReleaseMode::Online => "online",
    };
    let mut spec = CampaignSpec::new(format!("models-compare-{mode_name}"));
    spec.policies = vec![
        "list-wspt".into(),
        "backfill-easy".into(),
        "smart-weighted".into(),
        "batch-mrt".into(),
        "bicriteria".into(),
    ];
    spec.executors = Executor::ALL.to_vec();
    spec.platforms = vec![PlatformSpec {
        name: "fig2".into(),
        m: M,
        speeds: None,
    }];
    spec.workloads = vec![
        WorkloadEntry {
            name: "SequentialBag".into(),
            source: WorkloadSource::Spec(WorkloadSpec::fig2_sequential(N)),
            seed: Some(SEED),
        },
        WorkloadEntry {
            name: "Rigid".into(),
            source: family("fig2-rigid", N),
            seed: Some(SEED),
        },
        WorkloadEntry {
            name: "Moldable".into(),
            source: WorkloadSource::Spec(WorkloadSpec::fig2_parallel(N)),
            seed: Some(SEED),
        },
    ];
    spec.ctx.release_mode = mode;
    spec
}

/// TAB-G — one claim at one machine size: `policy` over `seeds` sequential
/// replications of the named instance family (the historical
/// `seed_base + k` streams) on an `m`-processor platform.
pub fn guarantees_spec(
    policy: &str,
    family_name: &str,
    seed_base: u64,
    seeds: usize,
    m: usize,
    n: usize,
) -> CampaignSpec {
    let mut spec = CampaignSpec::new(format!("guarantees-{policy}-{family_name}-m{m}"));
    spec.policies = vec![policy.into()];
    spec.platforms = vec![PlatformSpec {
        name: format!("m{m}"),
        m,
        speeds: None,
    }];
    spec.workloads = vec![WorkloadEntry {
        name: format!("{family_name}-n{n}"),
        source: family(family_name, n),
        seed: None,
    }];
    spec.replication = ReplicationSpec {
        base_seed: seed_base,
        replications: seeds,
        derivation: SeedDerivation::Sequential,
    };
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::check_spec;
    use crate::campaign::CampaignOptions;

    #[test]
    fn builtin_specs_validate() {
        let opts = CampaignOptions::default();
        check_spec(&fig2_spec(), &opts).expect("fig2");
        for mode in [ReleaseMode::Offline, ReleaseMode::Online] {
            check_spec(&models_compare_spec(mode), &opts).expect("models");
        }
        check_spec(&guarantees_spec("mrt", "moldable0", 0, 12, 64, 40), &opts).expect("guarantees");
    }

    #[test]
    fn fig2_grid_shape() {
        let spec = fig2_spec();
        assert_eq!(spec.workloads.len(), 11 * 10 * 2);
        assert_eq!(spec.cell_count(), 220);
        // Historical interleaving: per (n, seed), non-parallel then
        // parallel, with the explicit 1000-based seeds.
        assert_eq!(spec.workloads[0].name, "Non Parallel/50");
        assert_eq!(spec.workloads[0].seed, Some(1000));
        assert_eq!(spec.workloads[1].name, "Parallel/50");
        assert_eq!(spec.workloads[1].seed, Some(1000));
        assert_eq!(spec.workloads[2].name, "Non Parallel/50");
        assert_eq!(spec.workloads[2].seed, Some(1001));
    }

    #[test]
    fn models_compare_grid_shape() {
        let spec = models_compare_spec(ReleaseMode::Online);
        // 5 policies × 2 executors × 3 workloads × 1 platform.
        assert_eq!(spec.cell_count(), 30);
        assert_eq!(spec.executors, Executor::ALL.to_vec());
    }
}
