//! Ready-made platforms from the paper.
//!
//! * [`ciment`] — the four largest CIMENT clusters exactly as drawn in
//!   Fig. 3 (104 bi-Itanium 2 on Myrinet, 48 bi-P4 Xeon on GigE, 40 and 24
//!   bi-Athlon on 100 Mb Ethernet).
//! * [`imag`] — the 225-PC IMAG cluster of §1.1.
//! * [`fig2`] — the 100-machine cluster of the Fig. 2 simulation.
//!
//! The `platforms` binary prints and serializes all three; the grid
//! experiments run on [`ciment`]. Campaign specs describe their own machines.

use crate::network::{LinkClass, NetworkModel};
use crate::spec::{Cluster, Platform};

/// The four largest clusters of the CIMENT light grid (Fig. 3).
///
/// Relative speeds encode the between-cluster heterogeneity: Itanium 2 is the
/// reference (1.0), the P4 Xeon class runs at 0.8, the Athlon class at 0.55.
/// Within a cluster nodes are identical; the paper's weak internal
/// heterogeneity is left to platforms built from [`Node`](crate::Node)s of
/// different speeds.
pub fn ciment() -> Platform {
    Platform::new(
        "CIMENT",
        vec![
            Cluster::homogeneous("icluster", 104, 2, 1.0, LinkClass::myrinet()),
            Cluster::homogeneous("xeon", 48, 2, 0.8, LinkClass::gige()),
            Cluster::homogeneous("athlon-40", 40, 2, 0.55, LinkClass::eth100()),
            Cluster::homogeneous("athlon-24", 24, 2, 0.55, LinkClass::eth100()),
        ],
        NetworkModel::new(
            LinkClass::smp_bus(),
            LinkClass::gige(),
            LinkClass::campus_wan(),
        ),
    )
}

/// The 225-PC IMAG cluster mentioned in §1.1 (single-CPU machines).
pub fn imag() -> Platform {
    Platform::new(
        "IMAG-225",
        vec![Cluster::homogeneous(
            "imag",
            225,
            1,
            1.0,
            LinkClass::eth100(),
        )],
        NetworkModel::light_grid_default(),
    )
}

/// The 100 identical machines of the Fig. 2 simulation.
pub fn fig2() -> Platform {
    Platform::uniform("fig2-cluster", 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ciment_matches_fig3() {
        let p = ciment();
        assert_eq!(p.n_clusters(), 4);
        let names: Vec<_> = p.clusters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["icluster", "xeon", "athlon-40", "athlon-24"]);
        let nodes: Vec<_> = p.clusters.iter().map(|c| c.nodes.len()).collect();
        assert_eq!(nodes, vec![104, 48, 40, 24]);
        assert!(
            p.clusters.iter().all(|c| c.nodes[0].cpus == 2),
            "all bi-proc"
        );
        // 216 nodes, 432 CPUs.
        assert_eq!(p.total_procs(), 432);
        // Interconnect classes ranked as in Fig. 3.
        assert!(
            p.clusters[0].interconnect.bandwidth_bps > p.clusters[1].interconnect.bandwidth_bps
        );
        assert!(
            p.clusters[1].interconnect.bandwidth_bps > p.clusters[2].interconnect.bandwidth_bps
        );
        assert_eq!(p.clusters[2].interconnect, p.clusters[3].interconnect);
    }

    #[test]
    fn imag_has_225_pcs() {
        let p = imag();
        assert_eq!(p.total_procs(), 225);
        assert_eq!(p.clusters[0].nodes[0].cpus, 1);
    }

    #[test]
    fn fig2_is_100_identical() {
        let p = fig2();
        assert_eq!(p.total_procs(), 100);
        assert!((p.total_power() - 100.0).abs() < 1e-9);
    }
}
