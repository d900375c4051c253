//! Machine hierarchy: nodes, clusters, platforms (light grids).
//!
//! Global processor numbering is cluster-major then node-major: cluster 0's
//! processors come first, inside a cluster node 0's CPUs come first. All
//! scheduling code addresses processors through this global numbering via
//! [`ProcSet`]s.

use serde::{Deserialize, Serialize};

use crate::network::{LinkClass, NetworkModel};
use crate::procset::{ProcId, ProcSet};

/// One machine (PC or SMP node).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Number of CPUs on the node (1 for a simple PC, 2 for the bi-processor
    /// nodes of Fig. 3).
    pub cpus: u32,
    /// Relative speed of each CPU (1.0 = reference). Within a cluster speeds
    /// differ only mildly — the paper's *weak* heterogeneity (different
    /// generations of the same processor family).
    pub speed: f64,
}

impl Node {
    /// A node with `cpus` CPUs at relative speed `speed`.
    pub fn new(cpus: u32, speed: f64) -> Self {
        assert!(cpus > 0 && speed > 0.0);
        Node { cpus, speed }
    }
}

/// A cluster: a set of nodes behind one interconnect, administrated and
/// submitted-to as a unit (paper §1.2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Human-readable name ("icluster", "xeon", …).
    pub name: String,
    /// The machines.
    pub nodes: Vec<Node>,
    /// The cluster interconnect class.
    pub interconnect: LinkClass,
}

impl Cluster {
    /// A homogeneous cluster of `n_nodes` nodes with `cpus_per_node` CPUs
    /// each at relative speed `speed`.
    pub fn homogeneous(
        name: impl Into<String>,
        n_nodes: usize,
        cpus_per_node: u32,
        speed: f64,
        interconnect: LinkClass,
    ) -> Self {
        Cluster {
            name: name.into(),
            nodes: vec![Node::new(cpus_per_node, speed); n_nodes],
            interconnect,
        }
    }

    /// Total CPU count of the cluster.
    pub fn total_procs(&self) -> usize {
        self.nodes.iter().map(|n| n.cpus as usize).sum()
    }

    /// Mean relative CPU speed (weighted by CPU count).
    pub fn mean_speed(&self) -> f64 {
        let cpus: f64 = self.total_procs() as f64;
        let sum: f64 = self.nodes.iter().map(|n| n.cpus as f64 * n.speed).sum();
        sum / cpus
    }

    /// Speed of the `i`-th CPU of this cluster (cluster-local index).
    pub fn proc_speed(&self, i: usize) -> f64 {
        let mut rest = i;
        for node in &self.nodes {
            if rest < node.cpus as usize {
                return node.speed;
            }
            rest -= node.cpus as usize;
        }
        panic!("cluster {}: proc index {i} out of range", self.name);
    }
}

/// A light grid: a few clusters plus the network hierarchy connecting them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Name of the platform ("CIMENT", …).
    pub name: String,
    /// The clusters, in global numbering order.
    pub clusters: Vec<Cluster>,
    /// The three-level network model.
    pub network: NetworkModel,
}

impl Platform {
    /// A platform from explicit clusters.
    pub fn new(name: impl Into<String>, clusters: Vec<Cluster>, network: NetworkModel) -> Self {
        assert!(
            !clusters.is_empty(),
            "a platform needs at least one cluster"
        );
        Platform {
            name: name.into(),
            clusters,
            network,
        }
    }

    /// A single homogeneous cluster of `m` single-CPU machines at speed 1 —
    /// the setting of the paper's Fig. 2 simulation (m = 100) and of all
    /// identical-machine theory results.
    pub fn uniform(name: impl Into<String>, m: usize) -> Self {
        Platform::new(
            name,
            vec![Cluster::homogeneous("c0", m, 1, 1.0, LinkClass::gige())],
            NetworkModel::light_grid_default(),
        )
    }

    /// Total number of CPUs across all clusters.
    pub fn total_procs(&self) -> usize {
        self.clusters.iter().map(|c| c.total_procs()).sum()
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Global index of the first CPU of cluster `ci`.
    pub fn cluster_offset(&self, ci: usize) -> usize {
        self.clusters[..ci].iter().map(|c| c.total_procs()).sum()
    }

    /// The global [`ProcSet`] owned by cluster `ci`.
    pub fn cluster_procs(&self, ci: usize) -> ProcSet {
        let off = self.cluster_offset(ci);
        ProcSet::range(off, off + self.clusters[ci].total_procs())
    }

    /// Which cluster a global processor index belongs to.
    pub fn cluster_of(&self, p: ProcId) -> usize {
        let mut rest = p.index();
        for (ci, c) in self.clusters.iter().enumerate() {
            let n = c.total_procs();
            if rest < n {
                return ci;
            }
            rest -= n;
        }
        panic!("platform {}: proc {p} out of range", self.name);
    }

    /// Relative speed of a global processor.
    pub fn proc_speed(&self, p: ProcId) -> f64 {
        let ci = self.cluster_of(p);
        let local = p.index() - self.cluster_offset(ci);
        self.clusters[ci].proc_speed(local)
    }

    /// Aggregate compute power (sum of relative speeds) — the quantity the
    /// steady-state DLT throughput is limited by.
    pub fn total_power(&self) -> f64 {
        (0..self.total_procs())
            .map(|i| self.proc_speed(ProcId(i as u32)))
            .sum()
    }

    /// A one-paragraph ASCII rendition of the platform (Fig. 1 / Fig. 3
    /// style), for the `platforms` experiment binary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "platform {} — {} clusters, {} CPUs, power {:.1}",
            self.name,
            self.n_clusters(),
            self.total_procs(),
            self.total_power()
        );
        for (ci, c) in self.clusters.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{}] {:<12} {:>4} nodes × {} cpus  speed {:.2}  link {:>6.0} µs / {:>7.1} MB/s  procs {}",
                ci,
                c.name,
                c.nodes.len(),
                c.nodes.first().map(|n| n.cpus).unwrap_or(0),
                c.mean_speed(),
                c.interconnect.latency_s * 1e6,
                c.interconnect.bandwidth_bps / 1e6,
                self.cluster_procs(ci),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster() -> Platform {
        Platform::new(
            "t",
            vec![
                Cluster::homogeneous("a", 2, 2, 1.0, LinkClass::myrinet()),
                Cluster::homogeneous("b", 3, 1, 0.5, LinkClass::eth100()),
            ],
            NetworkModel::light_grid_default(),
        )
    }

    #[test]
    fn totals_and_offsets() {
        let p = two_cluster();
        assert_eq!(p.total_procs(), 7);
        assert_eq!(p.cluster_offset(0), 0);
        assert_eq!(p.cluster_offset(1), 4);
        assert_eq!(p.cluster_procs(0), ProcSet::range(0, 4));
        assert_eq!(p.cluster_procs(1), ProcSet::range(4, 7));
    }

    #[test]
    fn cluster_of_and_speed() {
        let p = two_cluster();
        assert_eq!(p.cluster_of(ProcId(0)), 0);
        assert_eq!(p.cluster_of(ProcId(3)), 0);
        assert_eq!(p.cluster_of(ProcId(4)), 1);
        assert_eq!(p.cluster_of(ProcId(6)), 1);
        assert_eq!(p.proc_speed(ProcId(1)), 1.0);
        assert_eq!(p.proc_speed(ProcId(5)), 0.5);
        assert!((p.total_power() - (4.0 + 1.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn proc_out_of_range_panics() {
        two_cluster().cluster_of(ProcId(7));
    }

    #[test]
    fn uniform_platform() {
        let p = Platform::uniform("fig2", 100);
        assert_eq!(p.total_procs(), 100);
        assert_eq!(p.n_clusters(), 1);
        assert!((p.total_power() - 100.0).abs() < 1e-12);
        assert_eq!(p.proc_speed(ProcId(99)), 1.0);
    }

    #[test]
    fn heterogeneous_node_speeds() {
        let c = Cluster {
            name: "mix".into(),
            nodes: vec![Node::new(2, 1.0), Node::new(2, 0.8)],
            interconnect: LinkClass::gige(),
        };
        assert_eq!(c.proc_speed(0), 1.0);
        assert_eq!(c.proc_speed(1), 1.0);
        assert_eq!(c.proc_speed(2), 0.8);
        assert_eq!(c.proc_speed(3), 0.8);
        assert!((c.mean_speed() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_all_clusters() {
        let p = two_cluster();
        let r = p.render();
        assert!(r.contains("a") && r.contains("b") && r.contains("7 CPUs"));
    }
}
