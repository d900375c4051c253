//! Communication model.
//!
//! The PT and DLT models both *hide* communications inside coarse
//! parameters — a penalty factor for parallel tasks, a distribution cost for
//! divisible loads (paper §2). What remains is a description of the
//! interconnect: a latency and a bandwidth per hierarchy level — inside an
//! SMP node, inside a cluster (Myrinet vs GigE vs 100 Mb Ethernet in
//! Fig. 3), and between clusters. [`Platform::render`](crate::Platform::render)
//! prints it and the platform JSON carries it; no scheduler prices a
//! transfer with it (DLT charges its own per-worker link cost).

use serde::{Deserialize, Serialize};

/// A link class: one-way latency and bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkClass {
    /// One-way latency, in seconds.
    pub latency_s: f64,
    /// Bandwidth, in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkClass {
    /// A link with the given latency (seconds) and bandwidth (bytes/s).
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(latency_s >= 0.0 && bandwidth_bps > 0.0);
        LinkClass {
            latency_s,
            bandwidth_bps,
        }
    }

    /// Myrinet-class interconnect (Fig. 3 "Myrinet"): ~10 µs, ~250 MB/s.
    pub fn myrinet() -> Self {
        LinkClass::new(10e-6, 250e6)
    }

    /// Gigabit Ethernet (Fig. 3 "Giga Eth"): ~50 µs, ~125 MB/s.
    pub fn gige() -> Self {
        LinkClass::new(50e-6, 125e6)
    }

    /// 100 Mb/s Ethernet (Fig. 3 "Eth 100"): ~100 µs, ~12.5 MB/s.
    pub fn eth100() -> Self {
        LinkClass::new(100e-6, 12.5e6)
    }

    /// Campus/metropolitan WAN between the clusters of a light grid:
    /// ~1 ms, ~100 MB/s shared.
    pub fn campus_wan() -> Self {
        LinkClass::new(1e-3, 100e6)
    }

    /// Shared memory inside an SMP node: ~1 µs, ~2 GB/s.
    pub fn smp_bus() -> Self {
        LinkClass::new(1e-6, 2e9)
    }
}

/// Three-level hierarchical network model of a light grid (Fig. 1).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Link inside an SMP node.
    pub intra_node: LinkClass,
    /// Link inside a cluster (the cluster's interconnect).
    pub intra_cluster: LinkClass,
    /// Link between clusters.
    pub inter_cluster: LinkClass,
}

impl NetworkModel {
    /// A model with the given three levels.
    pub fn new(intra_node: LinkClass, intra_cluster: LinkClass, inter_cluster: LinkClass) -> Self {
        NetworkModel {
            intra_node,
            intra_cluster,
            inter_cluster,
        }
    }

    /// The default light-grid hierarchy: SMP bus / GigE / campus WAN.
    pub fn light_grid_default() -> Self {
        NetworkModel::new(
            LinkClass::smp_bus(),
            LinkClass::gige(),
            LinkClass::campus_wan(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_ordered() {
        // A light grid must have strictly "faster inside than outside".
        let nm = NetworkModel::light_grid_default();
        let (tn, tc, tg) = (
            nm.intra_node.latency_s,
            nm.intra_cluster.latency_s,
            nm.inter_cluster.latency_s,
        );
        assert!(tn < tc && tc < tg, "{tn} < {tc} < {tg}");
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        LinkClass::new(0.0, 0.0);
    }
}
