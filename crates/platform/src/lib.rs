//! # lsps-platform — the execution-support model
//!
//! The paper (§1.2) targets a *light grid*: "a few clusters composed each by
//! a collection of a medium number of SMP or simple PC machines", highly
//! heterogeneous **between** clusters, weakly heterogeneous **inside** each
//! cluster, with a fast, possibly hierarchical interconnect and submission
//! through per-cluster queues.
//!
//! This crate models exactly that:
//!
//! * [`ProcSet`] — a compact bitset of processor indices; every allocation in
//!   the workspace is a `ProcSet`, which makes schedule-validity checking
//!   exact (two assignments conflict iff their sets intersect and their time
//!   windows overlap).
//! * [`Node`], [`Cluster`], [`Platform`] — the machine hierarchy of Fig. 1 /
//!   Fig. 3 with per-node relative speeds (weak intra-cluster heterogeneity)
//!   and per-cluster interconnect classes.
//! * [`LinkClass`], [`NetworkModel`] — the latency and bandwidth of each
//!   of the three levels of the hierarchy (intra-node, intra-cluster,
//!   inter-cluster), rendered and serialized with the platform.
//! * [`Timeline`] — per-processor availability over time: bookings, advance
//!   reservations (§5.1), hole queries. This is the substrate both for
//!   backfilling policies and for the CiGri best-effort hole-filling (§5.2).
//! * [`presets`] — ready-made platforms, including the four CIMENT clusters
//!   of Fig. 3 and the 225-PC IMAG cluster mentioned in §1.1.

pub mod network;
pub mod presets;
pub mod procset;
pub mod spec;
pub mod timeline;

pub use network::{LinkClass, NetworkModel};
pub use procset::{ProcId, ProcSet};
pub use spec::{Cluster, Node, Platform};
pub use timeline::{Booking, BookingId, BookingKind, Timeline};

/// Commonly used items.
pub mod prelude {
    pub use crate::network::{LinkClass, NetworkModel};
    pub use crate::presets;
    pub use crate::procset::{ProcId, ProcSet};
    pub use crate::spec::{Cluster, Node, Platform};
    pub use crate::timeline::{Booking, BookingId, BookingKind, Timeline};
}
