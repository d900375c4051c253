//! # lsps-dlt — Divisible Load Theory (§2.1 and §5.2 of the paper)
//!
//! "A Divisible Load Task can be seen as a (usually large) set of
//! computations that can be partitioned in every possible way" — introduced
//! by Cheng & Robertazzi (ref \[4\]) for big data files, and in the paper the
//! natural model for the CIMENT *multi-parametric* campaigns.
//!
//! The crate implements the distribution policies the paper discusses:
//!
//! * [`bus`] — one-round distribution over a shared bus (the "simple
//!   polynomial problem" of §2.1): closed-form chunk sizes such that all
//!   workers finish simultaneously, with optional result gathering as the
//!   "mirror image of the data distribution";
//! * [`star`] — one-round heterogeneous star with per-worker links and the
//!   classical ordering question (serve fastest links first);
//! * [`multiround`] — multi-installment distribution: pipeline
//!   communication and computation at the price of extra latencies;
//! * [`steady`] — bandwidth-centric steady state: the asymptotically
//!   optimal throughput for arbitrarily long campaigns, "computed in
//!   polynomial time" (§5.2), on stars and on trees (ref \[4\]'s topology);
//! * [`selfsched`] — dynamic chunk self-scheduling (work-stealing flavour,
//!   §2.1 ref \[3\]) as the practical baseline the closed forms are measured
//!   against.
//!
//! Units: *load* is measured in abstract units (1 unit = 1 second of work
//! for a speed-1.0 reference CPU); worker speeds and link bandwidths are
//! both units/second (a link's bytes/s divided by the application's bytes
//! per unit), so the crate needs no platform model. All math is
//! `f64` (rounded to ticks only at the simulation boundary, per DESIGN.md).

pub mod bus;
pub mod model;
pub mod multiround;
pub mod selfsched;
pub mod star;
pub mod steady;
pub mod tree;

pub use bus::bus_single_round;
pub use model::{DltPlan, Worker};
pub use multiround::{multi_round, MultiRoundParams};
pub use selfsched::self_schedule;
pub use star::{star_single_round, WorkerOrder};
pub use steady::{star_steady_state, tree_steady_state, TreeNode};
pub use tree::{equivalent_speed, tree_single_round, TreeAlphas};

/// Commonly used items.
pub mod prelude {
    pub use crate::bus::bus_single_round;
    pub use crate::model::{DltPlan, Worker};
    pub use crate::multiround::{multi_round, MultiRoundParams};
    pub use crate::selfsched::self_schedule;
    pub use crate::star::{star_single_round, WorkerOrder};
    pub use crate::steady::{star_steady_state, tree_steady_state, TreeNode};
    pub use crate::tree::{equivalent_speed, tree_single_round, TreeAlphas};
}
