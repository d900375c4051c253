//! # lsps-metrics — optimization criteria and lower bounds
//!
//! §3 of the paper catalogues the criteria a light-grid scheduler may
//! optimise; this crate computes all of them from a list of
//! [`CompletedJob`] records:
//!
//! * makespan `Cmax = max Cj`;
//! * average completion time `Σ Ci` and its weighted variant `Σ ωi Ci`;
//! * mean *stretch* in the paper's sense (`Σ (Ci − ri)`, i.e. total flow
//!   time) and max stretch (longest wait), plus the normalized
//!   flow/slowdown variants common in the later literature;
//! * tardiness (number of late jobs, total and maximum tardiness);
//! * throughput (completed jobs per unit time — the steady-state criterion);
//! * utilization, wasted work, and per-community fairness (§5.2).
//!
//! [`lower_bounds`] provides certified lower bounds — the area and
//! tallest-job bounds for `Cmax`, the squashed-area WSPT bound for
//! `Σ ωi Ci` — used throughout the experiment harness to report performance
//! *ratios* when the optimum is out of reach (exactly what Fig. 2 of the
//! paper plots).

pub mod completed;
pub mod criteria;
pub mod fairness;
pub mod lower_bounds;
pub mod steady;
pub mod summary;
pub mod volatility;

pub use completed::CompletedJob;
pub use criteria::{Criteria, CriteriaAcc};
pub use fairness::{jain_index, per_user, UserReport};
pub use lower_bounds::{
    cmax_lower_bound, csum_lower_bound, uniform_cmax_lower_bound, uniform_csum_lower_bound,
    uniform_wsum_lower_bound, wsum_lower_bound,
};
pub use steady::{batch_means_ci95, ClassResponse, SteadyState, WarmupSpec};
pub use summary::Summary;
pub use volatility::FailureStats;

/// Commonly used items.
pub mod prelude {
    pub use crate::completed::CompletedJob;
    pub use crate::criteria::{Criteria, CriteriaAcc};
    pub use crate::fairness::{jain_index, per_user, UserReport};
    pub use crate::lower_bounds::{
        cmax_lower_bound, csum_lower_bound, uniform_cmax_lower_bound, uniform_csum_lower_bound,
        uniform_wsum_lower_bound, wsum_lower_bound,
    };
    pub use crate::steady::{batch_means_ci95, ClassResponse, SteadyState, WarmupSpec};
    pub use crate::summary::Summary;
    pub use crate::volatility::FailureStats;
}
