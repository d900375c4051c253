//! Declarative experiment campaigns — the paper's policy × application
//! comparison as *data*.
//!
//! The crate has two layers:
//!
//! * [`runner`] — the execution primitives: the three [`runner::Executor`]s,
//!   the result [`runner::Cell`] and its one CSV schema, and the DES drivers
//!   ([`runner::des_online`], [`runner::des_online_open`],
//!   [`runner::des_replay`]).
//! * [`spec`] / [`campaign`] — the declarative layer on top: a serde-backed
//!   [`spec::CampaignSpec`] names policy sets (resolved through
//!   `lsps_core::policy::by_name`), platform families, workload families
//!   (synthetic generator specs, named [`families`], and SWF/JSONL trace
//!   files) and a replication block; [`campaign::CampaignPlan::expand`]
//!   is the spec's one check (every problem in one [`spec::SpecError`],
//!   the same text `lsps-campaignd` answers a bad POST with) and expands
//!   the grid into cells; the plan turns each cell into a [`runner::Cell`]
//!   through one function; [`campaign::run_campaign`] skips cells already
//!   present in the content-addressed [`cache`], executes the rest over a
//!   worker pool, and aggregates replications into per-group statistics (a
//!   second CSV alongside the raw per-cell one).
//!
//! The `lsps-campaign` binary is the CLI over the declarative layer; the
//! `models_compare`, `guarantees` and `fig2` binaries are thin wrappers
//! over the built-in specs in [`campaign::builtin`].

pub mod cache;
pub mod campaign;
pub mod families;
mod io;
mod pool;
pub mod runner;
pub mod spec;
mod table;

pub use campaign::{
    run_campaign, CampaignError, CampaignOptions, CampaignPlan, CampaignReport, PlannedCell,
};
pub use io::{list_file_names, results_dir, write_file_atomic};
pub use runner::{des_online_open, Cell, Executor, OpenOutcome};
pub use spec::{CampaignSpec, FailureEntry, OpenEntry};
pub use table::Table;
