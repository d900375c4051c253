//! Declarative experiment campaigns — the paper's policy × application
//! comparison as *data*.
//!
//! The crate has two layers:
//!
//! * [`runner`] — the imperative core: [`runner::ExperimentRunner`] crosses
//!   policies × workloads × platforms through one code path and one CSV
//!   schema, fanning independent cells over a worker pool. Experiment
//!   binaries that need full control (custom workload closures, bespoke
//!   table layouts) use it directly.
//! * [`spec`] / [`campaign`] — the declarative layer on top: a serde-backed
//!   [`spec::CampaignSpec`] names policy sets (resolved through
//!   `lsps_core::policy::by_name`), platform families, workload families
//!   (synthetic generator specs, named [`families`], and SWF/JSONL trace
//!   files) and a replication block; [`campaign::run_campaign`] expands the
//!   grid into runner cells, skips cells already present in the
//!   content-addressed [`cache`], executes the rest through the existing
//!   thread pool, and aggregates replications into per-group statistics
//!   (a second CSV alongside the raw per-cell one).
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
pub use runner::{
    des_online_open, Cell, Executor, ExperimentRunner, OpenOutcome, PlatformCase, VolatilityCase,
    WorkloadCase,
};
pub use spec::{CampaignSpec, FailureEntry, OpenEntry};
pub use table::Table;
