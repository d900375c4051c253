//! # lsps-core — the scheduling policies of the paper
//!
//! This crate implements every Parallel-Task scheduling result surveyed in
//! *Dutot, Eyraud, Mounié, Trystram — IPDPS 2004*, §4–5:
//!
//! | paper § | result | module |
//! |---------|--------|--------|
//! | 4.1 | MRT two-shelf dual-approximation for off-line moldable makespan, ratio 3/2 + ε (ref \[8\]) | [`mrt`] |
//! | 4.2 | batch transformation of an off-line ρ-approximation into an on-line 2ρ algorithm with release dates (ref \[17\]) | [`batch`] |
//! | 4.3 | SMART shelf scheduling of rigid tasks for (weighted) average completion time, ratio 8 / 8.53 (ref \[14\]) | [`smart`] |
//! | 4.4 | bi-criteria doubling-batch algorithm from a makespan procedure ACmax, simultaneous ratio 4ρ (ref \[10\]) | [`bicriteria`] |
//! | 5.1 | mixes of rigid and moldable jobs; advance reservations | [`mixed`], [`backfill`] |
//! | 3 / 4.3 | single-machine SPT / WSPT optimal substrate | [`single`] |
//! | whole paper | "which policy for which application" | [`advisor`] |
//!
//! plus the classical baselines the paper positions itself against: rigid
//! list scheduling ([`list`]), NFDH/FFDH shelf packing ([`shelf`]),
//! EASY/conservative backfilling with reservations ([`backfill`]), and
//! moldable allotment-selection heuristics ([`allot`]).
//!
//! All algorithms produce a [`Schedule`] — an exact, validated set of
//! `(job, start, processor-set)` assignments over `m` identical processors —
//! from which [`lsps_metrics::CompletedJob`] records and every §3 criterion
//! follow.
//!
//! Heterogeneity note: per DESIGN.md, algorithms assume identical processors
//! *within a cluster* (the paper's weak internal heterogeneity); the grid
//! layer (`lsps-grid`) handles between-cluster heterogeneity by normalising
//! job durations per cluster speed before calling into this crate.

pub mod advisor;
pub mod allot;
pub mod backfill;
pub mod batch;
pub mod bicriteria;
pub mod list;
pub mod malleable;
pub mod mixed;
pub mod mrt;
pub mod nonclairvoyant;
pub mod outcome;
pub mod policy;
pub mod replan;
pub mod schedule;
pub mod shelf;
pub mod single;
pub mod smart;
pub mod uniform;

pub use advisor::{advise, Application, Objective, PolicyChoice, Recommendation};
pub use backfill::{backfill_schedule, backfill_schedule_estimated, BackfillPolicy, Reservation};
pub use batch::batch_online;
pub use bicriteria::{bicriteria_schedule, BiCriteriaParams};
pub use list::{list_schedule, JobOrder};
pub use malleable::{deq_schedule, MalleableSchedule, MalleableSegment};
pub use mrt::{mrt_schedule, MrtParams};
pub use nonclairvoyant::{exponential_trial_schedule, TrialStats};
pub use outcome::{Outcome, OutcomeError, OutcomeKind, OutcomeRun};
pub use policy::{registry, Knowledge, Policy, PolicyCtx, PolicyRun, ReleaseMode};
pub use schedule::{Assignment, Schedule, ValidationError};
pub use shelf::{shelf_schedule, ShelfAlgo};
pub use single::{single_machine, SingleRule};
pub use smart::smart_schedule;
pub use uniform::{uniform_list_schedule, UniformSchedule};

/// Commonly used items.
pub mod prelude {
    pub use crate::advisor::{advise, Application, Objective, PolicyChoice, Recommendation};
    pub use crate::backfill::{
        backfill_schedule, backfill_schedule_estimated, BackfillPolicy, Reservation,
    };
    pub use crate::batch::batch_online;
    pub use crate::bicriteria::{bicriteria_schedule, BiCriteriaParams};
    pub use crate::list::{list_schedule, JobOrder};
    pub use crate::malleable::{deq_schedule, MalleableSchedule, MalleableSegment};
    pub use crate::mrt::{mrt_schedule, MrtParams};
    pub use crate::nonclairvoyant::{exponential_trial_schedule, TrialStats};
    pub use crate::outcome::{Outcome, OutcomeError, OutcomeKind, OutcomeRun};
    pub use crate::policy::{registry, Knowledge, Policy, PolicyCtx, PolicyRun, ReleaseMode};
    pub use crate::schedule::{Assignment, Schedule, ValidationError};
    pub use crate::shelf::{shelf_schedule, ShelfAlgo};
    pub use crate::single::{single_machine, SingleRule};
    pub use crate::smart::smart_schedule;
    pub use crate::uniform::{uniform_list_schedule, UniformSchedule};
}
