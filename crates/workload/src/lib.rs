//! # lsps-workload — applications as the paper models them
//!
//! §2 of the paper distinguishes two coarse application models designed to
//! *hide* communications:
//!
//! * **Parallel Tasks (PT)** — rigid, moldable or malleable jobs whose
//!   parallel execution time embeds a global penalty factor
//!   ([`SpeedupModel`]); moldable jobs carry a full time-vs-processors
//!   profile ([`MoldableProfile`]) with the classic monotony assumptions
//!   (time non-increasing, work non-decreasing in the processor count).
//! * **Divisible Load (DLT)** — arbitrarily splittable bags of fine-grain
//!   work ([`JobKind::Divisible`]), covering the CIMENT *multi-parametric*
//!   campaigns of §5.2 ([`campaign`](mod@crate::campaign)).
//!
//! The crate also provides the workload generators used by the experiment
//! harness: the Fig. 2 parallel / non-parallel mixes, per-community profiles
//! (numerical physicists submit week-long sequential jobs, computer
//! scientists short debug runs — §5.2), and an SWF-style trace importer plus
//! a lossless JSON-lines format.

pub mod campaign;
pub mod failure;
pub mod gen;
pub mod job;
pub mod open;
pub mod speedup;
pub mod swf;

pub use campaign::Campaign;
pub use failure::{FailurePolicy, FailureRegime, FailureTraceSpec, Outage, ScriptedOutage};
pub use gen::{ArrivalSpec, CommunityProfile, DistSpec, WorkloadSpec};
pub use job::{Job, JobId, JobKind, UserId};
pub use open::{JobClass, OpenArrival, OpenStream, OpenStreamSpec};
pub use speedup::{MoldableProfile, SpeedupModel};

/// Commonly used items.
pub mod prelude {
    pub use crate::campaign::Campaign;
    pub use crate::failure::{FailurePolicy, FailureRegime, FailureTraceSpec, Outage};
    pub use crate::gen::{ArrivalSpec, CommunityProfile, DistSpec, WorkloadSpec};
    pub use crate::job::{Job, JobId, JobKind, UserId};
    pub use crate::open::{JobClass, OpenArrival, OpenStream, OpenStreamSpec};
    pub use crate::speedup::{MoldableProfile, SpeedupModel};
}
