//! # lsps-des — discrete-event simulation substrate
//!
//! Everything in the LSPS workspace that "runs" a platform does so on top of
//! this crate: an integer simulated clock ([`Time`], [`Dur`]), a stable
//! [`EventQueue`], a small event-driven [`engine`], and a
//! deterministic random-number layer ([`SimRng`]) so that every experiment in
//! the paper reproduction is replayable bit-for-bit from a single `u64` seed.
//!
//! The paper this workspace reproduces (Dutot, Eyraud, Mounié, Trystram,
//! *Models for scheduling on large scale platforms*, IPDPS'04) evaluates its
//! bi-criteria algorithm with a simulator (Fig. 2) and describes the CiGri
//! best-effort grid as an event-driven system (§5.2); this crate is the
//! substrate those simulations are built on.
//!
//! ## Design notes
//!
//! * Time is a `u64` tick count (1 tick = 1 simulated millisecond by the
//!   workspace convention). Integer time makes schedule validity checks exact
//!   and keeps the event queue total order well-defined — no NaN, no epsilon.
//! * Events with equal timestamps pop in insertion (FIFO) order: the queue is
//!   keyed by `(Time, sequence)`. Determinism of the whole stack depends on
//!   this.
//! * The queue is std's binary heap of `(Time, seq, event)` entries. The
//!   engine queues little: arrivals are a model's own wake-ups and
//!   decisions are made inside the last step of their instant, so an
//!   online drive queues one event per job, its completion.
//! * Events are never cancelled. A model whose event has gone stale — a
//!   run killed by a node failure or by a local job — leaves it queued and
//!   recognises it as a no-op when it fires (a slot generation, a booking
//!   no longer running). That costs one heap entry and one dispatch per
//!   kill, and kills are rare; a cancellable queue costs a key per event,
//!   a payload slab and tombstone bookkeeping on every event, kill or not.
//!   [`RunStats`] reports the queue's high-water mark, stale entries
//!   included.

pub mod engine;
pub mod online;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{Ctx, Model, RunStats, Simulation};
pub use online::{
    ArrivalSource, Commitment, Dispatcher, OnlineCounters, OnlineEvent, OnlineMachine,
};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{Dur, Time, TICKS_PER_SEC};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{Ctx, Model, Simulation};
    pub use crate::queue::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::time::{Dur, Time, TICKS_PER_SEC};
}
