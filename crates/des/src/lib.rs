//! # lsps-des — discrete-event simulation substrate
//!
//! Everything in the LSPS workspace that "runs" a platform does so on top of
//! this crate: an integer simulated clock ([`Time`], [`Dur`]), a stable and
//! cancellable [`EventQueue`], a small event-driven [`engine`], and a
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
//! * The queue is a 4-ary implicit heap of plain `(Time, seq, slot)` words
//!   over a generation-stamped slot slab holding the payloads — schedule,
//!   pop and cancel never hash, and sift operations move 24-byte entries,
//!   never an event. At 1M-job streams the per-event queue cost is the
//!   dominant simulation term, so the hot path allocates nothing in steady
//!   state (slots and heap capacity are recycled).
//! * Cancellation is O(1): [`EventQueue::cancel`] vacates the slot at once
//!   (the payload drops immediately) and leaves only a 24-byte heap
//!   tombstone behind. Tombstones are bounded, not ignored: whenever dead
//!   entries exceed half the heap, the queue compacts in place (retain live
//!   entries, rebuild bottom-up, O(n)), so the heap is always ≥ 50% live
//!   and memory stays proportional to live events even under cancel-heavy
//!   models. [`EventQueue::len`] counts live events only,
//!   [`EventQueue::heap_len`] tombstones too, and [`RunStats`] reports both
//!   high-water marks as queue-health counters.

pub mod engine;
pub mod online;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{Ctx, Model, RunStats, Simulation};
pub use online::{
    ArrivalSource, Commitment, Dispatcher, OnlineCounters, OnlineEvent, OnlineMachine,
};
pub use queue::{EventKey, EventQueue};
pub use rng::SimRng;
pub use time::{Dur, Time, TICKS_PER_SEC};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::engine::{Ctx, Model, Simulation};
    pub use crate::queue::{EventKey, EventQueue};
    pub use crate::rng::SimRng;
    pub use crate::time::{Dur, Time, TICKS_PER_SEC};
}
