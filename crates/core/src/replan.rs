//! Online planners: persistent scheduler state for event-driven
//! execution.
//!
//! Every online decision goes through one [`IncrementalPlanner`]. The
//! default, [`FullReplan`], calls [`Policy::schedule_pending`] at every
//! arrival/completion instant: it re-books every live commitment,
//! re-places every reservation, then schedules the batch — O(live) work
//! per event, O(n²) over a trace. For the backfill family that rebuild is
//! provably redundant, and [`BackfillPlanner`] removes it.
//!
//! # The dirty-window invariant
//!
//! A [`BackfillPlanner`] keeps **one** timeline alive across decisions and
//! maintains this invariant at every decision instant `now`:
//!
//! > the persistent profile is pointwise-equal on `[now, ∞)` to the
//! > profile the full replan would rebuild from scratch.
//!
//! Each event then only touches its *dirty window* — the new arrivals and
//! the bookings whose state actually changed — instead of the whole
//! pending set:
//!
//! * **Arrivals** are packed by the identical conservative/EASY pass the
//!   batch path uses ([`crate::backfill`]), on the persistent timeline.
//!   Every placement is booked at its *estimated* length during the pass
//!   (exactly what the batch pass sees) and truncated to its **true**
//!   length once the batch is placed — which is precisely the committed
//!   interval the full replan would have re-booked at the next event.
//! * **Completions** cost one heap pop: bookings expire off a
//!   `(true_end, id)` min-heap and are removed from the profile, replacing
//!   the full-path `Timeline::gc` scan. Removal only edits segments in
//!   `[start, true_end) ⊆ [0, now)`, so the invariant is untouched.
//! * **Reservations and pinned bookings** are booked once at
//!   construction. The first-fit processor choice for a reservation is
//!   stable across decisions (later commitments are always placed *around*
//!   the booked reservation, so they never claim its processors and never
//!   change which processors `take_first` sees free), so re-placing them
//!   per event — as the full replan does — always reproduces the same
//!   sets.
//!
//! Pointwise equality on `[now, ∞)` is all the passes can observe: every
//! query they issue (`earliest_slot`, `free_during`, the shadow walk)
//! starts at or after `now`, and two coalesced step functions that agree
//! pointwise from `now` on expose identical boundary sets there. Hence
//! the planner's placements are **bit-identical** to the full replan's —
//! the property the differential tests in `lsps_scenario` pin down, with
//! [`FullReplan`] as the oracle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use lsps_des::Time;
use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};
use lsps_workload::{Job, JobKind};

use crate::backfill::{conservative_pass, easy_pass, fcfs_order, BackfillPolicy};
use crate::policy::{PinnedBooking, Policy, PolicyCtx};
use crate::schedule::Schedule;

/// Persistent scheduler state behind [`Policy::incremental_planner`].
///
/// The contract mirrors `schedule_pending` split across calls: the caller
/// invokes [`advance`](IncrementalPlanner::advance) then
/// [`plan`](IncrementalPlanner::plan) at every decision instant with
/// non-decreasing `now`, handing over every job still pending (already
/// [`prepare`](Policy::prepare)d); the assignments of a placed batch are
/// committed by the caller verbatim. Every planner's placements equal
/// [`FullReplan`]'s for the same policy.
pub trait IncrementalPlanner {
    /// Release everything that completed at or before `now`. Must be
    /// called with non-decreasing `now`.
    fn advance(&mut self, now: Time);

    /// Place `pending` (all arrived: every release `<= now`) around all
    /// previously planned work, no earlier than `now`, and absorb the
    /// placements into the planner state at their true lengths. The result
    /// lands in `out`, which the caller hands back cleared each decision —
    /// planners run once per event, so the schedule buffer is recycled
    /// rather than reallocated.
    ///
    /// Returns `false` when the planner *defers*: it placed nothing, and
    /// the jobs stay pending until a later decision. Otherwise every
    /// pending job is placed.
    fn plan(&mut self, pending: &[Job], now: Time, out: &mut Schedule) -> bool;

    /// Jobs examined across all [`plan`](IncrementalPlanner::plan) calls —
    /// the instrumentation the O(dirty) regression tests read. A full
    /// replan counts O(live + batch) per event; an incremental planner
    /// counts O(batch).
    fn touched(&self) -> u64;

    /// `(booking, true_end)` pairs created by the **last**
    /// [`plan`](IncrementalPlanner::plan) call, aligned 1:1 with the
    /// placements it wrote into `out` (insertion order). Failure-aware
    /// executors read this to associate each commitment with its planner
    /// booking, so a later kill can name the booking to evict.
    fn last_created(&self) -> &[(BookingId, Time)];

    /// Evict a still-live booking: the commitment behind it was killed by
    /// a node failure. This is the explicit relaxation of the
    /// "commitments are final" invariant — the booked interval leaves the
    /// profile *now*, and the planner must keep the dirty-window invariant
    /// against an oracle that no longer re-books the dead commitment.
    fn invalidate(&mut self, id: BookingId);

    /// Book a node outage: processor `node` is unavailable on
    /// `[start, end)`. The window expires off the profile at `end` exactly
    /// like a completed commitment.
    fn add_outage(&mut self, node: u32, start: Time, end: Time);
}

/// The full replan: every decision hands the live commitments to
/// [`Policy::schedule_pending`] and books the result. The default planner,
/// and the oracle [`BackfillPlanner`] is tested against. A policy that
/// cannot fill holes around running work (no [`Policy::supports_pinned`])
/// defers while any commitment is live, so arrivals accumulate and the
/// batch is scheduled when the machine drains — the paper's §4.2 online
/// batch transformation.
pub struct FullReplan<'a, P: Policy + ?Sized> {
    policy: &'a P,
    m: usize,
    ctx: &'a PolicyCtx,
    /// Live commitments and outage windows; `advance` garbage-collects
    /// completed work, so a multi-day trace never accumulates dead
    /// bookings.
    committed: Timeline,
    /// `(booking, end)` of every placement of the last `plan` call.
    created: Vec<(BookingId, Time)>,
    touched: u64,
}

impl<'a, P: Policy + ?Sized> FullReplan<'a, P> {
    /// A full-replan planner for `policy` on `m` processors under `ctx`.
    pub fn new(policy: &'a P, m: usize, ctx: &'a PolicyCtx) -> Self {
        FullReplan {
            policy,
            m,
            ctx,
            committed: Timeline::with_procs(m),
            created: Vec::new(),
            touched: 0,
        }
    }
}

impl<P: Policy + ?Sized> IncrementalPlanner for FullReplan<'_, P> {
    fn advance(&mut self, now: Time) {
        // Completed commitments no longer constrain placement.
        self.committed.gc(now);
    }

    fn plan(&mut self, pending: &[Job], now: Time, out: &mut Schedule) -> bool {
        self.created.clear();
        if self.committed.n_bookings() > 0 && !self.policy.supports_pinned() {
            // Hole-blind policy with work still running: keep
            // accumulating. The final completion of the running batch
            // re-invokes us with an empty commitment set.
            return false;
        }
        let live: Vec<PinnedBooking> = self
            .committed
            .bookings()
            .map(|(_, b)| PinnedBooking {
                start: b.start,
                end: b.end,
                procs: b.procs.clone(),
            })
            .collect();
        self.touched += (pending.len() + live.len()) as u64;
        *out = self
            .policy
            .schedule_pending(pending, self.m, now, &live, self.ctx);
        for a in out.assignments() {
            let bk = self
                .committed
                .try_book(a.start, a.end, a.procs.clone(), BookingKind::Job)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: commitment for job {} collides with running work: {e}",
                        self.policy.name(),
                        a.job
                    )
                });
            self.created.push((bk, a.end));
        }
        true
    }

    fn touched(&self) -> u64 {
        self.touched
    }

    fn last_created(&self) -> &[(BookingId, Time)] {
        &self.created
    }

    fn invalidate(&mut self, id: BookingId) {
        self.committed
            .remove(id)
            .expect("killed booking still present");
    }

    fn add_outage(&mut self, node: u32, start: Time, end: Time) {
        self.committed
            .try_book(
                start,
                end,
                ProcSet::from_indices([node as usize]),
                BookingKind::Reservation,
            )
            .unwrap_or_else(|e| panic!("outage on node {node} collides: {e:?}"));
    }
}

/// [`IncrementalPlanner`] for the backfill family (conservative + EASY).
pub struct BackfillPlanner {
    flavour: BackfillPolicy,
    m: usize,
    factor: f64,
    /// The persistent planning timeline: pinned bookings + reservations +
    /// every commitment still alive, at true lengths.
    tl: Timeline,
    /// True completion of every job booking, a min-heap — the O(log live)
    /// replacement for the full path's per-event `gc` scan.
    expiry: BinaryHeap<Reverse<(Time, BookingId)>>,
    touched: u64,
    /// Scratch: release-bumped copies of the batch, reused across `plan`
    /// calls so the per-decision cost is the job copies, not a `Vec`
    /// allocation (rigid jobs are plain data — the copy itself is flat).
    bumped: Vec<Job>,
    /// Scratch: `(booking, true_end)` pairs the passes emit, reused
    /// alongside `bumped`.
    created: Vec<(BookingId, Time)>,
    /// Bookings evicted by [`IncrementalPlanner::invalidate`] whose expiry
    /// entry is still in the heap — `advance` skips these instead of
    /// demanding they be present, keeping the missing-booking panic for
    /// genuine bugs.
    invalidated: HashSet<BookingId>,
}

impl BackfillPlanner {
    /// Book the decision-independent state (pinned bookings, then
    /// reservations first-fit — the same order the batch path uses) once.
    ///
    /// # Panics
    /// On conflicting pinned bookings or unsatisfiable reservations, and
    /// if `ctx.estimate_factor` undershoots — the same contracts the
    /// batch path enforces per call.
    pub fn new(flavour: BackfillPolicy, m: usize, ctx: &PolicyCtx) -> BackfillPlanner {
        assert!(
            ctx.estimate_factor >= 1.0 && ctx.estimate_factor.is_finite(),
            "estimates must not undershoot (got factor {})",
            ctx.estimate_factor
        );
        BackfillPlanner {
            flavour,
            m,
            factor: ctx.estimate_factor,
            tl: ctx.reserved_timeline(m),
            expiry: BinaryHeap::new(),
            touched: 0,
            bumped: Vec::new(),
            created: Vec::new(),
            invalidated: HashSet::new(),
        }
    }
}

impl IncrementalPlanner for BackfillPlanner {
    fn advance(&mut self, now: Time) {
        while let Some(&Reverse((end, id))) = self.expiry.peek() {
            if end > now {
                break;
            }
            self.expiry.pop();
            if self.invalidated.remove(&id) {
                continue;
            }
            self.tl.remove(id).expect("expired booking still present");
        }
    }

    fn plan(&mut self, pending: &[Job], now: Time, out: &mut Schedule) -> bool {
        debug_assert!(
            out.is_empty(),
            "caller hands the scratch schedule back cleared"
        );
        // Clear even on the empty-batch path: `last_created` must describe
        // *this* call, never a stale predecessor.
        self.created.clear();
        if pending.is_empty() {
            return true;
        }
        self.touched += pending.len() as u64;
        self.bumped.clear();
        self.bumped.extend(pending.iter().map(|j| {
            assert!(
                matches!(j.kind, JobKind::Rigid { .. }) && j.min_procs() <= self.m,
                "planner expects prepared rigid jobs fitting the machine; job {} is not",
                j.id
            );
            let mut j = j.clone();
            j.release = j.release.max(now);
            j
        }));
        let order = fcfs_order(&self.bumped);
        match self.flavour {
            BackfillPolicy::Conservative => {
                conservative_pass(&order, &mut self.tl, self.factor, out, &mut self.created)
            }
            BackfillPolicy::Easy => {
                easy_pass(&order, &mut self.tl, self.factor, out, &mut self.created)
            }
        }
        // Pin the batch at true lengths: the next decision must see exactly
        // the committed (true) intervals, not the estimate tails — that is
        // what the full replan re-books from its commitment table.
        for &(bk, true_end) in &self.created {
            self.tl.truncate(bk, true_end);
            // Zero-length work vanishes on truncation (and the EASY replay
            // may already have dropped it mid-pass) — nothing to expire.
            if self.tl.booking(bk).is_some() {
                self.expiry.push(Reverse((true_end, bk)));
            }
        }
        true
    }

    fn touched(&self) -> u64 {
        self.touched
    }

    fn last_created(&self) -> &[(BookingId, Time)] {
        &self.created
    }

    fn invalidate(&mut self, id: BookingId) {
        self.tl
            .remove(id)
            .expect("invalidated booking still present");
        self.invalidated.insert(id);
    }

    fn add_outage(&mut self, node: u32, start: Time, end: Time) {
        assert!(end > start, "empty outage [{start:?}, {end:?})");
        let id = self
            .tl
            .try_book(
                start,
                end,
                ProcSet::from_indices([node as usize]),
                BookingKind::Reservation,
            )
            .unwrap_or_else(|e| {
                panic!("outage [{start:?}, {end:?}) on node {node} collides: {e:?}")
            });
        self.expiry.push(Reverse((end, id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::JobOrder;
    use crate::policy::{Backfilling, ListScheduling};
    use lsps_des::Dur;

    fn d(ticks: u64) -> Dur {
        Dur::from_ticks(ticks)
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    /// `list-fcfs` cannot fill holes: while the first batch runs, later
    /// arrivals wait — `plan` defers, places nothing and examines nothing.
    /// The first decision after `advance` passes the last end places the
    /// accumulated batch exactly as `schedule_pending`'s batch path does.
    #[test]
    fn hole_blind_full_replan_defers_until_the_machine_drains() {
        let policy = ListScheduling::new(JobOrder::Fcfs);
        let ctx = PolicyCtx::default();
        let m = 2;
        let mut planner = FullReplan::new(&policy, m, &ctx);
        let mut out = Schedule::new(m);
        planner.advance(t(0));
        assert!(planner.plan(&[Job::rigid(1, 1, d(100))], t(0), &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(planner.touched(), 1, "one pending job, nothing live");
        // Processor 1 idles, but the batch waits for the drain.
        let later = [
            Job::rigid(2, 1, d(10)).released_at(t(10)),
            Job::rigid(3, 2, d(5)).released_at(t(20)),
        ];
        for now in [10, 20, 99] {
            planner.advance(t(now));
            out.clear();
            assert!(!planner.plan(&later, t(now), &mut out), "placed at {now}");
            assert!(out.is_empty() && planner.last_created().is_empty());
            assert_eq!(planner.touched(), 1, "a deferred decision examines nothing");
        }
        planner.advance(t(100));
        out.clear();
        assert!(planner.plan(&later, t(100), &mut out));
        assert_eq!(out, policy.schedule_pending(&later, m, t(100), &[], &ctx));
        assert_eq!(planner.last_created().len(), 2);
        assert_eq!(planner.touched(), 1 + 2);
    }

    /// Backfilling honours pinned bookings, so its full replan never
    /// defers: a short job lands in the hole beside a live commitment, and
    /// the decision examines the pending job plus the live one.
    #[test]
    fn pinned_capable_full_replan_fills_holes_around_live_work() {
        let policy = Backfilling::conservative();
        let ctx = PolicyCtx::default();
        let m = 2;
        let mut planner = FullReplan::new(&policy, m, &ctx);
        let mut out = Schedule::new(m);
        planner.advance(t(0));
        assert!(planner.plan(&[Job::rigid(1, 1, d(100))], t(0), &mut out));
        let live = PinnedBooking {
            start: t(0),
            end: t(100),
            procs: out.assignments()[0].procs.clone(),
        };
        let hole = [Job::rigid(2, 1, d(10)).released_at(t(10))];
        planner.advance(t(10));
        out.clear();
        assert!(
            planner.plan(&hole, t(10), &mut out),
            "backfilling never defers"
        );
        assert_eq!(
            out,
            policy.schedule_pending(&hole, m, t(10), std::slice::from_ref(&live), &ctx)
        );
        let a = &out.assignments()[0];
        assert_eq!(a.start, t(10));
        assert!(a.procs.is_disjoint(&live.procs));
        assert_eq!(planner.last_created().len(), 1);
        assert_eq!(planner.last_created()[0].1, t(20));
        assert_eq!(
            planner.touched(),
            1 + (1 + 1),
            "pending + live per decision"
        );
    }
}
