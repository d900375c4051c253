//! Online planners: persistent scheduler state for event-driven
//! execution.
//!
//! Every online decision goes through one [`IncrementalPlanner`], and
//! there are two of them — the paper's two kinds of online scheduler:
//!
//! * [`BatchPlanner`], the default, is the §4.2 online batch
//!   transformation: arrivals wait while any work is running, and the
//!   accumulated batch is scheduled by [`Policy::schedule`] once the
//!   machine drains;
//! * [`BackfillPlanner`] serves the backfill family (§5.1/§5.2): each
//!   arrival is placed in a hole around the running work.
//!
//! # The dirty-window invariant
//!
//! The straightforward hole-filling replan rebuilds the availability
//! state at every arrival/completion instant: it re-books every live
//! commitment, re-places every reservation, then packs the batch — O(live)
//! work per event, O(n²) over a trace. A [`BackfillPlanner`] keeps **one**
//! timeline alive across decisions instead and maintains this invariant at
//! every decision instant `now`:
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
//! * **Reservations** are booked once at construction. The first-fit
//!   processor choice for a reservation is stable across decisions (later
//!   commitments are always placed *around* the booked reservation, so
//!   they never claim its processors and never change which processors
//!   `take_first` sees free), so re-placing them per event — as the full
//!   replan does — always reproduces the same sets.
//!
//! Pointwise equality on `[now, ∞)` is all the passes can observe: every
//! query they issue (`earliest_slot`, `free_during`, the shadow walk)
//! starts at or after `now`, and two coalesced step functions that agree
//! pointwise from `now` on expose identical boundary sets there. Hence
//! the planner's placements are **bit-identical** to the full replan's —
//! the property the differential tests in `lsps_scenario` pin down against
//! a re-book-everything oracle kept in test code.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use lsps_des::Time;
use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};
use lsps_workload::{Job, JobKind};

use crate::backfill::{
    assert_estimate_factor, conservative_pass, easy_pass, fcfs_order, BackfillPolicy,
};
use crate::policy::{Policy, PolicyCtx};
use crate::schedule::Schedule;

/// Persistent scheduler state behind [`Policy::incremental_planner`].
///
/// The caller invokes [`advance`](IncrementalPlanner::advance) then
/// [`plan`](IncrementalPlanner::plan) at every decision instant with
/// non-decreasing `now`, handing over every job still pending (already
/// [`prepare`](Policy::prepare)d); the assignments of a placed batch are
/// committed by the caller verbatim.
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
    /// replan counts O(live + batch) per event; the planners here count
    /// O(batch).
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
    /// profile *now*, and a hole-filling planner must keep the dirty-window
    /// invariant against a full replan that no longer re-books the dead
    /// commitment.
    fn invalidate(&mut self, id: BookingId);

    /// Book a node outage: processor `node` is unavailable on
    /// `[start, end)`. The window expires off the profile at `end` exactly
    /// like a completed commitment.
    fn add_outage(&mut self, node: u32, start: Time, end: Time);
}

/// The online batch transformation (§4.2), the default planner of every
/// policy without a hole-filling one. While any booking is live the
/// planner defers, so arrivals accumulate; the first decision after the
/// machine drains schedules the whole batch with [`Policy::schedule`] —
/// releases zeroed (everything pending is available, and keeping absolute
/// releases would replay the arrival gaps inside the batch) — and shifts
/// it to `now`.
pub struct BatchPlanner<'a, P: Policy + ?Sized> {
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

impl<'a, P: Policy + ?Sized> BatchPlanner<'a, P> {
    /// A batch planner for `policy` on `m` processors under `ctx`.
    pub fn new(policy: &'a P, m: usize, ctx: &'a PolicyCtx) -> Self {
        BatchPlanner {
            policy,
            m,
            ctx,
            committed: Timeline::with_procs(m),
            created: Vec::new(),
            touched: 0,
        }
    }
}

impl<P: Policy + ?Sized> IncrementalPlanner for BatchPlanner<'_, P> {
    fn advance(&mut self, now: Time) {
        // Completed commitments no longer constrain placement.
        self.committed.gc(now);
    }

    fn plan(&mut self, pending: &[Job], now: Time, out: &mut Schedule) -> bool {
        self.created.clear();
        if self.committed.n_bookings() > 0 {
            // Work still running: keep accumulating. The final completion
            // of the running batch re-invokes us on an empty machine.
            return false;
        }
        self.touched += pending.len() as u64;
        let batch: Vec<Job> = pending
            .iter()
            .map(|j| {
                let mut j = j.clone();
                j.release = Time::ZERO;
                j
            })
            .collect();
        // The batch is scheduled in a zero-based frame and shifted by `now`
        // afterwards, so absolute reservation windows (which `batch-mrt`
        // honours) must be translated into that frame — otherwise the
        // shift would push work *into* the windows it avoided.
        let shift = now.since_epoch();
        let to_frame = |t: Time| Time::from_ticks(t.ticks().saturating_sub(shift.ticks()));
        let mut ctx = self.ctx.clone();
        ctx.reservations.retain(|r| r.end > now);
        for r in &mut ctx.reservations {
            r.start = to_frame(r.start);
            r.end = to_frame(r.end);
        }
        *out = self.policy.schedule(&batch, self.m, &ctx).shifted(shift);
        for a in out.assignments() {
            let bk = self
                .committed
                .try_book(a.start, a.end, a.procs.clone(), BookingKind::Job)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: commitment for job {} collides with a booking: {e}",
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
    /// The persistent planning timeline: reservations + every commitment
    /// still alive, at true lengths.
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
    /// Book the decision-independent state (the reservations, first-fit
    /// — as the batch path places them) once.
    ///
    /// # Panics
    /// On unsatisfiable reservations, and if `ctx.estimate_factor` lies
    /// outside `[1, MAX_ESTIMATE_FACTOR]` — the same contracts the batch
    /// path enforces per call.
    pub fn new(flavour: BackfillPolicy, m: usize, ctx: &PolicyCtx) -> BackfillPlanner {
        assert_estimate_factor(ctx.estimate_factor);
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
        // what a full replan re-books from its commitment table.
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
    use crate::backfill::Reservation;
    use crate::list::JobOrder;
    use crate::policy::tests::domain_jobs;
    use crate::policy::{registry, BatchedMrt, ListScheduling};
    use lsps_des::Dur;

    fn d(ticks: u64) -> Dur {
        Dur::from_ticks(ticks)
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    const FLAVOURS: [BackfillPolicy; 2] = [BackfillPolicy::Conservative, BackfillPolicy::Easy];

    /// `list-fcfs` cannot fill holes: while the first batch runs, later
    /// arrivals wait — `plan` defers, places nothing and examines nothing.
    /// The first decision after `advance` passes the last end places the
    /// accumulated batch from `now` on.
    #[test]
    fn batch_planner_defers_until_the_machine_drains() {
        let policy = ListScheduling::new(JobOrder::Fcfs);
        let ctx = PolicyCtx::default();
        let m = 2;
        let mut planner = BatchPlanner::new(&policy, m, &ctx);
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
        let starts: Vec<(u64, Time)> = out
            .assignments()
            .iter()
            .map(|a| (a.job.0, a.start))
            .collect();
        assert_eq!(starts, [(2, t(100)), (3, t(110))]);
        assert_eq!(planner.last_created().len(), 2);
        assert_eq!(planner.touched(), 1 + 2);
    }

    /// `batch-mrt` honours reservations as full-machine blackouts. The
    /// batch is scheduled zero-based and shifted by `now`, so the absolute
    /// window [100, 200) must still be avoided *after* the shift: a 60-tick
    /// job released while work runs waits for the drain at 50, and cannot
    /// start there without crossing the window.
    #[test]
    fn batch_planner_avoids_absolute_reservations_after_its_shift() {
        let ctx = PolicyCtx {
            reservations: vec![Reservation {
                start: t(100),
                end: t(200),
                procs: 2,
            }],
            ..PolicyCtx::default()
        };
        let m = 2;
        let mut planner = BatchPlanner::new(&BatchedMrt, m, &ctx);
        let mut out = Schedule::new(m);
        planner.advance(t(0));
        assert!(planner.plan(&[Job::rigid(1, 2, d(50))], t(0), &mut out));
        assert_eq!(out.assignments()[0].end, t(50));
        let pending = [Job::sequential(2, d(60)).released_at(t(10))];
        planner.advance(t(10));
        out.clear();
        assert!(!planner.plan(&pending, t(10), &mut out), "work is live");
        planner.advance(t(50));
        out.clear();
        assert!(planner.plan(&pending, t(50), &mut out));
        let a = &out.assignments()[0];
        assert!(a.start >= t(50), "{a:?} inside the horizon");
        assert!(
            a.end <= t(100) || a.start >= t(200),
            "{a:?} crosses the absolute reservation window"
        );
    }

    /// On an empty machine at time zero the batch transformation is the
    /// plain batch run, for every registry policy — the property the
    /// online-equivalence tests build on.
    #[test]
    fn batch_planner_at_zero_on_an_empty_machine_is_the_batch_schedule() {
        // Pending jobs have all arrived (release <= now), so at now = 0
        // the jobs are release-free.
        let ctx = PolicyCtx::default();
        for policy in registry() {
            let jobs: Vec<Job> = domain_jobs(policy.as_ref())
                .into_iter()
                .map(|j| j.released_at(Time::ZERO))
                .collect();
            let mut planner = BatchPlanner::new(policy.as_ref(), 8, &ctx);
            let mut out = Schedule::new(8);
            planner.advance(Time::ZERO);
            assert!(planner.plan(&jobs, Time::ZERO, &mut out));
            assert_eq!(out, policy.schedule(&jobs, 8, &ctx), "{}", policy.name());
        }
    }

    /// Hole-filling: with processor 0 committed over [0, 100), a 1-proc
    /// arrival at 10 starts at 10 on processor 1 instead of waiting, and
    /// the decision examines only the pending job.
    #[test]
    fn backfill_planner_fills_the_hole_beside_a_live_commitment() {
        for flavour in FLAVOURS {
            let m = 2;
            let mut planner = BackfillPlanner::new(flavour, m, &PolicyCtx::default());
            let mut out = Schedule::new(m);
            planner.advance(t(0));
            assert!(planner.plan(&[Job::rigid(1, 1, d(100))], t(0), &mut out));
            assert_eq!(out.assignments()[0].procs, ProcSet::from_indices([0]));
            planner.advance(t(10));
            out.clear();
            let hole = [Job::rigid(2, 1, d(10)).released_at(t(10))];
            assert!(planner.plan(&hole, t(10), &mut out), "{flavour:?}");
            let a = &out.assignments()[0];
            assert_eq!(a.start, t(10), "{flavour:?}");
            assert_eq!(a.procs, ProcSet::from_indices([1]), "{flavour:?}");
            assert_eq!(planner.last_created().len(), 1);
            assert_eq!(planner.last_created()[0].1, t(20));
            assert_eq!(planner.touched(), 1 + 1, "{flavour:?}: pending only");
        }
    }

    /// A commitment that ended at `now` is history: it must not block a
    /// full-width job placed at `now`.
    #[test]
    fn a_commitment_ending_at_now_does_not_block_a_full_width_job() {
        for flavour in FLAVOURS {
            let m = 2;
            let mut planner = BackfillPlanner::new(flavour, m, &PolicyCtx::default());
            let mut out = Schedule::new(m);
            planner.advance(t(0));
            assert!(planner.plan(&[Job::rigid(1, 2, d(5))], t(0), &mut out));
            planner.advance(t(5));
            out.clear();
            let wide = [Job::rigid(2, 2, d(10)).released_at(t(5))];
            assert!(planner.plan(&wide, t(5), &mut out));
            assert_eq!(out.assignments()[0].start, t(5), "{flavour:?}");
        }
    }
}
