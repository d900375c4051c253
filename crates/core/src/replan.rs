//! Online planners: persistent scheduler state for event-driven
//! execution.
//!
//! Every online decision is one [`IncrementalPlanner::plan`] call, with
//! the contract of [`lsps_des::Dispatcher::decide`]: it moves the pending
//! jobs it places out as commitments and leaves the rest pending. There
//! are two planners — the paper's two kinds of online scheduler:
//!
//! * [`BatchPlanner`], the default, is the §4.2 online batch
//!   transformation: arrivals stay pending while any work is running, and
//!   the accumulated batch is scheduled by [`Policy::schedule`] once the
//!   machine drains;
//! * [`BackfillPlanner`] serves the backfill family (§5.1/§5.2): each
//!   arrival is placed in a hole around the running work, so every
//!   decision places the whole pending set.
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
//!   batch path uses ([`crate::backfill`]), on the persistent timeline,
//!   with each release raised to `now`. The pass hands every placement
//!   straight to the commitment list, and `plan` edits no booking after
//!   it. A conservative booking keeps its *estimated* length, as in the
//!   batch pass: a job that finishes early leaves its estimate tail
//!   booked until a sweep, a kill or an outage removes it, so a later
//!   arrival never learns a true runtime before the job ends. EASY's pass
//!   truncates each of its bookings to the job's true end itself, by the
//!   time it returns. The full replan re-books exactly these intervals.
//! * **Outages** truncate, at the outage start, a finished conservative
//!   job's estimate tail on the failed node (on all of its processors):
//!   after the dispatcher's kills, nothing else can hold the node then.
//! * **Completions** cost no profile edit and no bookkeeping of their
//!   own. The planner first forgets the timeline before `now`
//!   ([`Timeline::forget_before`]): the invariant only constrains
//!   `[now, ∞)`, so the profile drops every segment before it. Finished
//!   bookings stay in the table until a sweep ([`Timeline::gc`]) drops
//!   them, which runs whenever the table has doubled since the previous
//!   sweep left it (and holds at least 64 bookings): each scan is paid
//!   for by the bookings made since the last, so it costs O(1) amortized
//!   per booking, and the table stays within twice the bookings live at
//!   the last sweep. A swept booking ends by `now`, so it lies wholly
//!   before the horizon and removing it edits no segment.
//!   Outage windows and killed bookings need nothing more: the sweep
//!   drops an outage once it has ended, and a kill removes its booking
//!   at once.
//! * **Reservations** are booked once at construction. The first-fit
//!   processor choice for a reservation is stable across decisions (later
//!   commitments are always placed *around* the booked reservation, so
//!   they never claim its processors and never change which processors
//!   `take_first` sees free), so re-placing them per event — as the full
//!   replan does — always reproduces the same sets.
//!
//! Pointwise equality on `[now, ∞)` is all the passes can observe: every
//! query they issue (`earliest_slot_within`, for the start-now fit tests
//! and the slot searches alike) starts at or after `now` (the timeline's
//! horizon panics on any that does not), and so does every booking they
//! make, EASY's temporary shadow booking included. Two coalesced step
//! functions that agree pointwise from `now` on expose identical boundary
//! sets there. Hence the planner's placements are **bit-identical** to
//! the full replan's — the property the differential tests in
//! `lsps_scenario` pin down against a re-book-everything oracle kept in
//! test code.

use lsps_des::{Commitment, Time};
use lsps_platform::timeline::BookError;
use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};
use lsps_workload::{Job, JobKind};

use crate::backfill::{
    assert_estimate_factor, conservative_pass, easy_pass, fcfs_sort, BackfillPolicy, PassScratch,
};
use crate::policy::{Policy, PolicyCtx};

/// Where a planned job runs: its processors, and the planner booking
/// behind it, which a node failure names to
/// [`invalidate`](IncrementalPlanner::invalidate).
#[derive(Debug)]
pub struct Placement {
    /// The processors the job runs on.
    pub procs: ProcSet,
    /// The planner's booking of the job.
    pub booking: BookingId,
}

/// Persistent scheduler state behind [`Policy::incremental_planner`], with
/// the contract of [`lsps_des::Dispatcher::decide`]: one
/// [`plan`](IncrementalPlanner::plan) call per decision instant commits
/// what it places.
pub trait IncrementalPlanner {
    /// Decide at `now` (non-decreasing across calls) over `pending`: every
    /// job still waiting, all arrived (release `<= now`) and already
    /// [`prepare`](Policy::prepare)d.
    ///
    /// The planner first releases the work that completed by `now`. It
    /// then places jobs around all previously planned work, no earlier
    /// than `now`, and absorbs them into its state. Each placed job moves
    /// out of `pending` onto `out` as a commitment, in placement order; the
    /// jobs left in `pending` wait for the next decision.
    fn plan(
        &mut self,
        now: Time,
        pending: &mut Vec<Job>,
        out: &mut Vec<Commitment<Job, Placement>>,
    );

    /// Jobs examined across all [`plan`](IncrementalPlanner::plan) calls —
    /// the instrumentation the O(dirty) regression tests read. A full
    /// replan counts O(live + batch) per event; the planners here count
    /// O(batch).
    fn touched(&self) -> u64;

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
    /// Live commitments; each `plan` garbage-collects completed work, so
    /// a multi-day trace never accumulates dead bookings.
    committed: Timeline,
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
            touched: 0,
        }
    }
}

impl<P: Policy + ?Sized> IncrementalPlanner for BatchPlanner<'_, P> {
    fn plan(
        &mut self,
        now: Time,
        pending: &mut Vec<Job>,
        out: &mut Vec<Commitment<Job, Placement>>,
    ) {
        // Completed commitments no longer constrain placement.
        self.committed.gc(now);
        if self.committed.n_bookings() > 0 {
            // Work still running: keep accumulating. The final completion
            // of the running batch re-invokes us on an empty machine.
            return;
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
        let name = self.policy.name();
        for a in self
            .policy
            .schedule(&batch, self.m, &ctx)
            .shifted(shift)
            .assignments()
        {
            let booking = self
                .committed
                .try_book(a.start, a.end, a.procs.clone(), BookingKind::Job)
                .unwrap_or_else(|e| {
                    panic!(
                        "{name}: commitment for job {} collides with a booking: {e}",
                        a.job
                    )
                });
            // Move the job out of `pending`: a linear scan, since a batch
            // is whatever arrived while the previous one ran.
            let Some(at) = pending.iter().position(|j| j.id == a.job) else {
                panic!("{name}: scheduled unknown job {}", a.job)
            };
            out.push(Commitment {
                job: pending.swap_remove(at),
                start: a.start,
                end: a.end,
                placed: Placement {
                    procs: a.procs.clone(),
                    booking,
                },
            });
        }
        assert!(
            pending.is_empty(),
            "{name}: left {} pending jobs unscheduled",
            pending.len()
        );
    }

    fn touched(&self) -> u64 {
        self.touched
    }

    /// Unreachable: kills come only from outages, and only volatile runs
    /// have outages, which need a hole-filling policy
    /// ([`Policy::supports_pinned`]) and so a [`BackfillPlanner`].
    fn invalidate(&mut self, _id: BookingId) {
        panic!("the batch planner has no kills: volatile runs need a hole-filling policy");
    }

    /// Unreachable, for the reason [`invalidate`](Self::invalidate) is.
    fn add_outage(&mut self, _node: u32, _start: Time, _end: Time) {
        panic!("the batch planner has no outages: volatile runs need a hole-filling policy");
    }
}

/// Fewest bookings a [`BackfillPlanner`]'s table holds before it is swept
/// of finished work: without a floor, a table the last sweep left (nearly)
/// empty would be swept again at every decision.
const SWEEP_FLOOR: usize = 64;

/// [`IncrementalPlanner`] for the backfill family (conservative + EASY).
pub struct BackfillPlanner {
    flavour: BackfillPolicy,
    m: usize,
    factor: f64,
    /// The persistent planning timeline: reservations, outage windows and
    /// every commitment as its pass left it (conservative at its estimate,
    /// EASY at its true length) — the live ones, plus those ended since
    /// the last sweep, which lie wholly before the horizon.
    tl: Timeline,
    /// Bookings the last sweep left in the table, every one live then. The
    /// next sweep waits until the table has doubled from it.
    swept: usize,
    touched: u64,
    /// EASY's pass buffers, reused across decisions.
    scratch: PassScratch,
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
            swept: 0,
            touched: 0,
            scratch: PassScratch::default(),
        }
    }
}

impl IncrementalPlanner for BackfillPlanner {
    fn plan(
        &mut self,
        now: Time,
        pending: &mut Vec<Job>,
        out: &mut Vec<Commitment<Job, Placement>>,
    ) {
        // Nothing before `now` is queried again, so sweeping finished work
        // below edits no profile segment: it frees only arena slots.
        self.tl.forget_before(now);
        if self.tl.n_bookings() >= (2 * self.swept).max(SWEEP_FLOOR) {
            self.tl.gc(now);
            self.swept = self.tl.n_bookings();
        }
        if pending.is_empty() {
            return;
        }
        self.touched += pending.len() as u64;
        for j in pending.iter() {
            assert!(
                matches!(j.kind, JobKind::Rigid { .. }) && j.min_procs() <= self.m,
                "planner expects prepared rigid jobs fitting the machine; job {} is not",
                j.id
            );
        }
        let first = out.len();
        // Every pending job has arrived, so the pass sees each release
        // raised to `now`; the commitment keeps the job as it was queued.
        fcfs_sort(pending, now);
        let place = |job: &Job, start: Time, procs: ProcSet, booking: BookingId| {
            out.push(Commitment {
                job: job.clone(),
                start,
                end: start + job.time_on(procs.len()),
                placed: Placement { procs, booking },
            })
        };
        match self.flavour {
            BackfillPolicy::Conservative => {
                conservative_pass(pending, now, &mut self.tl, self.factor, place)
            }
            BackfillPolicy::Easy => easy_pass(
                pending,
                now,
                &mut self.tl,
                self.factor,
                &mut self.scratch,
                place,
            ),
        }
        assert_eq!(
            out.len() - first,
            pending.len(),
            "the backfill passes place every pending job"
        );
        pending.clear();
    }

    fn touched(&self) -> u64 {
        self.touched
    }

    fn invalidate(&mut self, id: BookingId) {
        self.tl
            .remove(id)
            .expect("invalidated booking still present");
    }

    /// After the dispatcher's kills, the only booking that can still hold
    /// `node` at `start` is the estimate tail of a conservative job that
    /// already finished there: it is truncated at the outage start, on all
    /// its processors. Any other collision panics.
    fn add_outage(&mut self, node: u32, start: Time, end: Time) {
        assert!(end > start, "empty outage [{start:?}, {end:?})");
        let node_set = ProcSet::from_indices([node as usize]);
        loop {
            let id = match self
                .tl
                .try_book(start, end, node_set.clone(), BookingKind::Reservation)
            {
                Ok(_) => return,
                Err(BookError::Conflict(id)) => id,
                Err(e) => panic!("outage [{start:?}, {end:?}) on node {node}: {e:?}"),
            };
            let b = self.tl.booking(id).expect("a conflict names a booking");
            assert!(
                b.kind == BookingKind::Job && b.start < start,
                "outage [{start:?}, {end:?}) on node {node} collides with {b:?}"
            );
            self.tl.truncate(id, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::Reservation;
    use crate::list::JobOrder;
    use crate::policy::tests::domain_jobs;
    use crate::policy::{registry, BatchedMrt, ListScheduling};
    use crate::schedule::Assignment;
    use lsps_des::Dur;

    fn d(ticks: u64) -> Dur {
        Dur::from_ticks(ticks)
    }

    fn t(ticks: u64) -> Time {
        Time::from_ticks(ticks)
    }

    const FLAVOURS: [BackfillPolicy; 2] = [BackfillPolicy::Conservative, BackfillPolicy::Easy];

    /// One decision over `pending` at `now`: the jobs left pending and the
    /// commitments made.
    fn decide(
        planner: &mut impl IncrementalPlanner,
        now: Time,
        pending: &[Job],
    ) -> (Vec<Job>, Vec<Commitment<Job, Placement>>) {
        let mut left = pending.to_vec();
        let mut out = Vec::new();
        planner.plan(now, &mut left, &mut out);
        (left, out)
    }

    /// `list-fcfs` cannot fill holes: while the first batch runs, later
    /// arrivals wait — `plan` defers, leaves them pending and examines
    /// nothing. The first decision after the last end places the
    /// accumulated batch from `now` on.
    #[test]
    fn batch_planner_defers_until_the_machine_drains() {
        let policy = ListScheduling::new(JobOrder::Fcfs);
        let ctx = PolicyCtx::default();
        let mut planner = BatchPlanner::new(&policy, 2, &ctx);
        let (left, out) = decide(&mut planner, t(0), &[Job::rigid(1, 1, d(100))]);
        assert!(left.is_empty());
        assert_eq!(out.len(), 1);
        assert_eq!(planner.touched(), 1, "one pending job, nothing live");
        // Processor 1 idles, but the batch waits for the drain.
        let later = [
            Job::rigid(2, 1, d(10)).released_at(t(10)),
            Job::rigid(3, 2, d(5)).released_at(t(20)),
        ];
        for now in [10, 20, 99] {
            let (left, out) = decide(&mut planner, t(now), &later);
            assert_eq!(left, later, "placed at {now}");
            assert!(out.is_empty());
            assert_eq!(planner.touched(), 1, "a deferred decision examines nothing");
        }
        let (left, out) = decide(&mut planner, t(100), &later);
        assert!(left.is_empty());
        let starts: Vec<(u64, Time)> = out.iter().map(|c| (c.job.id.0, c.start)).collect();
        assert_eq!(starts, [(2, t(100)), (3, t(110))]);
        // Each commitment carries its job as queued, release included.
        assert_eq!(out[0].job, later[0]);
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
        let mut planner = BatchPlanner::new(&BatchedMrt, 2, &ctx);
        let (_, out) = decide(&mut planner, t(0), &[Job::rigid(1, 2, d(50))]);
        assert_eq!(out[0].end, t(50));
        let pending = [Job::sequential(2, d(60)).released_at(t(10))];
        let (left, _) = decide(&mut planner, t(10), &pending);
        assert_eq!(left.len(), 1, "work is live");
        let (_, out) = decide(&mut planner, t(50), &pending);
        let c = &out[0];
        assert!(c.start >= t(50), "{c:?} inside the horizon");
        assert!(
            c.end <= t(100) || c.start >= t(200),
            "{c:?} crosses the absolute reservation window"
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
            let (left, out) = decide(&mut planner, Time::ZERO, &jobs);
            assert!(left.is_empty(), "{}", policy.name());
            let placed: Vec<Assignment> = out
                .into_iter()
                .map(|c| Assignment {
                    job: c.job.id,
                    start: c.start,
                    end: c.end,
                    procs: c.placed.procs,
                })
                .collect();
            let batch = policy.schedule(&jobs, 8, &ctx);
            assert_eq!(placed, batch.assignments(), "{}", policy.name());
        }
    }

    /// Hole-filling: with processor 0 committed over [0, 100), a 1-proc
    /// arrival at 10 starts at 10 on processor 1 instead of waiting, and
    /// the decision examines only the pending job.
    #[test]
    fn backfill_planner_fills_the_hole_beside_a_live_commitment() {
        for flavour in FLAVOURS {
            let mut planner = BackfillPlanner::new(flavour, 2, &PolicyCtx::default());
            let (_, out) = decide(&mut planner, t(0), &[Job::rigid(1, 1, d(100))]);
            assert_eq!(out[0].placed.procs, ProcSet::from_indices([0]));
            let hole = [Job::rigid(2, 1, d(10)).released_at(t(10))];
            let (left, out) = decide(&mut planner, t(10), &hole);
            assert!(left.is_empty(), "{flavour:?}");
            assert_eq!(out.len(), 1);
            let c = &out[0];
            assert_eq!((c.start, c.end), (t(10), t(20)), "{flavour:?}");
            assert_eq!(c.placed.procs, ProcSet::from_indices([1]), "{flavour:?}");
            assert_eq!(c.job, hole[0], "the commitment carries the queued job");
            assert_eq!(planner.touched(), 1 + 1, "{flavour:?}: pending only");
        }
    }

    /// Commitments leave in placement order (FCFS here), each carrying its
    /// job as queued: a job that waited keeps its own release, although
    /// the pass places it from `now`.
    #[test]
    fn backfill_commitments_leave_in_placement_order_with_the_queued_jobs() {
        for flavour in FLAVOURS {
            let mut planner = BackfillPlanner::new(flavour, 2, &PolicyCtx::default());
            let pending = [
                Job::rigid(3, 1, d(5)).released_at(t(4)),
                Job::rigid(1, 2, d(5)).released_at(t(2)),
                Job::rigid(2, 1, d(5)).released_at(t(2)),
            ];
            let (_, out) = decide(&mut planner, t(10), &pending);
            let ids: Vec<u64> = out.iter().map(|c| c.job.id.0).collect();
            assert_eq!(ids, [1, 2, 3], "{flavour:?}");
            assert_eq!(out[2].job, pending[0], "{flavour:?}");
        }
    }

    /// Over a few hundred decisions of a steady stream, with node outages
    /// and the kills they force, the sweep keeps the planner's booking
    /// table O(live): after every decision it holds fewer than twice the
    /// live bookings plus the floor, although nothing tracks when each
    /// booking ends.
    #[test]
    fn the_booking_table_stays_within_twice_the_live_bookings() {
        let m = 128;
        for flavour in FLAVOURS {
            let mut planner = BackfillPlanner::new(flavour, m, &PolicyCtx::default());
            let mut committed: Vec<Commitment<Job, Placement>> = Vec::new();
            let mut pending = Vec::new();
            let (mut next_id, mut sweeps, mut peak, mut kills) = (0u64, 0, 0, 0);
            for k in 0..400u64 {
                let now = t(10 * k);
                // Six arrivals per decision, about 0.85 of the machine.
                for _ in 0..6 {
                    next_id += 1;
                    let (width, len) = (1 + (next_id * 7 % 2) as usize, 5 + next_id * 37 % 230);
                    pending.push(Job::rigid(next_id, width, d(len)).released_at(now));
                }
                let before = planner.tl.n_bookings();
                let mut out = Vec::new();
                planner.plan(now, &mut pending, &mut out);
                assert!(pending.is_empty(), "{flavour:?}");
                committed.retain(|c| c.end > now);
                committed.extend(out);
                let table = planner.tl.n_bookings();
                let live = planner.tl.bookings().filter(|(_, b)| b.end > now).count();
                assert!(
                    table < 2 * live + SWEEP_FLOOR,
                    "{flavour:?} at {now:?}: {table} bookings, {live} live"
                );
                sweeps += usize::from(table < before);
                peak = peak.max(live);
                if k % 25 == 12 {
                    // Node `k mod m` fails for 30 ticks: every commitment
                    // holding it over the window is killed and resubmitted.
                    let (node, up) = ((k % m as u64) as u32, now + d(30));
                    committed.retain(|c| {
                        let hit = c.placed.procs.contains(node as usize) && c.start < up;
                        if hit {
                            kills += 1;
                            planner.invalidate(c.placed.booking);
                            pending.push(c.job.clone().released_at(now));
                        }
                        !hit
                    });
                    planner.add_outage(node, now, up);
                }
            }
            // Enough live work that the doubling rule, not the floor, paces
            // the sweeps.
            assert!(peak > SWEEP_FLOOR, "{flavour:?}: at most {peak} live");
            assert!(sweeps >= 20, "{flavour:?}: {sweeps} sweeps");
            assert!(kills > 0, "{flavour:?}: no outage killed anything");
        }
    }

    /// A commitment that ended at `now` is history: it must not block a
    /// full-width job placed at `now`.
    #[test]
    fn a_commitment_ending_at_now_does_not_block_a_full_width_job() {
        for flavour in FLAVOURS {
            let mut planner = BackfillPlanner::new(flavour, 2, &PolicyCtx::default());
            decide(&mut planner, t(0), &[Job::rigid(1, 2, d(5))]);
            let wide = [Job::rigid(2, 2, d(10)).released_at(t(5))];
            let (_, out) = decide(&mut planner, t(5), &wide);
            assert_eq!(out[0].start, t(5), "{flavour:?}");
        }
    }

    /// Factor 2: job 1 truly runs [0, 10) on processor 0 but is booked
    /// for 20 ticks. Conservative keeps that estimate tail after the job
    /// ends; node 0 failing at 15, inside the tail, books its outage and
    /// ends the tail at 15. EASY trimmed the tail when its pass ended.
    /// Either way a full-width arrival at 15 waits for the repair at 30.
    #[test]
    fn an_outage_ends_a_finished_jobs_estimate_tail() {
        let ctx = PolicyCtx {
            estimate_factor: 2.0,
            ..PolicyCtx::default()
        };
        for (flavour, booked_until) in FLAVOURS.into_iter().zip([t(15), t(10)]) {
            let mut planner = BackfillPlanner::new(flavour, 2, &ctx);
            let (_, out) = decide(&mut planner, t(0), &[Job::rigid(1, 1, d(10))]);
            let c = &out[0];
            assert_eq!((c.start, c.end), (t(0), t(10)), "{flavour:?}");
            assert_eq!(c.placed.procs, ProcSet::from_indices([0]));
            // The completion decision at 10 places nothing.
            decide(&mut planner, t(10), &[]);
            planner.add_outage(0, t(15), t(30));
            let booked = planner.tl.booking(c.placed.booking).map(|b| b.end);
            assert_eq!(booked, Some(booked_until), "{flavour:?}");
            let outage = planner
                .tl
                .bookings()
                .find(|(_, b)| b.kind == BookingKind::Reservation)
                .map(|(_, b)| (b.start, b.end, b.procs.clone()));
            assert_eq!(
                outage,
                Some((t(15), t(30), ProcSet::from_indices([0]))),
                "{flavour:?}"
            );
            let wide = [Job::rigid(2, 2, d(5)).released_at(t(15))];
            let (_, out) = decide(&mut planner, t(15), &wide);
            assert_eq!(out[0].start, t(30), "{flavour:?}");
        }
    }
}
