//! Backfilling with advance reservations (§5.1 of the paper).
//!
//! The production policy family of cluster batch systems, and the one the
//! CiGri layer fills holes around:
//!
//! * **Conservative backfilling** — every queued job is booked at the
//!   earliest slot that does not disturb any earlier booking; later
//!   submissions may only slide into genuine holes. Start guarantees are
//!   absolute.
//! * **EASY (aggressive) backfilling** — only the queue head holds a
//!   reservation (its *shadow*); any other queued job may start immediately
//!   if it either finishes before the shadow time or avoids the shadow
//!   processors.
//!
//! **Advance reservations** ("a given number of processors in a given time
//! window", §5.1) are pre-booked intervals both policies must respect —
//! the paper notes batch algorithms handle these awkwardly; the timeline
//! representation handles them exactly.
//!
//! Jobs must be rigid (choose moldable allotments first, see
//! [`crate::allot`]). The builder replays the on-line process from release
//! dates, so the result is exactly what the on-line policy would have done
//! with clairvoyant (exact) runtimes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lsps_des::Time;
use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};
use lsps_workload::{Job, JobKind};

use crate::schedule::Schedule;

/// An advance reservation: `procs` processors blocked during
/// `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Window start.
    pub start: Time,
    /// Window end (exclusive).
    pub end: Time,
    /// Number of processors reserved.
    pub procs: usize,
}

/// Largest accepted runtime-estimate factor. Placement books `⌈true ×
/// factor⌉` ticks, so an unbounded factor saturates the estimate and the
/// booking end runs off the tick axis. Users over-request wall time by
/// small factors (every checked-in campaign uses ≤ 1.2); 1000× leaves room
/// for any sweep while keeping every booking far inside the axis.
pub const MAX_ESTIMATE_FACTOR: f64 = 1000.0;

/// Panic unless `factor` lies in `[1, MAX_ESTIMATE_FACTOR]` — the contract
/// every backfill entry point enforces (NaN fails too).
pub(crate) fn assert_estimate_factor(factor: f64) {
    assert!(
        (1.0..=MAX_ESTIMATE_FACTOR).contains(&factor),
        "estimate factor must lie in [1, {MAX_ESTIMATE_FACTOR}] (got {factor})"
    );
}

/// Backfilling flavours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackfillPolicy {
    /// Book every queued job (absolute start guarantees).
    Conservative,
    /// Book only the queue head; others may jump in if harmless.
    Easy,
}

/// Schedule rigid `jobs` on `m` processors around `reservations` with the
/// chosen backfilling policy. Queue order is FCFS by `(release, id)`.
///
/// # Panics
/// If a job is not rigid, needs more than `m` processors, or a reservation
/// cannot be placed.
pub fn backfill_schedule(
    jobs: &[Job],
    m: usize,
    reservations: &[Reservation],
    policy: BackfillPolicy,
) -> Schedule {
    backfill_schedule_estimated(jobs, m, reservations, policy, 1.0)
}

/// [`backfill_schedule`] with *inexact* runtime estimates — the §4.2
/// clairvoyance knob. Placement decisions use `estimate = ⌈true ×
/// estimate_factor⌉` (users systematically over-request wall time); jobs
/// still *complete* at their true length, and the freed tail becomes
/// visible to later decisions at the completion instant.
///
/// `1 <= estimate_factor <= MAX_ESTIMATE_FACTOR` is required:
/// under-estimates would let a running job outlive its booking, which real
/// systems handle by killing — that path is modelled by
/// `lsps_core::nonclairvoyant` instead.
pub fn backfill_schedule_estimated(
    jobs: &[Job],
    m: usize,
    reservations: &[Reservation],
    policy: BackfillPolicy,
    estimate_factor: f64,
) -> Schedule {
    let mut tl = Timeline::with_procs(m);
    book_reservations(&mut tl, reservations);
    backfill_on_timeline(jobs, m, tl, policy, estimate_factor)
}

/// Place count-based reservations on a timeline, deterministic first-fit —
/// shared by [`backfill_schedule_estimated`] and the [`crate::policy`]
/// layer so the placement rule cannot diverge.
///
/// # Panics
/// On a degenerate reservation or one that does not fit the free
/// processors of its window.
pub fn book_reservations(tl: &mut Timeline, reservations: &[Reservation]) {
    for (i, r) in reservations.iter().enumerate() {
        assert!(
            r.end > r.start && r.procs >= 1,
            "degenerate reservation {i}"
        );
        let (_, procs) = tl
            .earliest_slot_within(r.start, r.start, r.end - r.start, r.procs)
            .unwrap_or_else(|| panic!("reservation {i} does not fit ({} wanted)", r.procs));
        tl.book(r.start, r.end, procs, BookingKind::Reservation);
    }
}

/// [`backfill_schedule_estimated`] over a pre-populated [`Timeline`]: every
/// existing booking (whatever its kind) is treated as inviolable. The
/// [`crate::policy`] layer starts it from the reserved timeline; a caller
/// holding *exact* processor sets (live work, outage windows) books them
/// first — a count-based [`Reservation`] re-fits first-fit, which such a
/// caller cannot rely on.
pub fn backfill_on_timeline(
    jobs: &[Job],
    m: usize,
    tl: Timeline,
    policy: BackfillPolicy,
    estimate_factor: f64,
) -> Schedule {
    assert_estimate_factor(estimate_factor);
    assert_eq!(tl.capacity().len(), m, "timeline capacity must match m");
    for j in jobs {
        assert!(
            matches!(j.kind, JobKind::Rigid { .. }),
            "backfill_schedule expects rigid jobs; job {} is not",
            j.id
        );
        assert!(j.min_procs() <= m, "job {} wider than machine", j.id);
    }
    match policy {
        BackfillPolicy::Conservative => conservative(jobs, m, tl, estimate_factor),
        BackfillPolicy::Easy => easy(jobs, m, tl, estimate_factor),
    }
}

pub(crate) fn estimate(len: lsps_des::Dur, factor: f64) -> lsps_des::Dur {
    len.scale_ceil(factor).max(len)
}

/// Sort `jobs` in place into FCFS order by `(release, id)`, releases
/// raised to `floor`. Ids are unique, so the order is total and an
/// unstable sort (which allocates nothing) gives the stable one's answer.
pub(crate) fn fcfs_sort(jobs: &mut [Job], floor: Time) {
    jobs.sort_unstable_by_key(|j| (j.release.max(floor), j.id));
}

/// A proven-infeasible scan range: while packing, a job of width `w` and
/// duration `d` that placed at `hi` after scanning from `lo` certifies
/// that **no** start in `[lo, hi)` admits a window of `d` ticks with `w`
/// processors free. The conservative loop only ever *adds* bookings, so
/// the certificate never expires, and it transfers to any wider/longer
/// request (its window covers the failed one, its free set is a subset).
#[derive(Clone, Copy)]
struct InfeasibleRange {
    w: usize,
    d: lsps_des::Dur,
    lo: Time,
    hi: Time,
}

/// Monotone infeasibility frontier: the certificates accumulated so far.
/// `advance` chains every applicable range to push a query's scan start
/// forward — the saturated prefix of a backlogged schedule is skipped in
/// O(frontier) instead of walked boundary-by-boundary per job. Purely an
/// accelerator: it never changes which slot `earliest_slot` returns.
#[derive(Default)]
struct Frontier {
    ranges: Vec<InfeasibleRange>,
}

impl Frontier {
    const CAP: usize = 48;

    /// Furthest scan start reachable from `from` for a `(w, d)` request.
    fn advance(&self, mut from: Time, w: usize, d: lsps_des::Dur) -> Time {
        loop {
            let mut moved = false;
            for r in &self.ranges {
                if r.w <= w && r.d <= d && r.lo <= from && from < r.hi {
                    from = r.hi;
                    moved = true;
                }
            }
            if !moved {
                return from;
            }
        }
    }

    fn record(&mut self, r: InfeasibleRange) {
        if r.hi <= r.lo {
            return;
        }
        // Keep the set small: drop certificates the new one subsumes, and
        // under pressure evict the one ending earliest (only performance
        // is at stake, never correctness).
        self.ranges
            .retain(|e| !(r.w <= e.w && r.d <= e.d && r.lo <= e.lo && r.hi >= e.hi));
        if self.ranges.len() == Self::CAP {
            if let Some((i, _)) = self.ranges.iter().enumerate().min_by_key(|(_, e)| e.hi) {
                self.ranges.swap_remove(i);
            }
        }
        self.ranges.push(r);
    }
}

/// The working buffers of one backfill pass, kept between passes so that
/// an online planner's decisions allocate nothing once they have grown to
/// the queue's size. Each pass clears what it uses on entry.
#[derive(Default)]
pub(crate) struct PassScratch {
    /// EASY's replay agenda: release, completion and shadow instants.
    events: BinaryHeap<Reverse<Time>>,
    /// EASY's queue, indices into the pass order, FCFS.
    queue: Vec<usize>,
    /// EASY's running bookings with their true completions.
    running: Vec<(BookingId, Time)>,
    /// Conservative's infeasibility certificates.
    frontier: Frontier,
}

/// One conservative packing pass over `order` (sorted by [`fcfs_sort`]
/// with the same `floor`) on an existing timeline. No job starts before
/// its release raised to `floor`. Each placement is booked at its estimate
/// and handed to `place` with its start, processors and booking.
pub(crate) fn conservative_pass(
    order: &[Job],
    floor: Time,
    tl: &mut Timeline,
    factor: f64,
    scratch: &mut PassScratch,
    mut place: impl FnMut(&Job, Time, ProcSet, BookingId),
) {
    // Conservative semantics with estimates: every queued job is booked at
    // its *estimated* length (no compression on early completion — later
    // bookings keep their guaranteed starts); the actual execution is the
    // true length inside that booking.
    let frontier = &mut scratch.frontier;
    frontier.ranges.clear();
    for job in order {
        let q = job.min_procs();
        let dur = job.time_on(q);
        let est = estimate(dur, factor);
        let from = frontier.advance(job.release.max(floor), q, est);
        let (start, procs) = tl
            .earliest_slot(from, est, q)
            .expect("q <= m, so a slot always exists");
        frontier.record(InfeasibleRange {
            w: q,
            d: est,
            lo: from,
            hi: start,
        });
        let bk = tl.book(start, start + est, procs.clone(), BookingKind::Job);
        place(job, start, procs, bk);
    }
}

fn conservative(jobs: &[Job], m: usize, mut tl: Timeline, factor: f64) -> Schedule {
    let mut sched = Schedule::new(m);
    let mut order = jobs.to_vec();
    fcfs_sort(&mut order, Time::ZERO);
    conservative_pass(
        &order,
        Time::ZERO,
        &mut tl,
        factor,
        &mut PassScratch::default(),
        |job, start, procs, _| sched.place(job, start, procs),
    );
    sched
}

fn easy(jobs: &[Job], m: usize, mut tl: Timeline, factor: f64) -> Schedule {
    let mut sched = Schedule::new(m);
    let mut order = jobs.to_vec();
    fcfs_sort(&mut order, Time::ZERO);
    easy_pass(
        &order,
        Time::ZERO,
        &mut tl,
        factor,
        &mut PassScratch::default(),
        |job, start, procs, _| sched.place(job, start, procs),
    );
    sched
}

/// One EASY replay pass over `order` on an existing timeline — the
/// event-driven engine behind [`easy`], factored out so the incremental
/// planner can run the identical machinery batch-by-batch on a persistent
/// timeline. `floor`, `scratch` and `place` work as in
/// [`conservative_pass`].
///
/// Each decision round is one sweep over the FCFS queue. Until the sweep
/// meets the head, each job asks for its earliest slot from `now` once: a
/// slot at `now` starts it there, on the processors a fit test would
/// return, and any later slot marks the head and is its *shadow*, found
/// by the same walk. Every job after the head asks only whether its
/// estimate fits now. The shadow is booked as a reservation the first
/// time a later job's estimate crosses its start, so those fit tests are
/// the same query: a job ending by the shadow start may use any free
/// processor, one crossing it only those the shadow leaves. The sweep
/// removes the shadow booking when it ends, and the jobs that stay queued
/// are compacted in place.
///
/// A quiet last head takes its shadow at once. Say the sweep leaves only
/// the head queued and never booked its shadow, no job is left to
/// release, the earliest pending event is the shadow start, and every job
/// started in this pass truly ends after it. Then the next round would
/// start the head at its shadow, on the shadow's processors: the jobs
/// started behind the head end by the shadow start, and no truncation
/// frees a processor first. So the head is booked there and the pass
/// ends. A sweep that booked the shadow as a reservation leaves the head
/// to the next round.
pub(crate) fn easy_pass(
    order: &[Job],
    floor: Time,
    tl: &mut Timeline,
    factor: f64,
    scratch: &mut PassScratch,
    mut place: impl FnMut(&Job, Time, ProcSet, BookingId),
) {
    let release = |i: usize| order[i].release.max(floor);
    // Event-driven replay: next_release pointer + completion/shadow events,
    // and the FCFS queue of released jobs (indices into `order`).
    let PassScratch {
        events,
        queue,
        running,
        ..
    } = scratch;
    events.clear();
    queue.clear();
    // Running bookings with their TRUE completion; the estimate tail is
    // released when the job actually finishes.
    running.clear();
    let mut next = 0usize; // first not-yet-released job in `order`
    if !order.is_empty() {
        events.push(Reverse(release(0)));
    }

    while next < order.len() || !queue.is_empty() {
        let now = match events.pop() {
            Some(Reverse(t)) => t,
            None => unreachable!("queue non-empty implies a pending event"),
        };
        // Coalesce same-instant events.
        while matches!(events.peek(), Some(Reverse(t)) if *t == now) {
            events.pop();
        }
        // Early completions: truncate the over-estimated bookings so the
        // freed tail becomes visible to this decision round.
        running.retain(|&(bk, true_end)| {
            if true_end <= now {
                tl.truncate(bk, true_end);
                false
            } else {
                true
            }
        });
        while next < order.len() && release(next) <= now {
            queue.push(next);
            next += 1;
        }
        if next < order.len() {
            events.push(Reverse(release(next)));
        }

        // The head's shadow `(start, end, procs)` until a crossing job
        // books it, then that booking.
        let mut shadow: Option<(Time, Time, ProcSet)> = None;
        let mut booked = None;
        queue.retain(|&i| {
            let job = &order[i];
            let q = job.min_procs();
            let dur = job.time_on(q);
            let est = estimate(dur, factor);
            if let Some((start, end, procs)) = shadow.take_if(|s| now + est > s.0) {
                booked = Some(tl.book(start, end, procs, BookingKind::Reservation));
            }
            let (start, procs) = if shadow.is_none() && booked.is_none() {
                tl.earliest_slot(now, est, q)
                    .expect("q <= m, so a slot always exists")
            } else {
                match tl.earliest_slot_within(now, now, est, q) {
                    Some(hit) => hit,
                    None => return true,
                }
            };
            if start > now {
                events.push(Reverse(start));
                shadow = Some((start, start + est, procs));
                return true;
            }
            let bk = tl.book(now, now + est, procs.clone(), BookingKind::Job);
            running.push((bk, now + dur));
            place(job, now, procs, bk);
            events.push(Reverse(now + dur));
            false
        });
        if let Some(bk) = booked {
            tl.remove(bk);
        }
        // A quiet last head takes its shadow now (see above).
        let quiet = |s: &mut (Time, Time, ProcSet)| {
            queue.len() == 1
                && next == order.len()
                && events.peek() == Some(&Reverse(s.0))
                && running.iter().all(|&(_, end)| end > s.0)
        };
        if let Some((start, end, procs)) = shadow.take_if(quiet) {
            let job = &order[queue[0]];
            let bk = tl.book(start, end, procs.clone(), BookingKind::Job);
            place(job, start, procs, bk);
            queue.clear();
        }
    }
}

/// Does `sched` keep every reservation interval untouched? Schedule
/// validation cannot know about reservations, so tests check them here,
/// on the processors [`book_reservations`] places them on.
#[cfg(test)]
pub(crate) fn respects_reservations(
    sched: &Schedule,
    m: usize,
    reservations: &[Reservation],
) -> bool {
    let mut tl = Timeline::with_procs(m);
    book_reservations(&mut tl, reservations);
    let blocked: Vec<_> = tl
        .bookings()
        .map(|(_, b)| b)
        .filter(|b| b.kind == BookingKind::Reservation)
        .collect();
    sched.assignments().iter().all(|a| {
        blocked.iter().all(|b| {
            let time_overlap = a.start < b.end && b.start < a.end;
            !time_overlap || a.procs.is_disjoint(&b.procs)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsps_des::Dur;
    use lsps_workload::JobId;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }
    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    fn start_of(s: &Schedule, id: u64) -> Time {
        s.assignments()
            .iter()
            .find(|a| a.job == JobId(id))
            .expect("job scheduled")
            .start
    }

    #[test]
    fn both_policies_fill_holes_behind_a_wide_head() {
        // m=2: A(q1,10) runs on p0; B(q2,5) must wait; C(q1,10) fits on p1
        // alongside A and ends exactly when B can start — both policies
        // backfill it.
        let jobs = vec![
            Job::rigid(1, 1, d(10)),
            Job::rigid(2, 2, d(5)),
            Job::rigid(3, 1, d(10)),
        ];
        for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
            let s = backfill_schedule(&jobs, 2, &[], policy);
            assert!(s.validate(&jobs).is_ok(), "{policy:?}");
            assert_eq!(start_of(&s, 3), t(0), "{policy:?} backfills C");
            assert_eq!(start_of(&s, 2), t(10), "{policy:?} head at 10");
            assert_eq!(s.makespan(), t(15), "{policy:?}");
        }
    }

    #[test]
    fn easy_blocks_backfill_that_would_delay_head() {
        // m=2: A(q1,10) on p0. Head B(q2,5) shadow at t=10 on {0,1}.
        // C(q1,20) would cross the shadow and needs a shadow proc → must
        // wait; it may start only once B is running.
        let jobs = vec![
            Job::rigid(1, 1, d(10)),
            Job::rigid(2, 2, d(5)),
            Job::rigid(3, 1, d(20)),
        ];
        let s = backfill_schedule(&jobs, 2, &[], BackfillPolicy::Easy);
        assert!(s.validate(&jobs).is_ok());
        assert_eq!(start_of(&s, 2), t(10), "head not delayed");
        assert!(start_of(&s, 3) >= t(10), "C not allowed to push B");
    }

    #[test]
    fn conservative_respects_booked_order() {
        let jobs = vec![
            Job::rigid(1, 2, d(10)),                  // [0,10) both procs
            Job::rigid(2, 2, d(10)),                  // booked [10,20)
            Job::rigid(3, 1, d(5)).released_at(t(1)), // must go after, at 20
        ];
        let s = backfill_schedule(&jobs, 2, &[], BackfillPolicy::Conservative);
        assert!(s.validate(&jobs).is_ok());
        assert_eq!(start_of(&s, 2), t(10));
        assert_eq!(start_of(&s, 3), t(20));
    }

    #[test]
    fn conservative_slides_into_real_holes() {
        // m=2: A(q2,10) at 0; B(q1,30) at 10 on p0; C(q1,10) released 5
        // fits the hole on p1 at t=10.
        let jobs = vec![
            Job::rigid(1, 2, d(10)),
            Job::rigid(2, 1, d(30)),
            Job::rigid(3, 1, d(10)).released_at(t(5)),
        ];
        let s = backfill_schedule(&jobs, 2, &[], BackfillPolicy::Conservative);
        assert!(s.validate(&jobs).is_ok());
        assert_eq!(start_of(&s, 3), t(10));
        assert_eq!(s.makespan(), t(40));
    }

    #[test]
    fn reservations_are_inviolable() {
        let resv = [Reservation {
            start: t(5),
            end: t(15),
            procs: 2,
        }];
        let jobs = vec![
            Job::rigid(1, 2, d(10)), // cannot fit before the reservation
            Job::rigid(2, 1, d(4)),  // fits before it
        ];
        for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
            let s = backfill_schedule(&jobs, 2, &resv, policy);
            assert!(s.validate(&jobs).is_ok(), "{policy:?}");
            assert!(respects_reservations(&s, 2, &resv), "{policy:?}");
            assert_eq!(start_of(&s, 1), t(15), "{policy:?} wide job after window");
            assert_eq!(start_of(&s, 2), t(0), "{policy:?} small job before window");
        }
    }

    #[test]
    fn release_dates_honoured() {
        let jobs = vec![Job::rigid(1, 1, d(5)).released_at(t(42))];
        for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
            let s = backfill_schedule(&jobs, 4, &[], policy);
            assert_eq!(start_of(&s, 1), t(42), "{policy:?}");
        }
    }

    #[test]
    fn estimates_factor_one_matches_exact() {
        let jobs = vec![
            Job::rigid(1, 1, d(10)),
            Job::rigid(2, 2, d(5)),
            Job::rigid(3, 1, d(20)).released_at(t(3)),
        ];
        for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
            let exact = backfill_schedule(&jobs, 2, &[], policy);
            let est = backfill_schedule_estimated(&jobs, 2, &[], policy, 1.0);
            assert_eq!(exact, est, "{policy:?}");
        }
    }

    #[test]
    fn overestimates_still_yield_valid_schedules() {
        let jobs = vec![
            Job::rigid(1, 1, d(10)),
            Job::rigid(2, 2, d(8)),
            Job::rigid(3, 1, d(6)).released_at(t(2)),
            Job::rigid(4, 1, d(4)).released_at(t(5)),
        ];
        for factor in [1.5, 3.0, 10.0] {
            for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
                let s = backfill_schedule_estimated(&jobs, 2, &[], policy, factor);
                assert_eq!(s.validate(&jobs), Ok(()), "{policy:?} @ {factor}");
                assert_eq!(s.len(), jobs.len());
            }
        }
    }

    #[test]
    fn easy_recovers_overestimated_tails_conservative_does_not() {
        // m=1. A's true length 10 but estimated 30; B arrives at 12.
        // Conservative booked B after the estimate (t=30); EASY sees the
        // early completion at t=10 and starts B at its release.
        let jobs = vec![
            Job::rigid(1, 1, d(10)),
            Job::rigid(2, 1, d(5)).released_at(t(12)),
        ];
        let cons = backfill_schedule_estimated(&jobs, 1, &[], BackfillPolicy::Conservative, 3.0);
        let easy = backfill_schedule_estimated(&jobs, 1, &[], BackfillPolicy::Easy, 3.0);
        assert!(cons.validate(&jobs).is_ok() && easy.validate(&jobs).is_ok());
        let start_of = |s: &Schedule, id: u64| {
            s.assignments()
                .iter()
                .find(|a| a.job == JobId(id))
                .unwrap()
                .start
        };
        assert_eq!(
            start_of(&cons, 2),
            t(30),
            "conservative trusts the estimate"
        );
        assert_eq!(start_of(&easy, 2), t(12), "EASY reuses the freed tail");
        assert!(easy.makespan() < cons.makespan());
    }

    #[test]
    #[should_panic]
    fn underestimates_rejected() {
        backfill_schedule_estimated(
            &[Job::rigid(1, 1, d(10))],
            1,
            &[],
            BackfillPolicy::Easy,
            0.5,
        );
    }

    #[test]
    fn empty_workload_is_fine() {
        for policy in [BackfillPolicy::Conservative, BackfillPolicy::Easy] {
            let s = backfill_schedule(&[], 4, &[], policy);
            assert!(s.is_empty(), "{policy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn moldable_jobs_rejected() {
        use lsps_workload::{MoldableProfile, SpeedupModel};
        let j = Job::moldable(
            1,
            MoldableProfile::from_model(d(10), &SpeedupModel::Linear, 2),
        );
        backfill_schedule(&[j], 4, &[], BackfillPolicy::Easy);
    }

    #[test]
    #[should_panic]
    fn oversize_reservation_rejected() {
        backfill_schedule(
            &[],
            2,
            &[Reservation {
                start: t(0),
                end: t(10),
                procs: 3,
            }],
            BackfillPolicy::Easy,
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use lsps_des::Dur;
    use lsps_workload::JobId;
    use proptest::prelude::*;

    /// The two-loop EASY round that [`easy_pass`]'s sweep replaced, kept
    /// as its differential oracle. A head loop starts the queue head while
    /// it fits; a backfill loop then starts a later job if it fits beside
    /// the head's *unbooked* shadow — on any free processor when its
    /// estimate ends by the shadow start, off the shadow's processors when
    /// it crosses it. Free sets come from a scan of the booking table, not
    /// the profile.
    fn easy_pass_reference(
        order: &[Job],
        floor: Time,
        tl: &mut Timeline,
        factor: f64,
        mut place: impl FnMut(&Job, Time, ProcSet, BookingId),
    ) {
        let free_during = |tl: &Timeline, start: Time, end: Time| {
            let mut free = tl.capacity().clone();
            for (_, b) in tl.bookings() {
                if b.start.max(start) < b.end.min(end) {
                    free.subtract(&b.procs);
                }
            }
            free
        };
        let release = |i: usize| order[i].release.max(floor);
        let mut events = BinaryHeap::new();
        let mut queue: Vec<usize> = Vec::new();
        let mut running: Vec<(BookingId, Time)> = Vec::new();
        let mut next = 0usize;
        if !order.is_empty() {
            events.push(Reverse(release(0)));
        }
        while next < order.len() || !queue.is_empty() {
            let Reverse(now) = events
                .pop()
                .expect("queue non-empty implies a pending event");
            while matches!(events.peek(), Some(Reverse(t)) if *t == now) {
                events.pop();
            }
            running.retain(|&(bk, true_end)| {
                if true_end <= now {
                    tl.truncate(bk, true_end);
                    false
                } else {
                    true
                }
            });
            while next < order.len() && release(next) <= now {
                queue.push(next);
                next += 1;
            }
            if next < order.len() {
                events.push(Reverse(release(next)));
            }

            // Start the head while it fits (per its estimate).
            while let Some(&h) = queue.first() {
                let job = &order[h];
                let q = job.min_procs();
                let dur = job.time_on(q);
                let est = estimate(dur, factor);
                let free = free_during(tl, now, now + est);
                if free.len() < q {
                    break;
                }
                let procs = free.take_first(q);
                let bk = tl.book(now, now + est, procs.clone(), BookingKind::Job);
                running.push((bk, now + dur));
                place(job, now, procs, bk);
                events.push(Reverse(now + dur));
                queue.remove(0);
            }
            if queue.is_empty() {
                continue;
            }

            // Head blocked: compute its shadow reservation (estimate-sized).
            let head = &order[queue[0]];
            let hq = head.min_procs();
            let hest = estimate(head.time_on(hq), factor);
            let (shadow_t, shadow_procs) = tl
                .earliest_slot(now, hest, hq)
                .expect("hq <= m, so a slot always exists");
            events.push(Reverse(shadow_t));

            // Backfill the rest of the queue without delaying the shadow.
            let mut i = 1;
            while i < queue.len() {
                let job = &order[queue[i]];
                let q = job.min_procs();
                let dur = job.time_on(q);
                let est = estimate(dur, factor);
                let free = free_during(tl, now, now + est);
                let candidate = if now + est <= shadow_t {
                    free
                } else {
                    free.difference(&shadow_procs)
                };
                if candidate.len() >= q {
                    let procs = candidate.take_first(q);
                    let bk = tl.book(now, now + est, procs.clone(), BookingKind::Job);
                    running.push((bk, now + dur));
                    place(job, now, procs, bk);
                    events.push(Reverse(now + dur));
                    queue.remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    proptest! {
        /// Both policies always produce valid schedules that respect
        /// reservations, and neither beats the area lower bound.
        #[test]
        fn backfill_always_valid(
            specs in prop::collection::vec((1usize..4, 1u64..30, 0u64..60), 1..25),
            resv_start in 0u64..40,
            resv_len in 1u64..20,
            resv_procs in 1usize..3,
            easy in any::<bool>(),
        ) {
            let m = 4;
            let jobs: Vec<Job> = specs.iter().enumerate()
                .map(|(i, &(q, len, rel))| {
                    Job::rigid(i as u64, q, Dur::from_ticks(len))
                        .released_at(Time::from_ticks(rel))
                })
                .collect();
            let resv = [Reservation {
                start: Time::from_ticks(resv_start),
                end: Time::from_ticks(resv_start + resv_len),
                procs: resv_procs,
            }];
            let policy = if easy { BackfillPolicy::Easy } else { BackfillPolicy::Conservative };
            let s = backfill_schedule(&jobs, m, &resv, policy);
            prop_assert_eq!(s.validate(&jobs), Ok(()));
            prop_assert!(respects_reservations(&s, m, &resv));
            let lb = lsps_metrics::cmax_lower_bound(&jobs, m);
            prop_assert!(s.makespan().since_epoch() >= lb.min(s.makespan().since_epoch()));
        }
    }

    /// Machine widths of the EASY differential cases.
    const MACHINES: [usize; 3] = [4, 64, 1024];
    /// Estimate factors of the EASY differential cases.
    const FACTORS: [f64; 3] = [1.0, 1.5, 3.0];

    /// `w` quarters of an `m`-processor machine, `jit` trimming it off a
    /// quarter multiple; at least one processor.
    fn quarters(m: usize, w: usize, jit: usize) -> usize {
        let unit = m / 4;
        (w * unit).saturating_sub(jit % unit).max(1)
    }

    /// Rigid jobs from `(quarters, jitter, length, release)` draws.
    fn jobs_on(m: usize, specs: &[(usize, usize, u64, u64)]) -> Vec<Job> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(w, jit, len, rel))| {
                Job::rigid(i as u64, quarters(m, w, jit), Dur::from_ticks(len))
                    .released_at(Time::from_ticks(rel))
            })
            .collect()
    }

    /// Run the sweep and the two-loop reference over copies of `tl` and
    /// compare every placement and the booking table each leaves behind.
    /// Returns the placements, in placement order.
    fn sweep_matches_reference(
        jobs: &[Job],
        floor: Time,
        tl: &Timeline,
        factor: f64,
    ) -> Vec<(JobId, Time, ProcSet)> {
        let mut order = jobs.to_vec();
        fcfs_sort(&mut order, floor);
        let run = |reference: bool| {
            let mut tl = tl.clone();
            let mut placed = Vec::new();
            let place = |job: &Job, start: Time, procs: ProcSet, _: BookingId| {
                placed.push((job.id, start, procs));
            };
            if reference {
                easy_pass_reference(&order, floor, &mut tl, factor, place);
            } else {
                easy_pass(
                    &order,
                    floor,
                    &mut tl,
                    factor,
                    &mut PassScratch::default(),
                    place,
                );
            }
            let table: Vec<_> = tl.bookings().map(|(_, b)| b.clone()).collect();
            (placed, table)
        };
        let (sweep, reference) = (run(false), run(true));
        prop_assert_eq!(sweep.0.len(), jobs.len());
        prop_assert_eq!(&sweep, &reference);
        sweep.0
    }

    /// Each job's `(id, start, processors)` under the sweep, checked
    /// against the reference.
    fn easy_starts(jobs: &[Job], tl: &Timeline, factor: f64) -> Vec<(u64, u64, ProcSet)> {
        sweep_matches_reference(jobs, Time::ZERO, tl, factor)
            .into_iter()
            .map(|(id, start, procs)| (id.0, start.ticks(), procs))
            .collect()
    }

    /// Factor 2 on 3 processors, {1, 2} busy over [0, 5). Job 0 (5 ticks,
    /// booked for 10) starts on processor 0; the head, job 1 (width 2),
    /// finds its shadow at 5 on {1, 2}. Job 0 truly ends at 5 too, so its
    /// truncation there frees processor 0 inside the head's window: the
    /// quiet head must not take its shadow, and the next round starts it
    /// on {0, 1}.
    #[test]
    fn a_completion_at_the_shadow_start_keeps_the_head_queued() {
        let mut tl = Timeline::with_procs(3);
        tl.book(
            Time::ZERO,
            Time::from_ticks(5),
            ProcSet::range(1, 3),
            BookingKind::Job,
        );
        let jobs = [
            Job::rigid(0, 1, Dur::from_ticks(5)),
            Job::rigid(1, 2, Dur::from_ticks(1)),
        ];
        assert_eq!(
            easy_starts(&jobs, &tl, 2.0),
            [
                (0, 0, ProcSet::from_indices([0])),
                (1, 5, ProcSet::range(0, 2)),
            ]
        );
    }

    /// 4 processors. Job 0 holds {0, 1} over [0, 10); the head, job 1
    /// (width 3), has its shadow at 10 on {0, 1, 2}. Job 2 crosses the
    /// shadow start, so the sweep books the shadow and starts job 2 on
    /// processor 3. The head is then the only queued job, but its shadow
    /// was booked: the next round starts it.
    #[test]
    fn a_booked_shadow_leaves_the_head_to_the_next_round() {
        let jobs = [
            Job::rigid(0, 2, Dur::from_ticks(10)),
            Job::rigid(1, 3, Dur::from_ticks(5)),
            Job::rigid(2, 1, Dur::from_ticks(20)),
        ];
        assert_eq!(
            easy_starts(&jobs, &Timeline::with_procs(4), 1.0),
            [
                (0, 0, ProcSet::range(0, 2)),
                (2, 0, ProcSet::from_indices([3])),
                (1, 10, ProcSet::range(0, 3)),
            ]
        );
    }

    /// The planner's timeline: earlier work from `live` draws booked
    /// (conflicting draws dropped, so the rest is a valid plan), the
    /// profile forgotten before `floor`.
    fn booked_timeline(m: usize, live: &[(u64, u64, usize, usize)], floor: Time) -> Timeline {
        let unit = m / 4;
        let mut tl = Timeline::with_procs(m);
        for &(start, len, p0, w) in live {
            let procs = ProcSet::range(p0 * unit, ((p0 + w) * unit).min(m));
            let _ = tl.try_book(
                Time::from_ticks(start),
                Time::from_ticks(start + len),
                procs,
                BookingKind::Job,
            );
        }
        tl.forget_before(floor);
        tl
    }

    /// Lengths aimed at the instants a head's shadow can start at: the
    /// ends of `tl`'s bookings and the estimated ends (release plus
    /// estimate) of earlier draws. A draw `(w, jit, len, rel, aim)` runs
    /// from its release up to the `aim`-th earliest such instant after it,
    /// or keeps `len` when there are fewer. Under a factor above 1, a job
    /// started at its release can then truly end where a later head's
    /// shadow starts while its estimate runs past it — the case in which a
    /// quiet head must not take its shadow, and which free lengths almost
    /// never draw.
    fn aimed(
        specs: &[(usize, usize, u64, u64, usize)],
        tl: &Timeline,
        floor: Time,
        factor: f64,
    ) -> Vec<(usize, usize, u64, u64)> {
        let mut ends: Vec<u64> = tl.bookings().map(|(_, b)| b.end.ticks()).collect();
        specs
            .iter()
            .map(|&(w, jit, len, rel, aim)| {
                let from = rel.max(floor.ticks());
                let mut after: Vec<u64> = ends.iter().copied().filter(|&e| e > from).collect();
                after.sort_unstable();
                after.dedup();
                let len = after.get(aim).map_or(len, |&end| end - from);
                ends.push(from + estimate(Dur::from_ticks(len), factor).ticks());
                (w, jit, len, rel)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The sweep against the reference on short queues, mostly
        /// released by `floor`, over a booked timeline, with [`aimed`]
        /// lengths. Cheap cases, so more of them: about one in eighty
        /// reaches a quiet head whose shadow start is a started job's true
        /// end, short of its estimate, where the free draws of the tests
        /// below reach none.
        #[test]
        fn easy_sweep_matches_the_reference_on_aimed_lengths(
            machine in 0usize..MACHINES.len(),
            factor in 0usize..FACTORS.len(),
            specs in prop::collection::vec(
                (1usize..=4, 0usize..256, 1u64..30, 0u64..10, 0usize..3),
                2..6,
            ),
            live in prop::collection::vec((0u64..40, 1u64..40, 0usize..4, 1usize..=4), 1..6),
            floor in 1u64..30,
        ) {
            let m = MACHINES[machine];
            let floor = Time::from_ticks(floor);
            let tl = booked_timeline(m, &live, floor);
            let factor = FACTORS[factor];
            let specs = aimed(&specs, &tl, floor, factor);
            sweep_matches_reference(&jobs_on(m, &specs), floor, &tl, factor);
        }
    }

    proptest! {
        /// The one-sweep EASY round places every job exactly where the
        /// two-loop round did — same start, same processors — from an
        /// empty machine around one reservation, with staggered releases.
        #[test]
        fn easy_sweep_matches_the_two_loop_reference(
            machine in 0usize..MACHINES.len(),
            factor in 0usize..FACTORS.len(),
            specs in prop::collection::vec((1usize..=4, 0usize..256, 1u64..30, 0u64..60), 1..40),
            resv in (0u64..40, 1u64..20, 1usize..=4, 0usize..256),
        ) {
            let m = MACHINES[machine];
            let (start, len, w, jit) = resv;
            let mut tl = Timeline::with_procs(m);
            book_reservations(&mut tl, &[Reservation {
                start: Time::from_ticks(start),
                end: Time::from_ticks(start + len),
                procs: quarters(m, w, jit),
            }]);
            sweep_matches_reference(&jobs_on(m, &specs), Time::ZERO, &tl, FACTORS[factor]);
        }

        /// The same on the planner's timeline: earlier work already booked,
        /// the profile forgotten before `floor > 0`, releases raised to it.
        #[test]
        fn easy_sweep_matches_the_reference_on_a_booked_timeline(
            machine in 0usize..MACHINES.len(),
            factor in 0usize..FACTORS.len(),
            specs in prop::collection::vec((1usize..=4, 0usize..256, 1u64..30, 0u64..80), 1..30),
            live in prop::collection::vec((0u64..80, 1u64..60, 0usize..4, 1usize..=4), 0..12),
            floor in 1u64..60,
        ) {
            let m = MACHINES[machine];
            let floor = Time::from_ticks(floor);
            let tl = booked_timeline(m, &live, floor);
            sweep_matches_reference(&jobs_on(m, &specs), floor, &tl, FACTORS[factor]);
        }

        /// The planner's commonest decision: one arrival at `floor > 0` on
        /// a booked timeline — the pass whose head takes its shadow at once
        /// whenever it cannot start now.
        #[test]
        fn easy_single_job_passes_match_the_reference_on_a_booked_timeline(
            machine in 0usize..MACHINES.len(),
            factor in 0usize..FACTORS.len(),
            spec in (1usize..=4, 0usize..256, 1u64..30, 0u64..80),
            live in prop::collection::vec((0u64..80, 1u64..60, 0usize..4, 1usize..=4), 0..12),
            floor in 1u64..80,
        ) {
            let m = MACHINES[machine];
            let floor = Time::from_ticks(floor);
            let tl = booked_timeline(m, &live, floor);
            sweep_matches_reference(&jobs_on(m, &[spec]), floor, &tl, FACTORS[factor]);
        }
    }
}
