//! Generic online machine: a [`Model`] that drives an external decision
//! procedure event-by-event.
//!
//! The offline executors evaluate a finished rectangle schedule; online
//! policies differ precisely in *when* they learn about jobs. This module
//! provides the missing execution shape: jobs arrive over simulated time
//! from an [`ArrivalSource`] into a pending set, and a [`Dispatcher`] — the
//! layer-agnostic stand-in for a scheduling policy — is (re-)invoked at
//! every arrival and completion instant to commit work.
//!
//! The machine is deliberately generic over the job type: this crate sits
//! below `lsps-workload`/`lsps-core`, so the policy-aware dispatcher lives
//! upstream (`lsps_scenario::runner` wires `lsps_core::policy::Policy` in)
//! and this module only owns the event mechanics. One [`OnlineMachine`]
//! serves finite runs and unbounded streams alike:
//!
//! * arrivals are drawn from the source one ahead and never enter the event
//!   queue: the held arrival's release is the machine's
//!   [`Model::wake_at`], which the simulation steps beside the queue, so a
//!   finite job list is just a source that runs dry and an open stream
//!   never materializes;
//! * whatever reaches an instant first — a queued event, or the arrival
//!   wake-up when no event is queued there — admits **every** arrival
//!   released at it, before anything else happens there, so same-instant
//!   arrivals coalesce into **one** decision however they interleave with
//!   a same-instant completion or failure. A queued event wins a tie with
//!   the wake-up, which then has nothing left to admit and is not stepped;
//! * a decision is not an event: the machine invokes the dispatcher at the
//!   end of the last step of an instant, once [`Ctx::next_at`] shows no
//!   live event queued there, so the decision follows every event of its
//!   instant. Only a decision schedules events at its own instant (the
//!   `Finish` of a zero-length commitment); such a `Finish` fires after it
//!   and asks for a second decision;
//! * running slots are recycled through a free list, and each slot keeps
//!   its queued `Finish` event's key, so memory tracks the concurrency
//!   high-water mark and a kill cancels its completion in O(1);
//! * each [`Commitment`] carries the dispatcher's placement (`placed`:
//!   processors, a planner booking — whatever the dispatcher needs to act
//!   on the commitment later). The machine only stores it and hands it
//!   back, to the sink and to [`Dispatcher::node_down`], so a dispatcher
//!   keeps no side table keyed by job;
//! * completions go to a sink callback instead of a retained log — a
//!   finite run passes a sink that collects;
//! * a commitment is final **unless a node fails under it**: an
//!   [`OnlineEvent::NodeDown`] invokes the dispatcher's
//!   [`Dispatcher::node_down`] hook, which may kill running commitments
//!   and resubmit replacement jobs into the pending set — the explicit
//!   invalidation path failure-aware executors build on;
//! * everything is deterministic: identical arrival streams, failure
//!   traces, and a deterministic dispatcher give bit-identical completion
//!   sequences.

use crate::engine::{Ctx, Model, Simulation};
use crate::queue::EventKey;
use crate::time::Time;

/// A decision the dispatcher made for one job: run it over `[start, end)`
/// on the placement `placed`. `start` may lie in the future (a planned,
/// reserved start); `end` must not precede `start`.
#[derive(Clone, Debug, PartialEq)]
pub struct Commitment<J, P = ()> {
    /// The committed job.
    pub job: J,
    /// Start of execution.
    pub start: Time,
    /// Completion instant.
    pub end: Time,
    /// Where the dispatcher placed the job, opaque to the machine.
    pub placed: P,
}

/// The decision procedure the machine drives — one abstract "scheduling
/// policy invocation" per decision instant.
pub trait Dispatcher {
    /// The job type flowing through the machine.
    type Job;

    /// What each commitment carries besides its job and interval
    /// ([`Commitment::placed`]); `()` for a dispatcher that needs nothing.
    type Placement;

    /// Decide at `now` over the pending set (arrival order). Jobs the
    /// dispatcher commits must be *removed* from `pending` and pushed onto
    /// `out`; whatever is left stays queued and the dispatcher runs again at
    /// the next arrival or completion. Every commitment must satisfy
    /// `now <= start <= end`.
    ///
    /// `out` arrives empty and is owned by the machine, which recycles it
    /// across invocations — at millions of decisions per run, returning a
    /// fresh `Vec` per call would put an allocation on every event.
    fn decide(
        &mut self,
        now: Time,
        pending: &mut Vec<Self::Job>,
        out: &mut Vec<Commitment<Self::Job, Self::Placement>>,
    );

    /// A node failed at `now` and will be repaired at `up`. Inspect the
    /// running table (slot-indexed; `None` entries are free slots; each
    /// commitment carries the placement [`decide`](Dispatcher::decide)
    /// gave it) and push the slots to kill into `kill` and the replacement
    /// jobs to queue into `resubmit`. The machine then cancels each killed
    /// slot's completion event, re-queues the resubmitted jobs, and
    /// decides at `now` once the last event of the instant is done.
    ///
    /// Only slots holding `Some` commitment may be killed, and a slot at
    /// most once. The default ignores failures entirely — volatility-blind
    /// dispatchers keep their exact behaviour.
    fn node_down(
        &mut self,
        now: Time,
        node: u32,
        up: Time,
        running: &[Option<Commitment<Self::Job, Self::Placement>>],
        kill: &mut Vec<usize>,
        resubmit: &mut Vec<Self::Job>,
    ) {
        let _ = (now, node, up, running, kill, resubmit);
    }
}

/// An arrival stream fed to the machine lazily, one job at a time — the
/// abstraction that lets open (unbounded) workloads drive the DES without
/// ever materializing a job list.
///
/// Contract: releases are **nondecreasing** across calls (the machine
/// asserts this), and `None` ends the stream — a finite source is just a
/// stream that runs dry. Any `Iterator<Item = (Time, Job)>` is a source, so
/// a feed horizon is a `take_while` on it.
pub trait ArrivalSource {
    /// The job type produced.
    type Job;

    /// Draw the next arrival `(release, job)`, or `None` when exhausted.
    fn next_arrival(&mut self) -> Option<(Time, Self::Job)>;
}

impl<J, I: Iterator<Item = (Time, J)>> ArrivalSource for I {
    type Job = J;
    fn next_arrival(&mut self) -> Option<(Time, J)> {
        self.next()
    }
}

/// Event alphabet of the online machine: completions and node failures
/// and repairs. Arrivals are no events — the machine steps them as its own
/// wake-ups ([`Model::wake_at`]) — and neither are decisions, which the
/// machine makes inside the last step of their instant.
#[derive(Debug)]
pub enum OnlineEvent {
    /// A committed run finishes (index into the machine's running table).
    Finish(usize),
    /// A node fails, repaired at `up` — the repair instant rides along so
    /// failure-aware dispatchers can plan around the outage window.
    NodeDown {
        /// Failed node index.
        node: u32,
        /// Repair-complete instant (a matching [`OnlineEvent::NodeUp`] is
        /// expected there).
        up: Time,
    },
    /// A previously failed node comes back. The machine decides at its
    /// instant, so the freed capacity is replanned at once.
    NodeUp {
        /// Repaired node index.
        node: u32,
    },
}

/// What an [`OnlineMachine`] has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineCounters {
    /// Jobs admitted from the source.
    pub arrivals: u64,
    /// Completions handed to the sink.
    pub completions: u64,
    /// Dispatcher invocations.
    pub decisions: u64,
    /// Commitments killed by node failures.
    pub kills: u64,
    /// Jobs resubmitted after a kill.
    pub resubmits: u64,
    /// High-water mark of live jobs (pending + running) — the bounded-
    /// memory witness: it tracks queue depth, not total jobs replayed.
    pub max_live: usize,
}

/// The event-driven machine around a [`Dispatcher`]: built ready to run by
/// [`OnlineMachine::start`], it pulls arrivals from an [`ArrivalSource`]
/// and hands every completion, in event (time, FIFO) order, to the sink
/// `F`. Failures are seeded by the caller as [`OnlineEvent::NodeDown`] /
/// [`OnlineEvent::NodeUp`] pairs; stopping rules (drain, or N completions)
/// belong to whoever steps the simulation.
pub struct OnlineMachine<D: Dispatcher, S, F> {
    dispatcher: D,
    source: S,
    /// The source's next arrival, drawn one ahead. Its release instant is
    /// the machine's wake-up ([`Model::wake_at`]).
    next: Option<(Time, D::Job)>,
    sink: F,
    pending: Vec<D::Job>,
    running: Vec<Option<Commitment<D::Job, D::Placement>>>,
    /// Queued `Finish` event of each slot, parallel to `running` — the
    /// handle that lets a node failure cancel a doomed completion in O(1)
    /// instead of leaving a stale event to fire on a recycled slot.
    finish_keys: Vec<EventKey>,
    /// Vacated `running` slots: the table grows to the concurrency
    /// high-water mark, never the total job count.
    free_slots: Vec<usize>,
    /// Recycled scratch handed to [`Dispatcher::decide`] — cleared before
    /// every invocation, so the dispatch loop allocates nothing in steady
    /// state.
    commitments: Vec<Commitment<D::Job, D::Placement>>,
    /// Recycled scratch handed to [`Dispatcher::node_down`].
    kill_scratch: Vec<usize>,
    resubmit_scratch: Vec<D::Job>,
    counters: OnlineCounters,
}

impl<D, S, F> OnlineMachine<D, S, F>
where
    D: Dispatcher,
    S: ArrivalSource<Job = D::Job>,
    F: FnMut(Commitment<D::Job, D::Placement>),
{
    /// A simulation of a machine over `source`, with the first arrival
    /// drawn. `sink` observes every completion.
    pub fn start(dispatcher: D, mut source: S, sink: F) -> Simulation<Self> {
        let next = source.next_arrival();
        Simulation::new(OnlineMachine {
            dispatcher,
            source,
            next,
            sink,
            pending: Vec::new(),
            running: Vec::new(),
            finish_keys: Vec::new(),
            free_slots: Vec::new(),
            commitments: Vec::new(),
            kill_scratch: Vec::new(),
            resubmit_scratch: Vec::new(),
            counters: OnlineCounters::default(),
        })
    }

    /// Jobs arrived but not yet committed.
    pub fn pending(&self) -> &[D::Job] {
        &self.pending
    }

    /// Commitments whose completion has not fired yet.
    pub fn running(&self) -> usize {
        self.running.len() - self.free_slots.len()
    }

    /// Counters so far.
    pub fn counters(&self) -> OnlineCounters {
        self.counters
    }

    /// Tear down into the dispatcher (the sink already saw every
    /// completion).
    pub fn into_dispatcher(self) -> D {
        self.dispatcher
    }

    /// Move every arrival released by `now` into the pending set, drawing
    /// the next one. Returns whether any job arrived.
    fn admit(&mut self, now: Time) -> bool {
        let mut admitted = false;
        while let Some((at, _)) = self.next {
            if at > now {
                break;
            }
            let (_, job) = self.next.take().expect("peeked above");
            self.pending.push(job);
            self.counters.arrivals += 1;
            admitted = true;
            self.next = self.source.next_arrival();
            if let Some((next_at, _)) = self.next {
                assert!(
                    next_at >= at,
                    "arrival source must release in nondecreasing order"
                );
            }
        }
        admitted
    }

    /// Close a step at `now` that may have admitted arrivals: sample the
    /// live-job high-water mark, then decide if work is waiting and no
    /// other event is queued at this instant.
    fn settle(&mut self, now: Time, admitted: bool, ctx: &mut Ctx<'_, OnlineEvent>) {
        // Live jobs only grow on arrival; sampled once the step is done,
        // a same-instant completion has already left.
        if admitted {
            let live = self.pending.len() + self.running();
            self.counters.max_live = self.counters.max_live.max(live);
        }
        // New information (an arrival, a completion, a failure or repair):
        // re-invoke the dispatcher if work is waiting, once the last event
        // of this instant is done.
        if !self.pending.is_empty() && ctx.next_at() != Some(now) {
            self.decide(now, ctx);
        }
    }

    fn decide(&mut self, now: Time, ctx: &mut Ctx<'_, OnlineEvent>) {
        self.counters.decisions += 1;
        let before = self.pending.len();
        let mut commitments = std::mem::take(&mut self.commitments);
        commitments.clear();
        self.dispatcher
            .decide(now, &mut self.pending, &mut commitments);
        assert_eq!(
            before,
            self.pending.len() + commitments.len(),
            "dispatcher must drain exactly the jobs it commits"
        );
        for c in commitments.drain(..) {
            assert!(
                now <= c.start && c.start <= c.end,
                "commitment [{:?}, {:?}) violates causality at {:?}",
                c.start,
                c.end,
                now
            );
            let slot = self.free_slots.pop().unwrap_or(self.running.len());
            let key = ctx.schedule_at(c.end, OnlineEvent::Finish(slot));
            if slot == self.running.len() {
                self.running.push(Some(c));
                self.finish_keys.push(key);
            } else {
                self.running[slot] = Some(c);
                self.finish_keys[slot] = key;
            }
        }
        self.commitments = commitments;
    }

    fn node_down(&mut self, now: Time, node: u32, up: Time, ctx: &mut Ctx<'_, OnlineEvent>) {
        let mut kill = std::mem::take(&mut self.kill_scratch);
        let mut resubmit = std::mem::take(&mut self.resubmit_scratch);
        kill.clear();
        resubmit.clear();
        self.dispatcher
            .node_down(now, node, up, &self.running, &mut kill, &mut resubmit);
        for slot in kill.drain(..) {
            let c = self.running[slot]
                .take()
                .expect("dispatcher killed an empty or already-killed slot");
            debug_assert!(c.end > now, "killed a commitment that already completed");
            assert!(
                ctx.cancel(self.finish_keys[slot]),
                "killed commitment's finish already fired"
            );
            self.free_slots.push(slot);
            self.counters.kills += 1;
        }
        self.counters.resubmits += resubmit.len() as u64;
        self.pending.append(&mut resubmit);
        self.kill_scratch = kill;
        self.resubmit_scratch = resubmit;
    }
}

impl<D, S, F> Model for OnlineMachine<D, S, F>
where
    D: Dispatcher,
    S: ArrivalSource<Job = D::Job>,
    F: FnMut(Commitment<D::Job, D::Placement>),
{
    type Event = OnlineEvent;

    fn handle(&mut self, now: Time, event: OnlineEvent, ctx: &mut Ctx<'_, OnlineEvent>) {
        // Arrivals are admitted by the first step to reach their instant,
        // so a same-instant failure resubmits behind them and no decision
        // at this instant can miss one.
        let admitted = self.admit(now);
        match event {
            OnlineEvent::Finish(slot) => {
                let c = self.running[slot]
                    .take()
                    .expect("finish fires once per slot");
                debug_assert_eq!(c.end, now);
                self.free_slots.push(slot);
                self.counters.completions += 1;
                (self.sink)(c);
            }
            OnlineEvent::NodeDown { node, up } => self.node_down(now, node, up, ctx),
            OnlineEvent::NodeUp { .. } => {}
        }
        self.settle(now, admitted, ctx);
    }

    /// The held arrival's release: the simulation steps it only when no
    /// event is queued at or before it.
    #[inline]
    fn wake_at(&self) -> Option<Time> {
        self.next.as_ref().map(|&(at, _)| at)
    }

    fn wake(&mut self, now: Time, ctx: &mut Ctx<'_, OnlineEvent>) {
        let admitted = self.admit(now);
        debug_assert!(admitted, "an arrival wake-up admits its arrival");
        self.settle(now, admitted, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    /// One-processor FCFS: starts the head job when the machine is free.
    struct Fcfs {
        free_at: Time,
        lens: Vec<(u32, Dur)>, // (id, len) lookup
    }

    impl Dispatcher for Fcfs {
        type Job = u32;
        type Placement = ();
        fn decide(&mut self, now: Time, pending: &mut Vec<u32>, out: &mut Vec<Commitment<u32>>) {
            // Commit only the head, and only if the machine is idle now.
            if self.free_at > now || pending.is_empty() {
                return;
            }
            let job = pending.remove(0);
            let len = self.lens.iter().find(|(i, _)| *i == job).expect("known").1;
            self.free_at = now + len;
            out.push(Commitment {
                job,
                start: now,
                end: self.free_at,
                placed: (),
            });
        }
    }

    fn fcfs(lens: Vec<(u32, Dur)>) -> Fcfs {
        Fcfs {
            free_at: Time::ZERO,
            lens,
        }
    }

    /// Run `dispatcher` over `arrivals` to completion; returns the
    /// completion sequence and the final counters.
    fn run<D: Dispatcher<Job = u32, Placement = ()>>(
        dispatcher: D,
        arrivals: Vec<(Time, u32)>,
        max_events: u64,
    ) -> (Vec<Commitment<u32>>, OnlineCounters) {
        let mut done = Vec::new();
        let mut sim = OnlineMachine::start(dispatcher, arrivals.into_iter(), |c| done.push(c));
        sim.run_to_completion(max_events);
        let counters = sim.model().counters();
        assert_eq!(sim.model().running(), 0);
        assert!(sim.model().pending().is_empty());
        drop(sim);
        (done, counters)
    }

    #[test]
    fn fcfs_serializes_and_reinvokes_on_completion() {
        let lens = vec![(1, Dur::from_ticks(10)), (2, Dur::from_ticks(5))];
        let (done, counters) = run(fcfs(lens), vec![(t(0), 1), (t(3), 2)], 100);
        // Job 2 arrived while 1 ran: it waits and starts at 1's completion —
        // the decision triggered by the Finish event.
        assert_eq!(
            done,
            &[
                Commitment {
                    job: 1,
                    start: t(0),
                    end: t(10),
                    placed: ()
                },
                Commitment {
                    job: 2,
                    start: t(10),
                    end: t(15),
                    placed: ()
                },
            ]
        );
        assert_eq!(counters.decisions, 3); // arrive(1), arrive(2), finish(1)
    }

    /// Commits every pending job at once, back to back from `now`.
    struct DrainAll;

    impl Dispatcher for DrainAll {
        type Job = u32;
        type Placement = ();
        fn decide(&mut self, now: Time, pending: &mut Vec<u32>, out: &mut Vec<Commitment<u32>>) {
            let mut at = now;
            out.extend(pending.drain(..).map(|job| {
                let c = Commitment {
                    job,
                    start: at,
                    end: at + Dur::from_ticks(u64::from(job)),
                    placed: (),
                };
                at = c.end;
                c
            }));
        }
    }

    #[test]
    fn simultaneous_arrivals_coalesce_into_one_decision() {
        // The burst [3, 1, 2] at t = 5, alone; behind job 5, whose [0, 5)
        // run finishes at the burst's instant; and additionally with a
        // node failure seeded at that instant (queued ahead of the
        // completion; either queued event admits the burst, so the burst
        // takes no wake-up of its own).
        let burst = [(t(5), 3u32), (t(5), 1), (t(5), 2)];
        for (lead, fail) in [(false, false), (true, false), (true, true)] {
            let mut arrivals = Vec::new();
            if lead {
                arrivals.push((t(0), 5));
            }
            arrivals.extend(burst);
            let mut done = Vec::new();
            let mut sim =
                OnlineMachine::start(DrainAll, arrivals.into_iter(), |c| done.push(c.job));
            if fail {
                sim.schedule_at(t(5), OnlineEvent::NodeDown { node: 0, up: t(6) });
                sim.schedule_at(t(6), OnlineEvent::NodeUp { node: 0 });
            }
            sim.run_to_completion(100);
            let counters = sim.model().counters();
            let last = sim.now();
            drop(sim);
            // One decision per instant — the whole burst in one batch, in
            // arrival (source) order.
            assert_eq!(
                counters.decisions,
                1 + u64::from(lead),
                "lead {lead}, fail {fail}"
            );
            assert_eq!(done[done.len() - 3..], [3, 1, 2]);
            assert_eq!(last, t(5 + 3 + 1 + 2));
        }
    }

    /// Logs every decision, failure and completion, in the order the
    /// machine makes them. Job 1 runs for zero ticks the moment it is
    /// decided; job 2 waits until job 1 has left the pending set.
    struct ZeroFirst {
        log: std::rc::Rc<std::cell::RefCell<Vec<String>>>,
    }

    impl Dispatcher for ZeroFirst {
        type Job = u32;
        type Placement = ();
        fn decide(&mut self, now: Time, pending: &mut Vec<u32>, out: &mut Vec<Commitment<u32>>) {
            let entry = format!("decide {pending:?} @ {}", now.ticks());
            self.log.borrow_mut().push(entry);
            let job = if pending.contains(&1) { 1 } else { 2 };
            pending.retain(|&j| j != job);
            out.push(Commitment {
                job,
                start: now,
                end: now + Dur::from_ticks(u64::from(job - 1) * 2),
                placed: (),
            });
        }
        fn node_down(
            &mut self,
            now: Time,
            _node: u32,
            _up: Time,
            _running: &[Option<Commitment<u32>>],
            _kill: &mut Vec<usize>,
            _resubmit: &mut Vec<u32>,
        ) {
            self.log
                .borrow_mut()
                .push(format!("down @ {}", now.ticks()));
        }
    }

    #[test]
    fn a_zero_length_commitment_asks_for_a_second_decision_at_its_instant() {
        // Both jobs and a node failure at t = 5: the failure is queued
        // there, so it admits the arrivals and the first decision follows
        // it. Job 1's zero-length run finishes at 5, after that decision,
        // and its completion asks for a second decision there.
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink_log = log.clone();
        let dispatcher = ZeroFirst { log: log.clone() };
        let arrivals = vec![(t(5), 1u32), (t(5), 2)];
        let mut sim = OnlineMachine::start(dispatcher, arrivals.into_iter(), |c| {
            let entry = format!("finish {} @ {}", c.job, c.end.ticks());
            sink_log.borrow_mut().push(entry);
        });
        sim.schedule_at(t(5), OnlineEvent::NodeDown { node: 0, up: t(6) });
        sim.schedule_at(t(6), OnlineEvent::NodeUp { node: 0 });
        let stats = sim.run_to_completion(100);
        assert_eq!(sim.model().counters().decisions, 2);
        drop(sim);
        assert_eq!(
            *log.borrow(),
            [
                "down @ 5",
                "decide [1, 2] @ 5",
                "finish 1 @ 5",
                "decide [2] @ 5",
                "finish 2 @ 7",
            ]
        );
        // NodeDown, two Finishes and NodeUp: decisions are no events, and
        // the arrivals need no wake-up of their own.
        assert_eq!(stats.events_dispatched, 4);
    }

    #[test]
    fn future_commitments_complete_at_their_end() {
        struct Defer;
        impl Dispatcher for Defer {
            type Job = u32;
            type Placement = ();
            fn decide(
                &mut self,
                now: Time,
                pending: &mut Vec<u32>,
                out: &mut Vec<Commitment<u32>>,
            ) {
                out.extend(pending.drain(..).map(|job| Commitment {
                    job,
                    start: now + Dur::from_ticks(100),
                    end: now + Dur::from_ticks(101),
                    placed: (),
                }));
            }
        }
        let mut completions = 0;
        let mut sim = OnlineMachine::start(Defer, std::iter::once((t(0), 7)), |_| completions += 1);
        let stats = sim.run_to_completion(10);
        assert_eq!(stats.last_event_time, t(101));
        drop(sim);
        assert_eq!(completions, 1);
    }

    #[test]
    fn machine_matches_closed_form_fcfs_on_finite_streams() {
        // One processor, FCFS: job i starts at max(release, previous end).
        let lens: Vec<(u32, Dur)> = (1..=20)
            .map(|i| (i, Dur::from_ticks(u64::from(i % 7 + 1))))
            .collect();
        let arrivals: Vec<(Time, u32)> = (1..=20).map(|i| (t(u64::from(i) * 3), i)).collect();
        let mut expected = Vec::new();
        let mut free = Time::ZERO;
        for (&(at, job), &(_, len)) in arrivals.iter().zip(&lens) {
            let start = free.max(at);
            free = start + len;
            expected.push(Commitment {
                job,
                start,
                end: free,
                placed: (),
            });
        }
        let (done, counters) = run(fcfs(lens), arrivals, 1_000);
        assert_eq!(counters.arrivals, 20);
        assert_eq!(counters.completions, 20);
        assert_eq!(done, expected);
    }

    #[test]
    fn machine_recycles_running_slots() {
        // FCFS runs one job at a time: however many jobs flow through, the
        // running table must stay at one slot and live jobs at the queue
        // depth — the bounded-memory property open streams rely on.
        let n: u32 = 50;
        let lens: Vec<(u32, Dur)> = (0..n).map(|i| (i, Dur::from_ticks(2))).collect();
        let arrivals = (0..n).map(|i| (t(u64::from(i) * 5), i));
        let mut count = 0u64;
        let mut sim = OnlineMachine::start(fcfs(lens), arrivals, |_| count += 1);
        sim.run_to_completion(10_000);
        let m = sim.model();
        assert_eq!(m.counters().completions, u64::from(n));
        assert_eq!(m.running.len(), 1, "slots are recycled, not appended");
        assert_eq!(
            m.counters().max_live,
            1,
            "jobs never queued behind each other"
        );
        drop(sim);
        assert_eq!(count, u64::from(n));
    }

    #[test]
    fn driver_can_stop_on_a_completion_count() {
        // The stepping driver: break as soon as N completions are counted,
        // leaving later arrivals unprocessed — the open stopping rule.
        let lens: Vec<(u32, Dur)> = (0..100).map(|i| (i, Dur::from_ticks(1))).collect();
        let arrivals = (0..100u32).map(|i| (t(u64::from(i) * 2), i));
        let mut sim = OnlineMachine::start(fcfs(lens), arrivals, |_| {});
        while sim.model().counters().completions < 7 && sim.step() {}
        assert_eq!(sim.model().counters().completions, 7);
        assert!(
            sim.model().counters().arrivals < 100,
            "stream not exhausted"
        );
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn machine_rejects_time_travelling_sources() {
        let lens = vec![(0u32, Dur::from_ticks(1)), (1, Dur::from_ticks(1))];
        run(fcfs(lens), vec![(t(10), 0u32), (t(5), 1)], 100);
    }

    /// [`Fcfs`] plus failure-awareness on its single implicit node: any
    /// commitment overlapping the outage is killed and resubmitted at full
    /// length, and the machine is treated as busy until the repair.
    struct VolatileFcfs {
        fcfs: Fcfs,
    }

    impl Dispatcher for VolatileFcfs {
        type Job = u32;
        type Placement = ();
        fn decide(&mut self, now: Time, pending: &mut Vec<u32>, out: &mut Vec<Commitment<u32>>) {
            self.fcfs.decide(now, pending, out);
        }
        fn node_down(
            &mut self,
            now: Time,
            _node: u32,
            up: Time,
            running: &[Option<Commitment<u32>>],
            kill: &mut Vec<usize>,
            resubmit: &mut Vec<u32>,
        ) {
            for (slot, c) in running.iter().enumerate() {
                if let Some(c) = c {
                    if c.end > now && c.start < up {
                        kill.push(slot);
                        resubmit.push(c.job);
                    }
                }
            }
            if !kill.is_empty() {
                self.fcfs.free_at = up;
            }
        }
    }

    /// Job 1 (10 ticks, released at 0) on a node that is down over
    /// `[down, up)`.
    fn volatile_run(down: u64, up: u64) -> (Vec<Commitment<u32>>, OnlineCounters, usize) {
        let volatile = VolatileFcfs {
            fcfs: fcfs(vec![(1u32, Dur::from_ticks(10))]),
        };
        let mut done = Vec::new();
        let mut sim = OnlineMachine::start(volatile, std::iter::once((t(0), 1)), |c| done.push(c));
        sim.schedule_at(t(down), OnlineEvent::NodeDown { node: 0, up: t(up) });
        sim.schedule_at(t(up), OnlineEvent::NodeUp { node: 0 });
        sim.run_to_completion(100);
        let m = sim.model();
        assert_eq!(m.running(), 0);
        assert!(m.pending().is_empty());
        let (counters, slots) = (m.counters(), m.running.len());
        drop(sim);
        (done, counters, slots)
    }

    #[test]
    fn node_down_kills_and_resubmits() {
        let (done, counters, slots) = volatile_run(4, 7);
        assert_eq!(counters.kills, 1);
        assert_eq!(counters.resubmits, 1);
        // The original [0, 10) run died at 4; the resubmitted copy starts
        // at the repair (the NodeUp decision) and runs its full length in
        // the recycled slot — the dead run's Finish at 10 was cancelled, so
        // it cannot complete the new occupant early.
        assert_eq!(slots, 1);
        assert_eq!(
            done,
            &[Commitment {
                job: 1,
                start: t(7),
                end: t(17),
                placed: ()
            }]
        );
    }

    #[test]
    fn failure_at_commitment_end_neither_double_kills_nor_loses_the_job() {
        // The outage starts exactly when the job ends. NodeDown events are
        // seeded before the run, so FIFO tie-break fires the failure first;
        // the `end > now` victim rule must leave the job alone, and its
        // queued Finish must then complete it exactly once.
        let (done, counters, _) = volatile_run(10, 12);
        assert_eq!(counters.kills, 0);
        assert_eq!(counters.resubmits, 0);
        assert_eq!(
            done,
            &[Commitment {
                job: 1,
                start: t(0),
                end: t(10),
                placed: ()
            }]
        );
    }

    #[test]
    #[should_panic(expected = "drain exactly")]
    fn dispatcher_must_drain_committed_jobs() {
        struct Sloppy;
        impl Dispatcher for Sloppy {
            type Job = u32;
            type Placement = ();
            fn decide(
                &mut self,
                now: Time,
                pending: &mut Vec<u32>,
                out: &mut Vec<Commitment<u32>>,
            ) {
                // Commits the job but forgets to remove it from pending.
                out.push(Commitment {
                    job: pending[0],
                    start: now,
                    end: now,
                    placed: (),
                });
            }
        }
        run(Sloppy, vec![(t(0), 1)], 10);
    }
}
