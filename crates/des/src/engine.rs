//! Generic event-driven simulation engine.
//!
//! A [`Model`] owns the domain state (clusters, queues, jobs…) and reacts to
//! its own event type; the [`Simulation`] owns the clock and the event queue
//! and drives the model. The model schedules future events through the
//! [`Ctx`] handle it receives on every callback.
//!
//! The engine enforces the causality invariant: a model may never schedule an
//! event strictly in the past (it may schedule at `now`, which re-enters the
//! dispatch loop after currently pending same-time events — FIFO order).

use crate::queue::{EventKey, EventQueue};
use crate::time::Time;

/// Domain logic plugged into a [`Simulation`].
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// React to `event` occurring at `now`. New events are scheduled through
    /// `ctx`; domain state lives in `self`.
    fn handle(&mut self, now: Time, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);
}

/// Scheduling handle passed to [`Model::handle`].
pub struct Ctx<'a, E> {
    now: Time,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// # Panics
    /// If `at` is strictly in the past (causality violation — always a bug in
    /// the model).
    pub fn schedule_at(&mut self, at: Time, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {:?} while now is {:?}",
            at,
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule `event` after a delay of `d`.
    pub fn schedule_in(&mut self, d: crate::time::Dur, event: E) -> EventKey {
        let at = self.now + d;
        self.queue.schedule(at, event)
    }

    /// Cancel a pending event. Returns `true` if it was still live.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.queue.cancel(key)
    }

    /// Instant of the earliest queued live event, if any — an event the
    /// handler just scheduled included. A handler that sees none at `now`
    /// handles the last event of its instant.
    pub fn next_at(&mut self) -> Option<Time> {
        self.queue.next_at()
    }
}

/// Counters reported by [`Simulation::run_to_completion`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Events dispatched to the model.
    pub events_dispatched: u64,
    /// Simulated time of the last dispatched event.
    pub last_event_time: Time,
    /// High-water mark of *live* queued events over the simulation's
    /// lifetime — the agenda depth the model actually required.
    pub peak_queue_live: usize,
    /// High-water mark of the queue's heap footprint (live + tombstoned
    /// entries). Compaction keeps this within 2× the live count; a gap
    /// between the two peaks measures how cancel-heavy the run was.
    pub peak_queue_heap: usize,
}

/// Event-driven simulation: clock + queue + model.
pub struct Simulation<M: Model> {
    now: Time,
    queue: EventQueue<M::Event>,
    model: M,
    dispatched: u64,
    peak_live: usize,
    peak_heap: usize,
}

impl<M: Model> Simulation<M> {
    /// A simulation at time zero with an empty agenda.
    pub fn new(model: M) -> Self {
        Simulation {
            now: Time::ZERO,
            queue: EventQueue::new(),
            model,
            dispatched: 0,
            peak_live: 0,
            peak_heap: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Immutable access to the domain model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Seed the agenda before running.
    pub fn schedule_at(&mut self, at: Time, event: M::Event) -> EventKey {
        assert!(at >= self.now, "cannot seed event in the past");
        let key = self.queue.schedule(at, event);
        self.note_queue_health();
        key
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total events dispatched over the simulation's whole lifetime (the
    /// per-run counts are in the [`RunStats`] each run variant returns).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Record the queue's current live/heap depths into the lifetime
    /// high-water marks reported through [`RunStats`]. Sampled once per
    /// dispatch (after the previous handler's schedules landed), so the
    /// cost is two comparisons per event.
    #[inline]
    fn note_queue_health(&mut self) {
        self.peak_live = self.peak_live.max(self.queue.len());
        self.peak_heap = self.peak_heap.max(self.queue.heap_len());
    }

    /// Dispatch a single event; returns `false` when the agenda is empty.
    pub fn step(&mut self) -> bool {
        self.note_queue_health();
        match self.queue.pop() {
            Some((at, _key, event)) => {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                let mut ctx = Ctx {
                    now: at,
                    queue: &mut self.queue,
                };
                self.model.handle(at, event, &mut ctx);
                self.dispatched += 1;
                true
            }
            None => false,
        }
    }

    /// Run until the agenda empties. `max_events` bounds runaway models
    /// (panics when exceeded — a model that self-perpetuates past the bound
    /// is a bug, not a workload).
    pub fn run_to_completion(&mut self, max_events: u64) -> RunStats {
        self.run_while(max_events, |_| true)
    }

    /// [`run_to_completion`](Simulation::run_to_completion) that also stops
    /// as soon as `go` rejects the model — checked before every dispatch,
    /// so a stopping rule such as "N completions" leaves later events
    /// queued and unprocessed.
    pub fn run_while(&mut self, max_events: u64, mut go: impl FnMut(&M) -> bool) -> RunStats {
        let start = self.dispatched;
        while go(&self.model) && self.step() {
            assert!(
                self.dispatched - start <= max_events,
                "simulation exceeded {} events — runaway model?",
                max_events
            );
        }
        RunStats {
            events_dispatched: self.dispatched - start,
            last_event_time: self.now,
            peak_queue_live: self.peak_live,
            peak_queue_heap: self.peak_heap,
        }
    }

    /// Consume the simulation and return the model (for extracting results).
    pub fn into_model(self) -> M {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Dur, Time};

    /// A model that computes Fibonacci-by-events: each `Tick(n)` schedules
    /// `Tick(n-1)` and `Tick(n-2)` — a stress test of dispatch order.
    struct Counter {
        fired: Vec<(u64, u64)>, // (time, payload)
    }

    enum Ev {
        Tick(u64),
        Chain(u64),
    }

    impl Model for Counter {
        type Event = Ev;
        fn handle(&mut self, now: Time, event: Ev, ctx: &mut Ctx<'_, Ev>) {
            match event {
                Ev::Tick(n) => {
                    self.fired.push((now.ticks(), n));
                }
                Ev::Chain(n) => {
                    self.fired.push((now.ticks(), n));
                    if n > 0 {
                        ctx.schedule_in(Dur::from_ticks(10), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn dispatches_in_order() {
        let mut sim = Simulation::new(Counter { fired: vec![] });
        sim.schedule_at(Time::from_ticks(5), Ev::Tick(1));
        sim.schedule_at(Time::from_ticks(1), Ev::Tick(2));
        sim.schedule_at(Time::from_ticks(5), Ev::Tick(3)); // tie with first
        let stats = sim.run_to_completion(100);
        assert_eq!(stats.events_dispatched, 3);
        assert_eq!(stats.last_event_time, Time::from_ticks(5));
        assert_eq!(sim.model().fired, vec![(1, 2), (5, 1), (5, 3)]);
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Counter { fired: vec![] });
        sim.schedule_at(Time::ZERO, Ev::Chain(3));
        sim.run_to_completion(100);
        assert_eq!(sim.model().fired, vec![(0, 3), (10, 2), (20, 1), (30, 0)]);
        assert_eq!(sim.now(), Time::from_ticks(30));
    }

    #[test]
    fn run_stats_report_queue_peaks() {
        let mut sim = Simulation::new(Counter { fired: vec![] });
        for i in 0..5 {
            sim.schedule_at(Time::from_ticks(i), Ev::Tick(i));
        }
        let stats = sim.run_to_completion(100);
        assert_eq!(stats.peak_queue_live, 5);
        assert!(stats.peak_queue_heap >= stats.peak_queue_live);
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn runaway_guard_fires() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _: Time, _: (), ctx: &mut Ctx<'_, ()>) {
                ctx.schedule_in(Dur::from_ticks(1), ());
            }
        }
        let mut sim = Simulation::new(Forever);
        sim.schedule_at(Time::ZERO, ());
        sim.run_to_completion(1000);
    }

    #[test]
    #[should_panic(expected = "causality")]
    fn past_scheduling_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: Time, _: (), ctx: &mut Ctx<'_, ()>) {
                if now > Time::ZERO {
                    ctx.schedule_at(Time::ZERO, ());
                }
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule_at(Time::from_ticks(5), ());
        sim.run_to_completion(10);
    }
}
