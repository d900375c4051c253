//! Generic event-driven simulation engine.
//!
//! A [`Model`] owns the domain state (clusters, queues, jobs…) and reacts to
//! its own event type; the [`Simulation`] owns the clock and the event queue
//! and drives the model. The model schedules future events through the
//! [`Ctx`] handle it receives on every callback. A model that already holds
//! a time-ordered stream of its own (an arrival source) need not copy it
//! into the queue: it names its next instant through [`Model::wake_at`],
//! and the simulation steps that wake-up beside the queue.
//!
//! The engine enforces the causality invariant: a model may never schedule an
//! event strictly in the past (it may schedule at `now`, which re-enters the
//! dispatch loop after currently pending same-time events — FIFO order).

use crate::queue::EventQueue;
use crate::time::Time;

/// Domain logic plugged into a [`Simulation`].
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// React to `event` occurring at `now`. New events are scheduled through
    /// `ctx`; domain state lives in `self`.
    fn handle(&mut self, now: Time, event: Self::Event, ctx: &mut Ctx<'_, Self::Event>);

    /// Instant of the model's own next wake-up, kept outside the queue.
    /// [`Simulation::step`] runs [`wake`](Model::wake) there when it comes
    /// strictly before the earliest queued event; on a tie the queued
    /// event runs first, so its handler sees the instant before the
    /// wake-up would. It must never lie before the current time. The
    /// default is no wake-up at all.
    #[inline]
    fn wake_at(&self) -> Option<Time> {
        None
    }

    /// The wake-up named by [`wake_at`](Model::wake_at) has come: it is a
    /// step of its own, counted like a dispatched event. It must move
    /// `wake_at` past `now`, or the simulation steps it again.
    fn wake(&mut self, now: Time, ctx: &mut Ctx<'_, Self::Event>) {
        let _ = (now, ctx);
    }
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
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {:?} while now is {:?}",
            at,
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule `event` after a delay of `d`.
    pub fn schedule_in(&mut self, d: crate::time::Dur, event: E) {
        let at = self.now + d;
        self.queue.schedule(at, event)
    }

    /// Instant of the earliest queued event, if any — an event the handler
    /// just scheduled included. A handler that sees none at `now` handles
    /// the last event of its instant.
    pub fn next_at(&self) -> Option<Time> {
        self.queue.next_at()
    }
}

/// Counters reported by [`Simulation::run_to_completion`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Steps taken: queued events dispatched to the model plus the model's
    /// own wake-ups.
    pub events_dispatched: u64,
    /// Simulated time of the last step.
    pub last_event_time: Time,
    /// High-water mark of queued events over the simulation's lifetime,
    /// stale ones (events a model will ignore when they fire) included.
    pub peak_queue: usize,
}

/// Event-driven simulation: clock + queue + model.
pub struct Simulation<M: Model> {
    now: Time,
    queue: EventQueue<M::Event>,
    model: M,
    dispatched: u64,
    peak_queue: usize,
}

impl<M: Model> Simulation<M> {
    /// A simulation at time zero with an empty agenda.
    pub fn new(model: M) -> Self {
        Simulation {
            now: Time::ZERO,
            queue: EventQueue::new(),
            model,
            dispatched: 0,
            peak_queue: 0,
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
    pub fn schedule_at(&mut self, at: Time, event: M::Event) {
        assert!(at >= self.now, "cannot seed event in the past");
        self.queue.schedule(at, event);
        self.note_queue_peak();
    }

    /// Record the queue's current depth into the lifetime high-water mark
    /// reported through [`RunStats`]. Sampled once per dispatch (after the
    /// previous handler's schedules landed), so the cost is one comparison
    /// per event.
    #[inline]
    fn note_queue_peak(&mut self) {
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Take one step: the model's wake-up when it comes strictly before
    /// the earliest queued event, else that event. Returns `false` when
    /// neither is left.
    pub fn step(&mut self) -> bool {
        self.note_queue_peak();
        let wake = self
            .model
            .wake_at()
            .filter(|&at| self.queue.next_at().is_none_or(|queued| at < queued));
        let (at, event) = match wake {
            Some(at) => (at, None),
            None => match self.queue.pop() {
                Some((at, event)) => (at, Some(event)),
                None => return false,
            },
        };
        debug_assert!(at >= self.now, "simulation clock went backwards");
        self.now = at;
        let mut ctx = Ctx {
            now: at,
            queue: &mut self.queue,
        };
        match event {
            Some(event) => self.model.handle(at, event, &mut ctx),
            None => self.model.wake(at, &mut ctx),
        }
        self.dispatched += 1;
        true
    }

    /// Run until the agenda empties and the model names no wake-up.
    /// `max_events` bounds runaway models, wake-ups included (panics when
    /// exceeded — a model that self-perpetuates past the bound is a bug,
    /// not a workload).
    pub fn run_to_completion(&mut self, max_events: u64) -> RunStats {
        self.run_while(max_events, |_| true)
    }

    /// [`run_to_completion`](Simulation::run_to_completion) that also stops
    /// as soon as `go` rejects the model — checked before every step,
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
            peak_queue: self.peak_queue,
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
    fn run_stats_report_the_queue_peak() {
        let mut sim = Simulation::new(Counter { fired: vec![] });
        for i in 0..5 {
            sim.schedule_at(Time::from_ticks(i), Ev::Tick(i));
        }
        let stats = sim.run_to_completion(100);
        assert_eq!(stats.peak_queue, 5);
    }

    /// Queued events plus wake-ups of its own at sorted instants, logged in
    /// the order the simulation steps them.
    struct Waker {
        /// Wake-up instants still ahead, latest first.
        wakes: Vec<u64>,
        log: Vec<(u64, &'static str)>,
    }

    impl Waker {
        fn new(mut wakes: Vec<u64>) -> Self {
            wakes.sort_unstable_by(|a, b| b.cmp(a));
            Waker { wakes, log: vec![] }
        }
    }

    impl Model for Waker {
        type Event = Ev;
        fn handle(&mut self, now: Time, _: Ev, _: &mut Ctx<'_, Ev>) {
            self.log.push((now.ticks(), "event"));
        }
        fn wake_at(&self) -> Option<Time> {
            self.wakes.last().map(|&at| Time::from_ticks(at))
        }
        fn wake(&mut self, now: Time, _: &mut Ctx<'_, Ev>) {
            assert_eq!(self.wakes.pop(), Some(now.ticks()));
            self.log.push((now.ticks(), "wake"));
        }
    }

    #[test]
    fn a_wake_up_before_the_queue_top_is_a_step_of_its_own() {
        // Wake-ups before, between and after the queued events; the last
        // one runs once the queue is already empty.
        let mut sim = Simulation::new(Waker::new(vec![2, 7, 9]));
        sim.schedule_at(Time::from_ticks(5), Ev::Tick(0));
        sim.schedule_at(Time::from_ticks(8), Ev::Tick(1));
        let stats = sim.run_to_completion(100);
        assert_eq!(
            sim.model().log,
            [
                (2, "wake"),
                (5, "event"),
                (7, "wake"),
                (8, "event"),
                (9, "wake")
            ]
        );
        assert_eq!(stats.events_dispatched, 5);
        assert_eq!(stats.last_event_time, Time::from_ticks(9));
        // Wake-ups never enter the queue.
        assert_eq!(stats.peak_queue, 2);
    }

    #[test]
    fn a_queued_event_wins_a_tie_with_a_wake_up() {
        let mut sim = Simulation::new(Waker::new(vec![5]));
        sim.schedule_at(Time::from_ticks(5), Ev::Tick(0));
        sim.schedule_at(Time::from_ticks(5), Ev::Tick(1));
        let stats = sim.run_to_completion(100);
        assert_eq!(sim.model().log, [(5, "event"), (5, "event"), (5, "wake")]);
        assert_eq!(stats.events_dispatched, 3);
    }

    #[test]
    fn a_model_without_wake_ups_steps_only_its_queue() {
        // The same agenda through a model on the default `wake_at` and
        // through one whose wake-up list is empty: identical steps.
        fn seed<M: Model<Event = Ev>>(sim: &mut Simulation<M>) {
            for (at, n) in [(5, 1), (1, 2), (5, 3)] {
                sim.schedule_at(Time::from_ticks(at), Ev::Tick(n));
            }
        }
        let mut plain = Simulation::new(Counter { fired: vec![] });
        seed(&mut plain);
        let mut waker = Simulation::new(Waker::new(vec![]));
        seed(&mut waker);
        let (a, b) = (plain.run_to_completion(100), waker.run_to_completion(100));
        assert_eq!(a, b);
        assert_eq!(a.events_dispatched, 3);
        let times: Vec<u64> = plain.model().fired.iter().map(|&(at, _)| at).collect();
        let logged: Vec<u64> = waker.model().log.iter().map(|&(at, _)| at).collect();
        assert_eq!(times, logged);
        assert!(!plain.step() && !waker.step());
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn runaway_guard_counts_wake_ups() {
        // An empty queue and a model that always names a next wake-up.
        struct Forever(u64);
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _: Time, _: (), _: &mut Ctx<'_, ()>) {}
            fn wake_at(&self) -> Option<Time> {
                Some(Time::from_ticks(self.0))
            }
            fn wake(&mut self, _: Time, _: &mut Ctx<'_, ()>) {
                self.0 += 1;
            }
        }
        Simulation::new(Forever(0)).run_to_completion(1000);
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
