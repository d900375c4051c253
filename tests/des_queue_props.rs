//! Property coverage of the DES substrate the online executor leans on:
//! under *any* interleaving of `schedule`/`pop`, the event queue pops in
//! nondecreasing time order with FIFO tie-breaking, and the engine
//! dispatches every event in that same order. The whole workspace's
//! determinism rests on these two invariants.

use lsps::des::{Ctx, EventQueue, Model, Simulation, Time};
use proptest::prelude::*;

/// The queue's contract spelled out with no heap at all: events in
/// insertion order, stably sorted by time before each pop, so the head is
/// the earliest event and, among a tie, the earliest scheduled.
struct SortOracle<E> {
    pending: Vec<(Time, E)>,
}

impl<E> SortOracle<E> {
    fn schedule(&mut self, at: Time, event: E) {
        self.pending.push((at, event));
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.pending.sort_by_key(|&(at, _)| at);
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }

    fn next_at(&self) -> Option<Time> {
        self.pending.iter().map(|&(at, _)| at).min()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings of `schedule` and `pop`, never scheduling
    /// before the last popped instant (the engine's causality rule), then
    /// a full drain: pops are nondecreasing in time, FIFO within a tie,
    /// and every scheduled event pops exactly once.
    #[test]
    fn interleaved_schedule_pop_drains_in_order(
        ops in prop::collection::vec((0u8..8, 0u64..48), 1..80),
    ) {
        let mut q = EventQueue::new();
        // Payload = (time, global insertion index).
        let mut insertions = 0u64;
        let mut popped: Vec<(Time, (u64, u64))> = Vec::new();
        for &(op, dt) in &ops {
            if op < 5 {
                let now = popped.last().map_or(0, |(at, _)| at.ticks());
                let t = now + dt;
                q.schedule(Time::from_ticks(t), (t, insertions));
                insertions += 1;
            } else {
                popped.extend(q.pop());
            }
            prop_assert_eq!(q.len() + popped.len(), insertions as usize);
        }
        popped.extend(std::iter::from_fn(|| q.pop()));
        prop_assert!(q.is_empty());
        for &(at, (t, _)) in &popped {
            prop_assert_eq!(at.ticks(), t, "popped at a different time than scheduled");
        }
        for pair in popped.windows(2) {
            let ((a, (_, a_seq)), (b, (_, b_seq))) = (pair[0], pair[1]);
            prop_assert!(a <= b, "time order violated");
            if a == b {
                prop_assert!(a_seq < b_seq, "FIFO tie-break violated");
            }
        }
        let mut seqs: Vec<u64> = popped.iter().map(|&(_, (_, seq))| seq).collect();
        seqs.sort_unstable();
        prop_assert!(seqs.into_iter().eq(0..insertions), "an event was lost or duplicated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Differential test against [`SortOracle`]: drive [`EventQueue`] and
    /// the oracle through the same random interleaving of schedule / pop
    /// and require identical observable behavior at every step — same
    /// `(Time, event)` from every pop, same next instant and same length
    /// throughout, and identical drain tails.
    #[test]
    fn queue_matches_stable_sort_oracle(
        ops in prop::collection::vec((0u8..10, 0u64..64), 1..120),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = SortOracle { pending: Vec::new() };
        let mut payload = 0u64;
        for &(op, t) in &ops {
            if op < 6 {
                let at = Time::from_ticks(t);
                q.schedule(at, payload);
                oracle.schedule(at, payload);
                payload += 1;
            } else {
                prop_assert_eq!(q.pop(), oracle.pop(), "pop results diverged");
            }
            prop_assert_eq!(q.len(), oracle.pending.len(), "lengths diverged");
            prop_assert_eq!(q.next_at(), oracle.next_at(), "next instants diverged");
        }
        loop {
            let want = oracle.pop();
            prop_assert_eq!(q.pop(), want, "drain tails diverged");
            if want.is_none() {
                break;
            }
        }
    }
}

/// Records every dispatch instant.
struct Recorder {
    seen: Vec<Time>,
}

impl Model for Recorder {
    type Event = ();
    fn handle(&mut self, now: Time, _event: (), _ctx: &mut Ctx<'_, ()>) {
        self.seen.push(now);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine built on that queue dispatches every seeded event, in
    /// sorted time order, and its counters agree with the run stats.
    #[test]
    fn engine_dispatches_every_event_in_time_order(
        times in prop::collection::vec(0u64..500, 1..60),
    ) {
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
        for &t in &times {
            sim.schedule_at(Time::from_ticks(t), ());
        }
        let stats = sim.run_to_completion(times.len() as u64 + 1);
        prop_assert_eq!(stats.events_dispatched, times.len() as u64);
        let seen: Vec<u64> = sim.model().seen.iter().map(|t| t.ticks()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seen, sorted);
    }
}
