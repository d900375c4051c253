//! Stable event queue.
//!
//! A binary min-heap keyed by `(Time, sequence)`: events scheduled for the
//! same instant pop in the order they were scheduled, which keeps every
//! simulation in the workspace deterministic. Events are never cancelled:
//! a model whose event has gone stale (a killed run's completion) lets it
//! fire and recognises it as a no-op.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// One queued event, ordered so that the heap's maximum is the smallest
/// `(at, seq)`: std's max-heap then pops the earliest event first.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Priority queue of timestamped events with FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Instant of the earliest queued event.
    pub fn next_at(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no event is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
        assert_eq!(q.pop(), None);
        q.schedule(t(1), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_at(), Some(t(1)));
        assert_eq!(q.pop(), Some((t(1), 1)));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2); // scheduling "in the past" is the caller's business
        q.schedule(t(7), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn next_at_peeks_without_popping() {
        let mut q = EventQueue::new();
        q.schedule(t(4), "d");
        q.schedule(t(2), "b");
        assert_eq!(q.next_at(), Some(t(2)));
        assert_eq!(q.len(), 2, "the read left both events queued");
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.next_at(), Some(t(4)));
    }
}
