//! Stable, cancellable event queue.
//!
//! A 4-ary implicit min-heap keyed by `(Time, sequence)`: events scheduled
//! for the same instant pop in the order they were scheduled, which keeps
//! every simulation in the workspace deterministic. Event payloads live in a
//! generation-stamped slot slab beside the heap, so schedule, pop and cancel
//! all run without hashing: a key names a slot plus the generation it was
//! issued under, and a stale key simply fails the generation check.
//!
//! Cancellation is O(1) — the slot is vacated immediately (payload dropped,
//! generation bumped) and the heap entry left behind as a tombstone that is
//! discarded when it surfaces. Tombstones are *not* allowed to accumulate:
//! whenever dead entries exceed half the heap, the queue compacts in place
//! (retain the live entries, rebuild the heap bottom-up, O(n)), so heap
//! occupancy stays ≥ 50% live and memory stays proportional to live events
//! even under cancel-heavy workloads. See [`EventQueue::len`] /
//! [`EventQueue::heap_len`] for the live/dead accounting.

use crate::time::Time;

/// Children of heap node `i` start at `4 * i + 1` — a 4-ary heap trades a
/// few extra comparisons per level for half the depth (and half the cache
/// misses on sift-down) of a binary heap.
const ARITY: usize = 4;

/// Opaque handle to a scheduled event, used for cancellation.
///
/// Packs `(generation << 32) | slot`: a key outlives its event harmlessly —
/// once the event pops or cancels, the slot's generation moves on and the
/// old key no longer matches.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

impl EventKey {
    fn new(slot: u32, generation: u32) -> Self {
        EventKey((u64::from(generation) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Heap entries carry the ordering key and the slot of their payload; they
/// are plain `Copy` words, so sift operations move 24 bytes, never an `E`.
#[derive(Copy, Clone)]
struct HeapEntry {
    at: Time,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn precedes(&self, other: &HeapEntry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// One slab slot: the payload of a live event, stamped with the sequence
/// number its heap entry carries (a mismatch marks the entry as a tombstone)
/// and a generation counter that invalidates old [`EventKey`]s on reuse.
struct Slot<E> {
    generation: u32,
    /// `Some((seq, event))` while the event is live; `None` once popped or
    /// cancelled (the slot is then on the free list).
    occupant: Option<(u64, E)>,
}

/// Priority queue of timestamped events with FIFO tie-breaking and O(1)
/// cancellation, no hashing on any path.
pub struct EventQueue<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Heap entries whose slot no longer holds their sequence number
    /// (cancelled events awaiting discard or compaction).
    dead: usize,
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
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            dead: 0,
        }
    }

    /// Schedule `event` at absolute time `at`; returns a key usable with
    /// [`cancel`](Self::cancel).
    pub fn schedule(&mut self, at: Time, event: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].occupant = Some((seq, event));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 live events");
                self.slots.push(Slot {
                    generation: 0,
                    occupant: Some((seq, event)),
                });
                slot
            }
        };
        self.heap.push(HeapEntry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        EventKey::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancel a previously scheduled event. Returns `true` if the key was
    /// still live (i.e. not yet popped or cancelled).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let idx = key.slot();
        let Some(slot) = self.slots.get_mut(idx) else {
            return false;
        };
        if slot.generation != key.generation() || slot.occupant.is_none() {
            return false;
        }
        // Vacate now — the payload drops immediately; only the 24-byte heap
        // entry lingers as a tombstone.
        slot.occupant = None;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(idx as u32);
        self.dead += 1;
        if self.dead > self.heap.len() / 2 {
            self.compact();
        }
        true
    }

    /// Remove and return the earliest live event as `(time, key, event)`.
    pub fn pop(&mut self) -> Option<(Time, EventKey, E)> {
        loop {
            let entry = self.pop_heap()?;
            let idx = entry.slot as usize;
            let slot = &mut self.slots[idx];
            match slot.occupant {
                Some((seq, _)) if seq == entry.seq => {
                    let (_, event) = slot.occupant.take().expect("just matched");
                    let key = EventKey::new(entry.slot, slot.generation);
                    slot.generation = slot.generation.wrapping_add(1);
                    self.free.push(entry.slot);
                    return Some((entry.at, key, event));
                }
                // Tombstone: the slot was cancelled (and possibly reused by
                // a later event with a different seq). Discard and retry.
                _ => self.dead -= 1,
            }
        }
    }

    /// Instant of the earliest live event, discarding the tombstones that
    /// sit above it at the top of the heap.
    pub fn next_at(&mut self) -> Option<Time> {
        while let Some(&top) = self.heap.first() {
            if self.is_live(&top) {
                return Some(top.at);
            }
            self.pop_heap();
            self.dead -= 1;
        }
        None
    }

    /// Does `entry` still hold its slot's payload (not a tombstone)?
    fn is_live(&self, entry: &HeapEntry) -> bool {
        matches!(self.slots[entry.slot as usize].occupant, Some((seq, _)) if seq == entry.seq)
    }

    /// Number of live events (cancelled-but-undiscarded entries excluded).
    pub fn len(&self) -> usize {
        self.heap.len() - self.dead
    }

    /// True iff no live event remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap entries, tombstones included — the queue's real footprint.
    /// Compaction bounds this at `2 * len()`, so it can exceed [`len`](Self::len)
    /// by at most the live count.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Drop every tombstone: retain live heap entries in place, then rebuild
    /// the heap invariant bottom-up (Floyd, O(n)). Called whenever dead
    /// entries outnumber live ones, so the amortized cost per cancel is O(1)
    /// sift work plus the O(1) vacate already paid.
    fn compact(&mut self) {
        let mut heap = std::mem::take(&mut self.heap);
        heap.retain(|entry| self.is_live(entry));
        self.heap = heap;
        self.dead = 0;
        for i in (0..self.heap.len() / ARITY + 1).rev() {
            self.sift_down(i);
        }
    }

    /// Remove and return the heap minimum (tombstone or not).
    fn pop_heap(&mut self) -> Option<HeapEntry> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let min = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(min)
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if entry.precedes(&self.heap[parent]) {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        if i >= len {
            return;
        }
        let entry = self.heap[i];
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.heap[child].precedes(&self.heap[best]) {
                    best = child;
                }
            }
            if self.heap[best].precedes(&entry) {
                self.heap[i] = self.heap[best];
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
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
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let _a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        let c = q.schedule(t(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(order, vec!["a", "c"]);
        assert!(!q.cancel(c), "cancelling an already-popped key is a no-op");
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventKey(42)));
    }

    #[test]
    fn pop_returns_the_schedule_key() {
        let mut q = EventQueue::new();
        let k = q.schedule(t(3), "x");
        let (_, popped, _) = q.pop().unwrap();
        assert_eq!(popped, k, "pop reports the key schedule handed out");
    }

    #[test]
    fn stale_key_cannot_cancel_a_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert!(q.cancel(a));
        // The freed slot is reused for "b"; the stale key must not touch it.
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a), "stale key fails the generation check");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, k, e)| (k, e)), Some((b, "b")));
    }

    #[test]
    fn empty_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.schedule(t(1), 1);
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(1));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        let (at, _, e) = q.pop().unwrap();
        assert_eq!((at, e), (t(10), 1));
        q.schedule(t(5), 2); // scheduling "in the past" is the caller's business
        q.schedule(t(7), 3);
        assert_eq!(q.pop().unwrap().2, 2);
        assert_eq!(q.pop().unwrap().2, 3);
    }

    #[test]
    fn compaction_bounds_tombstones() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..1000).map(|i| q.schedule(t(i), i)).collect();
        // Cancel everything but the last: compactions must keep the heap at
        // most half dead throughout, and the survivor still pops.
        for k in &keys[..999] {
            assert!(q.cancel(*k));
        }
        assert_eq!(q.len(), 1);
        assert!(
            q.heap_len() <= 2 * q.len().max(1),
            "heap holds {} entries for 1 live event",
            q.heap_len()
        );
        assert!(
            2 * q.len() >= q.heap_len(),
            "at least half the heap is live"
        );
        assert_eq!(q.pop().map(|(_, _, e)| e), Some(999));
        assert!(q.is_empty());
        assert_eq!(q.heap_len(), 0);
    }

    #[test]
    fn next_at_skips_a_cancelled_top_entry() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        q.schedule(t(4), "d");
        assert_eq!(q.next_at(), Some(t(1)));
        q.cancel(a); // 1 dead of 4 — left in the heap as its top entry
        assert_eq!(q.heap_len(), 4);
        assert_eq!(q.next_at(), Some(t(2)), "the tombstone is not an event");
        assert_eq!(q.heap_len(), 3, "and the read discarded it");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().map(|(at, _, e)| (at, e)), Some((t(2), "b")));
        let mut empty: EventQueue<()> = EventQueue::new();
        assert_eq!(empty.next_at(), None);
    }

    #[test]
    fn heap_len_counts_tombstones_until_compaction() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        q.cancel(a); // 1 dead of 3 — below the compaction threshold
        assert_eq!(q.len(), 2);
        assert_eq!(q.heap_len(), 3);
    }
}
