//! Processor availability over time: bookings, reservations, holes.
//!
//! A [`Timeline`] tracks which processors of a capacity set are busy during
//! which intervals. It is the common substrate for
//!
//! * running jobs (a booking per started job),
//! * **advance reservations** (§5.1 of the paper: "a given number of
//!   processors in a given time window"), booked ahead of time,
//! * backfilling (EASY books only the head job's reservation, conservative
//!   books every queued job),
//! * the CiGri best-effort layer (§5.2), which fills current holes of the
//!   local schedules (via [`Timeline::earliest_slot_within`]) with killable
//!   grid jobs.
//!
//! Invariant enforced at booking time: a booking's processors are a subset
//! of capacity and disjoint from every time-overlapping booking. Everything
//! downstream (schedule validity, utilization accounting) relies on it.
//!
//! # The availability profile
//!
//! Alongside the booking table, the timeline maintains a **sweep-line
//! availability profile** — the structure production batch schedulers
//! (Slurm, OAR, EASY \[Lifka 95\]) keep to make placement sublinear. The
//! profile is a piecewise-constant map from time to the *busy* processor
//! set, stored as a sorted array of segment starts, a parallel array of
//! per-segment metadata (the segment's busy row, that row's cached popcount
//! and an `added` count) and one arena of busy rows:
//!
//! * a start `t` whose segment owns row `r` means exactly the processors of
//!   row `r` are occupied on `[t, next start)`; the last segment extends to
//!   [`Time::MAX`];
//! * the array always contains a segment starting at the timeline's
//!   **horizon** — [`Time::ZERO`] until [`Timeline::forget_before`] moves
//!   it forward. The profile describes `[horizon, ∞)` only: mutations clip
//!   their edits to it, and booking or querying before it panics. A
//!   planner that never looks back (every query at or after its decision
//!   instant) forgets the past so that finished work costs no profile
//!   edit and the array holds only live boundaries;
//! * adjacent segments hold *distinct* busy sets (boundaries are
//!   coalesced away as bookings come and go), so every boundary is a real
//!   change point and the segment count is bounded by 2 × live bookings;
//! * a segment's `added` count is the number of processors busy in it but
//!   not in the previous segment (zero for the first). A booking's
//!   processors are free throughout its interval, so adding or removing
//!   them leaves every interior boundary's count as it was; a mutation
//!   recomputes it only at the two edges it touches. With the two cached
//!   popcounts it says whether the boundary frees a processor:
//!   `count[i] < count[i - 1] + added[i]`.
//!
//! The layout is a deliberate hot-path choice. Sorted arrays rather than
//! an ordered tree: the bound above keeps the profile a few cache lines
//! wide, so binary search beats pointer-chasing and range walks are
//! contiguous scans. Busy sets as rows of one arena, each as wide as the
//! capacity in words, rather than a `ProcSet` per segment: a boundary
//! split copies its row into a slot recycled through a free list, and
//! coalescing or forgetting returns rows to it, so no boundary edit
//! allocates once the arena has grown, and an insert or removal shifts only
//! starts and metadata, never busy words.
//!
//! Every mutation ([`Timeline::try_book`], [`Timeline::remove`],
//! [`Timeline::truncate`], [`Timeline::gc`]) locates its start boundary
//! once and walks forward to its end, updating the touched segments in
//! O(log S + touched). `try_book` checks and applies in one walk: each
//! covered row is tested for disjointness and then marked busy, and a
//! clash undoes the rows already marked, so a refused booking leaves the
//! profile exactly as it was. Placement has one query,
//! [`Timeline::earliest_slot_within`] ([`Timeline::earliest_slot`] is it
//! without a latest start), and it reads the profile instead of scanning
//! the booking table:
//!
//! * the search is one forward walk over the boundaries: it derives from
//!   the counts whether a boundary frees a processor (the free set of a
//!   sliding window can only grow where processors are freed) and keeps
//!   a forward `reach` index to the current candidate's window end. Each
//!   candidate count-checks only the segments its window newly covers,
//!   last first; the last one too busy by count rules out every
//!   candidate up to and including it, so the walk jumps past it. Each
//!   segment is count-checked at most once;
//! * each remaining candidate window is walked once, unioning its busy
//!   rows into a stack buffer. The union only grows by processors outside
//!   the previous row, so the first segment's count plus each later
//!   segment's `added` is a certified upper bound on its size; the union
//!   is popcounted only when that bound says the window might not fit,
//!   and the walk stops as soon as the exact count shows it does not. A
//!   window that fits yields its lowest free processors from that union,
//!   and only that answer becomes a [`ProcSet`], built once;
//! * a fit test at one instant — "can this job start now?" — is the same
//!   call with `latest_start == earliest`: it walks that one window only,
//!   and only as far as the window fails.
//!
//! The naive full-scan implementation is retained under `#[cfg(test)]`
//! (`naive::NaiveTimeline`) as the reference oracle for the differential
//! property tests at the bottom of this module.

use std::fmt;

use serde::{Deserialize, Serialize};

use lsps_des::{Dur, Time};

use crate::procset::{
    and_not_words, count_words, difference_count_words, disjoint_words, or_words, ProcSet,
};

/// Why an interval is booked — used by policies to decide what may be
/// displaced (best-effort bookings are killable, the others are not).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BookingKind {
    /// A regular local job occupying its allocation.
    Job,
    /// An advance reservation (§5.1): processors blocked for a time window.
    Reservation,
    /// A best-effort grid job (§5.2): fills holes, killed on local demand.
    BestEffort,
}

/// One booked interval.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Booking {
    /// Start of the interval (inclusive).
    pub start: Time,
    /// End of the interval (exclusive).
    pub end: Time,
    /// Processors occupied.
    pub procs: ProcSet,
    /// What occupies them.
    pub kind: BookingKind,
}

impl Booking {
    /// Non-empty intersection of the booking interval with `[start, end)`.
    /// The clipped form makes degenerate (zero-length) bookings and queries
    /// fall out as `false` without a separate emptiness check.
    fn overlaps(&self, start: Time, end: Time) -> bool {
        self.start.max(start) < self.end.min(end)
    }
}

/// Handle to a booking within a [`Timeline`].
///
/// Packs `(sequence number << 32) | arena slot`: the high half is a
/// monotonically allocated creation stamp (so `Ord` on ids is creation
/// order, as it always was), the low half locates the booking's arena slot
/// for O(1) generation-checked access. Two timelines hand out overlapping
/// ids — an id is only meaningful against the timeline that produced it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BookingId(u64);

impl BookingId {
    fn pack(seq: u32, slot: u32) -> BookingId {
        BookingId(((seq as u64) << 32) | slot as u64)
    }

    fn seq(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn slot(self) -> usize {
        (self.0 & u32::MAX as u64) as usize
    }
}

/// Error returned by [`Timeline::try_book`] on an invalid booking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BookError {
    /// Requested processors are not all within the timeline capacity.
    OutsideCapacity,
    /// Requested processors collide with an existing booking.
    Conflict(BookingId),
    /// `end < start`.
    NegativeInterval,
}

impl fmt::Display for BookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BookError::OutsideCapacity => write!(f, "procs outside timeline capacity"),
            BookError::Conflict(id) => write!(f, "procs conflict with booking {id:?}"),
            BookError::NegativeInterval => write!(f, "end precedes start"),
        }
    }
}

impl std::error::Error for BookError {}

/// Words of the candidate-window union [`Timeline::earliest_slot`] keeps on
/// the stack — 1024 processors; only wider machines put it on the heap.
const STACK_WORDS: usize = 16;

/// Per-segment metadata, parallel to the segment starts: the arena row
/// holding the segment's busy set, that set's popcount, and how many
/// processors the segment's boundary adds to the busy set. Every placement
/// probe needs "how many processors are free here" before it needs the
/// exact set, so both counts are maintained on mutation instead of being
/// recomputed per query — they are what let [`Timeline::earliest_slot`]
/// rule windows out, and accept most of them, without counting a row.
#[derive(Clone, Copy, Debug)]
struct Meta {
    row: u32,
    count: u32,
    /// Processors busy in this segment but not in its predecessor: a
    /// window's busy union grows by at most this much when it extends over
    /// the boundary. The boundary frees a processor iff
    /// `count < predecessor's count + added`. Always `0` for the first
    /// segment, which has no predecessor.
    added: u32,
}

/// The piecewise-constant busy profile (see the module docs) in three
/// parts: the sorted segment starts, their [`Meta`], and one arena of
/// busy rows, `stride` words each (the capacity's word length), with a
/// free list of vacated rows. Boundary edits move only the 8-byte start
/// and the 12-byte metadata: a split copies its busy row into a recycled
/// slot, and coalescing or forgetting returns rows to the free list, so
/// once the arena has grown to the working size no edit allocates or moves
/// busy words, at any machine width.
#[derive(Clone, Debug)]
struct Profile {
    /// Strictly increasing; never empty, `starts[0]` is the horizon.
    starts: Vec<Time>,
    /// Parallel to `starts`; every entry owns a distinct row.
    meta: Vec<Meta>,
    /// Row `r` is `rows[r * stride..(r + 1) * stride]`.
    rows: Vec<u64>,
    /// Rows no segment owns.
    free_rows: Vec<u32>,
    stride: usize,
}

impl Profile {
    /// An empty profile covering `[horizon, ∞)` with `words`-word rows.
    fn new(horizon: Time, words: usize) -> Profile {
        // A capacity of no processors still gets one-word rows, so arena
        // slots stay countable.
        let stride = words.max(1);
        Profile {
            starts: vec![horizon],
            meta: vec![Meta {
                row: 0,
                count: 0,
                added: 0,
            }],
            rows: vec![0; stride],
            free_rows: Vec::new(),
            stride,
        }
    }

    /// Arena row `r`.
    fn row(&self, r: u32) -> &[u64] {
        let at = r as usize * self.stride;
        &self.rows[at..at + self.stride]
    }

    /// The busy row of segment `i`.
    fn busy(&self, i: usize) -> &[u64] {
        self.row(self.meta[i].row)
    }

    /// A row holding a copy of row `src`: a recycled one if any is free,
    /// else one appended to the arena.
    fn copy_row(&mut self, src: u32) -> u32 {
        let from = src as usize * self.stride;
        match self.free_rows.pop() {
            Some(r) => {
                self.rows
                    .copy_within(from..from + self.stride, r as usize * self.stride);
                r
            }
            None => {
                let r = u32::try_from(self.rows.len() / self.stride).expect("profile arena full");
                self.rows.extend_from_within(from..from + self.stride);
                r
            }
        }
    }

    /// Drop every segment lying wholly before `t` (at or past the horizon),
    /// returning their rows, and relabel the one covering `t` to start
    /// there. Its busy set is untouched, so every later boundary keeps its
    /// `added` count.
    fn forget_before(&mut self, t: Time) {
        let i = self.idx_at(t);
        self.free_rows.extend(self.meta[..i].iter().map(|m| m.row));
        self.starts.drain(..i);
        self.meta.drain(..i);
        self.starts[0] = t;
        self.meta[0].added = 0;
    }

    /// Index of the segment covering instant `t` (the last start `<= t`).
    fn idx_at(&self, t: Time) -> usize {
        self.starts.partition_point(|&k| k <= t) - 1
    }

    /// Ensure a boundary at `t`, given the index `i` of the segment covering
    /// it. Returns the index of the segment starting at `t`.
    fn split(&mut self, i: usize, t: Time) -> usize {
        if self.starts[i] == t {
            return i;
        }
        // The copy repeats its predecessor, so its boundary adds nothing;
        // the successor's predecessor set is unchanged, and so is its count.
        let row = self.copy_row(self.meta[i].row);
        self.starts.insert(i + 1, t);
        self.meta.insert(
            i + 1,
            Meta {
                row,
                count: self.meta[i].count,
                added: 0,
            },
        );
        i + 1
    }

    /// Drop the boundary starting segment `i` if it no longer changes the
    /// busy set, returning its row to the free list. The successor keeps
    /// its `added` count: its predecessor's busy set is unchanged. The first
    /// segment, at the horizon, always stays.
    fn coalesce(&mut self, i: usize) {
        if i > 0 && self.meta[i - 1].count == self.meta[i].count && self.busy(i - 1) == self.busy(i)
        {
            self.free_rows.push(self.meta[i].row);
            self.starts.remove(i);
            self.meta.remove(i);
        }
    }

    /// Recompute the `added` count of the boundary starting segment `i`.
    fn refresh_added(&mut self, i: usize) {
        if i > 0 {
            self.meta[i].added = difference_count_words(self.busy(i), self.busy(i - 1)) as u32;
        }
    }

    /// Mark `procs` busy on `[start, end)`, clipped to the horizon, if they
    /// are free throughout it; otherwise leave the segments as they were
    /// and return `false`. The check and the edit are one walk: each
    /// covered row is tested for disjointness and then OR-ed. On a clash
    /// the rows already edited are un-OR-ed and the two edges coalesced
    /// again, `hi` before `lo`, so rows the splits took from the free list
    /// return to it in their old order (rows the arena grew by stay free).
    /// On success the booking's processors were free on both sides of
    /// every interior boundary, so those keep their `added` counts and
    /// only the two edges are recomputed or coalesced.
    fn try_add(&mut self, start: Time, end: Time, procs: &ProcSet) -> bool {
        let Some((lo, hi)) = self.edges(start, end, procs) else {
            return true;
        };
        let (words, delta) = (procs.words(), procs.len() as u32);
        for i in lo..hi {
            let Meta { row, count, .. } = &mut self.meta[i];
            let at = *row as usize * self.stride;
            let row = &mut self.rows[at..at + self.stride];
            if !disjoint_words(row, words) {
                self.clear(lo, i, words, delta);
                self.coalesce(hi);
                self.coalesce(lo);
                return false;
            }
            or_words(row, words);
            *count += delta;
        }
        self.seal(lo, hi);
        true
    }

    /// Mark `procs` free on `[start, end)`, clipped to the horizon. Caller
    /// guarantees they are busy throughout the interval (they belong to
    /// one booking covering it), mirroring [`try_add`](Profile::try_add):
    /// `procs` is a subset of both sides of every interior boundary, so
    /// only the edges change. Work that ended by the horizon edits nothing.
    fn sub(&mut self, start: Time, end: Time, procs: &ProcSet) {
        let Some((lo, hi)) = self.edges(start, end, procs) else {
            return;
        };
        self.clear(lo, hi, procs.words(), procs.len() as u32);
        self.seal(lo, hi);
    }

    /// Mark the `delta` processors of `words` free in the rows of segments
    /// `lo..hi`, each of which holds them all busy.
    fn clear(&mut self, lo: usize, hi: usize, words: &[u64], delta: u32) {
        for m in &mut self.meta[lo..hi] {
            let at = m.row as usize * self.stride;
            and_not_words(&mut self.rows[at..at + self.stride], words);
            m.count -= delta;
        }
    }

    /// The segments `lo..hi` an edit of `procs` on `[start, end)` covers,
    /// with boundaries split at both edges: one locate of `start` (clipped
    /// to the horizon), then a walk forward to `end`. `None` when the edit
    /// is empty. The edge indices serve the `added` refreshes and the
    /// coalescing too, which need no second search.
    fn edges(&mut self, start: Time, end: Time, procs: &ProcSet) -> Option<(usize, usize)> {
        let start = start.max(self.starts[0]);
        if start >= end || procs.is_empty() {
            return None;
        }
        let lo = self.split(self.idx_at(start), start);
        // The segment covering `end`: the last start `<= end`, at or after
        // `lo` because `end > start`.
        let last = lo
            + self.starts[lo + 1..]
                .iter()
                .take_while(|&&k| k <= end)
                .count();
        Some((lo, self.split(last, end)))
    }

    /// Finish an applied edit of segments `lo..hi`: recompute the two edge
    /// boundaries' `added` counts and coalesce them, `hi` first so `lo`
    /// stays a valid index. (Disjointness, or containment for `sub`, is
    /// the booking invariant, so each count moved by exactly |procs|.)
    fn seal(&mut self, lo: usize, hi: usize) {
        self.refresh_added(lo);
        self.refresh_added(hi);
        self.coalesce(hi);
        self.coalesce(lo);
    }
}

/// One slot of the booking arena: the sequence number of its current (or
/// last) occupant plus the occupant itself. The sequence number doubles as
/// the generation stamp — it is globally unique per timeline, so a stale
/// [`BookingId`] can never alias a recycled slot.
#[derive(Clone, Debug)]
struct Slot {
    seq: u32,
    booking: Option<Booking>,
}

/// Arena + id-interned booking store. Bookings live in dense `u32`-indexed
/// slots (vacated slots are recycled LIFO), and a [`BookingId`] packs
/// `(seq, slot)` so lookup is one bounds-checked array access plus a
/// generation check — no ordered map or hashing on the book/remove hot
/// path. Sequence numbers are allocated monotonically, which keeps
/// `BookingId` ordering equal to creation order (the pre-arena contract).
#[derive(Clone, Debug, Default)]
struct BookingStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    next_seq: u32,
}

impl BookingStore {
    fn insert(&mut self, booking: Booking) -> BookingId {
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("booking sequence numbers exhausted");
        let slot = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.seq = seq;
                s.booking = Some(booking);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("booking arena full");
                self.slots.push(Slot {
                    seq,
                    booking: Some(booking),
                });
                idx
            }
        };
        self.live += 1;
        BookingId::pack(seq, slot)
    }

    fn get(&self, id: BookingId) -> Option<&Booking> {
        let s = self.slots.get(id.slot())?;
        if s.seq != id.seq() {
            return None;
        }
        s.booking.as_ref()
    }

    fn get_mut(&mut self, id: BookingId) -> Option<&mut Booking> {
        let s = self.slots.get_mut(id.slot())?;
        if s.seq != id.seq() {
            return None;
        }
        s.booking.as_mut()
    }

    fn remove(&mut self, id: BookingId) -> Option<Booking> {
        let s = self.slots.get_mut(id.slot())?;
        if s.seq != id.seq() {
            return None;
        }
        let b = s.booking.take()?;
        self.free.push(id.slot() as u32);
        self.live -= 1;
        Some(b)
    }

    /// Iterate over live bookings in slot order (NOT id order).
    fn iter_unordered(&self) -> impl Iterator<Item = (BookingId, &Booking)> {
        self.slots.iter().enumerate().filter_map(|(idx, s)| {
            s.booking
                .as_ref()
                .map(|b| (BookingId::pack(s.seq, idx as u32), b))
        })
    }
}

/// Availability calendar of a set of processors.
#[derive(Clone, Debug)]
pub struct Timeline {
    capacity: ProcSet,
    bookings: BookingStore,
    /// The earliest instant the timeline still describes: [`Time::ZERO`]
    /// until [`forget_before`](Self::forget_before) moves it.
    horizon: Time,
    /// Availability on `[horizon, ∞)`, anchored at the horizon.
    profile: Profile,
}

impl Timeline {
    /// A timeline over the given capacity, initially all free.
    pub fn new(capacity: ProcSet) -> Self {
        Timeline {
            bookings: BookingStore::default(),
            horizon: Time::ZERO,
            profile: Profile::new(Time::ZERO, capacity.words().len()),
            capacity,
        }
    }

    /// A timeline over processors `{0, …, m-1}`.
    pub fn with_procs(m: usize) -> Self {
        Timeline::new(ProcSet::full(m))
    }

    /// The capacity set.
    pub fn capacity(&self) -> &ProcSet {
        &self.capacity
    }

    /// Number of live bookings.
    pub fn n_bookings(&self) -> usize {
        self.bookings.live
    }

    /// Number of segments of the availability profile (stays within
    /// `2 × n_bookings + 1` by the coalescing invariant).
    #[cfg(test)]
    fn n_segments(&self) -> usize {
        self.profile.starts.len()
    }

    /// Panic unless `t` lies at or after the horizon: the profile says
    /// nothing about the forgotten past.
    fn assert_not_forgotten(&self, what: &str, t: Time) {
        assert!(
            t >= self.horizon,
            "{what} at {t:?} lies before the timeline horizon {:?}",
            self.horizon
        );
    }

    /// Forget availability before `now`: move the horizon there (it never
    /// moves back) and drop the profile segments that lie wholly before
    /// it. Bookings stay in the table, but edits to them — removal,
    /// truncation, gc — only touch the profile at or after the horizon,
    /// so freeing a booking that ended by then costs only its arena slot.
    /// Booking or querying before the horizon panics from then on.
    pub fn forget_before(&mut self, now: Time) {
        if now > self.horizon {
            self.horizon = now;
            self.profile.forget_before(now);
        }
    }

    /// Look up a booking.
    pub fn booking(&self, id: BookingId) -> Option<&Booking> {
        self.bookings.get(id)
    }

    /// Iterate over all bookings (deterministic id order). Materializes a
    /// sorted view of the arena — fine for the walk-everything callers
    /// (end-of-run reports, diagnostics), not meant for per-placement
    /// loops. To find what blocks a booking, use the conflict that
    /// [`try_book`](Self::try_book) names.
    pub fn bookings(&self) -> impl Iterator<Item = (BookingId, &Booking)> {
        let mut all: Vec<(BookingId, &Booking)> = self.bookings.iter_unordered().collect();
        all.sort_unstable_by_key(|(id, _)| *id);
        all.into_iter()
    }

    /// The smallest-id booking colliding with `procs` on `[start, end)`,
    /// for a booking the profile has already refused. Naming it takes a
    /// scan of every live booking; a booking that fits never gets here.
    fn conflict(&self, start: Time, end: Time, procs: &ProcSet) -> BookingId {
        self.bookings
            .iter_unordered()
            .filter(|(_, b)| b.overlaps(start, end) && !b.procs.is_disjoint(procs))
            .map(|(id, _)| id)
            .min()
            .expect("busy profile procs always belong to some booking")
    }

    /// Book `procs` during `[start, end)`, validating capacity and
    /// conflict-freedom. Zero-length intervals are accepted and occupy
    /// nothing.
    ///
    /// The check and the edit are one walk over the covered segments:
    /// each busy row is tested against `procs` and then marked. A clash
    /// undoes the rows already marked, leaves the profile exactly as it
    /// was, and only then scans the booking table to name the smallest
    /// colliding id in [`BookError::Conflict`].
    ///
    /// # Panics
    /// If `start` lies before the horizon.
    pub fn try_book(
        &mut self,
        start: Time,
        end: Time,
        procs: ProcSet,
        kind: BookingKind,
    ) -> Result<BookingId, BookError> {
        self.assert_not_forgotten("booking", start);
        if end < start {
            return Err(BookError::NegativeInterval);
        }
        if !procs.is_subset(&self.capacity) {
            return Err(BookError::OutsideCapacity);
        }
        if !self.profile.try_add(start, end, &procs) {
            return Err(BookError::Conflict(self.conflict(start, end, &procs)));
        }
        Ok(self.bookings.insert(Booking {
            start,
            end,
            procs,
            kind,
        }))
    }

    /// Like [`try_book`](Self::try_book) but panics on error — for call
    /// sites that just computed a free slot.
    pub fn book(&mut self, start: Time, end: Time, procs: ProcSet, kind: BookingKind) -> BookingId {
        self.try_book(start, end, procs, kind)
            .unwrap_or_else(|e| panic!("invalid booking [{start:?},{end:?}): {e}"))
    }

    /// Remove a booking (job completed early, reservation cancelled). The
    /// arena slot is recycled for the next booking.
    pub fn remove(&mut self, id: BookingId) -> Option<Booking> {
        let b = self.bookings.remove(id)?;
        self.profile.sub(b.start, b.end, &b.procs);
        Some(b)
    }

    /// Shorten a booking to end at `at` (kill semantics for best-effort
    /// jobs). If `at <= start` the booking is removed entirely. Returns the
    /// booking's resulting end — its start when it was removed, its
    /// unchanged end when `at` lies at or past it — or `None` if the id is
    /// unknown.
    pub fn truncate(&mut self, id: BookingId, at: Time) -> Option<Time> {
        let b = self.bookings.get_mut(id)?;
        if at <= b.start {
            let b = self.bookings.remove(id).expect("present above");
            self.profile.sub(b.start, b.end, &b.procs);
            return Some(b.start);
        }
        if at < b.end {
            let old_end = b.end;
            b.end = at;
            self.profile.sub(at, old_end, &b.procs);
            return Some(at);
        }
        Some(b.end)
    }

    /// Drop every booking that ends at or before `now` (history no longer
    /// needed for feasibility). Utilization accounting across gc boundaries
    /// is the caller's responsibility.
    pub fn gc(&mut self, now: Time) {
        for idx in 0..self.bookings.slots.len() {
            let s = &mut self.bookings.slots[idx];
            let expired = s.booking.as_ref().is_some_and(|b| b.end <= now);
            if expired {
                let b = s.booking.take().expect("checked above");
                self.bookings.free.push(idx as u32);
                self.bookings.live -= 1;
                self.profile.sub(b.start, b.end, &b.procs);
            }
        }
    }

    /// At most `max_busy` processors busy throughout the window that starts
    /// inside segment `first` and ends at `end`? The one walk a candidate
    /// window gets: `busy` accumulates the union of the covered busy rows,
    /// and the walk stops at the first segment that makes the union too
    /// large. Rows are subsets of capacity, so the window's free count is
    /// `|capacity| − |busy|`. On success `busy` holds the window's whole
    /// busy union.
    ///
    /// The union is not counted after every row. Extending it over a
    /// boundary adds at most that boundary's `added` processors, so
    /// `bound` — the first count plus the later `added`s, reset to the
    /// exact popcount whenever one is taken — never falls below the
    /// union's size. Only a bound above `max_busy` is checked by a
    /// popcount, so the walk ORs the same rows and stops at the same
    /// segment as one that counts every time.
    fn window_fits(&self, first: usize, end: Time, max_busy: usize, busy: &mut [u64]) -> bool {
        let p = &self.profile;
        let mut bound = p.meta[first].count as usize;
        if bound > max_busy {
            return false;
        }
        busy.copy_from_slice(p.busy(first));
        for i in first + 1..p.starts.len() {
            if p.starts[i] >= end {
                break;
            }
            or_words(busy, p.busy(i));
            bound += p.meta[i].added as usize;
            if bound > max_busy {
                bound = count_words(busy);
                if bound > max_busy {
                    return false;
                }
            }
        }
        true
    }

    /// Earliest start `>= earliest` at which `width` processors are free for
    /// `dur`, together with the chosen processors (lowest free indices —
    /// the deterministic allocation rule). `None` iff `width` exceeds
    /// capacity.
    ///
    /// The free set over a sliding window only grows when processors are
    /// *freed*, so it suffices to test `earliest` and every profile
    /// boundary after it where the busy set loses a processor — a single
    /// forward walk over the profile instead of a per-candidate scan of
    /// every booking.
    pub fn earliest_slot(&self, earliest: Time, dur: Dur, width: usize) -> Option<(Time, ProcSet)> {
        self.earliest_slot_within(earliest, Time::MAX, dur, width)
    }

    /// [`earliest_slot`](Self::earliest_slot) restricted to starts
    /// `<= latest_start` (used to place jobs before a deadline, e.g. batch
    /// boundaries or reservation windows).
    pub fn earliest_slot_within(
        &self,
        earliest: Time,
        latest_start: Time,
        dur: Dur,
        width: usize,
    ) -> Option<(Time, ProcSet)> {
        self.assert_not_forgotten("query", earliest);
        let cap_len = self.capacity.len();
        if width > cap_len {
            return None;
        }
        if width == 0 {
            return Some((earliest, ProcSet::new()));
        }
        let max_busy = cap_len - width;
        // One scratch union for every candidate window, on the stack up to
        // `STACK_WORDS` words.
        let mut stack = [0u64; STACK_WORDS];
        let mut heap = Vec::new();
        let busy: &mut [u64] = if self.profile.stride <= STACK_WORDS {
            &mut stack[..self.profile.stride]
        } else {
            heap.resize(self.profile.stride, 0);
            &mut heap
        };
        let cap = self.capacity.words();
        self.slot_walk(earliest, latest_start, dur, max_busy, |t, first, end| {
            if !self.window_fits(first, end, max_busy, busy) {
                return None;
            }
            for (b, &c) in busy.iter_mut().zip(cap) {
                *b = c & !*b;
            }
            Some((t, ProcSet::take_first_of(&busy[..cap.len()], width)))
        })
    }

    /// The candidate walk behind
    /// [`earliest_slot_within`](Self::earliest_slot_within): offers `fits`
    /// candidate starts `t` in increasing order, each with the segment its
    /// window `[t, end)` starts in, and returns the first answer `fits`
    /// gives.
    ///
    /// `earliest` itself is always offered — even past `latest_start`,
    /// matching the historical candidate set — and `fits` stops at the
    /// first segment that rules it out, so a fit test at one instant walks
    /// only as far as its window fails. The other candidates are the
    /// boundaries in `(earliest, latest_start]` that free a processor, the
    /// only instants the sliding window's free set can grow. The counts
    /// alone tell them: a boundary frees a processor iff its count falls
    /// short of its predecessor's plus its `added`,
    /// `count[i] < count[i - 1] + added[i]`.
    ///
    /// Those are offered only if no segment rules them out by count.
    /// `reach` is a forward index: the first segment at or past the
    /// current candidate's window end. Each candidate count-checks only
    /// the segments its window newly covers, `[max(reach, i), new reach)`,
    /// last first. A segment `s` holding more than `max_busy` busy
    /// processors makes every candidate up to and including it infeasible
    /// — window ends only move forward, so each of their windows covers
    /// `s` — and the walk resumes at `s + 1`. So each segment is counted at
    /// most once, and segments a long window covers before such an `s` are
    /// not counted at all. Only the count check may skip: a window that
    /// passes counts but fails the union test (fragmented free sets) rules
    /// out nothing beyond itself.
    ///
    /// A candidate is feasible only if its whole window exists on the tick
    /// axis: saturating the end at `Time::MAX` would silently *shorten*
    /// windows near the top of the axis. Window ends are monotone in the
    /// start, so the first candidate whose end overflows ends the search —
    /// every later one overflows too, and every skipped one is infeasible.
    fn slot_walk<R>(
        &self,
        earliest: Time,
        latest_start: Time,
        dur: Dur,
        max_busy: usize,
        mut fits: impl FnMut(Time, usize, Time) -> Option<R>,
    ) -> Option<R> {
        let (starts, meta) = (&self.profile.starts, &self.profile.meta);
        let at = self.profile.idx_at(earliest);
        if let Some(hit) = fits(earliest, at, earliest.checked_add(dur)?) {
            return Some(hit);
        }
        if latest_start <= earliest {
            return None;
        }
        let stop = starts.partition_point(|&k| k <= latest_start);
        let mut i = at + 1;
        let mut reach = i;
        loop {
            while i < stop && meta[i].count >= meta[i - 1].count + meta[i].added {
                i += 1;
            }
            if i >= stop {
                return None;
            }
            let t = starts[i];
            let end = t.checked_add(dur)?;
            let from = reach.max(i);
            // A window, even an empty one, covers the segment it starts in.
            reach = reach.max(i + 1);
            while reach < starts.len() && starts[reach] < end {
                reach += 1;
            }
            let saturated = (from..reach)
                .rev()
                .find(|&s| meta[s].count as usize > max_busy);
            match saturated {
                Some(s) => i = s + 1,
                None => {
                    if let Some(hit) = fits(t, i, end) {
                        return Some(hit);
                    }
                    i += 1;
                }
            }
        }
    }

    /// Structural invariants of the profile (test support): coalesced,
    /// anchored at the horizon, cached `count`s and `added` counts equal to
    /// their definitions, every arena row owned by exactly one segment or
    /// the free list, and equal by value to a from-scratch recomputation
    /// over the booking table clipped to the horizon.
    #[cfg(test)]
    fn assert_profile_consistent(&self) {
        let (horizon, p) = (self.horizon, &self.profile);
        assert_eq!(p.starts[0], horizon, "profile not anchored at the horizon");
        assert_eq!(p.starts.len(), p.meta.len());
        assert!(
            p.starts.windows(2).all(|w| w[0] < w[1]),
            "segment starts must be strictly sorted"
        );
        assert_eq!(p.rows.len() % p.stride, 0, "arena holds whole rows");
        let mut owned = vec![false; p.rows.len() / p.stride];
        for r in p
            .meta
            .iter()
            .map(|m| m.row)
            .chain(p.free_rows.iter().copied())
        {
            let slot = owned.get_mut(r as usize).expect("row inside the arena");
            assert!(!*slot, "arena row {r} owned twice");
            *slot = true;
        }
        assert!(owned.iter().all(|&o| o), "arena rows leaked");
        let mut prev: Option<&[u64]> = None;
        for (t, m) in p.starts.iter().zip(&p.meta) {
            let busy = p.row(m.row);
            assert_eq!(difference_count_words(busy, self.capacity.words()), 0);
            assert_eq!(count_words(busy), m.count as usize, "cached count drifted");
            assert_ne!(prev, Some(busy), "adjacent segments must differ");
            let added = prev.map_or(0, |q| difference_count_words(busy, q));
            assert_eq!(m.added as usize, added, "`added` count drifted at {t:?}");
            prev = Some(busy);
        }
        let mut fresh = Profile::new(horizon, p.stride);
        for (_, b) in self.bookings.iter_unordered() {
            assert!(fresh.try_add(b.start, b.end, &b.procs), "bookings overlap");
        }
        assert_eq!(
            fresh.by_value(),
            p.by_value(),
            "profile must equal a from-scratch rebuild"
        );
    }
}

#[cfg(test)]
impl Profile {
    /// Each segment as `(start, count, added, busy row)`, independent of
    /// which arena slot holds the row.
    fn by_value(&self) -> Vec<(Time, u32, u32, &[u64])> {
        self.starts
            .iter()
            .zip(&self.meta)
            .map(|(&t, m)| (t, m.count, m.added, self.row(m.row)))
            .collect()
    }
}

#[cfg(test)]
mod naive {
    //! The pre-profile `Timeline`, retained verbatim as the reference
    //! oracle: every query is a full linear scan over the booking table.
    //! The differential proptests below drive it in lockstep with the
    //! profile-based implementation and compare every answer.

    use std::collections::BTreeMap;

    use super::*;

    pub struct NaiveTimeline {
        capacity: ProcSet,
        bookings: BTreeMap<BookingId, Booking>,
        next_id: u64,
    }

    impl NaiveTimeline {
        pub fn with_procs(m: usize) -> Self {
            NaiveTimeline {
                capacity: ProcSet::full(m),
                bookings: BTreeMap::new(),
                next_id: 0,
            }
        }

        pub fn n_bookings(&self) -> usize {
            self.bookings.len()
        }

        pub fn try_book(
            &mut self,
            start: Time,
            end: Time,
            procs: ProcSet,
            kind: BookingKind,
        ) -> Result<BookingId, BookError> {
            if end < start {
                return Err(BookError::NegativeInterval);
            }
            if !procs.is_subset(&self.capacity) {
                return Err(BookError::OutsideCapacity);
            }
            if start < end {
                for (&id, b) in &self.bookings {
                    if b.overlaps(start, end) && !b.procs.is_disjoint(&procs) {
                        return Err(BookError::Conflict(id));
                    }
                }
            }
            let id = BookingId(self.next_id);
            self.next_id += 1;
            self.bookings.insert(
                id,
                Booking {
                    start,
                    end,
                    procs,
                    kind,
                },
            );
            Ok(id)
        }

        pub fn remove(&mut self, id: BookingId) -> Option<Booking> {
            self.bookings.remove(&id)
        }

        pub fn truncate(&mut self, id: BookingId, at: Time) -> Option<Time> {
            let b = self.bookings.get_mut(&id)?;
            if at <= b.start {
                let b = self.bookings.remove(&id).expect("present");
                return Some(b.start);
            }
            if at < b.end {
                b.end = at;
            }
            Some(b.end)
        }

        pub fn gc(&mut self, now: Time) {
            self.bookings.retain(|_, b| b.end > now);
        }

        pub fn free_at(&self, t: Time) -> ProcSet {
            let mut free = self.capacity.clone();
            for b in self.bookings.values() {
                if b.start <= t && t < b.end {
                    free.subtract(&b.procs);
                }
            }
            free
        }

        pub fn free_during(&self, start: Time, end: Time) -> ProcSet {
            if end <= start {
                return self.free_at(start);
            }
            let mut free = self.capacity.clone();
            for b in self.bookings.values() {
                if b.overlaps(start, end) {
                    free.subtract(&b.procs);
                }
            }
            free
        }

        pub fn earliest_slot_within(
            &self,
            earliest: Time,
            latest_start: Time,
            dur: Dur,
            width: usize,
        ) -> Option<(Time, ProcSet)> {
            if width > self.capacity.len() {
                return None;
            }
            if width == 0 {
                return Some((earliest, ProcSet::new()));
            }
            let mut candidates: Vec<Time> = self
                .bookings
                .values()
                .map(|b| b.end)
                .filter(|&e| e > earliest && e <= latest_start)
                .collect();
            candidates.push(earliest);
            candidates.sort_unstable();
            candidates.dedup();
            for t in candidates {
                let free = self.free_during(t, t.saturating_add(dur));
                if free.len() >= width {
                    return Some((t, free.take_first(width)));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }
    fn d(x: u64) -> Dur {
        Dur::from_ticks(x)
    }

    /// The processors free throughout `[start, end)` (at `start` when the
    /// window is empty), read through the fit query: its answer at the
    /// widest width that fits there.
    fn free(tl: &Timeline, start: Time, end: Time) -> ProcSet {
        (0..=tl.capacity().len())
            .rev()
            .find_map(|w| tl.earliest_slot_within(start, start, end - start, w))
            .expect("width 0 always fits")
            .1
    }

    #[test]
    fn book_and_free() {
        let mut tl = Timeline::with_procs(4);
        let id = tl.book(t(10), t(20), ProcSet::range(0, 2), BookingKind::Job);
        assert_eq!(free(&tl, t(5), t(5)), ProcSet::full(4));
        assert_eq!(free(&tl, t(10), t(10)), ProcSet::range(2, 4));
        assert_eq!(free(&tl, t(19), t(19)), ProcSet::range(2, 4));
        assert_eq!(
            free(&tl, t(20), t(20)),
            ProcSet::full(4),
            "end is exclusive"
        );
        tl.remove(id);
        assert_eq!(free(&tl, t(15), t(15)), ProcSet::full(4));
        tl.assert_profile_consistent();
    }

    #[test]
    fn conflicts_rejected() {
        let mut tl = Timeline::with_procs(4);
        tl.book(t(0), t(10), ProcSet::range(0, 2), BookingKind::Job);
        let err = tl
            .try_book(t(5), t(15), ProcSet::range(1, 3), BookingKind::Job)
            .unwrap_err();
        assert!(matches!(err, BookError::Conflict(_)));
        // Same procs, adjacent in time: fine (end exclusive).
        tl.try_book(t(10), t(15), ProcSet::range(0, 2), BookingKind::Job)
            .unwrap();
        // Outside capacity.
        let err = tl
            .try_book(t(0), t(1), ProcSet::range(3, 5), BookingKind::Job)
            .unwrap_err();
        assert_eq!(err, BookError::OutsideCapacity);
        // Negative interval.
        let err = tl
            .try_book(t(5), t(4), ProcSet::new(), BookingKind::Job)
            .unwrap_err();
        assert_eq!(err, BookError::NegativeInterval);
        tl.assert_profile_consistent();
    }

    #[test]
    fn conflicts_are_named_smallest_id_first() {
        // Three bookings collide with one request. `try_book` names the
        // smallest id, and once that booking is removed, the next smallest:
        // the order in which CiGri kills best-effort runs and the backfill
        // planner clears an outage's node. The newest booking reuses the
        // lowest arena slot, so slot order is not id order.
        let mut tl = Timeline::with_procs(4);
        let x = tl.book(t(0), t(10), ProcSet::range(0, 1), BookingKind::Job);
        let a = tl.book(t(0), t(10), ProcSet::range(3, 4), BookingKind::Job);
        let b = tl.book(t(5), t(20), ProcSet::range(2, 3), BookingKind::BestEffort);
        tl.remove(x);
        let c = tl.book(t(8), t(12), ProcSet::range(0, 2), BookingKind::BestEffort);
        tl.book(t(20), t(30), ProcSet::full(4), BookingKind::Job);
        assert!(a < b && b < c);
        for victim in [a, b, c] {
            let err = tl
                .try_book(t(6), t(9), ProcSet::full(4), BookingKind::Job)
                .unwrap_err();
            assert_eq!(err, BookError::Conflict(victim));
            tl.remove(victim);
        }
        tl.try_book(t(6), t(9), ProcSet::full(4), BookingKind::Job)
            .expect("every collision removed");
        tl.assert_profile_consistent();
    }

    /// The profile by value, owned, plus the free list of arena rows.
    type Snapshot = (Vec<(Time, u32, u32, Vec<u64>)>, Vec<u32>);

    fn snapshot(tl: &Timeline) -> Snapshot {
        let segments = tl.profile.by_value();
        let owned = segments
            .into_iter()
            .map(|(t, count, added, row)| (t, count, added, row.to_vec()))
            .collect();
        (owned, tl.profile.free_rows.clone())
    }

    #[test]
    fn a_refused_booking_changes_nothing() {
        // Segments: [0,10) {3}, [10,20) {0,3}, [20,30) {1,3}, [30,40) {2,3},
        // [40,50) {3}, [50,∞) {}. Ids run z < y < x < w, so the smallest
        // colliding id is not always the one the walk meets first.
        let mut tl = Timeline::with_procs(4);
        let z = tl.book(t(30), t(40), ProcSet::from_indices([2]), BookingKind::Job);
        let y = tl.book(t(20), t(30), ProcSet::from_indices([1]), BookingKind::Job);
        let x = tl.book(t(10), t(20), ProcSet::from_indices([0]), BookingKind::Job);
        tl.book(t(0), t(50), ProcSet::from_indices([3]), BookingKind::Job);
        // Two recycled rows, so the splits below take rows from the free
        // list, and its order is observable.
        let tmp = tl.book(t(1), t(2), ProcSet::from_indices([0]), BookingKind::Job);
        tl.remove(tmp);
        assert_eq!(tl.profile.free_rows.len(), 2);
        let before = snapshot(&tl);
        // (procs, window, expected conflict): the clash at the first, an
        // interior and the last covered segment, with both edges on
        // existing boundaries, with both edges split, and with the end
        // split inside the last, unbounded segment.
        let cases = [
            ([0], (10, 40), x),
            ([0], (15, 35), x),
            ([1], (10, 40), y),
            ([1], (12, 38), y),
            ([2], (10, 40), z),
            ([2], (12, 38), z),
            ([2], (35, 60), z),
            ([0], (5, 12), x),
        ];
        for (procs, (s, e), victim) in cases {
            let procs = ProcSet::from_indices(procs);
            let err = tl
                .try_book(t(s), t(e), procs.clone(), BookingKind::Job)
                .unwrap_err();
            assert_eq!(err, BookError::Conflict(victim), "{procs} on [{s}, {e})");
            assert_eq!(snapshot(&tl), before, "{procs} on [{s}, {e})");
            tl.assert_profile_consistent();
        }
        // Two collisions: the walk meets x's row first, the smallest id is z.
        let err = tl
            .try_book(
                t(10),
                t(40),
                ProcSet::from_indices([0, 2]),
                BookingKind::Job,
            )
            .unwrap_err();
        assert_eq!(err, BookError::Conflict(z));
        assert_eq!(snapshot(&tl), before);
        // A booking that fits after the refusals still lands.
        tl.book(t(20), t(38), ProcSet::from_indices([0]), BookingKind::Job);
        tl.assert_profile_consistent();
    }

    #[test]
    fn zero_length_bookings_occupy_nothing() {
        let mut tl = Timeline::with_procs(2);
        tl.book(t(5), t(5), ProcSet::range(0, 2), BookingKind::Job);
        // The same procs can be booked over that instant.
        tl.book(t(0), t(10), ProcSet::range(0, 2), BookingKind::Job);
        assert_eq!(tl.n_bookings(), 2);
        tl.assert_profile_consistent();
    }

    #[test]
    fn free_sets_over_windows() {
        let mut tl = Timeline::with_procs(3);
        tl.book(t(10), t(20), ProcSet::range(0, 1), BookingKind::Job);
        tl.book(t(30), t(40), ProcSet::range(1, 2), BookingKind::Job);
        assert_eq!(free(&tl, t(0), t(10)), ProcSet::full(3));
        assert_eq!(free(&tl, t(5), t(15)), ProcSet::range(1, 3));
        assert_eq!(free(&tl, t(15), t(35)), ProcSet::from_indices([2]));
        assert_eq!(free(&tl, t(20), t(30)), ProcSet::full(3));
        // Degenerate window = instant.
        assert_eq!(free(&tl, t(15), t(15)), ProcSet::range(1, 3));
    }

    #[test]
    fn earliest_slot_waits_for_ends() {
        let mut tl = Timeline::with_procs(2);
        tl.book(t(0), t(100), ProcSet::from_indices([0]), BookingKind::Job);
        tl.book(t(0), t(50), ProcSet::from_indices([1]), BookingKind::Job);
        // Width 1 becomes free at 50 (proc 1).
        let (start, procs) = tl.earliest_slot(t(0), d(10), 1).unwrap();
        assert_eq!(start, t(50));
        assert_eq!(procs, ProcSet::from_indices([1]));
        // Width 2 requires waiting until 100.
        let (start, procs) = tl.earliest_slot(t(0), d(10), 2).unwrap();
        assert_eq!(start, t(100));
        assert_eq!(procs, ProcSet::full(2));
        // Impossible width.
        assert_eq!(tl.earliest_slot(t(0), d(1), 3), None);
    }

    #[test]
    fn earliest_slot_fits_into_hole() {
        let mut tl = Timeline::with_procs(2);
        // Proc 0 busy [0,10) and [20,30): hole [10,20).
        tl.book(t(0), t(10), ProcSet::from_indices([0]), BookingKind::Job);
        tl.book(t(20), t(30), ProcSet::from_indices([0]), BookingKind::Job);
        tl.book(t(0), t(30), ProcSet::from_indices([1]), BookingKind::Job);
        // A 10-long width-1 job fits exactly in the hole.
        let (start, procs) = tl.earliest_slot(t(0), d(10), 1).unwrap();
        assert_eq!((start, procs), (t(10), ProcSet::from_indices([0])));
        // An 11-long job does not; it must wait until 30.
        let (start, _) = tl.earliest_slot(t(0), d(11), 1).unwrap();
        assert_eq!(start, t(30));
    }

    #[test]
    fn a_reoccupied_processor_sends_the_fit_test_down_the_recount_path() {
        // Processor 0 is busy in the window's first segment, freed, then
        // busy again: the certified bound counts it twice (1 + 0 + 1 = 2
        // busy of 2), so the union must be recounted (1 busy), and the
        // window still fits one job. Later on, proc 1 joins the union for
        // real and the recount confirms the overflow.
        let book = [
            (0, 10, 0),
            (20, 30, 0),
            (40, 50, 0),
            (35, 45, 1),
            (60, 70, 0),
        ];
        let mut tl = Timeline::with_procs(2);
        let mut oracle = naive::NaiveTimeline::with_procs(2);
        for (s, e, p) in book {
            let procs = ProcSet::from_indices([p]);
            tl.book(t(s), t(e), procs.clone(), BookingKind::Job);
            oracle
                .try_book(t(s), t(e), procs, BookingKind::Job)
                .unwrap();
        }
        tl.assert_profile_consistent();
        for (earliest, latest, dur) in [(0, 0, 30), (0, 0, 35), (0, 100, 45), (0, 100, 75)] {
            let expect = oracle.earliest_slot_within(t(earliest), t(latest), d(dur), 1);
            assert_eq!(
                tl.earliest_slot_within(t(earliest), t(latest), d(dur), 1),
                expect,
                "[{earliest}, {latest}] for {dur}"
            );
        }
        assert_eq!(
            tl.earliest_slot_within(t(0), t(0), d(30), 1),
            Some((t(0), ProcSet::from_indices([1])))
        );
        assert_eq!(tl.earliest_slot_within(t(0), t(0), d(40), 1), None);
    }

    #[test]
    fn earliest_slot_respects_release_and_deadline() {
        let mut tl = Timeline::with_procs(1);
        tl.book(t(10), t(20), ProcSet::from_indices([0]), BookingKind::Job);
        let (start, _) = tl.earliest_slot(t(3), d(5), 1).unwrap();
        assert_eq!(start, t(3), "release honoured when free");
        // Latest start 15 excludes the post-booking candidate (20).
        assert_eq!(tl.earliest_slot_within(t(12), t(15), d(5), 1), None);
        let got = tl.earliest_slot_within(t(12), t(25), d(5), 1).unwrap();
        assert_eq!(got.0, t(20));
    }

    #[test]
    fn earliest_slot_rejects_windows_past_the_tick_axis() {
        // Regression: window ends were computed with `saturating_add`,
        // silently shortening windows near `Time::MAX` so an infeasible
        // booking could look feasible. A window that would end past
        // `Time::MAX` is infeasible; one ending exactly at `Time::MAX`
        // still fits.
        let tl = Timeline::with_procs(2);
        // `earliest + dur` overflows: no slot, even on an empty timeline.
        assert_eq!(tl.earliest_slot(t(u64::MAX - 10), d(100), 1), None);
        assert_eq!(tl.earliest_slot(Time::MAX, d(1), 1), None);
        // The exact boundary is still feasible.
        let (start, _) = tl.earliest_slot(t(u64::MAX - 100), d(100), 1).unwrap();
        assert_eq!(start, t(u64::MAX - 100));
        // Zero-width requests keep their trivial answer.
        assert_eq!(
            tl.earliest_slot(t(u64::MAX - 10), d(100), 0).map(|s| s.0),
            Some(t(u64::MAX - 10))
        );
    }

    #[test]
    fn sweep_walk_stops_at_overflowing_candidates() {
        // The walk variant of the same regression: the candidate produced
        // by a busy-decrease boundary near `Time::MAX` must not be reported
        // feasible via a silently truncated window.
        let mut tl = Timeline::with_procs(1);
        tl.book(
            t(10),
            t(u64::MAX - 50),
            ProcSet::from_indices([0]),
            BookingKind::Job,
        );
        // Candidate 0 fails (booking in the way); the only busy-decrease
        // boundary is MAX-50, whose window [MAX-50, MAX-50+100) overflows.
        assert_eq!(tl.earliest_slot(t(0), d(100), 1), None);
        // A duration that fits the tail exactly is still found there.
        let (start, _) = tl.earliest_slot(t(0), d(50), 1).unwrap();
        assert_eq!(start, t(u64::MAX - 50));
    }

    #[test]
    fn latest_start_cutoff_is_honoured_by_the_sweep() {
        // Regression for the sweep walk: feasible busy-decrease boundaries
        // beyond `latest_start` must not be visited, boundaries exactly at
        // the cutoff must, and an infeasible `earliest` stays the only
        // candidate when the cutoff precedes it.
        let mut tl = Timeline::with_procs(2);
        tl.book(t(0), t(30), ProcSet::from_indices([0]), BookingKind::Job);
        tl.book(t(0), t(50), ProcSet::from_indices([1]), BookingKind::Job);
        // Width 2 frees at 50; cutoff 49 rejects, cutoff exactly 50 accepts.
        assert_eq!(tl.earliest_slot_within(t(0), t(49), d(5), 2), None);
        assert_eq!(
            tl.earliest_slot_within(t(0), t(50), d(5), 2).map(|s| s.0),
            Some(t(50))
        );
        // Width 1 frees at 30 (an interior boundary <= cutoff).
        assert_eq!(
            tl.earliest_slot_within(t(0), t(49), d(5), 1).map(|s| s.0),
            Some(t(30))
        );
        // Cutoff before `earliest`: the historical candidate set still
        // tests `earliest` itself (and nothing else).
        assert_eq!(
            tl.earliest_slot_within(t(60), t(10), d(5), 2).map(|s| s.0),
            Some(t(60))
        );
        assert_eq!(tl.earliest_slot_within(t(40), t(10), d(5), 2), None);
    }

    #[test]
    fn zero_width_slot_is_immediate() {
        let tl = Timeline::with_procs(1);
        assert_eq!(
            tl.earliest_slot(t(7), d(100), 0),
            Some((t(7), ProcSet::new()))
        );
    }

    #[test]
    fn truncate_kills_tail() {
        let mut tl = Timeline::with_procs(1);
        let id = tl.book(t(0), t(100), ProcSet::full(1), BookingKind::BestEffort);
        assert_eq!(tl.truncate(id, t(40)), Some(t(40)));
        assert_eq!(tl.booking(id).unwrap().end, t(40));
        assert_eq!(free(&tl, t(50), t(50)), ProcSet::full(1));
        // Truncating before start removes (and reports the start).
        let id2 = tl.book(t(50), t(60), ProcSet::full(1), BookingKind::BestEffort);
        assert_eq!(tl.truncate(id2, t(50)), Some(t(50)));
        assert!(tl.booking(id2).is_none());
        assert_eq!(tl.n_bookings(), 1);
        // Truncating past the end is a no-op.
        assert_eq!(tl.truncate(id, t(1000)), Some(t(40)));
        // Unknown id.
        assert_eq!(tl.truncate(id2, t(55)), None);
        tl.assert_profile_consistent();
    }

    #[test]
    fn gc_drops_past_bookings() {
        let mut tl = Timeline::with_procs(1);
        tl.book(t(0), t(10), ProcSet::full(1), BookingKind::Job);
        let keep = tl.book(t(5), t(30), ProcSet::new(), BookingKind::Job);
        tl.gc(t(10));
        assert_eq!(tl.n_bookings(), 1);
        assert!(tl.booking(keep).is_some());
        tl.assert_profile_consistent();
    }

    #[test]
    fn profile_stays_coalesced_and_bounded() {
        let mut tl = Timeline::with_procs(8);
        let mut ids = Vec::new();
        for i in 0..50u64 {
            let p0 = (i % 7) as usize;
            let id = tl.book(
                t(i * 3),
                t(i * 3 + 10),
                ProcSet::range(p0, p0 + 1),
                BookingKind::Job,
            );
            ids.push(id);
            assert!(
                tl.n_segments() <= 2 * tl.n_bookings() + 1,
                "{} segments for {} bookings",
                tl.n_segments(),
                tl.n_bookings()
            );
        }
        tl.assert_profile_consistent();
        for id in ids.iter().step_by(2) {
            tl.remove(*id);
        }
        tl.assert_profile_consistent();
        tl.gc(t(100));
        tl.assert_profile_consistent();
        for id in ids {
            tl.truncate(id, t(80));
        }
        tl.assert_profile_consistent();
        assert!(tl.n_segments() <= 2 * tl.n_bookings() + 1);
    }

    #[test]
    #[should_panic(expected = "booking at T9 lies before the timeline horizon T10")]
    fn booking_before_the_horizon_panics() {
        let mut tl = Timeline::with_procs(2);
        tl.forget_before(t(10));
        // Even a booking reaching past the horizon: its start is unknown
        // territory.
        tl.book(t(9), t(20), ProcSet::full(2), BookingKind::Job);
    }

    #[test]
    fn querying_before_the_horizon_panics() {
        let mut tl = Timeline::with_procs(2);
        tl.book(t(0), t(30), ProcSet::from_indices([0]), BookingKind::Job);
        tl.forget_before(t(10));
        // At the horizon every query answers as before forgetting.
        assert_eq!(free(&tl, t(10), t(10)), ProcSet::from_indices([1]));
        assert_eq!(free(&tl, t(10), t(40)), ProcSet::from_indices([1]));
        assert_eq!(tl.earliest_slot(t(10), d(5), 2).map(|s| s.0), Some(t(30)));
        let refused = |name: &str, query: &dyn Fn()| {
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(query)).expect_err(name);
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("before the timeline horizon"), "{name}: {msg}");
        };
        refused("earliest_slot", &|| {
            tl.earliest_slot(t(9), d(5), 1);
        });
        refused("earliest_slot_within", &|| {
            tl.earliest_slot_within(t(9), t(9), d(5), 1);
        });
    }

    #[test]
    fn forgetting_keeps_the_profile_equal_to_the_clipped_rebuild() {
        let mut tl = Timeline::with_procs(4);
        let done = tl.book(t(0), t(10), ProcSet::range(0, 2), BookingKind::Job);
        let straddle = tl.book(t(5), t(40), ProcSet::range(2, 4), BookingKind::Job);
        let cut = tl.book(t(10), t(50), ProcSet::range(0, 1), BookingKind::Job);
        let later = tl.book(t(60), t(70), ProcSet::full(4), BookingKind::Job);
        let segments = tl.n_segments();
        tl.forget_before(t(20));
        tl.assert_profile_consistent();
        assert!(tl.n_segments() < segments, "the past was dropped");
        // Forgetting is monotone: an earlier instant changes nothing.
        tl.forget_before(t(15));
        tl.assert_profile_consistent();
        assert!(free(&tl, t(20), t(20)).is_disjoint(&ProcSet::from_indices([0, 2, 3])));
        // Work that ended by the horizon frees only its arena slot.
        assert!(tl.remove(done).is_some());
        tl.assert_profile_consistent();
        // A booking straddling the horizon leaves its remaining part.
        assert!(tl.remove(straddle).is_some());
        tl.assert_profile_consistent();
        assert_eq!(free(&tl, t(20), t(20)), ProcSet::range(1, 4));
        // Truncating to an instant before the horizon clips the edit too.
        assert_eq!(tl.truncate(cut, t(15)), Some(t(15)));
        tl.assert_profile_consistent();
        assert_eq!(free(&tl, t(20), t(60)), ProcSet::full(4));
        // A boundary exactly at the new horizon becomes the anchor.
        tl.forget_before(t(60));
        tl.assert_profile_consistent();
        assert_eq!(free(&tl, t(60), t(60)), ProcSet::new());
        tl.gc(t(70));
        tl.assert_profile_consistent();
        assert!(tl.booking(later).is_none());
        assert_eq!(tl.n_segments(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::naive::NaiveTimeline;
    use super::*;
    use proptest::prelude::*;

    fn t(x: u64) -> Time {
        Time::from_ticks(x)
    }

    /// Machine sizes every property runs at: one inline word (6), five heap
    /// words (300) and sixteen heap words (1024).
    const MACHINES: [usize; 3] = [6, 300, 1024];

    /// Map a processor range drawn for a 6-processor machine onto `m`
    /// processors: each of the six units becomes `m / 6` processors, and
    /// `jit` shifts the start so wide ranges begin and end inside words and
    /// cross word boundaries. The identity at `m = 6`.
    fn scaled_range(m: usize, p0: usize, w: usize, jit: usize) -> ProcSet {
        let unit = m / 6;
        let lo = (p0 * unit + jit % unit).min(m);
        ProcSet::range(lo, (lo + w * unit).min(m))
    }

    /// Map a request width drawn for a 6-processor machine onto `m`
    /// processors, `jit` trimming it off a unit multiple. The identity at
    /// `m = 6`; zero stays zero.
    fn scaled_width(m: usize, width: usize, jit: usize) -> usize {
        let unit = m / 6;
        (width * unit).saturating_sub(jit % unit)
    }

    proptest! {
        /// Whatever earliest_slot returns can actually be booked, and no
        /// earlier candidate with the same parameters is feasible at the
        /// booking-end granularity.
        #[test]
        fn slot_results_are_bookable(
            machine in 0usize..MACHINES.len(),
            intervals in prop::collection::vec((0u64..200, 1u64..60, 0usize..6, 1usize..4, 0usize..1024), 0..12),
            earliest in 0u64..100,
            dur in 1u64..50,
            width in 1usize..6,
            wjit in 0usize..1024,
        ) {
            let m = MACHINES[machine];
            let width = scaled_width(m, width, wjit);
            let mut tl = Timeline::with_procs(m);
            for (s, len, p0, w, jit) in intervals {
                let procs = scaled_range(m, p0, w, jit);
                if procs.is_empty() { continue; }
                // Only keep bookings that do not conflict (building a valid
                // schedule incrementally).
                let _ = tl.try_book(t(s), t(s + len), procs, BookingKind::Job);
            }
            tl.assert_profile_consistent();
            if let Some((start, procs)) = tl.earliest_slot(t(earliest), Dur::from_ticks(dur), width) {
                prop_assert!(start >= t(earliest));
                prop_assert_eq!(procs.len(), width);
                // Booking the returned slot must succeed.
                let mut tl2 = tl.clone();
                prop_assert!(tl2.try_book(start, start + Dur::from_ticks(dur), procs, BookingKind::Job).is_ok());
                // Starting at `earliest` itself must fail unless that is the answer.
                if start > t(earliest) {
                    prop_assert_eq!(
                        tl.earliest_slot_within(t(earliest), t(earliest), Dur::from_ticks(dur), width),
                        None
                    );
                }
            } else {
                prop_assert!(width > m);
            }
        }
    }

    /// The candidates the slot walk must offer its window test when every
    /// offer is refused, each with the segment its window starts in:
    /// `earliest`, then every boundary in `(earliest, latest]` that frees
    /// a processor and whose window covers no segment holding more than
    /// `max_busy` busy processors, up to the first candidate whose window
    /// end overflows. Derived segment by segment, without the walk's
    /// forward indices.
    fn offers_by_count(
        tl: &Timeline,
        earliest: Time,
        latest: Time,
        dur: Dur,
        max_busy: usize,
    ) -> Vec<(Time, usize)> {
        let p = &tl.profile;
        let at = p.idx_at(earliest);
        let frees = |i: usize| p.meta[i].count < p.meta[i - 1].count + p.meta[i].added;
        let candidates = (at + 1..p.starts.len())
            .filter(|&i| p.starts[i] <= latest && frees(i))
            .map(|i| (p.starts[i], i));
        let mut offers = Vec::new();
        for (t, i) in std::iter::once((earliest, at)).chain(candidates) {
            let Some(end) = t.checked_add(dur) else {
                break;
            };
            let covered = (i + 1..p.starts.len()).take_while(|&j| p.starts[j] < end);
            let clean = std::iter::once(i)
                .chain(covered)
                .all(|s| p.meta[s].count as usize <= max_busy);
            if i == at || clean {
                offers.push((t, i));
            }
        }
        offers
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Deep backlogs: 60–200 jobs released together, each placed at its
        /// earliest slot on both the timeline and the naive oracle, build
        /// the near-saturated, alternating profiles a conservative backlog
        /// has and short random interleavings rarely reach. Every placement
        /// and every later query agrees with the oracle, and the slot walk,
        /// its window test refusing everything, offers `earliest` and
        /// exactly the boundary candidates no segment rules out by count.
        #[test]
        fn deep_backlog_slot_queries_match_the_oracle(
            jobs in prop::collection::vec((0u64..30, 1u64..80, 1usize..6, 0usize..1024), 60..200),
            queries in prop::collection::vec((0u64..40, 0u64..400, 0u64..200, 1usize..7, 0usize..1024), 12),
        ) {
            for m in MACHINES {
                let mut fast = Timeline::with_procs(m);
                let mut slow = NaiveTimeline::with_procs(m);
                for &(release, len, width, wjit) in &jobs {
                    let width = scaled_width(m, width, wjit).max(1);
                    let dur = Dur::from_ticks(len);
                    let placed = fast.earliest_slot(t(release), dur, width);
                    prop_assert_eq!(
                        &placed,
                        &slow.earliest_slot_within(t(release), Time::MAX, dur, width),
                        "placing width {} for {} from {}", width, len, release
                    );
                    let (start, procs) = placed.expect("width fits the machine");
                    fast.book(start, start + dur, procs.clone(), BookingKind::Job);
                    slow.try_book(start, start + dur, procs, BookingKind::Job).expect("oracle agrees");
                }
                fast.assert_profile_consistent();
                for &(earliest, latest, dur, width, wjit) in &queries {
                    let width = scaled_width(m, width, wjit).min(m);
                    let (earliest, latest, dur) = (t(earliest), t(latest), Dur::from_ticks(dur));
                    prop_assert_eq!(
                        fast.earliest_slot_within(earliest, latest, dur, width),
                        slow.earliest_slot_within(earliest, latest, dur, width),
                        "earliest_slot_within({:?}, {:?}, {:?}, {})", earliest, latest, dur, width
                    );
                    if width == 0 {
                        continue;
                    }
                    let max_busy = m - width;
                    let mut offered = Vec::new();
                    fast.slot_walk(earliest, latest, dur, max_busy, |t, first, _| {
                        offered.push((t, first));
                        None::<()>
                    });
                    prop_assert_eq!(
                        offered,
                        offers_by_count(&fast, earliest, latest, dur, max_busy),
                        "offers for ({:?}, {:?}, {:?}, {})", earliest, latest, dur, width
                    );
                }
            }
        }
    }

    /// One mutation of the differential interleaving.
    #[derive(Clone, Debug)]
    enum Op {
        Book {
            start: u64,
            len: u64,
            p0: usize,
            w: usize,
            jit: usize,
        },
        Remove {
            pick: usize,
        },
        Truncate {
            pick: usize,
            at: u64,
        },
        Gc {
            at: u64,
        },
        /// Forget before `at`, raised to the current horizon so the
        /// applied horizons are non-decreasing.
        Forget {
            at: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Books dominate (selectors 0–3) so timelines actually fill up;
        // len 0 and width 0 exercise the degenerate paths.
        (
            0usize..8,
            (0u64..120, 0u64..40, 0usize..6, 0usize..4, 0usize..1024),
            0usize..32,
            0u64..160,
        )
            .prop_map(|(sel, (start, len, p0, w, jit), pick, at)| match sel {
                0..=3 => Op::Book {
                    start,
                    len,
                    p0,
                    w,
                    jit,
                },
                4 => Op::Remove { pick },
                5 => Op::Truncate { pick, at },
                6 => Op::Gc { at },
                _ => Op::Forget { at },
            })
    }

    proptest! {
        /// The profile-based timeline agrees with the naive full-scan
        /// oracle on **every** query API under random interleavings of
        /// book / remove / truncate / gc / forget — including degenerate
        /// bookings, rejected bookings (same error, same conflict id) and
        /// empty query windows. The oracle never forgets, so bookings and
        /// queries are raised to the horizon: the two must agree at and
        /// after it.
        #[test]
        fn differential_vs_naive_oracle(
            machine in 0usize..MACHINES.len(),
            ops in prop::collection::vec(op_strategy(), 1..40),
            probes in prop::collection::vec((0u64..200, 0u64..60), 8),
            slots in prop::collection::vec((0u64..150, 0u64..200, 0u64..50, 0usize..8, 0usize..1024), 8),
        ) {
            let m = MACHINES[machine];
            let mut fast = Timeline::with_procs(m);
            let mut slow = NaiveTimeline::with_procs(m);
            // Arena ids pack (seq, slot) while the oracle mints bare
            // sequence numbers; both stamp exactly one new seq per
            // successful book, so ids correspond through the seq half.
            let same_id = |f: BookingId, s: BookingId| f.seq() as u64 == s.0;
            let mut issued: Vec<(BookingId, BookingId)> = Vec::new();
            let mut horizon = 0;
            for op in ops {
                match op {
                    Op::Book { start, len, p0, w, jit } => {
                        let start = start.max(horizon);
                        let procs = scaled_range(m, p0, w, jit);
                        let a = fast.try_book(t(start), t(start + len), procs.clone(), BookingKind::Job);
                        let b = slow.try_book(t(start), t(start + len), procs, BookingKind::Job);
                        match (a, b) {
                            (Ok(fa), Ok(sb)) => {
                                prop_assert!(same_id(fa, sb), "booked ids diverged: {:?} vs {:?}", fa, sb);
                                issued.push((fa, sb));
                            }
                            (Err(BookError::Conflict(fa)), Err(BookError::Conflict(sb))) => {
                                prop_assert!(same_id(fa, sb), "conflict ids diverged: {:?} vs {:?}", fa, sb);
                            }
                            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "try_book errors diverged"),
                            (a, b) => prop_assert!(false, "try_book diverged: {:?} vs {:?}", a, b),
                        }
                    }
                    Op::Remove { pick } => {
                        if issued.is_empty() { continue; }
                        let (fid, sid) = issued[pick % issued.len()];
                        prop_assert_eq!(fast.remove(fid), slow.remove(sid), "remove diverged");
                    }
                    Op::Truncate { pick, at } => {
                        if issued.is_empty() { continue; }
                        let (fid, sid) = issued[pick % issued.len()];
                        prop_assert_eq!(fast.truncate(fid, t(at)), slow.truncate(sid, t(at)), "truncate diverged");
                    }
                    Op::Gc { at } => {
                        fast.gc(t(at));
                        slow.gc(t(at));
                    }
                    Op::Forget { at } => {
                        horizon = horizon.max(at);
                        fast.forget_before(t(horizon));
                    }
                }
                prop_assert_eq!(fast.n_bookings(), slow.n_bookings());
                fast.assert_profile_consistent();
            }
            // Query battery over the final state: every query API, at or
            // after the horizon.
            for &(p, len) in &probes {
                let p = p.max(horizon);
                // The free set through the fit query: its widest fit is the
                // whole set, one processor more does not fit.
                let free = slow.free_during(t(p), t(p + len));
                let w = free.len();
                prop_assert_eq!(
                    fast.earliest_slot_within(t(p), t(p), Dur::from_ticks(len), w),
                    Some((t(p), free)),
                    "free set of [{p}, {})", p + len
                );
                prop_assert_eq!(
                    fast.earliest_slot_within(t(p), t(p), Dur::from_ticks(len), w + 1),
                    None,
                    "width {} over [{p}, {})", w + 1, p + len
                );
            }
            for &(earliest, latest, dur, width, wjit) in &slots {
                let earliest = earliest.max(horizon);
                let width = scaled_width(m, width, wjit);
                let a = fast.earliest_slot_within(t(earliest), t(latest), Dur::from_ticks(dur), width);
                let b = slow.earliest_slot_within(t(earliest), t(latest), Dur::from_ticks(dur), width);
                prop_assert_eq!(
                    a, b,
                    "earliest_slot_within({earliest}, {latest}, {dur}, {width})"
                );
                let a = fast.earliest_slot(t(earliest), Dur::from_ticks(dur), width);
                let b = slow.earliest_slot_within(t(earliest), Time::MAX, Dur::from_ticks(dur), width);
                prop_assert_eq!(a, b, "earliest_slot({earliest}, {dur}, {width})");
            }
        }
    }
}
