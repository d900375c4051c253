//! Profile edits allocate nothing once the timeline has grown, a slot
//! query allocates only its answer, and a copy of that answer allocates
//! only when the answer lives on the heap.
//!
//! A rolling planner timeline on 1024 processors forgets its past, frees
//! expired bookings, books their processor sets again further out and
//! trims a tail each round. Every busy set there spans more than 256
//! processors, too wide to live inline in a `ProcSet`, so a profile that
//! copied a busy set on every boundary split would allocate on nearly
//! every edit. A counting global allocator checks that, after warm-up,
//! the rounds make no allocation at all, and that an answered
//! `earliest_slot` allocates once, for the processor set it returns, and
//! not at all when that set fits inline; cloning that set, as a placement
//! does for its booking, allocates likewise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use lsps_des::{Dur, Time};
use lsps_platform::{BookingId, BookingKind, ProcSet, Timeline};

/// Counts every allocation and reallocation of the calling thread, then
/// defers to [`System`]. Per thread, so tests running side by side do not
/// count each other's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's last deallocations may outlive its slot.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const M: usize = 1024;
/// Processors `256..1024` in 24 lanes of 32; each lane books back to back.
const LANES: usize = 24;
const LANE_WIDTH: usize = 32;
/// Bookings per lane, so about a thousand live bookings in all.
const PER_LANE: usize = 40;
const WARMUP_ROUNDS: u64 = 2_000;
const ROUNDS: u64 = 2_000;

/// One lane: its live bookings in time order and the end of the last.
struct Lane {
    live: VecDeque<BookingId>,
    tail: Time,
}

/// A deterministic xorshift stream for lengths and gaps.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Book `procs` after the lane's tail, behind a gap of 0–9 ticks, for
/// 20–119 ticks.
fn book_after(tl: &mut Timeline, lane: &mut Lane, procs: ProcSet, rng: &mut u64) {
    let start = lane.tail + Dur::from_ticks(next(rng) % 10);
    let end = start + Dur::from_ticks(20 + next(rng) % 100);
    lane.live
        .push_back(tl.book(start, end, procs, BookingKind::Job));
    lane.tail = end;
}

/// One planner round at `now`: forget the past, free every expired
/// booking and book its processors again after its lane's tail, then trim
/// the last booking of one lane by a tick while it is longer than that.
fn round(tl: &mut Timeline, lanes: &mut [Lane], now: Time, k: u64, rng: &mut u64) {
    tl.forget_before(now);
    for lane in lanes.iter_mut() {
        while let Some(&id) = lane.live.front() {
            if tl.booking(id).expect("live").end > now {
                break;
            }
            lane.live.pop_front();
            let done = tl.remove(id).expect("live");
            book_after(tl, lane, done.procs, rng);
        }
    }
    let lane = &mut lanes[k as usize % LANES];
    let last = *lane.live.back().expect("lanes are never empty");
    let b = tl.booking(last).expect("live");
    if b.end - b.start > Dur::from_ticks(1) {
        let at = b.end - Dur::from_ticks(1);
        lane.tail = tl.truncate(last, at).expect("live");
    }
}

#[test]
fn rolling_profile_edits_allocate_nothing_after_warmup() {
    let mut tl = Timeline::with_procs(M);
    let mut rng = 0x9e37_79b9_7f4a_7c15;
    let mut lanes: Vec<Lane> = (0..LANES)
        .map(|_| Lane {
            live: VecDeque::with_capacity(PER_LANE + 1),
            tail: Time::ZERO,
        })
        .collect();
    for (j, lane) in lanes.iter_mut().enumerate() {
        let lo = 256 + j * LANE_WIDTH;
        for _ in 0..PER_LANE {
            book_after(&mut tl, lane, ProcSet::range(lo, lo + LANE_WIDTH), &mut rng);
        }
    }
    let step = Dur::from_ticks(5);
    let mut now = Time::ZERO;
    for k in 0..WARMUP_ROUNDS {
        now += step;
        round(&mut tl, &mut lanes, now, k, &mut rng);
    }
    let before = allocations();
    for k in WARMUP_ROUNDS..WARMUP_ROUNDS + ROUNDS {
        now += step;
        round(&mut tl, &mut lanes, now, k, &mut rng);
    }
    let made = allocations() - before;
    assert_eq!(tl.n_bookings(), LANES * PER_LANE);
    assert_eq!(
        made, 0,
        "{ROUNDS} rounds after warm-up allocated {made} times"
    );
}

#[test]
fn an_answered_slot_query_allocates_once() {
    // Processors 0..512 busy on [0, 100) and 512..1024 on [50, 150). A
    // 300-wide job fits at 0 on processors 512..812, words 8 to 12 of the
    // answer, so the answer lives on the heap. From 100 on, processors
    // 0..16 are free and a 16-wide answer stays inline.
    let mut tl = Timeline::with_procs(M);
    tl.book(
        Time::ZERO,
        Time::from_ticks(100),
        ProcSet::range(0, 512),
        BookingKind::Job,
    );
    tl.book(
        Time::from_ticks(50),
        Time::from_ticks(150),
        ProcSet::range(512, M),
        BookingKind::Job,
    );
    let query = |dur: u64, width: usize| {
        let before = allocations();
        let answer = tl.earliest_slot(Time::ZERO, Dur::from_ticks(dur), width);
        (answer, allocations() - before)
    };
    assert_eq!(
        query(50, 300),
        (Some((Time::ZERO, ProcSet::range(512, 812))), 1),
        "a heap answer allocates once"
    );
    assert_eq!(
        query(60, 16),
        (Some((Time::from_ticks(100), ProcSet::range(0, 16))), 0),
        "an inline answer allocates nothing"
    );
}

#[test]
fn cloning_an_answer_allocates_only_when_it_spills() {
    // A placement books a copy of its answer. Processors 0..512 are busy
    // on [0, 100): a 300-wide answer at 0 is processors 512..812, on the
    // heap, and its copy allocates once; a 256-wide answer asked from 100
    // on is processors 0..256, inline, and its copy allocates nothing.
    let mut tl = Timeline::with_procs(M);
    tl.book(
        Time::ZERO,
        Time::from_ticks(100),
        ProcSet::range(0, 512),
        BookingKind::Job,
    );
    let answer = |from: u64, width: usize| {
        tl.earliest_slot(Time::from_ticks(from), Dur::from_ticks(50), width)
            .expect("fits")
            .1
    };
    let copy = |procs: &ProcSet| {
        let before = allocations();
        let copy = procs.clone();
        let made = allocations() - before;
        assert_eq!(&copy, procs);
        made
    };
    let wide = answer(0, 300);
    assert_eq!(wide, ProcSet::range(512, 812));
    assert_eq!(copy(&wide), 1, "a heap answer's copy allocates once");
    let narrow = answer(100, 256);
    assert_eq!(narrow, ProcSet::range(0, 256));
    assert_eq!(
        copy(&narrow),
        0,
        "an inline answer's copy allocates nothing"
    );
}
