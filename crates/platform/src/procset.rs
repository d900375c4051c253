//! Processor identifiers and processor sets.
//!
//! A [`ProcSet`] is a growable bitset over processor indices. Allocations,
//! free maps and reservation masks are all `ProcSet`s; set algebra (union,
//! intersection, difference, disjointness) is word-parallel over `u64`s.
//!
//! Storage is small-size optimized: sets spanning up to
//! `INLINE_WORDS * 64 = 256` processors live inline in the struct (no heap
//! allocation — cloning an allocation on a machine of up to 256
//! processors is a 4-word copy), and only wider sets spill to a
//! `Vec<u64>`, so cloning one allocates once. A set gets its
//! representation when it is built (`from_words` for a whole word slice,
//! spilling when an insertion grows it past the inline words) and keeps
//! it: a clone copies the representation as it is. The two
//! representations are observationally identical: equality, hashing and
//! the serialized form (`{"words": [...]}`) depend only on the logical
//! word content, never on where it is stored.
//!
//! The representation keeps a trailing-zero-word invariant (`normalize`),
//! so equality and emptiness checks are structural; the inline repr
//! additionally keeps its unused words zeroed.
//!
//! The set-algebra kernels also run over raw word slices (`or_words` and
//! friends, crate-private): the timeline's availability profile stores its
//! busy sets as fixed-width rows of one word arena, not as `ProcSet`s, and
//! converts only the answers it returns. Kernels that visit every word are
//! plain `zip` loops, which the compiler vectorizes as they stand; the two
//! that return at the first witness (`disjoint_words`, `subset_words`)
//! test `LANES` words per step.

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Index of a processor within a [`Platform`](crate::Platform)'s global
/// numbering (cluster-major, node-major inside the cluster).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

const WORD_BITS: usize = 64;

/// Words per early-exit step. `disjoint_words` and `subset_words` fold a
/// `LANES`-word block (4×u64 = one 256-bit vector register) branch-free
/// and test it once, so they both vectorize and stop at the first block
/// holding a witness; a 1024-processor machine is 16 words = 4 steps at
/// most. A per-word test would not vectorize, and a fold over the whole
/// slice would not stop early.
const LANES: usize = 4;

/// Words stored inline before spilling to the heap — 256 processors, which
/// covers every rectangle-policy machine in the paper sweeps and the whole
/// open-arrival bench family, so their allocations and bookings never
/// touch the heap.
const INLINE_WORDS: usize = 4;

/// `dst[..src.len()] |= src`. `dst` must be at least as long as `src`.
#[inline]
pub(crate) fn or_words(dst: &mut [u64], src: &[u64]) {
    for (a, &b) in dst[..src.len()].iter_mut().zip(src) {
        *a |= b;
    }
}

/// `dst &= !src` over the two slices' common length.
#[inline]
pub(crate) fn and_not_words(dst: &mut [u64], src: &[u64]) {
    for (a, &b) in dst.iter_mut().zip(src) {
        *a &= !b;
    }
}

/// True iff the two word slices share no set bit.
#[inline]
pub(crate) fn disjoint_words(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a_chunks, a_tail) = a[..n].as_chunks::<LANES>();
    let (b_chunks, b_tail) = b[..n].as_chunks::<LANES>();
    for (a, b) in a_chunks.iter().zip(b_chunks) {
        let mut acc = 0u64;
        for i in 0..LANES {
            acc |= a[i] & b[i];
        }
        if acc != 0 {
            return false;
        }
    }
    a_tail.iter().zip(b_tail).all(|(&a, &b)| a & b == 0)
}

/// True iff every bit set in `a` is set in `b`; words of `a` past `b`'s
/// length must be zero.
#[inline]
pub(crate) fn subset_words(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a_chunks, a_tail) = a[..n].as_chunks::<LANES>();
    let (b_chunks, b_tail) = b[..n].as_chunks::<LANES>();
    for (a, b) in a_chunks.iter().zip(b_chunks) {
        let mut acc = 0u64;
        for i in 0..LANES {
            acc |= a[i] & !b[i];
        }
        if acc != 0 {
            return false;
        }
    }
    a_tail.iter().zip(b_tail).all(|(&a, &b)| a & !b == 0) && a[n..].iter().all(|&a| a == 0)
}

/// `|a \ b|`: the bits set in `a` and not in `b`; words of `a` past `b`'s
/// length survive the difference whole.
#[inline]
pub(crate) fn difference_count_words(a: &[u64], b: &[u64]) -> usize {
    let n = a.len().min(b.len());
    let common: usize = a
        .iter()
        .zip(b)
        .map(|(&a, &b)| (a & !b).count_ones() as usize)
        .sum();
    common + count_words(&a[n..])
}

/// Number of set bits.
#[inline]
pub(crate) fn count_words(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The two storage forms. `Inline` keeps `words[len..]` zeroed so kernels
/// can hand out `&words[..len]` without masking.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Heap(Vec<u64>),
}

/// A set of processors, stored as a bitset.
#[derive(Clone)]
pub struct ProcSet {
    repr: Repr,
}

impl Default for ProcSet {
    fn default() -> Self {
        ProcSet::new()
    }
}

impl PartialEq for ProcSet {
    fn eq(&self, other: &ProcSet) -> bool {
        self.words() == other.words()
    }
}
impl Eq for ProcSet {}

impl Hash for ProcSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Same bytes a `Vec<u64>` would feed the hasher (length prefix +
        // elements), so the repr split is invisible to hash maps.
        self.words().hash(state);
    }
}

impl ProcSet {
    /// The empty set.
    pub fn new() -> Self {
        ProcSet::from_words(&[])
    }

    /// The set holding exactly `words`, which must be normalized: inline
    /// up to [`INLINE_WORDS`] words, else one `to_vec`. The one place a
    /// built set picks its representation. The inline words are filled
    /// element by element: a slice copy here compiles to `memset` and
    /// `memcpy` calls, which took `bench_report`'s `procset_take_first_16`
    /// from 13 to 31 ns on a 2-core x86-64 host.
    #[inline]
    fn from_words(words: &[u64]) -> ProcSet {
        let repr = if words.len() <= INLINE_WORDS {
            Repr::Inline {
                len: words.len() as u8,
                words: std::array::from_fn(|i| words.get(i).copied().unwrap_or(0)),
            }
        } else {
            Repr::Heap(words.to_vec())
        };
        ProcSet { repr }
    }

    /// The set `{0, 1, …, n-1}` — the full capacity of an `n`-processor
    /// machine.
    pub fn full(n: usize) -> Self {
        let mut s = ProcSet::new();
        s.insert_range(0, n);
        s
    }

    /// The set containing the contiguous range `[lo, hi)`.
    pub fn range(lo: usize, hi: usize) -> Self {
        let mut s = ProcSet::new();
        if hi > lo {
            s.insert_range(lo, hi);
        }
        s
    }

    /// Build from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = ProcSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// The logical word content — normalized (no trailing zero words),
    /// independent of where it is stored.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, words } => &words[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Mutable view of the logical words (length unchanged).
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline { len, words } => &mut words[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Number of logical words.
    #[inline]
    fn word_len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Grow to `n` words (zero-filled), spilling inline → heap when `n`
    /// exceeds the inline capacity. Never shrinks.
    fn grow_words(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Inline { len, words } => {
                if n <= INLINE_WORDS {
                    // Unused inline words are already zero.
                    *len = (*len).max(n as u8);
                } else {
                    let mut v = Vec::with_capacity(n);
                    v.extend_from_slice(&words[..*len as usize]);
                    v.resize(n, 0);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => {
                if v.len() < n {
                    v.resize(n, 0);
                }
            }
        }
    }

    /// Shrink to `n` words (no-op if already at most `n`). Inline storage
    /// re-zeroes the dropped words to keep the repr invariant.
    fn truncate_words(&mut self, n: usize) {
        match &mut self.repr {
            Repr::Inline { len, words } => {
                if n < *len as usize {
                    words[n..*len as usize].fill(0);
                    *len = n as u8;
                }
            }
            Repr::Heap(v) => v.truncate(n),
        }
    }

    #[inline]
    fn ensure_word(&mut self, w: usize) {
        if self.word_len() <= w {
            self.grow_words(w + 1);
        }
    }

    fn normalize(&mut self) {
        let words = self.words();
        let mut n = words.len();
        while n > 0 && words[n - 1] == 0 {
            n -= 1;
        }
        self.truncate_words(n);
    }

    /// Add processor `i`. Returns `true` if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.ensure_word(w);
        let word = &mut self.words_mut()[w];
        let had = *word & (1 << b) != 0;
        *word |= 1 << b;
        !had
    }

    /// Add all of `[lo, hi)`.
    pub fn insert_range(&mut self, lo: usize, hi: usize) {
        if hi <= lo {
            return;
        }
        let last = (hi - 1) / WORD_BITS;
        self.ensure_word(last);
        let words = self.words_mut();
        let first = lo / WORD_BITS;
        for (w, word) in words.iter_mut().enumerate().take(last + 1).skip(first) {
            let from = if w == first { lo % WORD_BITS } else { 0 };
            let to = if w == last {
                (hi - 1) % WORD_BITS + 1
            } else {
                WORD_BITS
            };
            let mask = if to - from == WORD_BITS {
                u64::MAX
            } else {
                ((1u64 << (to - from)) - 1) << from
            };
            *word |= mask;
        }
    }

    /// Remove processor `i`. Returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if w >= self.word_len() {
            return false;
        }
        let word = &mut self.words_mut()[w];
        let had = *word & (1 << b) != 0;
        *word &= !(1 << b);
        self.normalize();
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words()
            .get(w)
            .is_some_and(|&word| word & (1 << b) != 0)
    }

    /// Number of processors in the set.
    pub fn len(&self) -> usize {
        count_words(self.words())
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    /// Smallest index in the set.
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Largest index in the set.
    pub fn last(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &ProcSet) {
        self.ensure_word(other.word_len().saturating_sub(1));
        or_words(self.words_mut(), other.words());
        self.normalize();
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &ProcSet) {
        self.truncate_words(other.word_len());
        for (a, &b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= b;
        }
        self.normalize();
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &ProcSet) {
        and_not_words(self.words_mut(), other.words());
        self.normalize();
    }

    /// Union, by value.
    pub fn union(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Intersection, by value.
    pub fn intersection(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Difference, by value.
    pub fn difference(&self, other: &ProcSet) -> ProcSet {
        let mut s = self.clone();
        s.subtract(other);
        s
    }

    /// True iff the two sets share no processor.
    pub fn is_disjoint(&self, other: &ProcSet) -> bool {
        disjoint_words(self.words(), other.words())
    }

    /// True iff every processor of `self` is in `other`.
    pub fn is_subset(&self, other: &ProcSet) -> bool {
        subset_words(self.words(), other.words())
    }

    /// `|self \ other|` without materializing the difference, so a
    /// feasibility test ("are at least `width` of these procs outside that
    /// busy set?") allocates nothing.
    pub fn difference_len(&self, other: &ProcSet) -> usize {
        difference_count_words(self.words(), other.words())
    }

    /// The `k` smallest-index processors of the set (a deterministic
    /// allocation rule: identical machines are interchangeable, so policies
    /// always take the lowest free indices). One popcount per word locates
    /// the word holding the `k`-th member; the answer is every word before
    /// it plus that word's lowest members, built once. Panics if fewer than
    /// `k` processors are available.
    pub fn take_first(&self, k: usize) -> ProcSet {
        ProcSet::take_first_of(self.words(), k)
    }

    /// [`take_first`](Self::take_first) over a raw word slice, which may
    /// carry trailing zero words. The result is built once by `from_words`
    /// from the prefix through the word holding the `k`-th member (inline
    /// when that word is among the first `INLINE_WORDS`), so an answer
    /// allocates at most once. Panics if the slice holds fewer than `k`
    /// processors.
    pub(crate) fn take_first_of(words: &[u64], k: usize) -> ProcSet {
        if k == 0 {
            return ProcSet::new();
        }
        let mut remaining = k;
        let mut last = 0;
        loop {
            let Some(&w) = words.get(last) else {
                panic!("take_first({k}) from a set of {} procs", count_words(words));
            };
            let here = w.count_ones() as usize;
            if here >= remaining {
                break;
            }
            remaining -= here;
            last += 1;
        }
        // The k-th member lies in word `last`: keep its `remaining` lowest
        // set bits, one isolate-lowest-bit step each. The kept word is
        // non-zero, so the prefix is normalized.
        let mut bits = words[last];
        let mut kept = 0u64;
        for _ in 0..remaining {
            let lowest = bits & bits.wrapping_neg();
            kept |= lowest;
            bits ^= lowest;
        }
        let mut prefix = ProcSet::from_words(&words[..=last]);
        prefix.words_mut()[last] = kept;
        prefix
    }

    /// Iterate over members in increasing index order.
    pub fn iter(&self) -> ProcSetIter<'_> {
        ProcSetIter {
            words: self.words(),
            word: 0,
            bits: self.words().first().copied().unwrap_or(0),
        }
    }

    /// Force the heap representation — test hook for the inline-vs-heap
    /// equivalence proptests (the public API never exposes the repr).
    #[cfg(test)]
    fn spilled(self) -> ProcSet {
        ProcSet {
            repr: Repr::Heap(self.words().to_vec()),
        }
    }

    /// True iff the words are stored inline — test hook.
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

// The wire form is `{"words": [...]}` — exactly what the pre-SSO
// `#[derive]` on `struct ProcSet { words: Vec<u64> }` produced. Campaign
// cache keys hash this JSON, so the representation split must never show
// up here.
impl Serialize for ProcSet {
    fn to_value(&self) -> Value {
        let words = Value::Seq(self.words().iter().map(|w| w.to_value()).collect());
        Value::Map(vec![("words".into(), words)])
    }
}

impl Deserialize for ProcSet {
    fn from_value(v: &Value) -> Result<ProcSet, SerdeError> {
        let words: Vec<u64> = Deserialize::from_value(serde::field(v, "words")?)?;
        // Tolerate non-normalized input (hand-written fixtures): drop the
        // trailing zero words before the representation is picked.
        let len = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        Ok(ProcSet::from_words(&words[..len]))
    }
}

/// Iterator over the members of a [`ProcSet`].
pub struct ProcSetIter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for ProcSetIter<'_> {
    type Item = ProcId;

    fn next(&mut self) -> Option<ProcId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1; // clear lowest set bit
                return Some(ProcId((self.word * WORD_BITS + b) as u32));
            }
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
    }
}

impl FromIterator<usize> for ProcSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        ProcSet::from_indices(iter)
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProcSet{{{self}}}")
    }
}

impl fmt::Display for ProcSet {
    /// Renders as compact ranges: `0-3,7,9-10`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut run: Option<(usize, usize)> = None;
        let flush =
            |f: &mut fmt::Formatter<'_>, run: (usize, usize), first: &mut bool| -> fmt::Result {
                if !*first {
                    write!(f, ",")?;
                }
                *first = false;
                if run.0 == run.1 {
                    write!(f, "{}", run.0)
                } else {
                    write!(f, "{}-{}", run.0, run.1)
                }
            };
        for p in self.iter() {
            let i = p.index();
            match run {
                Some((lo, hi)) if i == hi + 1 => run = Some((lo, i)),
                Some(r) => {
                    flush(f, r, &mut first)?;
                    run = Some((i, i));
                }
                None => run = Some((i, i)),
            }
        }
        if let Some(r) = run {
            flush(f, r, &mut first)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 1);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn full_and_range() {
        let s = ProcSet::full(130);
        assert_eq!(s.len(), 130);
        assert!(s.contains(0) && s.contains(129) && !s.contains(130));
        let r = ProcSet::range(60, 70);
        assert_eq!(r.len(), 10);
        assert!(r.contains(60) && r.contains(69) && !r.contains(59) && !r.contains(70));
        assert!(ProcSet::range(5, 5).is_empty());
    }

    #[test]
    fn insert_range_word_boundaries() {
        let mut s = ProcSet::new();
        s.insert_range(63, 65); // straddles the first word boundary
        assert_eq!(
            s.iter().map(|p| p.index()).collect::<Vec<_>>(),
            vec![63, 64]
        );
        let mut t = ProcSet::new();
        t.insert_range(0, 64); // exactly one full word
        assert_eq!(t.len(), 64);
        assert_eq!(t.last(), Some(63));
    }

    #[test]
    fn set_algebra() {
        let a = ProcSet::range(0, 10);
        let b = ProcSet::range(5, 15);
        assert_eq!(a.union(&b), ProcSet::range(0, 15));
        assert_eq!(a.intersection(&b), ProcSet::range(5, 10));
        assert_eq!(a.difference(&b), ProcSet::range(0, 5));
        assert!(a.difference(&b).is_disjoint(&b));
        assert!(!a.is_disjoint(&b));
        assert!(ProcSet::range(5, 10).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(ProcSet::new().is_subset(&a), "∅ ⊆ anything");
        assert!(ProcSet::new().is_disjoint(&ProcSet::new()));
    }

    #[test]
    fn normalization_keeps_equality_structural() {
        let mut a = ProcSet::new();
        a.insert(200);
        a.remove(200);
        assert_eq!(a, ProcSet::new());
        let mut b = ProcSet::range(0, 3);
        b.subtract(&ProcSet::full(300));
        assert_eq!(b, ProcSet::new());
    }

    #[test]
    fn small_sets_stay_inline_and_spill_transparently() {
        // Up to 256 procs: inline, no heap.
        let mut s = ProcSet::full(256);
        assert!(s.is_inline());
        assert!(s.clone().is_inline());
        // Bit 256 needs a fifth word: spills, logically unchanged.
        s.insert(256);
        assert!(!s.is_inline());
        assert_eq!(s.len(), 257);
        assert!(ProcSet::full(256).is_subset(&s));
        // Without the wide member it equals the inline set.
        s.remove(256);
        assert_eq!(s, ProcSet::full(256));
    }

    #[test]
    fn inline_and_heap_reprs_are_equal_and_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        let inline = ProcSet::from_indices([3, 70, 128]);
        let heap = inline.clone().spilled();
        assert!(inline.is_inline() && !heap.is_inline());
        assert_eq!(inline, heap);
        let h = |s: &ProcSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&inline), h(&heap));
    }

    #[test]
    fn first_last_iter() {
        let s = ProcSet::from_indices([3, 70, 128]);
        assert_eq!(s.first(), Some(3));
        assert_eq!(s.last(), Some(128));
        assert_eq!(
            s.iter().map(|p| p.index()).collect::<Vec<_>>(),
            vec![3, 70, 128]
        );
        assert_eq!(ProcSet::new().first(), None);
        assert_eq!(ProcSet::new().last(), None);
    }

    #[test]
    fn take_first() {
        let s = ProcSet::from_indices([2, 4, 6, 8]);
        assert_eq!(s.take_first(2), ProcSet::from_indices([2, 4]));
        assert_eq!(s.take_first(0), ProcSet::new());
        assert_eq!(s.take_first(4), s);
        // Across word boundaries, including a whole-word take.
        let wide = ProcSet::from_indices((0..64).chain([70, 130, 200]));
        assert_eq!(wide.take_first(64), ProcSet::range(0, 64));
        assert_eq!(
            wide.take_first(66),
            ProcSet::from_indices((0..64).chain([70, 130]))
        );
        // Gap words (an empty middle word) are skipped.
        let sparse = ProcSet::from_indices([1, 200, 201]);
        assert_eq!(sparse.take_first(2), ProcSet::from_indices([1, 200]));
    }

    #[test]
    fn take_first_ends_in_the_word_holding_the_kth_member() {
        // Every third processor of 1024, so each word holds 21 or 22
        // members. The k-th member lands in word 0, word 3 (the last inline
        // word), word 4 (the first heap word) and word 15 (the last), each
        // at its word's first, middle and last member.
        let s = ProcSet::from_indices((0..1024).step_by(3));
        let through = |w: usize| s.iter().filter(|p| p.index() < 64 * w).count();
        for (word, inline) in [(0, true), (3, true), (4, false), (15, false)] {
            let (lo, hi) = (through(word), through(word + 1));
            for k in [lo + 1, (lo + hi).div_ceil(2), hi] {
                let got = s.take_first(k);
                let want = ProcSet::from_indices(s.iter().take(k).map(|p| p.index()));
                assert_eq!(got, want, "k = {k}, word {word}");
                assert_eq!(got.is_inline(), inline, "k = {k}, word {word}");
            }
        }
        // Leading and trailing zero words of a raw row: the prefix keeps
        // its zero words, and the tail past the k-th member is dropped.
        let row = [0, 0, 0, 0, 0b1010, 0, u64::MAX, 0];
        assert_eq!(
            ProcSet::take_first_of(&row, 2),
            ProcSet::from_indices([257, 259])
        );
        assert_eq!(
            ProcSet::take_first_of(&row, 3),
            ProcSet::from_indices([257, 259, 384])
        );
    }

    #[test]
    fn difference_len_matches_difference() {
        let a = ProcSet::from_indices([0, 5, 64, 100, 300]);
        let b = ProcSet::from_indices([5, 100, 350]);
        assert_eq!(a.difference_len(&b), a.difference(&b).len());
        assert_eq!(a.difference_len(&ProcSet::new()), a.len());
        assert_eq!(ProcSet::new().difference_len(&a), 0);
        // `other` longer than `self` in words.
        assert_eq!(ProcSet::from_indices([1]).difference_len(&b), 1);
    }

    #[test]
    fn serde_form_is_repr_independent() {
        let inline = ProcSet::from_indices([3, 70, 128]);
        let heap = inline.clone().spilled();
        assert_eq!(inline.to_value(), heap.to_value());
        let wide = ProcSet::from_indices([1, 300]);
        for s in [&inline, &heap, &wide, &ProcSet::new()] {
            let back = ProcSet::from_value(&s.to_value()).expect("roundtrip");
            assert_eq!(&back, s);
        }
        // A hand-written form with trailing zero words is normalized
        // before its representation is picked, so it comes back inline.
        let words = [2u64, 0, 0, 0, 0, 0].iter().map(|w| w.to_value()).collect();
        let padded = Value::Map(vec![("words".into(), Value::Seq(words))]);
        let back = ProcSet::from_value(&padded).expect("padded words");
        assert!(back.is_inline());
        assert_eq!(back, ProcSet::from_indices([1]));
    }

    #[test]
    #[should_panic]
    fn take_first_too_many_panics() {
        ProcSet::range(0, 3).take_first(4);
    }

    #[test]
    fn display_ranges() {
        let s = ProcSet::from_indices([0, 1, 2, 3, 7, 9, 10]);
        assert_eq!(format!("{s}"), "0-3,7,9-10");
        assert_eq!(format!("{}", ProcSet::new()), "");
        assert_eq!(format!("{}", ProcSet::from_indices([5])), "5");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn idx() -> impl Strategy<Value = usize> {
        0usize..400
    }

    proptest! {
        /// ProcSet behaves exactly like a BTreeSet<usize> model.
        #[test]
        fn matches_btreeset_model(inserts in prop::collection::vec(idx(), 0..80),
                                  removes in prop::collection::vec(idx(), 0..40)) {
            let mut s = ProcSet::new();
            let mut model = BTreeSet::new();
            for &i in &inserts {
                prop_assert_eq!(s.insert(i), model.insert(i));
            }
            for &i in &removes {
                prop_assert_eq!(s.remove(i), model.remove(&i));
            }
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(s.first(), model.iter().next().copied());
            prop_assert_eq!(s.last(), model.iter().next_back().copied());
            let got: Vec<usize> = s.iter().map(|p| p.index()).collect();
            let want: Vec<usize> = model.iter().copied().collect();
            prop_assert_eq!(got, want);
        }

        /// Algebra laws against the BTreeSet model.
        #[test]
        fn algebra_matches_model(a in prop::collection::btree_set(idx(), 0..60),
                                 b in prop::collection::btree_set(idx(), 0..60)) {
            let sa = ProcSet::from_indices(a.iter().copied());
            let sb = ProcSet::from_indices(b.iter().copied());
            let union: BTreeSet<_> = a.union(&b).copied().collect();
            let inter: BTreeSet<_> = a.intersection(&b).copied().collect();
            let diff: BTreeSet<_> = a.difference(&b).copied().collect();
            prop_assert_eq!(sa.union(&sb), ProcSet::from_indices(union));
            prop_assert_eq!(sa.intersection(&sb), ProcSet::from_indices(inter.clone()));
            prop_assert_eq!(sa.difference(&sb), ProcSet::from_indices(diff.clone()));
            prop_assert_eq!(sa.is_disjoint(&sb), inter.is_empty());
            prop_assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
            prop_assert_eq!(sa.difference_len(&sb), diff.len());
            let mut scratch = ProcSet::full(64);
            scratch.clone_from(&sa);
            prop_assert_eq!(&scratch, &sa);
        }

        /// Every binary op agrees across all four inline/heap repr pairings,
        /// and in-place ops land in the same logical state regardless of the
        /// receiver's repr. Indices up to 400 cross the 256-proc inline
        /// boundary, so sets sit on both sides of the spill threshold and
        /// word counts hit the 4-word edge exactly.
        #[test]
        fn inline_and_heap_reprs_agree(a in prop::collection::btree_set(idx(), 0..60),
                                       b in prop::collection::btree_set(idx(), 0..60)) {
            let ai = ProcSet::from_indices(a.iter().copied());
            let bi = ProcSet::from_indices(b.iter().copied());
            let ah = ai.clone().spilled();
            let bh = bi.clone().spilled();
            prop_assert_eq!(&ai, &ah);
            for (x, y) in [(&ai, &bi), (&ai, &bh), (&ah, &bi), (&ah, &bh)] {
                prop_assert_eq!(x.union(y), ai.union(&bi));
                prop_assert_eq!(x.intersection(y), ai.intersection(&bi));
                prop_assert_eq!(x.difference(y), ai.difference(&bi));
                prop_assert_eq!(x.is_disjoint(y), ai.is_disjoint(&bi));
                prop_assert_eq!(x.is_subset(y), ai.is_subset(&bi));
                prop_assert_eq!(x.difference_len(y), ai.difference_len(&bi));
            }
            for recv in [ai.clone(), ah.clone()] {
                let mut u = recv.clone();
                u.union_with(&bh);
                prop_assert_eq!(&u, &ai.union(&bi));
                let mut i = recv.clone();
                i.intersect_with(&bh);
                prop_assert_eq!(&i, &ai.intersection(&bi));
                let mut d = recv.clone();
                d.subtract(&bh);
                prop_assert_eq!(&d, &ai.difference(&bi));
                let mut c = recv;
                c.clone_from(&bh);
                prop_assert_eq!(&c, &bi);
            }
            if !a.is_empty() {
                let k = a.len() / 2;
                prop_assert_eq!(ai.take_first(k), ah.take_first(k));
            }
        }

        /// `insert_range` equals element-wise insertion.
        #[test]
        fn insert_range_matches_loop(lo in 0usize..300, width in 0usize..150) {
            let hi = lo + width;
            let mut bulk = ProcSet::new();
            bulk.insert_range(lo, hi);
            let loop_set = ProcSet::from_indices(lo..hi);
            prop_assert_eq!(bulk, loop_set);
        }

        /// take_first returns the k smallest members and is a subset.
        #[test]
        fn take_first_is_prefix(set in prop::collection::btree_set(idx(), 1..60), k_frac in 0.0f64..1.0) {
            let s = ProcSet::from_indices(set.iter().copied());
            let k = ((set.len() as f64) * k_frac) as usize;
            let t = s.take_first(k);
            prop_assert_eq!(t.len(), k);
            prop_assert!(t.is_subset(&s));
            let want: Vec<usize> = set.iter().take(k).copied().collect();
            let got: Vec<usize> = t.iter().map(|p| p.index()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
