use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{tail_mask, words_for, WORD_BITS};

/// Words a set stores inline: as many as fit in the room its heap slice
/// would take, so inline rows cost no space over heap ones.
const INLINE_WORDS: usize = size_of::<Box<[u64]>>() / size_of::<u64>();

/// A dense set of `usize` elements drawn from a fixed universe `0..len`.
///
/// All binary operations require both operands to share the same universe
/// size and report whether the receiver changed, which is the signal
/// worklist solvers use to decide whether to requeue dependents.
///
/// A universe of at most 128 elements (two words) is stored inline, so
/// creating or cloning such a set never allocates; wider universes keep
/// their words on the heap. Equality and hashing see only the universe
/// size and its words, whichever the storage.
///
/// # Examples
///
/// ```
/// use am_bitset::BitSet;
///
/// let mut live = BitSet::new(8);
/// live.insert(1);
/// live.insert(5);
/// assert_eq!(live.count(), 2);
/// assert!(live.contains(5));
/// ```
#[derive(Clone)]
pub struct BitSet {
    len: usize,
    words: Words,
}

/// The storage of a [`BitSet`]: inline when the universe fits in
/// [`INLINE_WORDS`] words, else on the heap. Inline words past the
/// universe are zero, and every operation keeps them so, which lets the
/// kernels run over the whole inline array.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl BitSet {
    /// Creates an empty set over the universe `0..len`.
    #[inline]
    pub fn new(len: usize) -> Self {
        let n = words_for(len);
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n].into_boxed_slice())
        };
        BitSet { len, words }
    }

    /// Creates a full set containing every element of `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        s.insert_all();
        s
    }

    /// The words of the universe, exactly `words_for(len)` of them.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => &a[..words_for(self.len)],
            Words::Heap(b) => b,
        }
    }

    /// The words the kernels run over: the whole inline array, or the
    /// heap slice.
    #[inline]
    fn raw(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => a,
            Words::Heap(b) => b,
        }
    }

    #[inline]
    fn raw_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(a) => a,
            Words::Heap(b) => b,
        }
    }

    /// The universe size (not the number of elements; see [`BitSet::count`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw().iter().all(|&w| w == 0)
    }

    /// Number of elements currently in the set.
    pub fn count(&self) -> usize {
        self.raw().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Tests membership of `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the universe.
    #[inline]
    pub fn contains(&self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} out of universe {}", self.len);
        self.raw()[bit / WORD_BITS] & (1 << (bit % WORD_BITS)) != 0
    }

    /// Inserts `bit`; returns `true` if the set changed.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the universe.
    #[inline]
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} out of universe {}", self.len);
        let w = &mut self.raw_mut()[bit / WORD_BITS];
        let mask = 1 << (bit % WORD_BITS);
        let changed = *w & mask == 0;
        *w |= mask;
        changed
    }

    /// Removes `bit`; returns `true` if the set changed.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the universe.
    #[inline]
    pub fn remove(&mut self, bit: usize) -> bool {
        assert!(bit < self.len, "bit {bit} out of universe {}", self.len);
        let w = &mut self.raw_mut()[bit / WORD_BITS];
        let mask = 1 << (bit % WORD_BITS);
        let changed = *w & mask != 0;
        *w &= !mask;
        changed
    }

    /// Sets or clears `bit` according to `value`; returns `true` on change.
    pub fn set(&mut self, bit: usize, value: bool) -> bool {
        if value {
            self.insert(bit)
        } else {
            self.remove(bit)
        }
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.raw_mut().fill(0);
    }

    /// Inserts every element of the universe.
    #[inline]
    pub fn insert_all(&mut self) {
        let len = self.len;
        let words = &mut self.raw_mut()[..words_for(len)];
        words.fill(u64::MAX);
        if let Some(last) = words.last_mut() {
            *last &= tail_mask(len);
        }
    }

    #[inline]
    fn assert_same_universe(&self, other: &BitSet) {
        assert_eq!(
            self.len, other.len,
            "bit set universes differ: {} vs {}",
            self.len, other.len
        );
    }

    /// `self = op(self, other)` word by word; returns `true` if `self`
    /// changed.
    ///
    /// Single branchless pass: the change signal is an XOR accumulator over
    /// all words, so the loop vectorizes instead of testing per word.
    #[inline]
    fn update(&mut self, other: &BitSet, op: impl Fn(u64, u64) -> u64) -> bool {
        self.assert_same_universe(other);
        let mut diff = 0u64;
        for (a, &b) in self.raw_mut().iter_mut().zip(other.raw()) {
            let new = op(*a, b);
            diff |= *a ^ new;
            *a = new;
        }
        diff != 0
    }

    /// `self ∪= other`; returns `true` if `self` changed.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.update(other, |a, b| a | b)
    }

    /// `self ∩= other`; returns `true` if `self` changed.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        self.update(other, |a, b| a & b)
    }

    /// `self −= other`; returns `true` if `self` changed.
    #[inline]
    pub fn difference_with(&mut self, other: &BitSet) -> bool {
        self.update(other, |a, b| a & !b)
    }

    /// Replaces `self` with a copy of `other`; returns `true` if it changed.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) -> bool {
        self.update(other, |_, b| b)
    }

    /// The fused gen/kill transfer `self = gen ∪ (input ∖ kill)`; returns
    /// `true` if `self` changed.
    ///
    /// This is the solver's inner step collapsed into one pass over the
    /// words instead of three (copy, difference, union), with the same
    /// XOR-accumulated change detection as the binary operators. `active`
    /// is the dirty-word index of the `(gen, kill)` row — see
    /// [`ActiveWords`]: words outside the index are a straight copy of
    /// `input`, so a sparse row on a wide universe touches `gen`/`kill`
    /// storage only where they are nonzero.
    ///
    /// # Panics
    ///
    /// Panics if any operand's universe differs from `self`'s, or if
    /// `active` was built for a different word count.
    #[inline]
    pub fn transfer_from(
        &mut self,
        input: &BitSet,
        gen: &BitSet,
        kill: &BitSet,
        active: &ActiveWords,
    ) -> bool {
        self.assert_same_universe(input);
        self.assert_same_universe(gen);
        self.assert_same_universe(kill);
        let (input, gen, kill) = (input.raw(), gen.raw(), kill.raw());
        let out = self.raw_mut();
        let mut diff = 0u64;
        match &active.index {
            None => {
                for (((o, &i), &g), &k) in out.iter_mut().zip(input).zip(gen).zip(kill) {
                    let new = g | (i & !k);
                    diff |= *o ^ new;
                    *o = new;
                }
            }
            Some(index) => {
                let words = out.len();
                assert_eq!(
                    active.words, words,
                    "active-word index built for a different universe"
                );
                // Runs of inactive words between index entries are plain
                // copies (tight, vectorizable); the indexed words get the
                // full transfer. Change detection stays exact because each
                // word's XOR contribution uses its actual new value.
                let mut start = 0usize;
                for &w in index.iter() {
                    let w = w as usize;
                    for i in start..w {
                        diff |= out[i] ^ input[i];
                        out[i] = input[i];
                    }
                    let new = gen[w] | (input[w] & !kill[w]);
                    diff |= out[w] ^ new;
                    out[w] = new;
                    start = w + 1;
                }
                for i in start..words {
                    diff |= out[i] ^ input[i];
                    out[i] = input[i];
                }
            }
        }
        diff != 0
    }

    /// Tests `self ⊆ other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.assert_same_universe(other);
        self.raw().iter().zip(other.raw()).all(|(a, b)| a & !b == 0)
    }

    /// Tests whether the sets share no element.
    #[inline]
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.assert_same_universe(other);
        self.raw().iter().zip(other.raw()).all(|(a, b)| a & b == 0)
    }

    /// Iterates over the elements in increasing order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        let words = self.words();
        Iter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl PartialEq for BitSet {
    #[inline]
    fn eq(&self, other: &BitSet) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitSet {}

/// Hashes the universe size, then its words as one slice (the stream a
/// derived `Hash` over a `Vec<u64>` field feeds), so hash values do not
/// depend on the storage.
impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for bit in iter {
            self.insert(bit);
        }
    }
}

/// A sparse "dirty word" index over a gen/kill row pair, consumed by
/// [`BitSet::transfer_from`].
///
/// On wide universes most transfer rows touch only a few words: every word
/// where `gen | kill == 0` turns the transfer into a plain copy of the
/// input. This index records which words are *active* (`gen | kill != 0`)
/// so the fused transfer can stream the inactive runs as straight copies.
/// When at least half the words are active, or the universe fits in the
/// inline words of a [`BitSet`], the index degrades to a dense marker that
/// allocates nothing, and the transfer scans every word — the sparse walk
/// would only add bookkeeping.
///
/// # Examples
///
/// ```
/// use am_bitset::{ActiveWords, BitSet};
///
/// let mut gen = BitSet::new(256);
/// gen.insert(200);
/// let kill = BitSet::new(256);
/// let active = ActiveWords::build(&gen, &kill);
/// assert!(active.is_sparse());
///
/// let mut input = BitSet::new(256);
/// input.insert(7);
/// let mut out = BitSet::new(256);
/// assert!(out.transfer_from(&input, &gen, &kill, &active));
/// assert_eq!(out.iter().collect::<Vec<_>>(), vec![7, 200]);
/// ```
#[derive(Clone, Debug)]
pub struct ActiveWords {
    /// Word count of the universe this index was built for.
    words: usize,
    /// Sorted indices of the active words, or `None` for a dense row.
    index: Option<Box<[u32]>>,
}

impl ActiveWords {
    /// Builds the dirty-word index for the transfer row `(gen, kill)`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different universe sizes.
    pub fn build(gen: &BitSet, kill: &BitSet) -> Self {
        gen.assert_same_universe(kill);
        let (g, k) = (gen.words(), kill.words());
        let words = g.len();
        let active = |&i: &usize| g[i] | k[i] != 0;
        // Count before collecting: a dense row, and every row of an
        // inline universe, allocates no index.
        if ActiveWords::always_dense(gen.len) || (0..words).filter(active).count() * 2 >= words {
            return ActiveWords { words, index: None };
        }
        ActiveWords {
            words,
            index: Some((0..words).filter(active).map(|i| i as u32).collect()),
        }
    }

    /// Whether every row over `universe` is dense: a universe that fits
    /// a set's inline words builds no index, so one [`dense`](Self::dense)
    /// marker serves all of its rows.
    #[inline]
    pub fn always_dense(universe: usize) -> bool {
        words_for(universe) <= INLINE_WORDS
    }

    /// Builds a dense marker: the transfer applies gen/kill to every word.
    pub fn dense(universe: usize) -> Self {
        ActiveWords {
            words: words_for(universe),
            index: None,
        }
    }

    /// Whether the index actually skips words (false for dense rows).
    pub fn is_sparse(&self) -> bool {
        self.index.is_some()
    }

    /// Number of active words recorded, or the full word count when dense.
    pub fn active_len(&self) -> usize {
        match &self.index {
            Some(ix) => ix.len(),
            None => self.words,
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().next(), None);
        for i in 0..100 {
            assert!(!s.contains(i));
        }
    }

    #[test]
    fn full_set_respects_universe_boundary() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert_eq!(s.iter().last(), Some(69));
    }

    #[test]
    fn full_set_of_word_multiple() {
        let s = BitSet::full(128);
        assert_eq!(s.count(), 128);
        assert!(s.contains(127));
    }

    #[test]
    fn insert_remove_report_changes() {
        let mut s = BitSet::new(10);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
    }

    #[test]
    fn set_dispatches_on_value() {
        let mut s = BitSet::new(4);
        assert!(s.set(2, true));
        assert!(!s.set(2, true));
        assert!(s.set(2, false));
        assert!(!s.set(2, false));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn contains_out_of_range_panics() {
        let s = BitSet::new(8);
        let _ = s.contains(8);
    }

    #[test]
    fn union_intersection_difference() {
        let mut a = BitSet::new(130);
        a.extend([1, 64, 129]);
        let mut b = BitSet::new(130);
        b.extend([64, 65]);

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 64, 65, 129]);
        assert!(!u.union_with(&b));

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![64]);

        let mut d = a.clone();
        assert!(d.difference_with(&b));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 129]);
    }

    #[test]
    fn subset_and_disjoint() {
        let mut a = BitSet::new(20);
        a.extend([2, 5]);
        let mut b = BitSet::new(20);
        b.extend([2, 5, 9]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut c = BitSet::new(20);
        c.insert(7);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn copy_from_reports_change() {
        let mut a = BitSet::new(9);
        let mut b = BitSet::new(9);
        b.insert(8);
        assert!(a.copy_from(&b));
        assert!(!a.copy_from(&b));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mismatched_universes_panic() {
        let mut a = BitSet::new(8);
        let b = BitSet::new(9);
        a.union_with(&b);
    }

    #[test]
    fn insert_all_then_clear() {
        let mut s = BitSet::new(77);
        s.insert_all();
        assert_eq!(s.count(), 77);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn debug_formats_as_set() {
        let mut s = BitSet::new(8);
        s.extend([1, 3]);
        assert_eq!(format!("{s:?}"), "{1, 3}");
        assert_eq!(format!("{:?}", BitSet::new(3)), "{}");
    }

    #[test]
    fn zero_universe_is_fine() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(BitSet::full(0).count(), 0);
    }
}

#[cfg(test)]
mod iterator_tests {
    use super::*;

    #[test]
    fn into_iterator_by_reference() {
        let mut s = BitSet::new(70);
        s.extend([0, 64, 69]);
        let via_for: Vec<usize> = (&s).into_iter().collect();
        assert_eq!(via_for, vec![0, 64, 69]);
    }

    #[test]
    fn iterating_a_full_set_visits_everything() {
        let s = BitSet::full(129);
        let elems: Vec<usize> = s.iter().collect();
        assert_eq!(elems.len(), 129);
        assert_eq!(elems.first(), Some(&0));
        assert_eq!(elems.last(), Some(&128));
        assert!(elems.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn extend_accepts_any_usize_iterator() {
        let mut s = BitSet::new(10);
        s.extend((0..10).filter(|i| i % 3 == 0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3, 6, 9]);
    }

    /// Tiny deterministic generator for the differential kernel tests.
    fn pseudo_random_set(universe: usize, mut seed: u64, density: u64) -> BitSet {
        let mut s = BitSet::new(universe);
        for bit in 0..universe {
            seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x632b_e593_86d1_face);
            if (seed >> 33) % 100 < density {
                s.insert(bit);
            }
        }
        s
    }

    /// The reference formulation the fused kernel must agree with:
    /// `out = gen ∪ (input ∖ kill)` via three passes, change = word compare.
    fn naive_transfer(out: &mut BitSet, input: &BitSet, gen: &BitSet, kill: &BitSet) -> bool {
        let mut scratch = input.clone();
        scratch.difference_with(kill);
        scratch.union_with(gen);
        let changed = *out != scratch;
        *out = scratch;
        changed
    }

    #[test]
    fn fused_transfer_matches_naive_formulation_exactly() {
        // Sweep universes around word boundaries and several densities so
        // both the sparse run-copy path and the dense path are exercised,
        // including rows where nothing changes (the change bit must be
        // exact, not conservative — the solver's counters depend on it).
        for &universe in &[1usize, 63, 64, 65, 200, 512] {
            for round in 0..40u64 {
                let gen = pseudo_random_set(universe, round * 7 + 1, 5);
                let kill = pseudo_random_set(universe, round * 7 + 2, 5);
                let input = pseudo_random_set(universe, round * 7 + 3, 30);
                let active = ActiveWords::build(&gen, &kill);
                let mut fused = pseudo_random_set(universe, round * 7 + 4, 30);
                let mut naive = fused.clone();
                let changed_fused = fused.transfer_from(&input, &gen, &kill, &active);
                let changed_naive = naive_transfer(&mut naive, &input, &gen, &kill);
                assert_eq!(fused, naive, "universe {universe} round {round}");
                assert_eq!(
                    changed_fused, changed_naive,
                    "change bit diverged at universe {universe} round {round}"
                );
                // Applying the same transfer again must report no change.
                assert!(!fused.transfer_from(&input, &gen, &kill, &active));
            }
        }
        // Force the sparse run-copy path: gen/kill confined to two words of
        // a wide universe, input dense everywhere.
        for round in 0..40u64 {
            let universe = 640; // 10 words
            let mut gen = BitSet::new(universe);
            let mut kill = BitSet::new(universe);
            for bit in 0..universe {
                if !(64..128).contains(&bit) && !(512..576).contains(&bit) {
                    continue;
                }
                if (round.wrapping_mul(bit as u64 + 13)) % 7 == 0 {
                    gen.insert(bit);
                } else if (round.wrapping_mul(bit as u64 + 29)) % 11 == 0 {
                    kill.insert(bit);
                }
            }
            let active = ActiveWords::build(&gen, &kill);
            assert!(active.is_sparse());
            let input = pseudo_random_set(universe, round + 101, 50);
            let mut fused = pseudo_random_set(universe, round + 202, 50);
            let mut naive = fused.clone();
            let changed_fused = fused.transfer_from(&input, &gen, &kill, &active);
            let changed_naive = naive_transfer(&mut naive, &input, &gen, &kill);
            assert_eq!(fused, naive, "sparse round {round}");
            assert_eq!(
                changed_fused, changed_naive,
                "sparse change bit, round {round}"
            );
            assert!(!fused.transfer_from(&input, &gen, &kill, &active));
        }
    }

    #[test]
    fn dense_active_index_gives_the_same_transfer() {
        let universe = 640;
        let mut gen = BitSet::new(universe);
        gen.insert(3);
        gen.insert(600);
        let mut kill = BitSet::new(universe);
        kill.insert(100);
        let input = pseudo_random_set(universe, 33, 40);
        let sparse = ActiveWords::build(&gen, &kill);
        assert!(sparse.is_sparse());
        let dense = ActiveWords::dense(universe);
        assert!(!dense.is_sparse());
        let mut a = BitSet::new(universe);
        let mut b = BitSet::new(universe);
        assert_eq!(
            a.transfer_from(&input, &gen, &kill, &sparse),
            b.transfer_from(&input, &gen, &kill, &dense)
        );
        assert_eq!(a, b);
    }

    #[test]
    fn active_words_degrades_to_dense_on_busy_rows() {
        let universe = 256; // 4 words
        let gen = BitSet::full(universe);
        let kill = BitSet::new(universe);
        let busy = ActiveWords::build(&gen, &kill);
        assert!(!busy.is_sparse());
        assert_eq!(busy.active_len(), 4);

        let quiet = ActiveWords::build(&kill, &kill);
        assert!(quiet.is_sparse());
        assert_eq!(quiet.active_len(), 0);
    }

    #[test]
    fn empty_active_index_makes_transfer_a_copy() {
        let universe = 130;
        let gen = BitSet::new(universe);
        let kill = BitSet::new(universe);
        let active = ActiveWords::build(&gen, &kill);
        let input = pseudo_random_set(universe, 5, 50);
        let mut out = BitSet::new(universe);
        assert!(out.transfer_from(&input, &gen, &kill, &active));
        assert_eq!(out, input);
    }

    #[test]
    fn copy_from_reports_change_exactly() {
        let a = pseudo_random_set(100, 1, 50);
        let mut b = BitSet::new(100);
        assert!(b.copy_from(&a));
        assert_eq!(a, b);
        assert!(!b.copy_from(&a));
    }
}
