//! Dense, fixed-universe bit sets.
//!
//! Bit-vector data-flow analyses manipulate sets drawn from a small, fixed
//! universe (the assignment and expression patterns of a program). This crate
//! provides the containers those analyses need:
//!
//! * [`BitSet`] — a dense set of `usize` elements below a fixed universe
//!   size, with in-place union/intersection/difference and change reporting
//!   (the change bit is what drives worklist convergence). Universes of at
//!   most 128 elements are stored inline, so the per-point fact rows of
//!   typical programs never allocate.
//! * [`ActiveWords`] — the dirty-word index of a gen/kill row, letting the
//!   fused transfer [`BitSet::transfer_from`] copy untouched words of a
//!   wide universe straight through.
//!
//! # Examples
//!
//! ```
//! use am_bitset::BitSet;
//!
//! let mut a = BitSet::new(70);
//! a.insert(3);
//! a.insert(69);
//! let mut b = BitSet::new(70);
//! b.insert(3);
//! assert!(b.is_subset(&a));
//! assert!(a.intersect_with(&b)); // `a` changed
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![3]);
//! ```

mod set;

pub use set::{ActiveWords, BitSet};

/// Number of bits per storage word.
pub(crate) const WORD_BITS: usize = u64::BITS as usize;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask selecting the in-universe bits of the final word of a `bits`-bit set.
pub(crate) fn tail_mask(bits: usize) -> u64 {
    let rem = bits % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}
