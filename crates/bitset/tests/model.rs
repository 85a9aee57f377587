//! Model-based property tests: `BitSet` against `std::collections::BTreeSet`.
//!
//! Randomized with an inline SplitMix64 stream (am-bitset is a leaf crate
//! with no dependencies, so the generator lives here); every case derives
//! from a fixed seed and reproduces deterministically. Universes straddle
//! the word boundaries and the inline/heap storage boundary (128 bits).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use am_bitset::{ActiveWords, BitSet};

/// Universe sizes around one and two words (the inline storage) and just
/// past them (the heap storage).
const UNIVERSES: [usize; 9] = [1, 63, 64, 65, 127, 128, 129, 130, 200];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn bits(&mut self, universe: usize, max_len: usize) -> Vec<usize> {
        let n = self.below(max_len);
        (0..n).map(|_| self.below(universe)).collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Remove(usize),
    Clear,
    InsertAll,
    UnionWith(Vec<usize>),
    IntersectWith(Vec<usize>),
    DifferenceWith(Vec<usize>),
    CopyFrom(Vec<usize>),
    /// `self = gen ∪ (input ∖ kill)`, through a dense or a built index.
    Transfer {
        input: Vec<usize>,
        gen: Vec<usize>,
        kill: Vec<usize>,
        dense: bool,
    },
}

/// Up to `max_len` bits confined to one word of the universe, so that on
/// wide universes the built [`ActiveWords`] index is sparse.
fn one_word_bits(rng: &mut Rng, universe: usize, max_len: usize) -> Vec<usize> {
    let base = rng.below(universe.div_ceil(64)) * 64;
    let width = (universe - base).min(64);
    (0..rng.below(max_len))
        .map(|_| base + rng.below(width))
        .collect()
}

fn random_op(rng: &mut Rng, universe: usize) -> Op {
    match rng.below(10) {
        0 => Op::Insert(rng.below(universe)),
        1 => Op::Remove(rng.below(universe)),
        2 => Op::Clear,
        3 => Op::InsertAll,
        4 => Op::UnionWith(rng.bits(universe, 8)),
        5 => Op::IntersectWith(rng.bits(universe, 8)),
        6 => Op::DifferenceWith(rng.bits(universe, 8)),
        7 => Op::CopyFrom(rng.bits(universe, 8)),
        8 => Op::Transfer {
            input: rng.bits(universe, 2 * universe.min(40)),
            gen: one_word_bits(rng, universe, 4),
            kill: one_word_bits(rng, universe, 6),
            dense: rng.below(2) == 0,
        },
        _ => Op::Transfer {
            input: rng.bits(universe, 2 * universe.min(40)),
            gen: rng.bits(universe, 8),
            kill: rng.bits(universe, 8),
            dense: rng.below(2) == 0,
        },
    }
}

/// The hash the former `#[derive(Hash)]` over `{ len: usize, words:
/// Vec<u64> }` gave the set `model` of universe `universe`.
fn derived_hash(universe: usize, model: &BTreeSet<usize>) -> u64 {
    let mut words = vec![0u64; universe.div_ceil(64)];
    for &b in model {
        words[b / 64] |= 1 << (b % 64);
    }
    let mut h = DefaultHasher::new();
    universe.hash(&mut h);
    words.hash(&mut h);
    h.finish()
}

fn hash_of(set: &BitSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

fn other_set(universe: usize, bits: &[usize]) -> (BitSet, BTreeSet<usize>) {
    let mut s = BitSet::new(universe);
    let mut m = BTreeSet::new();
    for &b in bits {
        s.insert(b);
        m.insert(b);
    }
    (s, m)
}

#[test]
fn operations_match_the_model() {
    let mut rng = Rng(0xB17_5E7);
    let mut sparse_transfers = 0;
    for universe in UNIVERSES {
        for case in 0..96 {
            let mut set = BitSet::new(universe);
            let mut model: BTreeSet<usize> = BTreeSet::new();
            let steps = 1 + rng.below(39);
            for _ in 0..steps {
                let op = random_op(&mut rng, universe);
                let before = model.clone();
                let changed = match op.clone() {
                    Op::Insert(b) => {
                        model.insert(b);
                        set.insert(b)
                    }
                    Op::Remove(b) => {
                        model.remove(&b);
                        set.remove(b)
                    }
                    Op::Clear => {
                        set.clear();
                        model.clear();
                        !before.is_empty()
                    }
                    Op::InsertAll => {
                        set.insert_all();
                        model = (0..universe).collect();
                        before != model
                    }
                    Op::UnionWith(bits) => {
                        let (other, other_model) = other_set(universe, &bits);
                        model = model.union(&other_model).copied().collect();
                        set.union_with(&other)
                    }
                    Op::IntersectWith(bits) => {
                        let (other, other_model) = other_set(universe, &bits);
                        model = model.intersection(&other_model).copied().collect();
                        set.intersect_with(&other)
                    }
                    Op::DifferenceWith(bits) => {
                        let (other, other_model) = other_set(universe, &bits);
                        model = model.difference(&other_model).copied().collect();
                        set.difference_with(&other)
                    }
                    Op::CopyFrom(bits) => {
                        let (other, other_model) = other_set(universe, &bits);
                        model = other_model;
                        set.copy_from(&other)
                    }
                    Op::Transfer {
                        input,
                        gen,
                        kill,
                        dense,
                    } => {
                        let (input, input_model) = other_set(universe, &input);
                        let (gen, gen_model) = other_set(universe, &gen);
                        let (kill, kill_model) = other_set(universe, &kill);
                        let active = if dense {
                            ActiveWords::dense(universe)
                        } else {
                            ActiveWords::build(&gen, &kill)
                        };
                        if universe <= 128 {
                            assert!(!active.is_sparse(), "inline universes are dense");
                        }
                        sparse_transfers += active.is_sparse() as usize;
                        model = input_model
                            .difference(&kill_model)
                            .chain(&gen_model)
                            .copied()
                            .collect();
                        set.transfer_from(&input, &gen, &kill, &active)
                    }
                };
                // Invariants after every step.
                let at = format!("universe {universe} case {case} {op:?}");
                assert_eq!(changed, before != model, "change bit, {at}");
                assert_eq!(set.count(), model.len(), "{at}");
                assert_eq!(set.is_empty(), model.is_empty(), "{at}");
                let elems: Vec<usize> = set.iter().collect();
                let expected: Vec<usize> = model.iter().copied().collect();
                assert_eq!(elems, expected, "{at}");
                let (rebuilt, _) = other_set(universe, &expected);
                assert_eq!(set, rebuilt, "{at}");
                assert_eq!(hash_of(&set), derived_hash(universe, &model), "{at}");
            }
        }
    }
    assert!(
        sparse_transfers > 0,
        "the sparse transfer path was exercised"
    );
}

#[test]
fn subset_and_disjoint_match_the_model() {
    let mut rng = Rng(0x5B5E7);
    for universe in UNIVERSES {
        for case in 0..64 {
            let a = rng.bits(universe, 20);
            let b = rng.bits(universe, 20);
            let (sa, ma) = other_set(universe, &a);
            let (sb, mb) = other_set(universe, &b);
            let at = format!("universe {universe} case {case}");
            assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb), "{at}");
            assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb), "{at}");
            assert_eq!(sa == sb, ma == mb, "{at}");
        }
    }
}

#[test]
fn union_difference_matches_the_model() {
    let mut rng = Rng(0x0D1FF);
    for universe in UNIVERSES {
        for case in 0..64 {
            let (mut set, model) = other_set(universe, &rng.bits(universe, 20));
            let (add, add_model) = other_set(universe, &rng.bits(universe, 20));
            let (except, except_model) = other_set(universe, &rng.bits(universe, 20));
            let expected: BTreeSet<usize> = add_model
                .difference(&except_model)
                .chain(&model)
                .copied()
                .collect();
            let at = format!("universe {universe} case {case}");
            assert_eq!(
                set.union_difference(&add, &except),
                expected != model,
                "{at}"
            );
            assert_eq!(
                set,
                other_set(universe, &Vec::from_iter(expected)).0,
                "{at}"
            );
        }
    }
}

#[test]
fn copy_from_round_trips() {
    let mut rng = Rng(0xC0B1E5);
    for universe in UNIVERSES {
        for case in 0..64 {
            let bits = rng.bits(universe, 30);
            let (src, _) = other_set(universe, &bits);
            let mut dst = BitSet::new(universe);
            dst.copy_from(&src);
            assert_eq!(&dst, &src, "universe {universe} case {case}");
            assert!(
                !dst.copy_from(&src),
                "second copy reports no change (universe {universe} case {case})"
            );
            assert_eq!(dst.clone(), src);
        }
    }
}

#[test]
fn full_sets_stop_at_the_universe() {
    for universe in UNIVERSES {
        let full = BitSet::full(universe);
        assert_eq!(full.count(), universe);
        assert_eq!(full.iter().last(), Some(universe - 1));
        let mut all = BitSet::new(universe);
        all.insert_all();
        assert_eq!(all, full);
        assert_eq!(
            hash_of(&full),
            derived_hash(universe, &(0..universe).collect())
        );
    }
}

#[test]
fn a_bit_set_is_four_words() {
    assert_eq!(std::mem::size_of::<BitSet>(), 32);
}
