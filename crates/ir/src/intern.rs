//! Hash-consing arenas for terms and instructions.
//!
//! Every analysis layer above the IR keys caches by structural content:
//! the expression universe dedups [`Term`]s, the motion engine fingerprints
//! instructions and whole programs, and the pipeline addresses results by
//! canonical hash. [`TermArena`] and [`InstrInterner`] centralize that
//! identity work: each distinct node is stored once, its structural hash is
//! computed once at interning time and cached, and from then on
//!
//! * equality is an id compare ([`TermId`]/[`InstrId`] are `u32` indices),
//! * composite hashes (an instruction over its terms, a program over its
//!   instructions) combine the cached child hashes instead of re-walking
//!   the children, and
//! * the non-trivial terms form a dense [`PatternId`] range in
//!   first-interning order — exactly the expression-pattern numbering the
//!   pattern universe (`EP`, Sec. 2 of the paper) hands to the bitvector
//!   analyses.
//!
//! The arena is an *identity* layer, not an *address* layer: the
//! cross-process content address of a program remains the FNV-1a hash of
//! its canonical text ([`crate::alpha::stable_hash`]), which is pinned by a
//! golden fixture and must never drift. Arena hashes are in-memory
//! fingerprints in the FxHash family and carry no stability promise.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::instr::Instr;
use crate::term::{Operand, Term};

/// FxHash-style hasher for the intern index maps and the motion engine's
/// fingerprints. The interner sits on the motion engine's per-round hot
/// path, where SipHash is measurable overhead, and neither the maps nor
/// the fingerprints face untrusted keys; map collisions are resolved by
/// `Eq` as usual. Not a stable cross-process hash, and not for maps keyed
/// by client text, where it would invite hash flooding.
#[derive(Default)]
pub struct FxMapHasher(u64);

impl FxMapHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = mix(self.0, word);
    }
}

impl Hasher for FxMapHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = tail << 8 | b as u64;
        }
        self.add(tail);
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxMapBuild = BuildHasherDefault<FxMapHasher>;

/// The most entries a hash table keyed by distinct terms or instructions
/// is sized for up front. A small program is sized exactly, so its table
/// never grows; a large one repeats contents (the XL benchmark shapes
/// hold a few dozen distinct instructions), and a table sized for every
/// instruction would spread those few entries over memory the lookups
/// then miss in cache. Past the limit a table grows as it fills.
pub(crate) const PRESIZE_LIMIT: usize = 256;

/// Index of an interned [`Term`] in a [`TermArena`].
///
/// Within one arena, two ids are equal exactly when the terms are
/// structurally equal — that is the hash-consing invariant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a non-trivial (expression-pattern) term in a [`TermArena`].
///
/// Pattern ids are assigned densely in interning order over the non-trivial
/// terms only, so when terms are interned in first-occurrence program order
/// the pattern range reproduces the expression-universe numbering.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(u32);

impl PatternId {
    /// The dense pattern index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a pattern id from a dense index (for iterating a known
    /// `0..pattern_count()` range).
    pub fn from_index(i: usize) -> Self {
        PatternId(u32::try_from(i).expect("pattern index fits u32"))
    }
}

impl fmt::Debug for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Index of an interned [`Instr`] in an [`InstrInterner`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(u32);

impl InstrId {
    /// The interner index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Multiply-rotate mixing step in the FxHash family (the same scheme the
/// motion engine's fingerprints use). Not a stable cross-process hash.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

#[inline]
fn operand_word(o: Operand) -> u64 {
    match o {
        Operand::Var(v) => mix(1, v.index() as u64),
        Operand::Const(c) => mix(2, c as u64),
    }
}

/// The structural hash of a term, computed from scratch. [`TermArena`]
/// caches this value per node; the property suite asserts the cached copy
/// always equals a fresh recomputation.
pub fn term_hash(t: Term) -> u64 {
    match t {
        Term::Operand(o) => mix(3, operand_word(o)),
        Term::Binary { op, lhs, rhs } => {
            mix(mix(mix(4, op as u64), operand_word(lhs)), operand_word(rhs))
        }
    }
}

#[derive(Clone)]
struct TermNode {
    term: Term,
    hash: u64,
    pattern: Option<PatternId>,
}

/// A hash-consing arena of [`Term`]s with cached structural hashes and a
/// dense pattern numbering of the non-trivial terms.
///
/// # Examples
///
/// ```
/// use am_ir::{intern::TermArena, BinOp, Term, VarPool};
///
/// let mut pool = VarPool::new();
/// let (a, b) = (pool.intern("a"), pool.intern("b"));
/// let mut arena = TermArena::new();
/// let t1 = arena.intern(Term::binary(BinOp::Add, a, b));
/// let t2 = arena.intern(Term::binary(BinOp::Add, a, b));
/// assert_eq!(t1, t2); // structural equality is id equality
/// assert_eq!(arena.pattern_of(t1).unwrap().index(), 0);
/// ```
#[derive(Clone, Default)]
pub struct TermArena {
    nodes: Vec<TermNode>,
    index: HashMap<Term, TermId, FxMapBuild>,
    patterns: Vec<TermId>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TermArena::default()
    }

    /// Creates an empty arena with room for `terms` terms.
    pub fn with_capacity(terms: usize) -> Self {
        TermArena {
            nodes: Vec::with_capacity(terms),
            index: HashMap::with_capacity_and_hasher(terms, FxMapBuild::default()),
            patterns: Vec::with_capacity(terms),
        }
    }

    /// Interns `t`, returning the existing id when a structurally equal
    /// term is already present. A newly interned non-trivial term is also
    /// assigned the next dense [`PatternId`].
    pub fn intern(&mut self, t: Term) -> TermId {
        let id = TermId(u32::try_from(self.nodes.len()).expect("arena fits u32"));
        let id = *self.index.entry(t).or_insert(id);
        if id.index() == self.nodes.len() {
            let pattern = t.is_nontrivial().then(|| {
                let p = PatternId(u32::try_from(self.patterns.len()).expect("patterns fit u32"));
                self.patterns.push(id);
                p
            });
            self.nodes.push(TermNode {
                term: t,
                hash: term_hash(t),
                pattern,
            });
        }
        id
    }

    /// The id of `t`, if it has been interned.
    pub fn lookup(&self, t: &Term) -> Option<TermId> {
        self.index.get(t).copied()
    }

    /// The term behind `id`.
    pub fn term(&self, id: TermId) -> Term {
        self.nodes[id.index()].term
    }

    /// The cached structural hash of `id` — O(1), no re-walk.
    pub fn hash(&self, id: TermId) -> u64 {
        self.nodes[id.index()].hash
    }

    /// The pattern id of `id`, if the term is non-trivial.
    pub fn pattern_of(&self, id: TermId) -> Option<PatternId> {
        self.nodes[id.index()].pattern
    }

    /// The pattern id of `t`, if it is interned and non-trivial.
    pub fn pattern_id(&self, t: &Term) -> Option<PatternId> {
        self.lookup(t).and_then(|id| self.pattern_of(id))
    }

    /// The term id backing pattern `p`.
    pub fn pattern_term_id(&self, p: PatternId) -> TermId {
        self.patterns[p.index()]
    }

    /// The term behind pattern `p`.
    pub fn pattern_term(&self, p: PatternId) -> Term {
        self.term(self.pattern_term_id(p))
    }

    /// Number of patterns (non-trivial terms) interned so far.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Iterates over `(pattern id, term)` in dense pattern order.
    pub fn patterns(&self) -> impl Iterator<Item = (PatternId, Term)> + '_ {
        self.patterns
            .iter()
            .enumerate()
            .map(|(i, &id)| (PatternId(i as u32), self.term(id)))
    }

    /// Number of terms interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Audits every hash-consing invariant: the index maps each stored term
    /// to its own node, cached hashes equal fresh recomputations, exactly
    /// the non-trivial terms carry pattern ids, and the pattern table and
    /// the per-node back-pointers agree. Returns the first violation found.
    ///
    /// This is the detection side of the intern-corruption fault model: a
    /// corrupted table (see [`swap_patterns`](Self::swap_patterns)) must
    /// never survive a verify.
    pub fn verify(&self) -> Result<(), String> {
        if self.index.len() != self.nodes.len() {
            return Err(format!(
                "index has {} entries for {} nodes",
                self.index.len(),
                self.nodes.len()
            ));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let id = TermId(i as u32);
            if self.index.get(&node.term) != Some(&id) {
                return Err(format!("index does not map {:?} back to {id:?}", node.term));
            }
            if node.hash != term_hash(node.term) {
                return Err(format!("cached hash of {id:?} is stale"));
            }
            match (node.term.is_nontrivial(), node.pattern) {
                (true, Some(p)) => {
                    if self.patterns.get(p.index()) != Some(&id) {
                        return Err(format!(
                            "pattern table entry {p:?} does not point back to {id:?}"
                        ));
                    }
                }
                (true, None) => return Err(format!("non-trivial {id:?} has no pattern id")),
                (false, Some(p)) => return Err(format!("trivial {id:?} claims pattern {p:?}")),
                (false, None) => {}
            }
        }
        Ok(())
    }

    /// Deliberately corrupts the arena by swapping two entries of the dense
    /// pattern table *without* fixing the per-node back-pointers — the
    /// intern-table analogue of the `am-check` `SwapPatternIds` fault.
    /// Every pattern lookup through the table now resolves to the wrong
    /// term. Test-only by intent: [`verify`](Self::verify) must flag the
    /// result, which is exactly what the fault-injection suite asserts.
    pub fn swap_patterns(&mut self, a: PatternId, b: PatternId) {
        self.patterns.swap(a.index(), b.index());
    }
}

impl fmt::Debug for TermArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TermArena")
            .field("terms", &self.nodes.len())
            .field("patterns", &self.patterns.len())
            .finish()
    }
}

#[derive(Clone)]
struct InstrNode {
    instr: Instr,
    hash: u64,
    /// The node interned before this one with the same hash, if any.
    next: Option<InstrId>,
}

/// The structural hash of an instruction, composed from the
/// [`term_hash`]es of its terms. [`InstrInterner`] caches this value per
/// node.
pub fn instr_hash(instr: &Instr) -> u64 {
    match instr {
        Instr::Skip => mix(5, 0),
        Instr::Assign { lhs, rhs } => mix(mix(6, lhs.index() as u64), term_hash(*rhs)),
        Instr::Out(ops) => {
            let mut h = mix(7, ops.len() as u64);
            for &o in ops {
                h = mix(h, operand_word(o));
            }
            h
        }
        Instr::Branch(c) => mix(mix(mix(8, c.op as u64), term_hash(c.lhs)), term_hash(c.rhs)),
    }
}

/// A hash-consing interner of [`Instr`]s, with a [`TermArena`] for the
/// terms its users intern ([`intern_term`](Self::intern_term)). Each
/// instruction's structural hash ([`instr_hash`]) is cached, so
/// re-fingerprinting a program costs one table load per instruction
/// instead of a structural re-walk per analysis layer. The index maps a
/// hash to the newest node with it, and nodes chain to older ones with
/// the same hash, so an instruction is hashed once per lookup and stored
/// once.
#[derive(Clone, Default)]
pub struct InstrInterner {
    arena: TermArena,
    nodes: Vec<InstrNode>,
    index: HashMap<u64, InstrId, FxMapBuild>,
}

impl InstrInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        InstrInterner::default()
    }

    /// Creates an empty interner with room for `instrs` distinct
    /// instructions and as many terms.
    pub fn with_capacity(instrs: usize) -> Self {
        InstrInterner {
            arena: TermArena::with_capacity(instrs),
            nodes: Vec::with_capacity(instrs),
            index: HashMap::with_capacity_and_hasher(instrs, FxMapBuild::default()),
        }
    }

    /// Interns `instr`, returning `(id, newly_interned)`.
    pub fn intern(&mut self, instr: &Instr) -> (InstrId, bool) {
        self.intern_with(instr, Instr::clone)
    }

    /// As [`intern`](Self::intern), taking the instruction by value.
    pub fn intern_owned(&mut self, instr: Instr) -> (InstrId, bool) {
        self.intern_with(instr, |instr| instr)
    }

    /// Looks `instr` up with one probe of the index, and stores
    /// `owned(instr)` when it is new.
    fn intern_with<I: Borrow<Instr>>(
        &mut self,
        instr: I,
        owned: impl FnOnce(I) -> Instr,
    ) -> (InstrId, bool) {
        let hash = instr_hash(instr.borrow());
        let id = InstrId(u32::try_from(self.nodes.len()).expect("interner fits u32"));
        let next = match self.index.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
                None
            }
            Entry::Occupied(mut slot) => {
                let mut next = Some(*slot.get());
                while let Some(old) = next {
                    let node = &self.nodes[old.index()];
                    if node.instr == *instr.borrow() {
                        return (old, false);
                    }
                    next = node.next;
                }
                Some(slot.insert(id))
            }
        };
        let instr = owned(instr);
        self.nodes.push(InstrNode { instr, hash, next });
        (id, true)
    }

    /// The instruction behind `id`.
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.nodes[id.index()].instr
    }

    /// The cached structural hash of `id` — O(1), no re-walk.
    pub fn hash(&self, id: InstrId) -> u64 {
        self.nodes[id.index()].hash
    }

    /// Iterates over `(id, instruction)` in id order — the order in which
    /// the distinct instructions were first interned.
    pub fn iter(&self) -> impl Iterator<Item = (InstrId, &Instr)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (InstrId(i as u32), &node.instr))
    }

    /// Interns `t` into the term arena ([`TermArena::intern`]). Terms are
    /// interned on demand, not with the instructions that hold them.
    pub fn intern_term(&mut self, t: Term) -> TermId {
        self.arena.intern(t)
    }

    /// The term arena.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }

    /// Number of instructions interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl fmt::Debug for InstrInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstrInterner")
            .field("instrs", &self.nodes.len())
            .field("arena", &self.arena)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;
    use crate::term::BinOp;
    use crate::var::VarPool;

    fn pool3() -> (VarPool, crate::var::Var, crate::var::Var, crate::var::Var) {
        let mut p = VarPool::new();
        let x = p.intern("x");
        let y = p.intern("y");
        let z = p.intern("z");
        (p, x, y, z)
    }

    #[test]
    fn interning_is_hash_consing() {
        let (_, x, y, _) = pool3();
        let mut arena = TermArena::new();
        let t1 = arena.intern(Term::binary(BinOp::Add, x, y));
        let t2 = arena.intern(Term::binary(BinOp::Add, x, y));
        let t3 = arena.intern(Term::binary(BinOp::Add, y, x));
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.term(t1), Term::binary(BinOp::Add, x, y));
    }

    #[test]
    fn patterns_are_dense_over_nontrivial_terms_only() {
        let (_, x, y, z) = pool3();
        let mut arena = TermArena::new();
        let trivial = arena.intern(Term::operand(x));
        let p0 = arena.intern(Term::binary(BinOp::Add, x, y));
        let _trivial2 = arena.intern(Term::from(7));
        let p1 = arena.intern(Term::binary(BinOp::Mul, y, z));
        assert_eq!(arena.pattern_of(trivial), None);
        assert_eq!(arena.pattern_of(p0).unwrap().index(), 0);
        assert_eq!(arena.pattern_of(p1).unwrap().index(), 1);
        assert_eq!(arena.pattern_count(), 2);
        assert_eq!(arena.pattern_term(PatternId::from_index(1)), arena.term(p1));
        let listed: Vec<usize> = arena.patterns().map(|(p, _)| p.index()).collect();
        assert_eq!(listed, vec![0, 1]);
    }

    #[test]
    fn cached_hashes_match_fresh_computation() {
        let (_, x, y, _) = pool3();
        let mut arena = TermArena::new();
        for t in [
            Term::operand(x),
            Term::from(-3),
            Term::binary(BinOp::Sub, x, y),
            Term::binary(BinOp::Div, y, 2),
        ] {
            let id = arena.intern(t);
            assert_eq!(arena.hash(id), term_hash(t));
        }
        assert_eq!(arena.verify(), Ok(()));
    }

    #[test]
    fn swap_patterns_is_detected_by_verify() {
        let (_, x, y, z) = pool3();
        let mut arena = TermArena::new();
        arena.intern(Term::binary(BinOp::Add, x, y));
        arena.intern(Term::binary(BinOp::Mul, y, z));
        assert_eq!(arena.verify(), Ok(()));
        arena.swap_patterns(PatternId::from_index(0), PatternId::from_index(1));
        assert!(arena.verify().is_err(), "corruption must not pass an audit");
    }

    #[test]
    fn instr_interner_dedups_and_composes_hashes() {
        let (_, x, y, z) = pool3();
        let mut ii = InstrInterner::new();
        let assign = Instr::assign(x, Term::binary(BinOp::Add, y, z));
        let (i1, new1) = ii.intern(&assign);
        let (i2, new2) = ii.intern(&assign);
        assert!(new1 && !new2);
        assert_eq!(i1, i2);
        assert_eq!(ii.instr(i1), &assign);
        // Terms are interned on demand, not with their instruction: the
        // rhs term is interned by `intern_term` and carries pattern 0.
        let rhs = Term::binary(BinOp::Add, y, z);
        assert!(ii.arena().is_empty());
        let t = ii.intern_term(rhs);
        assert_eq!(ii.arena().pattern_id(&rhs), Some(PatternId::from_index(0)));
        assert_eq!(ii.arena().pattern_of(t), Some(PatternId::from_index(0)));
        // Different instructions get different ids (and, here, hashes).
        let (i3, _) = ii.intern(&Instr::Branch(Cond::new(
            BinOp::Gt,
            Term::binary(BinOp::Add, y, z),
            Term::operand(x),
        )));
        assert_ne!(i1, i3);
        assert_ne!(ii.hash(i1), ii.hash(i3));
        let (i4, _) = ii.intern(&Instr::Skip);
        let (i5, _) = ii.intern(&Instr::Out(vec![x.into(), 1.into()]));
        assert_eq!(ii.len(), 4);
        assert_ne!(ii.hash(i4), ii.hash(i5));
    }
}
