//! Assignment and expression pattern universes (Sec. 2) and the local
//! blocking/transparency predicates every analysis of the paper is built on.

use std::collections::HashMap;
use std::fmt;

use crate::graph::FlowGraph;
use crate::instr::Instr;
use crate::intern::{FxMapBuild, PatternId, TermArena};
use crate::term::Term;
use crate::var::{Var, VarPool};

/// An assignment pattern `v := t`: the *shape* of an assignment, of which a
/// program may contain many occurrences.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AssignPattern {
    /// Left-hand side variable.
    pub lhs: Var,
    /// Right-hand side 3-address term.
    pub rhs: Term,
}

impl AssignPattern {
    /// Builds a pattern.
    pub fn new(lhs: Var, rhs: impl Into<Term>) -> Self {
        AssignPattern {
            lhs,
            rhs: rhs.into(),
        }
    }

    /// Whether the left-hand side occurs among the right-hand side operands
    /// (`x := x + 1`). Such patterns can never be redundant: re-executing
    /// them changes the state (Table 2's side condition).
    pub fn is_self_referential(&self) -> bool {
        self.rhs.mentions(self.lhs)
    }

    /// Whether `instr` is an occurrence of this pattern (Table 2's
    /// `EXECUTED`).
    pub fn executed_by(&self, instr: &Instr) -> bool {
        matches!(instr, Instr::Assign { lhs, rhs } if *lhs == self.lhs && *rhs == self.rhs)
    }

    /// Whether `instr` blocks *hoisting* this pattern (Def. 3.2): it
    /// modifies an operand of `t`, or uses or modifies `x`.
    pub fn blocked_by(&self, instr: &Instr) -> bool {
        if let Some(d) = instr.def() {
            if d == self.lhs || self.rhs.mentions(d) {
                return true;
            }
        }
        instr.uses(self.lhs)
    }

    /// Whether `instr` is *transparent* for the pattern's value relation
    /// (Table 2's `ASS-TRANSP`): it modifies neither `v` nor an operand of
    /// `t`. An occurrence of the pattern itself is treated as transparent —
    /// it re-establishes rather than destroys the relation (see DESIGN.md).
    pub fn transparent_for(&self, instr: &Instr) -> bool {
        if self.executed_by(instr) {
            return true;
        }
        match instr.def() {
            Some(d) => d != self.lhs && !self.rhs.mentions(d),
            None => true,
        }
    }

    /// Renders the pattern with names from `pool`.
    pub fn display(&self, pool: &VarPool) -> String {
        format!("{} := {}", pool.name(self.lhs), self.rhs.display(pool))
    }
}

/// The pattern universes of a program: all assignment patterns `AP` and all
/// (non-trivial) expression patterns `EP`, numbered densely so analyses can
/// use one bit per pattern.
///
/// Pattern indices are assigned in order of first occurrence in node/index
/// order, which makes analysis results reproducible. The expression side is
/// backed by a hash-consing [`TermArena`]: expression index `i` *is* the
/// dense [`PatternId`] `i` of the arena, each term's structural hash is
/// computed once at interning, and [`extend`](Self::extend) grows the
/// universe over a changed program without renumbering existing patterns —
/// which is what lets the motion engine refresh in place instead of
/// rebuilding per round.
#[derive(Clone, Default)]
pub struct PatternUniverse {
    assigns: Vec<AssignPattern>,
    assign_index: HashMap<AssignPattern, usize, FxMapBuild>,
    arena: TermArena,
}

impl PatternUniverse {
    /// Collects the pattern universes of `g`.
    pub fn collect(g: &FlowGraph) -> Self {
        let mut u = PatternUniverse::default();
        u.extend(g);
        u
    }

    /// Interns every pattern of `g` that is not already known, keeping all
    /// existing indices stable (the universe only ever grows, and new
    /// patterns take the next free indices in `g`'s first-occurrence
    /// order). Per-bit independence of the gen/kill analyses makes a
    /// superset universe safe; stable numbering keeps cached rows and
    /// solver solutions indexed by pattern valid across the extension.
    pub fn extend(&mut self, g: &FlowGraph) {
        self.extend_instrs(g.locs().map(|(_, instr)| instr));
    }

    /// As [`extend`](Self::extend), over a sequence of instructions: each
    /// contributes its assignment pattern, then its expression occurrences.
    /// Only the first occurrence of a pattern numbers it, so the *distinct*
    /// instructions of a program, fed in the order of their first
    /// occurrence, number every pattern exactly as the program does.
    pub fn extend_instrs<'i>(&mut self, instrs: impl IntoIterator<Item = &'i Instr>) {
        for instr in instrs {
            if let Instr::Assign { lhs, rhs } = instr {
                self.intern_assign(AssignPattern::new(*lhs, *rhs));
            }
            instr.for_each_expr_occurrence(|t| {
                self.intern_expr(t);
            });
        }
    }

    /// Whether every assignment and expression pattern of `g` is known.
    pub fn covers(&self, g: &FlowGraph) -> bool {
        let mut ok = true;
        for (_, instr) in g.locs() {
            if let Instr::Assign { lhs, rhs } = instr {
                ok &= self.assign_id(&AssignPattern::new(*lhs, *rhs)).is_some();
            }
            instr.for_each_expr_occurrence(|t| ok &= self.expr_id(&t).is_some());
        }
        ok
    }

    fn intern_assign(&mut self, p: AssignPattern) -> usize {
        if let Some(&i) = self.assign_index.get(&p) {
            return i;
        }
        let i = self.assigns.len();
        self.assigns.push(p);
        self.assign_index.insert(p, i);
        i
    }

    fn intern_expr(&mut self, t: Term) -> usize {
        debug_assert!(t.is_nontrivial());
        let id = self.arena.intern(t);
        self.arena
            .pattern_of(id)
            .expect("non-trivial terms carry a pattern id")
            .index()
    }

    /// Number of assignment patterns.
    pub fn assign_count(&self) -> usize {
        self.assigns.len()
    }

    /// Number of expression patterns.
    pub fn expr_count(&self) -> usize {
        self.arena.pattern_count()
    }

    /// The assignment pattern with index `i`.
    pub fn assign(&self, i: usize) -> AssignPattern {
        self.assigns[i]
    }

    /// The expression pattern with index `i`.
    pub fn expr(&self, i: usize) -> Term {
        self.arena.pattern_term(PatternId::from_index(i))
    }

    /// The index of an assignment pattern, if it occurs in the program.
    pub fn assign_id(&self, p: &AssignPattern) -> Option<usize> {
        self.assign_index.get(p).copied()
    }

    /// The index of an expression pattern, if it occurs in the program.
    pub fn expr_id(&self, t: &Term) -> Option<usize> {
        self.arena.pattern_id(t).map(PatternId::index)
    }

    /// Iterates over `(index, pattern)` for all assignment patterns.
    pub fn assign_patterns(&self) -> impl Iterator<Item = (usize, AssignPattern)> + '_ {
        self.assigns.iter().copied().enumerate()
    }

    /// Iterates over `(index, term)` for all expression patterns.
    pub fn expr_patterns(&self) -> impl Iterator<Item = (usize, Term)> + '_ {
        self.arena.patterns().map(|(p, t)| (p.index(), t))
    }

    /// The hash-consing arena backing the expression universe.
    pub fn arena(&self) -> &TermArena {
        &self.arena
    }
}

impl fmt::Debug for PatternUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PatternUniverse")
            .field("assigns", &self.assigns)
            .field(
                "exprs",
                &self.arena.patterns().map(|(_, t)| t).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// The structural reference implementation of universe collection: the same
/// first-occurrence numbering, computed with plain vectors and linear-scan
/// deduplication — no arena, no hash table, no cached hashes. The
/// differential oracle compares [`PatternUniverse::collect`] against this
/// on every corpus program; a bug shared by both implementations would have
/// to survive two unrelated algorithms.
pub fn reference_universe(g: &FlowGraph) -> (Vec<AssignPattern>, Vec<Term>) {
    let mut assigns: Vec<AssignPattern> = Vec::new();
    let mut exprs: Vec<Term> = Vec::new();
    for (_, instr) in g.locs() {
        if let Instr::Assign { lhs, rhs } = instr {
            let p = AssignPattern::new(*lhs, *rhs);
            if !assigns.contains(&p) {
                assigns.push(p);
            }
        }
        instr.for_each_expr_occurrence(|t| {
            if !exprs.contains(&t) {
                exprs.push(t);
            }
        });
    }
    (assigns, exprs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;
    use crate::term::BinOp;

    fn sample_graph() -> FlowGraph {
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, a);
        g.add_edge(s, b);
        g.add_edge(a, e);
        g.add_edge(b, e);
        let x = g.pool_mut().intern("x");
        let y = g.pool_mut().intern("y");
        let z = g.pool_mut().intern("z");
        let add = Term::binary(BinOp::Add, y, z);
        g.push_instr(
            s,
            Instr::Branch(Cond::new(
                BinOp::Gt,
                Term::binary(BinOp::Add, x, z),
                Term::operand(y),
            )),
        );
        g.push_instr(a, Instr::assign(x, add));
        g.push_instr(b, Instr::assign(x, add));
        g.push_instr(b, Instr::assign(y, 1));
        g
    }

    #[test]
    fn collect_dedups_patterns() {
        let g = sample_graph();
        let u = PatternUniverse::collect(&g);
        // x := y+z (twice, one pattern) and y := 1.
        assert_eq!(u.assign_count(), 2);
        // x+z (condition side) and y+z.
        assert_eq!(u.expr_count(), 2);
        let y = g.pool().lookup("y").unwrap();
        let z = g.pool().lookup("z").unwrap();
        let x = g.pool().lookup("x").unwrap();
        let p = AssignPattern::new(x, Term::binary(BinOp::Add, y, z));
        assert!(u.assign_id(&p).is_some());
        assert_eq!(u.assign(u.assign_id(&p).unwrap()), p);
        assert!(u.expr_id(&Term::binary(BinOp::Add, x, z)).is_some());
        assert_eq!(u.expr_id(&Term::binary(BinOp::Mul, x, z)), None);
    }

    #[test]
    fn indices_follow_first_occurrence() {
        let g = sample_graph();
        let u = PatternUniverse::collect(&g);
        // The branch condition in node s is first, so x+z is expression 0.
        let x = g.pool().lookup("x").unwrap();
        let z = g.pool().lookup("z").unwrap();
        assert_eq!(u.expr_id(&Term::binary(BinOp::Add, x, z)), Some(0));
    }

    #[test]
    fn extend_keeps_existing_indices_stable() {
        let g = sample_graph();
        let mut u = PatternUniverse::collect(&g);
        let before: Vec<(usize, Term)> = u.expr_patterns().collect();
        let before_assigns: Vec<(usize, AssignPattern)> = u.assign_patterns().collect();
        assert!(u.covers(&g));

        // A second program introduces one new expression and one new
        // assignment pattern; the old indices must not move.
        let mut g2 = g.clone();
        let w = g2.pool_mut().intern("w");
        let y = g2.pool().lookup("y").unwrap();
        let n = g2.start();
        g2.push_instr(n, Instr::assign(w, Term::binary(BinOp::Mul, y, w)));
        assert!(!u.covers(&g2));
        u.extend(&g2);
        assert!(u.covers(&g2));
        assert_eq!(
            &u.expr_patterns().collect::<Vec<_>>()[..before.len()],
            &before[..]
        );
        assert_eq!(
            &u.assign_patterns().collect::<Vec<_>>()[..before_assigns.len()],
            &before_assigns[..]
        );
        assert_eq!(u.expr_count(), before.len() + 1);
        assert_eq!(
            u.expr_id(&Term::binary(BinOp::Mul, y, w)),
            Some(before.len())
        );
    }

    #[test]
    fn reference_universe_matches_collect() {
        let g = sample_graph();
        let u = PatternUniverse::collect(&g);
        let (assigns, exprs) = reference_universe(&g);
        assert_eq!(
            u.assign_patterns().map(|(_, p)| p).collect::<Vec<_>>(),
            assigns
        );
        assert_eq!(u.expr_patterns().map(|(_, t)| t).collect::<Vec<_>>(), exprs);
    }

    #[test]
    fn blocking_predicate() {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        let z = pool.intern("z");
        let p = AssignPattern::new(x, Term::binary(BinOp::Add, y, z));
        // Modifying an operand blocks.
        assert!(p.blocked_by(&Instr::assign(y, 0)));
        // Modifying the lhs blocks.
        assert!(p.blocked_by(&Instr::assign(x, 0)));
        // Using the lhs blocks.
        assert!(p.blocked_by(&Instr::Out(vec![x.into()])));
        assert!(p.blocked_by(&Instr::assign(z, Term::binary(BinOp::Mul, x, x))));
        // Unrelated instructions do not block.
        let w = pool.intern("w");
        assert!(!p.blocked_by(&Instr::assign(w, y)));
        assert!(!p.blocked_by(&Instr::Skip));
        assert!(!p.blocked_by(&Instr::Out(vec![y.into()])));
    }

    #[test]
    fn transparency_predicate() {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        let p = AssignPattern::new(x, Term::binary(BinOp::Add, y, 1));
        // The pattern's own occurrence is transparent (re-establishes it).
        assert!(p.transparent_for(&Instr::assign(x, Term::binary(BinOp::Add, y, 1))));
        // A different assignment to x destroys it.
        assert!(!p.transparent_for(&Instr::assign(x, 0)));
        // Writing an operand destroys it.
        assert!(!p.transparent_for(&Instr::assign(y, 0)));
        // Reads are harmless.
        assert!(p.transparent_for(&Instr::Out(vec![x.into(), y.into()])));
    }

    #[test]
    fn self_referential_detection() {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        assert!(AssignPattern::new(x, Term::binary(BinOp::Add, x, 1)).is_self_referential());
        assert!(!AssignPattern::new(x, Term::binary(BinOp::Add, y, 1)).is_self_referential());
    }

    #[test]
    fn executed_by_is_exact() {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        let p = AssignPattern::new(x, Term::binary(BinOp::Add, y, 1));
        assert!(p.executed_by(&Instr::assign(x, Term::binary(BinOp::Add, y, 1))));
        assert!(!p.executed_by(&Instr::assign(y, Term::binary(BinOp::Add, y, 1))));
        assert!(!p.executed_by(&Instr::assign(x, Term::binary(BinOp::Add, y, 2))));
        assert!(!p.executed_by(&Instr::Skip));
    }
}
