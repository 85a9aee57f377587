//! Deliberate miscompilation, for exercising the harness itself.
//!
//! A translation validator that has never seen a miscompile is untested.
//! [`FaultSpec`] corrupts the program at an exact phase boundary — through
//! the same mutable hook of
//! [`optimize_hooked`](am_core::global::optimize_hooked) that the
//! snapshotting uses — and the test suite (and `amcheck --inject`) then
//! asserts that validation localizes the failure to that phase and that
//! the shrinker reduces the witness to a handful of nodes.

use am_core::global::PhaseId;
use am_ir::{FlowGraph, Instr, Loc, Operand, PatternUniverse, Term};

/// Where to inject the fault: immediately after the named phase runs, so
/// the corruption is attributed to that phase's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectAt {
    /// After the initialization phase.
    Init,
    /// After the given 1-based assignment-motion round.
    MotionRound(usize),
    /// After the final flush.
    Flush,
}

impl InjectAt {
    /// Whether this injection point matches a fired phase boundary.
    pub fn matches(self, phase: PhaseId) -> bool {
        match (self, phase) {
            (InjectAt::Init, PhaseId::Init) => true,
            (InjectAt::MotionRound(want), PhaseId::MotionRound(got)) => want == got,
            (InjectAt::Flush, PhaseId::Flush) => true,
            _ => false,
        }
    }
}

/// The corruption to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Add 1 to the first constant operand found — a wrong-code bug that
    /// diverges observably whenever the constant flows to an `out`.
    TweakConst,
    /// Delete the last `out(...)` (or, failing that, the last assignment) —
    /// the classic dropped-instruction miscompile.
    DropInstr,
    /// Duplicate the first non-trivial assignment whose right-hand side
    /// does not mention its own left-hand side. Semantics are preserved but
    /// every execution pays an extra expression evaluation: an *optimality*
    /// regression (Thm 5.2), not a wrong-code bug.
    DuplicateEval,
    /// Swap every occurrence of the program's first two expression patterns
    /// (pattern ids 0 and 1 of the interning arena, i.e. the first two
    /// distinct non-trivial terms in first-occurrence order). This models an
    /// id-confusion bug in a hash-consed IR: every id stays in range and the
    /// graph stays structurally valid, but terms are systematically
    /// mis-resolved — the kind of corruption only a semantic differential
    /// (or a redundancy lint on the now-misplaced recomputations) catches.
    SwapPatternIds,
}

/// A fault to inject during a hooked optimizer run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The phase boundary to corrupt.
    pub at: InjectAt,
    /// The corruption.
    pub kind: FaultKind,
}

/// Applies `kind` to `g`. Returns whether a suitable injection site was
/// found; the graph is untouched otherwise. The mutation always leaves the
/// graph structurally valid.
pub fn apply_fault(g: &mut FlowGraph, kind: FaultKind) -> bool {
    match kind {
        FaultKind::TweakConst => tweak_first_const(g),
        FaultKind::DropInstr => drop_instr(g),
        FaultKind::DuplicateEval => duplicate_eval(g),
        FaultKind::SwapPatternIds => swap_pattern_ids(g),
    }
}

fn swap_pattern_ids(g: &mut FlowGraph) -> bool {
    // The first two distinct non-trivial terms in first-occurrence order are
    // exactly pattern ids 0 and 1 of the interning arena.
    let universe = PatternUniverse::collect(g);
    if universe.expr_count() < 2 {
        return false;
    }
    let (a, b) = (universe.expr(0), universe.expr(1));
    let swap = |t: &mut Term| {
        if *t == a {
            *t = b;
        } else if *t == b {
            *t = a;
        }
    };
    // Only the instructions that change are written.
    let swapped: Vec<(Loc, Instr)> = g
        .locs()
        .filter_map(|(loc, instr)| {
            let mut new = instr.clone();
            match &mut new {
                Instr::Assign { rhs, .. } => swap(rhs),
                Instr::Branch(c) => {
                    swap(&mut c.lhs);
                    swap(&mut c.rhs);
                }
                Instr::Skip | Instr::Out(_) => {}
            }
            (new != *instr).then_some((loc, new))
        })
        .collect();
    for (loc, instr) in swapped {
        g.replace_instr(loc, instr);
    }
    true
}

fn tweak_operand(op: &mut Operand) -> bool {
    if let Operand::Const(c) = op {
        *c = c.wrapping_add(1);
        true
    } else {
        false
    }
}

fn tweak_term(t: &mut Term) -> bool {
    match t {
        Term::Operand(op) => tweak_operand(op),
        Term::Binary { lhs, rhs, .. } => tweak_operand(lhs) || tweak_operand(rhs),
    }
}

fn tweak_first_const(g: &mut FlowGraph) -> bool {
    let tweaked = g.locs().find_map(|(loc, instr)| {
        let mut new = instr.clone();
        let hit = match &mut new {
            Instr::Skip => false,
            Instr::Assign { rhs, .. } => tweak_term(rhs),
            Instr::Out(ops) => ops.iter_mut().any(tweak_operand),
            Instr::Branch(c) => tweak_term(&mut c.lhs) || tweak_term(&mut c.rhs),
        };
        hit.then_some((loc, new))
    });
    let Some((loc, instr)) = tweaked else {
        return false;
    };
    g.replace_instr(loc, instr);
    true
}

fn drop_instr(g: &mut FlowGraph) -> bool {
    let nodes: Vec<_> = g.nodes().collect();
    // Prefer dropping an out — observably wrong on every path through it.
    for &n in nodes.iter().rev() {
        let site = g.instrs(n).rposition(|i| matches!(i, Instr::Out(_)));
        if let Some(index) = site {
            g.remove_instr(Loc { node: n, index });
            return true;
        }
    }
    for &n in nodes.iter().rev() {
        let site = g.instrs(n).rposition(|i| matches!(i, Instr::Assign { .. }));
        if let Some(index) = site {
            g.remove_instr(Loc { node: n, index });
            return true;
        }
    }
    false
}

fn duplicate_eval(g: &mut FlowGraph) -> bool {
    for n in g.nodes().collect::<Vec<_>>() {
        let site = g.instrs(n).position(|i| match i {
            Instr::Assign { lhs, rhs } => rhs.is_nontrivial() && !rhs.mentions(*lhs),
            _ => false,
        });
        if let Some(index) = site {
            let dup = g.instr(Loc { node: n, index }).clone();
            g.insert_instr(
                Loc {
                    node: n,
                    index: index + 1,
                },
                dup,
            );
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::interp::{run, Config};
    use am_ir::text::parse;

    const SRC: &str =
        "start s\nend e\nnode s { x := a+1; y := x+2 }\nnode e { out(x,y) }\nedge s -> e";

    #[test]
    fn tweak_const_changes_observables() {
        let orig = parse(SRC).unwrap();
        let mut g = orig.clone();
        assert!(apply_fault(&mut g, FaultKind::TweakConst));
        assert_eq!(g.validate(), Ok(()));
        let cfg = Config::with_inputs(vec![("a", 5)]);
        assert_ne!(run(&orig, &cfg).observable(), run(&g, &cfg).observable());
    }

    #[test]
    fn drop_instr_removes_an_out_first() {
        let mut g = parse(SRC).unwrap();
        assert!(apply_fault(&mut g, FaultKind::DropInstr));
        assert_eq!(g.validate(), Ok(()));
        let text = am_ir::text::to_text(&g);
        assert!(!text.contains("out"), "{text}");
    }

    #[test]
    fn duplicate_eval_keeps_semantics_but_adds_an_evaluation() {
        let orig = parse(SRC).unwrap();
        let mut g = orig.clone();
        assert!(apply_fault(&mut g, FaultKind::DuplicateEval));
        assert_eq!(g.validate(), Ok(()));
        let cfg = Config::with_inputs(vec![("a", 5)]);
        let (a, b) = (run(&orig, &cfg), run(&g, &cfg));
        assert_eq!(a.observable(), b.observable());
        assert_eq!(b.expr_evals, a.expr_evals + 1);
    }

    #[test]
    fn self_referential_assignments_are_never_duplicated() {
        let mut g =
            parse("start s\nend e\nnode s { x := x+1 }\nnode e { out(x) }\nedge s -> e").unwrap();
        assert!(!apply_fault(&mut g, FaultKind::DuplicateEval));
    }

    #[test]
    fn faults_without_a_site_report_failure() {
        let mut g =
            parse("start s\nend e\nnode s { skip }\nnode e { out(x) }\nedge s -> e").unwrap();
        assert!(!apply_fault(&mut g, FaultKind::TweakConst));
        assert!(!apply_fault(&mut g, FaultKind::DuplicateEval));
        assert!(!apply_fault(&mut g, FaultKind::SwapPatternIds));
    }

    #[test]
    fn swap_pattern_ids_exchanges_the_first_two_patterns_everywhere() {
        let orig = parse(SRC).unwrap();
        let mut g = orig.clone();
        assert!(apply_fault(&mut g, FaultKind::SwapPatternIds));
        assert_eq!(g.validate(), Ok(()));
        // `x := a+1; y := x+2` becomes `x := x+2; y := a+1`: same instruction
        // shapes, same pattern universe, systematically wrong bindings.
        let text = am_ir::text::to_text(&g);
        assert!(text.contains("x := x+2"), "{text}");
        assert!(text.contains("y := a+1"), "{text}");
        let cfg = Config::with_inputs(vec![("a", 5)]);
        assert_ne!(run(&orig, &cfg).observable(), run(&g, &cfg).observable());
    }

    #[test]
    fn swap_pattern_ids_needs_two_distinct_patterns() {
        // Two occurrences of the *same* pattern are one pattern id — no site.
        let mut g = parse(
            "start s\nend e\nnode s { x := a+1; y := a+1 }\nnode e { out(x,y) }\nedge s -> e",
        )
        .unwrap();
        assert!(!apply_fault(&mut g, FaultKind::SwapPatternIds));
    }

    #[test]
    fn swap_pattern_ids_is_an_involution() {
        let orig = parse(SRC).unwrap();
        let mut g = orig.clone();
        assert!(apply_fault(&mut g, FaultKind::SwapPatternIds));
        // First-occurrence order flips with the swap, so applying the fault
        // again swaps the same two terms back.
        assert!(apply_fault(&mut g, FaultKind::SwapPatternIds));
        assert_eq!(am_ir::text::to_text(&g), am_ir::text::to_text(&orig));
    }

    #[test]
    fn inject_at_matches_the_right_boundaries() {
        assert!(InjectAt::Init.matches(PhaseId::Init));
        assert!(InjectAt::MotionRound(2).matches(PhaseId::MotionRound(2)));
        assert!(!InjectAt::MotionRound(2).matches(PhaseId::MotionRound(1)));
        assert!(!InjectAt::Flush.matches(PhaseId::Init));
    }
}
