//! Copy propagation — the `CP` of the Sec. 6 comparison (Fig. 20(a)).
//!
//! Classic EM pipelines interleave expression motion with copy propagation
//! to undo the damage 3-address decomposition does to movability
//! (Fig. 19(b)). This module provides that comparator: a must-reaching-copy
//! analysis (built on [`am_dfa::classic::reaching_copies`]) drives use
//! rewriting, iterated to closure, plus an optional dead-trivial-copy
//! cleanup based on liveness (removing a *trivial* assignment cannot change
//! trap behaviour, so the cleanup is semantics-preserving — unlike general
//! dead-code elimination, which the paper rules out in Sec. 3).

use am_dfa::{classic, BlockGraph, PointFacts};
use am_ir::{Cond, FlowGraph, Instr, Loc, Operand, PatternUniverse, Term, Var};

/// Statistics of a [`copy_propagation`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CopyPropStats {
    /// Operand uses rewritten to the copy source.
    pub rewritten: usize,
    /// Dead trivial copies removed (when enabled).
    pub removed: usize,
    /// Rewriting rounds until closure.
    pub rounds: usize,
}

fn substitute_operand(o: Operand, from: Var, to: Operand) -> (Operand, bool) {
    match o {
        Operand::Var(v) if v == from => (to, true),
        other => (other, false),
    }
}

fn substitute_term(t: Term, from: Var, to: Operand) -> (Term, usize) {
    match t {
        Term::Operand(o) => {
            let (o2, hit) = substitute_operand(o, from, to);
            (Term::Operand(o2), usize::from(hit))
        }
        Term::Binary { op, lhs, rhs } => {
            let (l, h1) = substitute_operand(lhs, from, to);
            let (r, h2) = substitute_operand(rhs, from, to);
            (
                Term::Binary { op, lhs: l, rhs: r },
                usize::from(h1) + usize::from(h2),
            )
        }
    }
}

/// One round of copy propagation: rewrites every use reached by a unique
/// must-available copy. Returns the number of uses rewritten.
fn propagate_once(g: &mut FlowGraph) -> usize {
    let universe = PatternUniverse::collect(g);
    let sol = classic::reaching_copies(g, &BlockGraph::build(g), &universe);

    // Collect the copy patterns (v := operand).
    let copies: Vec<(usize, Var, Operand)> = universe
        .assign_patterns()
        .filter_map(|(i, pat)| match pat.rhs {
            Term::Operand(o) => Some((i, pat.lhs, o)),
            _ => None,
        })
        .collect();

    let mut rewritten = 0;
    let mut changed: Vec<(Loc, Instr)> = Vec::new();
    let mut facts = PointFacts::default();
    for n in g.nodes() {
        sol.facts(g, n, &mut facts);
        for (index, instr) in g.instrs(n).enumerate() {
            let before = facts.before(index);
            let mut new_instr = instr.clone();
            for &(i, v, src) in &copies {
                if !before.contains(i) {
                    continue;
                }
                // Don't rewrite v in the copy v := v' itself (it has no use
                // of v), nor chase self-copies.
                match &mut new_instr {
                    Instr::Assign { rhs, .. } => {
                        let (t, hits) = substitute_term(*rhs, v, src);
                        *rhs = t;
                        rewritten += hits;
                    }
                    Instr::Out(ops) => {
                        for o in ops.iter_mut() {
                            let (o2, hit) = substitute_operand(*o, v, src);
                            *o = o2;
                            rewritten += usize::from(hit);
                        }
                    }
                    Instr::Branch(c) => {
                        let (l, h1) = substitute_term(c.lhs, v, src);
                        let (r, h2) = substitute_term(c.rhs, v, src);
                        *c = Cond {
                            op: c.op,
                            lhs: l,
                            rhs: r,
                        };
                        rewritten += h1 + h2;
                    }
                    Instr::Skip => {}
                }
            }
            // Normalize x := x to skip.
            if let Instr::Assign { lhs, rhs } = &new_instr {
                if *rhs == Term::Operand(Operand::Var(*lhs)) {
                    new_instr = Instr::Skip;
                }
            }
            if new_instr != *instr {
                changed.push((Loc { node: n, index }, new_instr));
            }
        }
    }
    for (loc, instr) in changed {
        g.replace_instr(loc, instr);
    }
    rewritten
}

/// Removes trivial copies (`v := operand`) whose target is dead. Trivial
/// right-hand sides evaluate nothing, so this cannot change traps.
pub fn remove_dead_copies(g: &mut FlowGraph) -> usize {
    let live = classic::live_variables(g, &BlockGraph::build(g));
    let (mut doomed, mut facts) = (Vec::new(), PointFacts::default());
    for n in g.nodes() {
        live.facts(g, n, &mut facts);
        for (index, instr) in g.instrs(n).enumerate() {
            if let Instr::Assign {
                lhs,
                rhs: Term::Operand(_),
            } = instr
            {
                if !facts.after(index).contains(lhs.index()) {
                    doomed.push(Loc { node: n, index });
                }
            }
        }
    }
    let removed = doomed.len();
    crate::rae::remove_locs(g, &doomed);
    removed
}

/// Copy propagation to closure, optionally followed by dead-copy removal.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::copyprop::copy_propagation;
///
/// let mut g = parse(
///     "start s\nend e\nnode s { t := a; x := t+1 }\nnode e { out(x) }\nedge s -> e",
/// )?;
/// copy_propagation(&mut g, true);
/// let text = am_ir::text::to_text(&g);
/// assert!(text.contains("x := a+1"));
/// assert!(!text.contains("t := a"));
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn copy_propagation(g: &mut FlowGraph, clean_dead_copies: bool) -> CopyPropStats {
    let mut stats = CopyPropStats::default();
    // Chains (a := b; c := a; use c) settle in at most |vars| rounds.
    for _ in 0..=g.pool().len() {
        stats.rounds += 1;
        let hits = propagate_once(g);
        stats.rewritten += hits;
        if hits == 0 {
            break;
        }
    }
    if clean_dead_copies {
        loop {
            let removed = remove_dead_copies(g);
            stats.removed += removed;
            if removed == 0 {
                break;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::interp;
    use am_ir::text::parse;

    #[test]
    fn straight_line_copy_is_propagated() {
        let mut g =
            parse("start 1\nend 2\nnode 1 { t := a; x := t+c }\nnode 2 { out(x,t) }\nedge 1 -> 2")
                .unwrap();
        let stats = copy_propagation(&mut g, false);
        assert!(stats.rewritten >= 2);
        let text = am_ir::text::to_text(&g);
        assert!(text.contains("x := a+c"), "{text}");
        assert!(text.contains("out(x,a)"), "{text}");
    }

    #[test]
    fn dead_copy_is_removed_after_propagation() {
        let mut g =
            parse("start 1\nend 2\nnode 1 { t := a; x := t+c }\nnode 2 { out(x) }\nedge 1 -> 2")
                .unwrap();
        let stats = copy_propagation(&mut g, true);
        assert_eq!(stats.removed, 1);
        assert!(!am_ir::text::to_text(&g).contains("t :="));
    }

    #[test]
    fn copy_killed_by_source_write_is_not_propagated() {
        let mut g = parse(
            "start 1\nend 2\nnode 1 { t := a; a := 0; x := t+c }\nnode 2 { out(x) }\nedge 1 -> 2",
        )
        .unwrap();
        copy_propagation(&mut g, false);
        let text = am_ir::text::to_text(&g);
        assert!(text.contains("x := t+c"), "{text}");
    }

    #[test]
    fn chains_settle() {
        let mut g = parse(
            "start 1\nend 2\nnode 1 { a := q; b := a; c := b; x := c+1 }\nnode 2 { out(x) }\nedge 1 -> 2",
        )
        .unwrap();
        copy_propagation(&mut g, true);
        let text = am_ir::text::to_text(&g);
        assert!(text.contains("x := q+1"), "{text}");
        assert!(!text.contains("b :="), "{text}");
    }

    #[test]
    fn branch_join_blocks_must_propagation() {
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { branch p > 0 }\n\
             node 2 { t := a }\n\
             node 3 { t := b }\n\
             node 4 { x := t+1; out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        copy_propagation(&mut g, false);
        let text = am_ir::text::to_text(&g);
        assert!(text.contains("x := t+1"), "different copies reach: {text}");
    }

    #[test]
    fn constants_propagate_too() {
        let mut g =
            parse("start 1\nend 2\nnode 1 { t := 5; x := t+c }\nnode 2 { out(x) }\nedge 1 -> 2")
                .unwrap();
        copy_propagation(&mut g, true);
        let text = am_ir::text::to_text(&g);
        assert!(text.contains("x := 5+c"), "{text}");
    }

    #[test]
    fn propagation_preserves_semantics() {
        let src = "start 1\nend 4\n\
             node 1 { t := a; branch p > 0 }\n\
             node 2 { x := t+1; a := 9 }\n\
             node 3 { x := t+2 }\n\
             node 4 { y := t; out(x,y,a) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4";
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        copy_propagation(&mut g, true);
        for seed in 0..10 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 3),
                inputs: vec![("a".into(), seed as i64), ("p".into(), 1)],
                ..Default::default()
            };
            assert_eq!(
                interp::run(&orig, &cfg).observable(),
                interp::run(&g, &cfg).observable(),
                "seed {seed}"
            );
        }
    }
}
