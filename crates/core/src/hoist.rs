//! Assignment hoisting (Table 1, Sec. 4.3.2).
//!
//! The hoistability analysis determines how far each assignment pattern can
//! be moved against the control flow while preserving semantics. It is a
//! *block-level* backward must system solved to its greatest fixed point:
//!
//! ```text
//! N-HOISTABLE_n = LOC-HOISTABLE_n + X-HOISTABLE_n · ¬LOC-BLOCKED_n
//! X-HOISTABLE_n = false                    if n = e
//!                 ∏_{m ∈ succ(n)} N-HOISTABLE_m  otherwise
//! ```
//!
//! A *hoisting candidate* of `α ≡ x := t` is an occurrence of `α` that no
//! earlier instruction of its block blocks (modifies an operand of `t`, or
//! uses or modifies `x`) — at most the first occurrence qualifies, because
//! every occurrence blocks the ones after it (Fig. 13).
//!
//! The insertion points of the greatest solution are:
//!
//! ```text
//! N-INSERT_n = N-HOISTABLE*_n · (n = s  +  Σ_{m ∈ pred(n)} ¬X-HOISTABLE*_m)
//! X-INSERT_n = X-HOISTABLE*_n · LOC-BLOCKED_n
//! ```
//!
//! (The `n = s` boundary term is the standard earliestness boundary of lazy
//! code motion; without it, assignments hoistable to the program entry would
//! have no insertion site — Fig. 2 requires it. See DESIGN.md.)
//!
//! The transformation inserts an instance of every pattern at its insertion
//! points and simultaneously removes all hoisting candidates. Patterns
//! inserted at the same point are mutually independent (Sec. 4.3.2), so they
//! are emitted in pattern-index order.

use am_bitset::BitSet;
use am_dfa::{solve_scheduled, Confluence, Direction, PatternMasks, Problem, Schedule};
use am_ir::{AssignPattern, FlowGraph, Instr, NodeId, PatternUniverse};

/// The solved hoistability analysis of a program.
pub struct HoistAnalysis {
    /// The assignment-pattern universe the bit indices refer to.
    pub universe: PatternUniverse,
    /// `LOC-HOISTABLE` per node.
    pub loc_hoistable: Vec<BitSet>,
    /// `LOC-BLOCKED` per node.
    pub loc_blocked: Vec<BitSet>,
    /// Greatest solution `N-HOISTABLE*` per node.
    pub n_hoistable: Vec<BitSet>,
    /// Greatest solution `X-HOISTABLE*` per node.
    pub x_hoistable: Vec<BitSet>,
    /// `N-INSERT` per node.
    pub n_insert: Vec<BitSet>,
    /// `X-INSERT` per node.
    pub x_insert: Vec<BitSet>,
    /// Per node, the `(pattern, instruction index)` hoisting candidates.
    pub candidates: Vec<Vec<(usize, usize)>>,
    /// Solver iterations (for the complexity study).
    pub iterations: u64,
    /// Solver worklist pushes.
    pub worklist_pushes: u64,
    /// Peak solver worklist length.
    pub max_worklist_len: usize,
}

/// Computes local predicates and solves the hoistability system of Table 1.
pub fn analyze_hoisting(g: &FlowGraph) -> HoistAnalysis {
    let universe = PatternUniverse::collect(g);
    let masks = PatternMasks::build(&universe, g.pool().len());
    let ap = universe.assign_count();
    let nodes = g.node_count();

    let mut loc_hoistable = vec![BitSet::new(ap); nodes];
    let mut loc_blocked = vec![BitSet::new(ap); nodes];
    let mut candidates: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes];

    for n in g.nodes() {
        let (hoistable, blocked, cands) = block_locals(&g.block(n).instrs, &universe, &masks);
        loc_hoistable[n.index()] = hoistable;
        loc_blocked[n.index()] = blocked;
        candidates[n.index()] = cands;
    }

    // Backward must system over whole blocks.
    let (succs, preds) = am_dfa::node_adjacency(g);
    let schedule = Schedule::build(&succs, &preds);
    let mut problem = Problem::new(Direction::Backward, Confluence::Must, nodes, ap);
    problem.gen = loc_hoistable.clone();
    problem.kill = loc_blocked.clone();
    let sol = solve_scheduled(&succs, &preds, &problem, &schedule);
    let n_hoistable = sol.before;
    let x_hoistable = sol.after;

    let (n_insert, x_insert) = insertion_points(g, &n_hoistable, &x_hoistable, &loc_blocked, ap);

    HoistAnalysis {
        universe,
        loc_hoistable,
        loc_blocked,
        n_hoistable,
        x_hoistable,
        n_insert,
        x_insert,
        candidates,
        iterations: sol.iterations,
        worklist_pushes: sol.worklist_pushes,
        max_worklist_len: sol.max_worklist_len,
    }
}

/// The block-level local predicates of Table 1 for one instruction list:
/// `LOC-HOISTABLE`, `LOC-BLOCKED` and the `(pattern, index)` hoisting
/// candidates, in one pass with a running blocked mask instead of a
/// per-pattern rescan. The candidate check precedes the instruction's own
/// blocking update: the first *unblocked* occurrence of a pattern is its
/// candidate (Fig. 13), and every occurrence blocks the ones after it.
pub(crate) fn block_locals(
    instrs: &[Instr],
    universe: &PatternUniverse,
    masks: &PatternMasks,
) -> (BitSet, BitSet, Vec<(usize, usize)>) {
    let ap = universe.assign_count();
    let mut hoistable = BitSet::new(ap);
    let mut blocked = BitSet::new(ap);
    let mut candidates = Vec::new();
    for (idx, instr) in instrs.iter().enumerate() {
        if let Instr::Assign { lhs, rhs } = instr {
            if let Some(i) = universe.assign_id(&AssignPattern::new(*lhs, *rhs)) {
                if !blocked.contains(i) && !hoistable.contains(i) {
                    hoistable.insert(i);
                    candidates.push((i, idx));
                }
            }
        }
        if let Some(d) = instr.def() {
            blocked.union_with(masks.assign_lhs(d));
            blocked.union_with(masks.assign_mentions(d));
        }
        instr.for_each_use(|u| {
            blocked.union_with(masks.assign_lhs(u));
        });
    }
    (hoistable, blocked, candidates)
}

/// The insertion points of the greatest solution: `N-INSERT` at the
/// earliestness frontier (start node, or predecessors where hoisting
/// stops), `X-INSERT` where the block's own code blocks the pattern.
pub(crate) fn insertion_points(
    g: &FlowGraph,
    n_hoistable: &[BitSet],
    x_hoistable: &[BitSet],
    loc_blocked: &[BitSet],
    ap: usize,
) -> (Vec<BitSet>, Vec<BitSet>) {
    insertion_points_reusing(g, n_hoistable, x_hoistable, loc_blocked, ap, None)
}

/// As [`insertion_points`], recycling previously returned tables. The
/// frontier `Σ ¬X-HOISTABLE*` is computed as `¬ Π X-HOISTABLE*`
/// (De Morgan), so the whole pass runs with one reused scratch set instead
/// of an allocation per predecessor.
pub(crate) fn insertion_points_reusing(
    g: &FlowGraph,
    n_hoistable: &[BitSet],
    x_hoistable: &[BitSet],
    loc_blocked: &[BitSet],
    ap: usize,
    recycled: Option<(Vec<BitSet>, Vec<BitSet>)>,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let nodes = g.node_count();
    let (mut n_insert, mut x_insert) = recycled.unwrap_or_default();
    fit_rows(&mut n_insert, nodes, ap);
    fit_rows(&mut x_insert, nodes, ap);
    let mut inter = BitSet::new(ap);
    for n in g.nodes() {
        let ni = n.index();
        // N-INSERT = N-HOISTABLE ∩ Σ_m ¬X-HOISTABLE_m
        //          = N-HOISTABLE ∖ Π_m X-HOISTABLE_m   (start: full frontier).
        n_insert[ni].copy_from(&n_hoistable[ni]);
        if n != g.start() {
            match g.preds(n).split_first() {
                Some((&first, rest)) => {
                    inter.copy_from(&x_hoistable[first.index()]);
                    for &m in rest {
                        inter.intersect_with(&x_hoistable[m.index()]);
                    }
                    n_insert[ni].difference_with(&inter);
                }
                // An empty merge is an empty frontier.
                None => n_insert[ni].clear(),
            }
        }
        x_insert[ni].copy_from(&x_hoistable[ni]);
        x_insert[ni].intersect_with(&loc_blocked[ni]);
    }
    (n_insert, x_insert)
}

/// Sizes `rows` to `n` sets of width `ap`, reusing allocations where the
/// width already matches; retained contents are overwritten by the caller.
fn fit_rows(rows: &mut Vec<BitSet>, n: usize, ap: usize) {
    if rows.first().is_some_and(|r| r.len() != ap) {
        rows.clear();
    }
    rows.resize_with(n, || BitSet::new(ap));
}

/// Outcome of one [`hoist_assignments`] pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HoistOutcome {
    /// Instances inserted at `N-INSERT`/`X-INSERT` points.
    pub inserted: usize,
    /// Hoisting candidates removed.
    pub removed: usize,
    /// Whether the program changed.
    pub changed: bool,
    /// Solver iterations.
    pub iterations: u64,
    /// Solver worklist pushes.
    pub worklist_pushes: u64,
    /// Peak solver worklist length.
    pub max_worklist_len: usize,
}

/// Applies the Insertion Step of Sec. 4.3.2: inserts every pattern at its
/// insertion points and removes all hoisting candidates.
///
/// A single pass is not idempotent in general — hoisting exposes new
/// redundancies and further hoists (the second-order effects of Sec. 4.3);
/// [`assignment_motion`](crate::motion::assignment_motion) iterates it
/// against redundancy elimination until the program stabilizes.
pub fn hoist_assignments(g: &mut FlowGraph) -> HoistOutcome {
    let analysis = analyze_hoisting(g);
    apply_insertion_step_filtered(g, &analysis, |_| true)
}

/// Applies the insertion/removal step for a previously computed analysis,
/// optionally restricted to a subset of patterns (used by the restricted
/// baseline of Fig. 8/9).
pub(crate) fn apply_insertion_step_filtered(
    g: &mut FlowGraph,
    analysis: &HoistAnalysis,
    keep: impl Fn(usize) -> bool,
) -> HoistOutcome {
    let mut outcome = HoistOutcome {
        iterations: analysis.iterations,
        worklist_pushes: analysis.worklist_pushes,
        max_worklist_len: analysis.max_worklist_len,
        ..HoistOutcome::default()
    };
    for n in g.nodes().collect::<Vec<_>>() {
        let ni = n.index();
        let mut fresh: Vec<Instr> = Vec::new();
        for i in analysis.n_insert[ni].iter().filter(|&i| keep(i)) {
            let pat = analysis.universe.assign(i);
            fresh.push(Instr::Assign {
                lhs: pat.lhs,
                rhs: pat.rhs,
            });
            outcome.inserted += 1;
        }
        let removed_here: Vec<usize> = analysis.candidates[ni]
            .iter()
            .filter(|(pat, _)| keep(*pat))
            .map(|(_, idx)| *idx)
            .collect();
        for (idx, instr) in g.block(n).instrs.iter().enumerate() {
            if removed_here.contains(&idx) {
                outcome.removed += 1;
            } else {
                fresh.push(instr.clone());
            }
        }
        for i in analysis.x_insert[ni].iter().filter(|&i| keep(i)) {
            let pat = analysis.universe.assign(i);
            fresh.push(Instr::Assign {
                lhs: pat.lhs,
                rhs: pat.rhs,
            });
            outcome.inserted += 1;
        }
        if *g.block(n)
            != (am_ir::Block {
                instrs: fresh.clone(),
            })
        {
            outcome.changed = true;
        }
        g.block_mut(n).instrs = fresh;
    }
    outcome
}

/// Convenience for tests: the `N-INSERT` patterns of node `n`, displayed.
pub fn display_inserts(g: &FlowGraph, analysis: &HoistAnalysis, n: NodeId) -> Vec<String> {
    analysis.n_insert[n.index()]
        .iter()
        .map(|i| analysis.universe.assign(i).display(g.pool()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::{parse, to_text};

    /// Fig. 2(a): hoisting x := a+b out of the loop.
    const FIG2: &str = "
        start 1
        end 5
        node 1 { skip }
        node 2 { z := a+b; x := a+b }
        node 3 { x := a+b; y := x+y }
        node w { skip }
        node 4 { out(x,y) }
        node 5 { skip }
        edge 1 -> 2, 3
        edge 2 -> 4
        edge 3 -> w
        edge w -> 3, 4
        edge 4 -> 5
    ";

    #[test]
    fn candidates_follow_fig13() {
        // Fig. 13: in [x := d; y := a+b; x := 3*y; a := c; y := a+b] the
        // first y := a+b is a candidate; the second is blocked by a := c
        // (and by the first occurrence).
        let g = parse(
            "start 1\nend 2\n\
             node 1 { x := d; y := a+b; x := 3*y; a := c; y := a+b }\n\
             node 2 { out(x,y) }\nedge 1 -> 2",
        )
        .unwrap();
        let analysis = analyze_hoisting(&g);
        let y = g.pool().lookup("y").unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let pat = am_ir::AssignPattern::new(y, am_ir::Term::binary(am_ir::BinOp::Add, a, b));
        let i = analysis.universe.assign_id(&pat).unwrap();
        let n1 = g.start();
        let cands: Vec<usize> = analysis.candidates[n1.index()]
            .iter()
            .filter(|(p, _)| *p == i)
            .map(|(_, idx)| *idx)
            .collect();
        assert_eq!(cands, vec![1], "only the first occurrence is a candidate");
        assert!(analysis.loc_hoistable[n1.index()].contains(i));
        assert!(analysis.loc_blocked[n1.index()].contains(i));
    }

    #[test]
    fn blocked_occurrence_is_not_a_candidate() {
        let g =
            parse("start 1\nend 2\nnode 1 { a := 1; x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2")
                .unwrap();
        let analysis = analyze_hoisting(&g);
        let n1 = g.start();
        let x = g.pool().lookup("x").unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let pat = am_ir::AssignPattern::new(x, am_ir::Term::binary(am_ir::BinOp::Add, a, b));
        let i = analysis.universe.assign_id(&pat).unwrap();
        assert!(!analysis.loc_hoistable[n1.index()].contains(i));
        assert!(analysis.candidates[n1.index()].iter().all(|(p, _)| *p != i));
    }

    #[test]
    fn hoisting_moves_common_assignment_to_branch_node() {
        let mut g = parse(FIG2).unwrap();
        g.split_critical_edges();
        // One pass hoists x := a+b from nodes 2 and 3 into node 1.
        hoist_assignments(&mut g);
        let n1 = g.start();
        let text = to_text(&g);
        let instrs: Vec<String> = g
            .block(n1)
            .instrs
            .iter()
            .map(|i| i.display(g.pool()))
            .collect();
        assert!(instrs.contains(&"x := a+b".to_owned()), "{text}");
    }

    #[test]
    fn hoisting_preserves_semantics() {
        let orig = parse(FIG2).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        hoist_assignments(&mut g);
        assert_eq!(g.validate(), Ok(()));
        for seed in 0..20 {
            let cfg = am_ir::interp::Config {
                oracle: am_ir::interp::Oracle::random(seed, 5),
                inputs: vec![("a".into(), seed as i64), ("b".into(), 3), ("y".into(), 1)],
                ..Default::default()
            };
            let r0 = am_ir::interp::run(&orig, &cfg);
            let r1 = am_ir::interp::run(&g, &cfg);
            assert_eq!(r0.observable(), r1.observable(), "seed {seed}");
        }
    }

    #[test]
    fn use_in_condition_blocks_hoisting() {
        // x := a+b below a branch that reads x must not cross the branch.
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { branch x > 0 }\n\
             node 2 { x := a+b }\n\
             node 3 { x := a+b }\n\
             node 4 { out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        let before = to_text(&g);
        let analysis = analyze_hoisting(&g);
        let n1 = g.start();
        // Hoistable *to the entries of 2 and 3* but not through node 1.
        let x = g.pool().lookup("x").unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let pat = am_ir::AssignPattern::new(x, am_ir::Term::binary(am_ir::BinOp::Add, a, b));
        let i = analysis.universe.assign_id(&pat).unwrap();
        assert!(analysis.x_hoistable[n1.index()].contains(i));
        assert!(analysis.loc_blocked[n1.index()].contains(i));
        // So the insertion point is the exit of node 1 (X-INSERT).
        assert!(analysis.x_insert[n1.index()].contains(i));
        hoist_assignments(&mut g);
        let instrs: Vec<String> = g
            .block(n1)
            .instrs
            .iter()
            .map(|ins| ins.display(g.pool()))
            .collect();
        assert_eq!(
            instrs,
            vec!["branch x > 0", "x := a+b"],
            "from {before} to {}",
            to_text(&g)
        );
    }

    #[test]
    fn one_sided_occurrence_is_not_hoisted_above_branch() {
        // Hoisting past the branch would execute x := a+b on paths that
        // never executed it (not justified, Def. 3.2(2)).
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { branch p > 0 }\n\
             node 2 { x := a+b }\n\
             node 3 { skip }\n\
             node 4 { out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        hoist_assignments(&mut g);
        let n1 = g.start();
        let instrs: Vec<String> = g
            .block(n1)
            .instrs
            .iter()
            .map(|i| i.display(g.pool()))
            .collect();
        assert_eq!(instrs, vec!["branch p > 0"]);
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert_eq!(g.block(n2).instrs.len(), 1);
    }

    #[test]
    fn start_boundary_insertion() {
        // An assignment hoistable all the way up lands at the start node.
        let mut g = parse(
            "start 1\nend 3\n\
             node 1 { skip }\n\
             node 2 { x := a+b }\n\
             node 3 { out(x) }\n\
             edge 1 -> 2\nedge 2 -> 3",
        )
        .unwrap();
        hoist_assignments(&mut g);
        let instrs: Vec<String> = g
            .block(g.start())
            .instrs
            .iter()
            .map(|i| i.display(g.pool()))
            .collect();
        // N-INSERT places instances at the block *entry*.
        assert_eq!(instrs, vec!["x := a+b", "skip"]);
    }
}
