//! Classic bit-vector analyses as framework instances.
//!
//! These serve two purposes: they validate the solver against well-known
//! semantics, and they are building blocks for the baseline transformations
//! (the lazy-code-motion baseline uses down-safety/anticipability; copy
//! propagation uses reaching copies; assignment sinking uses liveness) and
//! the lints. The gen/kill ones are stated per instruction and solved per
//! block ([`crate::blocks`]), over the program's [`BlockGraph`], which a
//! caller solving several of them builds once; strong liveness is not
//! gen/kill and runs on the instruction-level [`PointGraph`].

use am_bitset::BitSet;
use am_ir::{AssignPattern, FlowGraph, Instr, PatternUniverse, Term, Var};

use crate::blocks::{BlockGraph, BlockSolution};
use crate::masks::PatternMasks;
use crate::points::{PointGraph, PointId};
use crate::solve::Confluence::{self, May, Must};
use crate::solve::Direction::{self, Backward, Forward};
use crate::solve::Solution;

/// Shared expression-pattern system: gen = computed occurrences, kill =
/// patterns mentioning the defined variable ([`PatternMasks`] makes both a
/// constant number of word-level operations per instruction). When
/// `kill_removes_gen`, an instruction that both computes and kills a
/// pattern (`x := x+1`) does not generate it — availability semantics;
/// anticipability keeps the gen bit (the computation lies upstream of the
/// modification in its direction).
fn expr_system(
    g: &FlowGraph,
    blocks: &BlockGraph,
    universe: &PatternUniverse,
    direction: Direction,
    confluence: Confluence,
    kill_removes_gen: bool,
) -> BlockSolution<BitSet, BitSet> {
    let masks = PatternMasks::build(universe, g.pool().len());
    let ep = universe.expr_count();
    BlockSolution::solve(g, blocks, direction, confluence, ep, |instr| {
        let (mut gen, mut kill) = (BitSet::new(ep), BitSet::new(ep));
        instr.for_each_expr_occurrence(|occ| {
            if let Some(i) = universe.expr_id(&occ) {
                gen.insert(i);
            }
        });
        if let Some(d) = instr.def() {
            let mentions = masks.expr_mentions(d);
            kill.union_with(mentions);
            if kill_removes_gen {
                gen.difference_with(mentions);
            }
        }
        (gen, kill)
    })
}

/// Available expressions: expression `t` is available at a point when every
/// path from the start computes `t` afterwards unmodified. Forward, must,
/// greatest solution.
pub fn available_expressions(
    g: &FlowGraph,
    blocks: &BlockGraph,
    universe: &PatternUniverse,
) -> BlockSolution<BitSet, BitSet> {
    expr_system(g, blocks, universe, Forward, Must, true)
}

/// Anticipability (down-safety): expression `t` is anticipated at a point
/// when every path to the end computes `t` before an operand changes.
/// Backward, must, greatest solution.
pub fn anticipated_expressions(
    g: &FlowGraph,
    blocks: &BlockGraph,
    universe: &PatternUniverse,
) -> BlockSolution<BitSet, BitSet> {
    expr_system(g, blocks, universe, Backward, Must, false)
}

/// Partially available expressions: expression `t` is partially available
/// at a point when *some* path from the start computes `t` afterwards
/// unmodified. Forward, may, least solution. An instruction that both
/// computes and kills (`x := x+1`) leaves the stale value unavailable on
/// every path, so kill removes gen here too.
///
/// The gap between this and [`available_expressions`] is exactly partial
/// redundancy: a computation of `t` whose entry point has `t` partially but
/// not fully available is the situation expression motion (Thm 5.2)
/// exists to eliminate — `am-lint` re-solves both on optimizer output to
/// check that statically.
pub fn partially_available_expressions(
    g: &FlowGraph,
    blocks: &BlockGraph,
    universe: &PatternUniverse,
) -> BlockSolution<BitSet, BitSet> {
    expr_system(g, blocks, universe, Forward, May, true)
}

/// Strongly live (non-faint) variables: `v` is strongly live at a point
/// when some path to the end *observes* `v` — reads it in an `out` or a
/// branch condition, or reads it in an assignment whose target is itself
/// strongly live after the assignment (Sec. 3's faintness, the complement).
///
/// Strictly stronger than [`live_variables`]: a chain `a := 1; b := a`
/// ending unread keeps `a` classically live (the `b := a` read) but not
/// strongly live — the whole chain is faint. The conditional transfer
/// (uses count only under a strongly live target) is not a gen/kill system,
/// so this runs its own worklist fixpoint; backward, may, least solution,
/// reported in the same [`Solution`] shape as the framework instances.
pub fn strongly_live_variables(pg: &PointGraph<'_>) -> Solution {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let g = pg.graph();
    let n = pg.len();
    let vars = g.pool().len();
    let succs = pg.succs();
    let preds = pg.preds();
    let schedule = pg.schedule();
    let mut before = vec![BitSet::new(vars); n];
    let mut after = vec![BitSet::new(vars); n];
    let mut iterations: u64 = 0;
    let mut on_list = vec![true; n];
    // Same priority discipline as the gen/kill solver: post-order ranks
    // for a backward propagation, each point queued at most once.
    let mut worklist: BinaryHeap<Reverse<u32>> = (0..n)
        .map(|p| Reverse(schedule.rank(Direction::Backward, p)))
        .collect();
    let mut worklist_pushes = n as u64;
    let mut max_worklist_len = n;
    let mut scratch = BitSet::new(vars);
    while let Some(Reverse(rank)) = worklist.pop() {
        let p = schedule.point_at(Direction::Backward, rank);
        on_list[p] = false;
        iterations += 1;
        // Merge: strongly-live-after = Σ over successors (exit stays ⊥).
        scratch.clear();
        for &q in &succs[p] {
            scratch.union_with(&before[q as usize]);
        }
        after[p].copy_from(&scratch);
        match pg.instr(PointId(p as u32)) {
            Some(Instr::Assign { lhs, rhs }) => {
                let target_live = scratch.contains(lhs.index());
                scratch.remove(lhs.index());
                if target_live {
                    rhs.for_each_var(|v| {
                        scratch.insert(v.index());
                    });
                }
            }
            Some(Instr::Out(ops)) => {
                for op in ops {
                    if let Some(v) = op.as_var() {
                        scratch.insert(v.index());
                    }
                }
            }
            Some(Instr::Branch(c)) => {
                c.for_each_var(|v| {
                    scratch.insert(v.index());
                });
            }
            Some(Instr::Skip) | None => {}
        }
        if before[p].copy_from(&scratch) {
            for &q in &preds[p] {
                let q = q as usize;
                if !on_list[q] {
                    on_list[q] = true;
                    worklist.push(Reverse(schedule.rank(Direction::Backward, q)));
                    worklist_pushes += 1;
                }
            }
            max_worklist_len = max_worklist_len.max(worklist.len());
        }
    }
    Solution {
        before,
        after,
        iterations,
        worklist_pushes,
        max_worklist_len,
        ..Solution::default()
    }
}

/// Live variables: variable `v` is live at a point when some path to the
/// end reads `v` before writing it. Backward, may, least solution.
pub fn live_variables(g: &FlowGraph, blocks: &BlockGraph) -> BlockSolution<BitSet, Option<usize>> {
    let vars = g.pool().len();
    BlockSolution::solve(
        g,
        blocks,
        Direction::Backward,
        Confluence::May,
        vars,
        |instr| {
            // live-before = uses ∪ (live-after ∖ def); the transfer applies
            // gen after kill, so `x := x+1` correctly stays live before.
            let mut uses = BitSet::new(vars);
            instr.for_each_use(|v| {
                uses.insert(v.index());
            });
            (uses, instr.def().map(Var::index))
        },
    )
}

/// Reaching copies: the copy `x := y` (or constant copy `x := 5`) reaches a
/// point when it was executed on every path and neither `x` nor its source
/// changed since. Forward, must, greatest solution. The universe is the set
/// of trivial assignment patterns of `universe` (identified by their
/// assignment-pattern index).
pub fn reaching_copies(
    g: &FlowGraph,
    blocks: &BlockGraph,
    universe: &PatternUniverse,
) -> BlockSolution<Option<usize>, BitSet> {
    let masks = PatternMasks::build(universe, g.pool().len());
    let ap = universe.assign_count();
    BlockSolution::solve(
        g,
        blocks,
        Direction::Forward,
        Confluence::Must,
        ap,
        |instr| {
            // The instruction's own pattern, when it is itself a copy.
            let own = match instr {
                Instr::Assign { lhs, rhs } if matches!(rhs, Term::Operand(_)) => {
                    universe.assign_id(&AssignPattern::new(*lhs, *rhs))
                }
                _ => None,
            };
            let mut kill = BitSet::new(ap);
            if let Some(d) = instr.def() {
                // Kill every copy reading or writing the defined variable —
                // except the copy this instruction executes, which re-reaches.
                kill.union_with(masks.assign_lhs(d));
                kill.union_with(masks.assign_mentions(d));
                kill.intersect_with(masks.trivial_assigns());
                if let Some(i) = own {
                    kill.remove(i);
                }
            }
            (own, kill)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::PointFacts;
    use am_ir::text::parse;
    use am_ir::BinOp;

    fn fig1() -> FlowGraph {
        // Fig. 1(a): a+b computed in nodes 2 and 3, join in 4.
        parse(
            "start 1\nend 4\n\
             node 1 { skip }\n\
             node 2 { z := a+b; x := a+b }\n\
             node 3 { x := a+b; y := x+y }\n\
             node 4 { out(x,y,z) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap()
    }

    #[test]
    fn availability_after_both_branches() {
        let g = fig1();
        let u = PatternUniverse::collect(&g);
        let sol = available_expressions(&g, &BlockGraph::build(&g), &u).solution;
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let ab = u.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
        assert!(sol.before[g.end().index()].contains(ab));
        assert!(!sol.after[g.start().index()].contains(ab));
    }

    #[test]
    fn availability_killed_by_operand_write() {
        let g = parse(
            "start 1\nend 3\n\
             node 1 { x := a+b }\n\
             node 2 { a := 0 }\n\
             node 3 { out(x) }\n\
             edge 1 -> 2\nedge 2 -> 3",
        )
        .unwrap();
        let u = PatternUniverse::collect(&g);
        let sol = available_expressions(&g, &BlockGraph::build(&g), &u).solution;
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let ab = u.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap().index();
        assert!(sol.before[n2].contains(ab));
        assert!(!sol.after[n2].contains(ab));
    }

    #[test]
    fn anticipability_holds_before_both_branch_computations() {
        let g = fig1();
        let u = PatternUniverse::collect(&g);
        let sol = anticipated_expressions(&g, &BlockGraph::build(&g), &u).solution;
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let ab = u.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
        // a+b is computed on both branches, so it is anticipated at node 1.
        assert!(sol.before[g.start().index()].contains(ab));
        // But not at node 4 (never computed afterwards).
        assert!(!sol.before[g.end().index()].contains(ab));
    }

    #[test]
    fn liveness_through_branches() {
        let g = parse(
            "start 1\nend 4\n\
             node 1 { x := 1; y := 2 }\n\
             node 2 { out(x) }\n\
             node 3 { out(y) }\n\
             node 4 { skip }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        let sol = live_variables(&g, &BlockGraph::build(&g)).solution;
        let x = g.pool().lookup("x").unwrap();
        let y = g.pool().lookup("y").unwrap();
        // Both x and y are live at the end of node 1 (different branches).
        let n1 = g.start().index();
        assert!(sol.after[n1].contains(x.index()));
        assert!(sol.after[n1].contains(y.index()));
        // x is dead after node 2's out.
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert!(!sol.after[n2.index()].contains(x.index()));
    }

    #[test]
    fn self_increment_keeps_variable_live() {
        let g =
            parse("start 1\nend 2\nnode 1 { i := i+1 }\nnode 2 { out(i) }\nedge 1 -> 2").unwrap();
        let sol = live_variables(&g, &BlockGraph::build(&g)).solution;
        let i = g.pool().lookup("i").unwrap();
        assert!(sol.before[g.start().index()].contains(i.index()));
    }

    #[test]
    fn reaching_copy_killed_by_source_write() {
        let g = parse(
            "start 1\nend 3\n\
             node 1 { x := y }\n\
             node 2 { y := 0 }\n\
             node 3 { out(x) }\n\
             edge 1 -> 2\nedge 2 -> 3",
        )
        .unwrap();
        let u = PatternUniverse::collect(&g);
        let sol = reaching_copies(&g, &BlockGraph::build(&g), &u).solution;
        let x = g.pool().lookup("x").unwrap();
        let y = g.pool().lookup("y").unwrap();
        let copy = u.assign_id(&am_ir::AssignPattern::new(x, y)).unwrap();
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap().index();
        assert!(sol.before[n2].contains(copy));
        assert!(!sol.after[n2].contains(copy));
    }

    #[test]
    fn partial_availability_holds_on_one_branch() {
        // a+b computed only on the left branch: partially but not fully
        // available at the join — the textbook partial redundancy.
        let g = parse(
            "start 1\nend 4\n\
             node 1 { skip }\n\
             node 2 { x := a+b }\n\
             node 3 { skip }\n\
             node 4 { y := a+b; out(x,y) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        let u = PatternUniverse::collect(&g);
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let ab = u.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
        let join = g.end().index();
        let may = partially_available_expressions(&g, &BlockGraph::build(&g), &u).solution;
        let must = available_expressions(&g, &BlockGraph::build(&g), &u).solution;
        assert!(may.before[join].contains(ab));
        assert!(!must.before[join].contains(ab));
        // Nothing is even partially available at the start boundary.
        assert!(!may.before[g.start().index()].contains(ab));
    }

    #[test]
    fn partial_availability_killed_by_operand_write() {
        let g = parse(
            "start 1\nend 3\n\
             node 1 { x := a+b }\n\
             node 2 { a := 0 }\n\
             node 3 { out(x) }\n\
             edge 1 -> 2\nedge 2 -> 3",
        )
        .unwrap();
        let u = PatternUniverse::collect(&g);
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let ab = u.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap().index();
        let sol = partially_available_expressions(&g, &BlockGraph::build(&g), &u).solution;
        assert!(sol.before[n2].contains(ab));
        assert!(!sol.after[n2].contains(ab));
    }

    #[test]
    fn faint_chains_are_not_strongly_live() {
        // b := a is a classic live-variable use of a, but the chain ends
        // unobserved: nothing is strongly live.
        let g = parse(
            "start 1\nend 2\n\
             node 1 { a := 1; b := a }\n\
             node 2 { out() }\n\
             edge 1 -> 2",
        )
        .unwrap();
        let pg = PointGraph::build(&g);
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let mut weak = PointFacts::default();
        live_variables(&g, &BlockGraph::build(&g)).facts(&g, g.start(), &mut weak);
        let strong = strongly_live_variables(&pg);
        let mid = pg.last_of(g.start()).index();
        // Classic liveness sees the read of a in `b := a`...
        assert!(weak.before(1).contains(a.index()));
        // ...strong liveness does not: b is never observed.
        assert!(!strong.before[mid].contains(a.index()));
        assert!(!strong.after[mid].contains(b.index()));
    }

    #[test]
    fn observed_chains_stay_strongly_live() {
        let g = parse(
            "start 1\nend 2\n\
             node 1 { a := 1; b := a }\n\
             node 2 { out(b) }\n\
             edge 1 -> 2",
        )
        .unwrap();
        let pg = PointGraph::build(&g);
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let strong = strongly_live_variables(&pg);
        assert!(strong.after[pg.first_of(g.start()).index()].contains(a.index()));
        assert!(strong.before[pg.first_of(g.end()).index()].contains(b.index()));
    }

    #[test]
    fn branch_uses_are_strongly_live() {
        let g = parse(
            "start 1\nend 4\n\
             node 1 { p := 1 }\n\
             node 2 { branch p > 0 }\n\
             node 3 { skip }\n\
             node 4 { out() }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 4",
        )
        .unwrap();
        let pg = PointGraph::build(&g);
        let p = g.pool().lookup("p").unwrap();
        let strong = strongly_live_variables(&pg);
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert!(strong.before[pg.first_of(n2).index()].contains(p.index()));
        // p is assigned at the entry instruction, so not strongly live
        // before it — but the definition itself is strongly live (kept).
        assert!(strong.after[pg.first_of(g.start()).index()].contains(p.index()));
    }

    #[test]
    fn faint_self_update_cycle_is_not_self_justifying() {
        // i := i+1 in a loop, never observed: the least fixpoint must not
        // let the self-use keep i alive.
        let g = parse(
            "start 1\nend 4\n\
             node 1 { i := 0 }\n\
             node 2 { branch p > 0 }\n\
             node 3 { i := i+1 }\n\
             node 4 { out(p) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let pg = PointGraph::build(&g);
        let i = g.pool().lookup("i").unwrap();
        let strong = strongly_live_variables(&pg);
        let weak = live_variables(&g, &BlockGraph::build(&g)).solution;
        // Classic liveness keeps i alive around the loop (the i+1 read);
        // faintness kills it everywhere.
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        assert!(weak.before[n3.index()].contains(i.index()));
        for point in pg.points() {
            assert!(
                !strong.before[point.index()].contains(i.index()),
                "i strongly live at {point:?}"
            );
        }
    }

    #[test]
    fn expression_in_condition_counts_as_computation() {
        let g = parse(
            "start 1\nend 3\n\
             node 1 { branch a+b > 0 }\n\
             node 2 { skip }\n\
             node 3 { out(a) }\n\
             edge 1 -> 2, 3\nedge 2 -> 3",
        )
        .unwrap();
        let u = PatternUniverse::collect(&g);
        assert_eq!(u.expr_count(), 1);
        let sol = available_expressions(&g, &BlockGraph::build(&g), &u).solution;
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert!(sol.before[n2.index()].contains(0));
    }
}
