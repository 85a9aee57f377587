//! Classic bit-vector analyses as framework instances.
//!
//! These serve two purposes: they validate the solver against well-known
//! semantics, and they are building blocks for the baseline transformations
//! (the lazy-code-motion baseline uses down-safety/anticipability; copy
//! propagation uses reaching copies; assignment sinking uses liveness) and
//! the lints. The gen/kill ones are stated per instruction and solved per
//! block ([`crate::blocks`]), over the program's [`BlockGraph`], which a
//! caller solving several of them builds once. Strong liveness is not
//! gen/kill: it is solved over the same blocks with its own transfer,
//! [`strong_liveness_step`], which also walks a block's instructions back
//! from its solved exit fact.

use am_bitset::BitSet;
use am_ir::{AssignPattern, FlowGraph, Instr, NodeId, PatternUniverse, Term, Var};

use crate::blocks::BlockSolution;
use crate::masks::PatternMasks;
use crate::solve::Confluence::{self, May, Must};
use crate::solve::Direction::{self, Backward, Forward};
use crate::solve::{BlockGraph, RankQueue, Solution};

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
/// so this runs its own worklist over the blocks of `g` (`blocks`), in the
/// solver's priority order; backward, may, least solution. `before[n]` is
/// the fact at the entry of block `n`, `after[n]` at its exit; a block's
/// transfer steps its instructions back from the exit
/// ([`strong_liveness_step`]), which is exact because an interior point
/// has one successor. Walk a block the same way to get the fact after each
/// instruction.
pub fn strongly_live_variables(g: &FlowGraph, blocks: &BlockGraph) -> Solution {
    let vars = g.pool().len();
    let n = blocks.node_count();
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut before = vec![BitSet::new(vars); n];
    let mut after = vec![BitSet::new(vars); n];
    let order = blocks.order(Backward);
    // Same priority discipline as the gen/kill solver: post-order ranks
    // for a backward propagation, each block queued at most once.
    let mut queue = RankQueue::default();
    queue.reset(n);
    for rank in 0..n as u32 {
        queue.push(rank);
    }
    let mut on_list = vec![true; n];
    let (mut iterations, mut worklist_pushes, mut max_worklist_len) = (0, n as u64, n);
    let mut x = BitSet::new(vars);
    while let Some(rank) = queue.pop() {
        let b = order.seq[rank as usize] as usize;
        on_list[b] = false;
        iterations += 1;
        // Merge: strongly-live-after = Σ over successors (exit stays ⊥).
        x.clear();
        for &s in blocks.succs.row(b) {
            x.union_with(&before[s as usize]);
        }
        after[b].copy_from(&x);
        for instr in g.instrs(nodes[b]).rev() {
            strong_liveness_step(instr, &mut x);
        }
        if before[b].copy_from(&x) {
            for &p in blocks.preds.row(b) {
                let p = p as usize;
                if !on_list[p] {
                    on_list[p] = true;
                    queue.push(order.rank[p]);
                    worklist_pushes += 1;
                }
            }
            max_worklist_len = max_worklist_len.max(queue.len());
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

/// Steps strong liveness back over `instr`: turns `live`, the strongly
/// live variables after it, into those before it. An assignment kills its
/// target and reads its operands only when the target was live; an `out`
/// and a branch read theirs unconditionally.
pub fn strong_liveness_step(instr: &Instr, live: &mut BitSet) {
    match instr {
        Instr::Assign { lhs, rhs } => {
            if live.remove(lhs.index()) {
                rhs.for_each_var(|v| {
                    live.insert(v.index());
                });
            }
        }
        Instr::Out(ops) => {
            for v in ops.iter().filter_map(|op| op.as_var()) {
                live.insert(v.index());
            }
        }
        Instr::Branch(c) => c.for_each_var(|v| {
            live.insert(v.index());
        }),
        Instr::Skip => {}
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

    /// Strong liveness before and after each instruction of block `n`,
    /// walked back from the block's solved exit fact.
    fn strong_points(g: &FlowGraph, n: NodeId) -> Vec<(BitSet, BitSet)> {
        let strong = strongly_live_variables(g, &BlockGraph::build(g));
        let mut live = strong.after[n.index()].clone();
        let mut points: Vec<_> = g
            .instrs(n)
            .rev()
            .map(|instr| {
                let after = live.clone();
                strong_liveness_step(instr, &mut live);
                (live.clone(), after)
            })
            .collect();
        points.reverse();
        assert_eq!(
            points.first().map(|p| &p.0),
            Some(&strong.before[n.index()])
        );
        points
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
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let mut weak = PointFacts::default();
        live_variables(&g, &BlockGraph::build(&g)).facts(&g, g.start(), &mut weak);
        let strong = strong_points(&g, g.start());
        let (before_mid, after_mid) = &strong[1];
        // Classic liveness sees the read of a in `b := a`...
        assert!(weak.before(1).contains(a.index()));
        // ...strong liveness does not: b is never observed.
        assert!(!before_mid.contains(a.index()));
        assert!(!after_mid.contains(b.index()));
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
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        assert!(strong_points(&g, g.start())[0].1.contains(a.index()));
        assert!(strong_points(&g, g.end())[0].0.contains(b.index()));
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
        let p = g.pool().lookup("p").unwrap();
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert!(strong_points(&g, n2)[0].0.contains(p.index()));
        // p is assigned at the entry instruction, so not strongly live
        // before it — but the definition itself is strongly live (kept).
        assert!(strong_points(&g, g.start())[0].1.contains(p.index()));
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
        let i = g.pool().lookup("i").unwrap();
        let weak = live_variables(&g, &BlockGraph::build(&g)).solution;
        // Classic liveness keeps i alive around the loop (the i+1 read);
        // faintness kills it everywhere.
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        assert!(weak.before[n3.index()].contains(i.index()));
        for n in g.nodes() {
            for (j, (before, _)) in strong_points(&g, n).iter().enumerate() {
                assert!(!before.contains(i.index()), "i strongly live at {n:?}/{j}");
            }
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
