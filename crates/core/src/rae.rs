//! Redundant assignment elimination (Table 2, Sec. 4.3.1).
//!
//! An occurrence of the assignment pattern `α ≡ v := t` is *redundant* when
//! every path from the start reaches it through another occurrence of `α`
//! with neither `v` nor an operand of `t` modified in between (Def. 3.4).
//! The analysis is a forward must bit-vector system solved to its greatest
//! fixed point:
//!
//! ```text
//! N-REDUNDANT_ι = false                      if ι is the first instruction of s
//!                 ∏_{κ ∈ pred(ι)} X-REDUNDANT_κ   otherwise
//! X-REDUNDANT_ι = EXECUTED_ι + ASS-TRANSP_ι · N-REDUNDANT_ι
//! ```
//!
//! Patterns with `v` among the operands of `t` (`x := x+1`) are excluded —
//! re-executing them changes the state (the side condition of Table 2).
//! The elimination step removes every occurrence that is redundant at its
//! entry; removing them simultaneously is sound because each occurrence's
//! redundancy is justified by *earlier* occurrences, which the elimination
//! keeps.

use am_bitset::BitSet;
use am_dfa::{solve_scheduled, Confluence, Direction, PatternMasks, PointGraph, Problem, Solution};
use am_ir::{AssignPattern, FlowGraph, Instr, Loc, PatternUniverse};

/// Outcome of one [`eliminate_redundant_assignments`] pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaeOutcome {
    /// Number of assignment occurrences removed.
    pub eliminated: usize,
    /// Solver iterations spent (for the complexity study).
    pub iterations: u64,
    /// Solver worklist pushes.
    pub worklist_pushes: u64,
    /// Peak solver worklist length.
    pub max_worklist_len: usize,
}

/// Solves the redundancy analysis of Table 2 over `g`.
///
/// The returned solution is indexed by the points of `pg`; bit `i` of a set
/// refers to assignment pattern `i` of `universe`. Self-referential
/// patterns never appear in any set.
pub fn redundancy(pg: &PointGraph<'_>, universe: &PatternUniverse) -> Solution {
    let masks = PatternMasks::build(universe, pg.graph().pool().len());
    let n = pg.len();
    let mut p = Problem::new(
        Direction::Forward,
        Confluence::Must,
        n,
        universe.assign_count(),
    );
    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        let idx = point.index();
        let (gen, kill) = redundancy_row(instr, universe, &masks);
        if let Some(i) = gen {
            p.gen[idx].insert(i);
        }
        p.kill[idx] = kill;
    }
    solve_scheduled(pg.succs(), pg.preds(), &p, pg.schedule())
}

/// The Table 2 gen/kill row of a single instruction, built from the mask
/// index with a constant number of word-level set operations.
///
/// Self-referential patterns are excluded from the universe (killed
/// everywhere, generated never); an assignment generates its own pattern
/// bit and kills every pattern whose left-hand side or operands it
/// modifies, except the one it re-establishes.
pub(crate) fn redundancy_row(
    instr: &Instr,
    universe: &PatternUniverse,
    masks: &PatternMasks,
) -> (Option<usize>, BitSet) {
    let mut kill = masks.self_referential().clone();
    let mut gen = None;
    if let Instr::Assign { lhs, rhs } = instr {
        kill.union_with(masks.assign_lhs(*lhs));
        kill.union_with(masks.assign_mentions(*lhs));
        if let Some(i) = universe.assign_id(&AssignPattern::new(*lhs, *rhs)) {
            if !masks.self_referential().contains(i) {
                kill.remove(i);
                gen = Some(i);
            }
        }
    }
    (gen, kill)
}

/// The set of instruction locations whose assignment is redundant at entry.
pub fn redundant_locs(g: &FlowGraph) -> (Vec<Loc>, u64) {
    let (locs, sol) = redundant_locs_solved(g);
    (locs, sol.iterations)
}

/// As [`redundant_locs`], but returns the full solution so callers can
/// report worklist metrics too.
fn redundant_locs_solved(g: &FlowGraph) -> (Vec<Loc>, Solution) {
    let universe = PatternUniverse::collect(g);
    let pg = PointGraph::build(g);
    let sol = redundancy(&pg, &universe);
    let mut locs = Vec::new();
    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        let Some(loc) = pg.loc(point) else { continue };
        if let am_ir::Instr::Assign { lhs, rhs } = instr {
            let pat = am_ir::AssignPattern::new(*lhs, *rhs);
            if pat.is_self_referential() {
                continue;
            }
            if let Some(i) = universe.assign_id(&pat) {
                let before: &BitSet = &sol.before[point.index()];
                if before.contains(i) {
                    locs.push(loc);
                }
            }
        }
    }
    (locs, sol)
}

/// Removes every redundant assignment occurrence from `g` (the Elimination
/// Step of Sec. 4.3.1).
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::rae::eliminate_redundant_assignments;
///
/// let mut g = parse(
///     "start s\nend e\nnode s { x := a+b; y := 1; x := a+b }\nnode e { out(x,y) }\nedge s -> e",
/// )?;
/// let outcome = eliminate_redundant_assignments(&mut g);
/// assert_eq!(outcome.eliminated, 1);
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn eliminate_redundant_assignments(g: &mut FlowGraph) -> RaeOutcome {
    let (locs, sol) = redundant_locs_solved(g);
    let eliminated = locs.len();
    remove_locs(g, &locs);
    RaeOutcome {
        eliminated,
        iterations: sol.iterations,
        worklist_pushes: sol.worklist_pushes,
        max_worklist_len: sol.max_worklist_len,
    }
}

/// Removes the instructions at `locs` from `g`. Locations must refer to the
/// current program.
///
/// Cost is O(|locs| + Σ block sizes of affected nodes): locations are first
/// grouped per node (in first-seen order, so mutation order stays
/// deterministic) and only the touched blocks are rewritten. Scanning every
/// node of the graph against the full loc list made elimination rounds the
/// dominant motion cost on 10k-node graphs.
pub(crate) fn remove_locs(g: &mut FlowGraph, locs: &[Loc]) {
    use std::collections::HashMap;
    let mut slot_of: HashMap<am_ir::NodeId, usize> = HashMap::with_capacity(locs.len());
    let mut by_node: Vec<(am_ir::NodeId, Vec<usize>)> = Vec::new();
    for l in locs {
        let slot = *slot_of.entry(l.node).or_insert_with(|| {
            by_node.push((l.node, Vec::new()));
            by_node.len() - 1
        });
        by_node[slot].1.push(l.index);
    }
    for (n, mut doomed) in by_node {
        doomed.sort_unstable();
        let old = std::mem::take(&mut g.block_mut(n).instrs);
        g.block_mut(n).instrs = old
            .into_iter()
            .enumerate()
            .filter(|(index, _)| doomed.binary_search(index).is_err())
            .map(|(_, instr)| instr)
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::{parse, to_text};

    #[test]
    fn straight_line_duplicate_is_removed() {
        let mut g = parse(
            "start 1\nend 2\nnode 1 { x := a+b; y := 1; x := a+b }\nnode 2 { out(x,y) }\nedge 1 -> 2",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 1);
        assert_eq!(
            to_text(&g)
                .lines()
                .filter(|l| l.contains("x := a+b"))
                .count(),
            1
        );
    }

    #[test]
    fn intervening_write_blocks_elimination() {
        let mut g = parse(
            "start 1\nend 2\nnode 1 { x := a+b; a := 1; x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 0);
    }

    #[test]
    fn use_of_lhs_does_not_block_redundancy() {
        // Reading x between the two occurrences keeps x = a+b valid.
        let mut g = parse(
            "start 1\nend 2\nnode 1 { x := a+b; out(x); x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 1);
    }

    #[test]
    fn partially_redundant_occurrence_stays() {
        // x := a+b on only one branch: the join occurrence is not (fully)
        // redundant.
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { branch p > 0 }\n\
             node 2 { x := a+b }\n\
             node 3 { skip }\n\
             node 4 { x := a+b; out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 0);
    }

    #[test]
    fn fully_redundant_join_occurrence_is_removed() {
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { branch p > 0 }\n\
             node 2 { x := a+b }\n\
             node 3 { x := a+b }\n\
             node 4 { x := a+b; out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 1);
        let n4 = g.nodes().find(|&n| g.label(n) == "4").unwrap();
        assert_eq!(g.block(n4).instrs.len(), 1, "{}", to_text(&g));
    }

    #[test]
    fn loop_redundancy_from_before_the_loop() {
        // y := c+d in the loop body is redundant w.r.t. node 1 (Fig. 4/5:
        // the elimination that unblocks x := y+z).
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { y := c+d }\n\
             node 2 { branch q > 0 }\n\
             node 3 { y := c+d; i := i+1 }\n\
             node 4 { out(y,i) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 1);
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        assert_eq!(g.block(n3).instrs.len(), 1);
    }

    #[test]
    fn self_referential_patterns_are_never_redundant() {
        let mut g =
            parse("start 1\nend 2\nnode 1 { i := i+1; i := i+1 }\nnode 2 { out(i) }\nedge 1 -> 2")
                .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 0);
    }

    #[test]
    fn redundant_via_both_paths_of_a_diamond() {
        let mut g = parse(
            "start 1\nend 4\n\
             node 1 { x := a+b; branch p > 0 }\n\
             node 2 { q := 1 }\n\
             node 3 { q := 2 }\n\
             node 4 { x := a+b; out(x,q) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        let out = eliminate_redundant_assignments(&mut g);
        assert_eq!(out.eliminated, 1);
    }

    #[test]
    fn elimination_preserves_semantics() {
        let src = "start 1\nend 4\n\
             node 1 { y := c+d }\n\
             node 2 { branch q > 0 }\n\
             node 3 { y := c+d; i := i+1 }\n\
             node 4 { out(y,i) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";
        let orig = parse(src).unwrap();
        let mut opt = orig.clone();
        eliminate_redundant_assignments(&mut opt);
        for seed in 0..20 {
            let cfg = am_ir::interp::Config {
                oracle: am_ir::interp::Oracle::random(seed, 6),
                inputs: vec![("c".into(), 7), ("d".into(), seed as i64), ("q".into(), 1)],
                ..Default::default()
            };
            let a = am_ir::interp::run(&orig, &cfg);
            let b = am_ir::interp::run(&opt, &cfg);
            assert_eq!(a.observable(), b.observable());
            assert!(b.assign_execs <= a.assign_execs);
        }
    }
}
