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
//!
//! # Solving at block level
//!
//! Table 2 is stated per instruction but solved over blocks: each block's
//! instruction rows are folded into one exact transfer (`compose_block`),
//! the system runs over the block graph, and the per-instruction entry
//! facts are recovered by streaming each block from its solved entry fact
//! (`stream_block`). The motion loop runs this code through the row
//! caches of its round context; the one-shot entries below
//! ([`analyze_redundancy`], [`redundant_locs`],
//! [`eliminate_redundant_assignments`]) run the same code on a fresh one.

use std::rc::Rc;

use am_bitset::BitSet;
use am_dfa::{Confluence, Direction, PatternMasks, Problem, Solution};
use am_ir::{AssignPattern, FlowGraph, Instr, Loc, NodeId, PatternUniverse};
use am_obs::{ProvKind, ProvRecord, ProvRecorder};
use am_trace::Tracer;

use crate::incremental::MotionContext;

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

/// The Table 2 row of one instruction: the pattern bit it generates, if
/// any, and its kill set.
pub(crate) type Row = (Option<usize>, BitSet);

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
) -> Row {
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

/// Folds the rows of one block into its node-level transfer
/// `out = gen ∪ (in ∖ kill)`: `gen := (gen ∖ kill_ι) ∪ gen_ι`,
/// `kill := kill ∪ kill_ι`. The fold is exact for gen/kill systems —
/// interior points of a block have a single predecessor, so substituting
/// them out preserves the greatest fixed point. Returns whether any
/// instruction generates its own bit: a block without an occurrence can
/// never host an elimination.
pub(crate) fn compose_block<'r>(
    rows: impl IntoIterator<Item = &'r Row>,
    gen: &mut BitSet,
    kill: &mut BitSet,
) -> bool {
    gen.clear();
    kill.clear();
    let mut occurs = false;
    for (own, k) in rows {
        gen.difference_with(k);
        kill.union_with(k);
        if let Some(i) = *own {
            occurs = true;
            gen.insert(i);
        }
    }
    occurs
}

/// Streams the entry facts `N-REDUNDANT*` of a block's instructions from
/// the block's solved entry fact: calls `f(j, own, fact)` for instruction
/// `j` with its own pattern bit and its entry fact, then applies its row.
/// `x` is scratch space of the universe's width.
pub(crate) fn stream_block<'r>(
    entry: &BitSet,
    rows: impl IntoIterator<Item = &'r Row>,
    x: &mut BitSet,
    mut f: impl FnMut(usize, Option<usize>, &BitSet),
) {
    x.copy_from(entry);
    for (j, (own, kill)) in rows.into_iter().enumerate() {
        f(j, *own, x);
        x.difference_with(kill);
        if let Some(i) = *own {
            x.insert(i);
        }
    }
}

impl MotionContext {
    /// Solves Table 2 over the blocks of `g`: refills the node-level row of
    /// every block whose content changed since its row was built (all of
    /// them on a fresh context) and solves the forward must system on the
    /// shared node system, recycling the previous solve's buffers. Which
    /// blocks hold an occurrence stays in `rae_occurs`, and the rows of
    /// every id of `g` in `rae_rows`, for [`Self::stream_redundancy`].
    pub(crate) fn solve_redundancy(&mut self, g: &FlowGraph) -> Solution {
        self.sync(g);
        let (nodes, ap) = (g.node_count(), self.universe.assign_count());
        let mut problem = match self.rae_problem.take() {
            Some(p) if p.universe == ap => p,
            _ => {
                self.rae_stamps.clear();
                Problem::new(Direction::Forward, Confluence::Must, 0, ap)
            }
        };
        problem.gen.resize_with(nodes, || BitSet::new(ap));
        problem.kill.resize_with(nodes, || BitSet::new(ap));
        self.rae_occurs.resize(nodes, false);
        self.rae_stamps.resize(nodes, 0);
        for n in g.nodes() {
            let ni = n.index();
            if self.rae_stamps[ni] == self.block_stamps[ni] {
                self.rows_reused += g.ids(n).len() as u64;
                continue;
            }
            for &id in g.ids(n) {
                self.cache_rae_row(g, id);
            }
            let rows = g.ids(n).iter().map(|id| {
                self.rae_rows[id.index()]
                    .as_ref()
                    .expect("row cached above")
            });
            self.rae_occurs[ni] = compose_block(rows, &mut problem.gen[ni], &mut problem.kill[ni]);
            self.rae_stamps[ni] = self.block_stamps[ni];
        }
        let recycled = self.rae_solution.take();
        let sol = self.solve_cold(g, &problem, recycled);
        self.rae_problem = Some(problem);
        sol
    }

    /// Streams the entry facts of block `n` of `g` from its solved entry
    /// fact over the cached rows of the last [`Self::solve_redundancy`] on
    /// `g` (see [`stream_block`]).
    fn stream_redundancy(
        &self,
        g: &FlowGraph,
        n: NodeId,
        entry: &BitSet,
        x: &mut BitSet,
        f: impl FnMut(usize, Option<usize>, &BitSet),
    ) {
        let rows = g.ids(n).iter().map(|id| {
            self.rae_rows[id.index()]
                .as_ref()
                .expect("rows of composed blocks exist")
        });
        stream_block(entry, rows, x, f);
    }

    /// Finds the redundant occurrences of `g` — those whose own bit holds
    /// at their entry (Def. 3.4) — in program order, each reported to
    /// `recorder`, into [`Self::rae_locs`], and returns the solution they
    /// were read from. The facts
    /// describe the program before any removal: every occurrence's
    /// redundancy is justified by earlier occurrences that the elimination
    /// keeps.
    ///
    /// A block holding an occurrence is streamed unless it is *quiet*: its
    /// last stream, with the same content stamp and the same solved entry
    /// fact, found no redundancy. The stream is a function of the block's
    /// rows and its entry fact, so it would find none again.
    pub(crate) fn redundant_locs(
        &mut self,
        g: &FlowGraph,
        recorder: &ProvRecorder,
        round: u32,
    ) -> Solution {
        let sol = self.solve_redundancy(g);
        let ap = self.universe.assign_count();
        self.quiet_blocks
            .resize_with(g.node_count(), || (0, BitSet::new(ap)));
        let mut locs = std::mem::take(&mut self.rae_locs);
        locs.clear();
        let mut x = std::mem::replace(&mut self.rae_scratch, BitSet::new(0));
        if x.len() != ap {
            x = BitSet::new(ap);
        }
        for n in g.nodes().filter(|n| self.rae_occurs[n.index()]) {
            let (ni, entry) = (n.index(), &sol.before[n.index()]);
            let (stamp, fact) = &self.quiet_blocks[ni];
            if *stamp == self.block_stamps[ni] && fact == entry {
                self.skipped_blocks += 1;
                continue;
            }
            self.streamed_blocks += 1;
            let found = locs.len();
            self.stream_redundancy(g, n, entry, &mut x, |j, own, fact| {
                let Some(i) = own.filter(|&i| fact.contains(i)) else {
                    return;
                };
                if recorder.is_enabled() {
                    recorder.record(ProvRecord {
                        kind: ProvKind::Eliminate,
                        phase: "motion",
                        round,
                        node: g.label(n).to_owned(),
                        index: Some(j as u32),
                        instr: g.instr(Loc { node: n, index: j }).display(g.pool()),
                        new_instr: None,
                        pattern: Some(i as u32),
                        instr_id: Some(self.rank(g.ids(n)[j])),
                        justification: format!(
                            "N-REDUNDANT bit {i} holds at entry of this occurrence (forward must solution)"
                        ),
                    });
                }
                locs.push(Loc { node: n, index: j });
            });
            let (stamp, fact) = &mut self.quiet_blocks[ni];
            if locs.len() == found {
                *stamp = self.block_stamps[ni];
                fact.copy_from(entry);
            } else {
                // The elimination rewrites the block, and its new stamp
                // would not match anyway.
                *stamp = 0;
            }
        }
        (self.rae_locs, self.rae_scratch) = (locs, x);
        sol
    }
}

/// The solved redundancy analysis of Table 2 over a program's blocks, from
/// which [`block_facts`](Self::block_facts) streams the facts of every
/// single instruction.
pub struct RedundancyAnalysis {
    /// The assignment-pattern universe the bit indices refer to.
    /// Self-referential patterns never appear in any fact.
    pub universe: Rc<PatternUniverse>,
    /// The solution per block: `before[n]` is `N-REDUNDANT*` at the entry
    /// of block `n`, `after[n]` is `X-REDUNDANT*` at its exit.
    pub solution: Solution,
    /// The context the system was solved in; its row caches feed the
    /// stream.
    ctx: MotionContext,
}

impl RedundancyAnalysis {
    /// `N-REDUNDANT*` at the entry of every instruction of block `n`, in
    /// order — one pass-through entry for an empty block. `g` must be the
    /// program the analysis was computed on.
    pub fn block_facts(&self, g: &FlowGraph, n: NodeId) -> Vec<BitSet> {
        let entry = &self.solution.before[n.index()];
        let mut facts = Vec::with_capacity(g.block(n).len().max(1));
        let mut x = BitSet::new(entry.len());
        self.ctx
            .stream_redundancy(g, n, entry, &mut x, |_, _, fact| facts.push(fact.clone()));
        if facts.is_empty() {
            facts.push(entry.clone());
        }
        facts
    }
}

/// Solves the redundancy analysis of Table 2 over `g`.
pub fn analyze_redundancy(g: &FlowGraph) -> RedundancyAnalysis {
    let mut ctx = MotionContext::new();
    let solution = ctx.solve_redundancy(g);
    RedundancyAnalysis {
        universe: Rc::clone(&ctx.universe),
        solution,
        ctx,
    }
}

/// The instruction locations of `g` whose assignment is redundant at
/// entry, with the solver iterations spent.
pub fn redundant_locs(g: &FlowGraph) -> (Vec<Loc>, u64) {
    let mut ctx = MotionContext::new();
    let sol = ctx.redundant_locs(g, &ProvRecorder::disabled(), 0);
    (ctx.rae_locs, sol.iterations)
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
    MotionContext::new().rae_round(g, &Tracer::disabled(), &ProvRecorder::disabled(), 0)
}

/// Removes the instructions at `locs`, in any order, from `g`. Locations
/// must refer to the current program.
///
/// Cost is O(|locs| log |locs| + Σ block sizes of affected nodes): the
/// sorted locations are grouped per node and each touched block is
/// filtered in place, keeping its allocation.
pub(crate) fn remove_locs(g: &mut FlowGraph, locs: &[Loc]) {
    let mut doomed = locs.to_vec();
    doomed.sort_unstable();
    doomed.dedup();
    for run in doomed.chunk_by(|a, b| a.node == b.node) {
        g.retain_instrs(run[0].node, unlisted(run.iter().map(|l| l.index)));
    }
}

/// A `retain` predicate that drops the elements at the positions `doomed`
/// (ascending, each at most once) and keeps the rest, in one pass.
pub(crate) fn unlisted<T>(doomed: impl IntoIterator<Item = usize>) -> impl FnMut(&T) -> bool {
    let mut index = 0;
    let mut next = doomed.into_iter().peekable();
    move |_| {
        let keep = next.next_if_eq(&index).is_none();
        index += 1;
        keep
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
        assert_eq!(g.block(n4).len(), 1, "{}", to_text(&g));
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
        assert_eq!(g.block(n3).len(), 1);
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
