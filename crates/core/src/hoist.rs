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
//! are emitted in first-occurrence order.
//!
//! The motion loop solves this system through the caches of its round
//! context, warm-starting it from the previous round where that is safe;
//! the one-shot entries ([`analyze_hoisting`], [`hoist_assignments`]) run
//! the same code on a fresh context.

use std::rc::Rc;

use am_bitset::BitSet;
use am_dfa::{solve_seeded, Confluence, Direction, PatternMasks, Problem, Solution};
use am_ir::intern::InstrId;
use am_ir::{FlowGraph, Instr, Loc, NodeId, PatternUniverse};
use am_obs::{ProvKind, ProvRecord, ProvRecorder};

use crate::incremental::MotionContext;

/// The solved hoistability analysis of a program.
pub struct HoistAnalysis {
    /// The assignment-pattern universe the bit indices refer to.
    pub universe: Rc<PatternUniverse>,
    /// `LOC-HOISTABLE` per node.
    pub loc_hoistable: Vec<BitSet>,
    /// `LOC-BLOCKED` per node.
    pub loc_blocked: Vec<BitSet>,
    /// The greatest solution: `before[n]` is `N-HOISTABLE*` at the entry of
    /// node `n`, `after[n]` is `X-HOISTABLE*` at its exit.
    pub hoistable: Solution,
    /// `N-INSERT` per node.
    pub n_insert: Vec<BitSet>,
    /// `X-INSERT` per node.
    pub x_insert: Vec<BitSet>,
    /// Every node's `(pattern, instruction index)` hoisting candidates
    /// ([`Self::candidates`]) in node order, and where each node's end.
    pub(crate) candidates: Vec<(usize, usize)>,
    pub(crate) candidate_ends: Vec<usize>,
    /// First-occurrence rank of every pattern in the analyzed program
    /// (`None` for patterns without occurrences).
    occ_rank: Vec<Option<u32>>,
}

impl HoistAnalysis {
    /// The `(pattern, instruction index)` hoisting candidates of node `n`,
    /// in index order.
    pub fn candidates(&self, n: NodeId) -> &[(usize, usize)] {
        let (ni, ends) = (n.index(), &self.candidate_ends);
        &self.candidates[ni.checked_sub(1).map_or(0, |m| ends[m])..ends[ni]]
    }
}

/// Computes local predicates and solves the hoistability system of Table 1.
pub fn analyze_hoisting(g: &FlowGraph) -> HoistAnalysis {
    MotionContext::new().hoisting(g)
}

impl MotionContext {
    /// Solves Table 1 over the blocks of `g`: refills the locals and
    /// candidates of every block whose content changed since its row was
    /// built, solves the backward must system on the shared node system
    /// and recomputes the insertion points. The analysis is the context's
    /// previous one updated in place (a fresh one on a fresh context);
    /// [`Self::hoist_round`] hands it back afterwards.
    ///
    /// When the refilled rows changed only monotonically downward
    /// (candidates lost, blockades gained) on unchanged edges, the system
    /// is re-solved from the previous greatest solution with only the
    /// changed nodes seeded ([`am_dfa::solve_seeded`]): the old solution is
    /// a post-fixed point of the lowered system, so the descent reaches the
    /// new greatest fixed point. Otherwise the solve is cold.
    pub(crate) fn hoisting(&mut self, g: &FlowGraph) -> HoistAnalysis {
        self.sync(g);
        let (nodes, ap) = (g.node_count(), self.universe.assign_count());
        let (solved_on, mut a) = match self.hoist.take() {
            Some((edges, a)) if a.loc_hoistable.len() == nodes => (Some(edges), a),
            _ => {
                self.hoist_stamps.clear();
                let empty = vec![BitSet::new(ap); nodes];
                let a = HoistAnalysis {
                    universe: Rc::clone(&self.universe),
                    loc_hoistable: empty.clone(),
                    loc_blocked: empty,
                    hoistable: Solution::default(),
                    n_insert: Vec::new(),
                    x_insert: Vec::new(),
                    candidates: Vec::new(),
                    candidate_ends: Vec::new(),
                    occ_rank: Vec::new(),
                };
                (None, a)
            }
        };
        self.occurrence_ranks(g, &mut a.occ_rank);
        self.hoist_stamps.resize(nodes, 0);
        let mut dirty = std::mem::take(&mut self.hoist_dirty);
        dirty.clear();
        dirty.reserve(nodes);
        let mut lowered = true;
        let mut locals = std::mem::replace(&mut self.hoist_locals, BlockLocals::new(0));
        if locals.hoistable.len() != ap {
            locals = BlockLocals::new(ap);
        }
        // The candidates are rebuilt, copying the rows of unchanged blocks,
        // in buffers that two analyses trade and that keep room for the
        // rows: a round repeating the rows allocates nothing.
        let room = |rows: &mut (Vec<(usize, usize)>, Vec<usize>), len: usize| {
            rows.0.clear();
            rows.1.clear();
            rows.0.reserve(nodes.max(len));
            rows.1.reserve(nodes);
        };
        let mut rows = std::mem::take(&mut self.hoist_candidates);
        room(&mut rows, a.candidates.len());
        let (candidates, ends) = &mut rows;
        for n in g.nodes() {
            let ni = n.index();
            if self.hoist_stamps[ni] == self.block_stamps[ni] {
                self.rows_reused += 1;
                candidates.extend_from_slice(a.candidates(n));
                ends.push(candidates.len());
                continue;
            }
            self.hoist_stamps[ni] = self.block_stamps[ni];
            self.rows_recomputed += 1;
            locals.clear();
            self.for_each_blocking_row(g, n, |idx, pattern, blocks| {
                locals.step(idx, pattern, blocks)
            });
            let (gen, kill) = (&mut a.loc_hoistable[ni], &mut a.loc_blocked[ni]);
            if *gen != locals.hoistable || *kill != locals.blocked {
                lowered &= locals.hoistable.is_subset(gen) && kill.is_subset(&locals.blocked);
                dirty.push(ni);
                gen.copy_from(&locals.hoistable);
                kill.copy_from(&locals.blocked);
            }
            candidates.extend_from_slice(&locals.candidates);
            ends.push(candidates.len());
        }
        std::mem::swap(&mut rows.0, &mut a.candidates);
        std::mem::swap(&mut rows.1, &mut a.candidate_ends);
        room(&mut rows, a.candidates.len());
        self.hoist_candidates = rows;
        self.hoist_locals = locals;
        let mut problem = match self.hoist_problem.take() {
            Some(p) if p.universe == ap => p,
            _ => Problem::new(Direction::Backward, Confluence::Must, 0, ap),
        };
        problem.gen = std::mem::take(&mut a.loc_hoistable);
        problem.kill = std::mem::take(&mut a.loc_blocked);
        // The previous solution is continued in place, or lends its
        // buffers to a cold solve.
        let previous = std::mem::take(&mut a.hoistable);
        a.hoistable = if lowered && solved_on == Some(self.edge_hash) {
            self.hoist_warm += 1;
            let ns = self.node_system(g);
            let (succs, preds, schedule) = (&ns.succs, &ns.preds, &ns.schedule);
            solve_seeded(succs, preds, &problem, schedule, previous, &dirty)
        } else {
            self.solve_cold(g, &problem, Some(previous))
        };
        self.hoist_dirty = dirty;
        a.loc_hoistable = std::mem::take(&mut problem.gen);
        a.loc_blocked = std::mem::take(&mut problem.kill);
        self.hoist_problem = Some(problem);
        insertion_points(g, &mut a, &mut self.hoist_scratch);
        a
    }
}

/// The Table 1 local predicates of one block.
pub(crate) struct BlockLocals {
    /// `LOC-HOISTABLE`.
    pub(crate) hoistable: BitSet,
    /// `LOC-BLOCKED`.
    pub(crate) blocked: BitSet,
    /// The `(pattern, instruction index)` hoisting candidates, in index
    /// order.
    pub(crate) candidates: Vec<(usize, usize)>,
}

impl BlockLocals {
    /// Empty predicates over `ap` assignment patterns.
    pub(crate) fn new(ap: usize) -> Self {
        BlockLocals {
            hoistable: BitSet::new(ap),
            blocked: BitSet::new(ap),
            candidates: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.hoistable.clear();
        self.blocked.clear();
        self.candidates.clear();
    }

    /// Adds instruction `idx` of the block, with its assignment pattern
    /// index and its [`blocking_row`], to the local predicates of the
    /// instructions before it. The candidate check precedes the
    /// instruction's own blocking update: the first *unblocked* occurrence
    /// of a pattern is its candidate (Fig. 13), and every occurrence blocks
    /// the ones after it.
    fn step(&mut self, idx: usize, pattern: Option<usize>, blocks: &BitSet) {
        if let Some(i) = pattern {
            if !self.blocked.contains(i) && !self.hoistable.contains(i) {
                self.hoistable.insert(i);
                self.candidates.push((i, idx));
            }
        }
        self.blocked.union_with(blocks);
    }

    /// The oracle of [`Self::step`]: the local predicates of one
    /// instruction list, computed by walking the instructions.
    #[cfg(test)]
    pub(crate) fn compute<'a>(
        instrs: impl Iterator<Item = &'a Instr>,
        universe: &PatternUniverse,
        masks: &PatternMasks,
    ) -> Self {
        let mut locals = BlockLocals::new(universe.assign_count());
        let BlockLocals {
            hoistable,
            blocked,
            candidates,
        } = &mut locals;
        for (idx, instr) in instrs.enumerate() {
            let pattern = match instr {
                Instr::Assign { lhs, rhs } => {
                    universe.assign_id(&am_ir::AssignPattern::new(*lhs, *rhs))
                }
                _ => None,
            };
            if let Some(i) = pattern {
                if !blocked.contains(i) && !hoistable.contains(i) {
                    hoistable.insert(i);
                    candidates.push((i, idx));
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
        locals
    }
}

/// The Table 1 blocking row of one instruction over a universe of `ap`
/// assignment patterns: the patterns it blocks (Def. 3.2) — those whose
/// left-hand side it modifies or uses, and those with an operand it
/// modifies.
pub(crate) fn blocking_row(instr: &Instr, masks: &PatternMasks, ap: usize) -> BitSet {
    let mut row = BitSet::new(ap);
    if let Some(d) = instr.def() {
        row.union_with(masks.assign_lhs(d));
        row.union_with(masks.assign_mentions(d));
    }
    instr.for_each_use(|u| {
        row.union_with(masks.assign_lhs(u));
    });
    row
}

/// The insertion points of the greatest solution: `N-INSERT` at the
/// earliestness frontier (start node, or predecessors where hoisting
/// stops), `X-INSERT` where the block's own code blocks the pattern.
/// Writes into the tables of `a`, reusing their rows. The frontier
/// `Σ ¬X-HOISTABLE*` is computed as `¬ Π X-HOISTABLE*` (De Morgan) in the
/// one scratch set `inter`, instead of an allocation per predecessor.
fn insertion_points(g: &FlowGraph, a: &mut HoistAnalysis, inter: &mut BitSet) {
    let ap = a.universe.assign_count();
    let (n_hoistable, x_hoistable) = (&a.hoistable.before, &a.hoistable.after);
    let (n_insert, x_insert) = (&mut a.n_insert, &mut a.x_insert);
    fit_rows(n_insert, g.node_count(), ap);
    fit_rows(x_insert, g.node_count(), ap);
    if inter.len() != ap {
        *inter = BitSet::new(ap);
    }
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
                    n_insert[ni].difference_with(inter);
                }
                // An empty merge is an empty frontier.
                None => n_insert[ni].clear(),
            }
        }
        x_insert[ni].copy_from(&x_hoistable[ni]);
        x_insert[ni].intersect_with(&a.loc_blocked[ni]);
    }
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
    let mut ctx = MotionContext::new();
    let analysis = ctx.hoisting(g);
    let recorder = ProvRecorder::disabled();
    ctx.apply_insertion_step(g, &analysis, None, &recorder, 0, &mut Rewritten::default())
}

/// The blocks an insertion step rewrote, in node order, and how many
/// blocks it moved code in without changing them.
#[derive(Default)]
pub(crate) struct Rewritten {
    pub(crate) blocks: Vec<NodeId>,
    /// Blocks whose insertions re-create exactly the removed candidates at
    /// the same positions (identity moves): counted as inserts and
    /// removals, reported to the recorder, but not rewritten.
    pub(crate) identity: usize,
    /// Scratch: one block's new ids, and the patterns inserted at its
    /// entry and exit.
    ids: Vec<InstrId>,
    entry: Vec<usize>,
    exit: Vec<usize>,
}

impl MotionContext {
    /// Applies the insertion/removal step of `analysis`, computed on `g`
    /// in this context, restricted to pattern `only` when given (the
    /// restricted baseline of Fig. 8/9 and the universe explorer hoist one
    /// pattern at a time, each on a copy of the program the context
    /// synced). Every insertion and removal is reported to `recorder`.
    ///
    /// Same-point insertions are emitted in first-occurrence order and
    /// limited to patterns that still occur — the pattern set and bit
    /// order a universe collected fresh from `g` would produce, even when
    /// the analysis ran over the motion loop's larger entry universe.
    ///
    /// Each touched block's new content is composed as ids: the instance
    /// id of every inserted pattern around the kept ids of the old block.
    /// A block is written only when those differ from its old ids, and
    /// then in its own allocation ([`FlowGraph::set_ids`]); the blocks
    /// written are returned in `rewritten` (cleared first, so that its
    /// buffers are reused). The context itself is left as it was.
    pub(crate) fn apply_insertion_step(
        &self,
        g: &mut FlowGraph,
        analysis: &HoistAnalysis,
        only: Option<usize>,
        recorder: &ProvRecorder,
        round: u32,
        rewritten: &mut Rewritten,
    ) -> HoistOutcome {
        let sol = &analysis.hoistable;
        let mut outcome = HoistOutcome {
            iterations: sol.iterations,
            worklist_pushes: sol.worklist_pushes,
            max_worklist_len: sol.max_worklist_len,
            ..HoistOutcome::default()
        };
        rewritten.blocks.clear();
        rewritten.identity = 0;
        let kept = |i: usize| only.is_none_or(|o| o == i) && analysis.occ_rank[i].is_some();
        let in_order = |set: &BitSet, patterns: &mut Vec<usize>| {
            patterns.clear();
            patterns.extend(set.iter().filter(|&i| kept(i)));
            patterns.sort_by_key(|&i| analysis.occ_rank[i]);
        };
        let (mut ids, mut entry, mut exit) = (
            std::mem::take(&mut rewritten.ids),
            std::mem::take(&mut rewritten.entry),
            std::mem::take(&mut rewritten.exit),
        );
        for n in g.nodes() {
            let ni = n.index();
            // The removed candidates' (pattern, index) pairs, in index
            // order.
            let removed = || {
                analysis
                    .candidates(n)
                    .iter()
                    .filter(|&&(pat, _)| only.is_none_or(|o| o == pat))
            };
            let doomed = || removed().map(|&(_, idx)| idx);
            let removals = removed().count();
            if analysis.n_insert[ni].is_empty() && analysis.x_insert[ni].is_empty() && removals == 0
            {
                continue;
            }
            in_order(&analysis.n_insert[ni], &mut entry);
            in_order(&analysis.x_insert[ni], &mut exit);
            outcome.inserted += entry.len() + exit.len();
            outcome.removed += removals;
            if recorder.is_enabled() {
                let observe = |kind, index, instr: &Instr, pattern: usize, fact: &str| {
                    recorder.record(ProvRecord {
                        kind,
                        phase: "motion",
                        round,
                        node: g.label(n).to_owned(),
                        index,
                        instr: instr.display(g.pool()),
                        new_instr: None,
                        pattern: Some(pattern as u32),
                        instr_id: None,
                        justification: fact.to_owned(),
                    });
                };
                let instance = |i: usize| g.interner().instr(self.instance_id(i));
                for &i in &entry {
                    observe(
                        ProvKind::HoistInsert,
                        None,
                        instance(i),
                        i,
                        "N-INSERT: hoistable at entry, not hoistable out of some predecessor",
                    );
                }
                for &(pattern, idx) in removed() {
                    observe(
                        ProvKind::HoistRemove,
                        Some(idx as u32),
                        g.instr(Loc {
                            node: n,
                            index: idx,
                        }),
                        pattern,
                        "first unblocked occurrence in its block, covered by hoisted instances",
                    );
                }
                for &i in &exit {
                    observe(
                        ProvKind::HoistInsert,
                        None,
                        instance(i),
                        i,
                        "X-INSERT: hoistable at exit, blocked from entering this block",
                    );
                }
            }
            // The new block is entry ++ (old minus candidates) ++ exit; it
            // equals the old one exactly when the insertions re-create the
            // removed candidates in place.
            ids.clear();
            ids.extend(entry.iter().map(|&i| self.instance_id(i)));
            let mut next = doomed().peekable();
            ids.extend(
                (g.ids(n).iter().enumerate())
                    .filter(|&(idx, _)| next.next_if_eq(&idx).is_none())
                    .map(|(_, &id)| id),
            );
            ids.extend(exit.iter().map(|&i| self.instance_id(i)));
            if ids == g.ids(n) {
                rewritten.identity += 1;
                continue;
            }
            g.set_ids(n, &ids);
            rewritten.blocks.push(n);
        }
        (rewritten.ids, rewritten.entry, rewritten.exit) = (ids, entry, exit);
        outcome.changed = !rewritten.blocks.is_empty();
        outcome
    }
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
        let cands: Vec<usize> = analysis
            .candidates(n1)
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
        assert!(analysis.candidates(n1).iter().all(|(p, _)| *p != i));
    }

    #[test]
    fn hoisting_moves_common_assignment_to_branch_node() {
        let mut g = parse(FIG2).unwrap();
        g.split_critical_edges();
        // One pass hoists x := a+b from nodes 2 and 3 into node 1.
        hoist_assignments(&mut g);
        let n1 = g.start();
        let text = to_text(&g);
        let instrs: Vec<String> = g.instrs(n1).map(|i| i.display(g.pool())).collect();
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
        assert!(analysis.hoistable.after[n1.index()].contains(i));
        assert!(analysis.loc_blocked[n1.index()].contains(i));
        // So the insertion point is the exit of node 1 (X-INSERT).
        assert!(analysis.x_insert[n1.index()].contains(i));
        hoist_assignments(&mut g);
        let instrs: Vec<String> = g.instrs(n1).map(|ins| ins.display(g.pool())).collect();
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
        let instrs: Vec<String> = g.instrs(n1).map(|i| i.display(g.pool())).collect();
        assert_eq!(instrs, vec!["branch p > 0"]);
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert_eq!(g.block(n2).len(), 1);
    }

    /// A branch whose one side computes `x := a+b; y := c+d`: both are
    /// hoisting candidates of node 2 and are re-inserted at its entry.
    const ONE_SIDED_PAIR: &str = "start 1\nend 4\n\
         node 1 { branch p > 0 }\n\
         node 2 { x := a+b; y := c+d; out(x,y) }\n\
         node 3 { skip }\n\
         node 4 { skip }\n\
         edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4";

    #[test]
    fn identity_moves_are_counted_but_not_rewritten() {
        let mut g = parse(ONE_SIDED_PAIR).unwrap();
        let mut ctx = MotionContext::new();
        let analysis = ctx.hoisting(&g);
        let stamps = |g: &FlowGraph| (g.nodes().map(|n| g.block(n).stamp())).collect::<Vec<_>>();
        let (before, before_stamps, last) = (g.clone(), stamps(&g), g.last_stamp());
        let mut rewritten = Rewritten::default();
        let recorder = ProvRecorder::disabled();
        let outcome =
            ctx.apply_insertion_step(&mut g, &analysis, None, &recorder, 0, &mut rewritten);
        assert_eq!((outcome.inserted, outcome.removed), (2, 2));
        assert!(!outcome.changed);
        assert_eq!(rewritten.identity, 1);
        assert!(rewritten.blocks.is_empty());
        assert_eq!(
            (stamps(&g), g.last_stamp()),
            (before_stamps, last),
            "no block was written"
        );
        assert_eq!(g, before);
    }

    #[test]
    fn a_balanced_move_that_changes_a_block_is_written() {
        // One insertion for one removal, with a matching first and last
        // instruction, but a different block: the whole block is compared.
        let mut g = parse(ONE_SIDED_PAIR).unwrap();
        let mut ctx = MotionContext::new();
        let mut analysis = ctx.hoisting(&g);
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        let cands = analysis.candidates(n2).to_vec();
        let [(x, 0), (y, 1)] = cands[..] else {
            panic!("unexpected candidates {cands:?}");
        };
        // Node 2 keeps only its second candidate.
        let first = analysis.candidate_ends[n2.index()] - 2;
        analysis.candidates.remove(first);
        analysis.candidate_ends[n2.index()..]
            .iter_mut()
            .for_each(|end| *end -= 1);
        analysis.n_insert[n2.index()].remove(y);
        let mut rewritten = Rewritten::default();
        let recorder = ProvRecorder::disabled();
        let outcome =
            ctx.apply_insertion_step(&mut g, &analysis, None, &recorder, 0, &mut rewritten);
        assert!(analysis.n_insert[n2.index()].contains(x));
        assert!(outcome.changed);
        assert_eq!((rewritten.blocks, rewritten.identity), (vec![n2], 0));
        let body: Vec<String> = g.instrs(n2).map(|i| i.display(g.pool())).collect();
        assert_eq!(body, ["x := a+b", "x := a+b", "out(x,y)"]);
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
        let instrs: Vec<String> = g.instrs(g.start()).map(|i| i.display(g.pool())).collect();
        // N-INSERT places instances at the block *entry*.
        assert_eq!(instrs, vec!["x := a+b", "skip"]);
    }
}
