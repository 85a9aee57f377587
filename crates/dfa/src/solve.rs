//! The generic bit-vector fixed-point solver.
//!
//! Every analysis in the paper (Tables 1–3) is a *gen/kill* system over a
//! pattern universe: at each point, `out = gen ∪ (in ∖ kill)`, with `in`
//! combined over neighbours by either intersection (`∏`, must/all-paths) or
//! union (`Σ`, may/some-path). Must-systems are solved to their **greatest**
//! fixed point (initialize ⊤ and shrink), may-systems to their **least**
//! (initialize ⊥ and grow) — the directions in which those systems are
//! meaningful.
//!
//! [`BlockGraph`] is the one way in: it holds the successor and
//! predecessor rows of a dense point set — a program's blocks, whose
//! transfers [`crate::blocks`] composes — and their schedule, and
//! [`BlockGraph::solve`] solves cold while [`BlockGraph::solve_seeded`]
//! continues a warm solution.
//!
//! # Scheduling
//!
//! Points are processed in priority order, not stack order: the schedule
//! ranks every point in reverse postorder of the propagation direction
//! (RPO over successors for forward problems, RPO over predecessors —
//! i.e. post-order — for backward ones), and the worklist is a bitmap over
//! those ranks ([`RankQueue`]) with an "on worklist" mask so each point is
//! queued at most once at a time. On a reducible graph one drain visits
//! points in topological order modulo back edges, so the solver converges
//! in a small number of passes (Kam–Ullman priority iteration) instead of
//! chasing a LIFO stack around the graph.

use am_bitset::{ActiveWords, BitSet};
use am_ir::rows::Rows;
use am_ir::FlowGraph;

/// Propagation direction of an analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Facts flow with control (e.g. redundancy, delayability).
    Forward,
    /// Facts flow against control (e.g. hoistability, usability).
    Backward,
}

/// How facts combine at control-flow merges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Confluence {
    /// `∏` — the fact must hold on all paths (intersection).
    Must,
    /// `Σ` — the fact holds on some path (union).
    May,
}

/// A gen/kill bit-vector data-flow problem.
///
/// `gen[p]` and `kill[p]` give the transfer function of point `p`:
/// `out = gen ∪ (in ∖ kill)`. `boundary` is the value at the points with no
/// upstream neighbour (the entry point for forward problems, the exit point
/// for backward ones) — `false` everywhere in all of the paper's systems.
pub struct Problem {
    /// Propagation direction.
    pub direction: Direction,
    /// Merge operator.
    pub confluence: Confluence,
    /// Universe size (bits per set).
    pub universe: usize,
    /// Per-point generated facts.
    pub gen: Vec<BitSet>,
    /// Per-point killed facts.
    pub kill: Vec<BitSet>,
    /// Value at boundary points.
    pub boundary: BitSet,
}

impl Problem {
    /// Creates a problem with empty gen/kill sets and a `false` boundary.
    pub fn new(
        direction: Direction,
        confluence: Confluence,
        points: usize,
        universe: usize,
    ) -> Self {
        Problem {
            direction,
            confluence,
            universe,
            gen: vec![BitSet::new(universe); points],
            kill: vec![BitSet::new(universe); points],
            boundary: BitSet::new(universe),
        }
    }

    /// Reinitializes the problem to the state [`Problem::new`] gives it,
    /// reusing the row allocations where the width already matches.
    pub fn reset(
        &mut self,
        direction: Direction,
        confluence: Confluence,
        points: usize,
        universe: usize,
    ) {
        self.direction = direction;
        self.confluence = confluence;
        self.universe = universe;
        let empty = BitSet::new(universe);
        for rows in [&mut self.gen, &mut self.kill] {
            reset_rows(rows, points, &empty);
        }
        if self.boundary.len() == universe {
            self.boundary.clear();
        } else {
            self.boundary = BitSet::new(universe);
        }
    }
}

/// One direction's processing order: a permutation of the points and its
/// inverse.
pub(crate) struct Order {
    /// `rank[p]` — position of point `p` in the traversal.
    pub(crate) rank: Vec<u32>,
    /// `seq[r]` — the point at position `r` (inverse of `rank`).
    pub(crate) seq: Vec<u32>,
}

/// Direction-aware priority schedule of a point set, computed once per
/// [`BlockGraph`] and shared by every solve over it: the forward order is
/// reverse postorder over successors, the backward order reverse
/// postorder over predecessors. Depth-first search starts from the
/// boundary points of the respective direction (no upstream neighbour),
/// then sweeps any remaining unvisited points in index order, so
/// unreachable regions still get deterministic ranks.
struct Schedule {
    forward: Order,
    backward: Order,
}

/// A dense point set's adjacency and its solver schedule — in the
/// workspace, a program's block graph — shared by every system solved
/// over the same edges, and the solver's one way in.
pub struct BlockGraph {
    /// Successors of each point.
    pub(crate) succs: Rows<u32>,
    /// Predecessors of each point.
    pub(crate) preds: Rows<u32>,
    schedule: Schedule,
}

impl BlockGraph {
    /// The point set whose successor rows are `succs` and predecessor rows
    /// `preds`, with its schedule.
    ///
    /// # Panics
    ///
    /// Panics if `succs` and `preds` disagree on the number of points.
    pub fn new(succs: Rows<u32>, preds: Rows<u32>) -> Self {
        assert_eq!(preds.len(), succs.len(), "preds/succs length mismatch");
        let schedule = Schedule {
            forward: reverse_postorder(&succs, &preds),
            backward: reverse_postorder(&preds, &succs),
        };
        BlockGraph {
            succs,
            preds,
            schedule,
        }
    }

    /// The block graph of `g`: its rows copy the graph's two edge slabs
    /// ([`FlowGraph::edge_rows`]).
    pub fn build(g: &FlowGraph) -> Self {
        let (succs, preds) = g.edge_rows();
        BlockGraph::new(succs, preds)
    }

    /// The number of points (blocks).
    pub fn node_count(&self) -> usize {
        self.succs.len()
    }

    /// The processing order of `direction`.
    pub(crate) fn order(&self, direction: Direction) -> &Order {
        match direction {
            Direction::Forward => &self.schedule.forward,
            Direction::Backward => &self.schedule.backward,
        }
    }

    /// Solves `problem` cold, seeding every point.
    ///
    /// `recycled` hands in the fact buffers of a [`Solution`] from an
    /// earlier solve to reuse instead of allocating fresh ones. Every fact
    /// row is reinitialized to the problem's start value, so the result
    /// does not depend on it — only the allocations are reused. Rows of
    /// the wrong width (the universe changed) or count (the point set
    /// changed) are rebuilt as needed. This matters to callers that solve
    /// once per round: without recycling, each round allocates and frees
    /// two full fact tables.
    ///
    /// # Panics
    ///
    /// Panics if the gen and kill vectors do not have one row per point.
    pub fn solve(&self, problem: &Problem, recycled: Option<Solution>) -> Solution {
        let n = self.node_count();
        let Solution {
            before: mut input,
            after: mut output,
            mut work,
            ..
        } = recycled.unwrap_or_default();
        let top = match &mut work.top {
            Some(top) if top.len() == problem.universe => top,
            slot => slot.insert(BitSet::new(problem.universe)),
        };
        match problem.confluence {
            Confluence::Must => top.insert_all(),
            Confluence::May => top.clear(),
        }
        reset_rows(&mut input, n, top);
        reset_rows(&mut output, n, top);
        run(self, problem, input, output, work, 0..n)
    }

    /// Continues a previous solve after a localized change to the problem.
    ///
    /// `warm` is the previous [`Solution`] of a problem over the same
    /// points, taken by value: the solve continues in its buffers, with
    /// nothing copied. `dirty` lists every point whose gen/kill row changed
    /// since then. The solver restarts chaotic iteration from the warm
    /// facts with only the dirty points seeded, and converges to the same
    /// fixed point a cold [`solve`](Self::solve) of the new problem would,
    /// **provided the change moved the transfer functions in the problem's
    /// safe direction**:
    ///
    /// * **Must** (greatest fixed point): the warm facts must be ≥ the new
    ///   fixed point, which holds when rows only *lowered* — gen bits
    ///   removed and/or kill bits added. Any fixed point above the greatest
    ///   one does not exist, so descending iteration from above lands
    ///   exactly on it.
    /// * **May** (least fixed point): dually, rows may only *raise* — gen
    ///   bits added and/or kill bits removed — keeping the warm facts ≤ the
    ///   new fixed point.
    ///
    /// Changes in the unsafe direction (e.g. a must-problem whose kill bits
    /// disappeared) can converge to a stale inner fixed point; callers must
    /// fall back to a cold solve in that case. The returned metrics count
    /// only the incremental work: `worklist_pushes` starts at
    /// `dirty.len()`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`solve`](Self::solve), and if
    /// `warm` covers a different number of points.
    pub fn solve_seeded(&self, problem: &Problem, warm: Solution, dirty: &[usize]) -> Solution {
        assert_eq!(
            warm.before.len(),
            self.node_count(),
            "warm solution length mismatch"
        );
        // Undo the direction normalization: `input` is the merged incoming
        // fact (entry for forward, exit for backward), `output` the
        // transferred one.
        let (input, output) = match problem.direction {
            Direction::Forward => (warm.before, warm.after),
            Direction::Backward => (warm.after, warm.before),
        };
        run(
            self,
            problem,
            input,
            output,
            warm.work,
            dirty.iter().copied(),
        )
    }
}

/// Reverse postorder over `adj`, with DFS roots chosen boundary-first:
/// points with no `adj_in` neighbour seed the search (in index order), any
/// point left unvisited afterwards roots its own tree.
fn reverse_postorder(adj: &Rows<u32>, adj_in: &Rows<u32>) -> Order {
    let n = adj.len();
    let mut post: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    // (point, next child index) — an explicit stack keeps deep chains
    // (straight-line code is one point per instruction) off the call stack.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let roots = (0..n).filter(|&p| adj_in.row(p).is_empty()).chain(0..n);
    for root in roots {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        stack.push((root, 0));
        while let Some(&mut (p, ref mut child)) = stack.last_mut() {
            if let Some(&q) = adj.row(p).get(*child) {
                *child += 1;
                let q = q as usize;
                if !visited[q] {
                    visited[q] = true;
                    stack.push((q, 0));
                }
            } else {
                post.push(p as u32);
                stack.pop();
            }
        }
    }
    post.reverse();
    let mut rank = vec![0u32; n];
    for (r, &p) in post.iter().enumerate() {
        rank[p as usize] = r as u32;
    }
    Order { rank, seq: post }
}

/// The fixed-point solution of a [`Problem`].
#[derive(Clone, Debug, Default)]
pub struct Solution {
    /// Entry fact of each point (the paper's `N-…`).
    pub before: Vec<BitSet>,
    /// Exit fact of each point (the paper's `X-…`).
    pub after: Vec<BitSet>,
    /// Number of point updates performed until convergence — the iteration
    /// count reported by the complexity study.
    pub iterations: u64,
    /// Number of worklist pushes, including the initial seeding. Since the
    /// solver runs until the worklist drains, this always equals
    /// [`iterations`](Self::iterations).
    pub worklist_pushes: u64,
    /// Peak worklist length observed. A cold solve seeds every point, so
    /// this is at least the point count; a warm-started solve
    /// ([`BlockGraph::solve_seeded`]) seeds only the dirty points.
    pub max_worklist_len: usize,
    /// The worklist buffers of the solve, recycled with the fact rows.
    pub(crate) work: Worklist,
}

/// The worklist state of one solve, kept with its [`Solution`] so that a
/// solve handed the solution as `recycled` reuses the buffers. Cloning a
/// solution does not copy them.
#[derive(Default)]
pub(crate) struct Worklist {
    /// Whether each point is queued.
    on_list: Vec<bool>,
    /// The pending ranks.
    queue: RankQueue,
    /// Per point, the active-word index of its gen/kill row (wide
    /// universes only).
    rows: Vec<Option<ActiveWords>>,
    /// The start value of a cold solve's facts.
    top: Option<BitSet>,
}

impl Clone for Worklist {
    fn clone(&self) -> Self {
        Worklist::default()
    }
}

impl std::fmt::Debug for Worklist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Worklist")
    }
}

/// Reinitializes `rows` to `n` copies of `value`, reusing allocations
/// where the width already matches.
fn reset_rows(rows: &mut Vec<BitSet>, n: usize, value: &BitSet) {
    if rows.first().is_some_and(|r| r.len() != value.len()) {
        rows.clear();
    }
    rows.truncate(n);
    for row in rows.iter_mut() {
        row.copy_from(value);
    }
    if rows.len() < n {
        rows.resize(n, value.clone());
    }
}

/// Word-parallel priority worklist over schedule ranks.
///
/// A schedule assigns every point a *unique* rank, so the pending set is a
/// bitmap over ranks and pop-min is a forward scan for the first set bit —
/// one `trailing_zeros` per pop plus a word walk that a cursor keeps
/// amortized: the cursor only moves backward when a push lands below it
/// (a retreating edge fired). This visits points in exactly the order a
/// min-heap on ranks would, at a fraction of the constant cost — no
/// sift-up/down, no per-element branching — which matters when a cold
/// solve seeds all 10⁵ points of an XL graph.
#[derive(Default)]
pub(crate) struct RankQueue {
    words: Vec<u64>,
    len: usize,
    /// No set bit lies below this rank.
    cur: usize,
}

impl RankQueue {
    /// Empties the queue for ranks `0..n`, keeping its allocation.
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.len = 0;
        self.cur = n;
    }

    /// Inserts `rank`. The caller guarantees it is not already pending
    /// (an `on_list` mask dedupes points).
    pub(crate) fn push(&mut self, rank: u32) {
        let r = rank as usize;
        self.words[r / 64] |= 1u64 << (r % 64);
        self.len += 1;
        self.cur = self.cur.min(r);
    }

    /// Removes and returns the smallest pending rank.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut w = self.cur / 64;
        let mut word = self.words[w] & (!0u64 << (self.cur % 64));
        while word == 0 {
            w += 1;
            word = self.words[w];
        }
        let bit = word.trailing_zeros() as usize;
        let r = w * 64 + bit;
        self.words[w] &= !(1u64 << bit);
        self.len -= 1;
        self.cur = r + 1;
        Some(r as u32)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The priority worklist loop shared by cold and warm solves over
/// `graph`, on the recycled worklist buffers `work`.
fn run(
    graph: &BlockGraph,
    problem: &Problem,
    mut input: Vec<BitSet>,
    mut output: Vec<BitSet>,
    work: Worklist,
    seed: impl IntoIterator<Item = usize>,
) -> Solution {
    let n = graph.node_count();
    assert_eq!(problem.gen.len(), n, "gen length mismatch");
    assert_eq!(problem.kill.len(), n, "kill length mismatch");
    let (upstream, downstream) = match problem.direction {
        Direction::Forward => (&graph.preds, &graph.succs),
        Direction::Backward => (&graph.succs, &graph.preds),
    };
    let order = graph.order(problem.direction);

    let mut iterations: u64 = 0;
    let mut worklist_pushes: u64 = 0;
    // The buffers are taken into locals for the loop, so that their
    // lengths and pointers stay in registers.
    let Worklist {
        mut on_list,
        mut queue,
        rows: mut active,
        top,
    } = work;
    on_list.clear();
    on_list.resize(n, false);
    queue.reset(n);
    for p in seed {
        if !on_list[p] {
            on_list[p] = true;
            queue.push(order.rank[p]);
            worklist_pushes += 1;
        }
    }
    let mut max_worklist_len = queue.len();
    // Dirty-word indices of the gen/kill rows, built lazily on first visit
    // so warm restarts with small dirty sets never scan the whole problem.
    // On a universe where every row is dense, one marker serves them all.
    let dense = ActiveWords::dense(problem.universe);
    let sparse = !ActiveWords::always_dense(problem.universe);
    active.clear();
    if sparse {
        active.resize(n, None);
    }
    while let Some(rank) = queue.pop() {
        let p = order.seq[rank as usize] as usize;
        on_list[p] = false;
        iterations += 1;
        // Merge incoming facts directly into the stored entry fact: copy
        // the first upstream row, then fold the rest in place. This
        // replaces the old ⊤-reset + intersect-everything merge and the
        // scratch-to-input copy with a single write pass per upstream.
        if upstream.row(p).is_empty() {
            input[p].copy_from(&problem.boundary);
        } else {
            let (&first, rest) = upstream.row(p).split_first().expect("non-empty");
            input[p].copy_from(&output[first as usize]);
            match problem.confluence {
                Confluence::Must => {
                    for &q in rest {
                        input[p].intersect_with(&output[q as usize]);
                    }
                }
                Confluence::May => {
                    for &q in rest {
                        input[p].union_with(&output[q as usize]);
                    }
                }
            }
        }
        // Fused transfer: out = gen ∪ (in ∖ kill) in one word pass, with
        // the same exact change bit the three-pass formulation computed.
        let row = if sparse {
            active[p].get_or_insert_with(|| ActiveWords::build(&problem.gen[p], &problem.kill[p]))
        } else {
            &dense
        };
        if output[p].transfer_from(&input[p], &problem.gen[p], &problem.kill[p], row) {
            for &q in downstream.row(p) {
                let q = q as usize;
                if !on_list[q] {
                    on_list[q] = true;
                    queue.push(order.rank[q]);
                    worklist_pushes += 1;
                }
            }
            max_worklist_len = max_worklist_len.max(queue.len());
        }
    }

    let (before, after) = match problem.direction {
        Direction::Forward => (input, output),
        Direction::Backward => (output, input),
    };
    Solution {
        before,
        after,
        iterations,
        worklist_pushes,
        max_worklist_len,
        work: Worklist {
            on_list,
            queue,
            rows: active,
            top,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point set with successor lists `succs`; each point's
    /// predecessors are listed in point order.
    fn graph(succs: &[&[u32]]) -> BlockGraph {
        let (mut out, mut preds) = (Rows::new(), Rows::new());
        for _ in succs {
            out.push_row();
            preds.push_row();
        }
        for (p, list) in succs.iter().enumerate() {
            for &q in *list {
                out.push(p, q);
                preds.push(q as usize, p as u32);
            }
        }
        BlockGraph::new(out, preds)
    }

    /// A 4-point diamond: 0 -> {1,2} -> 3.
    fn diamond() -> BlockGraph {
        graph(&[&[1, 2], &[3], &[3], &[]])
    }

    /// 0 -> 1 <-> 2, 1 -> 3.
    fn cycle() -> BlockGraph {
        graph(&[&[1], &[2, 3], &[1], &[]])
    }

    #[test]
    fn forward_must_intersects_at_joins() {
        let g = diamond();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 4, 2);
        // Bit 0 generated on both branches, bit 1 only on the left.
        p.gen[1].insert(0);
        p.gen[1].insert(1);
        p.gen[2].insert(0);
        let sol = g.solve(&p, None);
        assert!(sol.before[3].contains(0));
        assert!(!sol.before[3].contains(1));
        assert!(!sol.before[1].contains(0), "boundary is false");
    }

    #[test]
    fn forward_may_unions_at_joins() {
        let g = diamond();
        let mut p = Problem::new(Direction::Forward, Confluence::May, 4, 2);
        p.gen[1].insert(1);
        let sol = g.solve(&p, None);
        assert!(sol.before[3].contains(1));
        assert!(!sol.before[2].contains(1));
    }

    #[test]
    fn backward_must_with_kill() {
        let g = diamond();
        let mut p = Problem::new(Direction::Backward, Confluence::Must, 4, 1);
        // Fact generated at exit point 3, killed in branch 1.
        p.gen[3].insert(0);
        p.kill[1].insert(0);
        let sol = g.solve(&p, None);
        assert!(sol.before[3].contains(0));
        // After point 1 the fact holds (incoming from 3), before it doesn't.
        assert!(sol.after[1].contains(0));
        assert!(!sol.before[1].contains(0));
        assert!(sol.before[2].contains(0));
        // At node 0 the merge over {1,2} intersects: false.
        assert!(!sol.after[0].contains(0));
    }

    #[test]
    fn greatest_solution_on_cycles() {
        // 0 -> 1 <-> 2, 1 -> 3. A must-fact that no point kills stays true
        // on the cycle only if it is true on every path into it; with a
        // false boundary it collapses to gen-reachability.
        let g = cycle();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 4, 1);
        p.gen[0].insert(0);
        let sol = g.solve(&p, None);
        // Generated at 0, never killed: holds everywhere downstream, even
        // around the cycle (greatest fixed point keeps it).
        assert!(sol.before[1].contains(0));
        assert!(sol.before[2].contains(0));
        assert!(sol.before[3].contains(0));
    }

    #[test]
    fn least_solution_on_cycles_is_not_self_justifying() {
        // Backward may-analysis (like usability): a cycle with no uses must
        // not mark itself usable.
        let g = cycle();
        let p = Problem::new(Direction::Backward, Confluence::May, 4, 1);
        let sol = g.solve(&p, None);
        for i in 0..4 {
            assert!(!sol.before[i].contains(0));
            assert!(!sol.after[i].contains(0));
        }
    }

    #[test]
    fn iteration_count_is_reported() {
        let g = diamond();
        let p = Problem::new(Direction::Forward, Confluence::Must, 4, 1);
        let sol = g.solve(&p, None);
        assert!(sol.iterations >= 4);
    }

    #[test]
    fn worklist_metrics_on_a_known_diamond() {
        let g = diamond();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 4, 2);
        p.gen[0].insert(0);
        p.gen[1].insert(1);
        let sol = g.solve(&p, None);
        // Every pop was pushed and the solver runs until the list drains,
        // so pushes and iterations agree exactly.
        assert_eq!(sol.worklist_pushes, sol.iterations);
        // All four points seed the worklist, so the peak is at least that.
        assert!(sol.max_worklist_len >= 4, "{}", sol.max_worklist_len);
        // RPO pops 0 before both branches and both branches before the
        // join, so every downstream point is still seeded when its
        // upstream fact changes: no re-pushes at all on an acyclic graph.
        assert!(sol.worklist_pushes >= 4 && sol.worklist_pushes <= 8);
    }

    #[test]
    fn rpo_converges_in_one_pass_on_the_diamond() {
        // Regression for the old arbitrary-order seeding: the LIFO stack
        // popped the join first and re-processed it after each branch,
        // spending 7 updates on this graph. Priority order does exactly
        // one update per point.
        let g = diamond();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 4, 2);
        p.gen[0].insert(0);
        p.gen[1].insert(1);
        let sol = g.solve(&p, None);
        assert_eq!(sol.iterations, 4, "one update per point in RPO");
        assert_eq!(sol.worklist_pushes, 4, "no re-pushes on an acyclic graph");

        // Same property for a backward problem: post-order pops the join
        // side first.
        let mut p = Problem::new(Direction::Backward, Confluence::Must, 4, 2);
        p.gen[3].insert(0);
        let sol = g.solve(&p, None);
        assert_eq!(sol.iterations, 4);
    }

    #[test]
    fn schedule_ranks_are_direction_aware() {
        let g = diamond();
        let (forward, backward) = (g.order(Direction::Forward), g.order(Direction::Backward));
        assert_eq!(forward.rank.len(), 4);
        // Forward: entry first, join last.
        assert_eq!(forward.rank[0], 0);
        assert_eq!(forward.rank[3], 3);
        // Backward: exit first, entry last.
        assert_eq!(backward.rank[3], 0);
        assert_eq!(backward.rank[0], 3);
    }

    #[test]
    fn seeded_resolve_from_converged_state_is_a_fixed_point() {
        let g = diamond();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 4, 2);
        p.gen[0].insert(0);
        p.gen[1].insert(1);
        let cold = g.solve(&p, None);
        // Re-seeding everything over an unchanged problem: one sweep, no
        // changes, identical facts.
        let warm = g.solve_seeded(&p, cold.clone(), &[0, 1, 2, 3]);
        assert_eq!(warm.before, cold.before);
        assert_eq!(warm.after, cold.after);
        assert_eq!(warm.iterations, 4);
        // An empty dirty set does no work at all.
        let idle = g.solve_seeded(&p, cold.clone(), &[]);
        assert_eq!(idle.before, cold.before);
        assert_eq!(idle.iterations, 0);
        assert_eq!(idle.worklist_pushes, 0);
    }

    #[test]
    fn seeded_resolve_tracks_a_lowering_must_change() {
        // Cyclic graph: 0 -> 1 <-> 2 -> 3 (via 1). Lower point 1's row
        // (remove a gen bit, add a kill bit) and re-solve warm from the old
        // facts: must-facts only shrink, so the warm run lands on the same
        // greatest fixed point as a cold solve of the new problem.
        let g = cycle();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 4, 3);
        p.gen[0].insert(0);
        p.gen[0].insert(1);
        p.gen[1].insert(2);
        let old = g.solve(&p, None);
        p.gen[1].remove(2);
        p.kill[1].insert(0);
        let cold = g.solve(&p, None);
        let warm = g.solve_seeded(&p, old, &[1]);
        assert_eq!(warm.before, cold.before);
        assert_eq!(warm.after, cold.after);
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn seeded_resolve_tracks_a_raising_may_change() {
        let g = cycle();
        let mut p = Problem::new(Direction::Backward, Confluence::May, 4, 2);
        p.gen[3].insert(0);
        let old = g.solve(&p, None);
        // Raise point 2's row: new gen bit, kill bit dropped.
        p.gen[2].insert(1);
        let cold = g.solve(&p, None);
        let warm = g.solve_seeded(&p, old, &[2]);
        assert_eq!(warm.before, cold.before);
        assert_eq!(warm.after, cold.after);
    }

    #[test]
    #[should_panic(expected = "gen length mismatch")]
    fn length_mismatch_panics() {
        let g = diamond();
        let mut p = Problem::new(Direction::Forward, Confluence::Must, 3, 1);
        p.boundary = BitSet::new(1);
        g.solve(&p, None);
    }
}
