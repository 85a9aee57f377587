//! Gen/kill systems stated per instruction, solved per block.
//!
//! The paper states Tables 2 and 3 per instruction (Sec. 4.3–4.4): each
//! instruction ι has an entry fact `N-…_ι`, an exit fact `X-…_ι` and a
//! transfer `out = gen_ι ∪ (in ∖ kill_ι)`. Table 1 is stated per block,
//! from local predicates that fold the block's instructions. Every
//! gen/kill system of the workspace — the three tables, the classic
//! analyses and the baselines and lints built on them — is solved here the
//! same way:
//!
//! * **Compose** ([`compose`]). A block's interior instructions have one
//!   predecessor and one successor, so substituting them out preserves the
//!   fixed point: the rows fold, in program order, into one exact block
//!   transfer, `kill = ∪ kill_ι` and `gen` the gen bits no later row (in
//!   propagation order) kills. Folding a backward system this way,
//!   [`compose_row`] sees which gen bits reach the block's entry: Table 1's
//!   hoisting candidates are the occurrences whose bit does.
//! * **Solve** over the [`BlockGraph`] (a copy of the flow graph's edge
//!   rows and their schedule, [`crate::solve`]). [`BlockSolution::solve`] is the one-shot
//!   form, with one row per distinct interned instruction; the motion
//!   rounds and the flush cache their rows per interned id.
//! * **Stream** ([`stream`]). Each instruction's facts follow from its
//!   block's solved boundary fact, stepping the rows forward from the entry
//!   or backward from the exit; [`PointFacts`] lays them out per program
//!   point — an instruction, or the pass-through point of an empty block,
//!   as in the literal statement [`PointGraph`](crate::PointGraph) the
//!   oracles solve.
//!
//! Rows are `(gen, kill)` pairs of [`Bits`]: a [`BitSet`], or a single
//! index (`Option<usize>`) where an instruction generates or kills at most
//! one bit. Neither composing nor streaming allocates.

use am_bitset::BitSet;
use am_ir::intern::InstrId;
use am_ir::{FlowGraph, Instr, NodeId};

use crate::adjacency::Adjacency;
use crate::solve::{solve_scheduled, Confluence, Direction, Problem, Schedule, Solution};

/// One side of a gen/kill row: a set of bits, or at most one bit.
pub trait Bits {
    /// `set ∪= self`.
    fn add_to(&self, set: &mut BitSet);
    /// `set ∖= self`.
    fn remove_from(&self, set: &mut BitSet);
    /// `set ∪= self ∖ mask`; returns whether `set` changed.
    fn add_outside(&self, mask: &BitSet, set: &mut BitSet) -> bool;
}

impl Bits for BitSet {
    #[inline]
    fn add_to(&self, set: &mut BitSet) {
        set.union_with(self);
    }

    #[inline]
    fn remove_from(&self, set: &mut BitSet) {
        set.difference_with(self);
    }

    #[inline]
    fn add_outside(&self, mask: &BitSet, set: &mut BitSet) -> bool {
        set.union_difference(self, mask)
    }
}

impl Bits for Option<usize> {
    #[inline]
    fn add_to(&self, set: &mut BitSet) {
        if let Some(i) = *self {
            set.insert(i);
        }
    }

    #[inline]
    fn remove_from(&self, set: &mut BitSet) {
        if let Some(i) = *self {
            set.remove(i);
        }
    }

    #[inline]
    fn add_outside(&self, mask: &BitSet, set: &mut BitSet) -> bool {
        self.is_some_and(|i| !mask.contains(i) && set.insert(i))
    }
}

impl<B: Bits + ?Sized> Bits for &B {
    #[inline]
    fn add_to(&self, set: &mut BitSet) {
        (**self).add_to(set);
    }

    #[inline]
    fn remove_from(&self, set: &mut BitSet) {
        (**self).remove_from(set);
    }

    #[inline]
    fn add_outside(&self, mask: &BitSet, set: &mut BitSet) -> bool {
        (**self).add_outside(mask, set)
    }
}

/// Adds `row`, the next of a block's `(gen, kill)` rows in program order,
/// to the transfer `out = gen ∪ (in ∖ kill)` of the rows before it, for a
/// `direction` system: forward, `gen := (gen ∖ kill_ι) ∪ gen_ι`; backward,
/// where the rows before come later in propagation order, `gen ∪= gen_ι ∖
/// kill`; then `kill ∪= kill_ι`. Returns whether, in a backward system,
/// `gen_ι` adds a bit to `gen`: one that reaches the block's entry and that
/// no earlier row generates.
#[inline]
pub fn compose_row<G: Bits, K: Bits>(
    direction: Direction,
    row: &(G, K),
    gen: &mut BitSet,
    kill: &mut BitSet,
) -> bool {
    let reaches = match direction {
        Direction::Forward => {
            row.1.remove_from(gen);
            row.0.add_to(gen);
            false
        }
        Direction::Backward => row.0.add_outside(kill, gen),
    };
    row.1.add_to(kill);
    reaches
}

/// Folds the `(gen, kill)` rows of one block, given in program order, into
/// the block's exact transfer ([`compose_row`]).
#[inline]
pub fn compose<G: Bits, K: Bits>(
    direction: Direction,
    rows: impl IntoIterator<Item = (G, K)>,
    gen: &mut BitSet,
    kill: &mut BitSet,
) {
    gen.clear();
    kill.clear();
    for row in rows {
        compose_row(direction, &row, gen, kill);
    }
}

/// Streams the facts of one block's instructions from its solved boundary
/// fact — the entry for a forward system, the exit for a backward one:
/// `f(j, row_j, fact)` for every row, in propagation order, with the fact
/// row `j` then transfers (its `N-…` fact forward, its `X-…` fact
/// backward). `x` is scratch of the universe's width.
#[inline]
pub fn stream<G: Bits, K: Bits>(
    direction: Direction,
    boundary: &BitSet,
    rows: impl DoubleEndedIterator<Item = (G, K)> + ExactSizeIterator,
    x: &mut BitSet,
    mut f: impl FnMut(usize, &(G, K), &BitSet),
) {
    x.copy_from(boundary);
    let mut step = |j: usize, row: (G, K), x: &mut BitSet| {
        f(j, &row, x);
        row.1.remove_from(x);
        row.0.add_to(x);
    };
    match direction {
        Direction::Forward => {
            for (j, row) in rows.enumerate() {
                step(j, row, x);
            }
        }
        Direction::Backward => {
            for (j, row) in rows.enumerate().rev() {
                step(j, row, x);
            }
        }
    }
}

/// A program's block graph: the block adjacency and its solver schedule,
/// shared by every system solved over the same edges.
pub struct BlockGraph {
    /// Successors of each block.
    pub succs: Adjacency,
    /// Predecessors of each block.
    pub preds: Adjacency,
    /// The priority schedule of the blocks.
    pub schedule: Schedule,
}

impl BlockGraph {
    /// The block graph of `g`: its adjacency copies the graph's two edge
    /// slabs ([`FlowGraph::edge_rows`]).
    pub fn build(g: &FlowGraph) -> Self {
        let (succs, preds) = g.edge_rows();
        let (succs, preds) = (Adjacency::from(succs), Adjacency::from(preds));
        let schedule = Schedule::build(&succs, &preds);
        BlockGraph {
            succs,
            preds,
            schedule,
        }
    }

    /// Solves a block-level `problem` cold, reusing the buffers of a
    /// `recycled` solution ([`solve_scheduled`]).
    pub fn solve(&self, problem: &Problem, recycled: Option<Solution>) -> Solution {
        solve_scheduled(&self.succs, &self.preds, problem, &self.schedule, recycled)
    }
}

/// A gen/kill system over a program, solved once per block, with the rows
/// its per-instruction facts stream from.
pub struct BlockSolution<G, K> {
    direction: Direction,
    /// Per block, `before[n]` is the fact at the entry of block `n` and
    /// `after[n]` the fact at its exit; `iterations` counts block updates.
    pub solution: Solution,
    /// The row of every distinct instruction, dense by interned id.
    rows: Vec<Option<(G, K)>>,
}

impl<G: Bits, K: Bits> BlockSolution<G, K> {
    /// Solves the system with transfer `row(ι)` at every instruction ι of
    /// `g`, whose block graph is `blocks`, over `universe` bits, to its
    /// greatest (must) or least (may) fixed point with a `false` boundary.
    /// `row` runs once per distinct instruction.
    pub fn solve(
        g: &FlowGraph,
        blocks: &BlockGraph,
        direction: Direction,
        confluence: Confluence,
        universe: usize,
        mut row: impl FnMut(&Instr) -> (G, K),
    ) -> Self {
        let mut rows = Vec::new();
        rows.resize_with(g.interner().len(), || None);
        for &id in g.nodes().flat_map(|n| g.ids(n)) {
            rows[id.index()].get_or_insert_with(|| row(g.interner().instr(id)));
        }
        let mut this = BlockSolution {
            direction,
            solution: Solution::default(),
            rows,
        };
        let mut problem = Problem::new(direction, confluence, g.node_count(), universe);
        for n in g.nodes() {
            let rows = g.ids(n).iter().map(|&id| this.row(id));
            let (gen, kill) = (&mut problem.gen[n.index()], &mut problem.kill[n.index()]);
            compose(direction, rows, gen, kill);
        }
        this.solution = blocks.solve(&problem, None);
        this
    }

    /// The row of interned instruction `id`, which must occur in the
    /// program solved.
    pub fn row(&self, id: InstrId) -> (&G, &K) {
        let (gen, kill) = self.rows[id.index()].as_ref().expect("a solved row");
        (gen, kill)
    }

    /// Writes into `facts` the facts at the program points of block `n` of
    /// `g`, the program solved.
    pub fn facts(&self, g: &FlowGraph, n: NodeId, facts: &mut PointFacts) {
        let (before, after) = (&self.solution.before, &self.solution.after);
        let (entry, exit) = (&before[n.index()], &after[n.index()]);
        let rows = g.ids(n).iter().map(|&id| self.row(id));
        facts.fill(self.direction, entry, exit, rows);
    }
}

/// The facts at the program points of one block, in program order. Inside
/// a block a point's exit fact is the next point's entry fact, so the
/// facts are kept as the block's boundary facts with the streamed facts
/// between them. The rows are reused from block to block, so that a walk
/// over a program allocates them once, for its longest block.
#[derive(Default)]
pub struct PointFacts {
    /// `cuts[j]` is the entry fact of point `j`, `cuts[j + 1]` its exit.
    cuts: Vec<BitSet>,
    len: usize,
    x: BitSet,
}

impl PointFacts {
    /// Fills in the facts of a block whose solved boundary facts are
    /// `entry` and `exit` and whose `direction` rows are `rows`, given in
    /// program order: one point per row, or one pass-through point for a
    /// block without rows.
    pub fn fill<G: Bits, K: Bits>(
        &mut self,
        direction: Direction,
        entry: &BitSet,
        exit: &BitSet,
        rows: impl DoubleEndedIterator<Item = (G, K)> + ExactSizeIterator,
    ) {
        self.len = rows.len().max(1);
        if self.x.len() != entry.len() {
            (self.cuts, self.x) = (Vec::new(), BitSet::new(entry.len()));
        }
        if self.cuts.len() <= self.len {
            self.cuts.resize(self.len + 1, self.x.clone());
        }
        let (cuts, last) = (&mut self.cuts, self.len);
        cuts[0].copy_from(entry);
        cuts[last].copy_from(exit);
        let (boundary, shift) = match direction {
            Direction::Forward => (entry, 0),
            Direction::Backward => (exit, 1),
        };
        stream(direction, boundary, rows, &mut self.x, |j, _, fact| {
            cuts[j + shift].copy_from(fact);
        });
    }

    /// The number of points.
    pub fn points(&self) -> usize {
        self.len
    }

    /// The entry fact of point `j`.
    pub fn before(&self, j: usize) -> &BitSet {
        &self.cuts[..self.len][j]
    }

    /// The exit fact of point `j`.
    pub fn after(&self, j: usize) -> &BitSet {
        &self.cuts[1..=self.len][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::parse;

    #[test]
    fn mirrors_the_graph() {
        let mut g = parse(
            "start s\nend e\nnode s { branch p > 0 }\nnode a { skip }\nnode b { skip }\nnode e { out() }\nedge s -> a, b\nedge a -> e\nedge b -> e",
        )
        .unwrap();
        let blocks = BlockGraph::build(&g);
        assert_eq!(blocks.succs.len(), g.node_count());
        let s = g.start().index();
        assert_eq!(blocks.succs[s].len(), 2);
        assert!(blocks.preds[s].is_empty());
        let e = g.end().index();
        assert_eq!(blocks.preds[e].len(), 2);
        assert!(blocks.succs[e].is_empty());
        // Rows that outgrew their room and moved within the edge slabs
        // copy the same: the adjacency is row for row the graph's.
        let [a, b] = ["a", "b"].map(|l| g.nodes().find(|&n| g.label(n) == l).unwrap());
        for _ in 0..3 {
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        g.remove_edge(a, b);
        g.split_critical_edges();
        let blocks = BlockGraph::build(&g);
        assert_eq!(blocks.succs.len(), g.node_count());
        for n in g.nodes() {
            let index = |list: &[NodeId]| list.iter().map(|m| m.index() as u32).collect::<Vec<_>>();
            assert_eq!(blocks.succs[n.index()], index(g.succs(n)), "{n:?}");
            assert_eq!(blocks.preds[n.index()], index(g.preds(n)), "{n:?}");
        }
    }
}
