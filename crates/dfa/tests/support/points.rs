//! Test support: the paper's instruction-level statement and a naive
//! solver for it.
//!
//! Tables 2 and 3 of the paper specify their analyses "at the instruction
//! level": each instruction ι has an entry fact `N-…_ι` and an exit fact
//! `X-…_ι`, with `pred(ι)`/`succ(ι)` ranging over adjacent instructions,
//! across block boundaries at block edges. [`PointGraph`] materializes this
//! view: one point per instruction, plus one virtual *pass-through* point
//! per empty block so that facts still propagate through blocks without
//! instructions (synthetic nodes from edge splitting are initially empty).
//!
//! The workspace solves every system per block; the oracles state it per
//! point here and solve it round-robin ([`reference_solve`],
//! [`reference_strong_liveness`]), sharing no worklist, schedule or
//! composition with the solver they check.
//!
//! Include it with `#[path]` (and `#[allow(dead_code)]`: each oracle uses
//! a part of it).

use am_bitset::BitSet;
use am_dfa::{Confluence, Direction, Problem};
use am_ir::rows::Rows;
use am_ir::{FlowGraph, Instr, Loc, NodeId};

/// Identifier of a program point (an instruction or a virtual pass-through).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PointId(pub u32);

impl PointId {
    /// The point's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The instruction-level point graph of a flow graph.
pub struct PointGraph<'g> {
    graph: &'g FlowGraph,
    /// Location of each point; `None` for virtual points of empty blocks.
    locs: Vec<Option<Loc>>,
    first_of: Vec<PointId>,
    last_of: Vec<PointId>,
    preds: Rows<u32>,
    succs: Rows<u32>,
}

impl<'g> PointGraph<'g> {
    /// Builds the point graph of `g`.
    pub fn build(g: &'g FlowGraph) -> Self {
        let mut locs = Vec::new();
        let mut first_of = Vec::with_capacity(g.node_count());
        let mut last_of = Vec::with_capacity(g.node_count());
        for n in g.nodes() {
            let len = g.ids(n).len();
            let first = PointId(locs.len() as u32);
            if len == 0 {
                locs.push(None);
            } else {
                locs.extend((0..len).map(|index| Some(Loc { node: n, index })));
            }
            let last = PointId(locs.len() as u32 - 1);
            first_of.push(first);
            last_of.push(last);
        }
        // Every point's neighbor lists are known on sight — intra-block
        // chain plus block edges at the block boundary points — so both
        // tables fill by appending points in order.
        let (mut succs, mut preds) = (Rows::new(), Rows::new());
        for n in g.nodes() {
            let first = first_of[n.index()].index();
            let last = last_of[n.index()].index();
            for p in first..last {
                let row = succs.push_row();
                succs.push(row, p as u32 + 1);
            }
            let row = succs.push_row();
            for &m in g.succs(n) {
                succs.push(row, first_of[m.index()].0);
            }
            let row = preds.push_row();
            for &m in g.preds(n) {
                preds.push(row, last_of[m.index()].0);
            }
            for p in first..last {
                let row = preds.push_row();
                preds.push(row, p as u32);
            }
        }
        PointGraph {
            graph: g,
            locs,
            first_of,
            last_of,
            preds,
            succs,
        }
    }

    /// The underlying flow graph.
    pub fn graph(&self) -> &'g FlowGraph {
        self.graph
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// The instruction at `p`, or `None` for a virtual pass-through point.
    pub fn instr(&self, p: PointId) -> Option<&'g Instr> {
        let loc = self.locs[p.index()]?;
        Some(self.graph.instr(loc))
    }

    /// The location of `p`, or `None` for a virtual point.
    pub fn loc(&self, p: PointId) -> Option<Loc> {
        self.locs[p.index()]
    }

    /// First point of block `n`.
    pub fn first_of(&self, n: NodeId) -> PointId {
        self.first_of[n.index()]
    }

    /// Last point of block `n`.
    pub fn last_of(&self, n: NodeId) -> PointId {
        self.last_of[n.index()]
    }

    /// Predecessor rows of the points.
    pub fn preds(&self) -> &Rows<u32> {
        &self.preds
    }

    /// Successor rows of the points.
    pub fn succs(&self) -> &Rows<u32> {
        &self.succs
    }

    /// Iterates over all points.
    pub fn points(&self) -> impl Iterator<Item = PointId> {
        (0..self.locs.len() as u32).map(PointId)
    }

    /// Solves `problem`, stated per point, with [`reference_solve`].
    pub fn solve(&self, problem: &Problem) -> (Vec<BitSet>, Vec<BitSet>) {
        reference_solve(&self.succs, &self.preds, problem)
    }
}

/// Rows holding `lists`, one row per list, in order.
pub fn rows(lists: &[Vec<usize>]) -> Rows<u32> {
    let mut rows = Rows::new();
    for list in lists {
        let row = rows.push_row();
        for &q in list {
            rows.push(row, q as u32);
        }
    }
    rows
}

/// Naive reference: iterates every point round-robin, in index order, until
/// nothing changes. Returns the entry and exit fact of each point.
pub fn reference_solve(
    succs: &Rows<u32>,
    preds: &Rows<u32>,
    p: &Problem,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = succs.len();
    let top = match p.confluence {
        Confluence::Must => BitSet::full(p.universe),
        Confluence::May => BitSet::new(p.universe),
    };
    let mut input = vec![top.clone(); n];
    let mut output = vec![top; n];
    let upstream = match p.direction {
        Direction::Forward => preds,
        Direction::Backward => succs,
    };
    loop {
        let mut changed = false;
        for point in 0..n {
            let mut merged = if upstream.row(point).is_empty() {
                p.boundary.clone()
            } else {
                match p.confluence {
                    Confluence::Must => {
                        let mut acc = BitSet::full(p.universe);
                        for &q in upstream.row(point) {
                            acc.intersect_with(&output[q as usize]);
                        }
                        acc
                    }
                    Confluence::May => {
                        let mut acc = BitSet::new(p.universe);
                        for &q in upstream.row(point) {
                            acc.union_with(&output[q as usize]);
                        }
                        acc
                    }
                }
            };
            changed |= input[point].copy_from(&merged);
            merged.difference_with(&p.kill[point]);
            merged.union_with(&p.gen[point]);
            changed |= output[point].copy_from(&merged);
        }
        if !changed {
            break;
        }
    }
    match p.direction {
        Direction::Forward => (input, output),
        Direction::Backward => (output, input),
    }
}

/// Strong liveness (Sec. 3) stated literally per point and solved
/// round-robin from ⊥: after a point, the union of its successors' entry
/// facts; before it, the fact after with the assigned variable removed and,
/// only when that variable was strongly live after the assignment, its
/// operands added; an `out` or a branch adds its operands. Returns the
/// entry and exit fact of each point.
pub fn reference_strong_liveness(pg: &PointGraph<'_>) -> (Vec<BitSet>, Vec<BitSet>) {
    let (n, vars) = (pg.len(), pg.graph().pool().len());
    let mut before = vec![BitSet::new(vars); n];
    let mut after = vec![BitSet::new(vars); n];
    loop {
        let mut changed = false;
        for p in pg.points() {
            let mut live = BitSet::new(vars);
            for &q in pg.succs().row(p.index()) {
                live.union_with(&before[q as usize]);
            }
            changed |= after[p.index()].copy_from(&live);
            match pg.instr(p) {
                Some(Instr::Assign { lhs, rhs }) => {
                    if live.contains(lhs.index()) {
                        live.remove(lhs.index());
                        rhs.for_each_var(|v| {
                            live.insert(v.index());
                        });
                    }
                }
                Some(instr @ (Instr::Out(_) | Instr::Branch(_))) => instr.for_each_use(|v| {
                    live.insert(v.index());
                }),
                Some(Instr::Skip) | None => {}
            }
            changed |= before[p.index()].copy_from(&live);
        }
        if !changed {
            break;
        }
    }
    (before, after)
}
