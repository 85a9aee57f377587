//! Instruction-level program points.
//!
//! Tables 2 and 3 of the paper specify their analyses "at the instruction
//! level": each instruction ι has an entry fact `N-…_ι` and an exit fact
//! `X-…_ι`, with `pred(ι)`/`succ(ι)` ranging over adjacent instructions,
//! across block boundaries at block edges. [`PointGraph`] materializes this
//! view: one point per instruction, plus one virtual *pass-through* point
//! per empty block so that facts still propagate through blocks without
//! instructions (synthetic nodes from edge splitting are initially empty).

use am_ir::{FlowGraph, Instr, Loc, NodeId};

use crate::adjacency::Adjacency;
use crate::solve::Schedule;

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
    node_of: Vec<NodeId>,
    first_of: Vec<PointId>,
    last_of: Vec<PointId>,
    preds: Adjacency,
    succs: Adjacency,
    schedule: Schedule,
}

impl<'g> PointGraph<'g> {
    /// Builds the point graph of `g`.
    pub fn build(g: &'g FlowGraph) -> Self {
        let mut locs = Vec::new();
        let mut node_of = Vec::new();
        let mut first_of = Vec::with_capacity(g.node_count());
        let mut last_of = Vec::with_capacity(g.node_count());
        for n in g.nodes() {
            let len = g.block(n).len();
            let first = PointId(locs.len() as u32);
            if len == 0 {
                locs.push(None);
                node_of.push(n);
            } else {
                for index in 0..len {
                    locs.push(Some(Loc { node: n, index }));
                    node_of.push(n);
                }
            }
            let last = PointId(locs.len() as u32 - 1);
            first_of.push(first);
            last_of.push(last);
        }
        let count = locs.len();
        // Every point's neighbor lists are known on sight — intra-block
        // chain plus block edges at the block boundary points — so both
        // CSR tables fill by pure append in point order: no per-point
        // allocation, no fill cursors.
        let mut succs = Adjacency::new();
        succs.reserve(count, count + count / 4);
        for n in g.nodes() {
            let first = first_of[n.index()].index();
            let last = last_of[n.index()].index();
            for p in first..last {
                succs.start_point();
                succs.push_neighbor(p as u32 + 1);
            }
            succs.start_point();
            for &m in g.succs(n) {
                succs.push_neighbor(first_of[m.index()].0);
            }
        }
        let mut preds = Adjacency::new();
        preds.reserve(count, succs.edge_count());
        for n in g.nodes() {
            let first = first_of[n.index()].index();
            let last = last_of[n.index()].index();
            preds.start_point();
            for &m in g.preds(n) {
                preds.push_neighbor(last_of[m.index()].0);
            }
            for p in first..last {
                preds.start_point();
                preds.push_neighbor(p as u32);
            }
        }
        let schedule = Schedule::build(&succs, &preds);
        PointGraph {
            graph: g,
            locs,
            node_of,
            first_of,
            last_of,
            preds,
            succs,
            schedule,
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

    /// Returns `true` if the graph has no points (impossible for valid
    /// graphs, which have at least start and end).
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
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

    /// The node containing `p`.
    pub fn node(&self, p: PointId) -> NodeId {
        self.node_of[p.index()]
    }

    /// First point of block `n`.
    pub fn first_of(&self, n: NodeId) -> PointId {
        self.first_of[n.index()]
    }

    /// Last point of block `n`.
    pub fn last_of(&self, n: NodeId) -> PointId {
        self.last_of[n.index()]
    }

    /// The entry point of the program: first point of the start node (the
    /// paper's "first instruction of s").
    pub fn entry(&self) -> PointId {
        self.first_of(self.graph.start())
    }

    /// The exit point of the program: last point of the end node.
    pub fn exit(&self) -> PointId {
        self.last_of(self.graph.end())
    }

    /// Predecessor point adjacency (shared with the solver).
    pub fn preds(&self) -> &Adjacency {
        &self.preds
    }

    /// Successor point adjacency (shared with the solver).
    pub fn succs(&self) -> &Adjacency {
        &self.succs
    }

    /// Iterates over all points.
    pub fn points(&self) -> impl Iterator<Item = PointId> {
        (0..self.locs.len() as u32).map(PointId)
    }

    /// The priority schedule of this point set, computed once at build
    /// time; pass to [`solve_scheduled`](crate::solve_scheduled) to avoid
    /// re-deriving traversal orders per solve.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::parse;

    fn g() -> FlowGraph {
        parse(
            "start s\nend e\n\
             node s { a := 1; b := 2 }\n\
             node m { }\n\
             node e { out(a,b) }\n\
             edge s -> m\nedge m -> e",
        )
        .unwrap()
    }

    #[test]
    fn empty_blocks_get_virtual_points() {
        let g = g();
        let pg = PointGraph::build(&g);
        // 2 instrs in s, 1 virtual in m, 1 in e.
        assert_eq!(pg.len(), 4);
        let m = g.nodes().find(|&n| g.label(n) == "m").unwrap();
        let vp = pg.first_of(m);
        assert_eq!(vp, pg.last_of(m));
        assert!(pg.instr(vp).is_none());
        assert!(pg.loc(vp).is_none());
        assert_eq!(pg.node(vp), m);
    }

    #[test]
    fn adjacency_chains_through_blocks() {
        let g = g();
        let pg = PointGraph::build(&g);
        let entry = pg.entry();
        assert_eq!(entry.index(), 0);
        assert!(pg.preds()[entry.index()].is_empty());
        // s0 -> s1 -> m -> e0 (point ids follow node creation order).
        let m = g.nodes().find(|&n| g.label(n) == "m").unwrap();
        let m_pt = pg.first_of(m).index();
        let e_pt = pg.first_of(g.end()).index();
        assert_eq!(pg.succs()[0], [1]);
        assert_eq!(pg.succs()[1], [m_pt as u32]);
        assert_eq!(pg.succs()[m_pt], [e_pt as u32]);
        assert!(pg.succs()[e_pt].is_empty());
        assert_eq!(pg.exit().index(), e_pt);
        assert_eq!(pg.preds()[e_pt], [m_pt as u32]);
    }

    #[test]
    fn branch_fanout_in_points() {
        let g = parse(
            "start s\nend e\n\
             node s { branch x > 0 }\n\
             node a { x := 1 }\n\
             node b { x := 2 }\n\
             node e { out(x) }\n\
             edge s -> a, b\nedge a -> e\nedge b -> e",
        )
        .unwrap();
        let pg = PointGraph::build(&g);
        let s_last = pg.last_of(g.start());
        assert_eq!(pg.succs()[s_last.index()].len(), 2);
        let e_first = pg.first_of(g.end());
        assert_eq!(pg.preds()[e_first.index()].len(), 2);
    }

    #[test]
    fn instr_lookup_matches_blocks() {
        let g = g();
        let pg = PointGraph::build(&g);
        let p1 = PointId(1);
        let loc = pg.loc(p1).unwrap();
        assert_eq!(loc.index, 1);
        let instr = pg.instr(p1).unwrap();
        assert_eq!(instr.display(g.pool()), "b := 2");
    }
}

/// Block-level adjacency of a flow graph as dense index lists — the point
/// set for node-granularity analyses (Table 1 of the paper runs on whole
/// blocks rather than instructions).
pub fn node_adjacency(g: &FlowGraph) -> (Adjacency, Adjacency) {
    let mut succs = Adjacency::new();
    let mut preds = Adjacency::new();
    let edges = g.nodes().map(|n| g.succs(n).len()).sum();
    succs.reserve(g.node_count(), edges);
    preds.reserve(g.node_count(), edges);
    for n in g.nodes() {
        succs.start_point();
        for &m in g.succs(n) {
            succs.push_neighbor(m.index() as u32);
        }
        preds.start_point();
        for &m in g.preds(n) {
            preds.push_neighbor(m.index() as u32);
        }
    }
    (succs, preds)
}

#[cfg(test)]
mod node_adjacency_tests {
    use super::*;
    use am_ir::text::parse;

    #[test]
    fn mirrors_the_graph() {
        let g = parse(
            "start s\nend e\nnode s { branch p > 0 }\nnode a { skip }\nnode b { skip }\nnode e { out() }\nedge s -> a, b\nedge a -> e\nedge b -> e",
        )
        .unwrap();
        let (succs, preds) = node_adjacency(&g);
        assert_eq!(succs.len(), g.node_count());
        let s = g.start().index();
        assert_eq!(succs[s].len(), 2);
        assert!(preds[s].is_empty());
        let e = g.end().index();
        assert_eq!(preds[e].len(), 2);
        assert!(succs[e].is_empty());
    }
}
