use std::fmt;

use crate::instr::Instr;
use crate::intern::{InstrId, InstrInterner, TermId};
use crate::term::Term;
use crate::text;
use crate::var::{Var, VarPool};

/// Identifier of a basic block (node) within a [`FlowGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The node's index into the graph's block vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A basic block: a straight-line sequence of instructions.
///
/// A block of a node with several successors contains exactly one
/// [`Instr::Branch`] (or none, in which case the branch is nondeterministic,
/// as in Sec. 2 of the paper). The branch instruction records the *decision
/// point*; instructions may legally follow it — they execute before control
/// transfers, which is how insertions "at the exit of a block" (Table 1's
/// `X-INSERT`) are represented.
///
/// A block holds the [`InstrId`]s of its instructions in the graph's
/// [`InstrInterner`] ([`FlowGraph::ids`]). The instructions are read
/// through [`FlowGraph::instrs`] and [`FlowGraph::instr`] and written
/// through the graph's named mutations ([`FlowGraph::push_instr`],
/// [`FlowGraph::set_block`], [`FlowGraph::set_ids`], ...), each of which
/// interns what it writes and gives the block a fresh
/// [write stamp](Self::stamp).
#[derive(Clone)]
pub struct Block {
    ids: Vec<InstrId>,
    stamp: u64,
}

impl Block {
    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the block contains no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The stamp of the graph write that last set this block's content
    /// (see [`FlowGraph::last_stamp`]): never 0, and moved by every write
    /// to the block and by nothing else, so equal stamps at two points in
    /// time mean the content did not change in between.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block").field("ids", &self.ids).finish()
    }
}

/// A location of an instruction: node plus index within the block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Loc {
    /// The node containing the instruction.
    pub node: NodeId,
    /// The instruction's index within the node's block.
    pub index: usize,
}

/// Structural problems reported by [`FlowGraph::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The start node has incoming edges.
    StartHasPreds,
    /// The end node has outgoing edges.
    EndHasSuccs,
    /// A node is not on any path from start to end.
    Unreachable(NodeId),
    /// A node with at most one successor contains a branch instruction.
    BranchInStraightNode(NodeId),
    /// A node contains more than one branch instruction.
    MultipleBranches(NodeId),
    /// An edge is duplicated.
    DuplicateEdge(NodeId, NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::StartHasPreds => write!(f, "start node has predecessors"),
            GraphError::EndHasSuccs => write!(f, "end node has successors"),
            GraphError::Unreachable(n) => {
                write!(f, "node {n:?} is not on a path from start to end")
            }
            GraphError::BranchInStraightNode(n) => {
                write!(f, "node {n:?} has a branch but at most one successor")
            }
            GraphError::MultipleBranches(n) => {
                write!(f, "node {n:?} has more than one branch instruction")
            }
            GraphError::DuplicateEdge(m, n) => write!(f, "duplicate edge {m:?} -> {n:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed flow graph `G = (N, E, s, e)` in the sense of Sec. 2.
///
/// Nodes are basic blocks; edges express the (possibly nondeterministic)
/// branching structure; `s` and `e` are the unique start and end node, which
/// have no predecessors and no successors respectively. Successor lists are
/// *ordered*: for a two-way branch, successor 0 is the "true" edge.
///
/// # Examples
///
/// ```
/// use am_ir::{FlowGraph, Instr, Loc, Term, BinOp};
///
/// let mut g = FlowGraph::new();
/// let s = g.add_node("s");
/// let n = g.add_node("1");
/// let e = g.add_node("e");
/// g.set_start(s);
/// g.set_end(e);
/// g.add_edge(s, n);
/// g.add_edge(n, e);
/// let a = g.pool_mut().intern("a");
/// let b = g.pool_mut().intern("b");
/// let x = g.pool_mut().intern("x");
/// g.push_instr(n, Instr::assign(x, Term::binary(BinOp::Add, a, b)));
/// assert!(g.validate().is_ok());
/// assert_eq!(g.instrs(n).len(), 1);
///
/// // Every write stamps the block it wrote; reads stamp nothing.
/// let stamp = g.block(n).stamp();
/// assert_eq!(g.instr(Loc { node: n, index: 0 }).def(), Some(x));
/// assert_eq!(g.block(n).stamp(), stamp);
/// g.retain_instrs(n, |_| true);
/// assert!(g.block(n).stamp() > stamp);
///
/// // Blocks hold interned ids: equal contents share one id.
/// g.push_instr(n, Instr::assign(x, Term::binary(BinOp::Add, a, b)));
/// let ids = g.ids(n);
/// assert_eq!(ids[0], ids[1]);
/// ```
#[derive(Clone)]
pub struct FlowGraph {
    pool: VarPool,
    /// Every instruction the graph's blocks were ever written with, once.
    /// Ids are never reused or forgotten, so the interner can hold
    /// contents no block holds any more.
    interner: InstrInterner,
    blocks: Vec<Block>,
    labels: Vec<String>,
    synthetic: Vec<bool>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    start: NodeId,
    end: NodeId,
    /// The last write stamp handed out ([`Self::last_stamp`]). Stamps
    /// record history, not value: equality ignores them.
    clock: u64,
    /// The stamp of the last edge, node-set or boundary write.
    edge_stamp: u64,
}

/// Graphs compare by content: two graphs that diverged from one clone
/// can give the same id to different instructions, so blocks compare
/// instruction by instruction, not id by id.
impl PartialEq for FlowGraph {
    fn eq(&self, other: &Self) -> bool {
        self.pool == other.pool
            && self.blocks.len() == other.blocks.len()
            && self.nodes().all(|n| self.instrs(n).eq(other.instrs(n)))
            && self.labels == other.labels
            && self.synthetic == other.synthetic
            && self.succs == other.succs
            && self.preds == other.preds
            && self.start == other.start
            && self.end == other.end
    }
}

impl Eq for FlowGraph {}

impl Default for FlowGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowGraph {
    /// Creates an empty graph. Set start and end before use.
    pub fn new() -> Self {
        FlowGraph::with_capacity(0)
    }

    /// Creates an empty graph whose interner has room for `instrs`
    /// distinct instructions.
    pub fn with_capacity(instrs: usize) -> Self {
        FlowGraph {
            pool: VarPool::new(),
            interner: InstrInterner::with_capacity(instrs),
            blocks: Vec::new(),
            labels: Vec::new(),
            synthetic: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            start: NodeId(0),
            end: NodeId(0),
            clock: 0,
            edge_stamp: 0,
        }
    }

    /// The newest write stamp. Every write to a block gives that block
    /// the next stamp ([`Block::stamp`]); every write to the edges, the
    /// node set or the start and end node gives the next one to
    /// [`Self::edge_stamp`]. Reads, [`Self::pool_mut`] and `clone` move
    /// no stamp, and a clone continues its original's stamps. So a caller
    /// that mirrors graph-derived data can tell in O(1) that nothing was
    /// written since it last looked (the same `last_stamp`), and
    /// otherwise which blocks were (a different [`Block::stamp`]).
    #[inline]
    pub fn last_stamp(&self) -> u64 {
        self.clock
    }

    /// The stamp of the last write to the edges, the node set or the
    /// start and end node.
    #[inline]
    pub fn edge_stamp(&self) -> u64 {
        self.edge_stamp
    }

    /// Hands out the next write stamp.
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Stamps an edge, node-set or boundary write.
    fn edges_written(&mut self) {
        self.edge_stamp = self.next_stamp();
    }

    /// Stamps block `n` as written and returns its ids, with the interner
    /// for the contents.
    fn write(&mut self, n: NodeId) -> (&mut Vec<InstrId>, &mut InstrInterner) {
        let stamp = self.next_stamp();
        let block = &mut self.blocks[n.index()];
        block.stamp = stamp;
        (&mut block.ids, &mut self.interner)
    }

    /// Adds an empty node with the given display label.
    pub fn add_node(&mut self, label: &str) -> NodeId {
        self.add_node_inner(label, false)
    }

    fn add_node_inner(&mut self, label: &str, synthetic: bool) -> NodeId {
        self.edges_written();
        let id = NodeId(u32::try_from(self.blocks.len()).expect("too many nodes"));
        let stamp = self.next_stamp();
        self.blocks.push(Block {
            ids: Vec::new(),
            stamp,
        });
        self.labels.push(label.to_owned());
        self.synthetic.push(synthetic);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds the edge `(m, n)`, appended to `m`'s ordered successor list.
    pub fn add_edge(&mut self, m: NodeId, n: NodeId) {
        self.edges_written();
        self.succs[m.index()].push(n);
        self.preds[n.index()].push(m);
    }

    /// Removes one occurrence of the edge `(m, n)`, preserving the order of
    /// the remaining successors. Returns whether the edge existed.
    ///
    /// The result may violate structural invariants (e.g. leave `n`
    /// unreachable) — callers probing reductions, like the `am-check`
    /// shrinker, should re-[`validate`](Self::validate).
    pub fn remove_edge(&mut self, m: NodeId, n: NodeId) -> bool {
        let Some(si) = self.succs[m.index()].iter().position(|&t| t == n) else {
            return false;
        };
        self.edges_written();
        self.succs[m.index()].remove(si);
        let pi = self.preds[n.index()]
            .iter()
            .position(|&p| p == m)
            .expect("edge lists out of sync");
        self.preds[n.index()].remove(pi);
        true
    }

    /// Returns a copy of the graph without node `n`, or `None` when `n` is
    /// the start or end node (those cannot be dropped).
    ///
    /// All edges incident to `n` are removed first; with `bridge`, every
    /// former predecessor is then connected to every former successor
    /// (skipping self-edges and edges that already exist). Node ids are
    /// renumbered; labels and the variable pool are preserved. The result
    /// can be structurally invalid — the delta-debugging shrinker probes
    /// candidates and keeps only those that re-[`validate`](Self::validate).
    pub fn without_node(&self, n: NodeId, bridge: bool) -> Option<FlowGraph> {
        if n == self.start || n == self.end {
            return None;
        }
        let mut g = self.clone();
        let preds: Vec<NodeId> = g.preds(n).iter().copied().filter(|&p| p != n).collect();
        let succs: Vec<NodeId> = g.succs(n).iter().copied().filter(|&s| s != n).collect();
        while let Some(&p) = g.preds[n.index()].first() {
            g.remove_edge(p, n);
        }
        while let Some(&s) = g.succs[n.index()].first() {
            g.remove_edge(n, s);
        }
        if bridge {
            for &p in &preds {
                for &s in &succs {
                    if !g.succs(p).contains(&s) {
                        g.add_edge(p, s);
                    }
                }
            }
        }
        Some(g.compacted(|m| m != n))
    }

    /// Rebuilds the graph keeping only nodes satisfying `keep` (which must
    /// hold for start and end and for every edge endpoint of a kept node).
    /// Node ids are renumbered densely in the original index order.
    fn compacted(&self, keep: impl Fn(NodeId) -> bool) -> FlowGraph {
        let kept: Vec<NodeId> = self.nodes().filter(|&n| keep(n)).collect();
        let mut out = FlowGraph::new();
        out.pool = self.pool.clone();
        out.interner = self.interner.clone();
        let mut map = vec![None; self.node_count()];
        for &n in &kept {
            let id = out.add_node_inner(self.label(n), self.is_synthetic(n));
            out.set_ids(id, self.ids(n));
            map[n.index()] = Some(id);
        }
        for &n in &kept {
            let from = map[n.index()].expect("kept");
            for &m in self.succs(n) {
                let to = map[m.index()].expect("successors of kept nodes are kept");
                out.add_edge(from, to);
            }
        }
        out.set_start(map[self.start.index()].expect("start kept"));
        out.set_end(map[self.end.index()].expect("end kept"));
        out
    }

    /// Declares `n` as the start node `s`.
    pub fn set_start(&mut self, n: NodeId) {
        self.edges_written();
        self.start = n;
    }

    /// Declares `n` as the end node `e`.
    pub fn set_end(&mut self, n: NodeId) {
        self.edges_written();
        self.end = n;
    }

    /// The start node.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The end node.
    pub fn end(&self) -> NodeId {
        self.end
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of instructions over all blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.blocks.len() as u32).map(NodeId)
    }

    /// Ordered successors of `n`.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n.index()]
    }

    /// Predecessors of `n`.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n.index()]
    }

    /// The block of `n`.
    #[inline]
    pub fn block(&self, n: NodeId) -> &Block {
        &self.blocks[n.index()]
    }

    /// The instructions of block `n`, in order.
    #[inline]
    pub fn instrs(
        &self,
        n: NodeId,
    ) -> impl ExactSizeIterator<Item = &Instr> + DoubleEndedIterator + Clone + '_ {
        self.ids(n).iter().map(|&id| self.interner.instr(id))
    }

    /// The interned ids of block `n`'s instructions, in order.
    #[inline]
    pub fn ids(&self, n: NodeId) -> &[InstrId] {
        &self.blocks[n.index()].ids
    }

    /// The instruction at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds.
    #[inline]
    pub fn instr(&self, loc: Loc) -> &Instr {
        self.interner.instr(self.ids(loc.node)[loc.index])
    }

    /// The interner the blocks' ids index. Within one graph, two ids are
    /// equal exactly when their instructions are.
    #[inline]
    pub fn interner(&self) -> &InstrInterner {
        &self.interner
    }

    /// Interns `instr` without writing any block, for a caller that
    /// composes blocks of ids ([`Self::set_ids`]).
    pub fn intern(&mut self, instr: Instr) -> InstrId {
        self.interner.intern_owned(instr).0
    }

    /// The id of `term` in the interner's term arena, interned on demand
    /// ([`InstrInterner::intern_term`]).
    pub fn intern_term(&mut self, term: Term) -> TermId {
        self.interner.intern_term(term)
    }

    /// Appends `instr` to block `n`.
    pub fn push_instr(&mut self, n: NodeId, instr: Instr) {
        let (ids, interner) = self.write(n);
        ids.push(interner.intern_owned(instr).0);
    }

    /// Inserts `instr` at `loc`, shifting the instructions from there on.
    ///
    /// # Panics
    ///
    /// Panics if `loc.index` exceeds the block's length.
    pub fn insert_instr(&mut self, loc: Loc, instr: Instr) {
        let (ids, interner) = self.write(loc.node);
        ids.insert(loc.index, interner.intern_owned(instr).0);
    }

    /// Removes the instruction at `loc` and returns a copy of it (the
    /// interner keeps the original).
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds.
    pub fn remove_instr(&mut self, loc: Loc) -> Instr {
        let (ids, interner) = self.write(loc.node);
        interner.instr(ids.remove(loc.index)).clone()
    }

    /// Replaces the instruction at `loc` with `instr`, returning a copy of
    /// the old one.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of bounds.
    pub fn replace_instr(&mut self, loc: Loc, instr: Instr) -> Instr {
        let (ids, interner) = self.write(loc.node);
        let new = interner.intern_owned(instr).0;
        interner
            .instr(std::mem::replace(&mut ids[loc.index], new))
            .clone()
    }

    /// Keeps the instructions of block `n` for which `keep` holds, in
    /// order.
    pub fn retain_instrs(&mut self, n: NodeId, mut keep: impl FnMut(&Instr) -> bool) {
        let (ids, interner) = self.write(n);
        ids.retain(|&id| keep(interner.instr(id)));
    }

    /// Empties block `n` and returns copies of its instructions.
    pub fn take_block(&mut self, n: NodeId) -> Vec<Instr> {
        let (ids, interner) = self.write(n);
        let instrs = ids.iter().map(|&id| interner.instr(id).clone()).collect();
        ids.clear();
        instrs
    }

    /// Replaces the instructions of block `n` with `instrs`, interning
    /// each.
    pub fn set_block(&mut self, n: NodeId, instrs: Vec<Instr>) {
        self.fill_block(n, instrs);
    }

    /// [`Self::set_block`] from any instructions, for a caller that drains
    /// a buffer it keeps.
    pub(crate) fn fill_block(&mut self, n: NodeId, instrs: impl IntoIterator<Item = Instr>) {
        let (ids, interner) = self.write(n);
        ids.clear();
        ids.extend(
            instrs
                .into_iter()
                .map(|instr| interner.intern_owned(instr).0),
        );
    }

    /// Replaces the ids of block `n` with `new`, in the block's own
    /// allocation. When it must grow, it grows to twice the new length,
    /// so that later rewrites adding a few instructions fit.
    ///
    /// # Panics
    ///
    /// Panics if an id is not one of this graph's interner.
    pub fn set_ids(&mut self, n: NodeId, new: &[InstrId]) {
        let (ids, interner) = self.write(n);
        assert!(
            new.iter().all(|id| id.index() < interner.len()),
            "ids of another graph's interner"
        );
        ids.clear();
        if new.len() > ids.capacity() {
            ids.reserve_exact(2 * new.len());
        }
        ids.extend_from_slice(new);
    }

    /// The display label of `n`.
    pub fn label(&self, n: NodeId) -> &str {
        &self.labels[n.index()]
    }

    /// Whether `n` was introduced by critical-edge splitting.
    pub fn is_synthetic(&self, n: NodeId) -> bool {
        self.synthetic[n.index()]
    }

    /// The graph's variable pool.
    pub fn pool(&self) -> &VarPool {
        &self.pool
    }

    /// Mutable access to the variable pool.
    pub fn pool_mut(&mut self) -> &mut VarPool {
        &mut self.pool
    }

    /// The unique temporary `h_ε` associated with the non-trivial term `ε`
    /// (Sec. 2: "every expression pattern ε is associated with a unique
    /// temporary h_ε").
    ///
    /// # Panics
    ///
    /// Panics if `term` is trivial.
    pub fn temp_for(&mut self, term: Term) -> Var {
        assert!(
            term.is_nontrivial(),
            "only non-trivial terms own temporaries"
        );
        // The name is rendered on the stack: looking up a temporary that
        // exists (every call after the first for a term) allocates nothing.
        let mut name = NameBuf::default();
        name.push_str("h<");
        text::write_term(&mut name, term, &mut text::source_names(&self.pool))
            .expect(text::INFALLIBLE);
        name.push_str(">");
        self.pool.intern_temp(name.as_str())
    }

    /// Iterates over `(Loc, &Instr)` pairs of all instructions in node/index
    /// order.
    pub fn locs(&self) -> impl Iterator<Item = (Loc, &Instr)> {
        self.nodes().flat_map(move |node| {
            (self.ids(node).iter().enumerate())
                .map(move |(index, &id)| (Loc { node, index }, self.interner.instr(id)))
        })
    }

    /// Whether the edge `(m, n)` is critical: `m` has several successors and
    /// `n` several predecessors (Sec. 2.1).
    pub fn is_critical_edge(&self, m: NodeId, n: NodeId) -> bool {
        self.succs(m).len() > 1 && self.preds(n).len() > 1
    }

    /// Splits every critical edge by inserting a synthetic node (Fig. 10),
    /// returning the number of edges split. Code motion requires this
    /// normalization; all transformation entry points call it implicitly.
    pub fn split_critical_edges(&mut self) -> usize {
        let mut split = 0;
        for m in 0..self.blocks.len() {
            let m = NodeId(m as u32);
            for si in 0..self.succs[m.index()].len() {
                let n = self.succs[m.index()][si];
                if self.is_critical_edge(m, n) {
                    let label = format!("S{},{}", self.labels[m.index()], self.labels[n.index()]);
                    let synth = self.add_node_inner(&label, true);
                    // Redirect m's si-th successor to the synthetic node,
                    // preserving successor order (branch decisions).
                    self.succs[m.index()][si] = synth;
                    let pred_slot = self.preds[n.index()]
                        .iter()
                        .position(|&p| p == m)
                        .expect("edge lists out of sync");
                    self.preds[n.index()][pred_slot] = synth;
                    self.succs[synth.index()].push(n);
                    self.preds[synth.index()].push(m);
                    self.edges_written();
                    split += 1;
                }
            }
        }
        split
    }

    /// Checks the structural invariants of Sec. 2 and the branch-placement
    /// rules.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: start/end degree rules, every
    /// node on an `s`–`e` path, branch instructions only in multi-successor
    /// nodes and at most one per node, no duplicate edges.
    pub fn validate(&self) -> Result<(), GraphError> {
        if !self.preds(self.start).is_empty() {
            return Err(GraphError::StartHasPreds);
        }
        if !self.succs(self.end).is_empty() {
            return Err(GraphError::EndHasSuccs);
        }
        let reach_fwd = self.reachable_from(self.start, false);
        let reach_bwd = self.reachable_from(self.end, true);
        // `seen_from[m]` is the last node found to have `m` as a successor,
        // so each edge is checked once: O(edges) on any fan-out.
        let mut seen_from: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for n in self.nodes() {
            if !(reach_fwd[n.index()] && reach_bwd[n.index()]) {
                return Err(GraphError::Unreachable(n));
            }
            let branches = self
                .instrs(n)
                .filter(|i| matches!(i, Instr::Branch(_)))
                .count();
            if branches > 1 {
                return Err(GraphError::MultipleBranches(n));
            }
            if branches == 1 && self.succs(n).len() <= 1 {
                return Err(GraphError::BranchInStraightNode(n));
            }
            for &m in self.succs(n) {
                if seen_from[m.index()].replace(n) == Some(n) {
                    return Err(GraphError::DuplicateEdge(n, m));
                }
            }
        }
        Ok(())
    }

    fn reachable_from(&self, origin: NodeId, backward: bool) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![origin];
        seen[origin.index()] = true;
        while let Some(n) = stack.pop() {
            let nexts = if backward {
                self.preds(n)
            } else {
                self.succs(n)
            };
            for &m in nexts {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    stack.push(m);
                }
            }
        }
        seen
    }
}

impl fmt::Debug for FlowGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FlowGraph(start={:?}, end={:?})", self.start, self.end)?;
        for n in self.nodes() {
            let succs: Vec<_> = self.succs(n).iter().map(|m| self.label(*m)).collect();
            writeln!(f, "  node {} -> [{}]", self.label(n), succs.join(", "))?;
            for instr in self.instrs(n) {
                writeln!(f, "    {}", instr.display(&self.pool))?;
            }
        }
        Ok(())
    }
}

/// A temporary's name under construction: on the stack while it fits,
/// on the heap past that.
struct NameBuf {
    len: usize,
    bytes: [u8; 64],
    spill: Option<String>,
}

impl Default for NameBuf {
    fn default() -> Self {
        NameBuf {
            len: 0,
            bytes: [0; 64],
            spill: None,
        }
    }
}

impl NameBuf {
    fn push_str(&mut self, s: &str) {
        if let Some(spill) = &mut self.spill {
            spill.push_str(s);
        } else if let Some(room) = self.bytes.get_mut(self.len..self.len + s.len()) {
            room.copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            let mut spill = String::with_capacity(2 * (self.len + s.len()));
            spill.push_str(self.as_str());
            spill.push_str(s);
            self.spill = Some(spill);
        }
    }

    fn as_str(&self) -> &str {
        match &self.spill {
            Some(spill) => spill,
            // Only whole `&str`s are copied in, so the prefix is UTF-8.
            None => std::str::from_utf8(&self.bytes[..self.len]).expect("whole strings copied in"),
        }
    }
}

impl fmt::Write for NameBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::BinOp;

    fn diamond() -> (FlowGraph, [NodeId; 4]) {
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let l = g.add_node("l");
        let r = g.add_node("r");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, l);
        g.add_edge(s, r);
        g.add_edge(l, e);
        g.add_edge(r, e);
        (g, [s, l, r, e])
    }

    #[test]
    fn diamond_is_valid() {
        let (g, _) = diamond();
        assert_eq!(g.validate(), Ok(()));
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn start_with_preds_is_invalid() {
        let (mut g, [s, l, ..]) = diamond();
        g.add_edge(l, s);
        assert_eq!(g.validate(), Err(GraphError::StartHasPreds));
    }

    #[test]
    fn unreachable_node_is_invalid() {
        let (mut g, _) = diamond();
        g.add_node("island");
        assert!(matches!(g.validate(), Err(GraphError::Unreachable(_))));
    }

    #[test]
    fn node_not_reaching_end_is_invalid() {
        let (mut g, [s, ..]) = diamond();
        let dead = g.add_node("dead");
        g.add_edge(s, dead);
        assert!(matches!(g.validate(), Err(GraphError::Unreachable(n)) if n == dead));
    }

    /// `s -> b0..b{width-1} -> e`.
    fn fan(width: usize) -> (FlowGraph, NodeId, Vec<NodeId>) {
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let leaves: Vec<NodeId> = (0..width).map(|i| g.add_node(&format!("b{i}"))).collect();
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        for &b in &leaves {
            g.add_edge(s, b);
            g.add_edge(b, e);
        }
        (g, s, leaves)
    }

    #[test]
    fn wide_fans_validate_and_name_a_duplicate_edge() {
        let (mut g, s, leaves) = fan(10_000);
        assert_eq!(g.validate(), Ok(()));
        g.add_edge(s, leaves[6_789]);
        assert_eq!(
            g.validate(),
            Err(GraphError::DuplicateEdge(s, leaves[6_789]))
        );
    }

    #[test]
    fn identical_successor_lists_are_not_duplicates() {
        // Both arms branch to the same two nodes, in the same order.
        let mut g = FlowGraph::new();
        let [s, a, b, x, y, e] = ["s", "a", "b", "x", "y", "e"].map(|l| g.add_node(l));
        g.set_start(s);
        g.set_end(e);
        for (from, to) in [
            (s, a),
            (s, b),
            (a, x),
            (a, y),
            (b, x),
            (b, y),
            (x, e),
            (y, e),
        ] {
            g.add_edge(from, to);
        }
        assert_eq!(g.validate(), Ok(()));
        g.add_edge(b, x);
        assert_eq!(g.validate(), Err(GraphError::DuplicateEdge(b, x)));
    }

    #[test]
    fn branch_rules_are_checked() {
        let (mut g, [s, l, ..]) = diamond();
        let x = g.pool_mut().intern("x");
        g.push_instr(l, Instr::Branch(crate::instr::Cond::truthy(x)));
        assert_eq!(g.validate(), Err(GraphError::BranchInStraightNode(l)));
        g.set_block(l, Vec::new());
        g.push_instr(s, Instr::Branch(crate::instr::Cond::truthy(x)));
        assert_eq!(g.validate(), Ok(()));
        g.push_instr(s, Instr::Branch(crate::instr::Cond::truthy(x)));
        assert_eq!(g.validate(), Err(GraphError::MultipleBranches(s)));
    }

    #[test]
    fn critical_edge_detection_and_splitting() {
        // Fig. 10: node 1 -> 3, node 2 -> {3, elsewhere}; edge (2,3) critical.
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let n1 = g.add_node("1");
        let n2 = g.add_node("2");
        let n3 = g.add_node("3");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, n1);
        g.add_edge(s, n2);
        g.add_edge(n1, n3);
        g.add_edge(n2, n3);
        g.add_edge(n2, e);
        g.add_edge(n3, e);
        assert!(g.is_critical_edge(n2, n3));
        assert!(g.is_critical_edge(n2, e)); // e also has two predecessors
        assert!(!g.is_critical_edge(n1, n3));
        let count = g.split_critical_edges();
        assert_eq!(count, 2);
        assert_eq!(g.validate(), Ok(()));
        // n2's first successor is now a synthetic node leading to n3.
        let synth = g.succs(n2)[0];
        assert!(g.is_synthetic(synth));
        assert_eq!(g.succs(synth), [n3]);
        assert_eq!(g.label(synth), "S2,3");
        // No critical edges remain.
        for m in g.nodes() {
            for &n in g.succs(m) {
                assert!(!g.is_critical_edge(m, n));
            }
        }
    }

    #[test]
    fn splitting_preserves_successor_order() {
        let (mut g, [s, l, r, e]) = diamond();
        // Make both diamond edges into critical ones by adding a second
        // entry into l and r.
        let m = g.add_node("m");
        g.add_edge(s, m);
        g.add_edge(m, l);
        g.add_edge(m, r);
        // Avoid duplicate-edge complaints; m joins both sides.
        assert_eq!(g.validate(), Ok(()));
        let order_before: Vec<_> = g.succs(s).to_vec();
        g.split_critical_edges();
        assert_eq!(g.validate(), Ok(()));
        // Successor count and the targets' ultimate destinations preserved.
        assert_eq!(g.succs(s).len(), order_before.len());
        let dest = |g: &FlowGraph, n: NodeId| -> NodeId {
            if g.is_synthetic(n) {
                g.succs(n)[0]
            } else {
                n
            }
        };
        assert_eq!(dest(&g, g.succs(s)[0]), l);
        assert_eq!(dest(&g, g.succs(s)[1]), r);
        assert_eq!(dest(&g, g.succs(s)[2]), m);
        let _ = e;
    }

    #[test]
    fn remove_edge_preserves_order_and_reports_absence() {
        let (mut g, [s, l, r, e]) = diamond();
        assert!(g.remove_edge(s, l));
        assert_eq!(g.succs(s), [r]);
        assert_eq!(g.preds(l), []);
        assert!(!g.remove_edge(s, l), "already gone");
        // l is now unreachable: the graph no longer validates.
        assert!(matches!(g.validate(), Err(GraphError::Unreachable(n)) if n == l));
        let _ = e;
    }

    #[test]
    fn without_node_refuses_start_and_end() {
        let (g, [s, l, _, e]) = diamond();
        assert!(g.without_node(s, true).is_none());
        assert!(g.without_node(e, true).is_none());
        assert!(g.without_node(l, false).is_some());
    }

    #[test]
    fn without_node_bridges_and_renumbers() {
        // Dropping a diamond arm without bridging still validates (the
        // other arm remains); ids are renumbered densely.
        let (g, [_, l, r, _]) = diamond();
        let cut = g.without_node(l, false).unwrap();
        assert_eq!(cut.node_count(), 3);
        assert_eq!(cut.validate(), Ok(()));
        // Dropping a node on the only path requires the bridge.
        let mut chain = FlowGraph::new();
        let s = chain.add_node("s");
        let m = chain.add_node("m");
        let e = chain.add_node("e");
        chain.set_start(s);
        chain.set_end(e);
        chain.add_edge(s, m);
        chain.add_edge(m, e);
        let x = chain.pool_mut().intern("x");
        chain.push_instr(m, Instr::assign(x, 1));
        let unbridged = chain.without_node(m, false).unwrap();
        assert!(unbridged.validate().is_err(), "end became unreachable");
        let bridged = chain.without_node(m, true).unwrap();
        assert_eq!(bridged.validate(), Ok(()));
        assert_eq!(bridged.node_count(), 2);
        assert_eq!(bridged.succs(bridged.start()), [bridged.end()]);
        assert_eq!(bridged.instr_count(), 0, "m's block went with it");
        let _ = r;
    }

    #[test]
    fn without_node_handles_self_loops_and_duplicate_bridges() {
        // m has a self-loop and its pred already reaches its succ: the
        // bridge must not duplicate the existing edge or recreate the loop.
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let m = g.add_node("m");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, m);
        g.add_edge(s, e);
        g.add_edge(m, m);
        g.add_edge(m, e);
        let cut = g.without_node(m, true).unwrap();
        assert_eq!(cut.node_count(), 2);
        assert_eq!(cut.validate(), Ok(()));
        assert_eq!(cut.succs(cut.start()), [cut.end()]);
    }

    #[test]
    fn temp_for_is_stable() {
        let mut g = FlowGraph::new();
        let a = g.pool_mut().intern("a");
        let b = g.pool_mut().intern("b");
        let t = Term::binary(BinOp::Add, a, b);
        let h1 = g.temp_for(t);
        let h2 = g.temp_for(t);
        assert_eq!(h1, h2);
        assert!(g.pool().is_temp(h1));
        let other = g.temp_for(Term::binary(BinOp::Mul, a, b));
        assert_ne!(h1, other);
    }

    #[test]
    #[should_panic(expected = "non-trivial")]
    fn temp_for_trivial_panics() {
        let mut g = FlowGraph::new();
        let a = g.pool_mut().intern("a");
        g.temp_for(Term::operand(a));
    }

    #[test]
    fn locs_iterate_in_order() {
        let (mut g, [s, l, ..]) = diamond();
        let x = g.pool_mut().intern("x");
        g.push_instr(s, Instr::assign(x, 1));
        g.push_instr(l, Instr::assign(x, 2));
        let locs: Vec<_> = g.locs().map(|(l, _)| l).collect();
        assert_eq!(
            locs,
            vec![Loc { node: s, index: 0 }, Loc { node: l, index: 0 }]
        );
        assert_eq!(g.instr_count(), 2);
    }

    fn stamps(g: &FlowGraph) -> Vec<u64> {
        g.nodes().map(|n| g.block(n).stamp()).collect()
    }

    type Write = Box<dyn Fn(&mut FlowGraph)>;

    #[test]
    fn a_write_moves_exactly_the_written_blocks_stamp() {
        let (mut g, [_, l, ..]) = diamond();
        let x = g.pool_mut().intern("x");
        let at = move |index| Loc { node: l, index };
        let writes: Vec<Write> = vec![
            Box::new(move |g| g.push_instr(l, Instr::assign(x, 1))),
            Box::new(move |g| g.insert_instr(at(0), Instr::assign(x, 2))),
            Box::new(move |g| {
                g.replace_instr(at(1), Instr::Skip);
            }),
            Box::new(move |g| {
                g.remove_instr(at(0));
            }),
            Box::new(move |g| g.retain_instrs(l, |_| true)),
            Box::new(move |g| {
                let instrs = g.take_block(l);
                g.set_block(l, instrs);
            }),
        ];
        for (w, write) in writes.iter().enumerate() {
            let (before, edges, last) = (stamps(&g), g.edge_stamp(), g.last_stamp());
            write(&mut g);
            let after = stamps(&g);
            for n in g.nodes() {
                let (old, new) = (before[n.index()], after[n.index()]);
                if n == l {
                    assert!(new > old, "write {w}: {n:?} kept its stamp");
                } else {
                    assert_eq!(new, old, "write {w}: {n:?} was not written");
                }
            }
            assert!(g.last_stamp() > last, "write {w}");
            assert_eq!(after[l.index()], g.last_stamp(), "write {w}");
            assert_eq!(g.edge_stamp(), edges, "write {w}");
        }
        assert_eq!(g.instrs(l).collect::<Vec<_>>(), [&Instr::Skip]);
    }

    #[test]
    fn reads_and_clones_move_no_stamp() {
        let (mut g, [s, l, ..]) = diamond();
        let x = g.pool_mut().intern("x");
        g.push_instr(s, Instr::assign(x, 1));
        let state = |g: &FlowGraph| (stamps(g), g.edge_stamp(), g.last_stamp());
        let before = state(&g);
        assert!(before.0.iter().all(|&stamp| stamp > 0), "{before:?}");
        let mut distinct = before.0.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), g.node_count(), "stamps are unique");
        assert_eq!(g.instrs(s).count(), 1);
        assert_eq!(g.instr(Loc { node: s, index: 0 }).def(), Some(x));
        assert!(g.block(l).is_empty());
        assert_eq!(g.locs().count(), 1);
        assert_eq!(g.validate(), Ok(()));
        let _ = format!("{g:?}");
        g.pool_mut().intern("y");
        let copy = g.clone();
        assert_eq!(state(&g), before);
        assert_eq!(state(&copy), before);
        assert_eq!(copy, g);
    }

    #[test]
    fn edge_and_boundary_edits_move_the_edge_stamp() {
        let (mut g, [s, l, r, e]) = diamond();
        let edits: Vec<Write> = vec![
            Box::new(move |g| g.add_edge(l, r)),
            Box::new(|g| assert!(g.split_critical_edges() > 0)),
            Box::new(move |g| assert!(g.remove_edge(s, l))),
            Box::new(move |g| g.set_start(s)),
            Box::new(move |g| g.set_end(e)),
            Box::new(|g| {
                g.add_node("island");
            }),
        ];
        for (i, edit) in edits.iter().enumerate() {
            let (before, edges) = (stamps(&g), g.edge_stamp());
            edit(&mut g);
            assert!(g.edge_stamp() > edges, "edit {i}");
            assert!(g.last_stamp() >= g.edge_stamp(), "edit {i}");
            assert_eq!(stamps(&g)[..before.len()], before, "edit {i}");
        }
        let last = g.last_stamp();
        assert!(!g.remove_edge(l, s), "no such edge");
        assert_eq!(g.last_stamp(), last, "nothing was written");
    }
}

impl FlowGraph {
    /// Returns a copy of `g` with contractible synthetic nodes removed.
    ///
    /// Edge splitting introduces synthetic nodes (Sec. 2.1); after
    /// optimization many remain empty. A synthetic node with an empty
    /// block, one predecessor and one successor is contracted when the
    /// bypassing edge would be neither critical nor a duplicate — i.e.
    /// when the node no longer serves its purpose. The result is a fresh
    /// graph (node ids are renumbered); labels and the variable pool are
    /// preserved.
    pub fn simplified(&self) -> FlowGraph {
        let mut g = self.clone();
        // Phase 1: rewire contractible synthetic nodes out of the way.
        loop {
            let candidate = g.nodes().find(|&n| {
                g.is_synthetic(n)
                    && g.block(n).is_empty()
                    && g.preds(n).len() == 1
                    && g.succs(n).len() == 1
                    && {
                        let p = g.preds(n)[0];
                        let s = g.succs(n)[0];
                        p != n
                            && s != n
                            && !g.succs(p).contains(&s) // no duplicate edge
                            // The bypass edge must not be critical.
                            && !(g.succs(p).len() > 1 && g.preds(s).len() > 1)
                    }
            });
            let Some(n) = candidate else { break };
            let p = g.preds(n)[0];
            let s = g.succs(n)[0];
            let slot = g.succs[p.index()]
                .iter()
                .position(|&m| m == n)
                .expect("edge lists in sync");
            g.succs[p.index()][slot] = s;
            let pslot = g.preds[s.index()]
                .iter()
                .position(|&m| m == n)
                .expect("edge lists in sync");
            g.preds[s.index()][pslot] = p;
            g.succs[n.index()].clear();
            g.preds[n.index()].clear();
            g.edges_written();
        }
        // Phase 2: compact, dropping now-disconnected nodes.
        g.compacted(|n| {
            n == g.start() || n == g.end() || !g.preds(n).is_empty() || !g.succs(n).is_empty()
        })
    }
}

#[cfg(test)]
mod simplify_tests {
    use super::*;
    use crate::text::{parse, to_text};

    #[test]
    fn contracts_bypassable_synthetic_nodes() {
        // A synthetic pass-through node on a straight edge (not breaking
        // any critical edge) is contracted away.
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let synth = g.add_node_inner("S", true);
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, synth);
        g.add_edge(synth, e);
        let x = g.pool_mut().intern("x");
        g.push_instr(s, Instr::assign(x, 1));
        g.push_instr(e, Instr::Out(vec![x.into()]));
        assert_eq!(g.validate(), Ok(()));
        let simplified = g.simplified();
        assert_eq!(simplified.node_count(), 2);
        assert_eq!(simplified.validate(), Ok(()));
        assert_eq!(simplified.succs(simplified.start()), [simplified.end()]);
    }

    #[test]
    fn split_edge_synthetics_on_critical_edges_are_never_contracted() {
        // The synthetic node created by splitting still breaks the
        // critical edge; contracting it would recreate the edge.
        let mut g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node a { x := 1 }\n\
             node e { out(x) }\n\
             edge s -> a, e\nedge a -> e",
        )
        .unwrap();
        let before_nodes = g.node_count();
        g.split_critical_edges(); // splits s -> e
        assert_eq!(g.node_count(), before_nodes + 1);
        let simplified = g.simplified();
        assert_eq!(simplified.node_count(), before_nodes + 1);
        let _ = to_text(&simplified);
        for m in simplified.nodes() {
            for &n in simplified.succs(m) {
                assert!(!simplified.is_critical_edge(m, n));
            }
        }
    }

    #[test]
    fn keeps_synthetic_nodes_with_content() {
        let mut g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node a { x := 1 }\n\
             node e { out(x) }\n\
             edge s -> a, e\nedge a -> e",
        )
        .unwrap();
        g.split_critical_edges();
        let synth = g.nodes().find(|&n| g.is_synthetic(n)).unwrap();
        let x = g.pool().lookup("x").unwrap();
        g.push_instr(synth, Instr::assign(x, 7));
        let simplified = g.simplified();
        assert_eq!(
            simplified.node_count(),
            g.node_count(),
            "nothing contracted"
        );
        assert_eq!(simplified.validate(), Ok(()));
    }

    #[test]
    fn keeps_synthetic_nodes_that_still_break_critical_edges() {
        // Both outgoing edges of the branch land on join nodes: the
        // synthetic nodes are still load-bearing.
        let mut g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node a { skip }\n\
             node j { x := 1 }\n\
             node e { out(x) }\n\
             edge s -> a, j\nedge a -> j\nedge j -> e",
        )
        .unwrap();
        let split = g.split_critical_edges();
        assert_eq!(split, 1);
        let simplified = g.simplified();
        assert_eq!(simplified.node_count(), g.node_count());
        assert_eq!(simplified.validate(), Ok(()));
    }

    #[test]
    fn simplified_preserves_semantics() {
        use crate::interp::{run, Config, Oracle};
        let mut g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node a { x := 1 }\n\
             node e { out(x,p) }\n\
             edge s -> a, e\nedge a -> e",
        )
        .unwrap();
        g.split_critical_edges();
        let simplified = g.simplified();
        for d in [0usize, 1] {
            let cfg = Config {
                oracle: Oracle::Fixed(vec![d]),
                inputs: vec![("p".into(), 5)],
                ..Config::default()
            };
            assert_eq!(
                run(&g, &cfg).observable(),
                run(&simplified, &cfg).observable()
            );
        }
    }
}
