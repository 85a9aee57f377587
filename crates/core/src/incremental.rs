//! Round-incremental state for the assignment-motion fixed point.
//!
//! Every round of [`assignment_motion`](crate::motion::assignment_motion)
//! re-solves the Table 1 and Table 2 systems on a program that usually
//! differs from the previous round in a handful of blocks. [`MotionContext`]
//! carries the parts that survive, and the work it does per round follows
//! what the round changed rather than the program size — the chains of
//! second-order effects that Sec. 4.5 ties the round count to. The tables
//! themselves are implemented once, in [`crate::rae`] and [`crate::hoist`],
//! against these caches; the one-shot entries there run the same code on a
//! fresh context. The global algorithm hands the context on to the final
//! flush ([`crate::flush`]), which reads the same ids and node system
//! instead of walking the program again.
//!
//! The context keeps no copy of the program. Blocks hold the ids of their
//! instructions in the graph's interner ([`FlowGraph::ids`],
//! [`FlowGraph::interner`]), which caches every instruction's hash; the
//! rewrites write ids into the graph ([`FlowGraph::set_ids`]).
//!
//! * **Pattern universe and masks** — numbered once, at the first sync, by
//!   a walk over the blocks' ids with a seen mark: the distinct
//!   instructions in first-occurrence order number the universe as a walk
//!   over every instruction would. The same walk ranks the ids; the rank,
//!   not the graph's id, is what provenance reports. The motion phase only
//!   *removes* occurrences and re-inserts instances of existing patterns,
//!   so the entry universe is a superset of every later round's universe
//!   and the per-bit independence of gen/kill systems makes the extra bits
//!   harmless. Two guards keep the results identical to a fresh-universe
//!   run: insertions are filtered to patterns that still occur, and
//!   same-point insertions are emitted in the current graph's
//!   first-occurrence order (the order a fresh universe would number
//!   them). A hook that injects a *new* pattern (fault injection) is
//!   detected when a sync first meets its id and triggers an in-place
//!   universe extension: existing pattern ids stay stable and the new
//!   patterns take the next free indices, so only the caches whose bitset
//!   width depends on the universe size are dropped.
//! * **Block hashes** — a hash per block composed from the interner's
//!   cached instruction hashes, and the graph's write stamp
//!   ([`am_ir::Block::stamp`]) of the content hashed. The graph stamps
//!   every block it writes, so one [`MotionContext::sync`] serves every
//!   case: after an O(1) check that nothing was written
//!   ([`FlowGraph::last_stamp`]) it re-hashes exactly the blocks whose
//!   stamp differs from the recorded one — all of them on the first sync,
//!   the ones a mutating round hook or an injected fault wrote after it —
//!   and never interns. The context's own rewrites re-hash the blocks they
//!   wrote and record the stamps the writes got: an elimination drops the
//!   removed occurrences, and the insertion step
//!   ([`MotionContext::apply_insertion_step`]) composes each rewritten
//!   block from the kept ids and the one instance id of every inserted
//!   pattern. The program fingerprint folds the per-block hashes into a
//!   position-keyed sum, so a changed block updates it in O(1) — the
//!   cached-hash idiom of hash-consed expression DAGs.
//! * **Gen/kill rows** — the Table 2 row and the Table 1 blocking row of
//!   every interned instruction, dense by id, and the node-level Table 2
//!   and Table 1 problem rows, candidates included, each tagged with the
//!   graph stamp of the block content it was built from. A round refills only
//!   the rows whose stamp is stale, from the block's ids alone; the
//!   `incremental/gen_kill_rows` trace counter reports reused and rebuilt
//!   rows per round, `incremental/dirty_blocks` and
//!   `incremental/identity_blocks` how many blocks the round rewrote and
//!   how many it moved code in without changing.
//! * **Quiet blocks** — per block, the stamp and solved entry fact of the
//!   last Table 2 stream that found no redundancy in it. A block with the
//!   same stamp and entry fact would stream the same empty result, so it
//!   is not streamed again; `incremental/rae_stream` counts the streamed
//!   and skipped occurrence blocks.
//! * **Node system** — the block adjacency and solver schedule shared by
//!   both tables, reused while the edge fingerprint is unchanged. The
//!   fingerprint is re-taken only when the graph's edge stamp moved (the
//!   motion rewrites never touch edges).
//! * **Previous hoist system** — when a round's Table 1 rows changed only
//!   monotonically downward (candidates lost, blockades gained), the
//!   backward must system is re-solved from the previous greatest solution
//!   with only the dirty nodes seeded ([`am_dfa::solve_seeded`]); the old
//!   solution is a post-fixed point of the lowered system, so the descent
//!   reaches the new greatest fixed point. Non-monotone changes fall back
//!   to a cold scheduled solve. A round whose hoist input has the same
//!   fingerprint as the previous round's (last elimination found nothing
//!   and the last hoist was a no-op) skips the solve outright. The warm
//!   solve continues the previous solution in place.
//! * **Round scratch** — occurrence ranks, dirty lists, elimination
//!   locations, block locals, the candidate buffers and the insertion
//!   step's pattern lists live here and are refilled each round, so a
//!   round that changes nothing allocates nothing.
//!
//! The final flush takes over the Table 2 and Table 1 problems and their
//! last solutions ([`MotionContext::take_solver_buffers`]) and reads the
//! node system.

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use am_bitset::BitSet;
use am_dfa::{
    node_adjacency, solve_scheduled, Adjacency, Confluence, Direction, PatternMasks, Problem,
    Schedule, Solution,
};
use am_ir::intern::{FxMapHasher, InstrId};
use am_ir::{AssignPattern, FlowGraph, Instr, Loc, NodeId, PatternUniverse};
use am_obs::ProvRecorder;
use am_trace::{Span, Tracer};

use crate::hoist::{blocking_row, BlockLocals, HoistAnalysis, HoistOutcome, Rewritten};
use crate::rae::{redundancy_row, unlisted, RaeOutcome, Row};

/// The node-level solver system shared by the redundancy and hoist passes
/// of every round with the same block edges: adjacency lists plus the
/// priority schedule, borrowed in place (never cloned).
pub(crate) struct NodeSystem {
    edge_hash: u64,
    pub(crate) succs: Adjacency,
    pub(crate) preds: Adjacency,
    pub(crate) schedule: Schedule,
}

/// State carried across assignment-motion rounds. The Table 2 and Table 1
/// drivers that read and fill these caches live with their tables
/// ([`crate::rae`], [`crate::hoist`]).
pub(crate) struct MotionContext {
    pub(crate) universe: Rc<PatternUniverse>,
    pub(crate) masks: PatternMasks,
    /// What the context knows of every id of the graph's interner it has
    /// seen in a block, dense by id (`None` for ids it has not seen).
    known: Vec<Option<Known>>,
    /// The rank the next id seen for the first time gets.
    next_rank: u32,
    /// The id of every assignment pattern's instance `v := t`, dense by
    /// pattern index: the one id the insertion step writes for each
    /// instance it inserts. Every pattern of the universe is collected
    /// from an instruction seen in the program, so each has its id.
    instance_of: Vec<Option<InstrId>>,
    /// Set when a block holds an assignment pattern the universe does not
    /// know (only possible through a mutating hook); consumed at the end
    /// of every sync.
    stale: bool,
    /// The graph's [`FlowGraph::last_stamp`] the block hashes below
    /// describe, `None` before the first sync.
    synced: Option<u64>,
    /// Cached hash of every block's content ([`block_hash`]).
    block_hashes: Vec<u64>,
    /// Per block, the graph's write stamp of the content hashed (0: none
    /// yet). A graph never hands out 0 or the same stamp twice, so a row
    /// tagged with a stamp is current exactly when the stamps match.
    pub(crate) block_stamps: Vec<u64>,
    /// The first stamp the current round's writes can carry; a block
    /// recorded with an older one is counted dirty when it is next
    /// recorded.
    round_stamp: u64,
    /// Position-keyed sum of the block hashes ([`slot_hash`]).
    block_sum: u64,
    /// Fingerprint of the edges and the boundary nodes ([`edge_hash`]),
    /// and the graph's edge stamp when it was taken.
    pub(crate) edge_hash: u64,
    edge_stamp: u64,
    /// Table 2 rows dense by interned instruction id. The interner hands
    /// out dense indices, so the row of an already-seen instruction is one
    /// bounds-checked array load.
    pub(crate) rae_rows: Vec<Option<Row>>,
    /// Table 1 blocking rows dense by interned instruction id
    /// ([`blocking_row`]).
    blocking_rows: Vec<Option<BitSet>>,
    /// The node-level Table 2 problem, which blocks hold an occurrence of
    /// their own pattern, and the block stamp every row was built from.
    pub(crate) rae_problem: Option<Problem>,
    pub(crate) rae_occurs: Vec<bool>,
    pub(crate) rae_stamps: Vec<u64>,
    /// Detached fact buffers of the previous Table 2 solve, recycled into
    /// the next one (the facts themselves are reinitialized).
    pub(crate) rae_solution: Option<Solution>,
    /// Per block, the stamp and entry fact of the last Table 2 stream that
    /// found no redundancy in it (stamp 0: none).
    pub(crate) quiet_blocks: Vec<(u64, BitSet)>,
    /// The last hoist analysis with the edge fingerprint it was solved
    /// on: its rows are the current Table 1 rows (tagged by
    /// [`Self::hoist_stamps`]) and its solution warm-starts the next solve.
    pub(crate) hoist: Option<(u64, HoistAnalysis)>,
    pub(crate) hoist_stamps: Vec<u64>,
    /// The buffers of the last insertion step's [`Rewritten`], reused by
    /// the next.
    rewritten: Rewritten,
    /// The Table 1 problem shell (direction and boundary) between solves;
    /// its rows live in [`Self::hoist`]'s analysis.
    pub(crate) hoist_problem: Option<Problem>,
    /// Round scratch: the blocks whose Table 1 rows changed, one block's
    /// local predicates, and the insertion points' meet.
    pub(crate) hoist_dirty: Vec<usize>,
    pub(crate) hoist_locals: BlockLocals,
    pub(crate) hoist_scratch: BitSet,
    /// The buffers of the hoisting candidates before the last analysis's.
    pub(crate) hoist_candidates: (Vec<(usize, usize)>, Vec<usize>),
    /// Round scratch: the redundant occurrences found, and the fact
    /// streamed through a block.
    pub(crate) rae_locs: Vec<Loc>,
    pub(crate) rae_scratch: BitSet,
    /// Node-level adjacency and schedule, keyed by the edge fingerprint.
    node_system: Option<NodeSystem>,
    /// Fingerprint of the last hoist input and whether that hoist changed
    /// the program; a re-run of a no-op on the same input is skipped.
    last_hoist: Option<(u64, bool)>,
    pub(crate) rows_reused: u64,
    pub(crate) rows_recomputed: u64,
    hoist_skipped: u64,
    pub(crate) hoist_warm: u64,
    dirty_blocks: u64,
    identity_blocks: u64,
    pub(crate) streamed_blocks: u64,
    pub(crate) skipped_blocks: u64,
}

/// What a [`MotionContext`] knows of an interned id it has seen in the
/// program.
#[derive(Clone, Copy)]
struct Known {
    /// The id's rank in the order the context first saw the ids: first
    /// occurrence in the program at the first sync, then the order later
    /// syncs meet new ones. Provenance reports it as the instruction id,
    /// which the graph's own ids (they also number the contents before
    /// initialization) would not reproduce.
    rank: u32,
    /// The universe index of the id's assignment pattern (`None` for other
    /// instructions, and for a pattern the universe does not know yet).
    assign: Option<u32>,
}

impl MotionContext {
    /// An empty context; the first [`Self::sync`] hashes the program's
    /// blocks and numbers its universe.
    pub(crate) fn new() -> Self {
        let universe = PatternUniverse::default();
        MotionContext {
            masks: PatternMasks::build(&universe, 0),
            universe: Rc::new(universe),
            known: Vec::new(),
            next_rank: 0,
            instance_of: Vec::new(),
            stale: false,
            synced: None,
            block_hashes: Vec::new(),
            block_stamps: Vec::new(),
            round_stamp: 0,
            block_sum: 0,
            edge_stamp: 0,
            edge_hash: 0,
            rae_rows: Vec::new(),
            blocking_rows: Vec::new(),
            rae_problem: None,
            rae_occurs: Vec::new(),
            rae_stamps: Vec::new(),
            rae_solution: None,
            quiet_blocks: Vec::new(),
            hoist: None,
            hoist_stamps: Vec::new(),
            rewritten: Rewritten::default(),
            hoist_problem: None,
            hoist_dirty: Vec::new(),
            hoist_locals: BlockLocals::new(0),
            hoist_scratch: BitSet::new(0),
            hoist_candidates: (Vec::new(), Vec::new()),
            rae_locs: Vec::new(),
            rae_scratch: BitSet::new(0),
            node_system: None,
            last_hoist: None,
            rows_reused: 0,
            rows_recomputed: 0,
            hoist_skipped: 0,
            hoist_warm: 0,
            dirty_blocks: 0,
            identity_blocks: 0,
            streamed_blocks: 0,
            skipped_blocks: 0,
        }
    }

    /// Extends the universe over `g` and drops every pattern-indexed
    /// cache. Called when the program contains an assignment pattern the
    /// current universe does not know (only possible through a mutating
    /// hook). Extension keeps all existing pattern ids stable — new
    /// patterns take fresh indices — so nothing that survives the refresh
    /// (schedules, block hashes, id ranks) has to be renumbered; the
    /// caches cleared here are exactly the ones whose bitset width depends
    /// on the universe size.
    fn refresh(&mut self, g: &FlowGraph) {
        // Drop the analysis sharing the universe first, so the extension
        // happens in place.
        self.hoist = None;
        Rc::make_mut(&mut self.universe).extend(g);
        self.masks = PatternMasks::build(&self.universe, g.pool().len());
        self.rae_rows.clear();
        self.blocking_rows.clear();
        self.rae_problem = None;
        self.rae_stamps.clear();
        self.quiet_blocks.clear();
        self.hoist_stamps.clear();
        // Every id seen so far was in the program when it was seen, and
        // the universe has covered the program of every sync since, so
        // re-indexing the seen ids finds every pattern that appeared.
        self.instance_of.resize(self.universe.assign_count(), None);
        for (id, _) in g.interner().iter().take(self.known.len()) {
            if self.known[id.index()].is_some() {
                self.index_assign(g, id);
            }
        }
        self.stale = false;
    }

    /// Numbers the universe from the distinct ids of the first sync, in
    /// the order of their first occurrence in the program: the first
    /// content holding a pattern is the one holding its first occurrence,
    /// so the numbering is [`PatternUniverse::collect`]'s, without a second
    /// walk over every instruction.
    fn build_universe(&mut self, g: &FlowGraph, distinct: &[InstrId]) {
        let mut universe = PatternUniverse::with_capacity(distinct.len());
        universe.extend_instrs(distinct.iter().map(|&id| g.interner().instr(id)));
        self.masks = PatternMasks::build(&universe, g.pool().len());
        self.instance_of = vec![None; universe.assign_count()];
        self.universe = Rc::new(universe);
        for &id in distinct {
            self.index_assign(g, id);
        }
    }

    /// Records the universe index of `id`'s assignment pattern, flagging
    /// the context stale when the universe does not know it.
    fn index_assign(&mut self, g: &FlowGraph, id: InstrId) {
        let instr = g.interner().instr(id);
        let pattern = assign_index(instr, &self.universe);
        self.stale |= matches!(instr, Instr::Assign { .. }) && pattern.is_none();
        if let Some(known) = &mut self.known[id.index()] {
            known.assign = pattern;
        }
        if let Some(i) = pattern {
            self.instance_of[i as usize] = Some(id);
        }
    }

    /// The context's rank of interned id `id`, which a sync has seen
    /// ([`Known::rank`]).
    pub(crate) fn rank(&self, id: InstrId) -> u32 {
        self.known[id.index()].expect("a synced id").rank
    }

    /// Brings the block hashes up to date with `g`. Free when nothing was
    /// written to `g` since they last described it; otherwise re-hashes
    /// exactly the blocks whose write stamp differs from the recorded one
    /// (every block on the first sync), from the interner's cached
    /// instruction hashes, and re-takes the edge fingerprints when the
    /// edge stamp moved. An id seen for the first time is ranked, and
    /// after the first sync indexed at once ([`Self::index_assign`]); the
    /// universe only grows, so the check runs once per distinct content.
    pub(crate) fn sync(&mut self, g: &FlowGraph) {
        if self.synced == Some(g.last_stamp()) {
            return;
        }
        let first = self.synced.is_none();
        let nodes = g.node_count();
        self.block_hashes.resize(nodes, 0);
        self.block_stamps.resize(nodes, 0);
        self.known.resize(g.interner().len(), None);
        let mut distinct = Vec::new();
        for n in g.nodes() {
            let (i, stamp) = (n.index(), g.block(n).stamp());
            if self.block_stamps[i] == stamp {
                continue;
            }
            for &id in g.ids(n) {
                let known = &mut self.known[id.index()];
                if known.is_none() {
                    *known = Some(Known {
                        rank: self.next_rank,
                        assign: None,
                    });
                    self.next_rank += 1;
                    if first {
                        distinct.push(id);
                    } else {
                        self.index_assign(g, id);
                    }
                }
            }
            self.block_hashes[i] = block_hash(g, n);
            self.record(i, stamp);
        }
        self.block_sum = self
            .block_hashes
            .iter()
            .enumerate()
            .fold(0, |sum, (i, &h)| sum.wrapping_add(slot_hash(i, h)));
        if first {
            self.build_universe(g, &distinct);
        }
        if first || self.edge_stamp != g.edge_stamp() {
            (self.edge_hash, self.edge_stamp) = (edge_hash(g), g.edge_stamp());
        }
        if self.stale {
            self.refresh(g);
        }
        self.synced = Some(g.last_stamp());
        if first {
            // The first sync hashes the whole program; it is no round's
            // change.
            self.round_stamp = g.last_stamp() + 1;
        }
    }

    /// Removes the redundant occurrences `locs` (in program order, as
    /// [`Self::redundant_locs`] returns them) from `g` (in sync),
    /// re-hashing the blocks that lost one.
    fn remove_redundant(&mut self, g: &mut FlowGraph, locs: &[Loc]) {
        for run in locs.chunk_by(|a, b| a.node == b.node) {
            let n = run[0].node;
            g.retain_instrs(n, unlisted(run.iter().map(|l| l.index)));
            self.rekey(g, n);
        }
        self.synced = Some(g.last_stamp());
    }

    /// Re-hashes block `n` after the context's own write to it, which
    /// only wrote ids the context has seen, folds the hash into the
    /// fingerprint and records the stamp `g` gave the write.
    fn rekey(&mut self, g: &FlowGraph, n: NodeId) {
        let i = n.index();
        let hash = block_hash(g, n);
        self.block_sum = self
            .block_sum
            .wrapping_sub(slot_hash(i, self.block_hashes[i]))
            .wrapping_add(slot_hash(i, hash));
        self.block_hashes[i] = hash;
        self.record(i, g.block(n).stamp());
    }

    /// Records that the hash of block `i` describes the content written
    /// with `stamp`, counting the block dirty on its first new stamp of
    /// the round (never on the first sync, which is no round's change).
    fn record(&mut self, i: usize, stamp: u64) {
        if self.block_stamps[i] < self.round_stamp {
            self.dirty_blocks += 1;
        }
        self.block_stamps[i] = stamp;
    }

    /// Fingerprint of the whole program — blocks, edges and boundary
    /// nodes — read off the block hashes after a [`Self::sync`]. The motion loop
    /// uses it both for the hoist no-op skip and as the convergence check,
    /// avoiding a full program clone per round; a collision can only skip
    /// a no-op re-solve or end the loop a round early, never corrupt a
    /// result.
    pub(crate) fn fingerprint(&mut self, g: &FlowGraph) -> u64 {
        self.sync(g);
        let mut h = FxMapHasher::default();
        h.write_u64(self.edge_hash);
        h.write_u64(self.block_sum);
        h.finish()
    }

    /// Writes into `ranks` the first-occurrence rank of every assignment
    /// pattern in `g` (synced; `None` for patterns without occurrences),
    /// read from the interned ids.
    pub(crate) fn occurrence_ranks(&self, g: &FlowGraph, ranks: &mut Vec<Option<u32>>) {
        ranks.clear();
        ranks.resize(self.universe.assign_count(), None);
        let mut next = 0u32;
        for &id in g.nodes().flat_map(|n| g.ids(n)) {
            if let Some(i) = self.assign_pattern(id) {
                let rank = &mut ranks[i];
                if rank.is_none() {
                    *rank = Some(next);
                    next += 1;
                }
            }
        }
    }

    /// The universe index of the assignment pattern of interned
    /// instruction `id` (`None` for other instructions).
    fn assign_pattern(&self, id: InstrId) -> Option<usize> {
        self.known[id.index()]
            .and_then(|known| known.assign)
            .map(|i| i as usize)
    }

    /// The interned id of pattern `i`'s instance.
    ///
    /// # Panics
    ///
    /// Panics if no instruction of the pattern was seen, which a pattern
    /// that occurs in the synced program rules out.
    pub(crate) fn instance_id(&self, i: usize) -> InstrId {
        self.instance_of[i].expect("an occurring pattern has an interned instance")
    }

    /// Caches the Table 2 row of `g`'s interned instruction `id`;
    /// `redundancy_row` runs once per distinct content.
    pub(crate) fn cache_rae_row(&mut self, g: &FlowGraph, id: InstrId) {
        let idx = id.index();
        if idx >= self.rae_rows.len() {
            self.rae_rows.resize_with(g.interner().len(), || None);
        }
        if self.rae_rows[idx].is_none() {
            self.rows_recomputed += 1;
            let row = redundancy_row(g.interner().instr(id), &self.universe, &self.masks);
            self.rae_rows[idx] = Some(row);
        } else {
            self.rows_reused += 1;
        }
    }

    /// Feeds the interned instructions of block `n` of `g` (synced) to
    /// `f` in order, each with its assignment pattern index and its
    /// Table 1 blocking row; [`blocking_row`] runs once per distinct
    /// content.
    pub(crate) fn for_each_blocking_row(
        &mut self,
        g: &FlowGraph,
        n: NodeId,
        mut f: impl FnMut(usize, Option<usize>, &BitSet),
    ) {
        let interner = g.interner();
        self.blocking_rows.resize_with(interner.len(), || None);
        for (idx, &id) in g.ids(n).iter().enumerate() {
            let pattern = self.assign_pattern(id);
            let row = self.blocking_rows[id.index()].get_or_insert_with(|| {
                blocking_row(
                    interner.instr(id),
                    &self.masks,
                    self.universe.assign_count(),
                )
            });
            f(idx, pattern, row);
        }
    }

    /// The node-level adjacency and schedule of `g` (synced), rebuilt only
    /// when the block edges changed.
    pub(crate) fn node_system(&mut self, g: &FlowGraph) -> &NodeSystem {
        let valid = matches!(&self.node_system,
            Some(ns) if ns.edge_hash == self.edge_hash && ns.succs.len() == g.node_count());
        if !valid {
            let (succs, preds) = node_adjacency(g);
            let schedule = Schedule::build(&succs, &preds);
            self.node_system = Some(NodeSystem {
                edge_hash: self.edge_hash,
                succs,
                preds,
                schedule,
            });
        }
        self.node_system.as_ref().expect("node system built above")
    }

    /// Solves a Table 2 or cold Table 1 `problem` over the node system of
    /// `g`, lending it the `recycled` fact buffers.
    pub(crate) fn solve_cold(
        &mut self,
        g: &FlowGraph,
        problem: &Problem,
        recycled: Option<Solution>,
    ) -> Solution {
        let ns = self.node_system(g);
        solve_scheduled(&ns.succs, &ns.preds, problem, &ns.schedule, recycled)
    }

    /// One redundant-assignment-elimination pass
    /// ([`Self::redundant_locs`]) under an `analysis/rae` span.
    pub(crate) fn rae_round(
        &mut self,
        g: &mut FlowGraph,
        tracer: &Tracer,
        recorder: &ProvRecorder,
        round: u32,
    ) -> RaeOutcome {
        let mut span = tracer.span("analysis", "rae");
        let sol = self.redundant_locs(g, recorder, round);
        let locs = std::mem::take(&mut self.rae_locs);
        self.remove_redundant(g, &locs);
        let outcome = RaeOutcome {
            eliminated: locs.len(),
            iterations: sol.iterations,
            worklist_pushes: sol.worklist_pushes,
            max_worklist_len: sol.max_worklist_len,
        };
        self.rae_locs = locs;
        self.rae_solution = Some(sol);
        tracer.counter(
            "analysis",
            "rae",
            &[
                ("iterations", outcome.iterations as i64),
                ("worklist_pushes", outcome.worklist_pushes as i64),
                ("max_worklist_len", outcome.max_worklist_len as i64),
            ],
        );
        span.arg("eliminated", outcome.eliminated as i64);
        outcome
    }

    /// One hoisting pass ([`Self::hoisting`] and the insertion step) under
    /// an `analysis/aht` span, skipped outright when its input has the
    /// fingerprint of a previous hoist that changed nothing.
    pub(crate) fn hoist_round(
        &mut self,
        g: &mut FlowGraph,
        tracer: &Tracer,
        recorder: &ProvRecorder,
        round: u32,
    ) -> HoistOutcome {
        let input_hash = self.fingerprint(g);
        if self.last_hoist == Some((input_hash, false)) {
            // The deterministic analysis would reproduce that no-op.
            self.hoist_skipped += 1;
            return HoistOutcome::default();
        }
        let mut span = tracer.span("analysis", "aht");
        let analysis = self.hoisting(g);
        let sol = &analysis.hoistable;
        tracer.counter(
            "analysis",
            "aht",
            &[
                ("iterations", sol.iterations as i64),
                ("worklist_pushes", sol.worklist_pushes as i64),
                ("max_worklist_len", sol.max_worklist_len as i64),
            ],
        );
        let mut rewritten = std::mem::take(&mut self.rewritten);
        let outcome =
            self.apply_insertion_step(g, &analysis, None, recorder, round, &mut rewritten);
        for &n in &rewritten.blocks {
            self.rekey(g, n);
        }
        self.synced = Some(g.last_stamp());
        self.identity_blocks += rewritten.identity as u64;
        self.rewritten = rewritten;
        self.hoist = Some((self.edge_hash, analysis));
        self.last_hoist = Some((input_hash, outcome.changed));
        span.arg("inserted", outcome.inserted as i64)
            .arg("removed", outcome.removed as i64);
        outcome
    }

    /// Takes the problems and solutions the motion rounds leave behind,
    /// for a later solve to reuse their buffers: the Table 2 and Table 1
    /// problems (empty shells on a context that solved none) and their
    /// last solutions. The round caches that tag them are reset, so a
    /// later round rebuilds every row.
    pub(crate) fn take_solver_buffers(&mut self) -> ([Problem; 2], [Option<Solution>; 2]) {
        let shell = || Problem::new(Direction::Forward, Confluence::Must, 0, 0);
        let rae = self.rae_problem.take().unwrap_or_else(shell);
        self.rae_stamps.clear();
        let mut hoist = self.hoist_problem.take().unwrap_or_else(shell);
        let hoist_sol = self.hoist.take().map(|(_, a)| {
            (hoist.gen, hoist.kill) = (a.loc_hoistable, a.loc_blocked);
            a.hoistable
        });
        self.hoist_stamps.clear();
        ([rae, hoist], [self.rae_solution.take(), hoist_sol])
    }

    /// Ends a round: attaches its block counts to the round `span`, emits
    /// the per-round incrementality counters, and resets them. A disabled
    /// tracer costs one branch.
    pub(crate) fn end_round(&mut self, tracer: &Tracer, span: &mut Span) {
        if tracer.enabled() {
            let (dirty, identity) = (self.dirty_blocks as i64, self.identity_blocks as i64);
            let streamed = self.streamed_blocks as i64;
            span.arg("dirty_blocks", dirty)
                .arg("identity_blocks", identity)
                .arg("streamed_blocks", streamed);
            tracer.counter(
                "incremental",
                "gen_kill_rows",
                &[
                    ("reused", self.rows_reused as i64),
                    ("recomputed", self.rows_recomputed as i64),
                ],
            );
            tracer.counter("incremental", "dirty_blocks", &[("blocks", dirty)]);
            tracer.counter("incremental", "identity_blocks", &[("blocks", identity)]);
            tracer.counter(
                "incremental",
                "rae_stream",
                &[
                    ("streamed", streamed),
                    ("skipped", self.skipped_blocks as i64),
                ],
            );
            if self.hoist_skipped > 0 || self.hoist_warm > 0 {
                tracer.counter(
                    "incremental",
                    "hoist_solves",
                    &[
                        ("skipped", self.hoist_skipped as i64),
                        ("warm", self.hoist_warm as i64),
                    ],
                );
            }
        }
        self.rows_reused = 0;
        self.rows_recomputed = 0;
        self.hoist_skipped = 0;
        self.hoist_warm = 0;
        self.dirty_blocks = 0;
        self.identity_blocks = 0;
        self.streamed_blocks = 0;
        self.skipped_blocks = 0;
        self.round_stamp = self.synced.map_or(0, |stamp| stamp + 1);
    }
}

/// The universe index of `instr`'s assignment pattern, if it has a known
/// one.
fn assign_index(instr: &Instr, universe: &PatternUniverse) -> Option<u32> {
    match instr {
        Instr::Assign { lhs, rhs } => universe
            .assign_id(&AssignPattern::new(*lhs, *rhs))
            .map(|i| i as u32),
        _ => None,
    }
}

/// Hash of the content of block `n`, composed from the interner's cached
/// per-instruction hashes.
fn block_hash(g: &FlowGraph, n: NodeId) -> u64 {
    let ids = g.ids(n);
    let mut h = FxMapHasher::default();
    h.write_usize(ids.len());
    for &id in ids {
        h.write_u64(g.interner().hash(id));
    }
    h.finish()
}

/// The contribution of block `i` with content hash `hash` to the program
/// fingerprint's sum: a full-avalanche mix of the pair (the SplitMix64
/// finalizer), so that summing contributions neither commutes blocks nor
/// lets weak low bits cancel.
fn slot_hash(i: usize, hash: u64) -> u64 {
    let mut z = hash ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fingerprint of the node-level edges and the start and end node.
fn edge_hash(g: &FlowGraph) -> u64 {
    let mut h = FxMapHasher::default();
    (g.node_count(), g.start().index(), g.end().index()).hash(&mut h);
    for n in g.nodes() {
        for &m in g.succs(n) {
            m.index().hash(&mut h);
        }
        0xffusize.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::global::GlobalConfig;
    use crate::hoist::BlockLocals;
    use crate::motion::{assignment_motion, assignment_motion_with, default_round_budget};
    use crate::motion::{MotionOrder, MotionStats};
    use am_ir::random::{corpus80, nest_grid, structured, wide_fan, SplitMix64, StructuredConfig};
    use am_ir::{Operand, Term};
    use am_obs::{ProvKind, ProvRecord};

    /// The 80-program corpus and 200 seeded structured programs, critical
    /// edges split.
    fn programs() -> Vec<FlowGraph> {
        let mut out: Vec<FlowGraph> = corpus80().into_iter().map(|(_, g)| g).collect();
        for seed in 0..200 {
            out.push(structured(
                &mut SplitMix64::new(seed),
                &StructuredConfig::default(),
            ));
        }
        for g in &mut out {
            g.split_critical_edges();
        }
        out
    }

    /// The maintained per-block hashes, stamps and fingerprint equal the
    /// full sync of a fresh context: the context's own rewrites left it
    /// describing `g`'s last write, its hashes and fingerprint agree, and
    /// it recorded every block's current stamp.
    fn assert_mirror_is_exact(ctx: &mut MotionContext, g: &FlowGraph, at: &str) {
        assert_eq!(ctx.synced, Some(g.last_stamp()), "{at}: a sync is pending");
        let fingerprint = ctx.fingerprint(g);
        let mut fresh = MotionContext::new();
        assert_eq!(fresh.fingerprint(g), fingerprint, "{at}: fingerprint");
        assert_eq!(fresh.block_hashes, ctx.block_hashes, "{at}: block hashes");
        assert_eq!(fresh.block_stamps, ctx.block_stamps, "{at}: block stamps");
    }

    #[test]
    fn incremental_mirror_equals_a_full_resync_after_every_round() {
        let (tracer, recorder) = (Tracer::disabled(), ProvRecorder::disabled());
        for (p, program) in programs().into_iter().enumerate() {
            let mut g = program.clone();
            let mut ctx = MotionContext::new();
            for round in 1..=default_round_budget(&g) as u32 {
                let before = ctx.fingerprint(&g);
                let rae = ctx.rae_round(&mut g, &tracer, &recorder, round);
                assert_mirror_is_exact(&mut ctx, &g, &format!("program {p} round {round} rae"));
                let hoist = ctx.hoist_round(&mut g, &tracer, &recorder, round);
                assert_mirror_is_exact(&mut ctx, &g, &format!("program {p} round {round}"));
                if (rae.eliminated == 0 && !hoist.changed) || ctx.fingerprint(&g) == before {
                    break;
                }
            }
            // The replayed loop is the motion loop.
            let mut reference = program;
            assignment_motion(&mut reference);
            assert_eq!(g, reference, "program {p}");
        }
    }

    /// Round 1 drops the first instruction of the last block holding an
    /// assignment; round 2 appends an assignment of a pattern no universe
    /// has seen to the start block. Both edits bypass the context.
    fn rewrite_behind_the_back(round: usize, g: &mut FlowGraph) {
        let Some(n) = g
            .nodes()
            .filter(|&n| g.instrs(n).any(|i| matches!(i, Instr::Assign { .. })))
            .last()
        else {
            return;
        };
        let lhs = g.instrs(n).find_map(Instr::def).expect("an assignment");
        match round {
            1 => {
                g.remove_instr(Loc { node: n, index: 0 });
            }
            2 => {
                let start = g.start();
                g.push_instr(
                    start,
                    Instr::Assign {
                        lhs,
                        rhs: Term::Operand(Operand::Const(7_654_321)),
                    },
                );
            }
            _ => {}
        }
    }

    fn run(g: &FlowGraph, hook: &mut dyn FnMut(usize, &mut FlowGraph)) -> (FlowGraph, MotionStats) {
        let mut g = g.clone();
        let stats = assignment_motion_with(
            &mut g,
            &GlobalConfig::default(),
            MotionOrder::RaeFirst,
            hook,
        );
        (g, stats)
    }

    #[test]
    fn a_foreign_rewrite_forces_a_full_resync() {
        for (p, program) in programs().into_iter().enumerate() {
            let tracked = run(&program, &mut rewrite_behind_the_back);
            // Writing every block every round moves every stamp, so this
            // context re-interns the whole program at every round entry,
            // as a fresh context would.
            let resynced = run(&program, &mut |round, g| {
                rewrite_behind_the_back(round, g);
                for n in g.nodes() {
                    let instrs = g.take_block(n);
                    g.set_block(n, instrs);
                }
            });
            assert_eq!(tracked, resynced, "program {p}");
        }
    }

    #[test]
    fn dirty_blocks_cover_every_block_a_round_changed() {
        for (p, program) in programs().into_iter().enumerate().step_by(7) {
            let (tracer, collector) = Tracer::collector();
            let config = GlobalConfig {
                tracer,
                ..GlobalConfig::default()
            };
            let mut g = program.clone();
            let mut changed = Vec::new();
            let mut previous = g.clone();
            assignment_motion_with(&mut g, &config, MotionOrder::RaeFirst, &mut |_, g| {
                let differ = g
                    .nodes()
                    .filter(|&n| !g.instrs(n).eq(previous.instrs(n)))
                    .count();
                changed.push(differ as i64);
                previous = g.clone();
            });
            let dirty: Vec<i64> = collector
                .events()
                .iter()
                .filter(|e| e.cat == "round")
                .map(|e| {
                    e.arg("dirty_blocks")
                        .expect("round spans carry dirty_blocks")
                })
                .collect();
            assert_eq!(dirty.len(), changed.len(), "program {p}");
            for (round, (&d, &c)) in dirty.iter().zip(&changed).enumerate() {
                assert!(
                    c <= d,
                    "program {p} round {}: {c} changed, {d} dirty",
                    round + 1
                );
            }
            assert_eq!(
                changed.last(),
                Some(&0),
                "program {p}: the last round changes nothing"
            );
        }
    }

    /// An elimination–elimination effect on a block no round rewrites:
    /// round 1 removes the redundant `a := c` of node 2, which makes the
    /// `x := a+b` of node 3 redundant in round 2 through node 3's entry
    /// fact alone. `y := x` blocks that occurrence from being hoisted, and
    /// hoisting `y := x` itself is an identity move.
    const ENTRY_FACT_ONLY: &str = "start 0\nend 9\n\
         node 0 { skip }\n\
         node 1 { a := c; x := a+b; branch p > 0 }\n\
         node 2 { a := c; branch q > 0 }\n\
         node 3 { y := x; x := a+b; out(x,y) }\n\
         node 5 { skip }\n\
         node 9 { skip }\n\
         edge 0 -> 1\nedge 1 -> 2, 5\nedge 2 -> 3, 5\nedge 3 -> 9\nedge 5 -> 9";

    /// `programs()`, [`ENTRY_FACT_ONLY`] and the `xl-nest` and `xl-fan`
    /// shapes at test size, critical edges split.
    pub(crate) fn programs_and_xl() -> Vec<FlowGraph> {
        let mut out = programs();
        let entry_fact_only = am_ir::text::parse(ENTRY_FACT_ONLY).expect("parses");
        for mut g in [entry_fact_only, nest_grid(20, 2, 8), wide_fan(100, 4)] {
            g.split_critical_edges();
            out.push(g);
        }
        out
    }

    /// Replays the motion loop of `assignment_motion_with` in `order` on
    /// `ctx`, calling `check` after every half-round; returns the program.
    fn replay(
        program: &FlowGraph,
        ctx: &mut MotionContext,
        order: MotionOrder,
        recorder: &ProvRecorder,
        mut check: impl FnMut(&mut MotionContext, &mut FlowGraph, &str),
    ) -> FlowGraph {
        let tracer = Tracer::disabled();
        let mut g = program.clone();
        for round in 1..=default_round_budget(&g) as u32 {
            let before = ctx.fingerprint(&g);
            let (rae, hoist) = match order {
                MotionOrder::RaeFirst => {
                    let rae = ctx.rae_round(&mut g, &tracer, recorder, round);
                    check(ctx, &mut g, &format!("round {round} rae"));
                    (rae, ctx.hoist_round(&mut g, &tracer, recorder, round))
                }
                MotionOrder::HoistFirst => {
                    let hoist = ctx.hoist_round(&mut g, &tracer, recorder, round);
                    check(ctx, &mut g, &format!("round {round} hoist"));
                    (ctx.rae_round(&mut g, &tracer, recorder, round), hoist)
                }
            };
            check(ctx, &mut g, &format!("round {round}"));
            if (rae.eliminated == 0 && !hoist.changed) || ctx.fingerprint(&g) == before {
                break;
            }
        }
        g
    }

    fn motion_in(order: MotionOrder, program: &FlowGraph) -> FlowGraph {
        let mut g = program.clone();
        assignment_motion_with(&mut g, &GlobalConfig::default(), order, &mut |_, _| {});
        g
    }

    #[test]
    fn per_id_table1_rows_equal_the_instruction_walk() {
        for order in [MotionOrder::RaeFirst, MotionOrder::HoistFirst] {
            for (p, program) in programs_and_xl().into_iter().enumerate() {
                let mut ctx = MotionContext::new();
                let g = replay(
                    &program,
                    &mut ctx,
                    order,
                    &ProvRecorder::disabled(),
                    |ctx, g, at| {
                        let a = ctx.hoisting(g);
                        for n in g.nodes() {
                            let (ni, at) = (n.index(), format!("{order:?} program {p} {at} {n:?}"));
                            let oracle =
                                BlockLocals::compute(g.instrs(n), &ctx.universe, &ctx.masks);
                            assert_eq!(
                                a.loc_hoistable[ni], oracle.hoistable,
                                "{at}: LOC-HOISTABLE"
                            );
                            assert_eq!(a.loc_blocked[ni], oracle.blocked, "{at}: LOC-BLOCKED");
                            assert_eq!(a.candidates(n), oracle.candidates, "{at}: candidates");
                        }
                        ctx.hoist = Some((ctx.edge_hash, a));
                    },
                );
                assert_eq!(g, motion_in(order, &program), "{order:?} program {p}");
            }
        }
    }

    /// The `Eliminate` records among `records`.
    fn eliminations(records: Vec<ProvRecord>) -> Vec<ProvRecord> {
        records
            .into_iter()
            .filter(|r| r.kind == ProvKind::Eliminate)
            .collect()
    }

    #[test]
    fn skipping_quiet_blocks_changes_no_elimination() {
        let mut skipped = 0;
        for order in [MotionOrder::RaeFirst, MotionOrder::HoistFirst] {
            for (p, program) in programs_and_xl().into_iter().enumerate() {
                // The reference context forgets every quiet block before
                // each round, so it streams every occurrence block.
                let forced_recorder = ProvRecorder::enabled();
                let mut forced = MotionContext::new();
                let mut forced_rounds = Vec::new();
                let forced_g = replay(
                    &program,
                    &mut forced,
                    order,
                    &forced_recorder,
                    |ctx, _, _| {
                        ctx.quiet_blocks.clear();
                        forced_rounds.push(eliminations(forced_recorder.take()));
                    },
                );
                let recorder = ProvRecorder::enabled();
                let mut ctx = MotionContext::new();
                let mut rounds = Vec::new();
                let g = replay(&program, &mut ctx, order, &recorder, |_, _, _| {
                    rounds.push(eliminations(recorder.take()));
                });
                assert_eq!(rounds, forced_rounds, "{order:?} program {p}: eliminations");
                assert_eq!(g, forced_g, "{order:?} program {p}");
                skipped += ctx.skipped_blocks;
            }
        }
        assert!(skipped > 0, "no block was ever skipped");
    }

    #[test]
    fn a_clean_block_is_streamed_again_when_its_entry_fact_changes() {
        let mut program = am_ir::text::parse(ENTRY_FACT_ONLY).expect("parses");
        program.split_critical_edges();
        let recorder = ProvRecorder::enabled();
        let mut ctx = MotionContext::new();
        replay(
            &program,
            &mut ctx,
            MotionOrder::RaeFirst,
            &recorder,
            |_, _, _| {},
        );
        let eliminated: Vec<(u32, String)> = eliminations(recorder.take())
            .into_iter()
            .map(|r| (r.round, r.node))
            .collect();
        assert_eq!(eliminated, [(1, "2".to_owned()), (2, "3".to_owned())]);
    }

    #[test]
    fn the_first_sync_numbers_the_universe_like_a_program_walk() {
        for (p, mut g) in programs_and_xl().into_iter().enumerate() {
            for phase in ["split", "init"] {
                let mut ctx = MotionContext::new();
                ctx.sync(&g);
                let (assigns, exprs) = am_ir::reference_universe(&g);
                let u = &ctx.universe;
                let at = format!("program {p} after {phase}");
                assert_eq!(
                    u.assign_patterns().map(|(_, a)| a).collect::<Vec<_>>(),
                    assigns,
                    "{at}"
                );
                assert_eq!(
                    u.expr_patterns().map(|(_, t)| t).collect::<Vec<_>>(),
                    exprs,
                    "{at}"
                );
                for &id in g.nodes().flat_map(|n| g.ids(n)) {
                    let pattern = ctx.assign_pattern(id);
                    let instr = g.interner().instr(id);
                    assert_eq!(pattern, assign_index(instr, u).map(|i| i as usize));
                    if let Some(i) = pattern {
                        assert_eq!(ctx.instance_id(i), id, "{at}");
                    }
                }
                crate::init::initialize(&mut g);
            }
        }
    }

    #[test]
    fn motion_rounds_intern_nothing_after_the_first_sync() {
        let mut program = nest_grid(20, 2, 8);
        program.split_critical_edges();
        crate::init::initialize(&mut program);
        let mut ctx = MotionContext::new();
        ctx.sync(&program);
        let interned = program.interner().len();
        let mut g = replay(
            &program,
            &mut ctx,
            MotionOrder::RaeFirst,
            &ProvRecorder::disabled(),
            |_, _, _| {},
        );
        assert_eq!(
            g.interner().len(),
            interned,
            "a round interned instructions"
        );
        let mut reference = program;
        let stats = assignment_motion(&mut reference);
        assert!(stats.rounds > 2 && stats.converged);
        assert_eq!(g, reference);
        // The flush reads the same ids.
        let flush = ctx.final_flush(&mut g, &GlobalConfig::default());
        assert!(flush.instances_removed > 0);
        crate::flush::final_flush(&mut reference);
        assert_eq!(g, reference);
    }
}
