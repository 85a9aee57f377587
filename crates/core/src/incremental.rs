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
//! fresh context.
//!
//! * **Pattern universe and masks** — collected once at motion entry. The
//!   motion phase only *removes* occurrences and re-inserts instances of
//!   existing patterns, so the entry universe is a superset of every later
//!   round's universe and the per-bit independence of gen/kill systems
//!   makes the extra bits harmless. Two guards keep the results identical
//!   to a fresh-universe run: insertions are filtered to patterns that
//!   still occur, and same-point insertions are emitted in the current
//!   graph's first-occurrence order (the order a fresh universe would
//!   number them). A hook that injects a *new* pattern (fault injection)
//!   is detected when the instruction is first interned and triggers an
//!   in-place universe extension: existing pattern ids stay stable and the
//!   new patterns take the next free indices, so only the caches whose
//!   bitset width depends on the universe size are dropped.
//! * **Program mirror** — the interned instruction ids of every block
//!   ([`am_ir::intern::InstrInterner`]), a cached hash per block composed
//!   from the interner's cached instruction hashes, and a stamp per block
//!   that changes whenever its content does. The rewrites report the
//!   blocks they changed ([`remove_locs`], [`apply_insertion_step`]) and
//!   only those are re-interned, re-hashed and re-stamped. The program
//!   fingerprint folds the per-block hashes into a position-keyed sum, so
//!   a changed block updates it in O(1) — the cached-hash idiom of
//!   hash-consed expression DAGs. A [`FlowGraph::revision`] the context did
//!   not produce itself (a mutating round hook, an injected fault) forces a
//!   full re-sync that re-interns every block and re-stamps the ones whose
//!   content actually changed.
//! * **Gen/kill rows** — Table 2 rows dense by interned instruction id, and
//!   the node-level Table 2 and Table 1 problem rows, candidates included,
//!   each tagged with the stamp of the block content it was built from.
//!   A round refills only the rows whose stamp is stale; the
//!   `incremental/gen_kill_rows` trace counter reports reused and rebuilt
//!   rows per round, `incremental/dirty_blocks` and
//!   `incremental/identity_blocks` how many blocks the round rewrote and
//!   how many it moved code in without changing.
//! * **Node system** — the block adjacency and solver schedule shared by
//!   both tables, reused while the edge fingerprint (taken at each full
//!   re-sync; the motion rewrites never touch edges) is unchanged.
//! * **Previous hoist system** — when a round's Table 1 rows changed only
//!   monotonically downward (candidates lost, blockades gained), the
//!   backward must system is re-solved from the previous greatest solution
//!   with only the dirty nodes seeded ([`am_dfa::solve_seeded`]); the old
//!   solution is a post-fixed point of the lowered system, so the descent
//!   reaches the new greatest fixed point. Non-monotone changes fall back
//!   to a cold scheduled solve. A round whose hoist input has the same
//!   fingerprint as the previous round's (last elimination found nothing
//!   and the last hoist was a no-op) skips the solve outright.

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use am_dfa::{
    node_adjacency, solve_scheduled, Adjacency, PatternMasks, Problem, Schedule, Solution,
};
use am_ir::intern::{FxMapHasher, InstrId, InstrInterner};
use am_ir::{AssignPattern, FlowGraph, Instr, NodeId, PatternUniverse};
use am_obs::ProvRecorder;
use am_trace::{Span, Tracer};

use crate::hoist::{apply_insertion_step, HoistAnalysis, HoistOutcome};
use crate::rae::{redundancy_row, remove_locs, RaeOutcome, Row};

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
    /// Hash-consing interner behind the program mirror: each distinct
    /// instruction content is structurally hashed once, after which block
    /// keys compare ids and block hashes compose cached hashes.
    interner: InstrInterner,
    /// The universe index of every interned instruction's assignment
    /// pattern, dense by id (`None` for other instructions).
    assign_of: Vec<Option<u32>>,
    /// Set when an interned instruction carries an assignment pattern the
    /// universe does not know (only possible through a mutating hook);
    /// consumed at the end of every sync.
    stale: bool,
    /// The graph revision the mirror below describes, `None` before the
    /// first sync.
    synced: Option<u64>,
    /// Interned instruction ids per block: the mirror of the program.
    pub(crate) block_keys: Vec<Vec<InstrId>>,
    /// Cached hash of every block's content ([`block_hash`]).
    block_hashes: Vec<u64>,
    /// Per block, the stamp of its current content: unique across the
    /// context's lifetime and never 0, so a row tagged with it is current
    /// exactly when the stamps match.
    pub(crate) block_stamps: Vec<u64>,
    next_stamp: u64,
    /// The first stamp handed out in the current round; a block stamped
    /// before it is counted dirty on its first re-stamp of the round.
    round_stamp: u64,
    /// Position-keyed sum of the block hashes ([`slot_hash`]).
    block_sum: u64,
    /// Fingerprints of the edges and of the whole shape (edges plus the
    /// boundary nodes), taken at the last full re-sync.
    pub(crate) edge_hash: u64,
    shape_hash: u64,
    /// Table 2 rows dense by interned instruction id. The interner hands
    /// out dense indices, so the row of an already-seen instruction is one
    /// bounds-checked array load.
    pub(crate) rae_rows: Vec<Option<Row>>,
    /// The node-level Table 2 problem, which blocks hold an occurrence of
    /// their own pattern, and the block stamp every row was built from.
    pub(crate) rae_problem: Option<Problem>,
    pub(crate) rae_occurs: Vec<bool>,
    pub(crate) rae_stamps: Vec<u64>,
    /// Detached fact buffers of the previous Table 2 solve, recycled into
    /// the next one (the facts themselves are reinitialized).
    pub(crate) rae_solution: Option<Solution>,
    /// The last hoist analysis with the edge fingerprint it was solved
    /// on: its rows are the current Table 1 rows (tagged by
    /// [`Self::hoist_stamps`]) and its solution warm-starts the next solve.
    pub(crate) hoist: Option<(u64, HoistAnalysis)>,
    pub(crate) hoist_stamps: Vec<u64>,
    /// The solution displaced from [`Self::hoist`] a round ago, whose
    /// buffers the next hoist solve reuses.
    pub(crate) hoist_spare: Option<Solution>,
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
}

impl MotionContext {
    /// Builds the context for a motion run over `g`.
    pub(crate) fn new(g: &FlowGraph) -> Self {
        let universe = PatternUniverse::collect(g);
        let masks = PatternMasks::build(&universe, g.pool().len());
        MotionContext {
            universe: Rc::new(universe),
            masks,
            interner: InstrInterner::new(),
            assign_of: Vec::new(),
            stale: false,
            synced: None,
            block_keys: Vec::new(),
            block_hashes: Vec::new(),
            block_stamps: Vec::new(),
            next_stamp: 1,
            round_stamp: 1,
            block_sum: 0,
            edge_hash: 0,
            shape_hash: 0,
            rae_rows: Vec::new(),
            rae_problem: None,
            rae_occurs: Vec::new(),
            rae_stamps: Vec::new(),
            rae_solution: None,
            hoist: None,
            hoist_stamps: Vec::new(),
            hoist_spare: None,
            node_system: None,
            last_hoist: None,
            rows_reused: 0,
            rows_recomputed: 0,
            hoist_skipped: 0,
            hoist_warm: 0,
            dirty_blocks: 0,
            identity_blocks: 0,
        }
    }

    /// Extends the universe over `g` and drops every pattern-indexed
    /// cache. Called when the program contains an assignment pattern the
    /// current universe does not know (only possible through a mutating
    /// hook). Extension keeps all existing pattern ids stable — new
    /// patterns take fresh indices — so nothing that survives the refresh
    /// (schedules, the interner, the mirror) has to be renumbered; the
    /// caches cleared here are exactly the ones whose bitset width depends
    /// on the universe size.
    fn refresh(&mut self, g: &FlowGraph) {
        // Drop the analysis sharing the universe first, so the extension
        // happens in place.
        self.hoist = None;
        self.hoist_spare = None;
        Rc::make_mut(&mut self.universe).extend(g);
        self.masks = PatternMasks::build(&self.universe, g.pool().len());
        self.rae_rows.clear();
        self.rae_problem = None;
        self.rae_stamps.clear();
        self.hoist_stamps.clear();
        // Every unknown pattern interned so far is in `g`, so the mirror
        // names every id whose pattern index may have appeared.
        for &id in self.block_keys.iter().flatten() {
            self.assign_of[id.index()] = assign_index(self.interner.instr(id), &self.universe);
        }
        self.stale = false;
    }

    /// Interns one instruction, flagging the context stale when a *new*
    /// content carries an assignment pattern the universe does not know.
    /// The universe only grows, so any instruction interned before is
    /// covered forever and the check runs exactly once per distinct
    /// content.
    fn intern_instr(&mut self, instr: &Instr) -> InstrId {
        let (id, is_new) = self.interner.intern(instr);
        if is_new {
            let pattern = assign_index(instr, &self.universe);
            self.stale |= matches!(instr, Instr::Assign { .. }) && pattern.is_none();
            self.assign_of.push(pattern);
        }
        id
    }

    /// Interns the instructions of block `n` into `keys`, replacing its
    /// contents.
    fn intern_block(&mut self, g: &FlowGraph, n: NodeId, keys: &mut Vec<InstrId>) {
        keys.clear();
        for instr in &g.block(n).instrs {
            keys.push(self.intern_instr(instr));
        }
    }

    /// Brings the program mirror up to date with `g`: free when the graph
    /// is at the revision the context last produced or observed, a full
    /// re-sync otherwise.
    pub(crate) fn sync(&mut self, g: &FlowGraph) {
        if self.synced != Some(g.revision()) {
            self.resync(g);
        }
    }

    /// Re-interns and re-hashes every block of `g` and re-takes the edge
    /// fingerprints; blocks whose interned content changed (all of them on
    /// the first sync) get a fresh stamp, so their rows are rebuilt.
    fn resync(&mut self, g: &FlowGraph) {
        let first = self.synced.is_none();
        let nodes = g.node_count();
        self.block_keys.resize_with(nodes, Vec::new);
        self.block_hashes.resize(nodes, 0);
        self.block_stamps.resize(nodes, 0);
        let mut keys = Vec::new();
        for n in g.nodes() {
            let i = n.index();
            self.intern_block(g, n, &mut keys);
            if self.block_stamps[i] == 0 || self.block_keys[i] != keys {
                std::mem::swap(&mut self.block_keys[i], &mut keys);
                self.block_hashes[i] = block_hash(&self.interner, &self.block_keys[i]);
                self.restamp(i, !first);
            }
        }
        self.block_sum = self
            .block_hashes
            .iter()
            .enumerate()
            .fold(0, |sum, (i, &h)| sum.wrapping_add(slot_hash(i, h)));
        self.edge_hash = edge_hash(g);
        let mut h = FxMapHasher::default();
        g.start().index().hash(&mut h);
        g.end().index().hash(&mut h);
        h.write_u64(self.edge_hash);
        self.shape_hash = h.finish();
        if self.stale {
            self.refresh(g);
        }
        if first {
            // The first sync builds the mirror; it is no round's change.
            self.round_stamp = self.next_stamp;
        }
        self.synced = Some(g.revision());
    }

    /// Re-syncs the blocks `changed` that the context itself just rewrote
    /// in `g` (which was in sync before the rewrite): re-interns, re-hashes
    /// and re-stamps only those, and folds their new hashes into the
    /// fingerprint.
    pub(crate) fn note_rewritten(&mut self, g: &FlowGraph, changed: &[NodeId]) {
        for &n in changed {
            let i = n.index();
            let mut keys = std::mem::take(&mut self.block_keys[i]);
            self.intern_block(g, n, &mut keys);
            let hash = block_hash(&self.interner, &keys);
            self.block_keys[i] = keys;
            self.block_sum = self
                .block_sum
                .wrapping_sub(slot_hash(i, self.block_hashes[i]))
                .wrapping_add(slot_hash(i, hash));
            self.block_hashes[i] = hash;
            self.restamp(i, true);
        }
        if self.stale {
            self.refresh(g);
        }
        self.synced = Some(g.revision());
    }

    /// Gives block `i` a fresh content stamp, counting it dirty (when
    /// `count`) on its first re-stamp of the round.
    fn restamp(&mut self, i: usize, count: bool) {
        if count && self.block_stamps[i] < self.round_stamp {
            self.dirty_blocks += 1;
        }
        self.block_stamps[i] = self.next_stamp;
        self.next_stamp += 1;
    }

    /// Fingerprint of the whole program — blocks, edges and boundary
    /// nodes — read off the mirror after a [`Self::sync`]. The motion loop
    /// uses it both for the hoist no-op skip and as the convergence check,
    /// avoiding a full program clone per round; a collision can only skip
    /// a no-op re-solve or end the loop a round early, never corrupt a
    /// result.
    pub(crate) fn fingerprint(&mut self, g: &FlowGraph) -> u64 {
        self.sync(g);
        let mut h = FxMapHasher::default();
        h.write_u64(self.shape_hash);
        h.write_u64(self.block_sum);
        h.finish()
    }

    /// First-occurrence rank of every assignment pattern in the mirrored
    /// program (`None` for patterns without occurrences), read from the
    /// interned ids.
    pub(crate) fn occurrence_ranks(&self) -> Vec<Option<u32>> {
        let mut ranks: Vec<Option<u32>> = vec![None; self.universe.assign_count()];
        let mut next = 0u32;
        for &id in self.block_keys.iter().flatten() {
            if let Some(i) = self.assign_pattern(id) {
                let rank = &mut ranks[i];
                if rank.is_none() {
                    *rank = Some(next);
                    next += 1;
                }
            }
        }
        ranks
    }

    /// The universe index of the assignment pattern of interned
    /// instruction `id` (`None` for other instructions).
    pub(crate) fn assign_pattern(&self, id: InstrId) -> Option<usize> {
        self.assign_of[id.index()].map(|i| i as usize)
    }

    /// Caches the Table 2 row of interned instruction `id`;
    /// `redundancy_row` runs once per distinct content.
    pub(crate) fn cache_rae_row(&mut self, id: InstrId, instr: &Instr) {
        let idx = id.index();
        if idx >= self.rae_rows.len() {
            self.rae_rows.resize_with(idx + 1, || None);
        }
        if self.rae_rows[idx].is_none() {
            self.rows_recomputed += 1;
            self.rae_rows[idx] = Some(redundancy_row(instr, &self.universe, &self.masks));
        } else {
            self.rows_reused += 1;
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
        let (locs, sol) = self.redundant_locs(g, recorder, round);
        let changed = remove_locs(g, &locs);
        self.note_rewritten(g, &changed);
        let outcome = RaeOutcome {
            eliminated: locs.len(),
            iterations: sol.iterations,
            worklist_pushes: sol.worklist_pushes,
            max_worklist_len: sol.max_worklist_len,
        };
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
        let (outcome, rewritten) = apply_insertion_step(g, &analysis, None, recorder, round);
        self.note_rewritten(g, &rewritten.blocks);
        self.identity_blocks += rewritten.identity as u64;
        self.hoist = Some((self.edge_hash, analysis));
        self.last_hoist = Some((input_hash, outcome.changed));
        span.arg("inserted", outcome.inserted as i64)
            .arg("removed", outcome.removed as i64);
        outcome
    }

    /// Ends a round: attaches its block counts to the round `span`, emits
    /// the per-round incrementality counters, and resets them. A disabled
    /// tracer costs one branch.
    pub(crate) fn end_round(&mut self, tracer: &Tracer, span: &mut Span) {
        if tracer.enabled() {
            let (dirty, identity) = (self.dirty_blocks as i64, self.identity_blocks as i64);
            span.arg("dirty_blocks", dirty)
                .arg("identity_blocks", identity);
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
        self.round_stamp = self.next_stamp;
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

/// Hash of one block's content, composed from the interner's cached
/// per-instruction hashes.
fn block_hash(interner: &InstrInterner, keys: &[InstrId]) -> u64 {
    let mut h = FxMapHasher::default();
    h.write_usize(keys.len());
    for &id in keys {
        h.write_u64(interner.hash(id));
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

/// Fingerprint of the node-level edges.
fn edge_hash(g: &FlowGraph) -> u64 {
    let mut h = FxMapHasher::default();
    g.node_count().hash(&mut h);
    for n in g.nodes() {
        for &m in g.succs(n) {
            m.index().hash(&mut h);
        }
        0xffusize.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalConfig;
    use crate::motion::{assignment_motion, assignment_motion_with, default_round_budget};
    use crate::motion::{MotionOrder, MotionStats};
    use am_ir::random::{corpus80, structured, SplitMix64, StructuredConfig};
    use am_ir::{Operand, Term};

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

    /// The maintained mirror — block keys, per-block hashes, stamps and
    /// the fingerprint — equals a full re-sync of the same context, and a
    /// fresh context (whose hashes are structural) agrees on the hashes.
    fn assert_mirror_is_exact(ctx: &mut MotionContext, g: &FlowGraph, at: &str) {
        let fingerprint = ctx.fingerprint(g);
        let keys = ctx.block_keys.clone();
        let hashes = ctx.block_hashes.clone();
        let stamps = ctx.block_stamps.clone();
        ctx.synced = None;
        assert_eq!(ctx.fingerprint(g), fingerprint, "{at}: fingerprint");
        assert_eq!(ctx.block_keys, keys, "{at}: block keys");
        assert_eq!(ctx.block_hashes, hashes, "{at}: block hashes");
        assert_eq!(ctx.block_stamps, stamps, "{at}: a re-sync found a change");
        let mut fresh = MotionContext::new(g);
        assert_eq!(fresh.fingerprint(g), fingerprint, "{at}: fresh fingerprint");
        assert_eq!(fresh.block_hashes, hashes, "{at}: fresh block hashes");
    }

    #[test]
    fn incremental_mirror_equals_a_full_resync_after_every_round() {
        let (tracer, recorder) = (Tracer::disabled(), ProvRecorder::disabled());
        for (p, program) in programs().into_iter().enumerate() {
            let mut g = program.clone();
            let mut ctx = MotionContext::new(&g);
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
            .filter(|&n| {
                g.block(n)
                    .instrs
                    .iter()
                    .any(|i| matches!(i, Instr::Assign { .. }))
            })
            .last()
        else {
            return;
        };
        let lhs = g
            .block(n)
            .instrs
            .iter()
            .find_map(Instr::def)
            .expect("an assignment");
        match round {
            1 => {
                g.block_mut(n).instrs.remove(0);
            }
            2 => {
                let start = g.start();
                g.block_mut(start).instrs.push(Instr::Assign {
                    lhs,
                    rhs: Term::Operand(Operand::Const(7_654_321)),
                });
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
            // Touching a block every round moves the revision, so this
            // context re-syncs from scratch at every round entry.
            let resynced = run(&program, &mut |round, g| {
                rewrite_behind_the_back(round, g);
                let start = g.start();
                g.block_mut(start);
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
                    .filter(|&n| g.block(n) != previous.block(n))
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
}
