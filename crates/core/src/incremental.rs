//! Round-incremental state for the assignment-motion fixed point.
//!
//! Every round of [`assignment_motion`](crate::motion::assignment_motion)
//! re-solves the Table 1 and Table 2 systems on a program that usually
//! differs from the previous round in a handful of instructions. The naive
//! loop rebuilds everything from scratch each round; [`MotionContext`]
//! carries the parts that survive. The tables themselves are implemented
//! once, in [`crate::rae`] and [`crate::hoist`], against these caches; the
//! one-shot entries there run the same code on a fresh context.
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
//! * **Gen/kill rows** — Table 2 rows keyed by hash-consed instruction id
//!   ([`am_ir::intern::InstrInterner`]) and Table 1 block locals keyed by
//!   the block's id vector. Each distinct instruction content is
//!   structurally hashed once, at interning; from then on row lookups,
//!   block keys and the program content hash compose cached hashes and
//!   compare ids. Unchanged instructions and blocks reuse their rows; the
//!   `incremental/gen_kill_rows` trace counter reports the hit rate per
//!   round.
//! * **Node system** — the block adjacency and solver schedule shared by
//!   both tables, reused while the edge fingerprint is unchanged, so the
//!   RPO traversals are not re-derived per solve.
//! * **Previous hoist system** — when a round's Table 1 rows changed only
//!   monotonically downward (candidates lost, blockades gained), the
//!   backward must system is re-solved from the previous greatest solution
//!   with only the dirty nodes seeded ([`am_dfa::solve_seeded`]); the old
//!   solution is a post-fixed point of the lowered system, so the descent
//!   reaches the new greatest fixed point. Non-monotone changes fall back
//!   to a cold scheduled solve. A round whose hoist input is byte-identical
//!   to the previous round's (last elimination found nothing and the last
//!   hoist was a no-op) skips the solve outright.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;

use am_dfa::{
    node_adjacency, solve_scheduled, solve_seeded, Adjacency, PatternMasks, Problem, Schedule,
    Solution,
};
use am_ir::intern::{InstrId, InstrInterner};
use am_ir::{AssignPattern, FlowGraph, Instr, PatternUniverse};
use am_obs::ProvRecorder;
use am_trace::Tracer;

use crate::hoist::{apply_insertion_step, BlockLocals, HoistAnalysis, HoistOutcome};
use crate::rae::{redundancy_row, remove_locs, RaeBlockRow, RaeOutcome, Row};

/// Multiply-rotate hasher in the FxHash family. The row caches hash every
/// instruction once per round and the fingerprints hash the whole program;
/// SipHash is measurable overhead at that call frequency, and none of these
/// tables face untrusted keys. Map collisions are resolved by `Eq`;
/// fingerprint collisions can only skip a no-op re-solve or end the motion
/// loop a round early, never corrupt a result.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = tail << 8 | b as u64;
        }
        self.add(tail);
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

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
    /// Hash-consing interner shared by every fingerprint below: each
    /// distinct instruction content is structurally hashed once, after
    /// which row lookups compare ids and the program content hash composes
    /// cached per-instruction hashes.
    interner: InstrInterner,
    /// Set when an interned instruction carries an assignment pattern the
    /// universe does not know (only possible through a mutating hook);
    /// consumed by [`Self::intern_blocks`].
    stale: bool,
    /// Table 2 rows dense by interned instruction id. The interner hands
    /// out dense indices, so the row of an already-seen instruction is one
    /// bounds-checked array load.
    pub(crate) rae_rows: Vec<Option<Row>>,
    /// Composed Table 2 transfer of a whole block, by interned block
    /// content — the node-level row the redundancy system is solved over.
    pub(crate) rae_blocks: HashMap<Vec<InstrId>, RaeBlockRow, FxBuild>,
    /// Table 1 locals by interned block content.
    pub(crate) hoist_rows: HashMap<Vec<InstrId>, BlockLocals, FxBuild>,
    /// Reusable node-level Table 2 problem buffers; every node's row is
    /// overwritten each round, so reuse only checks the universe width.
    pub(crate) rae_problem: Option<Problem>,
    /// Node-level adjacency and schedule, keyed by the edge fingerprint.
    node_system: Option<NodeSystem>,
    /// The previous round's hoist analysis and its edge fingerprint, the
    /// warm start of the next hoist solve.
    prev_hoist: Option<(u64, HoistAnalysis)>,
    /// The hoist analysis displaced from [`Self::prev_hoist`] a round ago,
    /// whose buffers the next hoist analysis reuses.
    pub(crate) hoist_spare: Option<HoistAnalysis>,
    /// Detached fact buffers of the previous Table 2 solve, recycled into
    /// the next one (the facts themselves are reinitialized).
    pub(crate) rae_solution: Option<Solution>,
    /// Interned instruction ids per block of the program last interned
    /// ([`Self::intern_blocks`]): the row caches' keys. The buffers are
    /// reused across rounds.
    pub(crate) block_keys: Vec<Vec<InstrId>>,
    /// Content hash of the last hoist input and whether that hoist changed
    /// the program; a byte-identical re-run of a no-op is skipped.
    last_hoist: Option<(u64, bool)>,
    /// `(graph revision, content hash)` memo for [`Self::content_hash`].
    content_memo: Option<(u64, u64)>,
    pub(crate) rows_reused: u64,
    pub(crate) rows_recomputed: u64,
    hoist_skipped: u64,
    hoist_warm: u64,
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
            stale: false,
            rae_rows: Vec::new(),
            rae_blocks: HashMap::default(),
            hoist_rows: HashMap::default(),
            rae_problem: None,
            node_system: None,
            prev_hoist: None,
            hoist_spare: None,
            rae_solution: None,
            block_keys: Vec::new(),
            last_hoist: None,
            content_memo: None,
            rows_reused: 0,
            rows_recomputed: 0,
            hoist_skipped: 0,
            hoist_warm: 0,
        }
    }

    /// Extends the universe over `g` and drops every pattern-indexed
    /// cache. Called when the program contains an assignment pattern the
    /// current universe does not know (only possible through a mutating
    /// hook). Extension keeps all existing pattern ids stable — new
    /// patterns take fresh indices — so nothing that survives the refresh
    /// (schedules, the interner) has to be renumbered; the caches cleared
    /// here are exactly the ones whose bitset width depends on the universe
    /// size.
    fn refresh(&mut self, g: &FlowGraph) {
        // Drop the analyses sharing the universe first, so the extension
        // happens in place.
        self.prev_hoist = None;
        self.hoist_spare = None;
        Rc::make_mut(&mut self.universe).extend(g);
        self.masks = PatternMasks::build(&self.universe, g.pool().len());
        self.rae_rows.clear();
        self.rae_blocks.clear();
        self.hoist_rows.clear();
        self.rae_problem = None;
        self.stale = false;
    }

    /// Interns one instruction, flagging the context stale when a *new*
    /// content carries an assignment pattern the universe does not know.
    /// The universe only grows, so any instruction interned before is
    /// covered forever and the check runs exactly once per distinct
    /// content — staleness detection costs nothing beyond the intern
    /// lookup that the row caches need anyway.
    fn intern_instr(&mut self, instr: &Instr) -> InstrId {
        let (id, is_new) = self.interner.intern(instr);
        if is_new {
            if let Instr::Assign { lhs, rhs } = instr {
                if self
                    .universe
                    .assign_id(&AssignPattern::new(*lhs, *rhs))
                    .is_none()
                {
                    self.stale = true;
                }
            }
        }
        id
    }

    /// Interns every instruction of `g` into [`Self::block_keys`], then
    /// refreshes the universe if an instruction carries a pattern it does
    /// not know.
    pub(crate) fn intern_blocks(&mut self, g: &FlowGraph) {
        let mut keys = std::mem::take(&mut self.block_keys);
        keys.iter_mut().for_each(Vec::clear);
        keys.resize_with(g.node_count(), Vec::new);
        for n in g.nodes() {
            for instr in &g.block(n).instrs {
                keys[n.index()].push(self.intern_instr(instr));
            }
        }
        self.block_keys = keys;
        if self.stale {
            self.refresh(g);
        }
    }

    /// Content hash of the whole program — blocks, edges and boundary
    /// nodes — composed from the interner's cached per-instruction hashes.
    /// The motion loop uses it both for the hoist no-op skip and as the
    /// convergence check, avoiding a full program clone per round; a
    /// collision can only skip a no-op re-solve or end the loop a round
    /// early, never corrupt a result.
    ///
    /// Memoized on [`FlowGraph::revision`]: the end-of-round convergence
    /// hash doubles as the next round's entry hash for free, because the
    /// graph is only touched through `&mut` accessors in between (round
    /// hooks included — a mutating hook bumps the revision and invalidates
    /// the memo).
    pub(crate) fn content_hash(&mut self, g: &FlowGraph) -> u64 {
        if let Some((revision, hash)) = self.content_memo {
            if revision == g.revision() {
                return hash;
            }
        }
        let hash = self.content_hash_uncached(g);
        self.content_memo = Some((g.revision(), hash));
        hash
    }

    fn content_hash_uncached(&mut self, g: &FlowGraph) -> u64 {
        let mut h = FxHasher::default();
        g.start().index().hash(&mut h);
        g.end().index().hash(&mut h);
        g.node_count().hash(&mut h);
        for n in g.nodes() {
            for instr in &g.block(n).instrs {
                let id = self.intern_instr(instr);
                h.write_u64(self.interner.hash(id));
            }
            for &m in g.succs(n) {
                m.index().hash(&mut h);
            }
            0xffusize.hash(&mut h);
        }
        h.finish()
    }

    /// First-occurrence rank of every assignment pattern in `g` (`None` for
    /// patterns without occurrences), refreshing the universe first if it
    /// is stale.
    pub(crate) fn occurrence_ranks(&mut self, g: &FlowGraph) -> Vec<Option<u32>> {
        if let Some(ranks) = occurrence_ranks_in(g, &self.universe) {
            return ranks;
        }
        self.refresh(g);
        occurrence_ranks_in(g, &self.universe).expect("fresh universe covers the program")
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

    /// The node-level adjacency and schedule of `g`, rebuilt only when the
    /// block edges changed.
    pub(crate) fn node_system(&mut self, g: &FlowGraph) -> &NodeSystem {
        let edge_hash = edge_hash(g);
        let valid = matches!(&self.node_system,
            Some(ns) if ns.edge_hash == edge_hash && ns.succs.len() == g.node_count());
        if !valid {
            let (succs, preds) = node_adjacency(g);
            let schedule = Schedule::build(&succs, &preds);
            self.node_system = Some(NodeSystem {
                edge_hash,
                succs,
                preds,
                schedule,
            });
        }
        self.node_system.as_ref().expect("node system built above")
    }

    /// Solves the Table 1 system `problem` over the node system of `g`.
    ///
    /// When the previous round's rows changed only monotonically downward
    /// (candidates lost, blockades gained), the backward must system is
    /// re-solved from the previous greatest solution with only the dirty
    /// nodes seeded ([`am_dfa::solve_seeded`]): the old solution is a
    /// post-fixed point of the lowered system, so the descent reaches the
    /// new greatest fixed point. Non-monotone changes fall back to a cold
    /// scheduled solve. `recycled` lends its fact buffers either way.
    pub(crate) fn solve_hoistability(
        &mut self,
        g: &FlowGraph,
        problem: &Problem,
        recycled: Option<Solution>,
    ) -> Solution {
        let nodes = g.node_count();
        self.node_system(g);
        let ns = self.node_system.as_ref().expect("node system built above");
        let warm = self.prev_hoist.as_ref().and_then(|(edge_hash, prev)| {
            if *edge_hash != ns.edge_hash || prev.loc_hoistable.len() != nodes {
                return None;
            }
            let (gen, kill) = (&prev.loc_hoistable, &prev.loc_blocked);
            let dirty: Vec<usize> = (0..nodes)
                .filter(|&i| gen[i] != problem.gen[i] || kill[i] != problem.kill[i])
                .collect();
            let lowered = dirty
                .iter()
                .all(|&i| problem.gen[i].is_subset(&gen[i]) && kill[i].is_subset(&problem.kill[i]));
            lowered.then_some((&prev.hoistable, dirty))
        });
        let (succs, preds, schedule) = (&ns.succs, &ns.preds, &ns.schedule);
        match warm {
            Some((prev, dirty)) => {
                self.hoist_warm += 1;
                solve_seeded(succs, preds, problem, schedule, prev, &dirty, recycled)
            }
            None => solve_scheduled(succs, preds, problem, schedule, recycled),
        }
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
        remove_locs(g, &locs);
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
    /// an `analysis/aht` span, skipped outright when its input is
    /// byte-identical to a previous hoist that changed nothing.
    /// `known_hash` is the content hash of `g` when the caller already has
    /// it (the motion loop hashes the program at round entry).
    pub(crate) fn hoist_round(
        &mut self,
        g: &mut FlowGraph,
        tracer: &Tracer,
        known_hash: Option<u64>,
        recorder: &ProvRecorder,
        round: u32,
    ) -> HoistOutcome {
        let input_hash = match known_hash {
            Some(h) => h,
            None => self.content_hash(g),
        };
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
        let outcome = apply_insertion_step(g, &analysis, None, recorder, round);
        let edge_hash = self.node_system.as_ref().map_or(0, |ns| ns.edge_hash);
        if let Some((_, old)) = self.prev_hoist.replace((edge_hash, analysis)) {
            self.hoist_spare = Some(old);
        }
        self.last_hoist = Some((input_hash, outcome.changed));
        span.arg("inserted", outcome.inserted as i64)
            .arg("removed", outcome.removed as i64);
        outcome
    }

    /// Emits and resets the per-round incrementality counters.
    pub(crate) fn emit_round_counters(&mut self, tracer: &Tracer) {
        tracer.counter(
            "incremental",
            "gen_kill_rows",
            &[
                ("reused", self.rows_reused as i64),
                ("recomputed", self.rows_recomputed as i64),
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
        self.rows_reused = 0;
        self.rows_recomputed = 0;
        self.hoist_skipped = 0;
        self.hoist_warm = 0;
    }
}

/// First-occurrence ranks over `universe`, or `None` if the program
/// contains an assignment pattern the universe does not know.
fn occurrence_ranks_in(g: &FlowGraph, universe: &PatternUniverse) -> Option<Vec<Option<u32>>> {
    let mut ranks: Vec<Option<u32>> = vec![None; universe.assign_count()];
    let mut next = 0u32;
    for (_, instr) in g.locs() {
        if let Instr::Assign { lhs, rhs } = instr {
            let i = universe.assign_id(&AssignPattern::new(*lhs, *rhs))?;
            if ranks[i].is_none() {
                ranks[i] = Some(next);
                next += 1;
            }
        }
    }
    Some(ranks)
}

/// Fingerprint of the node-level edges.
fn edge_hash(g: &FlowGraph) -> u64 {
    let mut h = FxHasher::default();
    g.node_count().hash(&mut h);
    for n in g.nodes() {
        for &m in g.succs(n) {
            m.index().hash(&mut h);
        }
        0xffusize.hash(&mut h);
    }
    h.finish()
}
