//! Round-incremental state for the assignment-motion fixed point.
//!
//! Every round of [`assignment_motion`](crate::motion::assignment_motion)
//! re-solves the Table 1 and Table 2 systems on a program that usually
//! differs from the previous round in a handful of instructions. The naive
//! loop rebuilds everything from scratch each round; [`MotionContext`]
//! carries the parts that survive:
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
//! * **Schedules** — the instruction-level and node-level solver schedules,
//!   reused while the structure fingerprint (block lengths + edges) is
//!   unchanged, so the RPO traversals are not re-derived per solve.
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

use am_bitset::BitSet;
use am_dfa::{
    node_adjacency, solve_scheduled_reusing, solve_seeded_reusing, Adjacency, Confluence,
    Direction, PatternMasks, Problem, Schedule, Solution,
};
use am_ir::intern::{InstrId, InstrInterner};
use am_ir::{AssignPattern, FlowGraph, Instr, Loc, PatternUniverse};
use am_obs::{ProvKind, ProvRecord, ProvRecorder};
use am_trace::Tracer;

use crate::hoist::{block_locals, insertion_points_reusing, HoistOutcome};
use crate::rae::{redundancy_row, remove_locs, RaeOutcome};

/// Multiply-rotate hasher in the FxHash family. The row caches hash every
/// instruction once per round and the fingerprints hash the whole program;
/// SipHash is measurable overhead at that call frequency, and none of these
/// tables face untrusted keys. Map collisions are resolved by `Eq`;
/// fingerprint collisions can only skip a no-op re-solve or end the motion
/// loop a round early, never corrupt a result.
#[derive(Default)]
struct FxHasher(u64);

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

type FxBuild = BuildHasherDefault<FxHasher>;

/// Table 1 locals of one block (see [`block_locals`]).
#[derive(Clone)]
struct BlockLocals {
    hoistable: BitSet,
    blocked: BitSet,
    candidates: Vec<(usize, usize)>,
}

/// The previous round's hoist system and solution, kept for warm-started
/// re-solves. All content-addressed: a hook that rewires the graph changes
/// the edge hash and invalidates it.
struct PrevHoist {
    edge_hash: u64,
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
    solution: Solution,
}

/// The composed Table 2 transfer of one block: `out = gen ∪ (in ∖ kill)`
/// over the whole instruction sequence (fold of the per-instruction rows:
/// `gen := (gen ∖ kill_i) ∪ gen_i`, `kill := kill ∪ kill_i`). `occurs`
/// records whether any instruction carries its own pattern bit — blocks
/// without an occurrence can never host an elimination, so the recovery
/// pass skips them.
struct RaeBlockRow {
    gen: BitSet,
    kill: BitSet,
    occurs: bool,
}

/// The node-level solver system shared by the redundancy and hoist passes
/// of every round with the same block edges: adjacency lists plus the
/// priority schedule, borrowed in place (never cloned).
struct NodeSystem {
    edge_hash: u64,
    succs: Adjacency,
    preds: Adjacency,
    schedule: Schedule,
}

/// State carried across assignment-motion rounds.
pub(crate) struct MotionContext {
    universe: PatternUniverse,
    masks: PatternMasks,
    /// Hash-consing interner shared by every fingerprint below: each
    /// distinct instruction content is structurally hashed once, after
    /// which row lookups compare ids and the program content hash composes
    /// cached per-instruction hashes.
    interner: InstrInterner,
    /// Set when an interned instruction carries an assignment pattern the
    /// universe does not know (only possible through a mutating hook);
    /// consumed by [`Self::refresh_if_stale`].
    stale: bool,
    /// Table 2 rows dense by interned instruction id: `(own pattern bit,
    /// kill set)`. The interner hands out dense indices, so the row of an
    /// already-seen instruction is one bounds-checked array load.
    rae_rows: Vec<Option<(Option<usize>, BitSet)>>,
    /// Composed Table 2 transfer of a whole block, by interned block
    /// content — the node-level gen/kill row the redundancy system is
    /// solved over (see [`MotionContext::rae_round`]).
    rae_blocks: HashMap<Vec<InstrId>, RaeBlockRow, FxBuild>,
    /// Table 1 locals by interned block content.
    hoist_rows: HashMap<Vec<InstrId>, BlockLocals, FxBuild>,
    /// Reusable node-level Table 2 problem buffers; every node's row is
    /// overwritten each round, so reuse only checks the universe width.
    rae_problem: Option<Problem>,
    /// Node-level adjacency and schedule, keyed by the edge fingerprint.
    node_system: Option<NodeSystem>,
    prev_hoist: Option<PrevHoist>,
    /// Detached fact buffers of the previous Table 2 solve, recycled into
    /// the next one (the facts themselves are reinitialized).
    rae_solution: Option<Solution>,
    /// Fact buffers of the hoist solution displaced from [`Self::prev_hoist`]
    /// a round ago, recycled into the next hoist solve.
    hoist_solution: Option<Solution>,
    /// Displaced hoist problem rows (gen, kill), recycled likewise.
    hoist_rows_spare: Option<(Vec<BitSet>, Vec<BitSet>)>,
    /// Last round's insertion tables, recycled into the next round.
    insert_spare: Option<(Vec<BitSet>, Vec<BitSet>)>,
    /// Per-block intern-key buffers, reused across rounds (each pass
    /// clears and refills them; elimination changes block contents between
    /// the redundancy and hoist passes, so they cannot share one filling).
    block_keys: Vec<Vec<InstrId>>,
    /// Content hash of the last hoist input and whether that hoist changed
    /// the program; a byte-identical re-run of a no-op is skipped.
    last_hoist: Option<(u64, bool)>,
    /// `(graph revision, content hash)` memo for [`Self::content_hash`].
    content_memo: Option<(u64, u64)>,
    rows_reused: u64,
    rows_recomputed: u64,
    hoist_skipped: u64,
    hoist_warm: u64,
}

impl MotionContext {
    /// Builds the context for a motion run over `g`.
    pub(crate) fn new(g: &FlowGraph) -> Self {
        let universe = PatternUniverse::collect(g);
        let masks = PatternMasks::build(&universe, g.pool().len());
        MotionContext {
            universe,
            masks,
            interner: InstrInterner::new(),
            stale: false,
            rae_rows: Vec::new(),
            rae_blocks: HashMap::default(),
            hoist_rows: HashMap::default(),
            rae_problem: None,
            node_system: None,
            prev_hoist: None,
            rae_solution: None,
            hoist_solution: None,
            hoist_rows_spare: None,
            insert_spare: None,
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
    /// (schedules, the interner, the previous point structure) has to be
    /// renumbered; the caches cleared here are exactly the ones whose
    /// bitset width depends on the universe size.
    fn refresh(&mut self, g: &FlowGraph) {
        self.universe.extend(g);
        self.masks = PatternMasks::build(&self.universe, g.pool().len());
        self.rae_rows.clear();
        self.rae_blocks.clear();
        self.hoist_rows.clear();
        self.rae_problem = None;
        self.prev_hoist = None;
        self.stale = false;
    }

    /// Consumes the staleness flag raised by [`Self::intern_instr`].
    fn refresh_if_stale(&mut self, g: &FlowGraph) {
        if self.stale {
            self.refresh(g);
        }
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
    fn occurrence_ranks(&mut self, g: &FlowGraph) -> Vec<Option<u32>> {
        if let Some(ranks) = occurrence_ranks_in(g, &self.universe) {
            return ranks;
        }
        self.refresh(g);
        occurrence_ranks_in(g, &self.universe).expect("fresh universe covers the program")
    }

    /// Ensures the Table 2 row of interned instruction `id` exists and
    /// returns it. Rows are dense by id, so the hot path is two array
    /// checks; `redundancy_row` runs once per distinct content.
    fn rae_row(&mut self, id: InstrId, instr: &Instr) -> (Option<usize>, &BitSet) {
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
        let (own, kill) = self.rae_rows[idx].as_ref().expect("row filled above");
        (*own, kill)
    }

    /// One redundant-assignment-elimination pass with cached rows.
    ///
    /// The Table 2 system is solved at **node level**: each block's
    /// per-instruction gen/kill rows are composed into one transfer
    /// (`RaeBlockRow`, exact for gen/kill systems — interior points of a
    /// block have a single predecessor, so substituting them out preserves
    /// the greatest fixed point), the fixpoint runs over the block graph,
    /// and the per-instruction entry facts are recovered by streaming each
    /// block's transfer from the solved entry set. On XL graphs this
    /// shrinks the solved system by the average block length (≈5×) and
    /// turns the per-point fact recovery into a sequential scan — the
    /// instruction-level `PointGraph` is no longer built per round at all.
    pub(crate) fn rae_round(
        &mut self,
        g: &mut FlowGraph,
        tracer: &Tracer,
        recorder: &ProvRecorder,
        round: u32,
    ) -> RaeOutcome {
        let mut span = tracer.span("analysis", "rae");
        let nodes = g.node_count();
        // Intern every instruction once: the id vectors key the block-row
        // cache and the pass doubles as the staleness scan.
        let mut keys = std::mem::take(&mut self.block_keys);
        keys.iter_mut().for_each(Vec::clear);
        keys.resize_with(nodes, Vec::new);
        for n in g.nodes() {
            let key = &mut keys[n.index()];
            for instr in &g.block(n).instrs {
                key.push(self.intern_instr(instr));
            }
        }
        self.refresh_if_stale(g);
        let ap = self.universe.assign_count();
        let mut problem = match self.rae_problem.take() {
            // Every node's row is fully overwritten below, so reuse only
            // needs matching width and count.
            Some(mut p) if p.universe == ap => {
                p.gen.resize_with(nodes, || BitSet::new(ap));
                p.kill.resize_with(nodes, || BitSet::new(ap));
                p
            }
            _ => Problem::new(Direction::Forward, Confluence::Must, nodes, ap),
        };
        // Compose each block's transfer through the block-row cache, and
        // remember which blocks contain an occurrence at all.
        let mut occurs = vec![false; nodes];
        let mut gen_b = BitSet::new(ap);
        let mut kill_b = BitSet::new(ap);
        for n in g.nodes() {
            let ni = n.index();
            if let Some(row) = self.rae_blocks.get(&keys[ni]) {
                self.rows_reused += keys[ni].len() as u64;
                problem.gen[ni].copy_from(&row.gen);
                problem.kill[ni].copy_from(&row.kill);
                occurs[ni] = row.occurs;
                continue;
            }
            gen_b.clear();
            kill_b.clear();
            let mut any = false;
            for (j, instr) in g.block(n).instrs.iter().enumerate() {
                let (own, kill) = self.rae_row(keys[ni][j], instr);
                gen_b.difference_with(kill);
                kill_b.union_with(kill);
                if let Some(i) = own {
                    any = true;
                    gen_b.insert(i);
                }
            }
            problem.gen[ni].copy_from(&gen_b);
            problem.kill[ni].copy_from(&kill_b);
            occurs[ni] = any;
            self.rae_blocks.insert(
                keys[ni].clone(),
                RaeBlockRow {
                    gen: gen_b.clone(),
                    kill: kill_b.clone(),
                    occurs: any,
                },
            );
        }
        // Node adjacency + schedule, shared with the hoist pass of the
        // same round (elimination never rewires edges).
        let eh = edge_hash(g);
        let valid = matches!(&self.node_system,
            Some(ns) if ns.edge_hash == eh && ns.succs.len() == nodes);
        if !valid {
            let (succs, preds) = node_adjacency(g);
            let schedule = Schedule::build(&succs, &preds);
            self.node_system = Some(NodeSystem {
                edge_hash: eh,
                succs,
                preds,
                schedule,
            });
        }
        let ns = self.node_system.as_ref().expect("node system built above");
        let sol = solve_scheduled_reusing(
            &ns.succs,
            &ns.preds,
            &problem,
            &ns.schedule,
            self.rae_solution.take(),
        );
        // Recover per-instruction entry facts by streaming each block's
        // transfer from its solved entry set; an occurrence whose own bit
        // holds at its entry is redundant (Def. 3.4). Applying the transfer
        // of an instruction being eliminated is deliberate: the facts
        // describe the pre-removal program, exactly as the point-level
        // solve did.
        let mut locs: Vec<Loc> = Vec::new();
        let mut x = BitSet::new(ap);
        for n in g.nodes() {
            let ni = n.index();
            if !occurs[ni] {
                continue;
            }
            x.copy_from(&sol.before[ni]);
            for (j, instr) in g.block(n).instrs.iter().enumerate() {
                let (own, kill) = self.rae_rows[keys[ni][j].index()]
                    .as_ref()
                    .map(|(own, kill)| (*own, kill))
                    .expect("rows of composed blocks exist");
                if let Some(i) = own {
                    if x.contains(i) {
                        if recorder.is_enabled() {
                            recorder.record(ProvRecord {
                                kind: ProvKind::Eliminate,
                                phase: "motion",
                                round,
                                node: g.label(n).to_owned(),
                                index: Some(j as u32),
                                instr: instr.display(g.pool()),
                                new_instr: None,
                                pattern: Some(i as u32),
                                instr_id: Some(keys[ni][j].index() as u32),
                                justification: format!(
                                    "N-REDUNDANT bit {i} holds at entry of this occurrence (forward must solution)"
                                ),
                            });
                        }
                        locs.push(Loc { node: n, index: j });
                    }
                }
                x.difference_with(kill);
                if let Some(i) = own {
                    x.insert(i);
                }
            }
        }
        // Detach the problem, key and fact buffers for the next round.
        self.rae_problem = Some(problem);
        self.block_keys = keys;
        let (iterations, worklist_pushes, max_worklist_len) =
            (sol.iterations, sol.worklist_pushes, sol.max_worklist_len);
        self.rae_solution = Some(sol);
        let eliminated = locs.len();
        remove_locs(g, &locs);
        tracer.counter(
            "analysis",
            "rae",
            &[
                ("iterations", iterations as i64),
                ("worklist_pushes", worklist_pushes as i64),
                ("max_worklist_len", max_worklist_len as i64),
            ],
        );
        span.arg("eliminated", eliminated as i64);
        RaeOutcome {
            eliminated,
            iterations,
            worklist_pushes,
            max_worklist_len,
        }
    }

    /// One hoisting pass with cached block locals, schedule reuse, the
    /// no-op skip and the monotone warm-start path. `known_hash` is the
    /// content hash of `g` when the caller already has it (the motion loop
    /// hashes the program at round entry).
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
            // Byte-identical input to a hoist that changed nothing: the
            // deterministic analysis would reproduce that no-op.
            self.hoist_skipped += 1;
            return HoistOutcome::default();
        }
        let mut span = tracer.span("analysis", "aht");
        let nodes = g.node_count();
        // Intern every block once: the id vector is the row-cache key
        // (compared id-by-id on collision instead of re-walking the
        // instructions) and the pass doubles as staleness detection. The
        // key buffers persist across rounds.
        let mut keys = std::mem::take(&mut self.block_keys);
        keys.iter_mut().for_each(Vec::clear);
        keys.resize_with(nodes, Vec::new);
        for n in g.nodes() {
            let key = &mut keys[n.index()];
            for instr in &g.block(n).instrs {
                key.push(self.intern_instr(instr));
            }
        }
        self.refresh_if_stale(g);
        let occ_rank = self.occurrence_ranks(g);
        let ap = self.universe.assign_count();

        let mut problem = Problem::new(Direction::Backward, Confluence::Must, 0, ap);
        // Recycle the problem rows displaced from `prev_hoist` a round ago:
        // every node's gen/kill row is overwritten below, so only width and
        // count need fixing up.
        if let Some((gen, kill)) = self.hoist_rows_spare.take() {
            if gen.first().is_none_or(|r| r.len() == ap) {
                problem.gen = gen;
                problem.kill = kill;
            }
        }
        problem.gen.resize_with(nodes, || BitSet::new(ap));
        problem.kill.resize_with(nodes, || BitSet::new(ap));
        let mut candidates: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes];
        for n in g.nodes() {
            let ni = n.index();
            match self.hoist_rows.get(&keys[ni]) {
                Some(locals) => {
                    self.rows_reused += 1;
                    problem.gen[ni].copy_from(&locals.hoistable);
                    problem.kill[ni].copy_from(&locals.blocked);
                    candidates[ni].clone_from(&locals.candidates);
                }
                None => {
                    let (hoistable, blocked, cands) =
                        block_locals(&g.block(n).instrs, &self.universe, &self.masks);
                    self.rows_recomputed += 1;
                    problem.gen[ni].copy_from(&hoistable);
                    problem.kill[ni].copy_from(&blocked);
                    candidates[ni].clone_from(&cands);
                    self.hoist_rows.insert(
                        keys[ni].clone(),
                        BlockLocals {
                            hoistable,
                            blocked,
                            candidates: cands,
                        },
                    );
                }
            }
        }

        let edge_hash = edge_hash(g);
        let valid = matches!(&self.node_system,
            Some(ns) if ns.edge_hash == edge_hash && ns.succs.len() == nodes);
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
        let ns = self.node_system.as_ref().expect("node system built above");
        let (succs, preds, schedule) = (&ns.succs, &ns.preds, &ns.schedule);

        let warm = self.prev_hoist.as_ref().and_then(|prev| {
            if prev.edge_hash != edge_hash || prev.gen.len() != nodes {
                return None;
            }
            let dirty: Vec<usize> = (0..nodes)
                .filter(|&i| prev.gen[i] != problem.gen[i] || prev.kill[i] != problem.kill[i])
                .collect();
            let lowered = dirty.iter().all(|&i| {
                problem.gen[i].is_subset(&prev.gen[i]) && prev.kill[i].is_subset(&problem.kill[i])
            });
            lowered.then_some(dirty)
        });
        let recycled = self.hoist_solution.take();
        let sol = match warm {
            Some(dirty) => {
                self.hoist_warm += 1;
                let prev = self.prev_hoist.as_ref().expect("warm implies prev");
                solve_seeded_reusing(
                    succs,
                    preds,
                    &problem,
                    schedule,
                    &prev.solution,
                    &dirty,
                    recycled,
                )
            }
            None => solve_scheduled_reusing(succs, preds, &problem, schedule, recycled),
        };
        tracer.counter(
            "analysis",
            "aht",
            &[
                ("iterations", sol.iterations as i64),
                ("worklist_pushes", sol.worklist_pushes as i64),
                ("max_worklist_len", sol.max_worklist_len as i64),
            ],
        );

        let (n_insert, x_insert) = insertion_points_reusing(
            g,
            &sol.before,
            &sol.after,
            &problem.kill,
            ap,
            self.insert_spare.take(),
        );
        let mut outcome = apply_ordered(
            g,
            &self.universe,
            &n_insert,
            &x_insert,
            &candidates,
            &occ_rank,
            recorder,
            round,
        );
        outcome.iterations = sol.iterations;
        outcome.worklist_pushes = sol.worklist_pushes;
        outcome.max_worklist_len = sol.max_worklist_len;
        let displaced = self.prev_hoist.replace(PrevHoist {
            edge_hash,
            gen: std::mem::take(&mut problem.gen),
            kill: std::mem::take(&mut problem.kill),
            solution: sol,
        });
        if let Some(old) = displaced {
            self.hoist_rows_spare = Some((old.gen, old.kill));
            self.hoist_solution = Some(old.solution);
        }
        self.insert_spare = Some((n_insert, x_insert));
        self.block_keys = keys;
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

/// Applies the insertion/removal step using the fixed universe: insertions
/// are filtered to patterns that still occur in the program and emitted in
/// first-occurrence order — exactly the pattern set and bit order a
/// universe collected fresh from `g` would produce.
#[allow(clippy::too_many_arguments)]
fn apply_ordered(
    g: &mut FlowGraph,
    universe: &PatternUniverse,
    n_insert: &[BitSet],
    x_insert: &[BitSet],
    candidates: &[Vec<(usize, usize)>],
    occ_rank: &[Option<u32>],
    recorder: &ProvRecorder,
    round: u32,
) -> HoistOutcome {
    let mut outcome = HoistOutcome::default();
    for n in g.nodes().collect::<Vec<_>>() {
        let ni = n.index();
        if n_insert[ni].is_empty() && x_insert[ni].is_empty() && candidates[ni].is_empty() {
            continue;
        }
        let observe =
            |g: &FlowGraph, kind: ProvKind, index, instr: &Instr, pattern: usize, fact: &str| {
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
        let mut fresh: Vec<Instr> = Vec::new();
        for i in occurring_in_order(&n_insert[ni], occ_rank) {
            let pat = universe.assign(i);
            let instr = Instr::Assign {
                lhs: pat.lhs,
                rhs: pat.rhs,
            };
            if recorder.is_enabled() {
                observe(
                    g,
                    ProvKind::HoistInsert,
                    None,
                    &instr,
                    i,
                    "N-INSERT: hoistable at entry, not hoistable out of some predecessor",
                );
            }
            fresh.push(instr);
            outcome.inserted += 1;
        }
        let removed_here: Vec<usize> = candidates[ni].iter().map(|(_, idx)| *idx).collect();
        for (idx, instr) in g.block(n).instrs.iter().enumerate() {
            if removed_here.contains(&idx) {
                if recorder.is_enabled() {
                    let (pattern, _) = candidates[ni][removed_here
                        .iter()
                        .position(|&r| r == idx)
                        .expect("idx came from removed_here")];
                    observe(
                        g,
                        ProvKind::HoistRemove,
                        Some(idx as u32),
                        instr,
                        pattern,
                        "first unblocked occurrence in its block, covered by hoisted instances",
                    );
                }
                outcome.removed += 1;
            } else {
                fresh.push(instr.clone());
            }
        }
        for i in occurring_in_order(&x_insert[ni], occ_rank) {
            let pat = universe.assign(i);
            let instr = Instr::Assign {
                lhs: pat.lhs,
                rhs: pat.rhs,
            };
            if recorder.is_enabled() {
                observe(
                    g,
                    ProvKind::HoistInsert,
                    None,
                    &instr,
                    i,
                    "X-INSERT: hoistable at exit, blocked from entering this block",
                );
            }
            fresh.push(instr);
            outcome.inserted += 1;
        }
        if g.block(n).instrs != fresh {
            outcome.changed = true;
            g.block_mut(n).instrs = fresh;
        }
    }
    outcome
}

/// The patterns of `set` that occur in the current program, ordered by
/// first occurrence.
fn occurring_in_order(set: &BitSet, occ_rank: &[Option<u32>]) -> Vec<usize> {
    let mut patterns: Vec<usize> = set.iter().filter(|&i| occ_rank[i].is_some()).collect();
    patterns.sort_by_key(|&i| occ_rank[i]);
    patterns
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
