//! Phase 3 — the final flush (Sec. 4.4, Table 3).
//!
//! After the assignment motion phase, initializations `h_ε := ε` sit at
//! their earliest points. The flush moves each to its *latest* useful point
//! and eliminates the ones that do not pay for themselves, in the spirit of
//! lazy code motion:
//!
//! * **Delayability** (forward, must, greatest solution) — how far an
//!   instance can be postponed: `X-DELAYABLE = IS-INST +
//!   N-DELAYABLE · ¬USED · ¬BLOCKED`.
//! * **Usability** (backward, may, least solution) — whether `h_ε` is read
//!   on some continuation before being re-initialized: `N-USABLE = USED +
//!   ¬IS-INST · X-USABLE`.
//! * **Latestness** — `N-LATEST = N-DELAYABLE* · (USED + BLOCKED)`,
//!   `X-LATEST = X-DELAYABLE* · Σ_{succ} ¬N-DELAYABLE*`.
//! * **Initialization points** — `N-INIT = N-LATEST · X-USABLE*`,
//!   `X-INIT = X-LATEST · X-USABLE*`.
//! * **Reconstruction** — `RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*`: the
//!   instance would serve exactly this one use, so the original term is put
//!   back in place of the temporary (this replaces the isolation analysis
//!   of classic lazy code motion and is what guarantees that temporaries
//!   only survive when they eliminate a partial redundancy).
//!
//! The transformation deletes every instance, inserts instances at the
//! initialization points and rewrites reconstructed uses. Two pragmatic
//! guards keep reconstruction semantics-and-cost-safe: an instruction using
//! `h_ε` more than once (e.g. `branch h > h`) keeps its initialization, and
//! a use position that cannot syntactically hold a non-trivial term (an
//! operand inside a binary term or an `out`) does too.
//!
//! # Solving at block level
//!
//! Both systems are stated per instruction and solved per block, as
//! [`am_dfa::blocks`] explains; [`FlushAnalysis::block_facts`] streams the
//! facts of every single instruction. Latestness needs no further data
//! flow: inside a block an instruction's successor is the next
//! instruction, whose `N-DELAYABLE*` is this instruction's
//! `X-DELAYABLE*`, so `X-LATEST` can only hold at a block's last
//! instruction, against the solved entry facts of the successor blocks.
//! The rewrite consumes the same stream one block at a time.
//!
//! # On interned ids
//!
//! The phase runs on the round context (`MotionContext`) the motion
//! phase leaves behind, over the graph's interned ids: a program after
//! motion repeats few distinct contents (52 of the 10,010 instructions of
//! the `xl-fan` benchmark). The expression universe is numbered from the
//! distinct ids in the order of their first occurrence in the program,
//! which is the numbering a walk over every instruction gives, so
//! temporaries, insertion order and provenance pattern bits do not
//! change. The local predicates are computed once per distinct id
//! (a `FlushRow`), the block rows are composed from the ids' rows, both
//! systems are solved on the context's node system, and only blocks
//! holding an instance, an `N-LATEST` point or an exit initialization are
//! rewritten. The one-shot entries ([`analyze_flush`],
//! [`final_flush_with`]) run the same code on a fresh context.

use am_bitset::BitSet;
use am_dfa::{
    compose_row, stream, Bits, Confluence, Direction, PatternMasks, PointFacts, Solution,
};
use am_ir::intern::InstrId;
use am_ir::{Cond, FlowGraph, Instr, NodeId, Operand, PatternUniverse, Term, Var};
use am_trace::{ProvKind, ProvRecord};

use crate::global::GlobalConfig;
use crate::incremental::MotionContext;

/// Statistics of a [`final_flush`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Instances `h_ε := ε` removed from their old positions.
    pub instances_removed: usize,
    /// Instances inserted at initialization points.
    pub inserted: usize,
    /// Uses rewritten back to their original term.
    pub reconstructed: usize,
    /// Data-flow solver iterations (delayability + usability, over blocks).
    pub iterations: u64,
    /// Solver worklist pushes (delayability + usability).
    pub worklist_pushes: u64,
    /// Peak solver worklist length across the two systems.
    pub max_worklist_len: usize,
}

/// The solved Table 3 analyses of a program: the delayability and
/// usability solutions over blocks, from which
/// [`block_facts`](Self::block_facts) streams the facts of every single
/// instruction.
pub struct FlushAnalysis {
    /// The expression-pattern universe the bit indices refer to.
    pub universe: PatternUniverse,
    /// The temporary `h_ε` of each pattern.
    pub temps: Vec<Var>,
    /// Delayability per block: `before[n]` is `N-DELAYABLE*` at the entry
    /// of block `n`, `after[n]` is `X-DELAYABLE*` at its exit.
    pub delay: Solution,
    /// Usability per block: `before[n]` is `N-USABLE*` at the entry of
    /// block `n`, `after[n]` is `X-USABLE*` at its exit.
    pub usable: Solution,
    masks: PatternMasks,
    /// The pattern bit of each temporary, dense by variable index.
    temp_bit: Vec<Option<u32>>,
}

/// The Table 3 predicates at one instruction: its local predicates and
/// the solved facts at its entry (`N-…`) and exit (`X-…`), as bit sets over
/// the expression patterns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstrFacts {
    /// `IS-INST`: the instruction is the instance `h_ε := ε`.
    pub is_inst: BitSet,
    /// `USED`: the instruction reads `h_ε`.
    pub used: BitSet,
    /// `BLOCKED`: the instruction redefines `h_ε` or an operand of `ε`.
    pub blocked: BitSet,
    /// `N-DELAYABLE*`.
    pub n_delay: BitSet,
    /// `X-DELAYABLE*`.
    pub x_delay: BitSet,
    /// `N-USABLE*`.
    pub n_usable: BitSet,
    /// `X-USABLE*`.
    pub x_usable: BitSet,
}

impl InstrFacts {
    fn new(patterns: usize) -> Self {
        let empty = BitSet::new(patterns);
        InstrFacts {
            is_inst: empty.clone(),
            used: empty.clone(),
            blocked: empty.clone(),
            n_delay: empty.clone(),
            x_delay: empty.clone(),
            n_usable: empty.clone(),
            x_usable: empty,
        }
    }
}

/// The Table 3 local predicates of one interned instruction, in the
/// flush's pattern numbering.
pub(crate) struct FlushRow {
    /// `IS-INST`: the pattern whose instance the instruction is.
    inst: Option<usize>,
    /// `USED`.
    used: BitSet,
    /// `USED + BLOCKED`: the patterns whose delay the instruction stops.
    stop: BitSet,
}

impl FlushRow {
    /// The delayability row: `X-DELAYABLE = IS-INST + N-DELAYABLE ·
    /// ¬(USED + BLOCKED)`.
    fn delay(&self) -> (Option<usize>, &BitSet) {
        (self.inst, &self.stop)
    }

    /// The usability row: `N-USABLE = USED + ¬IS-INST · X-USABLE`.
    fn usable(&self) -> (&BitSet, Option<usize>) {
        (&self.used, self.inst)
    }
}

/// The [`FlushRow`] of every instruction of a program, dense by the
/// graph's interned id (`None` for ids the program does not hold).
pub(crate) type FlushRows = Vec<Option<FlushRow>>;

/// The row of interned instruction `id`.
fn row_of(rows: &FlushRows, id: InstrId) -> &FlushRow {
    rows[id.index()]
        .as_ref()
        .expect("every instruction of the program has a row")
}

/// The rows of block `n`'s instructions, in order.
fn block_rows<'a>(
    rows: &'a FlushRows,
    g: &'a FlowGraph,
    n: NodeId,
) -> impl DoubleEndedIterator<Item = &'a FlushRow> + ExactSizeIterator + 'a {
    g.ids(n).iter().map(|&id| row_of(rows, id))
}

/// Solves the delayability and usability systems of Table 3 over `g`
/// (without transforming anything). The temporary of every expression
/// pattern is created in `g`'s pool if it does not exist yet.
pub fn analyze_flush(g: &mut FlowGraph) -> FlushAnalysis {
    MotionContext::new().flush_analysis(g).0
}

impl MotionContext {
    /// Solves Table 3 over `g` on this context: numbers the expression
    /// universe from the distinct interned instructions in
    /// first-occurrence order (the numbering [`PatternUniverse::collect`]
    /// gives `g`), computes one [`FlushRow`] per distinct instruction,
    /// composes every block from its ids' rows and solves both systems on
    /// the context's node system.
    pub(crate) fn flush_analysis(&mut self, g: &mut FlowGraph) -> (FlushAnalysis, FlushRows) {
        self.sync(g);
        let interned = g.interner().len();
        let mut seen = vec![false; interned];
        let mut distinct = Vec::with_capacity(interned.min(g.instr_count()));
        for &id in g.nodes().flat_map(|n| g.ids(n)) {
            if !std::mem::replace(&mut seen[id.index()], true) {
                distinct.push(id);
            }
        }
        let mut universe = PatternUniverse::with_capacity(distinct.len());
        universe.extend_instrs(distinct.iter().map(|&id| g.interner().instr(id)));
        let temps: Vec<Var> = universe
            .expr_patterns()
            .map(|(_, t)| g.temp_for(t))
            .collect();
        // Index after `temp_for`: it may grow the variable pool, and the
        // masks cover the whole pool.
        let vars = g.pool().len();
        let mut temp_bit = vec![None; vars];
        for (i, h) in temps.iter().enumerate() {
            temp_bit[h.index()] = Some(i as u32);
        }
        let mut analysis = FlushAnalysis {
            masks: PatternMasks::build(&universe, vars),
            universe,
            temps,
            delay: Solution::default(),
            usable: Solution::default(),
            temp_bit,
        };
        let mut rows: FlushRows = Vec::new();
        rows.resize_with(interned, || None);
        for &id in &distinct {
            rows[id.index()] = Some(analysis.row(g.interner().instr(id)));
        }
        let ep = analysis.universe.expr_count();
        let nodes = g.node_count();
        // The motion rounds' problems and solutions lend the flush their
        // buffers.
        let ([mut delay, mut usable], [delay_sol, usable_sol]) = self.take_solver_buffers();
        delay.reset(Direction::Forward, Confluence::Must, nodes, ep);
        usable.reset(Direction::Backward, Confluence::May, nodes, ep);
        // Both systems compose in one walk; the reset rows start empty.
        for n in g.nodes() {
            let ni = n.index();
            let (d_gen, d_kill) = (&mut delay.gen[ni], &mut delay.kill[ni]);
            let (u_gen, u_kill) = (&mut usable.gen[ni], &mut usable.kill[ni]);
            for r in block_rows(&rows, g, n) {
                compose_row(Direction::Forward, &r.delay(), d_gen, d_kill);
                compose_row(Direction::Backward, &r.usable(), u_gen, u_kill);
            }
        }
        let blocks = self.node_system(g);
        analysis.delay = blocks.solve(&delay, delay_sol);
        analysis.usable = blocks.solve(&usable, usable_sol);
        (analysis, rows)
    }
}

impl FlushAnalysis {
    fn temp_bit(&self, v: Var) -> Option<usize> {
        self.temp_bit
            .get(v.index())
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// `BLOCKED`: adds to `set` the patterns mentioning the variable
    /// `instr` defines, and that variable's own pattern when it is a
    /// temporary.
    fn add_blocked(&self, instr: &Instr, set: &mut BitSet) {
        if let Some(d) = instr.def() {
            set.union_with(self.masks.expr_mentions(d));
            self.temp_bit(d).add_to(set);
        }
    }

    /// The Table 3 local predicates of `instr` that the flush reads:
    /// `IS-INST` (the instance `h_ε := ε` is of pattern ε), `USED` (the
    /// temporaries read) and `USED + BLOCKED`.
    fn row(&self, instr: &Instr) -> FlushRow {
        let inst = match instr {
            Instr::Assign { lhs, rhs } => self
                .universe
                .expr_id(rhs)
                .filter(|&i| self.temps[i] == *lhs),
            _ => None,
        };
        let mut used = BitSet::new(self.universe.expr_count());
        instr.for_each_use(|u| self.temp_bit(u).add_to(&mut used));
        let mut stop = used.clone();
        self.add_blocked(instr, &mut stop);
        FlushRow { inst, used, stop }
    }

    /// The Table 3 facts of every instruction of block `n`, in order — one
    /// pass-through entry with empty local predicates for an empty block:
    /// delayability streamed forward from the block's solved entry fact,
    /// usability backward from its exit fact. `g` must be the program the
    /// analysis was computed on. The local predicates are read off the
    /// instructions themselves, not the flush's per-id rows.
    pub fn block_facts(&self, g: &FlowGraph, n: NodeId) -> Vec<InstrFacts> {
        let (ni, d, u) = (n.index(), &self.delay, &self.usable);
        let rows: Vec<FlushRow> = g.instrs(n).map(|instr| self.row(instr)).collect();
        let (mut delay, mut usable) = (PointFacts::default(), PointFacts::default());
        let delay_rows = rows.iter().map(FlushRow::delay);
        delay.fill(Direction::Forward, &d.before[ni], &d.after[ni], delay_rows);
        let usable_rows = rows.iter().map(FlushRow::usable);
        usable.fill(
            Direction::Backward,
            &u.before[ni],
            &u.after[ni],
            usable_rows,
        );
        let mut instrs = g.instrs(n).zip(&rows);
        (0..delay.points())
            .map(|j| {
                let mut f = InstrFacts::new(self.universe.expr_count());
                if let Some((instr, row)) = instrs.next() {
                    row.inst.add_to(&mut f.is_inst);
                    f.used.copy_from(&row.used);
                    self.add_blocked(instr, &mut f.blocked);
                }
                f.n_delay.copy_from(delay.before(j));
                f.x_delay.copy_from(delay.after(j));
                f.n_usable.copy_from(usable.before(j));
                f.x_usable.copy_from(usable.after(j));
                f
            })
            .collect()
    }
}

/// How many times `instr` reads `h`.
fn use_count(instr: &Instr, h: Var) -> usize {
    let mut count = 0;
    instr.for_each_use(|v| {
        if v == h {
            count += 1;
        }
    });
    count
}

/// Rewrites the single use of `h` in `instr` to the term `eps`, if the
/// position admits a non-trivial term. Returns `None` when it does not.
fn reconstruct_use(instr: &Instr, h: Var, eps: Term) -> Option<Instr> {
    match instr {
        Instr::Assign {
            lhs,
            rhs: Term::Operand(Operand::Var(v)),
        } if *v == h => Some(Instr::Assign {
            lhs: *lhs,
            rhs: eps,
        }),
        Instr::Branch(c) => {
            let is_h = |t: &Term| matches!(t, Term::Operand(Operand::Var(v)) if *v == h);
            if is_h(&c.lhs) && !is_h(&c.rhs) {
                Some(Instr::Branch(Cond {
                    op: c.op,
                    lhs: eps,
                    rhs: c.rhs,
                }))
            } else if is_h(&c.rhs) && !is_h(&c.lhs) {
                Some(Instr::Branch(Cond {
                    op: c.op,
                    lhs: c.lhs,
                    rhs: eps,
                }))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Applies the final flush phase in place.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::{init::initialize, flush::final_flush};
///
/// // A single-use temporary is reconstructed away again.
/// let mut g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e")?;
/// initialize(&mut g);
/// let stats = final_flush(&mut g);
/// assert_eq!(stats.reconstructed, 1);
/// assert!(am_ir::text::to_text(&g).contains("x := a+b"));
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn final_flush(g: &mut FlowGraph) -> FlushStats {
    final_flush_with(g, &GlobalConfig::default())
}

/// As [`final_flush`], observed through `config`: the tracer receives one
/// `analysis` counter per solved system (`delayability`, `usability`) with
/// its fixpoint metrics, and every instance removal, initialization
/// insertion and reconstruction appends one [`am_trace::ProvRecord`] to the
/// tracer. A tracer that is not recording costs one branch per potential
/// record.
pub fn final_flush_with(g: &mut FlowGraph, config: &GlobalConfig) -> FlushStats {
    MotionContext::new().final_flush(g, config)
}

impl MotionContext {
    /// [`final_flush_with`] on this context: the local predicates come
    /// from the per-id [`FlushRow`]s and the solves from the context's node
    /// system ([`Self::flush_analysis`]). A block with no instance, no
    /// `N-LATEST` point and no exit initialization is left as it is; every
    /// other block is composed as ids and written in its own allocation.
    pub(crate) fn final_flush(&mut self, g: &mut FlowGraph, config: &GlobalConfig) -> FlushStats {
        let tracer = &config.tracer;
        let (analysis, rows) = self.flush_analysis(g);
        let (delay, usable) = (&analysis.delay, &analysis.usable);
        for (name, sol) in [("delayability", delay), ("usability", usable)] {
            tracer.counter(
                "analysis",
                name,
                &[
                    ("iterations", sol.iterations as i64),
                    ("worklist_pushes", sol.worklist_pushes as i64),
                    ("max_worklist_len", sol.max_worklist_len as i64),
                ],
            );
        }
        let (universe, temps) = (&analysis.universe, &analysis.temps);
        let ep = universe.expr_count();
        let mut stats = FlushStats::default();
        if ep == 0 {
            return stats;
        }
        stats.iterations = delay.iterations + usable.iterations;
        stats.worklist_pushes = delay.worklist_pushes + usable.worklist_pushes;
        stats.max_worklist_len = delay.max_worklist_len.max(usable.max_worklist_len);

        let mut n_delay = BitSet::new(ep);
        let mut n_usable = BitSet::new(ep);
        let mut succ_delay = BitSet::new(ep);
        let mut exit_inits = BitSet::new(ep);
        // Per-instruction scratch sized for the longest block, one buffer
        // every rewritten block is composed in and one holding its old
        // ids, and the interned id of every pattern's initialization.
        let longest = g.nodes().map(|n| g.ids(n).len()).max().unwrap_or(0);
        let mut latest = vec![BitSet::new(ep); longest];
        let mut x_usable = latest.clone();
        let mut n_inits: Vec<usize> = Vec::with_capacity(ep);
        let mut reconstruct: Vec<usize> = Vec::with_capacity(ep);
        let (mut old, mut fresh): (Vec<InstrId>, Vec<InstrId>) = (Vec::new(), Vec::new());
        let mut init_ids: Vec<Option<InstrId>> = vec![None; ep];
        for n in g.nodes() {
            let ni = n.index();
            // Stream N-DELAYABLE* forward, keeping every instruction's
            // N-LATEST = N-DELAYABLE* · (USED + BLOCKED). The block changes
            // only where an instance sits or some delay stops.
            let (mut instances, mut stops) = (false, false);
            let delay_rows = block_rows(&rows, g, n).map(FlushRow::delay);
            stream(
                Direction::Forward,
                &delay.before[ni],
                delay_rows,
                &mut n_delay,
                |j, &(inst, stop), n_delay| {
                    let latest = &mut latest[j];
                    if stop.is_disjoint(n_delay) {
                        latest.clear();
                    } else {
                        latest.copy_from(stop);
                        latest.intersect_with(n_delay);
                        stops = true;
                    }
                    instances |= inst.is_some();
                },
            );
            // X-INIT = X-LATEST · X-USABLE* with X-LATEST = X-DELAYABLE* ·
            // Σ_{succ} ¬N-DELAYABLE*, possible only at the block's last
            // point, whose X-DELAYABLE* the stream just reached.
            exit_inits.copy_from(&n_delay);
            exit_inits.intersect_with(&usable.after[ni]);
            if !exit_inits.is_empty() {
                match g.succs(n).split_first() {
                    Some((&first, rest)) => {
                        succ_delay.copy_from(&delay.before[first.index()]);
                        for &m in rest {
                            succ_delay.intersect_with(&delay.before[m.index()]);
                        }
                        exit_inits.difference_with(&succ_delay);
                    }
                    None => exit_inits.clear(),
                }
            }
            if !instances && !stops && exit_inits.is_empty() {
                continue;
            }
            // X-USABLE*, streamed backward from the block's exit and kept
            // where some delay stops.
            if stops {
                let usable_rows = block_rows(&rows, g, n).map(FlushRow::usable);
                stream(
                    Direction::Backward,
                    &usable.after[ni],
                    usable_rows,
                    &mut n_usable,
                    |j, _, fact| {
                        if !latest[j].is_empty() {
                            x_usable[j].copy_from(fact);
                        }
                    },
                );
            }

            old.clear();
            old.extend_from_slice(g.ids(n));
            fresh.clear();
            let record = |g: &FlowGraph,
                          kind,
                          index: Option<usize>,
                          instr: &Instr,
                          new: Option<&Instr>,
                          i,
                          fact: &str| {
                tracer.record(ProvRecord {
                    kind,
                    phase: "flush",
                    round: 0,
                    node: g.label(n).to_owned(),
                    index: index.map(|j| j as u32),
                    instr: instr.display(g.pool()),
                    new_instr: new.map(|new| new.display(g.pool())),
                    pattern: Some(i as u32),
                    instr_id: None,
                    justification: fact.to_owned(),
                });
            };
            let mut insert = |g: &mut FlowGraph, fresh: &mut Vec<InstrId>, i: usize, fact: &str| {
                let id = *init_ids[i].get_or_insert_with(|| {
                    g.intern(Instr::Assign {
                        lhs: temps[i],
                        rhs: universe.expr(i),
                    })
                });
                if tracer.is_recording() {
                    record(
                        g,
                        ProvKind::FlushInsert,
                        None,
                        g.interner().instr(id),
                        None,
                        i,
                        fact,
                    );
                }
                fresh.push(id);
                stats.inserted += 1;
            };
            for (j, &id) in old.iter().enumerate() {
                let r = row_of(&rows, id);
                // N-LATEST, split into initializations before the
                // instruction and reconstructions.
                n_inits.clear();
                reconstruct.clear();
                let instr = g.interner().instr(id);
                for i in latest[j].iter() {
                    let h = temps[i];
                    let multi_use = use_count(instr, h) >= 2;
                    // A blockade that *redefines* the temporary (another
                    // instance of the same pattern, in particular) makes
                    // the arriving value dead: never insert for it.
                    let redefines_h = instr.def() == Some(h);
                    let is_used = r.used.contains(i);
                    let x_usable = x_usable[j].contains(i);
                    if is_used && !x_usable && !multi_use {
                        reconstruct.push(i);
                    } else if (is_used && multi_use) || (x_usable && (is_used || !redefines_h)) {
                        n_inits.push(i);
                    }
                    // Remaining cases: the value is dead here (redefined,
                    // or blocked with no use on any continuation) —
                    // dropped.
                }
                for &i in &n_inits {
                    insert(g, &mut fresh, i, "N-INIT = N-LATEST · X-USABLE*");
                }
                if let Some(own) = r.inst {
                    // The instruction is an instance of some pattern and
                    // is removed (re-inserted at its latest points). If it
                    // was also the stop-point of *another* temporary
                    // marked for reconstruction, that value's use travels
                    // with the removed instance — materialize the
                    // initialization here, where it dominates every
                    // re-insertion point reached through this path.
                    if tracer.is_recording() {
                        let fact = "IS-INST: the instance leaves its motion position for its \
                                    latest points";
                        let instr = g.interner().instr(id);
                        record(g, ProvKind::FlushRemove, Some(j), instr, None, own, fact);
                    }
                    stats.instances_removed += 1;
                    for &i in &reconstruct {
                        let fact = "reconstruction use travels with a removed instance; \
                                    initialization materialized here";
                        insert(g, &mut fresh, i, fact);
                    }
                } else {
                    // The instruction as rewritten so far, if it was.
                    let mut rewritten: Option<Instr> = None;
                    for &i in &reconstruct {
                        let current = rewritten.as_ref().unwrap_or(g.interner().instr(id));
                        match reconstruct_use(current, temps[i], universe.expr(i)) {
                            Some(new_instr) => {
                                if tracer.is_recording() {
                                    let fact = "RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*: \
                                                sole use, original term restored";
                                    let kind = ProvKind::FlushReconstruct;
                                    record(g, kind, Some(j), current, Some(&new_instr), i, fact);
                                }
                                rewritten = Some(new_instr);
                                stats.reconstructed += 1;
                            }
                            // The use position cannot hold a term (it sits
                            // inside a binary term): keep the
                            // initialization instead.
                            None => insert(
                                g,
                                &mut fresh,
                                i,
                                "RECONSTRUCT held, but the use position cannot carry a term",
                            ),
                        }
                    }
                    fresh.push(rewritten.map_or(id, |instr| g.intern(instr)));
                }
            }
            // Insertions at the block exit; an empty block's pass-through
            // point carries them too (X-LATEST on a split edge).
            let fact = if old.is_empty() {
                "LATEST on the empty (split-edge) block, usable onward"
            } else {
                "X-INIT = X-LATEST · X-USABLE*"
            };
            for i in exit_inits.iter() {
                insert(g, &mut fresh, i, fact);
            }
            g.set_ids(n, &fresh);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{optimize, optimize_hooked, PhaseId};
    use crate::incremental::tests::programs_and_xl;
    use crate::init::initialize;
    use crate::motion::{assignment_motion, run_motion, MotionOrder};
    use am_ir::alpha::canonical_text;
    use am_ir::interp;
    use am_ir::random::corpus80;
    use am_ir::text::parse;
    use am_ir::BinOp;
    use am_trace::Tracer;

    const RUNNING_EXAMPLE: &str = "
        start 1
        end 4
        node 1 { y := c+d }
        node 2 { branch x+z > y+i }
        node 3 { y := c+d; x := y+z; i := i+x }
        node 4 { x := y+z; x := c+d; out(i,x,y) }
        edge 1 -> 2
        edge 2 -> 3, 4
        edge 3 -> 2
    ";

    fn run_pipeline(src: &str) -> (am_ir::FlowGraph, am_ir::FlowGraph) {
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        initialize(&mut g);
        assignment_motion(&mut g);
        final_flush(&mut g);
        (orig, g)
    }

    #[test]
    fn running_example_matches_fig15() {
        let (_, g) = run_pipeline(RUNNING_EXAMPLE);
        let canon = canonical_text(&g);
        // Fig. 15 / Fig. 5, node by node.
        assert!(
            canon.contains("node 1 {\n  h1 := c+d\n  y := h1\n  h2 := x+z\n  x := y+z\n}"),
            "node 1 mismatch:\n{canon}"
        );
        assert!(
            canon.contains("node 2 {\n  branch h2 > y+i\n}"),
            "node 2 mismatch:\n{canon}"
        );
        assert!(
            canon.contains("node 3 {\n  i := i+x\n  h2 := x+z\n}"),
            "node 3 mismatch:\n{canon}"
        );
        assert!(
            canon.contains("node 4 {\n  x := h1\n  out(i,x,y)\n}"),
            "node 4 mismatch:\n{canon}"
        );
    }

    #[test]
    fn running_example_preserves_semantics() {
        let (orig, g) = run_pipeline(RUNNING_EXAMPLE);
        for seed in 0..40 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed + 1, 10),
                inputs: vec![
                    ("c".into(), 2),
                    ("d".into(), seed as i64 % 5),
                    ("x".into(), 1),
                    ("z".into(), 3),
                    ("i".into(), 0),
                    ("y".into(), -1),
                ],
                ..Default::default()
            };
            let a = interp::run(&orig, &cfg);
            let b = interp::run(&g, &cfg);
            assert_eq!(a.observable(), b.observable(), "seed {seed}");
            if a.stop == interp::StopReason::ReachedEnd && b.stop == a.stop {
                assert!(b.expr_evals <= a.expr_evals, "seed {seed}");
            }
        }
    }

    #[test]
    fn flush_reconstructs_single_use_temporaries() {
        // After init, h := a+b; x := h has a single use: flush restores
        // x := a+b and drops the temporary.
        let src = "start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2";
        let (_, g) = run_pipeline(src);
        let canon = canonical_text(&g);
        assert!(canon.contains("x := a+b"), "{canon}");
        assert!(!canon.contains("h1"), "{canon}");
    }

    #[test]
    fn flush_keeps_redundancy_eliminating_temporaries() {
        // a+b used twice: the temporary pays for itself.
        let src = "start 1\nend 2\nnode 1 { x := a+b; y := a+b }\nnode 2 { out(x,y) }\nedge 1 -> 2";
        let (_, g) = run_pipeline(src);
        let canon = canonical_text(&g);
        assert!(canon.contains("h1 := a+b"), "{canon}");
        assert!(canon.contains("x := h1"), "{canon}");
        assert!(canon.contains("y := h1"), "{canon}");
        assert_eq!(canon.matches("a+b").count(), 1, "{canon}");
    }

    #[test]
    fn flush_is_noop_without_temporaries() {
        let src = "start 1\nend 2\nnode 1 { x := a+b; b := 1 }\nnode 2 { out(x,b) }\nedge 1 -> 2";
        let mut g = parse(src).unwrap();
        let before = am_ir::text::to_text(&g);
        let stats = final_flush(&mut g);
        assert_eq!(stats.instances_removed, 0);
        assert_eq!(stats.inserted, 0);
        assert_eq!(am_ir::text::to_text(&g), before);
    }

    #[test]
    fn dead_initialization_is_dropped() {
        // h is never used: the instance must disappear entirely.
        let src = "start 1\nend 2\nnode 1 { x := a+b; x := 0 }\nnode 2 { out(x) }\nedge 1 -> 2";
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        initialize(&mut g);
        assignment_motion(&mut g);
        // After motion x := h is still there; make h dead by eliminating
        // the use through a manual overwrite scenario: x := 0 follows, so
        // the flush keeps correctness; semantics check suffices.
        final_flush(&mut g);
        for seed in 0..5 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 4),
                inputs: vec![("a".into(), 5), ("b".into(), 6)],
                ..Default::default()
            };
            assert_eq!(
                interp::run(&orig, &cfg).observable(),
                interp::run(&g, &cfg).observable()
            );
        }
    }

    #[test]
    fn branch_use_keeps_loop_carried_temporary() {
        // The h2 := x+z of the running example: each initialization feeds
        // the branch; delaying into the branch is blocked by x := y+z.
        let (_, g) = run_pipeline(RUNNING_EXAMPLE);
        let canon = canonical_text(&g);
        assert_eq!(canon.matches("h2 := x+z").count(), 2, "{canon}");
    }

    /// A configuration recording provenance.
    fn recording() -> GlobalConfig {
        GlobalConfig {
            tracer: Tracer::disabled().recording(),
            ..GlobalConfig::default()
        }
    }

    #[test]
    fn flush_on_the_motion_context_equals_a_fresh_flush() {
        for (p, mut g) in programs_and_xl().into_iter().enumerate() {
            initialize(&mut g);
            let mut ctx = MotionContext::new();
            let config = GlobalConfig::default();
            run_motion(
                &mut ctx,
                &mut g,
                &config,
                MotionOrder::RaeFirst,
                &mut |_, _| {},
            );
            let mut fresh_g = g.clone();
            let fresh = analyze_flush(&mut fresh_g);
            let (analysis, rows) = ctx.flush_analysis(&mut g);
            let (assigns, exprs) = am_ir::reference_universe(&g);
            let universe = &analysis.universe;
            let universe_assigns: Vec<_> = universe.assign_patterns().map(|(_, a)| a).collect();
            assert_eq!(universe_assigns, assigns, "program {p}");
            let universe_exprs: Vec<_> = universe.expr_patterns().map(|(_, t)| t).collect();
            assert_eq!(universe_exprs, exprs, "program {p}");
            assert_eq!(analysis.temps, fresh.temps, "program {p}");
            for n in g.nodes() {
                let facts = analysis.block_facts(&g, n);
                assert_eq!(facts, fresh.block_facts(&fresh_g, n), "program {p} {n:?}");
                // The per-id rows are the instruction walk's predicates.
                for (f, &id) in facts.iter().zip(g.ids(n)) {
                    let r = row_of(&rows, id);
                    let mut stop = f.used.clone();
                    stop.union_with(&f.blocked);
                    assert_eq!(r.inst, f.is_inst.iter().next(), "program {p} {n:?}");
                    assert_eq!(r.used, f.used, "program {p} {n:?}");
                    assert_eq!(r.stop, stop, "program {p} {n:?}");
                }
            }
            let (on_ctx, on_fresh) = (recording(), recording());
            let stats = ctx.final_flush(&mut g, &on_ctx);
            assert_eq!(
                stats,
                final_flush_with(&mut fresh_g, &on_fresh),
                "program {p}"
            );
            assert_eq!(g, fresh_g, "program {p}");
            assert_eq!(
                on_ctx.tracer.take_records(),
                on_fresh.tracer.take_records(),
                "program {p}"
            );
        }
    }

    /// Replaces the right-hand side of the first branch of `g` with `v*v`
    /// over a new variable `v`: a term no pattern universe has seen, which
    /// adds no assignment pattern. Returns whether `g` has a branch.
    fn branch_on_an_unseen_term(g: &mut FlowGraph) -> bool {
        let Some((loc, mut c)) = g.locs().find_map(|(loc, instr)| match instr {
            Instr::Branch(c) => Some((loc, *c)),
            _ => None,
        }) else {
            return false;
        };
        let v = g.pool_mut().intern("v");
        c.rhs = Term::binary(BinOp::Mul, v, v);
        g.replace_instr(loc, Instr::Branch(c));
        true
    }

    #[test]
    fn a_term_injected_at_the_last_round_is_flushed_like_a_fresh_flush() {
        let programs = std::iter::once(parse(RUNNING_EXAMPLE).unwrap())
            .chain(corpus80().into_iter().map(|(_, g)| g));
        let mut injected = 0;
        for (p, program) in programs.enumerate() {
            let last = optimize(&program).motion.rounds;
            let mut branched = false;
            let result = optimize_hooked(&program, &recording(), &mut |phase, g| {
                if phase == PhaseId::MotionRound(last) {
                    branched = branch_on_an_unseen_term(g);
                }
            });
            if !branched {
                continue;
            }
            injected += 1;
            let mut fresh = result.after_motion.expect("snapshots kept");
            final_flush(&mut fresh);
            assert_eq!(result.program, fresh, "program {p}");
            assert!(canonical_text(&fresh).contains("v*v"), "program {p}");
        }
        assert!(injected > 10, "only {injected} programs have a branch");
    }
}
