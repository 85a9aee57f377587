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
//! Table 3 is stated per instruction, but both systems are gen/kill
//! problems, so they are solved over the block graph: each block's
//! instruction rows are composed into one exact transfer (a block's
//! interior instructions have a single predecessor, so substituting them
//! out preserves the fixed point), and the per-instruction facts are
//! recovered by streaming each block from its solved boundary facts —
//! delayability forward from the entry, usability backward from the exit
//! ([`FlushAnalysis::block_facts`]). Latestness needs no further data
//! flow: inside a block an instruction's successor is the next
//! instruction, whose `N-DELAYABLE*` is this instruction's
//! `X-DELAYABLE*`, so `X-LATEST` can only hold at a block's last
//! instruction, against the solved entry facts of the successor blocks.
//! The rewrite consumes the same stream one block at a time.

use am_bitset::BitSet;
use am_dfa::{
    node_adjacency, solve_scheduled, Confluence, Direction, PatternMasks, Problem, Schedule,
    Solution,
};
use am_ir::{Cond, FlowGraph, Instr, NodeId, Operand, PatternUniverse, Term, Var};
use am_obs::{ProvKind, ProvRecord};

use crate::global::GlobalConfig;

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

/// Solves the delayability and usability systems of Table 3 over `g`
/// (without transforming anything). The temporary of every expression
/// pattern is created in `g`'s pool if it does not exist yet.
pub fn analyze_flush(g: &mut FlowGraph) -> FlushAnalysis {
    let universe = PatternUniverse::collect(g);
    let temps: Vec<Var> = universe
        .expr_patterns()
        .map(|(_, t)| g.temp_for(t))
        .collect();
    // Index after `temp_for`: it may grow the variable pool, and the masks
    // cover the whole pool.
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
    let ep = analysis.universe.expr_count();
    let nodes = g.node_count();
    let mut delay = Problem::new(Direction::Forward, Confluence::Must, nodes, ep);
    let mut usable = Problem::new(Direction::Backward, Confluence::May, nodes, ep);
    // Compose each block's rows front to back, from the sparse local
    // predicates:
    // * delayability: gen := (gen ∖ (USED_ι ∪ BLOCKED_ι)) ∪ IS-INST_ι,
    //   kill := kill ∪ USED_ι ∪ BLOCKED_ι;
    // * usability runs backward, so a use counts unless an earlier
    //   instance of the block re-initializes the temporary first:
    //   gen := gen ∪ (USED_ι ∖ kill), kill := kill ∪ IS-INST_ι.
    for n in g.nodes() {
        let ni = n.index();
        let (d_gen, d_kill) = (&mut delay.gen[ni], &mut delay.kill[ni]);
        let (u_gen, u_kill) = (&mut usable.gen[ni], &mut usable.kill[ni]);
        for instr in &g.block(n).instrs {
            if let Some((mentions, own)) = analysis.blocked(instr) {
                d_gen.difference_with(mentions);
                d_kill.union_with(mentions);
                if let Some(i) = own {
                    d_gen.remove(i);
                    d_kill.insert(i);
                }
            }
            analysis.for_each_used(instr, |i| {
                d_gen.remove(i);
                d_kill.insert(i);
                if !u_kill.contains(i) {
                    u_gen.insert(i);
                }
            });
            if let Some(i) = analysis.instance(instr) {
                d_gen.insert(i);
                u_kill.insert(i);
            }
        }
    }
    let (succs, preds) = node_adjacency(g);
    let schedule = Schedule::build(&succs, &preds);
    analysis.delay = solve_scheduled(&succs, &preds, &delay, &schedule, None);
    analysis.usable = solve_scheduled(&succs, &preds, &usable, &schedule, None);
    analysis
}

impl FlushAnalysis {
    fn temp_bit(&self, v: Var) -> Option<usize> {
        self.temp_bit
            .get(v.index())
            .copied()
            .flatten()
            .map(|i| i as usize)
    }

    /// `IS-INST`: the pattern whose instance `h_ε := ε` `instr` is.
    fn instance(&self, instr: &Instr) -> Option<usize> {
        let Instr::Assign { lhs, rhs } = instr else {
            return None;
        };
        let i = self.universe.expr_id(rhs)?;
        (self.temps[i] == *lhs).then_some(i)
    }

    /// `USED`: calls `f` with the pattern of every temporary `instr`
    /// reads.
    fn for_each_used(&self, instr: &Instr, mut f: impl FnMut(usize)) {
        instr.for_each_use(|u| {
            if let Some(i) = self.temp_bit(u) {
                f(i);
            }
        });
    }

    /// `BLOCKED`: the patterns mentioning the variable `instr` defines,
    /// plus that variable's own pattern when it is a temporary.
    fn blocked(&self, instr: &Instr) -> Option<(&BitSet, Option<usize>)> {
        let d = instr.def()?;
        Some((self.masks.expr_mentions(d), self.temp_bit(d)))
    }

    /// The Table 3 facts of every instruction of block `n`, in order — one
    /// pass-through entry with empty local predicates for an empty block.
    /// `g` must be the program the analysis was computed on.
    pub fn block_facts(&self, g: &FlowGraph, n: NodeId) -> Vec<InstrFacts> {
        let mut facts = Vec::new();
        self.stream(n, &g.block(n).instrs, &mut facts);
        facts
    }

    /// Streams the facts of block `n`, holding `instrs`, into the first
    /// rows of `rows` and returns them: delayability forward from the
    /// block's solved entry fact, usability backward from its exit fact.
    /// Rows are reused across calls, so a whole-program pass allocates
    /// only for its longest block.
    fn stream<'r>(
        &self,
        n: NodeId,
        instrs: &[Instr],
        rows: &'r mut Vec<InstrFacts>,
    ) -> &'r [InstrFacts] {
        let len = instrs.len().max(1);
        if rows.len() < len {
            rows.resize_with(len, || InstrFacts::new(self.universe.expr_count()));
        }
        let ni = n.index();
        for j in 0..len {
            let (done, rest) = rows.split_at_mut(j);
            let f = &mut rest[0];
            f.is_inst.clear();
            f.used.clear();
            f.blocked.clear();
            if let Some(instr) = instrs.get(j) {
                if let Some(i) = self.instance(instr) {
                    f.is_inst.insert(i);
                }
                self.for_each_used(instr, |i| {
                    f.used.insert(i);
                });
                if let Some((mentions, own)) = self.blocked(instr) {
                    f.blocked.union_with(mentions);
                    if let Some(i) = own {
                        f.blocked.insert(i);
                    }
                }
            }
            f.n_delay.copy_from(match done.last() {
                Some(prev) => &prev.x_delay,
                None => &self.delay.before[ni],
            });
            f.x_delay.copy_from(&f.n_delay);
            f.x_delay.difference_with(&f.used);
            f.x_delay.difference_with(&f.blocked);
            f.x_delay.union_with(&f.is_inst);
        }
        for j in (0..len).rev() {
            let (head, tail) = rows.split_at_mut(j + 1);
            let f = &mut head[j];
            f.x_usable.copy_from(if j + 1 < len {
                &tail[0].n_usable
            } else {
                &self.usable.after[ni]
            });
            f.n_usable.copy_from(&f.x_usable);
            f.n_usable.difference_with(&f.is_inst);
            f.n_usable.union_with(&f.used);
        }
        &rows[..len]
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
/// insertion and reconstruction appends one [`am_obs::ProvRecord`] to the
/// recorder. A disabled recorder costs one branch per potential record.
pub fn final_flush_with(g: &mut FlowGraph, config: &GlobalConfig) -> FlushStats {
    let recorder = &config.recorder;
    let analysis = analyze_flush(g);
    let (delay, usable) = (&analysis.delay, &analysis.usable);
    for (name, sol) in [("delayability", delay), ("usability", usable)] {
        config.tracer.counter(
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

    // Rewrite the program block by block from the streamed facts.
    let g_ref = &*g;
    let record =
        |kind, n, index: Option<usize>, instr: &Instr, new: Option<&Instr>, i, fact: &str| {
            recorder.record(ProvRecord {
                kind,
                phase: "flush",
                round: 0,
                node: g_ref.label(n).to_owned(),
                index: index.map(|j| j as u32),
                instr: instr.display(g_ref.pool()),
                new_instr: new.map(|new| new.display(g_ref.pool())),
                pattern: Some(i as u32),
                instr_id: None,
                justification: fact.to_owned(),
            });
        };
    let mut insert = |fresh: &mut Vec<Instr>, n, i: usize, fact: &str| {
        let init = Instr::Assign {
            lhs: temps[i],
            rhs: universe.expr(i),
        };
        if recorder.is_enabled() {
            record(ProvKind::FlushInsert, n, None, &init, None, i, fact);
        }
        fresh.push(init);
        stats.inserted += 1;
    };
    let mut rows: Vec<InstrFacts> = Vec::new();
    let mut latest = BitSet::new(ep);
    let mut succ_delay = BitSet::new(ep);
    let mut exit_inits = BitSet::new(ep);
    let mut n_inits: Vec<usize> = Vec::new();
    let mut reconstruct: Vec<usize> = Vec::new();
    let mut blocks: Vec<(NodeId, Vec<Instr>)> = Vec::with_capacity(g_ref.node_count());
    for n in g_ref.nodes() {
        let instrs = &g_ref.block(n).instrs;
        let facts = analysis.stream(n, instrs, &mut rows);
        let last = facts.last().expect("a block has at least one point");
        // X-INIT = X-LATEST · X-USABLE* with X-LATEST = X-DELAYABLE* ·
        // Σ_{succ} ¬N-DELAYABLE*, possible only at the block's last point.
        exit_inits.clear();
        if let Some((&first, rest)) = g_ref.succs(n).split_first() {
            succ_delay.copy_from(&delay.before[first.index()]);
            for &m in rest {
                succ_delay.intersect_with(&delay.before[m.index()]);
            }
            exit_inits.copy_from(&last.x_delay);
            exit_inits.difference_with(&succ_delay);
            exit_inits.intersect_with(&last.x_usable);
        }
        let mut fresh: Vec<Instr> = Vec::with_capacity(instrs.len());
        for (j, (instr, f)) in instrs.iter().zip(facts).enumerate() {
            // N-LATEST = N-DELAYABLE* · (USED + BLOCKED), split into
            // initializations before the instruction and reconstructions.
            latest.copy_from(&f.used);
            latest.union_with(&f.blocked);
            latest.intersect_with(&f.n_delay);
            n_inits.clear();
            reconstruct.clear();
            for i in latest.iter() {
                let h = temps[i];
                let multi_use = use_count(instr, h) >= 2;
                // A blockade that *redefines* the temporary (another
                // instance of the same pattern, in particular) makes the
                // arriving value dead: never insert for it.
                let redefines_h = instr.def() == Some(h);
                let is_used = f.used.contains(i);
                let x_usable = f.x_usable.contains(i);
                if is_used && !x_usable && !multi_use {
                    reconstruct.push(i);
                } else if (is_used && multi_use) || (x_usable && (is_used || !redefines_h)) {
                    n_inits.push(i);
                }
                // Remaining cases: the value is dead here (redefined, or
                // blocked with no use on any continuation) — dropped.
            }
            for &i in &n_inits {
                insert(&mut fresh, n, i, "N-INIT = N-LATEST · X-USABLE*");
            }
            if let Some(own) = f.is_inst.iter().next() {
                // The instruction is an instance of some pattern and is
                // removed (re-inserted at its latest points). If it was
                // also the stop-point of *another* temporary marked for
                // reconstruction, that value's use travels with the
                // removed instance — materialize the initialization here,
                // where it dominates every re-insertion point reached
                // through this path.
                if recorder.is_enabled() {
                    let fact = "IS-INST: the instance leaves its motion position for its latest \
                                points";
                    record(ProvKind::FlushRemove, n, Some(j), instr, None, own, fact);
                }
                stats.instances_removed += 1;
                for &i in &reconstruct {
                    let fact = "reconstruction use travels with a removed instance; \
                                initialization materialized here";
                    insert(&mut fresh, n, i, fact);
                }
            } else {
                let mut rewritten = instr.clone();
                for &i in &reconstruct {
                    match reconstruct_use(&rewritten, temps[i], universe.expr(i)) {
                        Some(new_instr) => {
                            if recorder.is_enabled() {
                                let fact = "RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*: sole \
                                            use, original term restored";
                                let kind = ProvKind::FlushReconstruct;
                                record(kind, n, Some(j), &rewritten, Some(&new_instr), i, fact);
                            }
                            rewritten = new_instr;
                            stats.reconstructed += 1;
                        }
                        // The use position cannot hold a term (it sits
                        // inside a binary term): keep the initialization
                        // instead.
                        None => insert(
                            &mut fresh,
                            n,
                            i,
                            "RECONSTRUCT held, but the use position cannot carry a term",
                        ),
                    }
                }
                fresh.push(rewritten);
            }
        }
        // Insertions at the block exit; an empty block's pass-through
        // point carries them too (X-LATEST on a split edge).
        let fact = if instrs.is_empty() {
            "LATEST on the empty (split-edge) block, usable onward"
        } else {
            "X-INIT = X-LATEST · X-USABLE*"
        };
        for i in exit_inits.iter() {
            insert(&mut fresh, n, i, fact);
        }
        blocks.push((n, fresh));
    }
    for (n, fresh) in blocks {
        g.block_mut(n).instrs = fresh;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::initialize;
    use crate::motion::assignment_motion;
    use am_ir::alpha::canonical_text;
    use am_ir::interp;
    use am_ir::text::parse;

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
}
