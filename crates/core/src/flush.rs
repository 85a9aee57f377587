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

use std::collections::HashMap;

use am_bitset::BitSet;
use am_dfa::{solve_scheduled, Confluence, Direction, PatternMasks, PointGraph, Problem};
use am_ir::{Cond, FlowGraph, Instr, Operand, PatternUniverse, Term, Var};
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
    /// Data-flow solver iterations (delayability + usability).
    pub iterations: u64,
    /// Solver worklist pushes (delayability + usability).
    pub worklist_pushes: u64,
    /// Peak solver worklist length across the two systems.
    pub max_worklist_len: usize,
}

/// The solved Table 3 analyses of a program: local predicates plus the
/// delayability and usability solutions, indexed by instruction-level
/// points (see [`am_dfa::PointGraph`]) and expression-pattern bits.
pub struct FlushAnalysis {
    /// The expression-pattern universe the bit indices refer to.
    pub universe: PatternUniverse,
    /// The temporary `h_ε` of each pattern.
    pub temps: Vec<Var>,
    /// `IS-INST` per point.
    pub is_inst: Vec<BitSet>,
    /// `USED` per point.
    pub used: Vec<BitSet>,
    /// `BLOCKED` per point.
    pub blocked: Vec<BitSet>,
    /// Delayability solution (`N-DELAYABLE*` = before, `X-DELAYABLE*` =
    /// after).
    pub delay: am_dfa::Solution,
    /// Usability solution (`N-USABLE*` = before, `X-USABLE*` = after).
    pub usable: am_dfa::Solution,
}

/// Solves the delayability and usability systems of Table 3 over `g`
/// (without transforming anything).
pub fn analyze_flush(g: &mut FlowGraph) -> FlushAnalysis {
    let (universe, temps) = participating(g);
    solve_flush(&PointGraph::build(g), universe, temps)
}

/// Builds the Table 3 local predicates over `pg` and solves delayability
/// and usability. `temps` must come from [`participating`] on the graph
/// `pg` was built over.
fn solve_flush(pg: &PointGraph<'_>, universe: PatternUniverse, temps: Vec<Var>) -> FlushAnalysis {
    let ep = universe.expr_count();
    // Masks must be built after `participating`: `temp_for` may grow the
    // variable pool, and the index covers the whole pool.
    let masks = PatternMasks::build(&universe, pg.graph().pool().len());
    let temp_index: HashMap<Var, usize> = temps.iter().enumerate().map(|(i, &h)| (h, i)).collect();
    let points = pg.len();
    let mut is_inst = vec![BitSet::new(ep); points];
    let mut used = vec![BitSet::new(ep); points];
    let mut blocked = vec![BitSet::new(ep); points];
    for p in pg.points() {
        let Some(instr) = pg.instr(p) else { continue };
        let idx = p.index();
        if let Instr::Assign { lhs, rhs } = instr {
            if let Some(i) = universe.expr_id(rhs) {
                if temps[i] == *lhs {
                    is_inst[idx].insert(i);
                }
            }
        }
        instr.for_each_use(|u| {
            if let Some(&i) = temp_index.get(&u) {
                used[idx].insert(i);
            }
        });
        if let Some(d) = instr.def() {
            blocked[idx].union_with(masks.expr_mentions(d));
            if let Some(&i) = temp_index.get(&d) {
                blocked[idx].insert(i);
            }
        }
    }
    let mut delay_problem = Problem::new(Direction::Forward, Confluence::Must, points, ep);
    delay_problem.gen = is_inst.clone();
    for p in 0..points {
        delay_problem.kill[p].copy_from(&used[p]);
        delay_problem.kill[p].union_with(&blocked[p]);
    }
    let solve = |problem: &Problem| solve_scheduled(pg.succs(), pg.preds(), problem, pg.schedule());
    let delay = solve(&delay_problem);
    let mut use_problem = Problem::new(Direction::Backward, Confluence::May, points, ep);
    use_problem.gen = used.clone();
    use_problem.kill = is_inst.clone();
    let usable = solve(&use_problem);
    FlushAnalysis {
        universe,
        temps,
        is_inst,
        used,
        blocked,
        delay,
        usable,
    }
}

/// The temporaries participating in the flush: every expression pattern of
/// the program whose canonical temporary exists in the pool.
fn participating(g: &mut FlowGraph) -> (PatternUniverse, Vec<Var>) {
    let universe = PatternUniverse::collect(g);
    let temps: Vec<Var> = universe
        .expr_patterns()
        .map(|(_, t)| g.temp_for(t))
        .collect();
    (universe, temps)
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
    let (universe, temps) = participating(g);
    // One point graph over the unchanged program serves both the analysis
    // and the rewrite; the rewritten blocks are written back after its
    // last use.
    let pg = PointGraph::build(g);
    let analysis = solve_flush(&pg, universe, temps);
    for (name, sol) in [
        ("delayability", &analysis.delay),
        ("usability", &analysis.usable),
    ] {
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
    let universe = analysis.universe;
    let temps = analysis.temps;
    let ep = universe.expr_count();
    let mut stats = FlushStats::default();
    if ep == 0 {
        return stats;
    }

    let points = pg.len();
    let is_inst = analysis.is_inst;
    let used = analysis.used;
    let blocked = analysis.blocked;
    let delay = analysis.delay;
    let usable = analysis.usable;
    stats.iterations = delay.iterations + usable.iterations;
    stats.worklist_pushes = delay.worklist_pushes + usable.worklist_pushes;
    stats.max_worklist_len = delay.max_worklist_len.max(usable.max_worklist_len);

    // Latestness and initialization points (no further data flow).
    let mut insert_before = vec![BitSet::new(ep); points];
    let mut insert_after = vec![BitSet::new(ep); points];
    let mut reconstruct = vec![BitSet::new(ep); points];
    for p in pg.points() {
        let idx = p.index();
        for (i, &h_temp) in temps.iter().enumerate() {
            let n_delay = delay.before[idx].contains(i);
            let x_delay = delay.after[idx].contains(i);
            let x_usable = usable.after[idx].contains(i);
            let n_latest = n_delay && (used[idx].contains(i) || blocked[idx].contains(i));
            let x_latest = x_delay
                && pg.succs()[idx]
                    .iter()
                    .any(|&q| !delay.before[q as usize].contains(i));
            if n_latest {
                let instr = pg.instr(p);
                let multi_use = instr
                    .map(|instr| use_count(instr, h_temp) >= 2)
                    .unwrap_or(false);
                // A blockade that *redefines* the temporary (another
                // instance of the same pattern, in particular) makes the
                // arriving value dead: never insert for it.
                let redefines_h = instr.and_then(Instr::def) == Some(h_temp);
                let is_used = used[idx].contains(i);
                if is_used && !x_usable && !multi_use {
                    reconstruct[idx].insert(i);
                } else if (is_used && multi_use) || (x_usable && (is_used || !redefines_h)) {
                    insert_before[idx].insert(i);
                }
                // Remaining cases: the value is dead here (redefined, or
                // blocked with no use on any continuation) — dropped.
            }
            if x_latest && x_usable {
                insert_after[idx].insert(i);
            }
        }
    }

    // Rewrite the g.
    let observe_insert = |instr: &Instr, pattern: usize, n: am_ir::NodeId, fact: &str| {
        recorder.record(ProvRecord {
            kind: ProvKind::FlushInsert,
            phase: "flush",
            round: 0,
            node: g.label(n).to_owned(),
            index: None,
            instr: instr.display(g.pool()),
            new_instr: None,
            pattern: Some(pattern as u32),
            instr_id: None,
            justification: fact.to_owned(),
        });
    };
    let mut blocks: Vec<(am_ir::NodeId, Vec<Instr>)> = Vec::with_capacity(g.node_count());
    for n in g.nodes() {
        let mut fresh: Vec<Instr> = Vec::new();
        let first = pg.first_of(n);
        let last = pg.last_of(n);
        for pi in first.index()..=last.index() {
            let p = am_dfa::PointId(pi as u32);
            let instr = match pg.instr(p) {
                Some(instr) => instr,
                None => {
                    // Virtual point of an empty block: it can still carry
                    // edge insertions (X-LATEST on a split edge).
                    for i in insert_before[pi].iter().chain(insert_after[pi].iter()) {
                        let init = Instr::Assign {
                            lhs: temps[i],
                            rhs: universe.expr(i),
                        };
                        if recorder.is_enabled() {
                            observe_insert(
                                &init,
                                i,
                                n,
                                "LATEST on the empty (split-edge) block, usable onward",
                            );
                        }
                        fresh.push(init);
                        stats.inserted += 1;
                    }
                    continue;
                }
            };
            // Insertions before this instruction.
            for i in insert_before[pi].iter() {
                let init = Instr::Assign {
                    lhs: temps[i],
                    rhs: universe.expr(i),
                };
                if recorder.is_enabled() {
                    observe_insert(&init, i, n, "N-INIT = N-LATEST · X-USABLE*");
                }
                fresh.push(init);
                stats.inserted += 1;
            }
            // The instruction itself.
            if is_inst[pi].is_empty() {
                let mut rewritten = instr.clone();
                for i in reconstruct[pi].iter() {
                    match reconstruct_use(&rewritten, temps[i], universe.expr(i)) {
                        Some(new_instr) => {
                            if recorder.is_enabled() {
                                recorder.record(ProvRecord {
                                    kind: ProvKind::FlushReconstruct,
                                    phase: "flush",
                                    round: 0,
                                    node: g.label(n).to_owned(),
                                    index: Some((pi - first.index()) as u32),
                                    instr: rewritten.display(g.pool()),
                                    new_instr: Some(new_instr.display(g.pool())),
                                    pattern: Some(i as u32),
                                    instr_id: None,
                                    justification:
                                        "RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*: sole use, \
                                         original term restored"
                                            .to_owned(),
                                });
                            }
                            rewritten = new_instr;
                            stats.reconstructed += 1;
                        }
                        None => {
                            // The use position cannot hold a term (it sits
                            // inside a binary term): keep the
                            // initialization instead.
                            let init = Instr::Assign {
                                lhs: temps[i],
                                rhs: universe.expr(i),
                            };
                            if recorder.is_enabled() {
                                observe_insert(
                                    &init,
                                    i,
                                    n,
                                    "RECONSTRUCT held, but the use position cannot carry a term",
                                );
                            }
                            fresh.push(init);
                            stats.inserted += 1;
                        }
                    }
                }
                fresh.push(rewritten);
            } else {
                // The instruction is an instance of some pattern and is
                // removed (re-inserted at its latest points). If it was
                // also the stop-point of *another* temporary marked for
                // reconstruction, that value's use travels with the
                // removed instance — materialize the initialization here,
                // where it dominates every re-insertion point reached
                // through this path.
                if recorder.is_enabled() {
                    recorder.record(ProvRecord {
                        kind: ProvKind::FlushRemove,
                        phase: "flush",
                        round: 0,
                        node: g.label(n).to_owned(),
                        index: Some((pi - first.index()) as u32),
                        instr: instr.display(g.pool()),
                        new_instr: None,
                        pattern: is_inst[pi].iter().next().map(|i| i as u32),
                        instr_id: None,
                        justification:
                            "IS-INST: the instance leaves its motion position for its latest points"
                                .to_owned(),
                    });
                }
                stats.instances_removed += 1;
                for i in reconstruct[pi].iter() {
                    let init = Instr::Assign {
                        lhs: temps[i],
                        rhs: universe.expr(i),
                    };
                    if recorder.is_enabled() {
                        observe_insert(
                            &init,
                            i,
                            n,
                            "reconstruction use travels with a removed instance; initialization \
                             materialized here",
                        );
                    }
                    fresh.push(init);
                    stats.inserted += 1;
                }
            }
            // Insertions after this instruction.
            for i in insert_after[pi].iter() {
                let init = Instr::Assign {
                    lhs: temps[i],
                    rhs: universe.expr(i),
                };
                if recorder.is_enabled() {
                    observe_insert(&init, i, n, "X-INIT = X-LATEST · X-USABLE*");
                }
                fresh.push(init);
                stats.inserted += 1;
            }
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
