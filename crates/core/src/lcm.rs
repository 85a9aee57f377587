//! The expression motion baseline: busy and lazy code motion (Knoop,
//! Rüthing, Steffen '92/'94), the `EM` of the paper's comparisons.
//!
//! Expression motion alone removes partially redundant *expressions* by
//! initializing temporaries at safe early points and replacing original
//! computations (Fig. 1). It cannot eliminate whole assignments, which is
//! what Figures 6(a), 19 and 20(a) demonstrate — this module exists to
//! regenerate exactly those comparisons.
//!
//! * [`busy_expression_motion`] inserts `h_ε := ε` at the *earliest*
//!   down-safe points and replaces every original evaluation of ε by `h_ε`.
//! * [`lazy_expression_motion`] runs BCM and then the
//!   [final flush](crate::flush) — the paper notes the flush *is* a variant
//!   of the lcm procedure, so BCM + flush = LCM, with usability playing the
//!   role of the isolation analysis.

use am_bitset::BitSet;
use am_dfa::{classic, compose, BlockGraph, Confluence, Direction, PointFacts, Problem};
use am_ir::{Cond, FlowGraph, Instr, NodeId, PatternUniverse, Term, Var};

use crate::flush::{final_flush, FlushStats};

/// Statistics of an expression motion run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EmStats {
    /// Initializations inserted at earliest points.
    pub inserted: usize,
    /// Original evaluations replaced by temporaries.
    pub replaced: usize,
    /// Data-flow iterations (block updates) of the down-safety analysis.
    pub iterations: u64,
    /// Flush statistics (lazy variant only).
    pub flush: Option<FlushStats>,
}

/// Replaces every evaluation of `eps` in `instr` by the temporary `h`.
/// Returns the rewritten instruction and how many replacements were made.
fn replace_evaluations(instr: &Instr, eps: Term, h: Var) -> (Instr, usize) {
    match instr {
        Instr::Assign { lhs, rhs } if *rhs == eps && *lhs != h => (Instr::assign(*lhs, h), 1),
        Instr::Branch(c) => {
            let mut count = 0;
            let mut sub = |t: Term| -> Term {
                if t == eps {
                    count += 1;
                    Term::from(h)
                } else {
                    t
                }
            };
            let lhs = sub(c.lhs);
            let rhs = sub(c.rhs);
            (Instr::Branch(Cond { op: c.op, lhs, rhs }), count)
        }
        other => (other.clone(), 0),
    }
}

/// Busy code motion: for every expression pattern ε, inserts `h_ε := ε` at
/// the earliest down-safe points and replaces all original evaluations.
///
/// Critical edges must already be split. The result is expression-optimal
/// but maximally eager — temporaries live as long as possible; use
/// [`lazy_expression_motion`] for the lifetime-optimal variant.
pub fn busy_expression_motion(g: &mut FlowGraph) -> EmStats {
    let universe = PatternUniverse::collect(g);
    let ep = universe.expr_count();
    let mut stats = EmStats::default();
    if ep == 0 {
        return stats;
    }
    let temps: Vec<Var> = universe
        .expr_patterns()
        .map(|(_, t)| g.temp_for(t))
        .collect();

    let blocks = BlockGraph::build(g);
    let dsafe = classic::anticipated_expressions(g, &blocks, &universe);
    stats.iterations = dsafe.solution.iterations;

    // Availability-from-the-safe-region (the `available'` of classic lazy
    // code motion): ε is available' at a point when on every path some
    // earlier point was down-safe (an insertion or original computation
    // covers it) and no kill intervened. Forward must:
    //   out = ¬kill · (anticipated-in ∨ in).
    // Down-safety holds before an instruction exactly when it computes ε or
    // ε is down-safe after it unkilled, so composed over a block this is
    // availability's transfer plus the patterns down-safe at the block's
    // exit that its last instruction does not kill.
    let available = classic::available_expressions(g, &blocks, &universe);
    let (nodes, none) = (g.node_count(), BitSet::new(ep));
    let mut problem = Problem::new(Direction::Forward, Confluence::Must, nodes, ep);
    for n in g.nodes() {
        let (gen, kill) = (&mut problem.gen[n.index()], &mut problem.kill[n.index()]);
        let rows = g.ids(n).iter().map(|&id| available.row(id));
        compose(Direction::Forward, rows, gen, kill);
        let last_kill = g.ids(n).last().map(|&id| available.row(id).1);
        let dsafe_exit = &dsafe.solution.after[n.index()];
        gen.union_difference(dsafe_exit, last_kill.unwrap_or(&none));
    }
    let avail = blocks.solve(&problem, None);

    // Earliest points: down-safe but not yet available'. Inside a block
    // that is right after an instruction killing the pattern; at a block's
    // entry placement is edge-precise: at a join, only the predecessors
    // lacking availability receive the computation (they are
    // single-successor nodes after critical-edge splitting, so their exits
    // are exactly the edges).
    let is_join = |n: NodeId| n != g.start() && g.preds(n).len() != 1;
    let joins: Vec<bool> = g.nodes().map(is_join).collect();
    let mut insert_at_exit = vec![BitSet::new(ep); nodes];
    let mut earliest = BitSet::new(ep);
    for n in g.nodes().filter(|n| joins[n.index()]) {
        earliest.copy_from(&dsafe.solution.before[n.index()]);
        earliest.difference_with(&avail.before[n.index()]);
        for &m in g.preds(n) {
            let exit = &mut insert_at_exit[m.index()];
            exit.union_difference(&earliest, &avail.after[m.index()]);
        }
    }

    // Rewrite.
    let init = |i: usize| Instr::Assign {
        lhs: temps[i],
        rhs: universe.expr(i),
    };
    let mut facts = PointFacts::default();
    for n in g.nodes() {
        dsafe.facts(g, n, &mut facts);
        let mut fresh: Vec<Instr> = Vec::new();
        for j in 0..facts.points() {
            earliest.copy_from(facts.before(j));
            if j > 0 {
                earliest.intersect_with(dsafe.row(g.ids(n)[j - 1]).1);
            } else if joins[n.index()] {
                earliest.clear();
            } else {
                earliest.difference_with(&avail.before[n.index()]);
            }
            for i in earliest.iter() {
                fresh.push(init(i));
                stats.inserted += 1;
            }
            // The pass-through point of an empty block has no instruction.
            let Some(&id) = g.ids(n).get(j) else {
                continue;
            };
            let mut rewritten = g.interner().instr(id).clone();
            for (i, eps) in universe.expr_patterns() {
                let (next, count) = replace_evaluations(&rewritten, eps, temps[i]);
                rewritten = next;
                stats.replaced += count;
            }
            fresh.push(rewritten);
        }
        for i in insert_at_exit[n.index()].iter() {
            fresh.push(init(i));
            stats.inserted += 1;
        }
        g.set_block(n, fresh);
    }
    stats
}

/// Lazy code motion: busy code motion followed by the final flush, which
/// sinks initializations to their latest useful points and reconstructs
/// isolated ones.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::lcm::lazy_expression_motion;
///
/// let mut g = parse(
///     "start s\nend e\nnode s { x := a+b; y := a+b }\nnode e { out(x,y) }\nedge s -> e",
/// )?;
/// lazy_expression_motion(&mut g);
/// // One initialization serves both uses (canonical text renames the
/// // temporary to h1, so "a+b" appears exactly once).
/// let canon = am_ir::alpha::canonical_text(&g);
/// assert_eq!(canon.matches("a+b").count(), 1);
/// assert!(canon.contains("x := h1"));
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn lazy_expression_motion(g: &mut FlowGraph) -> EmStats {
    let mut stats = busy_expression_motion(g);
    stats.flush = Some(final_flush(g));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::alpha::canonical_text;
    use am_ir::interp;
    use am_ir::text::parse;

    /// Fig. 1(a).
    const FIG1: &str = "
        start 1
        end 4
        node 1 { skip }
        node 2 { z := a+b; x := a+b }
        node 3 { x := a+b; y := x+y }
        node 4 { out(x,y,z) }
        edge 1 -> 2, 3
        edge 2 -> 4
        edge 3 -> 4
    ";

    fn em(src: &str) -> (am_ir::FlowGraph, am_ir::FlowGraph) {
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        lazy_expression_motion(&mut g);
        (orig, g)
    }

    #[test]
    fn fig1_expression_motion_busy_matches_figure() {
        // Fig. 1(b): h := a+b initialized in node 1, reused in 2 and 3 —
        // the busy placement shown in the paper.
        let mut g = parse(FIG1).unwrap();
        g.split_critical_edges();
        busy_expression_motion(&mut g);
        let canon = canonical_text(&g);
        assert_eq!(canon.matches("h1 := a+b").count(), 1, "{canon}");
        assert!(canon.contains("z := h1"), "{canon}");
        assert!(canon.contains("x := h1"), "{canon}");
        assert_eq!(canon.matches("a+b").count(), 1, "{canon}");
    }

    #[test]
    fn lazy_motion_sinks_and_reconstructs() {
        // The lazy variant keeps the temporary only where it pays: node 2
        // uses it twice (init sunk there); node 3's isolated use is
        // reconstructed.
        let (_, g) = em(FIG1);
        let canon = canonical_text(&g);
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        let body2: Vec<String> = g.instrs(n2).map(|i| i.display(g.pool())).collect();
        assert!(body2[0].contains(":= a+b"), "{canon}");
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        let body3: Vec<String> = g.instrs(n3).map(|i| i.display(g.pool())).collect();
        assert_eq!(body3[0], "x := a+b", "isolated use reconstructed: {canon}");
    }

    #[test]
    fn em_preserves_semantics_and_counts() {
        let (orig, g) = em(FIG1);
        for seed in 0..20 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 4),
                inputs: vec![("a".into(), 5), ("b".into(), seed as i64), ("y".into(), 2)],
                ..Default::default()
            };
            let r0 = interp::run(&orig, &cfg);
            let r1 = interp::run(&g, &cfg);
            assert_eq!(r0.observable(), r1.observable(), "seed {seed}");
            if r0.stop == interp::StopReason::ReachedEnd && r1.stop == r0.stop {
                assert!(r1.expr_evals <= r0.expr_evals, "seed {seed}");
            }
        }
    }

    #[test]
    fn em_cannot_remove_assignments() {
        // Fig. 6(a): EM alone leaves the loop-invariant *assignment* in the
        // loop; it only shares the expression computation.
        let (_, g) = em("start 1\nend 4\n\
             node 1 { y := c+d }\n\
             node 2 { branch x+z > y+i }\n\
             node 3 { y := c+d; x := y+z; i := i+x }\n\
             node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2");
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        let body: Vec<String> = g.instrs(n3).map(|i| i.display(g.pool())).collect();
        // The y := ... assignment is still in the loop (via the temporary).
        assert!(
            body.iter().any(|s| s.starts_with("y := ")),
            "EM alone must keep the assignment: {body:?}"
        );
    }

    #[test]
    fn loop_invariant_expression_is_hoisted() {
        let src = "start 1\nend 4\n\
             node 1 { skip }\n\
             node 2 { branch q > 0 }\n\
             node 3 { x := a+b; q := q-1 }\n\
             node 4 { out(x,q) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";
        // a+b is NOT down-safe at node 1 (the path 1,2,4 never computes it),
        // so EM must not hoist it out of the loop.
        let (orig, g) = em(src);
        for seed in 0..10 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 6),
                inputs: vec![("a".into(), 1), ("b".into(), 2), ("q".into(), 2)],
                ..Default::default()
            };
            let r0 = interp::run(&orig, &cfg);
            let r1 = interp::run(&g, &cfg);
            assert_eq!(r0.observable(), r1.observable());
            if r0.stop == interp::StopReason::ReachedEnd && r1.stop == r0.stop {
                assert!(r1.expr_evals <= r0.expr_evals);
            }
        }
    }

    #[test]
    fn self_referential_computation_is_replaced_correctly() {
        // a := a+b computes a+b then kills it; the following use must get a
        // fresh initialization (the kill-restarts-region rule).
        let src = "start 1\nend 2\nnode 1 { a := a+b; x := a+b }\nnode 2 { out(a,x) }\nedge 1 -> 2";
        let (orig, g) = em(src);
        for val in [(3, 4), (0, 0), (-5, 2)] {
            let cfg = interp::Config::with_inputs(vec![("a", val.0), ("b", val.1)]);
            let r0 = interp::run(&orig, &cfg);
            let r1 = interp::run(&g, &cfg);
            assert_eq!(
                r0.observable(),
                r1.observable(),
                "{:?}\n{}",
                val,
                canonical_text(&g)
            );
        }
    }

    #[test]
    fn bcm_alone_is_eager() {
        let mut g = parse(FIG1).unwrap();
        g.split_critical_edges();
        let stats = busy_expression_motion(&mut g);
        assert!(stats.inserted >= 1);
        // 3 occurrences of a+b plus the single x+y (BCM is eager about
        // single-use expressions too; the flush undoes that).
        assert_eq!(stats.replaced, 4);
        // The eager insertion sits in node 1 (earliest safe point).
        let n1 = g.start();
        let body: Vec<String> = g.instrs(n1).map(|i| i.display(g.pool())).collect();
        assert!(body.iter().any(|s| s.contains(":= a+b")), "{body:?}");
    }
}
