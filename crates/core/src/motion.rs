//! Phase 2 — the assignment motion fixed point (Sec. 4.3).
//!
//! Redundant assignment elimination and assignment hoisting enable each
//! other (the hoisting–elimination, hoisting–hoisting, elimination–hoisting
//! and elimination–elimination second-order effects of Sec. 4.3), so the
//! phase applies both exhaustively: `rae; aht` until the program stops
//! changing. The paper bounds the number of rounds quadratically in the
//! program size and observes it is linear for realistic programs — the
//! [`MotionStats::rounds`] counter feeds the complexity study.

use am_ir::FlowGraph;

use crate::global::GlobalConfig;
use crate::incremental::MotionContext;

/// Which procedure runs first within each round. The paper leaves the
/// order unspecified ("applied until the program stabilizes"); by local
/// confluence (Lemma 3.6) both orders reach cost-equivalent fixed points —
/// a property the test suite checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MotionOrder {
    /// Eliminate redundancies, then hoist (the order used throughout).
    #[default]
    RaeFirst,
    /// Hoist, then eliminate.
    HoistFirst,
}

/// Statistics of an [`assignment_motion`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MotionStats {
    /// Number of `rae; aht` rounds until stabilization.
    pub rounds: usize,
    /// Total assignment occurrences eliminated.
    pub eliminated: usize,
    /// Total instances inserted by hoisting.
    pub inserted: usize,
    /// Total hoisting candidates removed.
    pub removed: usize,
    /// Total data-flow solver iterations across all rounds.
    pub iterations: u64,
    /// Total solver worklist pushes across all rounds.
    pub worklist_pushes: u64,
    /// Whether the fixed point was reached within the round budget.
    pub converged: bool,
}

/// The default round budget for a program: the paper's quadratic worst-case
/// bound, with slack for tiny programs.
pub fn default_round_budget(g: &FlowGraph) -> usize {
    let size = g.instr_count() + g.node_count();
    size * size + 16
}

/// Runs the assignment motion phase to its fixed point.
///
/// Critical edges must already be split (use
/// [`FlowGraph::split_critical_edges`]); the
/// [`global`](crate::global) pipeline does this for you.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::motion::assignment_motion;
///
/// // Fig. 2: the loop-invariant assignment merges above the loop.
/// let mut g = parse(
///     "start 1\nend 4\n\
///      node 1 { skip }\n\
///      node 2 { z := a+b; x := a+b }\n\
///      node 3 { x := a+b; y := x+y }\n\
///      node w { skip }\n\
///      node 4 { out(x,y) }\n\
///      edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> w\nedge w -> 3, 4",
/// )?;
/// g.split_critical_edges();
/// let stats = assignment_motion(&mut g);
/// assert!(stats.converged);
/// assert_eq!(am_ir::text::to_text(&g).matches("x := a+b").count(), 1);
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn assignment_motion(g: &mut FlowGraph) -> MotionStats {
    assignment_motion_with(
        g,
        &GlobalConfig::default(),
        MotionOrder::RaeFirst,
        &mut |_, _| {},
    )
}

/// Runs the assignment motion phase under `config`, in procedure `order`
/// (the confluence ablation), calling `hook` at every round boundary.
///
/// The round budget is `config.max_motion_rounds`, or
/// [`default_round_budget`] when unset; the run returns with
/// `converged = false` when the budget is exhausted before the program
/// stabilizes (not observed in practice; the paper proves termination).
/// Each round runs under a `round` span of `config.tracer` carrying its
/// eliminated/inserted/removed counts, and the rae/aht passes emit their
/// own `analysis` counters. Every elimination, hoist insertion and hoist
/// removal appends one [`am_obs::ProvRecord`] to `config.recorder`, keyed by
/// node, instruction text, pattern bit and round; a disabled recorder costs
/// one branch per potential record.
///
/// The hook receives the 1-based round number and the program as it stands
/// after that round's `rae; aht` (or `aht; rae`) pass, *before* the
/// convergence test ends the loop. It may mutate the program: the
/// translation-validation harness uses read-only hooks to snapshot every
/// round and mutating hooks to inject faults at an exact phase boundary.
/// A mutation made in the round that would otherwise have converged is kept
/// but not re-stabilized — the budget governs further rounds as usual.
/// The round context notices a hook's mutation through the write stamps
/// the graph gives every block it writes ([`am_ir::Block::stamp`]) and
/// re-syncs exactly the blocks the hook wrote; a hook must not replace the
/// graph wholesale (`*g = other`) with an unrelated graph, whose stamps
/// may coincide with the ones the context recorded.
pub fn assignment_motion_with(
    g: &mut FlowGraph,
    config: &GlobalConfig,
    order: MotionOrder,
    hook: &mut dyn FnMut(usize, &mut FlowGraph),
) -> MotionStats {
    run_motion(&mut MotionContext::new(), g, config, order, hook)
}

/// [`assignment_motion_with`] on the caller's context `ctx`, which is left
/// mirroring the program the motion produced (or the one a last mutating
/// hook left behind, which its next sync notices): the global algorithm
/// hands it on to the final flush.
pub(crate) fn run_motion(
    ctx: &mut MotionContext,
    g: &mut FlowGraph,
    config: &GlobalConfig,
    order: MotionOrder,
    hook: &mut dyn FnMut(usize, &mut FlowGraph),
) -> MotionStats {
    let max_rounds = config
        .max_motion_rounds
        .unwrap_or_else(|| default_round_budget(g));
    let (tracer, recorder) = (&config.tracer, &config.recorder);
    let mut stats = MotionStats::default();
    for round in 1..=max_rounds {
        let name = if tracer.enabled() {
            format!("round {round}")
        } else {
            String::new()
        };
        let mut span = tracer.span("round", name);
        let before_hash = ctx.fingerprint(g);
        let (rae, hoist) = match order {
            MotionOrder::RaeFirst => {
                let rae = ctx.rae_round(g, tracer, recorder, round as u32);
                (rae, ctx.hoist_round(g, tracer, recorder, round as u32))
            }
            MotionOrder::HoistFirst => {
                let hoist = ctx.hoist_round(g, tracer, recorder, round as u32);
                (ctx.rae_round(g, tracer, recorder, round as u32), hoist)
            }
        };
        stats.rounds += 1;
        stats.eliminated += rae.eliminated;
        stats.inserted += hoist.inserted;
        stats.removed += hoist.removed;
        stats.iterations += rae.iterations + hoist.iterations;
        stats.worklist_pushes += rae.worklist_pushes + hoist.worklist_pushes;
        span.arg("eliminated", rae.eliminated as i64)
            .arg("inserted", hoist.inserted as i64)
            .arg("removed", hoist.removed as i64);
        ctx.end_round(tracer, &mut span);
        drop(span);
        // A round that provably changed nothing is the fixed point. The
        // fingerprint covers changes that cancel out within the round (an
        // elimination re-inserted by the hoist): the context maintains it
        // from the blocks the round rewrote, so the check costs O(1) and no
        // program clone (a collision could only end the loop one round
        // early, never produce a wrong program).
        let stable = (rae.eliminated == 0 && !hoist.changed) || ctx.fingerprint(g) == before_hash;
        hook(round, g);
        if stable {
            stats.converged = true;
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::parse;
    use am_ir::{alpha, interp};

    fn check_semantics(orig: &FlowGraph, opt: &FlowGraph, inputs: &[(&str, i64)]) {
        for seed in 0..25 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed * 7 + 1, 8),
                inputs: inputs.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
                ..Default::default()
            };
            let a = interp::run(orig, &cfg);
            let b = interp::run(opt, &cfg);
            assert_eq!(a.observable(), b.observable(), "seed {seed}");
            // Cost comparisons are meaningful on complete runs; truncated
            // prefixes may observe hoisted work earlier than the original.
            if a.stop == interp::StopReason::ReachedEnd && b.stop == interp::StopReason::ReachedEnd
            {
                assert!(
                    b.assign_execs <= a.assign_execs,
                    "assignment executions increased (seed {seed}): {} -> {}",
                    a.assign_execs,
                    b.assign_execs
                );
            }
        }
    }

    #[test]
    fn fig2_loop_invariant_assignment_is_hoisted() {
        // Fig. 2: x := a+b hoisted out of the loop and merged.
        let src = "start 1\nend 5\n\
             node 1 { skip }\n\
             node 2 { z := a+b; x := a+b }\n\
             node 3 { x := a+b; y := x+y }\n\
             node w { skip }\n\
             node 4 { out(x,y) }\n\
             node 5 { skip }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> w\nedge w -> 3, 4\nedge 4 -> 5";
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        let stats = assignment_motion(&mut g);
        assert!(stats.converged);
        // x := a+b now sits in node 1 and nowhere else.
        let text = alpha::canonical_text(&g);
        let occurrences = text.matches("x := a+b").count();
        assert_eq!(occurrences, 1, "{text}");
        let n1 = g.start();
        assert!(g.instrs(n1).any(|i| i.display(g.pool()) == "x := a+b"));
        check_semantics(&orig, &g, &[("a", 2), ("b", 3), ("y", 10)]);
    }

    /// Simplified Fig. 4 core: an elimination in round 1 enables a hoist
    /// in round 2.
    const SECOND_ORDER: &str = "start 1\nend 4\n\
         node 1 { y := c+d }\n\
         node 2 { branch q > 0 }\n\
         node 3 { y := c+d; x := y+z; q := q-1 }\n\
         node 4 { x := y+z; out(x,y,q) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";
    const SECOND_ORDER_INPUTS: &[(&str, i64)] = &[("c", 1), ("d", 2), ("z", 3), ("q", 2)];

    #[test]
    fn second_order_effect_elimination_enables_hoisting() {
        // Simplified Fig. 4 core: y := c+d in the loop is redundant; its
        // elimination unblocks hoisting of x := y+z out of the loop.
        // As in Fig. 4, the occurrence at node 4 is what justifies moving
        // the loop occurrence above the branch.
        let orig = parse(SECOND_ORDER).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        let stats = assignment_motion(&mut g);
        assert!(stats.converged);
        assert!(stats.rounds >= 2, "needs a second round for the effect");
        for label in ["3", "4"] {
            let n = g.nodes().find(|&n| g.label(n) == label).unwrap();
            let body: Vec<String> = g.instrs(n).map(|i| i.display(g.pool())).collect();
            assert!(
                !body.contains(&"x := y+z".to_owned()),
                "x := y+z should have left node {label}: {body:?}"
            );
        }
        // y := c+d blocks it in node 1, so it lands at node 1's exit.
        let n1 = g.start();
        let body1: Vec<String> = g.instrs(n1).map(|i| i.display(g.pool())).collect();
        assert_eq!(body1, vec!["y := c+d", "x := y+z"]);
        check_semantics(&orig, &g, SECOND_ORDER_INPUTS);
    }

    #[test]
    fn round_budget_stops_motion_early() {
        // The second-order example needs at least two rounds; a budget of
        // one stops after the first, unconverged but still sound.
        let orig = parse(SECOND_ORDER).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        let config = GlobalConfig {
            max_motion_rounds: Some(1),
            ..Default::default()
        };
        let mut hooked = Vec::new();
        let stats = assignment_motion_with(&mut g, &config, MotionOrder::RaeFirst, &mut |r, _| {
            hooked.push(r)
        });
        assert_eq!(stats.rounds, 1);
        assert_eq!(hooked, [1]);
        assert!(!stats.converged);
        check_semantics(&orig, &g, SECOND_ORDER_INPUTS);
    }

    #[test]
    fn fig8_unrestricted_motion_succeeds() {
        // Fig. 8/9: hoisting a := x+y (not profitable by itself) unblocks
        // the elimination of the partially redundant x := y+z at node 4.
        let src = "start s\nend e\n\
             node s { skip }\n\
             node 1 { x := y+z; a := x+y; x := y+z }\n\
             node 2 { a := x+y; x := y+z }\n\
             node 4 { x := y+z; out(a,x) }\n\
             node e { skip }\n\
             edge s -> 1, 2\nedge 1 -> 4\nedge 2 -> 4\nedge 4 -> e";
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        let stats = assignment_motion(&mut g);
        assert!(stats.converged);
        // Fig. 9(b): node 4 keeps no x := y+z.
        let n4 = g.nodes().find(|&n| g.label(n) == "4").unwrap();
        let body: Vec<String> = g.instrs(n4).map(|i| i.display(g.pool())).collect();
        assert!(
            !body.contains(&"x := y+z".to_owned()),
            "partially redundant assignment should be gone: {body:?}"
        );
        check_semantics(&orig, &g, &[("y", 4), ("z", 5)]);
    }

    #[test]
    fn stable_program_converges_in_one_round() {
        let src = "start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2";
        let mut g = parse(src).unwrap();
        let stats = assignment_motion(&mut g);
        assert!(stats.converged);
        // x := a+b is already at its earliest point; first round is a no-op.
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.eliminated, 0);
    }

    #[test]
    fn motion_on_random_programs_preserves_semantics() {
        use am_ir::random::SplitMix64;
        use am_ir::random::{structured, StructuredConfig};
        for seed in 0..30 {
            let mut rng = SplitMix64::new(seed);
            let orig = structured(&mut rng, &StructuredConfig::default());
            let mut g = orig.clone();
            g.split_critical_edges();
            let stats = assignment_motion(&mut g);
            assert!(stats.converged, "seed {seed} did not converge");
            assert_eq!(g.validate(), Ok(()), "seed {seed}");
            for run_seed in 0..6 {
                let cfg = interp::Config {
                    oracle: interp::Oracle::random(seed * 100 + run_seed, 12),
                    inputs: vec![("v0".into(), 3), ("v1".into(), -2), ("v2".into(), 7)],
                    ..Default::default()
                };
                let a = interp::run(&orig, &cfg);
                let b = interp::run(&g, &cfg);
                assert_eq!(
                    a.observable(),
                    b.observable(),
                    "seed {seed}/{run_seed}\nORIG:\n{orig:?}\nOPT:\n{g:?}"
                );
                if a.stop == interp::StopReason::ReachedEnd
                    && b.stop == interp::StopReason::ReachedEnd
                {
                    assert!(b.assign_execs <= a.assign_execs, "seed {seed}/{run_seed}");
                    assert!(b.expr_evals <= a.expr_evals, "seed {seed}/{run_seed}");
                }
            }
        }
    }
}
