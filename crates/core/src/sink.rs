//! Assignment sinking / partial dead-code elimination — the dual of the
//! hoisting analysis (Sec. 4.3.2 notes the duality with Ref. \[17\]).
//!
//! Sinking moves assignments *with* the control flow to their latest safe
//! points; an assignment whose sunk instance reaches a redefinition of its
//! target or the program end without an intervening use is (partially)
//! dead and disappears on those paths. This is the transformation the
//! paper's hoistability analysis is dual to; it is provided as an
//! extension/ablation, not as part of the main pipeline.
//!
//! The sinkability system is a forward must analysis (greatest solution):
//!
//! ```text
//! X-SINKABLE_ι = OCCURRENCE_ι + N-SINKABLE_ι · ¬BLOCKED_ι
//! N-SINKABLE_ι = ∏_{κ ∈ pred(ι)} X-SINKABLE_κ     (false at the entry)
//! ```
//!
//! where `BLOCKED` means the instruction uses or redefines the target, or
//! modifies an operand of the right-hand side.
//!
//! # Traps
//!
//! Eliminating a dead assignment whose right-hand side is non-trivial can
//! remove a potential run-time error — the reason the *paper's* algorithm
//! never does it (Sec. 3). [`SinkConfig::eliminate_nontrivial_dead`]
//! controls whether this module may (the default, matching Ref. \[17\]) or
//! must keep such assignments alive.

use am_bitset::BitSet;
use am_dfa::{BlockGraph, BlockSolution, Confluence, Direction, PatternMasks, PointFacts};
use am_ir::{AssignPattern, FlowGraph, Instr, Loc, PatternUniverse, Term};

use crate::hoist::blocking_row;

/// Configuration for [`sink_assignments`].
#[derive(Clone, Copy, Debug)]
pub struct SinkConfig {
    /// Allow dropping dead assignments with non-trivial right-hand sides
    /// (changes trap potential; see module docs).
    pub eliminate_nontrivial_dead: bool,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            eliminate_nontrivial_dead: true,
        }
    }
}

/// Statistics of a [`sink_assignments`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Occurrences removed from their original positions.
    pub removed: usize,
    /// Instances inserted at latest points.
    pub inserted: usize,
    /// Sunk instances that turned out dead and were dropped.
    pub dropped_dead: usize,
    /// Data-flow iterations (block updates).
    pub iterations: u64,
}

/// Sinks every assignment pattern to its latest safe points and eliminates
/// the (partially) dead ones.
///
/// Critical edges must already be split.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::sink::{sink_assignments, SinkConfig};
///
/// // x := a+b is dead (overwritten before any use): sinking removes it.
/// let mut g = parse(
///     "start s\nend e\nnode s { x := a+b; x := 1 }\nnode e { out(x) }\nedge s -> e",
/// )?;
/// let stats = sink_assignments(&mut g, &SinkConfig::default());
/// assert_eq!(stats.dropped_dead, 1);
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn sink_assignments(g: &mut FlowGraph, config: &SinkConfig) -> SinkStats {
    let universe = PatternUniverse::collect(g);
    let ap = universe.assign_count();
    let mut stats = SinkStats::default();
    if ap == 0 {
        return stats;
    }

    // OCCURRENCE is the instruction's own pattern; BLOCKED is Table 1's
    // blocking row (Def. 3.2), the dual blockade.
    let masks = PatternMasks::build(&universe, g.pool().len());
    let blocks = BlockGraph::build(g);
    let sink = BlockSolution::solve(
        g,
        &blocks,
        Direction::Forward,
        Confluence::Must,
        ap,
        |instr| {
            let own = match instr {
                Instr::Assign { lhs, rhs } => universe.assign_id(&AssignPattern::new(*lhs, *rhs)),
                _ => None,
            };
            (own, blocking_row(instr, &masks, ap))
        },
    );
    stats.iterations = sink.solution.iterations;

    // Latest points. An instance arriving at a blocked instruction is
    // placed before it when the blockade is a use or an operand
    // modification; a pure redefinition of the target means the sunk value
    // is dead. Arriving at the program exit still sinking also means dead.
    // Inside a block the next point's entry is this point's exit, so an
    // instance leaves the sinking region only at a block's last point. The
    // rewrite drops the occurrences and adds the insertions.
    let droppable = |i: usize| {
        matches!(universe.assign(i).rhs, Term::Operand(_)) || config.eliminate_nontrivial_dead
    };
    let (none, mut facts) = (BitSet::new(ap), PointFacts::default());
    for n in g.nodes() {
        sink.facts(g, n, &mut facts);
        let mut fresh: Vec<Instr> = Vec::new();
        let mut insert = |i: usize, fresh: &mut Vec<Instr>| {
            let pat = universe.assign(i);
            fresh.push(Instr::assign(pat.lhs, pat.rhs));
            stats.inserted += 1;
        };
        for j in 0..facts.points() {
            let id = g.ids(n).get(j).copied();
            let (own, blocked_at) = id.map_or((&None, &none), |id| sink.row(id));
            for i in facts.before(j).iter().filter(|&i| blocked_at.contains(i)) {
                let (instr, pat) = (g.instr(Loc { node: n, index: j }), universe.assign(i));
                let operand_mod = instr
                    .def()
                    .is_some_and(|d| d != pat.lhs && pat.rhs.mentions(d));
                if !instr.uses(pat.lhs) && !operand_mod && droppable(i) {
                    stats.dropped_dead += 1;
                } else {
                    insert(i, &mut fresh);
                }
            }
            if let Some(id) = id {
                if own.is_none() {
                    fresh.push(g.interner().instr(id).clone());
                } else {
                    stats.removed += 1;
                }
            }
            if j + 1 < facts.points() {
                continue;
            }
            for i in facts.after(j).iter() {
                let succs = g.succs(n);
                if succs.is_empty() && droppable(i) {
                    // Sunk off the end of the program: dead.
                    stats.dropped_dead += 1;
                } else if succs.is_empty()
                    || succs
                        .iter()
                        .any(|m| !sink.solution.before[m.index()].contains(i))
                {
                    insert(i, &mut fresh);
                }
            }
        }
        g.set_block(n, fresh);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::interp;
    use am_ir::text::parse;

    fn sink(src: &str) -> (FlowGraph, FlowGraph, SinkStats) {
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        let stats = sink_assignments(&mut g, &SinkConfig::default());
        assert_eq!(g.validate(), Ok(()));
        (orig, g, stats)
    }

    #[test]
    fn fully_dead_assignment_is_removed() {
        let (_, g, stats) =
            sink("start 1\nend 2\nnode 1 { x := a+b; x := 1 }\nnode 2 { out(x) }\nedge 1 -> 2");
        assert_eq!(stats.dropped_dead, 1);
        assert!(!am_ir::text::to_text(&g).contains("a+b"));
    }

    #[test]
    fn partially_dead_assignment_is_sunk_into_the_using_branch() {
        // x := a+b is dead on the path through node 3 (which overwrites x).
        let (orig, g, stats) = sink(
            "start 1\nend 4\n\
             node 1 { x := a+b; branch p > 0 }\n\
             node 2 { y := x }\n\
             node 3 { x := 0 }\n\
             node 4 { out(x,y) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        );
        assert!(stats.removed >= 1);
        // Node 2 (the using branch) now computes it; node 1 does not.
        let n1 = g.start();
        assert!(!g.instrs(n1).any(|i| i.display(g.pool()) == "x := a+b"));
        let n2 = g.nodes().find(|&n| g.label(n) == "2").unwrap();
        assert!(g.instrs(n2).any(|i| i.display(g.pool()) == "x := a+b"));
        // Semantics (modulo the eliminated trap potential — none here).
        for p in [0, 1] {
            let cfg = interp::Config::with_inputs(vec![("a", 2), ("b", 3), ("p", p)]);
            assert_eq!(
                interp::run(&orig, &cfg).observable(),
                interp::run(&g, &cfg).observable()
            );
        }
    }

    #[test]
    fn used_assignment_stays_before_its_use() {
        let (orig, g, _) =
            sink("start 1\nend 2\nnode 1 { x := a+b; y := x+1 }\nnode 2 { out(x,y) }\nedge 1 -> 2");
        let cfg = interp::Config::with_inputs(vec![("a", 1), ("b", 2)]);
        assert_eq!(
            interp::run(&orig, &cfg).observable(),
            interp::run(&g, &cfg).observable()
        );
    }

    #[test]
    fn trap_preserving_mode_keeps_dead_nontrivial_assignments() {
        let orig =
            parse("start 1\nend 2\nnode 1 { x := a/b; x := 1 }\nnode 2 { out(x) }\nedge 1 -> 2")
                .unwrap();
        let mut g = orig.clone();
        let stats = sink_assignments(
            &mut g,
            &SinkConfig {
                eliminate_nontrivial_dead: false,
            },
        );
        assert_eq!(stats.dropped_dead, 0);
        // The division still traps on b = 0.
        let cfg = interp::Config::with_inputs(vec![("a", 1), ("b", 0)]);
        assert_eq!(interp::run(&g, &cfg).trap, Some(interp::Trap::DivByZero));
    }

    #[test]
    fn dead_trivial_copy_is_always_dropped() {
        let orig =
            parse("start 1\nend 2\nnode 1 { t := a; x := 1 }\nnode 2 { out(x) }\nedge 1 -> 2")
                .unwrap();
        let mut g = orig.clone();
        let stats = sink_assignments(
            &mut g,
            &SinkConfig {
                eliminate_nontrivial_dead: false,
            },
        );
        assert_eq!(stats.dropped_dead, 1);
        assert!(!am_ir::text::to_text(&g).contains("t := a"));
    }

    #[test]
    fn sinking_out_of_a_loop() {
        // x := a+b computed every iteration but only used after the loop.
        let (orig, g, _) = sink(
            "start 1\nend 4\n\
             node 1 { skip }\n\
             node 2 { branch q > 0 }\n\
             node 3 { x := a+b; q := q-1 }\n\
             node 4 { out(x,q) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        );
        for q in [0, 1, 3] {
            let cfg = interp::Config::with_inputs(vec![("a", 4), ("b", 5), ("q", q)]);
            let r0 = interp::run(&orig, &cfg);
            let r1 = interp::run(&g, &cfg);
            assert_eq!(r0.observable(), r1.observable(), "q={q}");
            assert!(r1.expr_evals <= r0.expr_evals, "q={q}");
        }
    }

    #[test]
    fn sinking_preserves_semantics_on_random_programs() {
        use am_ir::random::SplitMix64;
        use am_ir::random::{structured, StructuredConfig};
        for seed in 0..20 {
            let mut rng = SplitMix64::new(seed + 400);
            let orig = structured(&mut rng, &StructuredConfig::default());
            let mut g = orig.clone();
            g.split_critical_edges();
            sink_assignments(&mut g, &SinkConfig::default());
            assert_eq!(g.validate(), Ok(()), "seed {seed}");
            for run_seed in 0..5 {
                let cfg = interp::Config {
                    oracle: interp::Oracle::random(seed * 13 + run_seed, 12),
                    inputs: vec![("v0".into(), 1), ("v1".into(), 2), ("v2".into(), 3)],
                    ..Default::default()
                };
                let a = interp::run(&orig, &cfg);
                let b = interp::run(&g, &cfg);
                assert_eq!(
                    a.observable(),
                    b.observable(),
                    "seed {seed}/{run_seed}\n{orig:?}\n{g:?}"
                );
            }
        }
    }
}

/// Statistics of [`partial_dead_code_elimination`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PdeStats {
    /// Sinking rounds until stabilization.
    pub rounds: usize,
    /// Total occurrences removed from original positions.
    pub removed: usize,
    /// Total instances inserted at latest points.
    pub inserted: usize,
    /// Total dead instances dropped.
    pub dropped_dead: usize,
    /// Whether the fixed point was reached within the budget.
    pub converged: bool,
}

/// Full partial dead-code elimination: iterates [`sink_assignments`] until
/// the program stabilizes. Like hoisting (Sec. 4.3), sinking has
/// second-order effects — dropping a dead assignment can make the
/// assignment feeding it dead in the next round.
pub fn partial_dead_code_elimination(g: &mut FlowGraph, config: &SinkConfig) -> PdeStats {
    let mut stats = PdeStats::default();
    let budget = crate::motion::default_round_budget(g);
    for _ in 0..budget {
        let before = g.clone();
        let round = sink_assignments(g, config);
        stats.rounds += 1;
        stats.removed += round.removed;
        stats.inserted += round.inserted;
        stats.dropped_dead += round.dropped_dead;
        if *g == before {
            stats.converged = true;
            break;
        }
    }
    stats
}

#[cfg(test)]
mod pde_tests {
    use super::*;
    use am_ir::interp::{run, Config};
    use am_ir::text::parse;

    #[test]
    fn dead_chains_collapse_transitively() {
        // y depends on x; only y's death in round one exposes x's death.
        let mut g = parse(
            "start 1\nend 2\n\
             node 1 { x := a+b; y := x+1; y := 0; x := 0 }\n\
             node 2 { out(x,y) }\nedge 1 -> 2",
        )
        .unwrap();
        let stats = partial_dead_code_elimination(&mut g, &SinkConfig::default());
        assert!(stats.converged);
        assert!(stats.rounds >= 2, "needs the second-order round: {stats:?}");
        assert_eq!(stats.dropped_dead, 2, "{stats:?}");
        let text = am_ir::text::to_text(&g);
        assert!(!text.contains("a+b"), "{text}");
        assert!(!text.contains("x+1"), "{text}");
        let r = run(&g, &Config::with_inputs(vec![("a", 5), ("b", 6)]));
        assert_eq!(r.outputs, vec![vec![0, 0]]);
    }

    #[test]
    fn partially_dead_chain_moves_into_the_live_branch() {
        // x := a+b and y := x*2 are both needed only on the left branch.
        let src = "start s\nend e\n\
             node s { x := a+b; y := x*2; branch p > 0 }\n\
             node l { out(y) }\n\
             node r { y := 0; x := 0 }\n\
             node e { out(x,y) }\n\
             edge s -> l, r\nedge l -> e\nedge r -> e";
        let orig = parse(src).unwrap();
        let mut g = orig.clone();
        g.split_critical_edges();
        let stats = partial_dead_code_elimination(&mut g, &SinkConfig::default());
        assert!(stats.converged);
        // On the right path, neither a+b nor x*2 is evaluated any more.
        let right = run(&g, &Config::with_oracle(vec![1], vec![("a", 1), ("b", 2)]));
        let right_orig = run(
            &orig,
            &Config::with_oracle(vec![1], vec![("a", 1), ("b", 2)]),
        );
        assert_eq!(right.observable(), right_orig.observable());
        assert_eq!(right.expr_evals, 0, "{}", am_ir::text::to_text(&g));
        assert_eq!(right_orig.expr_evals, 2);
        // The left path still computes both.
        let left = run(&g, &Config::with_oracle(vec![0], vec![("a", 1), ("b", 2)]));
        let left_orig = run(
            &orig,
            &Config::with_oracle(vec![0], vec![("a", 1), ("b", 2)]),
        );
        assert_eq!(left.observable(), left_orig.observable());
        assert_eq!(left.expr_evals, 2);
    }

    #[test]
    fn pde_converges_on_random_programs() {
        use am_ir::random::SplitMix64;
        use am_ir::random::{structured, StructuredConfig};
        for seed in 0..15 {
            let mut rng = SplitMix64::new(seed + 77_000);
            let orig = structured(&mut rng, &StructuredConfig::default());
            let mut g = orig.clone();
            g.split_critical_edges();
            let stats = partial_dead_code_elimination(&mut g, &SinkConfig::default());
            assert!(stats.converged, "seed {seed}");
            assert_eq!(g.validate(), Ok(()), "seed {seed}");
            for run_seed in 0..5 {
                let cfg = Config {
                    oracle: am_ir::interp::Oracle::random(seed * 7 + run_seed, 12),
                    inputs: vec![("v0".into(), 1), ("v1".into(), -4)],
                    ..Default::default()
                };
                let a = run(&orig, &cfg);
                let b = run(&g, &cfg);
                assert_eq!(a.observable(), b.observable(), "seed {seed}/{run_seed}");
            }
        }
    }
}
