//! The restricted assignment motion baseline (Sec. 1.4, Figures 8/9).
//!
//! Dhamdhere's practical adaptation of Morel–Renvoise PRE extends
//! expression motion to assignments but "heuristically restricts assignment
//! hoistings to *immediately profitable* ones, i.e., to hoistings which
//! eliminate a partially redundant assignment". An assignment that merely
//! *unblocks* another one is never moved, which is exactly what Fig. 8
//! exploits: the blocker `a := x+y` is not itself partially redundant, so
//! the restricted algorithm leaves the partially redundant `x := y+z`
//! behind, while the unrestricted phase of this crate removes it (Fig. 9).
//!
//! The implementation makes the heuristic operational: a pattern's hoisting
//! is accepted only when performing it (followed by redundancy elimination)
//! *strictly decreases* the pattern's occurrence count.

use am_ir::FlowGraph;
use am_trace::Tracer;

use crate::hoist::Rewritten;
use crate::incremental::MotionContext;
use crate::rae::eliminate_redundant_assignments;

/// Statistics of a [`restricted_assignment_motion`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestrictedStats {
    /// Hoistings accepted as immediately profitable.
    pub accepted: usize,
    /// Hoistings tried and rejected.
    pub rejected: usize,
    /// Assignment occurrences removed by redundancy elimination.
    pub eliminated: usize,
    /// Rounds until no profitable hoisting remains.
    pub rounds: usize,
}

fn occurrence_count(g: &FlowGraph, pat: &am_ir::AssignPattern) -> usize {
    g.locs().filter(|(_, instr)| pat.executed_by(instr)).count()
}

/// Runs the restricted (immediately-profitable-only) assignment motion.
///
/// Critical edges must already be split. The result is the Fig. 8 baseline:
/// redundancy elimination plus only those hoistings that pay off by
/// themselves.
/// # Examples
///
/// ```
/// use am_core::restricted::{fig8_example, restricted_assignment_motion};
///
/// let mut g = fig8_example();
/// g.split_critical_edges();
/// let stats = restricted_assignment_motion(&mut g);
/// // Fig. 8: nothing is immediately profitable.
/// assert_eq!(stats.accepted, 0);
/// ```
pub fn restricted_assignment_motion(g: &mut FlowGraph) -> RestrictedStats {
    let mut stats = RestrictedStats::default();
    let budget = crate::motion::default_round_budget(g);
    let tracer = Tracer::disabled();
    for _ in 0..budget {
        stats.rounds += 1;
        stats.eliminated += eliminate_redundant_assignments(g).eliminated;
        let mut ctx = MotionContext::new();
        let analysis = ctx.hoisting(g);
        let mut accepted_one = false;
        for (i, pat) in analysis.universe.assign_patterns() {
            let before = occurrence_count(g, &pat);
            if before == 0 {
                continue;
            }
            // Tentatively hoist only this pattern and clean up.
            let mut tentative = g.clone();
            let outcome = ctx.apply_insertion_step(
                &mut tentative,
                &analysis,
                Some(i),
                &tracer,
                0,
                &mut Rewritten::default(),
            );
            if !outcome.changed {
                continue;
            }
            eliminate_redundant_assignments(&mut tentative);
            let after = occurrence_count(&tentative, &pat);
            if after < before {
                *g = tentative;
                stats.accepted += 1;
                accepted_one = true;
                break; // re-analyze from scratch
            }
            stats.rejected += 1;
        }
        if !accepted_one {
            break;
        }
    }
    stats
}

/// The Fig. 8 example program (see module docs): a diamond whose join block
/// starts with the blocking assignment `a := x+y`.
pub fn fig8_example() -> FlowGraph {
    am_ir::text::parse(
        "start 0\nend e\n\
         node 0 { branch p > 0 }\n\
         node 1 { x := y+z }\n\
         node 3 { skip }\n\
         node 4 { a := x+y; x := y+z; out(a,x) }\n\
         node e { skip }\n\
         edge 0 -> 1, 3\nedge 1 -> 4\nedge 3 -> 4\nedge 4 -> e",
    )
    .expect("static example parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::assignment_motion;
    use am_ir::interp;

    fn count_everywhere(g: &FlowGraph, needle: &str) -> usize {
        am_ir::text::to_text(g).matches(needle).count()
    }

    #[test]
    fn fig8_restricted_motion_has_no_effect() {
        let mut g = fig8_example();
        g.split_critical_edges();
        let before = am_ir::text::to_text(&g);
        let stats = restricted_assignment_motion(&mut g);
        assert_eq!(stats.accepted, 0, "no hoisting is immediately profitable");
        assert_eq!(
            am_ir::text::to_text(&g),
            before,
            "program unchanged (Fig. 8)"
        );
        // The partially redundant assignment remains in node 4.
        let n4 = g.nodes().find(|&n| g.label(n) == "4").unwrap();
        assert!(g.instrs(n4).any(|i| i.display(g.pool()) == "x := y+z"));
    }

    #[test]
    fn fig9_unrestricted_motion_eliminates_the_redundancy() {
        let mut g = fig8_example();
        g.split_critical_edges();
        let stats = assignment_motion(&mut g);
        assert!(stats.converged);
        // Fig. 9(b): node 4 holds only the out; x := y+z moved to node 1's
        // exit and node 3 (after the hoisted a := x+y).
        let n4 = g.nodes().find(|&n| g.label(n) == "4").unwrap();
        let body4: Vec<String> = g.instrs(n4).map(|i| i.display(g.pool())).collect();
        assert_eq!(body4, vec!["out(a,x)"]);
        let n1 = g.nodes().find(|&n| g.label(n) == "1").unwrap();
        let body1: Vec<String> = g.instrs(n1).map(|i| i.display(g.pool())).collect();
        assert_eq!(body1, vec!["x := y+z", "a := x+y"]);
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        let body3: Vec<String> = g.instrs(n3).map(|i| i.display(g.pool())).collect();
        assert_eq!(body3, vec!["a := x+y", "skip", "x := y+z"]);
    }

    #[test]
    fn restricted_still_eliminates_full_redundancies() {
        let mut g = am_ir::text::parse(
            "start 1\nend 2\nnode 1 { x := a+b; x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2",
        )
        .unwrap();
        let stats = restricted_assignment_motion(&mut g);
        assert_eq!(stats.eliminated, 1);
        assert_eq!(count_everywhere(&g, "x := a+b"), 1);
    }

    #[test]
    fn restricted_accepts_genuinely_profitable_hoists() {
        // x := a+b occurs on both branches and can merge above: hoisting it
        // is immediately profitable (2 occurrences become 1).
        let mut g = am_ir::text::parse(
            "start 1\nend 4\n\
             node 1 { skip }\n\
             node 2 { x := a+b; out(x) }\n\
             node 3 { x := a+b }\n\
             node 4 { out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4",
        )
        .unwrap();
        g.split_critical_edges();
        let stats = restricted_assignment_motion(&mut g);
        assert!(stats.accepted >= 1);
        assert_eq!(count_everywhere(&g, "x := a+b"), 1);
    }

    #[test]
    fn restricted_preserves_semantics() {
        let orig = fig8_example();
        let mut g = orig.clone();
        g.split_critical_edges();
        restricted_assignment_motion(&mut g);
        for seed in 0..10 {
            let cfg = interp::Config {
                oracle: interp::Oracle::random(seed, 4),
                inputs: vec![("y".into(), 3), ("z".into(), seed as i64)],
                ..Default::default()
            };
            assert_eq!(
                interp::run(&orig, &cfg).observable(),
                interp::run(&g, &cfg).observable()
            );
        }
    }
}
