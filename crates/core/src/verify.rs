//! Checkers for the paper's theorems: semantics preservation (Thm 5.1) and
//! run-cost comparisons (Thms 5.2–5.4), built on the counting interpreter.
//!
//! Two programs are compared on *corresponding runs*: the same fixed branch
//! oracle, the same inputs. For complete runs the paper's optimality
//! statements are directly testable; truncated runs (oracle exhausted,
//! step limit) still require observable equality but not cost dominance —
//! motion legitimately reorders work along a path prefix.

use am_ir::interp::{run, Config, Oracle, RunResult, StopReason};
use am_ir::FlowGraph;

/// The outcome of comparing two programs over a batch of runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Comparison {
    /// Runs executed. Every run is counted in exactly one of
    /// [`completed`](Self::completed), [`both_truncated`](Self::both_truncated)
    /// or [`completion_divergences`](Self::completion_divergences).
    pub runs: usize,
    /// Runs that completed (reached the end) in both programs.
    pub completed: usize,
    /// Runs truncated (oracle exhausted, step limit, trap) in *both*
    /// programs. Cost totals exclude these: motion legitimately reorders
    /// work along a shared path prefix.
    pub both_truncated: usize,
    /// Runs where exactly one program completed — always suspicious, since
    /// corresponding runs share the oracle and should stop together unless
    /// a transformation changed the branching structure observed.
    pub completion_divergences: usize,
    /// Runs with differing observable behaviour (should be 0).
    pub semantic_mismatches: usize,
    /// Completed runs where the second program evaluated more expressions.
    pub expr_regressions: usize,
    /// Completed runs where the second program executed more assignments.
    pub assign_regressions: usize,
    /// Total expression evaluations of the first program (completed runs).
    pub expr_evals_a: u64,
    /// Total expression evaluations of the second program (completed runs).
    pub expr_evals_b: u64,
    /// Total assignment executions of the first program (completed runs).
    pub assign_execs_a: u64,
    /// Total assignment executions of the second program (completed runs).
    pub assign_execs_b: u64,
    /// Total temporary assignments of the first program (completed runs).
    pub temp_assigns_a: u64,
    /// Total temporary assignments of the second program (completed runs).
    pub temp_assigns_b: u64,
}

impl Comparison {
    /// Whether all runs agreed observationally.
    pub fn semantically_equal(&self) -> bool {
        self.semantic_mismatches == 0
    }

    /// Whether the second program never evaluated more expressions on a
    /// completed run (the check for Thm 5.2).
    pub fn expression_dominates(&self) -> bool {
        self.expr_regressions == 0
    }
}

/// Batch specification for [`compare`].
#[derive(Clone, Debug)]
pub struct CompareConfig {
    /// Number of oracles to try.
    pub runs: usize,
    /// Decisions per oracle.
    pub decisions: usize,
    /// Seed for oracle generation.
    pub seed: u64,
    /// Inputs, by variable name.
    pub inputs: Vec<(String, i64)>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            runs: 24,
            decisions: 12,
            seed: 0xA11CE,
            inputs: vec![
                ("v0".into(), 3),
                ("v1".into(), -2),
                ("v2".into(), 7),
                ("v3".into(), 1),
            ],
        }
    }
}

/// Runs `a` and `b` against a shared batch of oracles and tallies the
/// paper's comparison quantities.
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_core::verify::{compare, CompareConfig};
/// use am_core::global::optimize;
///
/// let g = parse(
///     "start s\nend e\nnode s { x := a+b; y := a+b }\nnode e { out(x,y) }\nedge s -> e",
/// )?;
/// let optimized = optimize(&g).program;
/// let report = compare(&g, &optimized, &CompareConfig::default());
/// assert!(report.semantically_equal());
/// assert!(report.expression_dominates());
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn compare(a: &FlowGraph, b: &FlowGraph, config: &CompareConfig) -> Comparison {
    let mut out = Comparison::default();
    for i in 0..config.runs {
        let cfg = Config {
            oracle: Oracle::random(config.seed.wrapping_add(i as u64), config.decisions),
            inputs: config.inputs.clone(),
            ..Config::default()
        };
        let ra = run(a, &cfg);
        let rb = run(b, &cfg);
        out.runs += 1;
        if ra.observable() != rb.observable() {
            out.semantic_mismatches += 1;
        }
        let a_done = ra.stop == StopReason::ReachedEnd;
        let b_done = rb.stop == StopReason::ReachedEnd;
        if a_done != b_done {
            out.completion_divergences += 1;
        } else if !a_done {
            out.both_truncated += 1;
        }
        if a_done && b_done {
            out.completed += 1;
            out.expr_evals_a += ra.expr_evals;
            out.expr_evals_b += rb.expr_evals;
            out.assign_execs_a += ra.assign_execs;
            out.assign_execs_b += rb.assign_execs;
            out.temp_assigns_a += ra.temp_assign_execs;
            out.temp_assigns_b += rb.temp_assign_execs;
            if rb.expr_evals > ra.expr_evals {
                out.expr_regressions += 1;
            }
            if rb.assign_execs > ra.assign_execs {
                out.assign_regressions += 1;
            }
        }
    }
    out
}

/// Convenience: one deterministic run of each program with shared inputs.
pub fn run_pair(a: &FlowGraph, b: &FlowGraph, inputs: Vec<(&str, i64)>) -> (RunResult, RunResult) {
    let cfg = Config::with_inputs(inputs);
    (run(a, &cfg), run(b, &cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::optimize;
    use am_ir::text::parse;

    #[test]
    fn comparison_flags_semantic_differences() {
        let a = parse("start s\nend e\nnode s { x := 1 }\nnode e { out(x) }\nedge s -> e").unwrap();
        let b = parse("start s\nend e\nnode s { x := 2 }\nnode e { out(x) }\nedge s -> e").unwrap();
        let cmp = compare(&a, &b, &CompareConfig::default());
        assert!(!cmp.semantically_equal());
        assert_eq!(cmp.semantic_mismatches, cmp.runs);
    }

    #[test]
    fn comparison_accepts_identical_programs() {
        let a =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let cmp = compare(&a, &a, &CompareConfig::default());
        assert!(cmp.semantically_equal());
        assert!(cmp.expression_dominates());
        assert_eq!(cmp.expr_evals_a, cmp.expr_evals_b);
    }

    #[test]
    fn every_run_lands_in_exactly_one_completion_bucket() {
        let a = parse(
            "start s\nend e\nnode s { branch p > 0 }\nnode l { x := 1 }\nnode r { x := 2 }\n\
             node e { out(x) }\nedge s -> l, r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        let cmp = compare(&a, &a, &CompareConfig::default());
        assert_eq!(
            cmp.runs,
            cmp.completed + cmp.both_truncated + cmp.completion_divergences,
            "{cmp:?}"
        );
        assert_eq!(cmp.completion_divergences, 0, "identical programs agree");
    }

    #[test]
    fn both_truncated_runs_are_counted_and_excluded_from_costs() {
        // One branch, zero decisions: both runs exhaust the oracle
        // immediately and neither completes.
        let g = parse(
            "start s\nend e\nnode s { x := a+b; branch p > 0 }\nnode l { skip }\n\
             node r { skip }\nnode e { out(x) }\nedge s -> l, r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        let cfg = CompareConfig {
            runs: 3,
            decisions: 0,
            ..CompareConfig::default()
        };
        let cmp = compare(&g, &g, &cfg);
        assert_eq!(cmp.runs, 3);
        assert_eq!(cmp.completed, 0);
        assert_eq!(cmp.both_truncated, 3);
        assert_eq!(cmp.completion_divergences, 0);
        // Truncated runs contribute nothing to the cost totals.
        assert_eq!((cmp.expr_evals_a, cmp.expr_evals_b), (0, 0));
        assert_eq!((cmp.assign_execs_a, cmp.assign_execs_b), (0, 0));
        assert!(cmp.semantically_equal(), "empty prefixes agree");
    }

    #[test]
    fn one_sided_completion_is_a_divergence_not_a_truncation() {
        // `a` is straight-line (completes on an empty oracle); `b` branches
        // and exhausts the oracle. Exactly one side completes.
        let a = parse("start s\nend e\nnode s { x := 1 }\nnode e { out(x) }\nedge s -> e").unwrap();
        let b = parse(
            "start s\nend e\nnode s { x := 1; branch x > 0 }\nnode l { skip }\nnode r { skip }\n\
             node e { out(x) }\nedge s -> l, r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        let cfg = CompareConfig {
            runs: 4,
            decisions: 0,
            ..CompareConfig::default()
        };
        let cmp = compare(&a, &b, &cfg);
        assert_eq!(cmp.runs, 4);
        assert_eq!(cmp.completed, 0);
        assert_eq!(cmp.both_truncated, 0);
        assert_eq!(cmp.completion_divergences, 4);
        // The divergent runs also differ observably (a wrote, b did not).
        assert_eq!(cmp.semantic_mismatches, 4);
    }

    #[test]
    fn optimizer_output_dominates_input() {
        let g = parse(
            "start 1\nend 4\n\
             node 1 { y := c+d }\n\
             node 2 { branch x+z > y+i }\n\
             node 3 { y := c+d; x := y+z; i := i+x }\n\
             node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let result = optimize(&g);
        let cfg = CompareConfig {
            inputs: vec![
                ("c".into(), 1),
                ("d".into(), 2),
                ("x".into(), 3),
                ("z".into(), 4),
                ("i".into(), 5),
            ],
            ..Default::default()
        };
        let cmp = compare(&g, &result.program, &cfg);
        assert!(cmp.semantically_equal());
        assert!(cmp.expression_dominates());
        assert!(cmp.completed > 0);
        assert!(cmp.expr_evals_b < cmp.expr_evals_a, "{cmp:?}");
    }
}

/// Equivalence modulo trap scheduling.
///
/// Admissible motion may evaluate a trapping term earlier on a path
/// (hoisting) or later (the flush, sinking) than the original program did;
/// the paper's transformations preserve the *existence* of the error on the
/// path, not its position relative to `out(...)` statements (Sec. 3 only
/// rules out transformations that remove error potential). Two runs are
/// weakly equivalent when
///
/// * neither traps and their observables are equal, or
/// * both trap with the same trap, and one output trace is a prefix of the
///   other (the trap moved across some writes).
pub fn weakly_equivalent(a: &RunResult, b: &RunResult) -> bool {
    match (a.trap, b.trap) {
        (None, None) => a.observable() == b.observable(),
        (Some(ta), Some(tb)) => {
            ta == tb && {
                let (short, long) = if a.outputs.len() <= b.outputs.len() {
                    (&a.outputs, &b.outputs)
                } else {
                    (&b.outputs, &a.outputs)
                };
                long.starts_with(short)
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod weak_tests {
    use super::*;
    use crate::global::optimize;
    use am_ir::interp::{run, Config, Trap};
    use am_ir::text::parse;

    #[test]
    fn weak_equivalence_accepts_trap_reordering() {
        // x := a/b is partially redundant; motion may evaluate it before
        // the out on some path.
        let src = "start 1\nend 4\n\
             node 1 { skip }\n\
             node 2 { x := a/b; out(x) }\n\
             node 3 { x := a/b }\n\
             node 4 { out(x) }\n\
             edge 1 -> 2, 3\nedge 2 -> 4\nedge 3 -> 4";
        let orig = parse(src).unwrap();
        let opt = optimize(&orig).program;
        for (b_val, decision) in [(0i64, 0usize), (0, 1), (2, 0), (2, 1)] {
            let cfg = Config::with_oracle(vec![decision], vec![("a", 6), ("b", b_val)]);
            let ra = run(&orig, &cfg);
            let rb = run(&opt, &cfg);
            assert!(
                weakly_equivalent(&ra, &rb),
                "b={b_val} d={decision}: {ra:?} vs {rb:?}"
            );
            // Trap *presence* is always preserved exactly.
            assert_eq!(ra.trap.is_some(), rb.trap.is_some());
            if b_val == 0 {
                assert_eq!(ra.trap, Some(Trap::DivByZero));
            }
        }
    }

    #[test]
    fn weak_equivalence_rejects_real_differences() {
        let mk = |outputs: Vec<Vec<i64>>, trap| RunResult {
            outputs,
            trap,
            stop: if trap.is_some() {
                am_ir::interp::StopReason::Trapped
            } else {
                am_ir::interp::StopReason::ReachedEnd
            },
            steps: 0,
            expr_evals: 0,
            expr_evals_by_pattern: Default::default(),
            assign_execs: 0,
            temp_assign_execs: 0,
            decisions: 0,
            nodes_visited: 0,
            path: Vec::new(),
        };
        // Different outputs, no traps: not equivalent.
        assert!(!weakly_equivalent(
            &mk(vec![vec![1]], None),
            &mk(vec![vec![2]], None)
        ));
        // Trap appears only on one side: not equivalent.
        assert!(!weakly_equivalent(
            &mk(vec![], None),
            &mk(vec![], Some(am_ir::interp::Trap::DivByZero))
        ));
        // Both trap, prefix-compatible outputs: equivalent.
        assert!(weakly_equivalent(
            &mk(vec![vec![1]], Some(am_ir::interp::Trap::DivByZero)),
            &mk(vec![], Some(am_ir::interp::Trap::DivByZero))
        ));
        // Both trap, conflicting outputs: not equivalent.
        assert!(!weakly_equivalent(
            &mk(vec![vec![1]], Some(am_ir::interp::Trap::DivByZero)),
            &mk(vec![vec![2]], Some(am_ir::interp::Trap::DivByZero))
        ));
    }
}

/// The total static lifetime of optimizer temporaries in `g`: the number of
/// (program point, live temporary) pairs, computed with the liveness
/// analysis. This is the static counterpart of the lifetime-range quantity
/// of Thm 5.4 — the flush must never increase it, and lazy placements beat
/// busy ones.
pub fn temp_lifetime_points(g: &FlowGraph) -> u64 {
    let live = am_dfa::classic::live_variables(g, &am_dfa::BlockGraph::build(g));
    let (pool, mut facts) = (g.pool(), am_dfa::PointFacts::default());
    let mut total = 0u64;
    for n in g.nodes() {
        live.facts(g, n, &mut facts);
        for j in 0..facts.points() {
            let live_temps = pool.iter().filter(|&v| pool.is_temp(v));
            total += live_temps
                .filter(|v| facts.before(j).contains(v.index()))
                .count() as u64;
        }
    }
    total
}

/// Per-pattern expression dominance (the refined Def. 3.8(1)): whether on
/// this pair of completed runs, `b` evaluated each pattern at most as often
/// as `a`. Patterns absent from a run count as zero.
pub fn pattern_dominates(a: &RunResult, b: &RunResult) -> bool {
    b.expr_evals_by_pattern
        .iter()
        .all(|(t, nb)| a.expr_evals_by_pattern.get(t).copied().unwrap_or(0) >= *nb)
}

#[cfg(test)]
mod lifetime_tests {
    use super::*;
    use crate::global::optimize;
    use crate::init::initialize;
    use crate::lcm::{busy_expression_motion, lazy_expression_motion};
    use crate::motion::assignment_motion;
    use am_ir::text::parse;

    const RUNNING_EXAMPLE: &str = "start 1\nend 4\n\
         node 1 { y := c+d }\n\
         node 2 { branch x+z > y+i }\n\
         node 3 { y := c+d; x := y+z; i := i+x }\n\
         node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";

    #[test]
    fn flush_never_extends_temporary_lifetimes() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let mut pre_flush = g.clone();
        pre_flush.split_critical_edges();
        initialize(&mut pre_flush);
        assignment_motion(&mut pre_flush);
        let before = temp_lifetime_points(&pre_flush);
        let after = temp_lifetime_points(&optimize(&g).program);
        assert!(
            after <= before,
            "flush extended temp lifetimes: {before} -> {after}"
        );
        assert!(after < before, "the running example shrinks strictly");
    }

    #[test]
    fn lazy_motion_beats_busy_motion_on_lifetimes() {
        use am_ir::random::SplitMix64;
        use am_ir::random::{structured, StructuredConfig};
        for seed in 0..20 {
            let mut rng = SplitMix64::new(seed + 31_000);
            let orig = structured(&mut rng, &StructuredConfig::default());
            let mut bcm = orig.clone();
            bcm.split_critical_edges();
            busy_expression_motion(&mut bcm);
            let mut lcm = orig.clone();
            lcm.split_critical_edges();
            lazy_expression_motion(&mut lcm);
            let busy = temp_lifetime_points(&bcm);
            let lazy = temp_lifetime_points(&lcm);
            assert!(
                lazy <= busy,
                "seed {seed}: lazy {lazy} > busy {busy} lifetime points"
            );
        }
    }

    #[test]
    fn per_pattern_dominance_on_the_running_example() {
        let g = parse(RUNNING_EXAMPLE).unwrap();
        let opt = optimize(&g).program;
        for seed in 0..10 {
            let cfg = Config {
                oracle: Oracle::random(seed + 3, 8),
                inputs: vec![
                    ("c".into(), 1),
                    ("d".into(), 2),
                    ("x".into(), 3),
                    ("z".into(), 4),
                ],
                ..Config::default()
            };
            let a = run(&g, &cfg);
            let b = run(&opt, &cfg);
            if a.stop == StopReason::ReachedEnd && b.stop == StopReason::ReachedEnd {
                assert!(
                    pattern_dominates(&a, &b),
                    "seed {seed}: {:?} vs {:?}",
                    a.expr_evals_by_pattern,
                    b.expr_evals_by_pattern
                );
            }
        }
    }

    #[test]
    fn lifetime_of_temp_free_program_is_zero() {
        let g =
            parse("start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2").unwrap();
        assert_eq!(temp_lifetime_points(&g), 0);
    }
}

/// The first observable divergence between corresponding runs of two
/// programs — the debugging entry point when a transformation breaks
/// something.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// The `index`-th `out(...)` differs.
    Output {
        /// Index into the output traces.
        index: usize,
        /// What the first program wrote.
        left: Vec<i64>,
        /// What the second program wrote.
        right: Vec<i64>,
    },
    /// One program wrote more outputs than the other (after agreeing on the
    /// common prefix).
    OutputLength {
        /// Outputs of the first program.
        left: usize,
        /// Outputs of the second program.
        right: usize,
    },
    /// The trap behaviour differs.
    Trap {
        /// Trap of the first program.
        left: Option<am_ir::interp::Trap>,
        /// Trap of the second program.
        right: Option<am_ir::interp::Trap>,
    },
}

/// Compares corresponding runs of `a` and `b` and reports the first
/// divergence, or `None` when the runs agree observationally.
pub fn first_divergence(a: &FlowGraph, b: &FlowGraph, cfg: &Config) -> Option<Divergence> {
    let ra = run(a, cfg);
    let rb = run(b, cfg);
    if ra.trap != rb.trap {
        return Some(Divergence::Trap {
            left: ra.trap,
            right: rb.trap,
        });
    }
    for (index, (l, r)) in ra.outputs.iter().zip(&rb.outputs).enumerate() {
        if l != r {
            return Some(Divergence::Output {
                index,
                left: l.clone(),
                right: r.clone(),
            });
        }
    }
    if ra.outputs.len() != rb.outputs.len() {
        return Some(Divergence::OutputLength {
            left: ra.outputs.len(),
            right: rb.outputs.len(),
        });
    }
    None
}

#[cfg(test)]
mod divergence_tests {
    use super::*;
    use am_ir::text::parse;

    #[test]
    fn equivalent_programs_have_no_divergence() {
        let a =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let b = crate::global::optimize(&a).program;
        let cfg = Config::with_inputs(vec![("a", 3), ("b", 4)]);
        assert_eq!(first_divergence(&a, &b, &cfg), None);
    }

    #[test]
    fn value_divergence_is_located() {
        let a = parse("start s\nend e\nnode s { x := 1 }\nnode e { out(7); out(x) }\nedge s -> e")
            .unwrap();
        let b = parse("start s\nend e\nnode s { x := 2 }\nnode e { out(7); out(x) }\nedge s -> e")
            .unwrap();
        let d = first_divergence(&a, &b, &Config::with_inputs(vec![]));
        assert_eq!(
            d,
            Some(Divergence::Output {
                index: 1,
                left: vec![1],
                right: vec![2]
            })
        );
    }

    #[test]
    fn missing_output_is_reported() {
        let a = parse("start s\nend e\nnode s { skip }\nnode e { out(1); out(2) }\nedge s -> e")
            .unwrap();
        let b = parse("start s\nend e\nnode s { skip }\nnode e { out(1) }\nedge s -> e").unwrap();
        let d = first_divergence(&a, &b, &Config::with_inputs(vec![]));
        assert_eq!(d, Some(Divergence::OutputLength { left: 2, right: 1 }));
    }

    #[test]
    fn trap_divergence_is_reported() {
        let a =
            parse("start s\nend e\nnode s { x := 1/q }\nnode e { out(x) }\nedge s -> e").unwrap();
        let b = parse("start s\nend e\nnode s { x := 0 }\nnode e { out(x) }\nedge s -> e").unwrap();
        let d = first_divergence(&a, &b, &Config::with_inputs(vec![("q", 0)]));
        assert!(matches!(d, Some(Divergence::Trap { .. })), "{d:?}");
    }
}
