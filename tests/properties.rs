//! Property-based tests for the paper's theorems over random programs.
//!
//! * Thm 5.1 (correctness): the transformed program is observationally
//!   equivalent to the original on corresponding runs.
//! * Thm 5.2 (expression optimality): no complete corresponding run of the
//!   transformed program evaluates more expressions — and the output also
//!   dominates every baseline (EM only, AM only, restricted AM).
//! * Thm 5.3/5.4 (relative optimality): the output is a fixed point of
//!   further assignment motion and flushing.
//!
//! Each test draws its cases from a fixed `SplitMix64` stream, so a failure
//! reproduces deterministically from the printed case number.

use am_ir::interp::{run, Config, Oracle, StopReason};
use am_ir::random::{structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig};
use am_ir::FlowGraph;
use assignment_motion::prelude::*;

const CASES: u64 = 48;

fn arbitrary_program(seed: u64, unstructured_graph: bool) -> FlowGraph {
    let mut rng = SplitMix64::new(seed);
    if unstructured_graph {
        unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 10,
                extra_edges: 5,
                max_instrs: 3,
                num_vars: 5,
                allow_div: false,
            },
        )
    } else {
        structured(&mut rng, &StructuredConfig::default())
    }
}

fn run_cfg(seed: u64, inputs: &[(String, i64)]) -> Config {
    Config {
        oracle: Oracle::random(seed, 12),
        inputs: inputs.to_vec(),
        ..Config::default()
    }
}

fn inputs(values: [i64; 3]) -> Vec<(String, i64)> {
    vec![
        ("v0".into(), values[0]),
        ("v1".into(), values[1]),
        ("v2".into(), values[2]),
    ]
}

/// Samples the common per-case parameters: program seed, graph family,
/// three small input values, and a run-oracle seed.
fn sample_case(rng: &mut SplitMix64) -> (u64, bool, [i64; 3], u64) {
    let seed = rng.gen_range(0u64..2_000);
    let unstructured_graph = rng.gen_bool(0.5);
    let vals = [
        rng.gen_range(-8i64..8),
        rng.gen_range(-8i64..8),
        rng.gen_range(-8i64..8),
    ];
    let run_seed = rng.gen_range(0u64..1_000);
    (seed, unstructured_graph, vals, run_seed)
}

#[test]
fn global_preserves_semantics_and_expression_optimality() {
    let mut sampler = SplitMix64::new(0x9A01);
    for case in 0..CASES {
        let (seed, unstructured_graph, vals, run_seed) = sample_case(&mut sampler);
        let program = arbitrary_program(seed, unstructured_graph);
        let result = optimize(&program);
        assert!(result.motion.converged, "case {case}");
        assert_eq!(result.program.validate(), Ok(()), "case {case}");
        let cfg = run_cfg(run_seed, &inputs(vals));
        let a = run(&program, &cfg);
        let b = run(&result.program, &cfg);
        assert_eq!(a.observable(), b.observable(), "case {case}");
        if a.stop == StopReason::ReachedEnd && b.stop == StopReason::ReachedEnd {
            assert!(
                b.expr_evals <= a.expr_evals,
                "case {case}: expression optimality violated: {} -> {}",
                a.expr_evals,
                b.expr_evals
            );
            // The refined per-pattern claim of Def. 3.8(1): each pattern is
            // evaluated at most as often as in the original.
            assert!(
                am_core::verify::pattern_dominates(&a, &b),
                "case {case}: per-pattern optimality violated: {:?} vs {:?}",
                a.expr_evals_by_pattern,
                b.expr_evals_by_pattern
            );
        }
    }
}

#[test]
fn global_dominates_baselines() {
    let mut sampler = SplitMix64::new(0x9A02);
    for case in 0..CASES {
        let (seed, _, vals, run_seed) = sample_case(&mut sampler);
        let program = arbitrary_program(seed % 800, false);
        let full = optimize(&program).program;

        let mut em = program.clone();
        em.split_critical_edges();
        lazy_expression_motion(&mut em);

        let mut am = program.clone();
        am.split_critical_edges();
        assignment_motion(&mut am);

        let cfg = run_cfg(run_seed, &inputs(vals));
        let r_full = run(&full, &cfg);
        for (label, g) in [("em", &em), ("am", &am)] {
            let r_base = run(g, &cfg);
            assert_eq!(
                r_base.observable(),
                r_full.observable(),
                "case {case}: {label} semantics"
            );
            if r_base.stop == StopReason::ReachedEnd && r_full.stop == StopReason::ReachedEnd {
                assert!(
                    r_full.expr_evals <= r_base.expr_evals,
                    "case {case} {label}: {} < {} (full should dominate)",
                    r_base.expr_evals,
                    r_full.expr_evals
                );
            }
        }
    }
}

#[test]
fn output_is_a_fixpoint_of_further_motion() {
    // Thm 5.3: further assignment motion cannot improve the output —
    // nothing is eliminated and no run gets cheaper. (The program text
    // may still change by reordering independent instructions within a
    // block, which is cost-neutral.)
    let mut sampler = SplitMix64::new(0x9A03);
    for case in 0..CASES {
        let (seed, _, vals, run_seed) = sample_case(&mut sampler);
        let program = arbitrary_program(seed % 800, false);
        let result = optimize(&program);
        let mut again = result.program.clone();
        let stats = assignment_motion(&mut again);
        assert!(stats.converged, "case {case}");
        assert_eq!(
            stats.eliminated, 0,
            "case {case}: relative assignment optimality"
        );
        let cfg = run_cfg(run_seed, &inputs(vals));
        let a = run(&result.program, &cfg);
        let b = run(&again, &cfg);
        assert_eq!(a.observable(), b.observable(), "case {case}");
        if a.stop == StopReason::ReachedEnd && b.stop == StopReason::ReachedEnd {
            assert_eq!(a.expr_evals, b.expr_evals, "case {case}");
            assert_eq!(a.assign_execs, b.assign_execs, "case {case}");
        }
    }
}

#[test]
fn em_baseline_preserves_semantics() {
    let mut sampler = SplitMix64::new(0x9A04);
    for case in 0..CASES {
        let (seed, unstructured_graph, vals, run_seed) = sample_case(&mut sampler);
        let program = arbitrary_program(seed % 1_000, unstructured_graph);
        let mut em = program.clone();
        em.split_critical_edges();
        lazy_expression_motion(&mut em);
        assert_eq!(em.validate(), Ok(()), "case {case}");
        let cfg = run_cfg(run_seed, &inputs(vals));
        let a = run(&program, &cfg);
        let b = run(&em, &cfg);
        assert_eq!(a.observable(), b.observable(), "case {case}");
        if a.stop == StopReason::ReachedEnd && b.stop == StopReason::ReachedEnd {
            assert!(b.expr_evals <= a.expr_evals, "case {case}");
        }
    }
}

#[test]
fn restricted_baseline_preserves_semantics() {
    let mut sampler = SplitMix64::new(0x9A05);
    for case in 0..CASES {
        let (seed, _, vals, run_seed) = sample_case(&mut sampler);
        let program = arbitrary_program(seed % 500, false);
        let mut restricted = program.clone();
        restricted.split_critical_edges();
        restricted_assignment_motion(&mut restricted);
        assert_eq!(restricted.validate(), Ok(()), "case {case}");
        let cfg = run_cfg(run_seed, &inputs(vals));
        let a = run(&program, &cfg);
        let b = run(&restricted, &cfg);
        assert_eq!(a.observable(), b.observable(), "case {case}");
    }
}

#[test]
fn parser_round_trips_generated_programs() {
    let mut sampler = SplitMix64::new(0x9A06);
    for case in 0..CASES {
        let (seed, unstructured_graph, _, _) = sample_case(&mut sampler);
        let program = arbitrary_program(seed, unstructured_graph);
        let text = to_text(&program);
        let reparsed = parse(&text).expect("round trip parses");
        assert_eq!(to_text(&reparsed), text, "case {case}");
    }
}

#[test]
fn canonical_text_is_idempotent() {
    let mut sampler = SplitMix64::new(0x9A07);
    for case in 0..CASES {
        let (seed, _, _, _) = sample_case(&mut sampler);
        let program = arbitrary_program(seed % 1_000, false);
        let result = optimize(&program);
        let once = canonical_text(&result.program);
        let reparsed = parse(&once).expect("canonical text parses");
        assert_eq!(canonical_text(&reparsed), once, "case {case}");
    }
}

#[test]
fn splitting_is_idempotent() {
    let mut sampler = SplitMix64::new(0x9A08);
    for case in 0..CASES {
        let (seed, unstructured_graph, _, _) = sample_case(&mut sampler);
        let mut program = arbitrary_program(seed % 1_000, unstructured_graph);
        program.split_critical_edges();
        let once = to_text(&program);
        assert_eq!(program.split_critical_edges(), 0, "case {case}");
        assert_eq!(to_text(&program), once, "case {case}");
    }
}

#[test]
fn division_programs_are_weakly_preserved() {
    // With division enabled, traps are part of the semantics; motion
    // may move a trap across writes but never add or remove one.
    use am_core::verify::weakly_equivalent;
    let mut sampler = SplitMix64::new(0x9A09);
    for case in 0..CASES {
        let (seed, _, _, run_seed) = sample_case(&mut sampler);
        let vals = [
            sampler.gen_range(-4i64..5),
            sampler.gen_range(-4i64..5),
            sampler.gen_range(-4i64..5),
        ];
        let mut rng = SplitMix64::new(seed % 1_000);
        let program = structured(
            &mut rng,
            &StructuredConfig {
                allow_div: true,
                ..StructuredConfig::default()
            },
        );
        let result = optimize(&program);
        assert!(result.motion.converged, "case {case}");
        let cfg = run_cfg(run_seed, &inputs(vals));
        let a = run(&program, &cfg);
        let b = run(&result.program, &cfg);
        assert!(
            weakly_equivalent(&a, &b),
            "case {case}: weak equivalence violated:\n{a:?}\nvs\n{b:?}"
        );
        assert_eq!(
            a.trap.is_some(),
            b.trap.is_some(),
            "case {case}: trap potential changed"
        );
    }
}

#[test]
fn motion_order_is_confluent_in_costs() {
    // Lemma 3.6 (local confluence) implies both procedure orders reach
    // cost-equivalent fixed points.
    use am_core::global::GlobalConfig;
    use am_core::motion::{assignment_motion_with, MotionOrder};
    let mut sampler = SplitMix64::new(0x9A0A);
    for case in 0..CASES {
        let (seed, _, vals, run_seed) = sample_case(&mut sampler);
        let program = arbitrary_program(seed % 800, false);
        let config = GlobalConfig {
            max_motion_rounds: Some(am_core::motion::default_round_budget(&program) * 2 + 32),
            ..Default::default()
        };
        let motion = |order| {
            let mut g = program.clone();
            g.split_critical_edges();
            let stats = assignment_motion_with(&mut g, &config, order, &mut |_, _| {});
            (g, stats)
        };
        let (rae_first, s1) = motion(MotionOrder::RaeFirst);
        let (hoist_first, s2) = motion(MotionOrder::HoistFirst);
        assert!(s1.converged && s2.converged, "case {case}");
        let cfg = run_cfg(run_seed, &inputs(vals));
        let a = run(&rae_first, &cfg);
        let b = run(&hoist_first, &cfg);
        assert_eq!(a.observable(), b.observable(), "case {case}");
        if a.stop == StopReason::ReachedEnd && b.stop == StopReason::ReachedEnd {
            assert_eq!(
                a.expr_evals, b.expr_evals,
                "case {case}: expression costs must agree"
            );
            assert_eq!(
                a.assign_execs, b.assign_execs,
                "case {case}: assignment costs must agree"
            );
        }
    }
}

#[test]
fn flush_justifies_the_three_address_assumption() {
    // Sec. 6 / Figs. 18-20: on programs whose only non-3-address
    // structure comes from decomposing nested loop-invariant
    // expressions, the uniform algorithm matches or beats the classic
    // EM-with-copy-propagation pipeline.
    //
    // The claim is deliberately *not* universal: on programs with
    // source-level copies (x := y), copy propagation can merge
    // syntactically different patterns (x*z with y*z) — a value-level
    // transformation outside the universe G, where it may beat any
    // member of G (see EXPERIMENTS.md, "boundary of the theorem").
    use std::fmt::Write as _;
    let mut sampler = SplitMix64::new(0x9A0B);
    for case in 0..CASES {
        let exprs = sampler.gen_range(1usize..4);
        let depth = sampler.gen_range(2usize..4);
        let trip = sampler.gen_range(1i64..5);
        let mut src = String::from("start 0\nend 3\nnode 0 { skip }\nnode 1 {\n");
        for e in 0..exprs {
            let mut rhs = format!("a{e}");
            for level in 0..depth {
                let _ = write!(rhs, " + b{level} * c{e}");
            }
            let _ = writeln!(src, "  x{e} := {rhs}");
        }
        let _ = writeln!(src, "  acc := acc + x0");
        let _ = writeln!(src, "  q := q - 1");
        // Every result is observable: dead-code effects (which EM+CP's
        // cleanup performs but the paper's algorithm deliberately never
        // does) must not skew the comparison.
        let outs: Vec<String> = (0..exprs).map(|e| format!("x{e}")).collect();
        let _ = writeln!(
            src,
            "}}\nnode 2 {{ branch q > 0 }}\nnode 3 {{ out(acc,{}) }}",
            outs.join(",")
        );
        src.push_str("edge 0 -> 1\nedge 1 -> 2\nedge 2 -> 1, 3\n");
        let program = parse_with_mode(&src, Mode::Decompose).expect("family parses");

        let full = optimize(&program).program;
        let mut emcp = program.clone();
        emcp.split_critical_edges();
        for _ in 0..6 {
            let before = emcp.clone();
            lazy_expression_motion(&mut emcp);
            am_core::copyprop::copy_propagation(&mut emcp, true);
            if emcp == before {
                break;
            }
        }
        let cfg = Config {
            oracle: Oracle::Deterministic,
            inputs: vec![
                ("q".into(), trip),
                ("a0".into(), 2),
                ("b0".into(), 3),
                ("b1".into(), -1),
                ("b2".into(), 4),
                ("c0".into(), 5),
                ("c1".into(), 1),
                ("c2".into(), -2),
            ],
            ..Config::default()
        };
        let base = run(&program, &cfg);
        let r_full = run(&full, &cfg);
        let r_emcp = run(&emcp, &cfg);
        assert_eq!(base.stop, StopReason::ReachedEnd, "case {case}");
        assert_eq!(base.observable(), r_full.observable(), "case {case}");
        assert_eq!(base.observable(), r_emcp.observable(), "case {case}");
        assert!(
            r_full.expr_evals <= r_emcp.expr_evals,
            "case {case}: uniform EM & AM must match or beat EM+CP on the Fig. 18 family: {} vs {}",
            r_full.expr_evals,
            r_emcp.expr_evals
        );
        // And with no more temporary traffic.
        assert!(
            r_full.temp_assign_execs <= r_emcp.temp_assign_execs,
            "case {case}"
        );
    }
}
