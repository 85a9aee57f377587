//! Cross-crate end-to-end tests: the public API exercised the way a
//! downstream user would, plus regression tests for interactions between
//! passes.

use am_ir::interp::{run, Config, Oracle, StopReason};
use am_ir::random::SplitMix64;
use am_ir::random::{structured, StructuredConfig};
use assignment_motion::prelude::*;

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

#[test]
fn quickstart_workflow() {
    let program = parse(RUNNING_EXAMPLE).unwrap();
    let result = optimize(&program);
    let report = compare(
        &program,
        &result.program,
        &CompareConfig {
            inputs: vec![
                ("c".into(), 1),
                ("d".into(), 2),
                ("x".into(), 3),
                ("z".into(), 4),
                ("i".into(), 0),
            ],
            ..Default::default()
        },
    );
    assert!(report.semantically_equal());
    assert!(report.expression_dominates());
    assert!(report.expr_evals_b < report.expr_evals_a);
}

#[test]
fn nested_frontend_to_optimized_pipeline() {
    // Sec. 6: nested input, decomposed, fully optimized; the temporaries
    // introduced by decomposition are reconstructed away where useless.
    let src = "start 0\nend 3\n\
         node 0 { skip }\n\
         node 1 { x := (a+b)*(a+b) }\n\
         node 2 { branch q > 0 }\n\
         node 3 { out(x) }\n\
         edge 0 -> 1\nedge 1 -> 2\nedge 2 -> 1, 3";
    let nested = parse_with_mode(src, Mode::Decompose).unwrap();
    let result = optimize(&nested);
    // Loop body emptied: everything is invariant.
    let text = canonical_text(&result.program);
    assert!(text.contains("node 1 {\n}"), "{text}");
    for q in [0, 2] {
        let cfg = Config::with_inputs(vec![("a", 3), ("b", 4), ("q", q)]);
        let r0 = run(&nested, &cfg);
        let r1 = run(&result.program, &cfg);
        assert_eq!(r0.observable(), r1.observable());
        assert!(r1.expr_evals <= r0.expr_evals);
    }
}

#[test]
fn em_cp_iteration_stays_sound() {
    // Regression: iterated BCM+flush+copy-propagation once dropped an
    // initialization whose single use sat inside another pattern's
    // instance (see flush.rs: the materialize-at-removed-instance rule).
    let src = "start 0\nend 3\n\
         node 0 { skip }\n\
         node 1 { t1 := a+b; x := t1+c }\n\
         node 2 { branch q > 0 }\n\
         node 3 { out(x) }\n\
         edge 0 -> 1\nedge 1 -> 2\nedge 2 -> 1, 3";
    let orig = parse(src).unwrap();
    let mut g = orig.clone();
    g.split_critical_edges();
    for _ in 0..4 {
        let before = g.clone();
        lazy_expression_motion(&mut g);
        assignment_motion::alg::copyprop::copy_propagation(&mut g, true);
        for q in [0, 1, 3] {
            let cfg = Config::with_inputs(vec![("a", 1), ("b", 2), ("c", 3), ("q", q)]);
            assert_eq!(
                run(&orig, &cfg).observable(),
                run(&g, &cfg).observable(),
                "q={q}\n{}",
                canonical_text(&g)
            );
        }
        if g == before {
            break;
        }
    }
}

#[test]
fn sinking_composes_with_the_main_pipeline() {
    // PDE as a post-pass: still semantics-preserving (no div in program).
    let mut rng = SplitMix64::new(99);
    let orig = structured(&mut rng, &StructuredConfig::default());
    let mut g = optimize(&orig).program;
    sink_assignments(&mut g, &SinkConfig::default());
    assert_eq!(g.validate(), Ok(()));
    for seed in 0..8 {
        let cfg = Config {
            oracle: Oracle::random(seed, 12),
            inputs: vec![("v0".into(), 5), ("v1".into(), -1)],
            ..Config::default()
        };
        assert_eq!(
            run(&orig, &cfg).observable(),
            run(&g, &cfg).observable(),
            "seed {seed}"
        );
    }
}

#[test]
fn temporaries_pay_for_themselves() {
    // Lemma 4.4(2): a temporary only survives the flush when it eliminates
    // a partial redundancy. On a program with no redundancy at all, no
    // temporary survives.
    let src = "start 1\nend 2\nnode 1 { x := a+b; y := c+d }\nnode 2 { out(x,y) }\nedge 1 -> 2";
    let g = parse(src).unwrap();
    let result = optimize(&g);
    let text = canonical_text(&result.program);
    assert!(!text.contains("h1"), "no temporaries expected:\n{text}");
    assert!(alpha_eq(&result.program, &g), "program unchanged");
}

#[test]
fn deterministic_interpretation_matches_oracle_mode() {
    let program = parse(RUNNING_EXAMPLE).unwrap();
    let optimized = optimize(&program).program;
    // Deterministic mode: conditions actually decide.
    for (c, d, x, z) in [(1, 2, 3, 4), (0, 0, 0, 0), (-5, 2, 7, 1)] {
        let cfg = Config::with_inputs(vec![("c", c), ("d", d), ("x", x), ("z", z)]);
        let r0 = run(&program, &cfg);
        let r1 = run(&optimized, &cfg);
        assert_eq!(r0.observable(), r1.observable());
        // Some inputs loop forever (the branch never exits); both programs
        // must then agree on hitting the step limit instead of the end.
        assert_eq!(r0.stop, r1.stop);
    }
}

#[test]
fn dataflow_framework_is_reusable_downstream() {
    // A downstream user building their own analysis with the framework.
    use assignment_motion::dfa::{solve, Confluence, Direction, PointGraph, Problem};
    let g = parse(RUNNING_EXAMPLE).unwrap();
    let pg = PointGraph::build(&g);
    // "Reaches a write statement": backward may.
    let mut p = Problem::new(Direction::Backward, Confluence::May, pg.len(), 1);
    for point in pg.points() {
        if let Some(am_ir::Instr::Out(_)) = pg.instr(point) {
            p.gen[point.index()].insert(0);
        }
    }
    let sol = solve(pg.succs(), pg.preds(), &p);
    // Every point of this program reaches the out() in node 4.
    for point in pg.points() {
        assert!(sol.before[point.index()].contains(0));
    }
}

#[test]
fn busy_and_lazy_motion_agree_dynamically() {
    // BCM and LCM are both expression-optimal: equal evaluation counts on
    // corresponding runs, but LCM uses no more temporary assignments.
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(seed + 7_000);
        let orig = structured(&mut rng, &StructuredConfig::default());
        let mut bcm = orig.clone();
        bcm.split_critical_edges();
        busy_expression_motion(&mut bcm);
        let mut lcm = orig.clone();
        lcm.split_critical_edges();
        lazy_expression_motion(&mut lcm);
        for run_seed in 0..4 {
            let cfg = Config {
                oracle: Oracle::random(seed * 17 + run_seed, 10),
                inputs: vec![("v0".into(), 2), ("v1".into(), 3)],
                ..Config::default()
            };
            let rb = run(&bcm, &cfg);
            let rl = run(&lcm, &cfg);
            assert_eq!(rb.observable(), rl.observable(), "seed {seed}/{run_seed}");
            if rb.stop == StopReason::ReachedEnd && rl.stop == StopReason::ReachedEnd {
                assert_eq!(rb.expr_evals, rl.expr_evals, "seed {seed}/{run_seed}");
                assert!(
                    rl.temp_assign_execs <= rb.temp_assign_execs,
                    "laziness must not add temporary work (seed {seed}/{run_seed})"
                );
            }
        }
    }
}

#[test]
fn pipeline_is_cost_idempotent() {
    // Optimizing an already-optimized program changes no run costs.
    use am_ir::random::{structured, StructuredConfig};
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(seed + 51_000);
        let orig = structured(&mut rng, &StructuredConfig::default());
        let once = optimize(&orig).program;
        let twice = optimize(&once).program;
        for run_seed in 0..4 {
            let cfg = Config {
                oracle: Oracle::random(seed * 19 + run_seed, 10),
                inputs: vec![("v0".into(), 4), ("v1".into(), -3)],
                ..Config::default()
            };
            let a = run(&once, &cfg);
            let b = run(&twice, &cfg);
            assert_eq!(a.observable(), b.observable(), "seed {seed}/{run_seed}");
            if a.stop == StopReason::ReachedEnd && b.stop == StopReason::ReachedEnd {
                assert_eq!(a.expr_evals, b.expr_evals, "seed {seed}/{run_seed}");
                assert_eq!(
                    a.temp_assign_execs, b.temp_assign_execs,
                    "seed {seed}/{run_seed}"
                );
            }
        }
    }
}

#[test]
fn simplified_graphs_compose_with_the_pipeline() {
    use am_ir::random::{structured, StructuredConfig};
    for seed in 0..10u64 {
        let mut rng = SplitMix64::new(seed + 61_000);
        let orig = structured(&mut rng, &StructuredConfig::default());
        let optimized = optimize(&orig).program;
        let simplified = optimized.simplified();
        assert_eq!(simplified.validate(), Ok(()), "seed {seed}");
        for run_seed in 0..4 {
            let cfg = Config {
                oracle: Oracle::random(seed * 23 + run_seed, 10),
                inputs: vec![("v0".into(), 1), ("v1".into(), 2)],
                ..Config::default()
            };
            assert_eq!(
                run(&optimized, &cfg).observable(),
                run(&simplified, &cfg).observable(),
                "seed {seed}/{run_seed}"
            );
        }
    }
}

#[test]
fn equal_condition_sides_keep_one_initialization() {
    // branch a+b > a+b: both sides are the same pattern; after
    // initialization the branch reads the temporary twice. The flush must
    // not reconstruct (that would double the evaluation) nor lose the
    // initialization.
    let src = "start s\nend e\n\
         node s { branch a+b > a+b }\n\
         node t { x := 1 }\n\
         node f { x := 2 }\n\
         node e { out(x) }\n\
         edge s -> t, f\nedge t -> e\nedge f -> e";
    let orig = parse(src).unwrap();
    let result = optimize(&orig);
    let text = canonical_text(&result.program);
    assert!(text.contains("h1 := a+b"), "{text}");
    assert!(text.contains("branch h1 > h1"), "{text}");
    for d in [0usize, 1] {
        let cfg = RunConfig {
            oracle: Oracle::Fixed(vec![d]),
            inputs: vec![("a".into(), 3), ("b".into(), 4)],
            ..RunConfig::default()
        };
        let a = run(&orig, &cfg);
        let b = run(&result.program, &cfg);
        assert_eq!(a.observable(), b.observable());
        // One evaluation instead of two.
        assert_eq!(a.expr_evals, 2);
        assert_eq!(b.expr_evals, 1);
    }
}

#[test]
fn single_node_program_is_handled() {
    // start == end: the smallest valid flow graph.
    let mut g = FlowGraph::new();
    let s = g.add_node("s");
    g.set_start(s);
    g.set_end(s);
    let x = g.pool_mut().intern("x");
    let a = g.pool_mut().intern("a");
    let b = g.pool_mut().intern("b");
    g.push_instr(
        s,
        am_ir::Instr::assign(x, am_ir::Term::binary(am_ir::BinOp::Add, a, b)),
    );
    g.push_instr(s, am_ir::Instr::Out(vec![x.into()]));
    assert_eq!(g.validate(), Ok(()));
    let result = optimize(&g);
    let cfg = RunConfig::with_inputs(vec![("a", 1), ("b", 2)]);
    assert_eq!(
        run(&g, &cfg).observable(),
        run(&result.program, &cfg).observable()
    );
}

#[test]
fn self_referential_chains_survive_the_pipeline() {
    // i := i+1 patterns can never be eliminated or merged; the pipeline
    // must leave their per-iteration effect intact.
    let src = "start 1\nend 4\n\
         node 1 { i := 0 }\n\
         node 2 { branch i < n }\n\
         node 3 { i := i+1; s := s+i }\n\
         node 4 { out(i,s) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";
    let orig = parse(src).unwrap();
    let result = optimize(&orig);
    for n in [0, 1, 5] {
        let cfg = RunConfig::with_inputs(vec![("n", n)]);
        let a = run(&orig, &cfg);
        let b = run(&result.program, &cfg);
        assert_eq!(a.observable(), b.observable(), "n={n}");
        assert_eq!(a.expr_evals, b.expr_evals, "self-ref evals can't shrink");
    }
}

#[test]
fn skip_heavy_programs_are_stable() {
    let src = "start 1\nend 3\n\
         node 1 { skip; skip; x := a+b; skip }\n\
         node 2 { skip }\n\
         node 3 { skip; out(x) }\n\
         edge 1 -> 2\nedge 2 -> 3";
    let orig = parse(src).unwrap();
    let result = optimize(&orig);
    let cfg = RunConfig::with_inputs(vec![("a", 1), ("b", 2)]);
    assert_eq!(
        run(&orig, &cfg).observable(),
        run(&result.program, &cfg).observable()
    );
}

#[test]
fn stress_large_structured_program() {
    // A sizeable nest end-to-end: convergence within budget, validity,
    // semantics, and a real evaluation win.
    let g = am_bench::workloads::loop_nest(8, 8);
    let result = optimize(&g);
    assert!(result.motion.converged);
    assert_eq!(result.program.validate(), Ok(()));
    let cfg = RunConfig::with_inputs(vec![("n", 4), ("a", 3)]);
    let a = run(&g, &cfg);
    let b = run(&result.program, &cfg);
    assert_eq!(a.observable(), b.observable());
    assert!(b.expr_evals < a.expr_evals);
    assert!(
        (b.expr_evals as f64) < 0.7 * a.expr_evals as f64,
        "expected a substantial win: {} -> {}",
        a.expr_evals,
        b.expr_evals
    );
}

#[test]
fn run_pair_convenience() {
    let g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
    let opt = optimize(&g).program;
    let (ra, rb) = assignment_motion::alg::verify::run_pair(&g, &opt, vec![("a", 1), ("b", 2)]);
    assert_eq!(ra.observable(), rb.observable());
}

#[test]
fn shipped_sample_programs_compile_and_optimize() {
    // The programs/ directory must stay in sync with the parsers.
    let ir = std::fs::read_to_string("programs/running_example.ir").unwrap();
    let g = parse(&ir).unwrap();
    assert!(optimize(&g).motion.converged);
    for file in ["programs/matrix_sum.wl", "programs/polynomial.wl"] {
        let src = std::fs::read_to_string(file).unwrap();
        let g = assignment_motion::lang::compile(&src).unwrap();
        let result = optimize(&g);
        assert!(result.motion.converged, "{file}");
        let cfg = RunConfig::with_inputs(vec![
            ("rows", 3),
            ("cols", 4),
            ("base", 100),
            ("degree", 5),
            ("x", 2),
        ]);
        let a = run(&g, &cfg);
        let b = run(&result.program, &cfg);
        assert_eq!(a.observable(), b.observable(), "{file}");
        assert!(b.expr_evals <= a.expr_evals, "{file}");
    }
}
