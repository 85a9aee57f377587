//! Edge-case coverage of the transformations: edge insertions, multi-pattern
//! interactions, restricted-motion accounting, universe truncation, and the
//! degenerate graph shapes the `am-check` shrinker produces (empty blocks,
//! single-node programs, self-loops).

use am_core::global::optimize;
use am_core::lcm::lazy_expression_motion;
use am_core::motion::assignment_motion;
use am_core::restricted::restricted_assignment_motion;
use am_core::universe::{explore, UniverseConfig};
use am_ir::alpha::canonical_text;
use am_ir::interp::{run, Config, Oracle};
use am_ir::text::parse;

#[test]
fn flush_inserts_on_split_edges_for_one_sided_uses() {
    // a+b is computed above the branch; only the left branch uses it
    // (twice, so the temporary survives). Laziness must push the
    // initialization off the right path.
    let src = "start s\nend e\n\
         node t { x := a+b; branch p > 0 }\n\
         node l { y := a+b; z := a+b; out(y,z) }\n\
         node r { out(p) }\n\
         node e { out(x) }\n\
         node s { skip }\n\
         edge s -> t\nedge t -> l, r\nedge l -> e\nedge r -> e";
    let orig = parse(src).unwrap();
    let mut g = orig.clone();
    g.split_critical_edges();
    lazy_expression_motion(&mut g);
    // On the right path, a+b is evaluated exactly once (for x).
    let right = run(
        &g,
        &Config::with_oracle(vec![1], vec![("a", 1), ("b", 2), ("p", 0)]),
    );
    let right_orig = run(
        &orig,
        &Config::with_oracle(vec![1], vec![("a", 1), ("b", 2), ("p", 0)]),
    );
    assert_eq!(right.observable(), right_orig.observable());
    assert_eq!(right.expr_evals, 1, "{}", canonical_text(&g));
    // On the left path, one evaluation serves x, y and z.
    let left = run(
        &g,
        &Config::with_oracle(vec![0], vec![("a", 1), ("b", 2), ("p", 1)]),
    );
    let left_orig = run(
        &orig,
        &Config::with_oracle(vec![0], vec![("a", 1), ("b", 2), ("p", 1)]),
    );
    assert_eq!(left.observable(), left_orig.observable());
    assert_eq!(left.expr_evals, 1, "{}", canonical_text(&g));
}

#[test]
fn multiple_patterns_insert_at_one_point_in_stable_order() {
    // Two independent assignments hoist from both branches to the split
    // point; insertion order is deterministic (pattern index order).
    let src = "start s\nend e\n\
         node s { branch p > 0 }\n\
         node l { x := a+b; y := c+d }\n\
         node r { x := a+b; y := c+d }\n\
         node e { out(x,y) }\n\
         edge s -> l, r\nedge l -> e\nedge r -> e";
    let mut g = parse(src).unwrap();
    g.split_critical_edges();
    let stats = assignment_motion(&mut g);
    assert!(stats.converged);
    let text = canonical_text(&g);
    assert_eq!(text.matches("x := a+b").count(), 1, "{text}");
    assert_eq!(text.matches("y := c+d").count(), 1, "{text}");
    // The branch reads only p, so both hoist through it to the entry of
    // node s, in pattern-index order.
    let s_node = g.start();
    let body: Vec<String> = g.instrs(s_node).map(|i| i.display(g.pool())).collect();
    assert_eq!(body, vec!["x := a+b", "y := c+d", "branch p > 0"]);
}

#[test]
fn restricted_motion_counts_rejections() {
    let mut g = am_core::restricted::fig8_example();
    g.split_critical_edges();
    let stats = restricted_assignment_motion(&mut g);
    assert_eq!(stats.accepted, 0);
    assert!(stats.rejected >= 1, "{stats:?}");
    assert!(stats.rounds >= 1);
}

#[test]
fn universe_truncation_is_reported() {
    let mut g = am_core::restricted::fig8_example();
    g.split_critical_edges();
    am_core::init::initialize(&mut g);
    let tiny = explore(
        &g,
        &UniverseConfig {
            max_programs: 2,
            max_depth: 1,
        },
    );
    assert!(tiny.truncated);
    assert!(tiny.programs.len() <= 2);
}

#[test]
fn optimize_handles_branch_conditions_with_constants() {
    let src = "start s\nend e\n\
         node s { branch a+b > 10 }\n\
         node l { x := a+b }\n\
         node r { x := 0 }\n\
         node e { out(x) }\n\
         edge s -> l, r\nedge l -> e\nedge r -> e";
    let orig = parse(src).unwrap();
    let result = optimize(&orig);
    for (a, b) in [(7, 8), (1, 1)] {
        let cfg = Config::with_inputs(vec![("a", a), ("b", b)]);
        let r0 = run(&orig, &cfg);
        let r1 = run(&result.program, &cfg);
        assert_eq!(r0.observable(), r1.observable(), "a={a} b={b}");
        assert!(r1.expr_evals <= r0.expr_evals);
    }
    // On the left path, the condition's a+b evaluation is reused for x.
    let left = run(
        &result.program,
        &Config::with_inputs(vec![("a", 7), ("b", 8)]),
    );
    assert_eq!(left.expr_evals, 1);
}

/// Full pipeline + interpreter on a program, asserting semantics are kept
/// on a handful of deterministic and oracle-driven runs. The smoke test
/// shared by the degenerate-shape cases below.
fn optimizes_soundly(src: &str) {
    let orig = parse(src).unwrap();
    let result = optimize(&orig);
    assert_eq!(result.program.validate(), Ok(()), "{src}");
    assert!(result.motion.converged, "{src}");
    let mut cfgs = vec![Config::with_inputs(vec![("a", 2), ("b", 3), ("i", 2)])];
    for seed in 0..4 {
        cfgs.push(Config {
            oracle: Oracle::random(seed, 8),
            inputs: vec![("a".into(), 2), ("b".into(), 3), ("i".into(), 2)],
            ..Config::default()
        });
    }
    for cfg in &cfgs {
        let r0 = run(&orig, cfg);
        let r1 = run(&result.program, cfg);
        assert_eq!(r0.observable(), r1.observable(), "{src}");
    }
}

#[test]
fn empty_blocks_flow_through_the_whole_pipeline() {
    optimizes_soundly(
        "start s\nend e\n\
         node s { }\n\
         node m { }\n\
         node u { x := a+b; out(x) }\n\
         node e { }\n\
         edge s -> m\nedge m -> u\nedge u -> e",
    );
}

#[test]
fn a_single_node_program_where_start_is_end_optimizes() {
    optimizes_soundly("start s\nend s\nnode s { x := a+b; out(x) }");
    optimizes_soundly("start s\nend s\nnode s { }");
}

#[test]
fn a_two_node_program_with_an_empty_start_optimizes() {
    optimizes_soundly("start s\nend e\nnode s { }\nnode e { out(a) }\nedge s -> e");
}

#[test]
fn self_loops_optimize_without_panicking() {
    // b -> b is a critical edge (b has two successors and two
    // predecessors), so splitting inserts a synthetic node on it.
    optimizes_soundly(
        "start s\nend e\n\
         node s { skip }\n\
         node b { x := a+b; i := i-1; branch i > 0 }\n\
         node e { out(x) }\n\
         edge s -> b\nedge b -> b, e",
    );
}

#[test]
fn a_self_loop_on_an_empty_block_optimizes() {
    optimizes_soundly(
        "start s\nend e\n\
         node s { }\n\
         node b { }\n\
         node e { out(a) }\n\
         edge s -> b\nedge b -> b, e",
    );
}

#[test]
fn unreachable_nodes_are_rejected_at_parse_time() {
    // The shrinker relies on this: cutting the last edge into a node makes
    // the candidate *invalid* (and thus discarded), never a silent
    // half-program.
    let orphan = "start s\nend e\n\
         node s { }\nnode dead { x := a+b }\nnode e { out(x) }\n\
         edge s -> e";
    assert!(parse(orphan).is_err(), "unreachable 'dead' must not parse");
    // Reachable but non-terminating (no path to end) is equally invalid.
    let trap = "start s\nend e\n\
         node s { }\nnode sink { skip }\nnode e { }\n\
         edge s -> e\nedge s -> sink\nedge sink -> sink";
    assert!(
        parse(trap).is_err(),
        "end-unreachable 'sink' must not parse"
    );
}

#[test]
fn motion_converges_on_long_dependency_chains() {
    // w0 <- w1 <- w2 ... each hoist unblocks the next: many rounds, still
    // converging, all invariants out of the do-while loop.
    let mut src = String::from("start s\nend e\nnode s { skip }\nnode b {\n");
    for j in 0..8 {
        if j == 0 {
            src.push_str("  w0 := a + 1\n");
        } else {
            src.push_str(&format!("  w{j} := w{} + 1\n", j - 1));
        }
    }
    src.push_str("  s0 := s0 + w7\n  i := i - 1\n}\n");
    src.push_str("node c { branch i > 0 }\nnode e { out(s0) }\n");
    src.push_str("edge s -> b\nedge b -> c\nedge c -> b, e\n");
    let orig = parse(&src).unwrap();
    let mut g = orig.clone();
    g.split_critical_edges();
    let stats = assignment_motion(&mut g);
    assert!(stats.converged);
    assert!(
        stats.rounds >= 8,
        "chain needs one round per link: {stats:?}"
    );
    for i in [1, 4] {
        let cfg = Config {
            oracle: Oracle::Deterministic,
            inputs: vec![("a".into(), 3), ("i".into(), i)],
            ..Config::default()
        };
        let r0 = run(&orig, &cfg);
        let r1 = run(&g, &cfg);
        assert_eq!(r0.observable(), r1.observable(), "i={i}");
        if i > 1 {
            assert!(r1.expr_evals < r0.expr_evals, "i={i}");
        }
    }
}
