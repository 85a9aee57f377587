//! Additional coverage: interpreter corner cases, nested loop analysis,
//! pattern collection from conditions, and point graphs over hand-built
//! blocks.

use am_ir::interp::{run, Config, Oracle, StopReason, Trap};
use am_ir::text::parse;
use am_ir::{
    analysis, AssignPattern, BinOp, Cond, FlowGraph, Instr, Operand, PatternUniverse, Term,
};

#[test]
fn mod_by_zero_traps() {
    let g = parse("start s\nend e\nnode s { x := a % b }\nnode e { out(x) }\nedge s -> e").unwrap();
    let r = run(&g, &Config::with_inputs(vec![("a", 5), ("b", 0)]));
    assert_eq!(r.trap, Some(Trap::DivByZero));
    assert_eq!(r.stop, StopReason::Trapped);
    let ok = run(&g, &Config::with_inputs(vec![("a", 5), ("b", 3)]));
    assert_eq!(ok.outputs, vec![vec![2]]);
}

#[test]
fn min_div_minus_one_wraps_instead_of_panicking() {
    let g = parse("start s\nend e\nnode s { x := a / b }\nnode e { out(x) }\nedge s -> e").unwrap();
    let r = run(&g, &Config::with_inputs(vec![("a", i64::MIN), ("b", -1)]));
    assert_eq!(r.stop, StopReason::ReachedEnd);
    assert_eq!(r.outputs, vec![vec![i64::MIN]]); // wrapping division
}

#[test]
fn out_with_constants_and_negatives() {
    let g =
        parse("start s\nend e\nnode s { skip }\nnode e { out(x, -3, 42) }\nedge s -> e").unwrap();
    let r = run(&g, &Config::with_inputs(vec![("x", -7)]));
    assert_eq!(r.outputs, vec![vec![-7, -3, 42]]);
}

#[test]
fn relational_terms_in_assignments() {
    let g = parse(
        "start s\nend e\nnode s { t := a < b; u := a == a }\nnode e { out(t,u) }\nedge s -> e",
    )
    .unwrap();
    let r = run(&g, &Config::with_inputs(vec![("a", 1), ("b", 2)]));
    assert_eq!(r.outputs, vec![vec![1, 1]]);
    let r2 = run(&g, &Config::with_inputs(vec![("a", 3), ("b", 2)]));
    assert_eq!(r2.outputs, vec![vec![0, 1]]);
}

#[test]
fn nested_natural_loops() {
    // outer: 2..5, inner: 3..4.
    let g = parse(
        "start 1\nend 6\n\
         node 1 { skip }\n\
         node 2 { branch i < n }\n\
         node 3 { branch j < m }\n\
         node 4 { j := j + 1 }\n\
         node 5 { i := i + 1 }\n\
         node 6 { out(i,j) }\n\
         edge 1 -> 2\nedge 2 -> 3, 6\nedge 3 -> 4, 5\nedge 4 -> 3\nedge 5 -> 2",
    )
    .unwrap();
    let back = analysis::back_edges(&g);
    assert_eq!(back.len(), 2);
    let label = |n: am_ir::NodeId| g.label(n).to_owned();
    let mut headers: Vec<String> = back.iter().map(|&(_, h)| label(h)).collect();
    headers.sort();
    assert_eq!(headers, vec!["2", "3"]);
    // The outer loop contains the inner one.
    let (outer_tail, outer_header) = back
        .iter()
        .find(|&&(_, h)| label(h) == "2")
        .copied()
        .unwrap();
    let outer = analysis::natural_loop(&g, outer_tail, outer_header);
    let outer_labels: Vec<String> = outer.iter().map(|&n| label(n)).collect();
    assert_eq!(outer_labels, vec!["2", "3", "4", "5"]);
    let (inner_tail, inner_header) = back
        .iter()
        .find(|&&(_, h)| label(h) == "3")
        .copied()
        .unwrap();
    let inner = analysis::natural_loop(&g, inner_tail, inner_header);
    let inner_labels: Vec<String> = inner.iter().map(|&n| label(n)).collect();
    assert_eq!(inner_labels, vec!["3", "4"]);
    assert!(analysis::is_reducible(&g));
}

#[test]
fn condition_sides_join_the_expression_universe() {
    let g = parse(
        "start s\nend e\n\
         node s { branch a*b >= c-d }\n\
         node l { skip }\n\
         node e { out(a) }\n\
         edge s -> l, e\nedge l -> e",
    )
    .unwrap();
    let u = PatternUniverse::collect(&g);
    assert_eq!(u.expr_count(), 2);
    let a = g.pool().lookup("a").unwrap();
    let b = g.pool().lookup("b").unwrap();
    let c = g.pool().lookup("c").unwrap();
    let d = g.pool().lookup("d").unwrap();
    assert!(u.expr_id(&Term::binary(BinOp::Mul, a, b)).is_some());
    assert!(u.expr_id(&Term::binary(BinOp::Sub, c, d)).is_some());
}

#[test]
fn instructions_after_a_branch_execute_before_transfer() {
    // The representation allows assignments after the decision point; they
    // run before control moves (how X-INSERT at branch nodes works).
    let mut g = FlowGraph::new();
    let s = g.add_node("s");
    let l = g.add_node("l");
    let r = g.add_node("r");
    let e = g.add_node("e");
    g.set_start(s);
    g.set_end(e);
    g.add_edge(s, l);
    g.add_edge(s, r);
    g.add_edge(l, e);
    g.add_edge(r, e);
    let p = g.pool_mut().intern("p");
    let x = g.pool_mut().intern("x");
    g.push_instr(s, Instr::Branch(Cond::new(BinOp::Gt, p, 0)));
    g.push_instr(s, Instr::assign(x, 9)); // after the branch
    g.push_instr(e, Instr::Out(vec![Operand::Var(x)]));
    assert_eq!(g.validate(), Ok(()));
    for p_val in [1, -1] {
        let res = run(&g, &Config::with_inputs(vec![("p", p_val)]));
        assert_eq!(res.outputs, vec![vec![9]], "x set on both branches");
    }
}

#[test]
fn transparency_vs_blocking_are_different_relations() {
    let mut g = FlowGraph::new();
    let x = g.pool_mut().intern("x");
    let a = g.pool_mut().intern("a");
    let pattern = AssignPattern::new(x, Term::binary(BinOp::Add, a, 1));
    // Reading x blocks hoisting but is transparent for redundancy.
    let read = Instr::Out(vec![Operand::Var(x)]);
    assert!(pattern.blocked_by(&read));
    assert!(pattern.transparent_for(&read));
}

#[test]
fn oracle_decisions_count_only_at_branches() {
    let g = parse(
        "start s\nend e\nnode s { x := 1 }\nnode m { x := x + 1 }\nnode e { out(x) }\nedge s -> m\nedge m -> e",
    )
    .unwrap();
    let r = run(
        &g,
        &Config {
            oracle: Oracle::Fixed(vec![]),
            ..Config::default()
        },
    );
    assert_eq!(r.stop, StopReason::ReachedEnd, "no decisions needed");
    assert_eq!(r.decisions, 0);
}

#[test]
fn traced_runs_mirror_untraced_results() {
    use am_ir::interp::{run_traced, TraceEvent};
    let g = parse(
        "start 1\nend 4\n\
         node 1 { i := 0 }\n\
         node 2 { branch i < n }\n\
         node 3 { i := i + 1 }\n\
         node 4 { out(i) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
    )
    .unwrap();
    let cfg = Config::with_inputs(vec![("n", 3)]);
    let (result, trace) = run_traced(&g, &cfg);
    assert_eq!(result, run(&g, &cfg), "tracing must not change behaviour");
    // One Enter per visited node, one Decided per decision, one Emitted
    // per output, writes match assignment executions.
    let enters = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Enter(_)))
        .count();
    let decides = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Decided(_)))
        .count();
    let emits = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Emitted(_)))
        .count();
    let writes = trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Wrote { .. }))
        .count();
    assert_eq!(enters as u64, result.nodes_visited);
    assert_eq!(decides as u64, result.decisions);
    assert_eq!(emits, result.outputs.len());
    assert_eq!(writes as u64, result.assign_execs);
    // The final write to i is 3.
    let last_write = trace.iter().rev().find_map(|e| match e {
        TraceEvent::Wrote { value, .. } => Some(*value),
        _ => None,
    });
    assert_eq!(last_write, Some(3));
}

#[test]
fn traced_trap_is_an_event() {
    use am_ir::interp::{run_traced, TraceEvent, Trap};
    let g = parse("start s\nend e\nnode s { x := 1/q }\nnode e { out(x) }\nedge s -> e").unwrap();
    let (_, trace) = run_traced(&g, &Config::with_inputs(vec![("q", 0)]));
    assert!(trace.contains(&TraceEvent::Trapped(Trap::DivByZero)));
}
