//! The four second-order effects of Sec. 4.3, each isolated in a minimal
//! example: a single pass of the enabled procedure cannot make the change,
//! the RAE⇄AHT fixpoint can.

use am_core::hoist::hoist_assignments;
use am_core::motion::assignment_motion;
use am_core::rae::eliminate_redundant_assignments;
use am_ir::text::{parse, to_text};
use am_ir::FlowGraph;

fn prepared(src: &str) -> FlowGraph {
    let mut g = parse(src).unwrap();
    g.split_critical_edges();
    g
}

#[test]
fn hoisting_enables_elimination() {
    // Fig. 8: eliminating x := y+z at the join is impossible until the
    // blocker a := x+y is hoisted out of the way.
    let mut fig8 = am_core::restricted::fig8_example();
    fig8.split_critical_edges();
    let mut rae_alone = fig8.clone();
    let out = eliminate_redundant_assignments(&mut rae_alone);
    assert_eq!(out.eliminated, 0, "no elimination before hoisting");
    let stats = assignment_motion(&mut fig8);
    assert!(stats.converged);
    assert!(stats.eliminated >= 1, "hoisting enabled the elimination");
    let n4 = fig8.nodes().find(|&n| fig8.label(n) == "4").unwrap();
    assert_eq!(fig8.block(n4).len(), 1, "{}", to_text(&fig8));
}

#[test]
fn hoisting_enables_hoisting() {
    // w2 := w1+1 is blocked by w1 := a+1 in the do-while body; once w1
    // hoists out, w2 follows the next round.
    let src = "start s\nend e\n\
         node s { skip }\n\
         node b { w1 := a+1; w2 := w1+1; s0 := s0+w2; i := i-1 }\n\
         node c { branch i > 0 }\n\
         node e { out(s0) }\n\
         edge s -> b\nedge b -> c\nedge c -> b, e";
    let mut g = prepared(src);
    // One hoisting pass moves w1 but w2 is still blocked inside the body.
    let mut one_pass = g.clone();
    hoist_assignments(&mut one_pass);
    let b1 = one_pass
        .nodes()
        .find(|&n| one_pass.label(n) == "b")
        .unwrap();
    let body1: Vec<String> = one_pass
        .instrs(b1)
        .map(|i| i.display(one_pass.pool()))
        .collect();
    assert!(
        !body1.iter().any(|s| s == "w1 := a+1"),
        "first pass hoists w1: {body1:?}"
    );
    assert!(
        body1.iter().any(|s| s == "w2 := w1+1"),
        "w2 still inside after one pass: {body1:?}"
    );
    // The fixpoint clears both.
    let stats = assignment_motion(&mut g);
    assert!(stats.converged);
    assert!(stats.rounds >= 2);
    let b = g.nodes().find(|&n| g.label(n) == "b").unwrap();
    let body: Vec<String> = g.instrs(b).map(|i| i.display(g.pool())).collect();
    assert!(!body.iter().any(|s| s.contains("w1 := a+1")), "{body:?}");
    assert!(!body.iter().any(|s| s.contains("w2 := w1+1")), "{body:?}");
}

#[test]
fn elimination_enables_hoisting() {
    // The running example's core: y := c+d in the loop blocks x := y+z
    // (it writes y); only after RAE removes it can x := y+z leave.
    let src = "start 1\nend 4\n\
         node 1 { y := c+d }\n\
         node 2 { branch q > 0 }\n\
         node 3 { y := c+d; x := y+z; q := q-1 }\n\
         node 4 { x := y+z; out(x,y,q) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";
    let mut g = prepared(src);
    // Hoisting alone cannot move x := y+z out of node 3 (blocked by the
    // preceding y := c+d).
    let mut hoist_only = g.clone();
    hoist_assignments(&mut hoist_only);
    let n3 = hoist_only
        .nodes()
        .find(|&n| hoist_only.label(n) == "3")
        .unwrap();
    assert!(hoist_only
        .instrs(n3)
        .any(|i| i.display(hoist_only.pool()) == "x := y+z"));
    // The fixpoint moves it.
    let stats = assignment_motion(&mut g);
    assert!(stats.converged && stats.rounds >= 2);
    let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
    assert!(!g.instrs(n3).any(|i| i.display(g.pool()) == "x := y+z"));
}

#[test]
fn elimination_enables_elimination() {
    // h := c+d; y := h in a loop: the copy y := h only becomes redundant
    // after the (syntactically killing) h := c+d above it is eliminated.
    let src = "start 1\nend 4\n\
         node 1 { h0 := c+d; y := h0 }\n\
         node 2 { branch q > 0 }\n\
         node 3 { h0 := c+d; y := h0; q := q-1 }\n\
         node 4 { out(y,q) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2";
    let mut g = prepared(src);
    let first = eliminate_redundant_assignments(&mut g);
    assert_eq!(first.eliminated, 1, "only h0 := c+d falls in round one");
    let second = eliminate_redundant_assignments(&mut g);
    assert_eq!(second.eliminated, 1, "now y := h0 falls too");
    let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
    let body: Vec<String> = g.instrs(n3).map(|i| i.display(g.pool())).collect();
    assert_eq!(body, vec!["q := q-1"]);
}
