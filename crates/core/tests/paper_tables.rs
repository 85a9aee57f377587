//! Hand-checked analysis facts on the running example — the Table 1 and
//! Table 2 predicate values one computes when tracing the paper by hand.

use am_core::{hoist, init, rae};
use am_ir::text::parse;
use am_ir::{AssignPattern, BinOp, FlowGraph, NodeId, Term};

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

fn node(g: &FlowGraph, label: &str) -> NodeId {
    g.nodes().find(|&n| g.label(n) == label).unwrap()
}

fn pat(g: &FlowGraph, lhs: &str, op: BinOp, l: &str, r: &str) -> AssignPattern {
    let lv = g.pool().lookup(lhs).unwrap();
    let a = g.pool().lookup(l).unwrap();
    let b = g.pool().lookup(r).unwrap();
    AssignPattern::new(lv, Term::binary(op, a, b))
}

#[test]
fn table1_hoistability_on_the_raw_running_example() {
    let g = parse(RUNNING_EXAMPLE).unwrap();
    let analysis = hoist::analyze_hoisting(&g);
    let u = &analysis.universe;

    let y_cd = u.assign_id(&pat(&g, "y", BinOp::Add, "c", "d")).unwrap();
    let x_yz = u.assign_id(&pat(&g, "x", BinOp::Add, "y", "z")).unwrap();
    let n1 = node(&g, "1");
    let n2 = node(&g, "2");
    let n3 = node(&g, "3");
    let n4 = node(&g, "4");

    // y := c+d: candidates exist in nodes 1 and 3.
    assert!(analysis.loc_hoistable[n1.index()].contains(y_cd));
    assert!(analysis.loc_hoistable[n3.index()].contains(y_cd));
    assert!(!analysis.loc_hoistable[n2.index()].contains(y_cd));
    assert!(!analysis.loc_hoistable[n4.index()].contains(y_cd));

    // x := y+z: the occurrence in node 3 is blocked by y := c+d before it;
    // node 4's occurrence is a candidate.
    assert!(!analysis.loc_hoistable[n3.index()].contains(x_yz));
    assert!(analysis.loc_blocked[n3.index()].contains(x_yz));
    assert!(analysis.loc_hoistable[n4.index()].contains(x_yz));

    // The branch in node 2 uses x, blocking x := y+z from crossing it.
    assert!(analysis.loc_blocked[n2.index()].contains(x_yz));
    // x := y+z cannot be hoisted above node 2's entry before the
    // second-order effects kick in.
    assert!(!analysis.hoistable.before[n2.index()].contains(x_yz));
}

#[test]
fn table1_second_round_after_rae_unblocks_the_loop_assignment() {
    // After eliminating the redundant y := c+d in node 3 (and with the
    // branch decomposed by the initialization), x+z no longer pins x in
    // the condition and x := y+z becomes loop-hoistable — the second-order
    // effect the paper's Sec. 1.1 narrates.
    let mut g = parse(RUNNING_EXAMPLE).unwrap();
    g.split_critical_edges();
    init::initialize(&mut g);
    // One RAE pass removes the loop's h<c+d> initialization (redundant
    // w.r.t. node 1).
    let outcome = rae::eliminate_redundant_assignments(&mut g);
    assert!(outcome.eliminated >= 1);
    // After one hoisting pass the copy `y := h<c+d>` merges as well; the
    // motion loop finishes the job. We check the headline effect at the
    // fixpoint:
    let stats = am_core::motion::assignment_motion(&mut g);
    assert!(stats.converged);
    let n3 = node(&g, "3");
    let body: Vec<String> = g.instrs(n3).map(|i| i.display(g.pool())).collect();
    assert!(
        !body.iter().any(|s| s.contains("y+z")),
        "x := y+z must have left the loop: {body:?}"
    );
}

#[test]
fn table2_redundancy_on_the_initialized_example() {
    let mut g = parse(RUNNING_EXAMPLE).unwrap();
    g.split_critical_edges();
    init::initialize(&mut g);
    let analysis = rae::analyze_redundancy(&g);
    let u = &analysis.universe;

    // The pattern h<c+d> := c+d.
    let c = g.pool().lookup("c").unwrap();
    let d = g.pool().lookup("d").unwrap();
    let cd = Term::binary(BinOp::Add, c, d);
    let h_cd = g.pool().lookup("h<c+d>").unwrap();
    let p_init = u.assign_id(&AssignPattern::new(h_cd, cd)).unwrap();

    // At the entry of node 3's first instruction (the loop body's own
    // h<c+d> := c+d), the pattern is redundant: both paths into node 2 —
    // from node 1 and around the loop — carry it.
    let n3 = node(&g, "3");
    let facts_3 = analysis.block_facts(&g, n3);
    assert!(facts_3[0].contains(p_init));

    // At the entry of node 1's own initialization it is not (boundary).
    let n1 = node(&g, "1");
    assert!(!analysis.block_facts(&g, n1)[0].contains(p_init));

    // The copy y := h<c+d> is NOT yet redundant at node 3: the preceding
    // h<c+d> := c+d (syntactically) redefines its source. Only after that
    // initialization is eliminated does the copy become redundant — an
    // elimination-elimination second-order effect (Sec. 4.3).
    let y = g.pool().lookup("y").unwrap();
    let p_copy = u.assign_id(&AssignPattern::new(y, h_cd)).unwrap();
    assert!(!facts_3[1].contains(p_copy));
    {
        let mut g2 = g.clone();
        let out = rae::eliminate_redundant_assignments(&mut g2);
        assert!(out.eliminated >= 1);
        let analysis2 = rae::analyze_redundancy(&g2);
        let p_copy2 = analysis2
            .universe
            .assign_id(&AssignPattern::new(y, h_cd))
            .unwrap();
        let n3_2 = node(&g2, "3");
        // y := h<c+d> is now the first instruction of node 3 and redundant.
        assert!(analysis2.block_facts(&g2, n3_2)[0].contains(p_copy2));
    }

    // But i := h<i+x> is self-dependent through i+x and never redundant.
    let i_var = g.pool().lookup("i").unwrap();
    let h_ix = g.pool().lookup("h<i+x>").unwrap();
    let pattern = AssignPattern::new(i_var, h_ix);
    let p_i = u.assign_id(&pattern).unwrap();
    for n in g.nodes() {
        let facts = analysis.block_facts(&g, n);
        for (instr, fact) in g.instrs(n).zip(&facts) {
            if pattern.executed_by(instr) {
                assert!(!fact.contains(p_i), "i := h<i+x> must not be redundant");
            }
        }
    }
}

#[test]
fn fig14_snapshot_matches_the_paper() {
    // The AM-phase output (Fig. 14), node by node.
    let g = parse(RUNNING_EXAMPLE).unwrap();
    let result = am_core::global::optimize(&g);
    // The order of independent instructions within a block is not pinned
    // by the algorithm; compare node contents as line sets.
    let text = am_ir::alpha::canonical_text(result.after_motion.as_ref().unwrap());
    let node_lines = |label: &str| -> Vec<String> {
        let start = text.find(&format!("node {label} {{")).unwrap();
        let end = text[start..].find('}').unwrap() + start;
        let mut lines: Vec<String> = text[start..end]
            .lines()
            .skip(1)
            .map(|l| l.trim().to_owned())
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    };
    let mut expect1 = vec![
        "h1 := c+d",
        "y := h1",
        "h2 := x+z",
        "h3 := y+i",
        "h4 := y+z",
        "x := h4",
    ];
    expect1.sort_unstable();
    assert_eq!(node_lines("1"), expect1, "{text}");
    assert_eq!(node_lines("2"), vec!["branch h2 > h3"], "{text}");
    let mut expect3 = vec!["h5 := i+x", "i := h5", "h2 := x+z", "h3 := y+i"];
    expect3.sort_unstable();
    assert_eq!(node_lines("3"), expect3, "{text}");
    let mut expect4 = vec!["x := h1", "out(i,x,y)"];
    expect4.sort_unstable();
    assert_eq!(node_lines("4"), expect4, "{text}");
}

#[test]
fn insertion_points_respect_the_start_boundary() {
    // Table 1's N-INSERT with the (n = s) boundary term: a pattern
    // hoistable to the very top is inserted at the start node.
    let g = parse(
        "start s\nend e\n\
         node s { skip }\n\
         node m { skip }\n\
         node e { x := a+b; out(x) }\n\
         edge s -> m\nedge m -> e",
    )
    .unwrap();
    let analysis = hoist::analyze_hoisting(&g);
    let x_ab = analysis
        .universe
        .assign_id(&pat(&g, "x", BinOp::Add, "a", "b"))
        .unwrap();
    let s = node(&g, "s");
    assert!(analysis.hoistable.before[s.index()].contains(x_ab));
    assert!(analysis.n_insert[s.index()].contains(x_ab));
    // And nowhere else.
    for n in g.nodes() {
        if n != s {
            assert!(!analysis.n_insert[n.index()].contains(x_ab));
            assert!(!analysis.x_insert[n.index()].contains(x_ab));
        }
    }
}

#[test]
fn table3_delayability_and_usability_on_g_assmot() {
    // Table 3 predicates on the AM-phase output of the running example.
    let g0 = parse(RUNNING_EXAMPLE).unwrap();
    let result = am_core::global::optimize(&g0);
    let mut g = result.after_motion.clone().unwrap();
    let analysis = am_core::flush::analyze_flush(&mut g);

    // The facts at the (unique) instruction displayed as `needle`.
    let facts_at = |needle: &str| -> am_core::flush::InstrFacts {
        g.nodes()
            .find_map(|n| {
                let index = g.instrs(n).position(|i| i.display(g.pool()) == needle)?;
                Some(analysis.block_facts(&g, n).swap_remove(index))
            })
            .unwrap_or_else(|| panic!("instruction '{needle}' not found"))
    };

    // Pattern indices.
    let eid = |term: &str| -> usize {
        analysis
            .universe
            .expr_patterns()
            .find(|(_, t)| t.display(g.pool()) == term)
            .map(|(i, _)| i)
            .unwrap_or_else(|| panic!("pattern {term} not in universe"))
    };
    let cd = eid("c+d");
    let xz = eid("x+z");
    let yz = eid("y+z");

    // h<c+d> := c+d in node 1 delays exactly to its use y := h<c+d>:
    // N-DELAYABLE* holds at the use point, and the use point is latest
    // (USED kills delayability past it).
    let use_cd = facts_at("y := h<c+d>");
    assert!(use_cd.n_delay.contains(cd));
    assert!(use_cd.used.contains(cd));
    assert!(!use_cd.x_delay.contains(cd));
    // h<c+d> is usable after that use (node 4 reads it): the instance is
    // kept rather than reconstructed.
    assert!(use_cd.x_usable.contains(cd));

    // h<y+z> := y+z delays to x := h<y+z>, where it is NOT usable
    // afterwards — the reconstruction case (x := y+z in Fig. 15).
    let use_yz = facts_at("x := h<y+z>");
    assert!(use_yz.n_delay.contains(yz));
    assert!(!use_yz.x_usable.contains(yz));

    // h<x+z> := x+z in node 1 cannot delay into the branch: the hoisted
    // x := h<y+z> kills it (writes x) before node 2.
    let branch = facts_at("branch h<x+z> > h<y+i>");
    assert!(
        !branch.n_delay.contains(xz),
        "x+z must not be delayable to the branch"
    );
    // But it IS usable there (the branch reads h<x+z>).
    assert!(branch.used.contains(xz));
}
