//! Temporary-lifetime lints: single-use temporaries that relative
//! temporary optimality (Thm 5.4) says should have been reconstructed, and
//! the peak number of simultaneously live temporaries — the register
//! pressure the second motion round exists to bound.

use am_dfa::classic::{available_expressions, live_variables};
use am_dfa::PointFacts;
use am_ir::{Instr, Loc, Operand, PatternUniverse, Term, Var};

use crate::diag::{Diagnostic, Severity};
use crate::Ctx;

/// `L301` (warning): a temporary read exactly once, by a trivial copy
/// `x := h`, whose defining expression is available at that lone use — the
/// flush phase's reconstruction rule (Thm 5.4) would replace the copy with
/// the expression and delete the temporary, shortening its live range to
/// zero. `L302` (info): the peak count of simultaneously live temporaries.
pub(crate) fn check(ctx: &Ctx<'_>, universe: &PatternUniverse, out: &mut Vec<Diagnostic>) {
    let g = ctx.g;
    let pool = g.pool();
    let temps: Vec<Var> = pool.iter().filter(|&v| pool.is_temp(v)).collect();
    if temps.is_empty() {
        return;
    }

    // Reading instructions per temporary (how many, and the last one) and
    // the (unique, under the initialization discipline) non-trivial
    // expression each temporary is bound to.
    let mut reads: Vec<(usize, Option<Loc>)> = vec![(0, None); pool.len()];
    let mut bound: Vec<Option<Term>> = vec![None; pool.len()];
    for n in g.nodes() {
        for (index, instr) in g.instrs(n).enumerate() {
            let loc = Loc { node: n, index };
            instr.for_each_use(|v| {
                let r = &mut reads[v.index()];
                if pool.is_temp(v) && r.1 != Some(loc) {
                    *r = (r.0 + 1, Some(loc));
                }
            });
            if let Instr::Assign { lhs, rhs } = instr {
                if pool.is_temp(*lhs) && rhs.is_nontrivial() {
                    bound[lhs.index()] = Some(*rhs);
                }
            }
        }
    }

    // The lone use of a single-use temporary that a reconstruction would
    // serve: a trivial copy `x := h` (a use inside a larger expression or
    // an out/branch needs the value) with h's expression available there.
    let avail = available_expressions(g, &ctx.blocks, universe);
    let mut found: Vec<Option<Diagnostic>> = vec![None; pool.len()];
    let mut facts = PointFacts::default();
    for n in g.nodes() {
        avail.facts(g, n, &mut facts);
        for (index, instr) in g.instrs(n).enumerate() {
            let loc = Loc { node: n, index };
            let Instr::Assign {
                lhs,
                rhs: rhs @ Term::Operand(Operand::Var(h)),
            } = instr
            else {
                continue;
            };
            let Some(t) = bound[h.index()].filter(|_| reads[h.index()] == (1, Some(loc))) else {
                continue;
            };
            if universe
                .expr_id(&t)
                .is_some_and(|i| facts.before(index).contains(i))
            {
                found[h.index()] = Some(ctx.at(
                    "L301",
                    Severity::Warning,
                    loc,
                    format!(
                        "single-use temporary '{}' should be reconstructed: \
                         '{}' is available at its only use '{} := {}' (Thm 5.4)",
                        pool.name(*h),
                        t.display(pool),
                        pool.name(*lhs),
                        rhs.display(pool)
                    ),
                ));
            }
        }
    }
    out.extend(temps.iter().filter_map(|h| found[h.index()].take()));

    // Peak pressure: maximum number of temporaries live at any point, and
    // the node of the first point reaching it.
    let live = live_variables(g, &ctx.blocks);
    let (mut peak, mut at) = (0usize, g.start());
    for n in g.nodes() {
        live.facts(g, n, &mut facts);
        for j in 0..facts.points() {
            let live_temps = temps.iter().filter(|v| facts.before(j).contains(v.index()));
            let count = live_temps.count();
            if count > peak {
                (peak, at) = (count, n);
            }
        }
    }
    if peak > 0 {
        out.push(ctx.at_node(
            "L302",
            Severity::Info,
            at,
            format!(
                "peak temporary pressure: {peak} simultaneously live \
                 temporar{} (first reached in this node)",
                if peak == 1 { "y" } else { "ies" }
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use am_ir::{BinOp, FlowGraph, Instr, NodeId, Term, Var};

    use crate::{lint_graph, LintConfig, Severity};

    fn codes(g: &FlowGraph) -> Vec<&'static str> {
        lint_graph(g, &LintConfig::default())
            .diags
            .iter()
            .map(|d| d.code)
            .collect()
    }

    fn skeleton() -> (FlowGraph, NodeId, NodeId, Var, Var, Var) {
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, e);
        let a = g.pool_mut().intern("a");
        let b = g.pool_mut().intern("b");
        let x = g.pool_mut().intern("x");
        (g, s, e, a, b, x)
    }

    #[test]
    fn reconstructible_single_use_temp_is_l301() {
        // h := a+b; x := h with a+b still available at the copy: flush
        // should have rewritten this to x := a+b and dropped h.
        let (mut g, s, e, a, b, x) = skeleton();
        let t = Term::binary(BinOp::Add, a, b);
        let h = g.temp_for(t);
        g.push_instr(s, Instr::assign(h, t));
        g.push_instr(e, Instr::assign(x, h));
        g.push_instr(e, Instr::Out(vec![x.into()]));
        let cs = codes(&g);
        assert!(cs.contains(&"L301"), "{cs:?}");
    }

    #[test]
    fn temp_bridging_a_kill_is_not_flagged() {
        // a := 1 between initialization and use: the expression is NOT
        // available at the copy, so the temporary is doing real work.
        let (mut g, s, e, a, b, x) = skeleton();
        let t = Term::binary(BinOp::Add, a, b);
        let h = g.temp_for(t);
        g.push_instr(s, Instr::assign(h, t));
        g.push_instr(s, Instr::assign(a, 1));
        g.push_instr(e, Instr::assign(x, h));
        g.push_instr(e, Instr::Out(vec![x.into(), a.into()]));
        let cs = codes(&g);
        assert!(!cs.contains(&"L301"), "{cs:?}");
    }

    #[test]
    fn multi_use_temp_is_not_flagged() {
        let (mut g, s, e, a, b, x) = skeleton();
        let t = Term::binary(BinOp::Add, a, b);
        let h = g.temp_for(t);
        let y = g.pool_mut().intern("y");
        g.push_instr(s, Instr::assign(h, t));
        g.push_instr(s, Instr::assign(x, h));
        g.push_instr(e, Instr::assign(y, h));
        g.push_instr(e, Instr::Out(vec![x.into(), y.into()]));
        let cs = codes(&g);
        assert!(!cs.contains(&"L301"), "{cs:?}");
    }

    #[test]
    fn pressure_is_reported_as_info() {
        let (mut g, s, e, a, b, x) = skeleton();
        let t1 = Term::binary(BinOp::Add, a, b);
        let t2 = Term::binary(BinOp::Mul, a, b);
        let h1 = g.temp_for(t1);
        let h2 = g.temp_for(t2);
        g.push_instr(s, Instr::assign(h1, t1));
        g.push_instr(s, Instr::assign(h2, t2));
        g.push_instr(s, Instr::assign(a, 1));
        g.push_instr(e, Instr::assign(x, h1));
        g.push_instr(e, Instr::Out(vec![x.into(), h2.into()]));
        let report = lint_graph(&g, &LintConfig::default());
        let l302 = report
            .diags
            .iter()
            .find(|d| d.code == "L302")
            .expect("pressure reported");
        assert_eq!(l302.severity, Severity::Info);
        assert!(l302.message.contains("2 simultaneously live"));
        // Info findings never affect the exit code.
        assert!(report.errors() == 0);
    }

    #[test]
    fn programs_without_temps_report_nothing_here() {
        let g = am_ir::text::parse(
            "start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e",
        )
        .unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }
}
