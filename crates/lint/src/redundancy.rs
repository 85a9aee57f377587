//! Residual redundancy: re-solves availability and partial availability on
//! a program and flags expression computations the optimizer should have
//! eliminated — a static check of expression optimality (Thm 5.2).

use am_dfa::classic::{available_expressions, partially_available_expressions};
use am_dfa::PointFacts;
use am_ir::{Instr, Loc, PatternUniverse};

use crate::diag::{Diagnostic, Severity};
use crate::Ctx;

/// `L101` (full redundancy, error) and `L102` (partial redundancy,
/// warning).
///
/// Only assignment right-hand sides are checked: branch conditions keep
/// their operand terms in place by design (the top-level comparison is
/// control and never moves), and on the safe/lazy strategies partial
/// redundancies whose elimination would not be down-safe legitimately
/// survive — hence the severity split.
pub(crate) fn check(ctx: &Ctx<'_>, universe: &PatternUniverse, out: &mut Vec<Diagnostic>) {
    if universe.expr_count() == 0 {
        return;
    }
    let g = ctx.g;
    let pool = g.pool();
    let avail = available_expressions(g, &ctx.blocks, universe);
    let pavail = partially_available_expressions(g, &ctx.blocks, universe);
    let (mut full, mut partial) = (PointFacts::default(), PointFacts::default());
    for n in g.nodes() {
        avail.facts(g, n, &mut full);
        pavail.facts(g, n, &mut partial);
        for (index, instr) in g.instrs(n).enumerate() {
            let rhs = match instr {
                Instr::Assign { rhs, .. } if rhs.is_nontrivial() => rhs,
                _ => continue,
            };
            let i = universe
                .expr_id(rhs)
                .expect("universe collected from this graph");
            let loc = Loc { node: n, index };
            if full.before(index).contains(i) {
                out.push(ctx.at(
                    "L101",
                    Severity::Error,
                    loc,
                    format!(
                        "'{}' is recomputed although it is available on every \
                         incoming path (fully redundant; Thm 5.2 eliminates these)",
                        rhs.display(pool)
                    ),
                ));
            } else if partial.before(index).contains(i) {
                out.push(ctx.at(
                    "L102",
                    Severity::Warning,
                    loc,
                    format!(
                        "'{}' is recomputed although it is available on some \
                         incoming path (partially redundant)",
                        rhs.display(pool)
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use am_ir::text::parse;
    use am_ir::FlowGraph;

    use crate::{lint_graph, LintConfig};

    fn codes(g: &FlowGraph) -> Vec<&'static str> {
        lint_graph(g, &LintConfig::default())
            .diags
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn straight_line_recompute_is_l101() {
        let g = parse(
            "start s\nend e\n\
             node s { x := a+b }\n\
             node e { y := a+b; out(x,y) }\n\
             edge s -> e",
        )
        .unwrap();
        assert_eq!(codes(&g), vec!["L101"]);
    }

    #[test]
    fn one_armed_recompute_is_l102() {
        // a+b is computed on the left arm only, then recomputed at the join.
        let g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node l { x := a+b }\n\
             node r { x := 1 }\n\
             node e { y := a+b; out(x,y) }\n\
             edge s -> l, r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        assert_eq!(codes(&g), vec!["L102"]);
    }

    #[test]
    fn killed_operand_clears_the_redundancy() {
        let g = parse(
            "start s\nend e\n\
             node s { x := a+b; a := 1 }\n\
             node e { y := a+b; out(x,y) }\n\
             edge s -> e",
        )
        .unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }

    #[test]
    fn branch_condition_occurrences_are_not_flagged() {
        // The branch re-evaluates a+b, but control conditions never move,
        // so this must stay clean.
        let g = parse(
            "start s\nend e\n\
             node s { x := a+b; branch a+b > 0 }\n\
             node l { skip }\nnode r { skip }\n\
             node e { out(x) }\n\
             edge s -> l, r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }

    #[test]
    fn self_kill_recompute_is_not_redundant() {
        // x := x+1 twice: the first computation kills x+1 itself.
        let g = parse(
            "start s\nend e\n\
             node s { x := x+1 }\n\
             node e { x := x+1; out(x) }\n\
             edge s -> e",
        )
        .unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }
}
