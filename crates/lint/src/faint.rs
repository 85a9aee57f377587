//! Faint-assignment detection: the backward faintness fixpoint of Sec. 3,
//! strictly stronger than dead-code liveness. An assignment is faint when
//! no path from it reaches an *observation* of the assigned value — an
//! `out`, a branch condition, or an assignment whose own target is (still)
//! strongly live.

use am_bitset::BitSet;
use am_dfa::classic::{strong_liveness_step, strongly_live_variables};
use am_ir::{Instr, Loc};

use crate::diag::{Diagnostic, Severity};
use crate::Ctx;

/// `L201` (error): a temporary that is initialized but never read anywhere
/// in the program — the flush phase keeps only usable temporaries
/// (X-USABLE, Table 3), so an unread temporary is a broken translation.
///
/// `L202` (warning): any other faint assignment. These can occur in
/// legitimate *source* programs (dead stores the user wrote), so they do
/// not fail the build; the optimizer is not required to remove them either
/// — assignment sinking eliminates only what the paper's faintness
/// analysis justifies, and `am-lint` reports what is left.
pub(crate) fn check(ctx: &Ctx<'_>, out: &mut Vec<Diagnostic>) {
    let g = ctx.g;
    let pool = g.pool();
    let strong = strongly_live_variables(g, &ctx.blocks);

    // Which variables are read by any instruction at all.
    let mut read = BitSet::new(pool.len());
    for n in g.nodes() {
        for instr in g.instrs(n) {
            instr.for_each_use(|v| {
                read.insert(v.index());
            });
        }
    }

    // Each block is walked back from its solved exit fact: an assignment
    // is faint when its target is not strongly live after it. The findings
    // are reported in program order.
    let mut live = BitSet::new(pool.len());
    let mut faint = Vec::new();
    for n in g.nodes() {
        live.copy_from(&strong.after[n.index()]);
        faint.clear();
        for instr in g.instrs(n).rev() {
            faint.push(matches!(instr, Instr::Assign { lhs, .. } if !live.contains(lhs.index())));
            strong_liveness_step(instr, &mut live);
        }
        faint.reverse();
        for (index, instr) in g.instrs(n).enumerate() {
            let Instr::Assign { lhs, rhs } = instr else {
                continue;
            };
            if !faint[index] {
                continue;
            }
            let loc = Loc { node: n, index };
            if pool.is_temp(*lhs) && !read.contains(lhs.index()) {
                out.push(ctx.at(
                    "L201",
                    Severity::Error,
                    loc,
                    format!(
                        "temporary '{}' is initialized but never read \
                     (flush keeps only usable temporaries, Table 3)",
                        pool.name(*lhs)
                    ),
                ));
            } else {
                out.push(ctx.at(
                    "L202",
                    Severity::Warning,
                    loc,
                    format!(
                        "assignment '{} := {}' is faint: its value never \
                     reaches an out or branch on any path",
                        pool.name(*lhs),
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
    use am_ir::{BinOp, FlowGraph, Instr, Term};

    use crate::{lint_graph, LintConfig};

    fn codes(g: &FlowGraph) -> Vec<&'static str> {
        lint_graph(g, &LintConfig::default())
            .diags
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn observed_assignments_are_clean() {
        let g =
            parse("start s\nend e\nnode s { x := a+b; y := x }\nnode e { out(y) }\nedge s -> e")
                .unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }

    #[test]
    fn faint_chain_is_flagged_even_though_classically_live() {
        // a := 1 is classically live (b := a reads it) but the whole chain
        // is unread: both assignments are faint.
        let g = parse("start s\nend e\nnode s { a := 1; b := a }\nnode e { out(c) }\nedge s -> e")
            .unwrap();
        assert_eq!(codes(&g), vec!["L202", "L202"]);
    }

    #[test]
    fn unread_temp_is_l201() {
        let mut g = FlowGraph::new();
        let s = g.add_node("s");
        let e = g.add_node("e");
        g.set_start(s);
        g.set_end(e);
        g.add_edge(s, e);
        let a = g.pool_mut().intern("a");
        let b = g.pool_mut().intern("b");
        let t = Term::binary(BinOp::Add, a, b);
        let h = g.temp_for(t);
        g.push_instr(s, Instr::assign(h, t));
        g.push_instr(e, Instr::Out(vec![a.into()]));
        assert_eq!(codes(&g), vec!["L201"]);
    }

    #[test]
    fn branch_uses_keep_values_alive() {
        let g = parse(
            "start s\nend e\n\
             node s { x := a+b; branch x > 0 }\n\
             node l { skip }\nnode r { skip }\n\
             node e { out(1) }\n\
             edge s -> l, r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        assert!(codes(&g).is_empty(), "{:?}", codes(&g));
    }
}
