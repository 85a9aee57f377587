use std::fmt::{self, Write};

use crate::graph::{FlowGraph, NodeId};
use crate::instr::{Cond, Instr};
use crate::term::{Operand, Term};
use crate::var::{Var, VarPool};

/// Writing into a `String` cannot fail.
pub(crate) const INFALLIBLE: &str = "writing to a String never fails";

/// Renders `g` in the textual IR syntax accepted by [`parse`](super::parse).
///
/// Nodes are printed in index order with one instruction per line, followed
/// by the edge list. The output round-trips: parsing it yields a graph that
/// prints identically.
pub fn to_text(g: &FlowGraph) -> String {
    let mut out = String::new();
    write_program(&mut out, g, &mut source_names(g.pool())).expect(INFALLIBLE);
    out
}

/// The identity renaming: every variable is written under its pool name.
pub(crate) fn source_names<W: Write>(
    pool: &VarPool,
) -> impl FnMut(&mut W, Var) -> fmt::Result + '_ {
    move |w, v| w.write_str(pool.name(v))
}

/// The one text renderer: streams `g` in the syntax of [`to_text`] into
/// `w`, writing each variable through `var`. [`to_text`] passes the source
/// names; the canonical form of [`crate::alpha`] passes positional
/// temporary names. Nothing is materialized per instruction.
pub(crate) fn write_program<W: Write>(
    w: &mut W,
    g: &FlowGraph,
    var: &mut impl FnMut(&mut W, Var) -> fmt::Result,
) -> fmt::Result {
    w.write_str("start ")?;
    w.write_str(g.label(g.start()))?;
    w.write_str("\nend ")?;
    w.write_str(g.label(g.end()))?;
    w.write_str("\n")?;
    for n in g.nodes() {
        w.write_str("node ")?;
        w.write_str(g.label(n))?;
        w.write_str(" {\n")?;
        for instr in g.instrs(n) {
            w.write_str("  ")?;
            write_instr(w, instr, var)?;
            w.write_str("\n")?;
        }
        w.write_str("}\n")?;
    }
    for n in g.nodes() {
        let succs = g.succs(n);
        if !succs.is_empty() {
            w.write_str("edge ")?;
            w.write_str(g.label(n))?;
            w.write_str(" -> ")?;
            for (i, &m) in succs.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                w.write_str(g.label(m))?;
            }
            w.write_str("\n")?;
        }
    }
    Ok(())
}

/// Writes one instruction (`skip`, `x := t`, `out(..)`, `branch t op t`).
pub(crate) fn write_instr<W: Write>(
    w: &mut W,
    instr: &Instr,
    var: &mut impl FnMut(&mut W, Var) -> fmt::Result,
) -> fmt::Result {
    match instr {
        Instr::Skip => w.write_str("skip"),
        Instr::Assign { lhs, rhs } => {
            var(w, *lhs)?;
            w.write_str(" := ")?;
            write_term(w, *rhs, var)
        }
        Instr::Out(ops) => {
            w.write_str("out(")?;
            for (i, &o) in ops.iter().enumerate() {
                if i > 0 {
                    w.write_str(",")?;
                }
                write_operand(w, o, var)?;
            }
            w.write_str(")")
        }
        Instr::Branch(c) => {
            w.write_str("branch ")?;
            write_cond(w, *c, var)
        }
    }
}

/// Writes a branch condition: `lhs op rhs`, spaced.
pub(crate) fn write_cond<W: Write>(
    w: &mut W,
    c: Cond,
    var: &mut impl FnMut(&mut W, Var) -> fmt::Result,
) -> fmt::Result {
    write_term(w, c.lhs, var)?;
    w.write_str(" ")?;
    w.write_str(c.op.symbol())?;
    w.write_str(" ")?;
    write_term(w, c.rhs, var)
}

/// Writes a 3-address term (`a`, `5`, `a+b`; binary terms are unspaced).
pub(crate) fn write_term<W: Write>(
    w: &mut W,
    t: Term,
    var: &mut impl FnMut(&mut W, Var) -> fmt::Result,
) -> fmt::Result {
    match t {
        Term::Operand(o) => write_operand(w, o, var),
        Term::Binary { op, lhs, rhs } => {
            write_operand(w, lhs, var)?;
            w.write_str(op.symbol())?;
            write_operand(w, rhs, var)
        }
    }
}

fn write_operand<W: Write>(
    w: &mut W,
    o: Operand,
    var: &mut impl FnMut(&mut W, Var) -> fmt::Result,
) -> fmt::Result {
    match o {
        Operand::Var(v) => var(w, v),
        Operand::Const(c) => write_int(w, c),
    }
}

/// Writes `n` in decimal, exactly as `Display` does, without the
/// formatting machinery.
pub(crate) fn write_int(w: &mut impl Write, n: i64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut m = n.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        w.write_str("-")?;
    }
    w.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// A one-line summary of a node: `label[instr; instr; ...]`.
///
/// Handy for assertions about individual blocks in tests and for compact
/// figure output.
pub fn node_summary(g: &FlowGraph, n: NodeId) -> String {
    let body: Vec<String> = g.instrs(n).map(|i| i.display(g.pool())).collect();
    format!("{}[{}]", g.label(n), body.join("; "))
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse;
    use super::*;

    const SRC: &str = "
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
    fn round_trip_is_stable() {
        let g = parse(SRC).unwrap();
        let text = to_text(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(to_text(&g2), text);
    }

    #[test]
    fn printed_text_contains_everything() {
        let g = parse(SRC).unwrap();
        let text = to_text(&g);
        assert!(text.contains("start 1"));
        assert!(text.contains("end 4"));
        assert!(text.contains("branch x+z > y+i"));
        assert!(text.contains("edge 2 -> 3, 4"));
        assert!(text.contains("out(i,x,y)"));
    }

    #[test]
    fn write_int_matches_display() {
        for n in [0, 1, -1, 9, 10, -10, 4096, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut out = String::new();
            write_int(&mut out, n).unwrap();
            assert_eq!(out, n.to_string());
        }
    }

    #[test]
    fn node_summary_format() {
        let g = parse(SRC).unwrap();
        let n3 = g.nodes().find(|&n| g.label(n) == "3").unwrap();
        assert_eq!(node_summary(&g, n3), "3[y := c+d; x := y+z; i := i+x]");
        let n1 = g.nodes().find(|&n| g.label(n) == "1").unwrap();
        assert_eq!(node_summary(&g, n1), "1[y := c+d]");
    }
}
