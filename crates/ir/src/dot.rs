//! Graphviz export of flow graphs — paper-style figures from any program.
//!
//! ```sh
//! cargo run --example optimize_file -- --pass full program.ir | ...
//! ```
//!
//! # Examples
//!
//! ```
//! use am_ir::text::parse;
//! use am_ir::dot::to_dot;
//!
//! let g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e")?;
//! let dot = to_dot(&g);
//! assert!(dot.starts_with("digraph flowgraph {"));
//! assert!(dot.contains("x := a+b"));
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

use std::fmt::Write as _;

use crate::graph::{FlowGraph, NodeId};

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders `g` as a Graphviz `digraph`: one record-shaped node per basic
/// block (label plus instructions), ordered out-edges annotated with their
/// successor index for branch nodes, synthetic nodes dashed.
pub fn to_dot(g: &FlowGraph) -> String {
    to_dot_with(g, |_| None)
}

/// [`to_dot`] with a per-node attribute overlay: `extra` may return
/// additional Graphviz attributes (e.g. `style=filled, fillcolor="#fff"`)
/// appended to the node's attribute list — later attributes win, so
/// overlays can restyle nodes. Tools layer analysis results onto the
/// rendering this way (`amlint --dot` colors nodes by finding severity).
pub fn to_dot_with(g: &FlowGraph, extra: impl Fn(NodeId) -> Option<String>) -> String {
    let mut out = String::from("digraph flowgraph {\n");
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for n in g.nodes() {
        let mut label = format!("{}\\n", escape(g.label(n)));
        for instr in g.instrs(n) {
            let _ = write!(label, "{}\\l", escape(&instr.display(g.pool())));
        }
        let mut attrs = format!("label=\"{label}\"");
        if n == g.start() {
            attrs.push_str(", penwidth=2");
        }
        if n == g.end() {
            attrs.push_str(", peripheries=2");
        }
        if g.is_synthetic(n) {
            attrs.push_str(", style=dashed");
        }
        if let Some(more) = extra(n) {
            attrs.push_str(", ");
            attrs.push_str(&more);
        }
        let _ = writeln!(out, "  n{} [{attrs}];", n.index());
    }
    for n in g.nodes() {
        let succs = g.succs(n);
        for (i, &m) in succs.iter().enumerate() {
            if succs.len() > 1 {
                let _ = writeln!(out, "  n{} -> n{} [label=\"{i}\"];", n.index(), m.index());
            } else {
                let _ = writeln!(out, "  n{} -> n{};", n.index(), m.index());
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node a { x := 1 }\n\
             node b { x := 2 }\n\
             node e { out(x) }\n\
             edge s -> a, b\nedge a -> e\nedge b -> e",
        )
        .unwrap();
        let dot = to_dot(&g);
        assert_eq!(dot.matches("shape=box").count(), 1);
        assert_eq!(dot.matches(" -> ").count(), 4);
        // Branch out-edges are indexed.
        assert!(dot.contains("[label=\"0\"]"));
        assert!(dot.contains("[label=\"1\"]"));
        assert!(dot.contains("branch p > 0"));
        assert!(dot.contains("penwidth=2"));
        assert!(dot.contains("peripheries=2"));
    }

    #[test]
    fn synthetic_nodes_are_dashed() {
        let mut g = parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node a { skip }\n\
             node e { out() }\n\
             edge s -> a, e\nedge a -> e",
        )
        .unwrap();
        g.split_critical_edges();
        let dot = to_dot(&g);
        assert!(dot.contains("style=dashed"), "{dot}");
    }

    #[test]
    fn overlay_attributes_are_appended() {
        let g = parse("start s\nend e\nnode s { skip }\nnode e { out() }\nedge s -> e").unwrap();
        let dot = to_dot_with(&g, |n| {
            (n == g.start()).then(|| "style=filled, fillcolor=\"#f4cccc\"".to_owned())
        });
        assert!(
            dot.contains("penwidth=2, style=filled, fillcolor=\"#f4cccc\""),
            "{dot}"
        );
        // Non-selected nodes are untouched.
        assert_eq!(dot.matches("fillcolor").count(), 1);
    }

    #[test]
    fn quotes_are_escaped() {
        let g = parse("start s\nend e\nnode s { skip }\nnode e { out() }\nedge s -> e").unwrap();
        let dot = to_dot(&g);
        assert!(!dot.contains("\"\""), "{dot}");
    }
}
