//! A fluent builder for flow graphs.
//!
//! The textual frontend is convenient for fixed programs; the builder is
//! for programmatic construction (generators, frontends, tests) without
//! dealing with explicit variable interning or edge bookkeeping.
//!
//! # Examples
//!
//! ```
//! use am_ir::builder::GraphBuilder;
//!
//! // Fig. 2(a)-like: a diamond with an assignment on both branches.
//! let mut b = GraphBuilder::new();
//! b.node("s").branch_on("p");
//! b.node("l").assign("x", "a+b");
//! b.node("r").assign("x", "a+b");
//! b.node("e").out(["x"]);
//! b.edge("s", "l");
//! b.edge("s", "r");
//! b.edge("l", "e");
//! b.edge("r", "e");
//! let g = b.build("s", "e")?;
//! assert_eq!(g.node_count(), 4);
//! # Ok::<(), am_ir::builder::BuildError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::graph::{FlowGraph, GraphError, NodeId};
use crate::instr::{Cond, Instr};
use crate::term::Operand;
use crate::text::{parse_expr_str, ParseError as ExprParseError};
use crate::var::Var;

/// Errors reported by [`GraphBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A statement's expression failed to parse.
    Expr(String, ExprParseError),
    /// An edge references an undefined node.
    UnknownNode(String),
    /// The finished graph violates a structural invariant.
    Graph(GraphError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Expr(src, e) => write!(f, "in expression '{src}': {e}"),
            BuildError::UnknownNode(l) => write!(f, "edge references undefined node '{l}'"),
            BuildError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`FlowGraph`] incrementally. See the [module docs](self).
#[derive(Default)]
pub struct GraphBuilder {
    graph: FlowGraph,
    nodes: HashMap<String, NodeId>,
    pending: Vec<(String, PendingInstr)>,
    edges: Vec<(String, String)>,
}

enum PendingInstr {
    Skip,
    Assign(String, String),
    Out(Vec<String>),
    Branch(String),
}

/// A handle to one node under construction; statements append in order.
pub struct NodeBuilder<'b> {
    builder: &'b mut GraphBuilder,
    label: String,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Declares (or re-opens) the node `label`.
    pub fn node(&mut self, label: &str) -> NodeBuilder<'_> {
        if !self.nodes.contains_key(label) {
            let id = self.graph.add_node(label);
            self.nodes.insert(label.to_owned(), id);
        }
        NodeBuilder {
            builder: self,
            label: label.to_owned(),
        }
    }

    /// Adds the edge `from -> to` (appended to `from`'s successor order).
    pub fn edge(&mut self, from: &str, to: &str) -> &mut Self {
        self.edges.push((from.to_owned(), to.to_owned()));
        self
    }

    /// Finalizes the graph with the given start and end labels.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for unparsable expressions, unknown edge
    /// endpoints, or structural violations (see [`FlowGraph::validate`]).
    pub fn build(mut self, start: &str, end: &str) -> Result<FlowGraph, BuildError> {
        // Resolve statements.
        let pending = std::mem::take(&mut self.pending);
        for (label, instr) in pending {
            let node = self.nodes[&label];
            let lowered = self.lower(instr)?;
            self.graph.push_instr(node, lowered);
        }
        // Resolve edges.
        for (from, to) in std::mem::take(&mut self.edges) {
            let f = *self
                .nodes
                .get(&from)
                .ok_or_else(|| BuildError::UnknownNode(from.clone()))?;
            let t = *self
                .nodes
                .get(&to)
                .ok_or_else(|| BuildError::UnknownNode(to.clone()))?;
            self.graph.add_edge(f, t);
        }
        let s = *self
            .nodes
            .get(start)
            .ok_or_else(|| BuildError::UnknownNode(start.to_owned()))?;
        let e = *self
            .nodes
            .get(end)
            .ok_or_else(|| BuildError::UnknownNode(end.to_owned()))?;
        self.graph.set_start(s);
        self.graph.set_end(e);
        self.graph.validate().map_err(BuildError::Graph)?;
        Ok(self.graph)
    }

    fn lower(&mut self, instr: PendingInstr) -> Result<Instr, BuildError> {
        Ok(match instr {
            PendingInstr::Skip => Instr::Skip,
            PendingInstr::Assign(lhs, rhs) => {
                let term = parse_expr_str(&rhs, self.graph.pool_mut())
                    .map_err(|e| BuildError::Expr(rhs.clone(), e))?;
                let lhs: Var = self.graph.pool_mut().intern(&lhs);
                Instr::assign(lhs, term)
            }
            PendingInstr::Out(vars) => {
                let ops: Vec<Operand> = vars
                    .iter()
                    .map(|v| Operand::Var(self.graph.pool_mut().intern(v)))
                    .collect();
                Instr::Out(ops)
            }
            PendingInstr::Branch(src) => {
                let cond: Cond = crate::text::parse_cond_str(&src, self.graph.pool_mut())
                    .map_err(|e| BuildError::Expr(src.clone(), e))?;
                Instr::Branch(cond)
            }
        })
    }
}

impl NodeBuilder<'_> {
    /// Appends `lhs := rhs`; `rhs` is 3-address expression syntax
    /// (`"a+b"`, `"x"`, `"5"`).
    pub fn assign(&mut self, lhs: &str, rhs: &str) -> &mut Self {
        self.builder.pending.push((
            self.label.clone(),
            PendingInstr::Assign(lhs.into(), rhs.into()),
        ));
        self
    }

    /// Appends a `skip`.
    pub fn skip(&mut self) -> &mut Self {
        self.builder
            .pending
            .push((self.label.clone(), PendingInstr::Skip));
        self
    }

    /// Appends `out(vars...)`.
    pub fn out<'a>(&mut self, vars: impl IntoIterator<Item = &'a str>) -> &mut Self {
        self.builder.pending.push((
            self.label.clone(),
            PendingInstr::Out(vars.into_iter().map(str::to_owned).collect()),
        ));
        self
    }

    /// Appends a branch on condition syntax (`"x+z > y"`, `"p"`).
    pub fn branch_on(&mut self, cond: &str) -> &mut Self {
        self.builder
            .pending
            .push((self.label.clone(), PendingInstr::Branch(cond.into())));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::to_text;

    fn diamond() -> GraphBuilder {
        let mut b = GraphBuilder::new();
        b.node("s").branch_on("p > 0");
        b.node("l").assign("x", "a+b").out(["x"]);
        b.node("r").assign("x", "a+b");
        b.node("e").out(["x"]);
        b.edge("s", "l");
        b.edge("s", "r");
        b.edge("l", "e");
        b.edge("r", "e");
        b
    }

    #[test]
    fn builds_a_valid_diamond() {
        let g = diamond().build("s", "e").unwrap();
        assert_eq!(g.validate(), Ok(()));
        let text = to_text(&g);
        assert!(text.contains("branch p > 0"), "{text}");
        assert!(text.contains("x := a+b"), "{text}");
    }

    #[test]
    fn builder_matches_parser_output() {
        let built = diamond().build("s", "e").unwrap();
        let parsed = crate::text::parse(
            "start s\nend e\n\
             node s { branch p > 0 }\n\
             node l { x := a+b; out(x) }\n\
             node r { x := a+b }\n\
             node e { out(x) }\n\
             edge s -> l\nedge s -> r\nedge l -> e\nedge r -> e",
        )
        .unwrap();
        assert_eq!(to_text(&built), to_text(&parsed));
    }

    #[test]
    fn unknown_edge_endpoint_is_reported() {
        let mut b = GraphBuilder::new();
        b.node("s").skip();
        b.node("e").skip();
        b.edge("s", "ghost");
        let err = b.build("s", "e").unwrap_err();
        assert_eq!(err, BuildError::UnknownNode("ghost".into()));
    }

    #[test]
    fn bad_expression_is_reported() {
        let mut b = GraphBuilder::new();
        b.node("s").assign("x", "a + ");
        b.node("e").skip();
        b.edge("s", "e");
        let err = b.build("s", "e").unwrap_err();
        assert!(matches!(err, BuildError::Expr(_, _)), "{err}");
    }

    #[test]
    fn invalid_graph_is_reported() {
        let mut b = GraphBuilder::new();
        b.node("s").skip();
        b.node("e").skip();
        b.node("island").skip();
        b.edge("s", "e");
        let err = b.build("s", "e").unwrap_err();
        assert!(matches!(err, BuildError::Graph(_)), "{err}");
    }

    #[test]
    fn nested_expressions_are_rejected() {
        let mut b = GraphBuilder::new();
        b.node("s").assign("x", "a+b+c");
        b.node("e").skip();
        b.edge("s", "e");
        assert!(matches!(b.build("s", "e"), Err(BuildError::Expr(_, _))));
    }

    #[test]
    fn reopening_a_node_appends() {
        let mut b = GraphBuilder::new();
        b.node("s").assign("x", "1");
        b.node("s").assign("y", "2");
        b.node("e").out(["x", "y"]);
        b.edge("s", "e");
        let g = b.build("s", "e").unwrap();
        assert_eq!(g.block(g.start()).len(), 2);
    }
}
