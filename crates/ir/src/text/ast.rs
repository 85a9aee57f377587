use crate::term::{BinOp, Operand, Term};

/// Index of a node in an [`ExprArena`].
pub(crate) type ExprId = u32;

/// One node of a surface expression: arbitrarily nested, as written in
/// source text. Children are arena indices.
#[derive(Clone, Copy)]
pub(crate) enum Node {
    /// A variable or constant leaf.
    Leaf(Operand),
    /// `lhs op rhs`.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left subexpression.
        lhs: ExprId,
        /// Right subexpression.
        rhs: ExprId,
    },
}

/// The node buffer the expression parser writes into, reused across
/// statements: parsing a statement clears it, so after the first few
/// statements no expression allocates. Nodes are pushed children first.
///
/// The core IR only admits 3-address terms; [`ExprArena::as_term`]
/// distinguishes expressions that fit directly from those needing the
/// Sec. 6 decomposition.
#[derive(Default)]
pub(crate) struct ExprArena {
    nodes: Vec<Node>,
}

impl ExprArena {
    /// Forgets every node, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Appends `node`, returning its index.
    pub(crate) fn push(&mut self, node: Node) -> ExprId {
        let id = ExprId::try_from(self.nodes.len()).expect("expression arena index fits u32");
        self.nodes.push(node);
        id
    }

    /// The node at `id`.
    pub(crate) fn node(&self, id: ExprId) -> Node {
        self.nodes[id as usize]
    }

    /// Converts the expression rooted at `id` to a 3-address [`Term`] if
    /// it is shallow enough.
    pub(crate) fn as_term(&self, id: ExprId) -> Option<Term> {
        match self.node(id) {
            Node::Leaf(o) => Some(Term::Operand(o)),
            Node::Binary { op, lhs, rhs } => match (self.node(lhs), self.node(rhs)) {
                (Node::Leaf(lhs), Node::Leaf(rhs)) => Some(Term::Binary { op, lhs, rhs }),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::VarPool;

    #[test]
    fn as_term_accepts_three_address_shapes() {
        let mut pool = VarPool::new();
        let mut arena = ExprArena::default();
        let [a, b, c] = ["a", "b", "c"].map(|n| Operand::Var(pool.intern(n)));
        let la = arena.push(Node::Leaf(a));
        assert_eq!(arena.as_term(la), Some(Term::Operand(a)));
        let lb = arena.push(Node::Leaf(b));
        let ab = arena.push(Node::Binary {
            op: BinOp::Add,
            lhs: la,
            rhs: lb,
        });
        assert_eq!(
            arena.as_term(ab),
            Some(Term::Binary {
                op: BinOp::Add,
                lhs: a,
                rhs: b
            })
        );
        let lc = arena.push(Node::Leaf(c));
        let abc = arena.push(Node::Binary {
            op: BinOp::Add,
            lhs: ab,
            rhs: lc,
        });
        assert_eq!(arena.as_term(abc), None);
        arena.clear();
        assert_eq!(
            arena.push(Node::Leaf(c)),
            0,
            "a cleared arena restarts at 0"
        );
    }

    #[test]
    fn decompose_emits_in_evaluation_order() {
        // (a+b)*(c-d) + e  =>  t1 := a+b; t2 := c-d; t3 := t1*t2; x := t3+e
        let src = "start s\nend e\nnode s { x := (a+b)*(c-d) + e }\nnode e { out(x) }\nedge s -> e";
        let g = crate::text::parse_with_mode(src, crate::text::Mode::Decompose).unwrap();
        let text: Vec<String> = g.instrs(g.start()).map(|i| i.display(g.pool())).collect();
        assert_eq!(text, ["t1 := a+b", "t2 := c-d", "t3 := t1*t2", "x := t3+e"]);
    }
}
