use std::fmt;

use crate::text;
use crate::var::{Var, VarPool};

/// An atomic operand: a variable or an integer constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A program variable.
    Var(Var),
    /// An integer literal.
    Const(i64),
}

impl Operand {
    /// The variable inside this operand, if any.
    pub fn as_var(self) -> Option<Var> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }
}

impl From<Var> for Operand {
    fn from(v: Var) -> Self {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Self {
        Operand::Const(c)
    }
}

/// Binary operators of the term language.
///
/// Arithmetic operators wrap on overflow; relational operators yield `0`/`1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*`.
    Mul,
    /// Division `/` (traps on zero).
    Div,
    /// Remainder `%` (traps on zero).
    Mod,
    /// Less-than `<`.
    Lt,
    /// Less-or-equal `<=`.
    Le,
    /// Greater-than `>`.
    Gt,
    /// Greater-or-equal `>=`.
    Ge,
    /// Equality `==` (named to avoid clashing with `Eq`).
    EqOp,
    /// Inequality `!=`.
    Ne,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::EqOp => "==",
            BinOp::Ne => "!=",
        }
    }

    /// Whether the operator is relational (yields a truth value).
    pub fn is_relational(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::EqOp | BinOp::Ne
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A 3-address term: an operand, or a single operator applied to two
/// operands.
///
/// Following Sec. 2 of the paper, right-hand sides contain *at most one*
/// operator symbol; the [frontend](crate::text) decomposes nested
/// expressions into sequences of such terms (Sec. 6). A term with an
/// operator is *non-trivial* and constitutes an expression pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A trivial term: a bare operand (`x := y`, `x := 5`).
    Operand(Operand),
    /// A non-trivial term with exactly one operator (`x := a + b`).
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
}

impl Term {
    /// Builds a binary term.
    pub fn binary(op: BinOp, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Self {
        Term::Binary {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// Builds a trivial term from an operand.
    pub fn operand(o: impl Into<Operand>) -> Self {
        Term::Operand(o.into())
    }

    /// Whether the term contains an operator (is an expression pattern).
    pub fn is_nontrivial(self) -> bool {
        matches!(self, Term::Binary { .. })
    }

    /// Calls `f` on every variable occurring in the term.
    pub fn for_each_var(self, mut f: impl FnMut(Var)) {
        match self {
            Term::Operand(o) => {
                if let Some(v) = o.as_var() {
                    f(v);
                }
            }
            Term::Binary { lhs, rhs, .. } => {
                if let Some(v) = lhs.as_var() {
                    f(v);
                }
                if let Some(v) = rhs.as_var() {
                    f(v);
                }
            }
        }
    }

    /// Whether `v` occurs in the term.
    pub fn mentions(self, v: Var) -> bool {
        let mut found = false;
        self.for_each_var(|u| found |= u == v);
        found
    }

    /// Rewrites every variable through `f`.
    pub fn map_vars(self, mut f: impl FnMut(Var) -> Var) -> Term {
        let map_op = |o: Operand, f: &mut dyn FnMut(Var) -> Var| match o {
            Operand::Var(v) => Operand::Var(f(v)),
            c => c,
        };
        match self {
            Term::Operand(o) => Term::Operand(map_op(o, &mut f)),
            Term::Binary { op, lhs, rhs } => Term::Binary {
                op,
                lhs: map_op(lhs, &mut f),
                rhs: map_op(rhs, &mut f),
            },
        }
    }

    /// Renders the term with variable names from `pool`.
    pub fn display(self, pool: &VarPool) -> String {
        let mut out = String::new();
        text::write_term(&mut out, self, &mut text::source_names(pool)).expect(text::INFALLIBLE);
        out
    }
}

impl From<Operand> for Term {
    fn from(o: Operand) -> Self {
        Term::Operand(o)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Operand(Operand::Var(v))
    }
}

impl From<i64> for Term {
    fn from(c: i64) -> Self {
        Term::Operand(Operand::Const(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_xy() -> (VarPool, Var, Var) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    #[test]
    fn nontriviality() {
        let (_, x, y) = pool_xy();
        assert!(!Term::operand(x).is_nontrivial());
        assert!(!Term::from(3).is_nontrivial());
        assert!(Term::binary(BinOp::Add, x, y).is_nontrivial());
    }

    #[test]
    fn mentions_finds_both_sides() {
        let (_, x, y) = pool_xy();
        let t = Term::binary(BinOp::Mul, x, y);
        assert!(t.mentions(x));
        assert!(t.mentions(y));
        let t2 = Term::binary(BinOp::Mul, x, 3);
        assert!(!t2.mentions(y));
    }

    #[test]
    fn display_uses_names() {
        let (pool, x, y) = pool_xy();
        assert_eq!(Term::binary(BinOp::Add, x, y).display(&pool), "x+y");
        assert_eq!(Term::binary(BinOp::Le, x, 5).display(&pool), "x<=5");
        assert_eq!(Term::operand(y).display(&pool), "y");
        assert_eq!(Term::from(-2).display(&pool), "-2");
    }

    #[test]
    fn map_vars_rewrites() {
        let (mut pool, x, y) = pool_xy();
        let z = pool.intern("z");
        let t = Term::binary(BinOp::Sub, x, y);
        let t2 = t.map_vars(|v| if v == x { z } else { v });
        assert_eq!(t2, Term::binary(BinOp::Sub, z, y));
    }

    #[test]
    fn relational_classification() {
        assert!(BinOp::Lt.is_relational());
        assert!(BinOp::EqOp.is_relational());
        assert!(!BinOp::Add.is_relational());
        assert!(!BinOp::Mod.is_relational());
    }
}
