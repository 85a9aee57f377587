use crate::term::{BinOp, Operand, Term};
use crate::text;
use crate::var::{Var, VarPool};

/// A branch condition: a relational operator applied to two 3-address terms.
///
/// The paper's programs contain conditions such as `x+z > y+i?` (Fig. 4):
/// one top-level comparison whose sides may each be a non-trivial term. The
/// side terms are ordinary expression patterns and participate in motion;
/// the top-level comparison itself is control and never moves.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Cond {
    /// The top-level comparison operator.
    pub op: BinOp,
    /// Left side term.
    pub lhs: Term,
    /// Right side term.
    pub rhs: Term,
}

impl Cond {
    /// Builds a comparison condition.
    pub fn new(op: BinOp, lhs: impl Into<Term>, rhs: impl Into<Term>) -> Self {
        Cond {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }
    }

    /// The condition "`v` is true", encoded as `v != 0`.
    pub fn truthy(v: Var) -> Self {
        Cond::new(BinOp::Ne, v, 0)
    }

    /// Calls `f` on every variable used by the condition.
    pub fn for_each_var(self, mut f: impl FnMut(Var)) {
        self.lhs.for_each_var(&mut f);
        self.rhs.for_each_var(&mut f);
    }

    /// Calls `f` on each non-trivial side term (each expression pattern
    /// occurrence inside the condition).
    pub fn for_each_subterm(self, mut f: impl FnMut(Term)) {
        if self.lhs.is_nontrivial() {
            f(self.lhs);
        }
        if self.rhs.is_nontrivial() {
            f(self.rhs);
        }
    }

    /// Renders the condition with names from `pool`.
    pub fn display(self, pool: &VarPool) -> String {
        let mut out = String::new();
        text::write_cond(&mut out, self, &mut text::source_names(pool)).expect(text::INFALLIBLE);
        out
    }
}

/// One instruction of a basic block.
///
/// Instructions follow Sec. 2 of the paper: assignments (including the empty
/// statement `skip`), write statements `out(...)`, and Boolean branch
/// conditions (only as the final instruction of a node with several
/// successors).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// The empty statement. Assignments of the form `x := x` are identified
    /// with `skip` (Sec. 2 footnote).
    Skip,
    /// `lhs := rhs`.
    Assign {
        /// Assigned variable.
        lhs: Var,
        /// 3-address right-hand side.
        rhs: Term,
    },
    /// `out(o_1, ..., o_k)` — observable output.
    Out(Vec<Operand>),
    /// A branch condition guarding a multi-successor node.
    Branch(Cond),
}

impl Instr {
    /// Builds an assignment, normalizing `x := x` to `skip`.
    pub fn assign(lhs: Var, rhs: impl Into<Term>) -> Instr {
        let rhs = rhs.into();
        if rhs == Term::Operand(Operand::Var(lhs)) {
            Instr::Skip
        } else {
            Instr::Assign { lhs, rhs }
        }
    }

    /// The variable this instruction modifies, if any.
    pub fn def(&self) -> Option<Var> {
        match self {
            Instr::Assign { lhs, .. } => Some(*lhs),
            _ => None,
        }
    }

    /// Calls `f` on every variable the instruction uses (reads).
    pub fn for_each_use(&self, mut f: impl FnMut(Var)) {
        match self {
            Instr::Skip => {}
            Instr::Assign { rhs, .. } => rhs.for_each_var(f),
            Instr::Out(ops) => {
                for o in ops {
                    if let Some(v) = o.as_var() {
                        f(v);
                    }
                }
            }
            Instr::Branch(c) => c.for_each_var(f),
        }
    }

    /// Whether the instruction uses (reads) `v`.
    pub fn uses(&self, v: Var) -> bool {
        let mut found = false;
        self.for_each_use(|u| found |= u == v);
        found
    }

    /// Whether the instruction modifies `v`.
    pub fn modifies(&self, v: Var) -> bool {
        self.def() == Some(v)
    }

    /// Calls `f` on each non-trivial term occurrence in the instruction:
    /// a binary assignment right-hand side, or a binary side of a branch
    /// condition. These are exactly the expression pattern occurrences.
    pub fn for_each_expr_occurrence(&self, mut f: impl FnMut(Term)) {
        match self {
            Instr::Assign { rhs, .. } if rhs.is_nontrivial() => f(*rhs),
            Instr::Branch(c) => c.for_each_subterm(f),
            _ => {}
        }
    }

    /// Renders the instruction with names from `pool`.
    pub fn display(&self, pool: &VarPool) -> String {
        let mut out = String::new();
        text::write_instr(&mut out, self, &mut text::source_names(pool)).expect(text::INFALLIBLE);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool3() -> (VarPool, Var, Var, Var) {
        let mut p = VarPool::new();
        let x = p.intern("x");
        let y = p.intern("y");
        let z = p.intern("z");
        (p, x, y, z)
    }

    #[test]
    fn self_assignment_is_skip() {
        let (_, x, _, _) = pool3();
        assert_eq!(Instr::assign(x, x), Instr::Skip);
        assert!(matches!(Instr::assign(x, 3), Instr::Assign { .. }));
    }

    #[test]
    fn def_and_uses() {
        let (_, x, y, z) = pool3();
        let i = Instr::assign(x, Term::binary(BinOp::Add, y, z));
        assert_eq!(i.def(), Some(x));
        assert!(i.uses(y));
        assert!(i.uses(z));
        assert!(!i.uses(x));
        assert!(i.modifies(x));
        assert!(!i.modifies(y));
    }

    #[test]
    fn out_uses_vars() {
        let (_, x, y, _) = pool3();
        let i = Instr::Out(vec![x.into(), Operand::Const(1), y.into()]);
        assert!(i.uses(x) && i.uses(y));
        assert_eq!(i.def(), None);
    }

    #[test]
    fn branch_uses_all_condition_vars() {
        let (_, x, y, z) = pool3();
        let c = Cond::new(BinOp::Gt, Term::binary(BinOp::Add, x, z), Term::operand(y));
        let i = Instr::Branch(c);
        assert!(i.uses(x) && i.uses(y) && i.uses(z));
        let mut subterms = Vec::new();
        i.for_each_expr_occurrence(|t| subterms.push(t));
        assert_eq!(subterms, vec![Term::binary(BinOp::Add, x, z)]);
    }

    #[test]
    fn expr_occurrences_of_assign() {
        let (_, x, y, z) = pool3();
        let mut ts = Vec::new();
        Instr::assign(x, Term::binary(BinOp::Mul, y, z)).for_each_expr_occurrence(|t| ts.push(t));
        assert_eq!(ts.len(), 1);
        ts.clear();
        Instr::assign(x, y).for_each_expr_occurrence(|t| ts.push(t));
        assert!(ts.is_empty());
    }

    #[test]
    fn display_forms() {
        let (p, x, y, z) = pool3();
        assert_eq!(Instr::Skip.display(&p), "skip");
        assert_eq!(
            Instr::assign(x, Term::binary(BinOp::Add, y, z)).display(&p),
            "x := y+z"
        );
        assert_eq!(Instr::Out(vec![x.into(), y.into()]).display(&p), "out(x,y)");
        let c = Cond::new(BinOp::Gt, Term::binary(BinOp::Add, x, z), Term::operand(y));
        assert_eq!(Instr::Branch(c).display(&p), "branch x+z > y");
    }

    #[test]
    fn truthy_condition() {
        let (p, x, _, _) = pool3();
        assert_eq!(Cond::truthy(x).display(&p), "x != 0");
    }
}
