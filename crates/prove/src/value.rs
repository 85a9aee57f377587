//! The hash-consed symbolic value domain.
//!
//! A [`ValId`] names one symbolic value in a [`ValueArena`]; structurally
//! equal values (after normalization) always receive the same id, so the
//! prover's "do these two programs compute the same thing?" question
//! reduces to `u32` equality. The smart constructor [`ValueArena::bin`]
//! performs GVN-style normalization — exact constant folding with the
//! interpreter's wrapping semantics, algebraic identities, and a canonical
//! argument order for commutative operators — which is what lets
//! `h := a+b; x := h` and `x := a+b` produce the *same* value for `x`.

use std::collections::HashMap;
use std::fmt::Write;

use am_ir::BinOp;

/// A hash-consed symbolic value: an index into a [`ValueArena`].
///
/// Ids are only meaningful relative to the arena that produced them.
/// Equal ids denote identical values on every input; distinct ids may
/// still coincide on some (or even all) inputs — the prover treats id
/// inequality as a *refutation candidate* to be confirmed dynamically,
/// never as proof of difference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ValId(u32);

impl ValId {
    /// The arena index of this value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of one symbolic value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValNode {
    /// The initial value of a joint variable at program entry (the input
    /// seeded by name, or 0 for unseeded variables — identical for both
    /// programs of a pair, which is why one symbol serves both sides).
    Init(u32),
    /// A compile-time constant.
    Const(i64),
    /// An uninterpreted application of a binary operator.
    Bin(BinOp, ValId, ValId),
    /// A widening symbol introduced at a control-flow join whose incoming
    /// values disagree. The payload is a serial number; the arena keys the
    /// symbol on `(state, variable, side)` so re-computing a join meet
    /// yields the same symbol and the fixpoint terminates.
    Widen(u32),
}

/// An arena of hash-consed, normalized symbolic values.
#[derive(Default)]
pub struct ValueArena {
    nodes: Vec<ValNode>,
    index: HashMap<ValNode, ValId>,
    widen_index: HashMap<(u64, u32, u8), ValId>,
}

/// Constant-folds `op` with the interpreter's exact wrapping semantics.
/// Returns `None` for division or remainder by zero (the trapping cases,
/// which must stay symbolic so the trap-candidate machinery sees them).
pub fn fold(op: BinOp, l: i64, r: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return None;
            }
            l.wrapping_div(r)
        }
        BinOp::Mod => {
            if r == 0 {
                return None;
            }
            l.wrapping_rem(r)
        }
        BinOp::Lt => i64::from(l < r),
        BinOp::Le => i64::from(l <= r),
        BinOp::Gt => i64::from(l > r),
        BinOp::Ge => i64::from(l >= r),
        BinOp::EqOp => i64::from(l == r),
        BinOp::Ne => i64::from(l != r),
    })
}

impl ValueArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ValueArena::default()
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `v`.
    pub fn node(&self, v: ValId) -> ValNode {
        self.nodes[v.index()]
    }

    /// Interns `node` verbatim (no normalization).
    pub fn intern(&mut self, node: ValNode) -> ValId {
        if let Some(&id) = self.index.get(&node) {
            return id;
        }
        let id = ValId(u32::try_from(self.nodes.len()).expect("value arena overflow"));
        self.nodes.push(node);
        self.index.insert(node, id);
        id
    }

    /// The initial-value symbol of joint variable `v`.
    pub fn init(&mut self, v: u32) -> ValId {
        self.intern(ValNode::Init(v))
    }

    /// The constant `c`.
    pub fn constant(&mut self, c: i64) -> ValId {
        self.intern(ValNode::Const(c))
    }

    /// The widening symbol for `(state, var, side)`. Repeated calls with
    /// the same key return the same symbol.
    pub fn widen(&mut self, state: u64, var: u32, side: u8) -> ValId {
        if let Some(&id) = self.widen_index.get(&(state, var, side)) {
            return id;
        }
        let serial = u32::try_from(self.widen_index.len()).expect("widen overflow");
        let id = self.intern(ValNode::Widen(serial));
        self.widen_index.insert((state, var, side), id);
        id
    }

    /// If `v` is a constant, its value.
    pub fn as_const(&self, v: ValId) -> Option<i64> {
        match self.node(v) {
            ValNode::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Builds (and normalizes) `op(l, r)`.
    ///
    /// All rewrites are exact under the interpreter's wrapping semantics
    /// for *every* i64 value of the symbolic arguments; the trapping
    /// `x/0` / `x%0` cases never fold (they stay symbolic `Bin` nodes so
    /// the caller's trap-candidate analysis can see the division). `x/x`
    /// and `x%x` fold because the value of a division is only observable
    /// on runs where it did not trap, i.e. where `x != 0`.
    pub fn bin(&mut self, op: BinOp, l: ValId, r: ValId) -> ValId {
        // Exact constant folding (except the trapping cases).
        if let (Some(a), Some(b)) = (self.as_const(l), self.as_const(r)) {
            if let Some(c) = fold(op, a, b) {
                return self.constant(c);
            }
        }
        let lc = self.as_const(l);
        let rc = self.as_const(r);
        match op {
            BinOp::Add => {
                if rc == Some(0) {
                    return l;
                }
                if lc == Some(0) {
                    return r;
                }
            }
            BinOp::Sub => {
                if rc == Some(0) {
                    return l;
                }
                if l == r {
                    return self.constant(0);
                }
            }
            BinOp::Mul => {
                if rc == Some(1) {
                    return l;
                }
                if lc == Some(1) {
                    return r;
                }
                if rc == Some(0) || lc == Some(0) {
                    return self.constant(0);
                }
            }
            BinOp::Div => {
                if rc == Some(1) {
                    return l;
                }
                if l == r && rc != Some(0) {
                    return self.constant(1);
                }
            }
            BinOp::Mod => {
                if rc == Some(1) {
                    return self.constant(0);
                }
                if l == r && rc != Some(0) {
                    return self.constant(0);
                }
            }
            BinOp::Lt | BinOp::Gt => {
                if l == r {
                    return self.constant(0);
                }
            }
            BinOp::Le | BinOp::Ge | BinOp::EqOp => {
                if l == r {
                    return self.constant(1);
                }
            }
            BinOp::Ne => {
                if l == r {
                    return self.constant(0);
                }
            }
        }
        // Canonical shapes: sort commutative arguments, mirror > / >= onto
        // < / <= so both spellings of a comparison meet in one node.
        let (op, l, r) = match op {
            BinOp::Add | BinOp::Mul | BinOp::EqOp | BinOp::Ne if r < l => (op, r, l),
            BinOp::Gt => (BinOp::Lt, r, l),
            BinOp::Ge => (BinOp::Le, r, l),
            _ => (op, l, r),
        };
        self.intern(ValNode::Bin(op, l, r))
    }

    /// Renders `v` for diagnostics as a fully parenthesized term, cut
    /// off with `...` once it reaches 1,024 bytes. Shared
    /// sub-values are written out at every use, so a chain of `x := x+x`
    /// doubles the full rendering per step; the walk is iterative and
    /// stops at the budget, so neither a doubling nor a deep chain costs
    /// more than the budget's worth of work or any stack.
    pub fn display(&self, v: ValId) -> String {
        enum Piece {
            Val(ValId),
            Op(BinOp),
            Close,
        }
        let mut out = String::new();
        let mut todo = vec![Piece::Val(v)];
        while let Some(piece) = todo.pop() {
            if out.len() >= DISPLAY_BUDGET {
                out.push_str("...");
                break;
            }
            // Every piece writes at least one byte, so the loop ends
            // within the budget.
            match piece {
                Piece::Val(v) => match self.node(v) {
                    ValNode::Init(x) => write!(out, "init#{x}"),
                    ValNode::Const(c) => write!(out, "{c}"),
                    ValNode::Widen(s) => write!(out, "join#{s}"),
                    ValNode::Bin(op, l, r) => {
                        out.push('(');
                        todo.extend([Piece::Close, Piece::Val(r), Piece::Op(op), Piece::Val(l)]);
                        Ok(())
                    }
                },
                Piece::Op(op) => write!(out, " {} ", op.symbol()),
                Piece::Close => write!(out, ")"),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// The length in bytes past which [`ValueArena::display`] elides the
/// rest of a value.
const DISPLAY_BUDGET: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_writes_nested_terms() {
        let mut a = ValueArena::new();
        let x = a.init(0);
        let one = a.constant(1);
        let x1 = a.bin(BinOp::Add, x, one);
        let doubled = a.bin(BinOp::Add, x1, x1);
        let j = a.widen(0, 0, 0);
        let cmp = a.bin(BinOp::Lt, doubled, j);
        assert_eq!(a.display(cmp), "(((init#0 + 1) + (init#0 + 1)) < join#0)");
        assert_eq!(a.display(one), "1");
    }

    #[test]
    fn display_of_a_doubling_chain_is_cut_at_the_budget() {
        // x := a+1, then 40 times x := x+x: the full rendering would take
        // about 2^40 * 16 bytes.
        let mut a = ValueArena::new();
        let init = a.init(0);
        let one = a.constant(1);
        let mut x = a.bin(BinOp::Add, init, one);
        for _ in 0..40 {
            x = a.bin(BinOp::Add, x, x);
        }
        let text = a.display(x);
        assert!(text.ends_with("..."), "{text}");
        assert!(text.len() <= DISPLAY_BUDGET + 16, "{} bytes", text.len());
        assert!(text.starts_with("((((((((((((("), "{text}");
    }

    #[test]
    fn display_of_a_deep_chain_needs_no_stack() {
        // 100,000 times x := x+1: one recursion level per step would
        // overflow the stack.
        let mut a = ValueArena::new();
        let mut x = a.init(0);
        let one = a.constant(1);
        for _ in 0..100_000 {
            x = a.bin(BinOp::Add, x, one);
        }
        let text = a.display(x);
        assert!(text.ends_with("..."), "{text}");
        assert!(text.len() <= DISPLAY_BUDGET + 16, "{} bytes", text.len());
    }

    #[test]
    fn hash_consing_is_stable() {
        let mut a = ValueArena::new();
        let x = a.init(0);
        let y = a.init(1);
        let s1 = a.bin(BinOp::Add, x, y);
        let s2 = a.bin(BinOp::Add, x, y);
        assert_eq!(s1, s2);
        assert_eq!(a.init(0), x);
    }

    #[test]
    fn commutative_arguments_are_sorted() {
        let mut a = ValueArena::new();
        let x = a.init(0);
        let y = a.init(1);
        assert_eq!(a.bin(BinOp::Add, x, y), a.bin(BinOp::Add, y, x));
        assert_eq!(a.bin(BinOp::Mul, x, y), a.bin(BinOp::Mul, y, x));
        // Non-commutative operators keep their order.
        assert_ne!(a.bin(BinOp::Sub, x, y), a.bin(BinOp::Sub, y, x));
    }

    #[test]
    fn comparisons_mirror_onto_lt_le() {
        let mut a = ValueArena::new();
        let x = a.init(0);
        let y = a.init(1);
        assert_eq!(a.bin(BinOp::Gt, x, y), a.bin(BinOp::Lt, y, x));
        assert_eq!(a.bin(BinOp::Ge, x, y), a.bin(BinOp::Le, y, x));
    }

    #[test]
    fn constants_fold_with_wrapping_semantics() {
        let mut a = ValueArena::new();
        let big = a.constant(i64::MAX);
        let one = a.constant(1);
        let wrapped = a.bin(BinOp::Add, big, one);
        assert_eq!(a.as_const(wrapped), Some(i64::MIN));
        let six = a.constant(6);
        let three = a.constant(3);
        let quot = a.bin(BinOp::Div, six, three);
        assert_eq!(a.as_const(quot), Some(2));
        // Division by a constant zero must *not* fold — it traps.
        let zero = a.constant(0);
        let d = a.bin(BinOp::Div, six, zero);
        assert!(matches!(a.node(d), ValNode::Bin(BinOp::Div, _, _)));
    }

    #[test]
    fn algebraic_identities() {
        let mut a = ValueArena::new();
        let x = a.init(0);
        let zero = a.constant(0);
        let one = a.constant(1);
        assert_eq!(a.bin(BinOp::Add, x, zero), x);
        assert_eq!(a.bin(BinOp::Sub, x, zero), x);
        assert_eq!(a.bin(BinOp::Sub, x, x), zero);
        assert_eq!(a.bin(BinOp::Mul, x, one), x);
        assert_eq!(a.bin(BinOp::Mul, zero, x), zero);
        assert_eq!(a.bin(BinOp::Div, x, one), x);
        assert_eq!(a.bin(BinOp::Mod, x, one), zero);
        assert_eq!(a.bin(BinOp::EqOp, x, x), one);
        assert_eq!(a.bin(BinOp::Lt, x, x), zero);
    }

    #[test]
    fn widen_symbols_are_keyed() {
        let mut a = ValueArena::new();
        let w1 = a.widen(7, 3, 0);
        let w2 = a.widen(7, 3, 0);
        let w3 = a.widen(7, 3, 1);
        assert_eq!(w1, w2);
        assert_ne!(w1, w3);
    }
}
