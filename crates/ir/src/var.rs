use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned program variable.
///
/// A `Var` is an index into the [`VarPool`] of the flow graph it belongs to.
/// Two `Var`s from the same pool are the same variable exactly when they are
/// equal. Temporaries introduced by the optimizer (the `h_ε` variables of the
/// paper) are ordinary variables flagged as temporaries in the pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The pool index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The variable table of a flow graph: names, and which variables are
/// optimizer-introduced temporaries.
///
/// Each name is stored once: the table and the name index share one
/// `Arc<str>`, so interning a new name makes one allocation.
///
/// # Examples
///
/// ```
/// use am_ir::VarPool;
///
/// let mut pool = VarPool::new();
/// let x = pool.intern("x");
/// assert_eq!(pool.intern("x"), x);
/// assert_eq!(pool.name(x), "x");
/// assert!(!pool.is_temp(x));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarPool {
    names: Vec<Arc<str>>,
    temps: Vec<bool>,
    index: HashMap<Arc<str>, Var>,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        VarPool::default()
    }

    /// Interns `name` as a (non-temporary) variable, returning the existing
    /// variable if the name is already known.
    pub fn intern(&mut self, name: &str) -> Var {
        if let Some(&v) = self.index.get(name) {
            return v;
        }
        self.push(name, false)
    }

    /// Interns `name` as a temporary variable.
    ///
    /// Temporaries are the `h_ε` variables of the paper: each expression
    /// pattern ε owns a unique temporary, identified by a canonical name
    /// derived from ε. If the name already exists its temporary flag is
    /// retained.
    pub fn intern_temp(&mut self, name: &str) -> Var {
        if let Some(&v) = self.index.get(name) {
            return v;
        }
        self.push(name, true)
    }

    fn push(&mut self, name: &str, temp: bool) -> Var {
        let v = Var(u32::try_from(self.names.len()).expect("too many variables"));
        let name: Arc<str> = Arc::from(name);
        self.index.insert(Arc::clone(&name), v);
        self.names.push(name);
        self.temps.push(temp);
        v
    }

    /// The source name of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this pool.
    pub fn name(&self, v: Var) -> &str {
        &self.names[v.index()]
    }

    /// Whether `v` is an optimizer-introduced temporary.
    pub fn is_temp(&self, v: Var) -> bool {
        self.temps[v.index()]
    }

    /// Looks up a variable by name without interning.
    pub fn lookup(&self, name: &str) -> Option<Var> {
        self.index.get(name).copied()
    }

    /// Number of variables in the pool.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` when the pool holds no variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over every variable in the pool.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut pool = VarPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        assert_ne!(a, b);
        assert_eq!(pool.intern("a"), a);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn temp_flag_is_tracked() {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let h = pool.intern_temp("h<a+b>");
        assert!(!pool.is_temp(x));
        assert!(pool.is_temp(h));
        // Re-interning an existing temp keeps the flag.
        assert_eq!(pool.intern_temp("h<a+b>"), h);
        assert!(pool.is_temp(h));
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut pool = VarPool::new();
        assert_eq!(pool.lookup("x"), None);
        let x = pool.intern("x");
        assert_eq!(pool.lookup("x"), Some(x));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn iter_yields_all_vars_in_order() {
        let mut pool = VarPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        assert_eq!(pool.iter().collect::<Vec<_>>(), vec![a, b]);
    }
}
