//! Lowering from the while-language AST to `am-ir` flow graphs.
//!
//! Nested expressions are decomposed into 3-address form using fresh `_tN`
//! variables (the canonical decomposition of Sec. 6); control constructs
//! become the standard flow-graph shapes. Branch nodes carry the condition
//! as a [`am_ir::Instr::Branch`] with successor 0 the true edge.

use std::collections::HashSet;

use am_ir::{BinOp, Cond, FlowGraph, Instr, NodeId, Operand, Term, Var};

use crate::ast::{LExpr, Program, Stmt};

struct Lowerer {
    g: FlowGraph,
    fresh_counter: usize,
    taken: HashSet<String>,
    node_counter: usize,
}

impl Lowerer {
    fn fresh_var(&mut self) -> Var {
        loop {
            self.fresh_counter += 1;
            let name = format!("_t{}", self.fresh_counter);
            if !self.taken.contains(&name) {
                return self.g.pool_mut().intern(&name);
            }
        }
    }

    fn fresh_node(&mut self, hint: &str) -> NodeId {
        self.node_counter += 1;
        let label = format!("{hint}{}", self.node_counter);
        self.g.add_node(&label)
    }

    /// Lowers `e` to an operand, appending decomposition assignments.
    fn operand(&mut self, e: &LExpr, instrs: &mut Vec<Instr>) -> Operand {
        match e {
            LExpr::Var(name) => Operand::Var(self.g.pool_mut().intern(name)),
            LExpr::Const(c) => Operand::Const(*c),
            LExpr::Binary { .. } => {
                let term = self.term(e, instrs);
                let v = self.fresh_var();
                instrs.push(Instr::Assign { lhs: v, rhs: term });
                Operand::Var(v)
            }
        }
    }

    /// Lowers `e` to a 3-address term, appending decomposition assignments
    /// for deeper sub-expressions.
    fn term(&mut self, e: &LExpr, instrs: &mut Vec<Instr>) -> Term {
        match e {
            LExpr::Var(_) | LExpr::Const(_) => Term::Operand(self.operand(e, instrs)),
            LExpr::Binary { op, lhs, rhs } => {
                let l = self.operand(lhs, instrs);
                let r = self.operand(rhs, instrs);
                Term::Binary {
                    op: *op,
                    lhs: l,
                    rhs: r,
                }
            }
        }
    }

    /// Lowers a condition: a relational top-level operator keeps both sides
    /// as terms; anything else becomes `e != 0`.
    fn cond(&mut self, e: &LExpr, instrs: &mut Vec<Instr>) -> Cond {
        match e {
            LExpr::Binary { op, lhs, rhs } if op.is_relational() => {
                let l = self.term(lhs, instrs);
                let r = self.term(rhs, instrs);
                Cond {
                    op: *op,
                    lhs: l,
                    rhs: r,
                }
            }
            other => {
                let t = self.term(other, instrs);
                Cond {
                    op: BinOp::Ne,
                    lhs: t,
                    rhs: Term::from(0),
                }
            }
        }
    }

    /// Lowers a statement sequence starting in `cur`; returns the node
    /// where control continues.
    /// Appends `instrs` to block `n`.
    fn emit(&mut self, n: NodeId, instrs: Vec<Instr>) {
        for instr in instrs {
            self.g.push_instr(n, instr);
        }
    }

    fn seq(&mut self, stmts: &[Stmt], mut cur: NodeId) -> NodeId {
        for stmt in stmts {
            cur = self.stmt(stmt, cur);
        }
        cur
    }

    fn stmt(&mut self, stmt: &Stmt, cur: NodeId) -> NodeId {
        match stmt {
            Stmt::Skip => {
                self.g.push_instr(cur, Instr::Skip);
                cur
            }
            Stmt::Assign { lhs, rhs } => {
                let mut instrs = Vec::new();
                let term = self.term(rhs, &mut instrs);
                let lhs = self.g.pool_mut().intern(lhs);
                instrs.push(Instr::assign(lhs, term));
                self.emit(cur, instrs);
                cur
            }
            Stmt::Print(args) => {
                let mut instrs = Vec::new();
                let ops: Vec<Operand> = args.iter().map(|a| self.operand(a, &mut instrs)).collect();
                instrs.push(Instr::Out(ops));
                self.emit(cur, instrs);
                cur
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond_node = self.fresh_node("if");
                self.g.add_edge(cur, cond_node);
                let mut instrs = Vec::new();
                let c = self.cond(cond, &mut instrs);
                instrs.push(Instr::Branch(c));
                self.emit(cond_node, instrs);
                let then_entry = self.fresh_node("then");
                let else_entry = self.fresh_node("else");
                self.g.add_edge(cond_node, then_entry);
                self.g.add_edge(cond_node, else_entry);
                let then_exit = self.seq(then_body, then_entry);
                let else_exit = self.seq(else_body, else_entry);
                let join = self.fresh_node("join");
                self.g.add_edge(then_exit, join);
                self.g.add_edge(else_exit, join);
                join
            }
            Stmt::While { cond, body } => {
                let header = self.fresh_node("while");
                self.g.add_edge(cur, header);
                let mut instrs = Vec::new();
                let c = self.cond(cond, &mut instrs);
                instrs.push(Instr::Branch(c));
                self.emit(header, instrs);
                let body_entry = self.fresh_node("body");
                let exit = self.fresh_node("endwhile");
                self.g.add_edge(header, body_entry);
                self.g.add_edge(header, exit);
                let body_exit = self.seq(body, body_entry);
                self.g.add_edge(body_exit, header);
                exit
            }
            Stmt::DoWhile { body, cond } => {
                let body_entry = self.fresh_node("dobody");
                self.g.add_edge(cur, body_entry);
                let body_exit = self.seq(body, body_entry);
                let check = self.fresh_node("docheck");
                self.g.add_edge(body_exit, check);
                let mut instrs = Vec::new();
                let c = self.cond(cond, &mut instrs);
                instrs.push(Instr::Branch(c));
                self.emit(check, instrs);
                let exit = self.fresh_node("enddo");
                self.g.add_edge(check, body_entry);
                self.g.add_edge(check, exit);
                exit
            }
        }
    }
}

fn source_names(stmts: &[Stmt], out: &mut HashSet<String>) {
    fn expr_names(e: &LExpr, out: &mut HashSet<String>) {
        match e {
            LExpr::Var(n) => {
                out.insert(n.clone());
            }
            LExpr::Const(_) => {}
            LExpr::Binary { lhs, rhs, .. } => {
                expr_names(lhs, out);
                expr_names(rhs, out);
            }
        }
    }
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                out.insert(lhs.clone());
                expr_names(rhs, out);
            }
            Stmt::Skip => {}
            Stmt::Print(args) => args.iter().for_each(|a| expr_names(a, out)),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                expr_names(cond, out);
                source_names(then_body, out);
                source_names(else_body, out);
            }
            Stmt::While { cond, body } | Stmt::DoWhile { cond, body } => {
                expr_names(cond, out);
                source_names(body, out);
            }
        }
    }
}

/// Lowers a while-language program to a flow graph.
///
/// The graph starts at an `entry` node and ends at an `exit` node; it is
/// valid by construction (asserted in debug builds). Critical edges are
/// *not* split; the optimizer entry points do that themselves.
pub fn lower(program: &Program) -> FlowGraph {
    let mut taken = HashSet::new();
    source_names(&program.body, &mut taken);
    let mut lowerer = Lowerer {
        g: FlowGraph::new(),
        fresh_counter: 0,
        taken,
        node_counter: 0,
    };
    let entry = lowerer.g.add_node("entry");
    lowerer.g.set_start(entry);
    let last = lowerer.seq(&program.body, entry);
    let exit = lowerer.fresh_node("exit");
    lowerer.g.add_edge(last, exit);
    lowerer.g.set_end(exit);
    debug_assert_eq!(lowerer.g.validate(), Ok(()));
    lowerer.g
}

/// Convenience: parse and lower in one step.
///
/// # Errors
///
/// Returns the parse error, if any; lowering itself cannot fail.
pub fn compile(src: &str) -> Result<FlowGraph, crate::parse::LangError> {
    Ok(lower(&crate::parse::parse_program(src)?))
}
