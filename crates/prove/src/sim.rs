//! Symbolic segment simulation between cutpoints.
//!
//! A *cutpoint* is a decision-consumption point of the interpreter: the
//! execution of a `branch` instruction, or the end of a multi-successor
//! block without a preceding `branch`. Under a fixed oracle both programs
//! of a pair consume decisions at the same indices, so segments between
//! cutpoints are the natural alignment unit for translation validation —
//! exactly the alignment `am-check`'s corresponding runs use.
//!
//! [`run_segment`] mirrors `am_ir::interp::run` instruction for
//! instruction (trailing instructions after a `branch` execute before the
//! transfer, the end node breaks after its block completes, node entries
//! are budgeted) but over symbolic stores of [`ValId`]s instead of
//! concrete integers.

use std::collections::HashSet;

use am_ir::{BinOp, FlowGraph, Instr, Loc, NodeId, Operand, Term, Var, VarPool};

use crate::value::{ValId, ValueArena};

/// The joint variable space of a program pair.
///
/// Variables are matched *by name* — the interpreter seeds inputs by name
/// and unseeded variables read 0, so two same-named variables of the two
/// programs always start with identical values and may share one
/// [`ValNode::Init`](crate::value::ValNode) symbol.
pub struct JointVars {
    names: Vec<String>,
    temps: Vec<bool>,
    map_a: Vec<u32>,
    map_b: Vec<u32>,
}

impl JointVars {
    /// Builds the joint space from the two variable pools.
    pub fn build(a: &VarPool, b: &VarPool) -> JointVars {
        let mut joint = JointVars {
            names: Vec::new(),
            temps: Vec::new(),
            map_a: Vec::new(),
            map_b: Vec::new(),
        };
        let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        for (pool, map) in [(a, 0usize), (b, 1usize)] {
            let target = if map == 0 {
                &mut joint.map_a
            } else {
                &mut joint.map_b
            };
            for v in pool.iter() {
                let name = pool.name(v);
                let id = match index.get(name) {
                    Some(&id) => id,
                    None => {
                        let id = joint.names.len() as u32;
                        joint.names.push(name.to_owned());
                        joint.temps.push(pool.is_temp(v));
                        index.insert(name.to_owned(), id);
                        id
                    }
                };
                target.push(id);
            }
        }
        joint
    }

    /// Number of joint variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the joint space is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of joint variable `v`.
    pub fn name(&self, v: u32) -> &str {
        &self.names[v as usize]
    }

    /// Whether joint variable `v` is an optimizer temporary.
    pub fn is_temp(&self, v: u32) -> bool {
        self.temps[v as usize]
    }

    /// Maps an A-side variable to its joint id.
    pub fn joint_a(&self, v: Var) -> u32 {
        self.map_a[v.index()]
    }

    /// Maps a B-side variable to its joint id.
    pub fn joint_b(&self, v: Var) -> u32 {
        self.map_b[v.index()]
    }

    /// The initial symbolic store: every joint variable maps to its own
    /// `Init` symbol.
    pub fn initial_store(&self, arena: &mut ValueArena) -> Vec<ValId> {
        (0..self.len() as u32).map(|v| arena.init(v)).collect()
    }
}

/// Which side of the pair a segment belongs to (selects the joint map).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// The "before" program.
    A,
    /// The "after" program.
    B,
}

/// A paused position of one side: the cutpoint at which the next oracle
/// decision will be consumed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SideKey {
    /// Paused at a `branch` instruction, after its condition sides were
    /// evaluated and before the decision is consumed. Resuming applies
    /// `taken = d % fanout` and continues at `index + 1`.
    AtBranch {
        /// The node holding the branch.
        node: NodeId,
        /// Instruction index of the branch within the node.
        index: usize,
    },
    /// Paused at the end of a multi-successor block that executed no
    /// `branch`. Resuming enters `succs[d % fanout]` directly.
    AtBlockEnd {
        /// The finished node.
        node: NodeId,
    },
}

impl SideKey {
    /// The decision fanout at this cutpoint.
    pub fn fanout(self, g: &FlowGraph) -> usize {
        match self {
            SideKey::AtBranch { node, .. } | SideKey::AtBlockEnd { node } => g.succs(node).len(),
        }
    }
}

/// How a segment ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SegEnd {
    /// Reached the next cutpoint; the side is paused here.
    Pause(SideKey),
    /// The end node (or a successor-less node) finished: the run is over.
    End,
    /// A *definite* trap: a division or remainder whose divisor is the
    /// constant 0. Every concrete run reaching this point traps.
    Trap,
    /// The symbolic execution cannot continue (e.g. a decision-free cycle
    /// exceeded the node budget, or a branch in a successor-less node).
    /// Always escalates to an Inconclusive verdict.
    Stuck(&'static str),
}

/// The result of simulating one segment of one side.
pub struct SegRun {
    /// How the segment ended.
    pub end: SegEnd,
    /// Values emitted by each executed `out(...)`, in order.
    pub outs: Vec<Vec<ValId>>,
    /// Non-trivial term evaluations performed (the Def. 3.8(1) count; it
    /// depends only on the path, never on the store).
    pub evals: u64,
    /// Divisors first divided by on this segment whose values are not
    /// known non-zero: the new trap candidates, in evaluation order.
    pub new_cands: Vec<ValId>,
}

/// A probe on an `Assign` site: before the instruction executes, report
/// whether the store already holds the value its right-hand side denotes
/// (the static "this assignment is a no-op here" check that discharges an
/// `Eliminate` provenance record).
pub struct Probe {
    /// The probed node.
    pub node: NodeId,
    /// Instruction index within the node.
    pub index: usize,
}

/// Everything a segment simulation needs from the prover: the graph, the
/// side's joint map, the shared arena, and the mutable per-path state.
pub struct SegCtx<'a> {
    /// The program of this side.
    pub g: &'a FlowGraph,
    /// Which side (selects the joint-variable map).
    pub side: Side,
    /// The joint variable space.
    pub joint: &'a JointVars,
    /// The shared value arena.
    pub arena: &'a mut ValueArena,
    /// The symbolic store, indexed by joint variable (mutated in place).
    pub store: &'a mut Vec<ValId>,
    /// Values known non-zero on every run reaching this segment (a
    /// division by `v` that did not trap proves `v != 0`; mutated in
    /// place as new divisions execute).
    pub nonzero: &'a mut HashSet<ValId>,
}

impl SegCtx<'_> {
    fn joint(&self, v: Var) -> u32 {
        match self.side {
            Side::A => self.joint.joint_a(v),
            Side::B => self.joint.joint_b(v),
        }
    }

    fn operand(&mut self, o: Operand) -> ValId {
        match o {
            Operand::Const(c) => self.arena.constant(c),
            Operand::Var(v) => self.store[self.joint(v) as usize],
        }
    }

    /// The value a term denotes in the current store, without counting or
    /// trap bookkeeping (used by probes).
    pub fn pure_term_value(&mut self, t: Term) -> ValId {
        match t {
            Term::Operand(o) => self.operand(o),
            Term::Binary { op, lhs, rhs } => {
                let l = self.operand(lhs);
                let r = self.operand(rhs);
                self.arena.bin(op, l, r)
            }
        }
    }
}

/// Simulates one segment of `ctx.g` starting from `from` (None = program
/// entry) with raw decision `d` (ignored for the entry segment), running
/// to the next cutpoint, the program end, a definite trap, or a stuck
/// point. `probe` is called as `probe(probe_index, discharged)` whenever a
/// probed `Assign` is about to execute.
pub fn run_segment(
    ctx: &mut SegCtx<'_>,
    from: Option<SideKey>,
    d: usize,
    probes: &[Probe],
    probe: &mut dyn FnMut(usize, bool),
) -> SegRun {
    let mut run = SegRun {
        end: SegEnd::End,
        outs: Vec::new(),
        evals: 0,
        new_cands: Vec::new(),
    };
    let g = ctx.g;
    let (mut node, mut idx, mut taken): (NodeId, usize, Option<usize>) = match from {
        None => (g.start(), 0, None),
        Some(SideKey::AtBranch { node, index }) => {
            let fanout = g.succs(node).len();
            debug_assert!(fanout > 0);
            (node, index + 1, Some(d % fanout))
        }
        Some(SideKey::AtBlockEnd { node }) => {
            let succs = g.succs(node);
            (succs[d % succs.len()], 0, None)
        }
    };
    // A segment that re-enters more nodes than the program has without
    // consuming a decision is cycling through decision-free blocks — the
    // concrete interpreter would spin to its step limit here, which the
    // prover cannot model; give up (Inconclusive).
    let budget = g.node_count() + 2;
    let mut entered = 0usize;

    // Evaluates a term with the interpreter's counting and trapping
    // behaviour. Err(()) = definite trap.
    macro_rules! eval_term {
        ($t:expr) => {{
            let t: Term = $t;
            match t {
                Term::Operand(o) => Ok(ctx.operand(o)),
                Term::Binary { op, lhs, rhs } => {
                    run.evals += 1;
                    let l = ctx.operand(lhs);
                    let r = ctx.operand(rhs);
                    if matches!(op, BinOp::Div | BinOp::Mod) {
                        match ctx.arena.as_const(r) {
                            Some(0) => Err(()),
                            Some(_) => Ok(ctx.arena.bin(op, l, r)),
                            None => {
                                if ctx.nonzero.insert(r) {
                                    run.new_cands.push(r);
                                }
                                Ok(ctx.arena.bin(op, l, r))
                            }
                        }
                    } else {
                        Ok(ctx.arena.bin(op, l, r))
                    }
                }
            }
        }};
    }

    loop {
        let instr_count = g.block(node).len();
        while idx < instr_count {
            let instr = g.instr(Loc { node, index: idx }).clone();
            match instr {
                Instr::Skip => {}
                Instr::Assign { lhs, rhs } => {
                    if !probes.is_empty() {
                        for (pi, p) in probes.iter().enumerate() {
                            if p.node == node && p.index == idx {
                                let expected = ctx.pure_term_value(rhs);
                                let jl = ctx.joint(lhs) as usize;
                                probe(pi, ctx.store[jl] == expected);
                            }
                        }
                    }
                    let value = match eval_term!(rhs) {
                        Ok(v) => v,
                        Err(()) => {
                            run.end = SegEnd::Trap;
                            return run;
                        }
                    };
                    let jl = ctx.joint(lhs) as usize;
                    ctx.store[jl] = value;
                }
                Instr::Out(ops) => {
                    let values: Vec<ValId> = ops.iter().map(|&o| ctx.operand(o)).collect();
                    run.outs.push(values);
                }
                Instr::Branch(c) => {
                    let _l = match eval_term!(c.lhs) {
                        Ok(v) => v,
                        Err(()) => {
                            run.end = SegEnd::Trap;
                            return run;
                        }
                    };
                    let r = match eval_term!(c.rhs) {
                        Ok(v) => v,
                        Err(()) => {
                            run.end = SegEnd::Trap;
                            return run;
                        }
                    };
                    // The top-level comparison is uncounted control, but
                    // `apply(c.op, l, r)` can still trap when the operator
                    // is / or % (the type permits it).
                    if matches!(c.op, BinOp::Div | BinOp::Mod) {
                        match ctx.arena.as_const(r) {
                            Some(0) => {
                                run.end = SegEnd::Trap;
                                return run;
                            }
                            Some(_) => {}
                            None => {
                                if ctx.nonzero.insert(r) {
                                    run.new_cands.push(r);
                                }
                            }
                        }
                    }
                    if g.succs(node).is_empty() {
                        run.end = SegEnd::Stuck("branch in a node without successors");
                        return run;
                    }
                    run.end = SegEnd::Pause(SideKey::AtBranch { node, index: idx });
                    return run;
                }
            }
            idx += 1;
        }
        if node == g.end() {
            run.end = SegEnd::End;
            return run;
        }
        let succs = g.succs(node);
        let next = match succs.len() {
            0 => {
                run.end = SegEnd::End;
                return run;
            }
            1 => succs[0],
            _ => match taken {
                Some(i) => succs[i],
                None => {
                    run.end = SegEnd::Pause(SideKey::AtBlockEnd { node });
                    return run;
                }
            },
        };
        node = next;
        idx = 0;
        taken = None;
        entered += 1;
        if entered > budget {
            run.end = SegEnd::Stuck("decision-free cycle exceeded the node budget");
            return run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::parse;

    fn seg(
        g: &FlowGraph,
        from: Option<SideKey>,
        d: usize,
        store: &mut Vec<ValId>,
        arena: &mut ValueArena,
        joint: &JointVars,
        nonzero: &mut HashSet<ValId>,
    ) -> SegRun {
        let mut ctx = SegCtx {
            g,
            side: Side::A,
            joint,
            arena,
            store,
            nonzero,
        };
        run_segment(&mut ctx, from, d, &[], &mut |_, _| {})
    }

    #[test]
    fn straight_line_segment_reaches_end() {
        let g =
            parse("start s\nend e\nnode s { x := a+b; out(x) }\nnode e { out(x) }\nedge s -> e")
                .unwrap();
        let mut arena = ValueArena::new();
        let joint = JointVars::build(g.pool(), g.pool());
        let mut store = joint.initial_store(&mut arena);
        let mut nonzero = HashSet::new();
        let r = seg(&g, None, 0, &mut store, &mut arena, &joint, &mut nonzero);
        assert_eq!(r.end, SegEnd::End);
        assert_eq!(r.outs.len(), 2);
        assert_eq!(r.outs[0], r.outs[1]);
        assert_eq!(r.evals, 1);
    }

    #[test]
    fn branch_pauses_and_resumes() {
        let g = parse(
            "start 1\nend 4\nnode 1 { i := 0 }\nnode 2 { branch i < n }\nnode 3 { i := i + 1 }\nnode 4 { out(i) }\nedge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let mut arena = ValueArena::new();
        let joint = JointVars::build(g.pool(), g.pool());
        let mut store = joint.initial_store(&mut arena);
        let mut nonzero = HashSet::new();
        let r = seg(&g, None, 0, &mut store, &mut arena, &joint, &mut nonzero);
        let SegEnd::Pause(key @ SideKey::AtBranch { .. }) = r.end else {
            panic!("expected a branch pause, got {:?}", r.end)
        };
        // Decision 1 exits to node 4.
        let r2 = seg(
            &g,
            Some(key),
            1,
            &mut store,
            &mut arena,
            &joint,
            &mut nonzero,
        );
        assert_eq!(r2.end, SegEnd::End);
        assert_eq!(r2.outs.len(), 1);
    }

    #[test]
    fn constant_zero_divisor_is_a_definite_trap() {
        let g =
            parse("start s\nend e\nnode s { x := a/0 }\nnode e { out(x) }\nedge s -> e").unwrap();
        let mut arena = ValueArena::new();
        let joint = JointVars::build(g.pool(), g.pool());
        let mut store = joint.initial_store(&mut arena);
        let mut nonzero = HashSet::new();
        let r = seg(&g, None, 0, &mut store, &mut arena, &joint, &mut nonzero);
        assert_eq!(r.end, SegEnd::Trap);
    }

    #[test]
    fn symbolic_divisor_becomes_a_candidate_once() {
        let g = parse(
            "start s\nend e\nnode s { x := a/b; y := a/b }\nnode e { out(x,y) }\nedge s -> e",
        )
        .unwrap();
        let mut arena = ValueArena::new();
        let joint = JointVars::build(g.pool(), g.pool());
        let mut store = joint.initial_store(&mut arena);
        let mut nonzero = HashSet::new();
        let r = seg(&g, None, 0, &mut store, &mut arena, &joint, &mut nonzero);
        assert_eq!(r.end, SegEnd::End);
        assert_eq!(r.new_cands.len(), 1, "second division by b is covered");
    }

    #[test]
    fn decision_free_cycle_gets_stuck() {
        let g = parse(
            "start s\nend e\nnode s { skip }\nnode b { skip }\nnode e { out() }\nedge s -> b\nedge b -> b",
        );
        // Some graph validators reject this shape; build only if parse
        // accepts it.
        if let Ok(g) = g {
            let mut arena = ValueArena::new();
            let joint = JointVars::build(g.pool(), g.pool());
            let mut store = joint.initial_store(&mut arena);
            let mut nonzero = HashSet::new();
            let r = seg(&g, None, 0, &mut store, &mut arena, &joint, &mut nonzero);
            assert!(matches!(r.end, SegEnd::Stuck(_)), "{:?}", r.end);
        }
    }

    #[test]
    fn temp_forwarding_yields_identical_out_values() {
        // h := a+b; x := h   vs   x := a+b  — the normalization core.
        let ga =
            parse("start s\nend e\nnode s { h := a+b; x := h }\nnode e { out(x) }\nedge s -> e")
                .unwrap();
        let gb =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let mut arena = ValueArena::new();
        let joint = JointVars::build(ga.pool(), gb.pool());
        let mut store_a = joint.initial_store(&mut arena);
        let mut store_b = joint.initial_store(&mut arena);
        let mut nz_a = HashSet::new();
        let mut nz_b = HashSet::new();
        let ra = {
            let mut ctx = SegCtx {
                g: &ga,
                side: Side::A,
                joint: &joint,
                arena: &mut arena,
                store: &mut store_a,
                nonzero: &mut nz_a,
            };
            run_segment(&mut ctx, None, 0, &[], &mut |_, _| {})
        };
        let rb = {
            let mut ctx = SegCtx {
                g: &gb,
                side: Side::B,
                joint: &joint,
                arena: &mut arena,
                store: &mut store_b,
                nonzero: &mut nz_b,
            };
            run_segment(&mut ctx, None, 0, &[], &mut |_, _| {})
        };
        assert_eq!(ra.outs, rb.outs);
        assert_eq!(ra.evals, 1);
        assert_eq!(rb.evals, 1);
    }
}
