//! A counting interpreter for flow graphs.
//!
//! The paper's optimality notions (Def. 3.8) compare *runs*: the number of
//! expression evaluations, assignment executions and temporary assignments
//! along corresponding paths of two programs. This interpreter makes those
//! quantities measurable:
//!
//! * branching is **oracle-driven** (Sec. 2 treats the branching structure
//!   as nondeterministic) — two programs run against the same
//!   [`Oracle::Fixed`] decision sequence traverse *corresponding* paths,
//!   which is exactly the alignment the definitions quantify over;
//! * every evaluation of a non-trivial term is counted (these are the
//!   expression-pattern evaluations EM can affect; the fixed top-level
//!   comparison of a branch is control and is not counted — it is identical
//!   in every program of the universe `G`);
//! * `out(...)` values and traps form the observable behaviour, so
//!   semantics preservation is testable; note that eliminating "dead" code
//!   may *reduce* traps, which is why the paper forbids it (Sec. 3) and why
//!   traps are part of our equivalence.
//!
//! # Examples
//!
//! ```
//! use am_ir::text::parse;
//! use am_ir::interp::{run, Config, Oracle, StopReason};
//!
//! let g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e")?;
//! let result = run(&g, &Config::with_inputs(vec![("a", 2), ("b", 3)]));
//! assert_eq!(result.stop, StopReason::ReachedEnd);
//! assert_eq!(result.outputs, vec![vec![5]]);
//! assert_eq!(result.expr_evals, 1);
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

use std::collections::HashMap;

use crate::graph::{FlowGraph, Loc, NodeId};
use crate::instr::{Cond, Instr};
use crate::term::{BinOp, Operand, Term};
use crate::var::Var;

/// A runtime trap. Traps are observable behaviour: a transformation that
/// removes or adds one is not semantics-preserving.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trap {
    /// Division or remainder by zero.
    DivByZero,
}

/// Source of branch decisions.
#[derive(Clone, Debug)]
pub enum Oracle {
    /// A pre-committed decision sequence. Decision `d` at a node with `k`
    /// successors selects successor `d % k`. When the sequence is exhausted
    /// the run stops with [`StopReason::OracleExhausted`] — this keeps runs
    /// of different programs aligned on a common path prefix.
    Fixed(Vec<usize>),
    /// Use the node's branch condition: true selects successor 0, false
    /// successor 1. Multi-successor nodes without a branch instruction take
    /// successor 0.
    Deterministic,
}

impl Oracle {
    /// A pseudo-random fixed oracle of `len` decisions derived from `seed`
    /// (an xorshift generator — reproducible and dependency-free).
    pub fn random(seed: u64, len: usize) -> Oracle {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.push((state >> 33) as usize);
        }
        Oracle::Fixed(v)
    }
}

/// Interpreter configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Branch decision source.
    pub oracle: Oracle,
    /// Hard bound on executed instructions (safety net).
    pub max_steps: u64,
    /// Initial values, by variable name. Unlisted variables start at 0.
    pub inputs: Vec<(String, i64)>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            oracle: Oracle::Fixed(Vec::new()),
            max_steps: 100_000,
            inputs: Vec::new(),
        }
    }
}

impl Config {
    /// A deterministic-branching configuration with the given inputs.
    pub fn with_inputs(inputs: Vec<(&str, i64)>) -> Config {
        Config {
            oracle: Oracle::Deterministic,
            inputs: inputs.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
            ..Config::default()
        }
    }

    /// A fixed-oracle configuration with the given decisions and inputs.
    pub fn with_oracle(decisions: Vec<usize>, inputs: Vec<(&str, i64)>) -> Config {
        Config {
            oracle: Oracle::Fixed(decisions),
            inputs: inputs.into_iter().map(|(n, v)| (n.to_owned(), v)).collect(),
            ..Config::default()
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The end node finished executing.
    ReachedEnd,
    /// A fixed oracle ran out of decisions at a branch.
    OracleExhausted,
    /// A trap occurred (see [`RunResult::trap`]).
    Trapped,
    /// `max_steps` was reached.
    StepLimit,
}

/// The outcome and cost profile of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Values written by each executed `out(...)`.
    pub outputs: Vec<Vec<i64>>,
    /// The trap, if one occurred.
    pub trap: Option<Trap>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Instructions executed.
    pub steps: u64,
    /// Evaluations of non-trivial terms — the quantity of Def. 3.8(1).
    pub expr_evals: u64,
    /// Evaluations broken down by expression pattern (Def. 3.8 compares
    /// occurrence counts *per pattern*; the aggregate is the sum).
    pub expr_evals_by_pattern: HashMap<Term, u64>,
    /// Executed assignments — the quantity of Def. 3.8(2).
    pub assign_execs: u64,
    /// Executed assignments whose left-hand side is a temporary — part of
    /// the quantity of Def. 3.8(3).
    pub temp_assign_execs: u64,
    /// Branch decisions consumed.
    pub decisions: u64,
    /// Basic blocks entered.
    pub nodes_visited: u64,
    /// The sequence of visited nodes.
    pub path: Vec<NodeId>,
}

impl RunResult {
    /// The observable behaviour: outputs plus trap. Two semantically
    /// equivalent programs produce equal observables on equal oracles.
    pub fn observable(&self) -> (&[Vec<i64>], Option<Trap>) {
        (&self.outputs, self.trap)
    }
}

/// One step of a traced execution (see [`run_traced`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Control entered a node.
    Enter(NodeId),
    /// An assignment executed, writing `value` to `var`.
    Wrote {
        /// Location of the instruction.
        loc: crate::Loc,
        /// The assigned variable.
        var: Var,
        /// The value written.
        value: i64,
    },
    /// An `out(...)` emitted these values.
    Emitted(Vec<i64>),
    /// A branch decision chose the successor with this index.
    Decided(usize),
    /// Execution trapped.
    Trapped(Trap),
}

struct Machine {
    env: HashMap<Var, i64>,
    result: RunResult,
}

impl Machine {
    fn read(&self, o: Operand) -> i64 {
        match o {
            Operand::Const(c) => c,
            Operand::Var(v) => self.env.get(&v).copied().unwrap_or(0),
        }
    }

    fn apply(&self, op: BinOp, l: i64, r: i64) -> Result<i64, Trap> {
        Ok(match op {
            BinOp::Add => l.wrapping_add(r),
            BinOp::Sub => l.wrapping_sub(r),
            BinOp::Mul => l.wrapping_mul(r),
            BinOp::Div => {
                if r == 0 {
                    return Err(Trap::DivByZero);
                }
                l.wrapping_div(r)
            }
            BinOp::Mod => {
                if r == 0 {
                    return Err(Trap::DivByZero);
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

    /// Evaluates a term, counting non-trivial evaluations.
    fn eval_term(&mut self, t: Term) -> Result<i64, Trap> {
        match t {
            Term::Operand(o) => Ok(self.read(o)),
            Term::Binary { op, lhs, rhs } => {
                self.result.expr_evals += 1;
                *self.result.expr_evals_by_pattern.entry(t).or_insert(0) += 1;
                self.apply(op, self.read(lhs), self.read(rhs))
            }
        }
    }

    /// Evaluates a branch condition. The side terms count; the fixed
    /// top-level comparison does not (it exists identically in every
    /// program of the universe).
    fn eval_cond(&mut self, c: Cond) -> Result<bool, Trap> {
        let l = self.eval_term(c.lhs)?;
        let r = self.eval_term(c.rhs)?;
        Ok(self.apply(c.op, l, r)? != 0)
    }
}

/// Runs `g` under `config`.
///
/// Variables not listed in `config.inputs` start at 0. The run stops when
/// the end node completes, a trap occurs, the oracle is exhausted, or the
/// step limit is hit.
pub fn run(g: &FlowGraph, config: &Config) -> RunResult {
    run_impl(g, config, &mut |_| {})
}

/// Runs `g` like [`run`] while recording a step-by-step [`TraceEvent`]
/// stream — the tool for pinpointing where two program versions diverge
/// (see `am-core`'s verification helpers).
///
/// # Examples
///
/// ```
/// use am_ir::text::parse;
/// use am_ir::interp::{run_traced, Config, TraceEvent};
///
/// let g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e")?;
/// let (_, trace) = run_traced(&g, &Config::with_inputs(vec![("a", 1), ("b", 2)]));
/// assert!(trace.iter().any(|e| matches!(e, TraceEvent::Wrote { value: 3, .. })));
/// assert!(trace.iter().any(|e| matches!(e, TraceEvent::Emitted(v) if v == &vec![3])));
/// # Ok::<(), am_ir::text::ParseError>(())
/// ```
pub fn run_traced(g: &FlowGraph, config: &Config) -> (RunResult, Vec<TraceEvent>) {
    let mut events = Vec::new();
    let result = run_impl(g, config, &mut |e| events.push(e));
    (result, events)
}

fn run_impl(g: &FlowGraph, config: &Config, sink: &mut dyn FnMut(TraceEvent)) -> RunResult {
    let mut machine = Machine {
        env: HashMap::new(),
        result: RunResult {
            outputs: Vec::new(),
            trap: None,
            stop: StopReason::ReachedEnd,
            steps: 0,
            expr_evals: 0,
            expr_evals_by_pattern: HashMap::new(),
            assign_execs: 0,
            temp_assign_execs: 0,
            decisions: 0,
            nodes_visited: 0,
            path: Vec::new(),
        },
    };
    for (name, value) in &config.inputs {
        if let Some(v) = g.pool().lookup(name) {
            machine.env.insert(v, *value);
        }
    }

    // Reason to unwind out of the block-execution loop.
    enum Halt {
        Trap(Trap),
        OracleExhausted,
        StepLimit,
    }

    // Picks the next-successor index at a decision point.
    let decide =
        |machine: &mut Machine, truth: Option<bool>, fanout: usize| -> Result<usize, Halt> {
            let choice = match &config.oracle {
                Oracle::Deterministic => match truth {
                    Some(true) => 0,
                    Some(false) => 1.min(fanout - 1),
                    None => 0,
                },
                Oracle::Fixed(decisions) => {
                    let i = machine.result.decisions as usize;
                    match decisions.get(i) {
                        Some(&d) => d % fanout,
                        None => return Err(Halt::OracleExhausted),
                    }
                }
            };
            machine.result.decisions += 1;
            Ok(choice)
        };

    let mut node = g.start();
    let halt: Option<Halt> = 'outer: loop {
        // Entering a node counts as progress against the step bound: a
        // cycle of empty blocks executes no instructions, so the per-
        // instruction check alone would spin forever.
        if machine.result.nodes_visited >= config.max_steps {
            break 'outer Some(Halt::StepLimit);
        }
        machine.result.nodes_visited += 1;
        machine.result.path.push(node);
        sink(TraceEvent::Enter(node));
        // The branch decision is taken when the Branch instruction runs;
        // instructions after it still execute before control transfers.
        let mut taken: Option<usize> = None;
        for idx in 0..g.block(node).len() {
            if machine.result.steps >= config.max_steps {
                break 'outer Some(Halt::StepLimit);
            }
            machine.result.steps += 1;
            match g.instr(Loc { node, index: idx }).clone() {
                Instr::Skip => {}
                Instr::Assign { lhs, rhs } => match machine.eval_term(rhs) {
                    Ok(value) => {
                        machine.result.assign_execs += 1;
                        if g.pool().is_temp(lhs) {
                            machine.result.temp_assign_execs += 1;
                        }
                        machine.env.insert(lhs, value);
                        sink(TraceEvent::Wrote {
                            loc: crate::Loc { node, index: idx },
                            var: lhs,
                            value,
                        });
                    }
                    Err(trap) => break 'outer Some(Halt::Trap(trap)),
                },
                Instr::Out(ops) => {
                    let values: Vec<i64> = ops.iter().map(|&o| machine.read(o)).collect();
                    sink(TraceEvent::Emitted(values.clone()));
                    machine.result.outputs.push(values);
                }
                Instr::Branch(c) => {
                    let truth = match machine.eval_cond(c) {
                        Ok(t) => t,
                        Err(trap) => break 'outer Some(Halt::Trap(trap)),
                    };
                    let fanout = g.succs(node).len();
                    match decide(&mut machine, Some(truth), fanout) {
                        Ok(i) => {
                            sink(TraceEvent::Decided(i));
                            taken = Some(i);
                        }
                        Err(h) => break 'outer Some(h),
                    }
                }
            }
        }
        if node == g.end() {
            break None;
        }
        let succs = g.succs(node);
        node = match succs.len() {
            0 => break None, // only the end node lacks successors
            1 => succs[0],
            fanout => {
                let i = match taken {
                    Some(i) => i,
                    // Multi-way node without a Branch instruction: consume
                    // an oracle decision directly (nondeterministic branch).
                    None => match decide(&mut machine, None, fanout) {
                        Ok(i) => {
                            sink(TraceEvent::Decided(i));
                            i
                        }
                        Err(h) => break 'outer Some(h),
                    },
                };
                succs[i]
            }
        };
    };
    machine.result.stop = match halt {
        None => StopReason::ReachedEnd,
        Some(Halt::Trap(t)) => {
            sink(TraceEvent::Trapped(t));
            machine.result.trap = Some(t);
            StopReason::Trapped
        }
        Some(Halt::OracleExhausted) => StopReason::OracleExhausted,
        Some(Halt::StepLimit) => StopReason::StepLimit,
    };
    machine.result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::parse;

    const LOOP_SRC: &str = "
        start 1
        end 4
        node 1 { i := 0 }
        node 2 { branch i < n }
        node 3 { s := s + i; i := i + 1 }
        node 4 { out(s) }
        edge 1 -> 2
        edge 2 -> 3, 4
        edge 3 -> 2
    ";

    #[test]
    fn straight_line_arithmetic() {
        let g = parse(
            "start s\nend e\nnode s { x := a*b; y := x-1 }\nnode e { out(x,y) }\nedge s -> e",
        )
        .unwrap();
        let r = run(&g, &Config::with_inputs(vec![("a", 4), ("b", 5)]));
        assert_eq!(r.stop, StopReason::ReachedEnd);
        assert_eq!(r.outputs, vec![vec![20, 19]]);
        assert_eq!(r.expr_evals, 2);
        assert_eq!(r.assign_execs, 2);
        assert_eq!(r.decisions, 0);
    }

    #[test]
    fn deterministic_loop_sums() {
        let g = parse(LOOP_SRC).unwrap();
        let r = run(&g, &Config::with_inputs(vec![("n", 5)]));
        assert_eq!(r.stop, StopReason::ReachedEnd);
        assert_eq!(r.outputs, vec![vec![10]]); // 0+1+2+3+4
                                               // The condition's sides are trivial operands, so only the two
                                               // body assignments evaluate non-trivial terms: 2 per iteration.
        assert_eq!(r.expr_evals, 10);
        assert_eq!(r.decisions, 6);
    }

    #[test]
    fn fixed_oracle_overrides_condition() {
        let g = parse(LOOP_SRC).unwrap();
        // Successor 0 = node 3 (loop body), successor 1 = node 4 (exit).
        // Take the body twice, then exit.
        let r = run(&g, &Config::with_oracle(vec![0, 0, 1], vec![("n", 100)]));
        assert_eq!(r.stop, StopReason::ReachedEnd);
        assert_eq!(r.outputs, vec![vec![1]]); // 0+1
        assert_eq!(r.decisions, 3);
    }

    #[test]
    fn oracle_exhaustion_stops_cleanly() {
        let g = parse(LOOP_SRC).unwrap();
        let r = run(&g, &Config::with_oracle(vec![0], vec![("n", 100)]));
        assert_eq!(r.stop, StopReason::OracleExhausted);
        // One full body execution happened before the second decision.
        assert_eq!(r.outputs, Vec::<Vec<i64>>::new());
        assert_eq!(r.decisions, 1);
    }

    #[test]
    fn division_by_zero_traps() {
        let g =
            parse("start s\nend e\nnode s { x := a/b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let r = run(&g, &Config::with_inputs(vec![("a", 1), ("b", 0)]));
        assert_eq!(r.stop, StopReason::Trapped);
        assert_eq!(r.trap, Some(Trap::DivByZero));
        assert!(r.outputs.is_empty());
        let ok = run(&g, &Config::with_inputs(vec![("a", 9), ("b", 3)]));
        assert_eq!(ok.trap, None);
        assert_eq!(ok.outputs, vec![vec![3]]);
    }

    #[test]
    fn trap_in_condition_is_observed() {
        let g = parse("start s\nend e\nnode s { branch a/b > 0 }\nnode t { skip }\nnode e { out() }\nedge s -> t, e\nedge t -> e").unwrap();
        let r = run(&g, &Config::with_inputs(vec![("b", 0)]));
        assert_eq!(r.stop, StopReason::Trapped);
        assert_eq!(r.trap, Some(Trap::DivByZero));
    }

    #[test]
    fn step_limit_halts_infinite_loops() {
        // A loop that the deterministic oracle never exits.
        let g = parse("start 1\nend 4\nnode 1 { skip }\nnode 2 { branch 1 > 0 }\nnode 3 { skip }\nnode 4 { out() }\nedge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2").unwrap();
        let mut cfg = Config::with_inputs(vec![]);
        cfg.max_steps = 50;
        let r = run(&g, &cfg);
        assert_eq!(r.stop, StopReason::StepLimit);
        assert_eq!(r.steps, 50);
    }

    #[test]
    fn temp_assignments_are_counted_separately() {
        let mut g =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let a = g.pool().lookup("a").unwrap();
        let b = g.pool().lookup("b").unwrap();
        let t = Term::binary(BinOp::Add, a, b);
        let h = g.temp_for(t);
        let x = g.pool().lookup("x").unwrap();
        g.set_block(g.start(), Vec::new());
        let start = g.start();
        g.push_instr(start, Instr::assign(h, t));
        g.push_instr(start, Instr::assign(x, h));
        let r = run(&g, &Config::with_inputs(vec![("a", 2), ("b", 3)]));
        assert_eq!(r.outputs, vec![vec![5]]);
        assert_eq!(r.assign_execs, 2);
        assert_eq!(r.temp_assign_execs, 1);
        assert_eq!(r.expr_evals, 1);
    }

    #[test]
    fn uninitialized_variables_read_zero() {
        let g =
            parse("start s\nend e\nnode s { x := q+1 }\nnode e { out(x,q) }\nedge s -> e").unwrap();
        let r = run(&g, &Config::with_inputs(vec![]));
        assert_eq!(r.outputs, vec![vec![1, 0]]);
    }

    #[test]
    fn nondeterministic_node_without_branch_instr() {
        let g = parse("start s\nend e\nnode s { skip }\nnode a { x := 1 }\nnode b { x := 2 }\nnode e { out(x) }\nedge s -> a, b\nedge a -> e\nedge b -> e").unwrap();
        let r0 = run(&g, &Config::with_oracle(vec![0], vec![]));
        assert_eq!(r0.outputs, vec![vec![1]]);
        let r1 = run(&g, &Config::with_oracle(vec![1], vec![]));
        assert_eq!(r1.outputs, vec![vec![2]]);
        // Modulo wrapping of large decisions.
        let r2 = run(&g, &Config::with_oracle(vec![7], vec![]));
        assert_eq!(r2.outputs, vec![vec![2]]);
    }

    #[test]
    fn random_oracle_is_reproducible() {
        let Oracle::Fixed(a) = Oracle::random(42, 16) else {
            panic!()
        };
        let Oracle::Fixed(b) = Oracle::random(42, 16) else {
            panic!()
        };
        let Oracle::Fixed(c) = Oracle::random(43, 16) else {
            panic!()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        let g =
            parse("start s\nend e\nnode s { x := a*a; y := x+a }\nnode e { out(y) }\nedge s -> e")
                .unwrap();
        let r = run(&g, &Config::with_inputs(vec![("a", i64::MAX)]));
        assert_eq!(r.stop, StopReason::ReachedEnd);
    }

    #[test]
    fn path_records_visited_nodes() {
        let g = parse(LOOP_SRC).unwrap();
        let r = run(&g, &Config::with_inputs(vec![("n", 1)]));
        let labels: Vec<&str> = r.path.iter().map(|&n| g.label(n)).collect();
        assert_eq!(labels, vec!["1", "2", "3", "2", "4"]);
    }

    #[test]
    fn a_cycle_of_empty_blocks_hits_the_step_limit() {
        // Zero instructions executed, so only the node-entry guard can
        // stop this; a deterministic oracle always re-enters the loop.
        let g = parse(
            "start s\nend e\nnode s { }\nnode b { }\nnode e { }\n\
             edge s -> b\nedge b -> b, e",
        )
        .unwrap();
        let cfg = Config {
            max_steps: 50,
            ..Config::with_inputs(vec![])
        };
        let r = run(&g, &cfg);
        assert_eq!(r.stop, StopReason::StepLimit);
        assert!(r.nodes_visited <= 50);
    }
}
