//! Random program generators for property tests and the complexity study.
//!
//! Two families mirror the distinction of Sec. 4.5:
//!
//! * [`structured`] generates programs from a statement grammar (sequence /
//!   if / while), producing reducible flow graphs — the "realistic
//!   structured programs" for which the paper claims essentially quadratic
//!   behaviour;
//! * [`unstructured`] wires random edges (possibly irreducible), probing the
//!   unrestricted worst case.
//!
//! Two deterministic XL shapes, [`nest_grid`] and [`wide_fan`], are the
//! programs of the `xl-nest` and `xl-fan` benchmark workloads.

use std::fmt::Write as _;

use crate::graph::{FlowGraph, NodeId};
use crate::instr::{Cond, Instr};
pub use crate::rng::SplitMix64;
use crate::term::{BinOp, Operand, Term};
use crate::text::parse;
use crate::var::Var;

/// Parameters for [`structured`].
#[derive(Clone, Debug)]
pub struct StructuredConfig {
    /// Maximum nesting depth of if/while constructs.
    pub max_depth: usize,
    /// Statements per sequence (upper bound).
    pub max_stmts: usize,
    /// Number of program variables (`v0`, `v1`, …).
    pub num_vars: usize,
    /// Whether `/` and `%` may appear (introduces trap behaviour).
    pub allow_div: bool,
}

impl Default for StructuredConfig {
    fn default() -> Self {
        StructuredConfig {
            max_depth: 3,
            max_stmts: 4,
            num_vars: 5,
            allow_div: false,
        }
    }
}

/// Parameters for [`unstructured`].
#[derive(Clone, Debug)]
pub struct UnstructuredConfig {
    /// Number of nodes, including start and end (minimum 2).
    pub nodes: usize,
    /// Additional random edges beyond the connecting skeleton.
    pub extra_edges: usize,
    /// Maximum instructions per node.
    pub max_instrs: usize,
    /// Number of program variables.
    pub num_vars: usize,
    /// Whether `/` and `%` may appear.
    pub allow_div: bool,
}

impl Default for UnstructuredConfig {
    fn default() -> Self {
        UnstructuredConfig {
            nodes: 12,
            extra_edges: 6,
            max_instrs: 3,
            num_vars: 5,
            allow_div: false,
        }
    }
}

struct Ctx<'a> {
    rng: &'a mut SplitMix64,
    vars: Vec<Var>,
    allow_div: bool,
}

impl Ctx<'_> {
    fn var(&mut self) -> Var {
        self.vars[self.rng.gen_range(0..self.vars.len())]
    }

    fn operand(&mut self) -> Operand {
        if self.rng.gen_bool(0.25) {
            Operand::Const(self.rng.gen_range(-4i64..=9))
        } else {
            Operand::Var(self.var())
        }
    }

    fn arith_op(&mut self) -> BinOp {
        let ops: &[BinOp] = if self.allow_div {
            &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]
        } else {
            &[BinOp::Add, BinOp::Sub, BinOp::Mul]
        };
        ops[self.rng.gen_range(0..ops.len())]
    }

    fn rel_op(&mut self) -> BinOp {
        let ops = [
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::EqOp,
            BinOp::Ne,
        ];
        ops[self.rng.gen_range(0..ops.len())]
    }

    fn term(&mut self) -> Term {
        if self.rng.gen_bool(0.75) {
            Term::Binary {
                op: self.arith_op(),
                lhs: self.operand(),
                rhs: self.operand(),
            }
        } else {
            Term::Operand(self.operand())
        }
    }

    fn assign(&mut self) -> Instr {
        Instr::assign(self.var(), self.term())
    }

    fn cond(&mut self) -> Cond {
        // Occasionally use a non-trivial side, as in Fig. 4's `x+z > y+i`.
        let side = |ctx: &mut Self| {
            if ctx.rng.gen_bool(0.4) {
                Term::Binary {
                    op: ctx.arith_op(),
                    lhs: ctx.operand(),
                    rhs: ctx.operand(),
                }
            } else {
                Term::Operand(ctx.operand())
            }
        };
        Cond {
            op: self.rel_op(),
            lhs: side(self),
            rhs: side(self),
        }
    }
}

enum Stmt {
    Assign,
    Out,
    If(Vec<Stmt>, Vec<Stmt>),
    While(Vec<Stmt>),
}

fn gen_seq(rng: &mut SplitMix64, cfg: &StructuredConfig, depth: usize) -> Vec<Stmt> {
    let n = rng.gen_range(1..=cfg.max_stmts);
    (0..n)
        .map(|_| {
            let roll: f64 = rng.gen_f64();
            if depth < cfg.max_depth && roll < 0.18 {
                Stmt::If(gen_seq(rng, cfg, depth + 1), gen_seq(rng, cfg, depth + 1))
            } else if depth < cfg.max_depth && roll < 0.32 {
                Stmt::While(gen_seq(rng, cfg, depth + 1))
            } else if roll < 0.40 {
                Stmt::Out
            } else {
                Stmt::Assign
            }
        })
        .collect()
}

/// Generates a random *structured* (reducible) program.
///
/// The generated graph is valid (see
/// [`FlowGraph::validate`](crate::FlowGraph::validate)); critical edges may
/// be present and should be split before applying code motion. The end node
/// outputs every variable, so any semantic difference between the program
/// and a transformed version is observable.
pub fn structured(rng: &mut SplitMix64, cfg: &StructuredConfig) -> FlowGraph {
    // Room for the 10 to 60 instructions the default shapes draw, so the
    // interner rarely grows while the program is built.
    let mut g = FlowGraph::with_capacity(64);
    let vars: Vec<Var> = (0..cfg.num_vars.max(2))
        .map(|i| g.pool_mut().intern(&format!("v{i}")))
        .collect();
    let mut ctx = Ctx {
        rng,
        vars: vars.clone(),
        allow_div: cfg.allow_div,
    };
    let start = g.add_node("s");
    g.set_start(start);
    let seq = gen_seq(ctx.rng, cfg, 0);
    let last = lower_seq(&mut g, &mut ctx, &seq, start, &mut 0);
    let end = g.add_node("e");
    g.set_end(end);
    g.add_edge(last, end);
    g.push_instr(
        end,
        Instr::Out(vars.iter().map(|&v| Operand::Var(v)).collect()),
    );
    debug_assert_eq!(g.validate(), Ok(()));
    g
}

fn fresh_node(g: &mut FlowGraph, counter: &mut usize) -> NodeId {
    *counter += 1;
    g.add_node(&format!("b{counter}"))
}

/// Lowers a statement sequence starting in `cur`; returns the node where
/// control continues.
fn lower_seq(
    g: &mut FlowGraph,
    ctx: &mut Ctx<'_>,
    seq: &[Stmt],
    mut cur: NodeId,
    counter: &mut usize,
) -> NodeId {
    for stmt in seq {
        match stmt {
            Stmt::Assign => g.push_instr(cur, ctx.assign()),
            Stmt::Out => {
                let ops = vec![Operand::Var(ctx.var()), Operand::Var(ctx.var())];
                g.push_instr(cur, Instr::Out(ops));
            }
            Stmt::If(then_seq, else_seq) => {
                let cond_node = fresh_node(g, counter);
                g.add_edge(cur, cond_node);
                g.push_instr(cond_node, Instr::Branch(ctx.cond()));
                let then_entry = fresh_node(g, counter);
                let else_entry = fresh_node(g, counter);
                g.add_edge(cond_node, then_entry);
                g.add_edge(cond_node, else_entry);
                let then_exit = lower_seq(g, ctx, then_seq, then_entry, counter);
                let else_exit = lower_seq(g, ctx, else_seq, else_entry, counter);
                let join = fresh_node(g, counter);
                g.add_edge(then_exit, join);
                g.add_edge(else_exit, join);
                cur = join;
            }
            Stmt::While(body) => {
                let header = fresh_node(g, counter);
                g.add_edge(cur, header);
                g.push_instr(header, Instr::Branch(ctx.cond()));
                let body_entry = fresh_node(g, counter);
                let exit = fresh_node(g, counter);
                g.add_edge(header, body_entry);
                g.add_edge(header, exit);
                let body_exit = lower_seq(g, ctx, body, body_entry, counter);
                g.add_edge(body_exit, header);
                cur = exit;
            }
        }
    }
    cur
}

/// Generates a random *unstructured* program: a forward skeleton keeps every
/// node on a start–end path, and `extra_edges` random edges (including
/// backward ones) add loops, joins and — frequently — irreducible regions.
pub fn unstructured(rng: &mut SplitMix64, cfg: &UnstructuredConfig) -> FlowGraph {
    let n = cfg.nodes.max(2);
    let mut g = FlowGraph::with_capacity(n * (cfg.max_instrs + 1));
    let vars: Vec<Var> = (0..cfg.num_vars.max(2))
        .map(|i| g.pool_mut().intern(&format!("v{i}")))
        .collect();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| {
            if i == 0 {
                g.add_node("s")
            } else if i == n - 1 {
                g.add_node("e")
            } else {
                g.add_node(&format!("b{i}"))
            }
        })
        .collect();
    g.set_start(nodes[0]);
    g.set_end(nodes[n - 1]);

    let has_edge = |g: &FlowGraph, m: NodeId, t: NodeId| g.succs(m).contains(&t);

    // Forward skeleton: every node reaches the end and is reached from the
    // start.
    for i in 0..n - 1 {
        let j = rng.gen_range(i + 1..n);
        if !has_edge(&g, nodes[i], nodes[j]) {
            g.add_edge(nodes[i], nodes[j]);
        }
    }
    for i in 1..n {
        if g.preds(nodes[i]).is_empty() {
            let j = rng.gen_range(0..i);
            if !has_edge(&g, nodes[j], nodes[i]) {
                g.add_edge(nodes[j], nodes[i]);
            } else if i > 1 {
                // The skeleton edge already exists; connect from start.
                if !has_edge(&g, nodes[0], nodes[i]) {
                    g.add_edge(nodes[0], nodes[i]);
                }
            }
        }
    }
    // Random extra edges; backward ones create loops.
    for _ in 0..cfg.extra_edges {
        let m = rng.gen_range(0..n - 1);
        let t = rng.gen_range(1..n);
        if m == t || (m == 0 && t == n - 1) {
            continue;
        }
        if !has_edge(&g, nodes[m], nodes[t]) && !g.preds(nodes[t]).is_empty() {
            g.add_edge(nodes[m], nodes[t]);
        }
    }

    // Fill blocks.
    let mut ctx = Ctx {
        rng,
        vars: vars.clone(),
        allow_div: cfg.allow_div,
    };
    for (i, &node) in nodes.iter().enumerate() {
        let k = ctx.rng.gen_range(0..=cfg.max_instrs);
        for _ in 0..k {
            let instr = if ctx.rng.gen_bool(0.12) {
                Instr::Out(vec![Operand::Var(ctx.var())])
            } else {
                ctx.assign()
            };
            g.push_instr(node, instr);
        }
        // Branch instruction for most multi-successor nodes; the rest stay
        // nondeterministic.
        if g.succs(node).len() > 1 && ctx.rng.gen_bool(0.7) {
            let cond = ctx.cond();
            g.push_instr(node, Instr::Branch(cond));
        }
        if i == n - 1 {
            g.push_instr(
                node,
                Instr::Out(vars.iter().map(|&v| Operand::Var(v)).collect()),
            );
        }
    }
    debug_assert_eq!(g.validate(), Ok(()), "{g:?}");
    g
}

/// The repository's canonical 80-program corpus: 40 structured and 40
/// unstructured seeded programs, interleaved per seed.
///
/// This is the fixed batch shared by the text round-trip tests, the
/// `am-lint` self-audit (`amlint --corpus`) and CI, so "the corpus" always
/// means the same programs everywhere. Deterministic: the same seeds and
/// configurations on every call.
pub fn corpus80() -> Vec<(String, FlowGraph)> {
    let mut programs = Vec::new();
    for seed in 0..40u64 {
        let mut rng = SplitMix64::new(seed);
        programs.push((
            format!("structured/{seed}"),
            structured(
                &mut rng,
                &StructuredConfig {
                    allow_div: seed % 2 == 1,
                    max_depth: 3 + (seed as usize % 2),
                    ..Default::default()
                },
            ),
        ));
        let mut rng = SplitMix64::new(seed ^ 0xDEAD);
        programs.push((
            format!("unstructured/{seed}"),
            unstructured(
                &mut rng,
                &UnstructuredConfig {
                    nodes: 4 + (seed as usize % 14),
                    extra_edges: 2 + (seed as usize % 9),
                    max_instrs: 4,
                    num_vars: 6,
                    allow_div: seed % 3 == 0,
                },
            ),
        ));
    }
    programs
}

/// XL family: a long sequence of `copies` shallow loop nests (each
/// `depth` deep, `width` invariant patterns per level) that share their
/// loop-invariant variables, so hoisted initializations become redundant
/// across consecutive copies — the motion fixed point has real work at
/// 10k+ nodes without the round count growing with program size (rounds
/// depend on the nest shape, which is constant).
///
/// All copies share one pattern set, so the universe (and the round
/// count) is fixed by `depth * width` while the graph grows without
/// bound — the wide-universe regime is covered by [`wide_fan`] and
/// `am_bench::workloads::inlined_program` instead.
pub fn nest_grid(copies: usize, depth: usize, width: usize) -> FlowGraph {
    let copies = copies.max(1);
    let depth = depth.max(1);
    let width = width.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "start init");
    let _ = writeln!(src, "end done");
    let _ = writeln!(src, "node init {{ s := 0 }}");
    let _ = writeln!(src, "node done {{ out(s) }}");
    for c in 0..copies {
        // Re-initialize the shared loop counters: keeps the counter
        // patterns (`ik := n`, `ik := ik - 1`) shared across every copy
        // instead of minting `copies * depth` distinct patterns.
        let mut pre = String::new();
        for k in 0..depth {
            if k > 0 {
                let _ = write!(pre, "; ");
            }
            let _ = write!(pre, "i{k} := n");
        }
        let _ = writeln!(src, "node pre{c} {{ {pre} }}");
        for k in 0..depth {
            let mut body = String::new();
            for j in 0..width {
                // Independent invariants (no slot-to-slot chain): the
                // round count stays flat as `copies` grows.
                let konst = k * width + j;
                let _ = write!(body, "w{k}_{j} := a + {konst}; ");
            }
            let _ = write!(body, "s := s + w{k}_{}", width - 1);
            let _ = writeln!(src, "node head{c}_{k} {{ {body} }}");
            let _ = writeln!(
                src,
                "node latch{c}_{k} {{ i{k} := i{k} - 1; branch i{k} > 0 }}"
            );
        }
        if c == 0 {
            let _ = writeln!(src, "edge init -> pre0");
        }
        let _ = writeln!(src, "edge pre{c} -> head{c}_0");
        for k in 0..depth {
            if k + 1 < depth {
                let _ = writeln!(src, "edge head{c}_{k} -> head{c}_{}", k + 1);
            } else {
                let _ = writeln!(src, "edge head{c}_{k} -> latch{c}_{k}");
            }
        }
        for k in (0..depth).rev() {
            let exit = if k == 0 {
                if c + 1 < copies {
                    format!("pre{}", c + 1)
                } else {
                    "done".to_owned()
                }
            } else {
                format!("latch{c}_{}", k - 1)
            };
            let _ = writeln!(src, "edge latch{c}_{k} -> head{c}_{k}, {exit}");
        }
    }
    parse(&src).expect("generated nest grid parses")
}

/// XL family: one `branches`-way fan — every branch computes the same
/// `width` patterns (hoistable into the entry, eliminable in the leaves)
/// plus one pattern unique to its block of 128 leaves (widening the
/// universe with size). Exercises very wide confluence merges, the shape
/// where the flush's point-level systems dominate.
pub fn wide_fan(branches: usize, width: usize) -> FlowGraph {
    let branches = branches.max(2);
    let width = width.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "start entry");
    let _ = writeln!(src, "end done");
    let _ = writeln!(src, "node entry {{ skip }}");
    for t in 0..branches {
        let mut body = String::new();
        for j in 0..width {
            let _ = write!(body, "x{j} := a + {j}; ");
        }
        let _ = write!(body, "y := a + {}", 1000 + t / 128);
        let _ = writeln!(src, "node b{t} {{ {body} }}");
    }
    let _ = writeln!(src, "node join {{ s := x0 + y }}");
    let _ = writeln!(src, "node done {{ out(s) }}");
    let leaves = (0..branches).map(|t| format!("b{t}")).collect::<Vec<_>>();
    let _ = writeln!(src, "edge entry -> {}", leaves.join(", "));
    for t in 0..branches {
        let _ = writeln!(src, "edge b{t} -> join");
    }
    let _ = writeln!(src, "edge join -> done");
    parse(&src).expect("generated wide fan parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_reducible;
    use crate::interp::{run, Config, Oracle};

    #[test]
    fn structured_programs_are_valid_and_reducible() {
        for seed in 0..40 {
            let mut rng = SplitMix64::new(seed);
            let g = structured(&mut rng, &StructuredConfig::default());
            assert_eq!(g.validate(), Ok(()), "seed {seed}");
            assert!(is_reducible(&g), "seed {seed} produced irreducible graph");
        }
    }

    #[test]
    fn unstructured_programs_are_valid() {
        for seed in 0..40 {
            let mut rng = SplitMix64::new(seed);
            let g = unstructured(&mut rng, &UnstructuredConfig::default());
            assert_eq!(g.validate(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn some_unstructured_programs_are_irreducible() {
        let mut found = false;
        for seed in 0..60 {
            let mut rng = SplitMix64::new(seed);
            let g = unstructured(&mut rng, &UnstructuredConfig::default());
            if !is_reducible(&g) {
                found = true;
                break;
            }
        }
        assert!(found, "no irreducible graph in 60 seeds");
    }

    #[test]
    fn generated_programs_run() {
        for seed in 0..20 {
            let mut rng = SplitMix64::new(seed);
            let g = structured(&mut rng, &StructuredConfig::default());
            let cfg = Config {
                oracle: Oracle::random(seed, 32),
                inputs: vec![("v0".into(), 3), ("v1".into(), -1)],
                ..Config::default()
            };
            let r = run(&g, &cfg);
            // Runs end for one of the sanctioned reasons, never panic.
            assert!(r.steps <= cfg.max_steps);
        }
    }

    #[test]
    fn splitting_generated_graphs_keeps_them_valid() {
        for seed in 0..20 {
            let mut rng = SplitMix64::new(seed);
            let mut g = unstructured(&mut rng, &UnstructuredConfig::default());
            g.split_critical_edges();
            assert_eq!(g.validate(), Ok(()), "seed {seed}");
            for m in g.nodes() {
                for &t in g.succs(m) {
                    assert!(!g.is_critical_edge(m, t));
                }
            }
        }
    }

    #[test]
    fn size_scales_with_config() {
        let mut rng = SplitMix64::new(7);
        let big = structured(
            &mut rng,
            &StructuredConfig {
                max_depth: 5,
                max_stmts: 6,
                ..StructuredConfig::default()
            },
        );
        let mut rng = SplitMix64::new(7);
        let small = structured(
            &mut rng,
            &StructuredConfig {
                max_depth: 1,
                max_stmts: 2,
                ..StructuredConfig::default()
            },
        );
        assert!(big.node_count() >= small.node_count());
    }
}
