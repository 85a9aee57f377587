//! Workload families of the complexity study (Sec. 4.5).
//!
//! The paper claims the global algorithm is "essentially quadratic" for
//! realistic structured programs and up to fourth order in the unrestricted
//! worst case. The `bench_dataflow` ladder sweeps these families over size
//! and fits `wall ~ nodes^k` per family with [`fit_nodes_exponent`].

use std::fmt::Write as _;

pub use am_ir::random::{nest_grid, wide_fan};
use am_ir::text::parse;
use am_ir::FlowGraph;

/// A deterministic nest of `depth` do-while loops, each body carrying
/// `width` assignment patterns: one loop-invariant chain (hoistable, with
/// second-order dependencies) and one induction-style update per slot.
///
/// Do-while loops make the invariants admissibly hoistable (their bodies
/// are unavoidable), so the motion phase has real work at every level.
pub fn loop_nest(depth: usize, width: usize) -> FlowGraph {
    let depth = depth.max(1);
    let width = width.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "start init");
    let _ = writeln!(src, "end done");
    let mut inits = String::from("s := 0");
    for k in 0..depth {
        let _ = write!(inits, "; i{k} := n");
    }
    let _ = writeln!(src, "node init {{ {inits} }}");
    for k in 0..depth {
        let mut body = String::new();
        for j in 0..width {
            // An invariant chain: w depends on the previous slot's w, so
            // hoisting slot j+1 requires slot j to move first (second-order
            // effects at every level).
            if j == 0 {
                let _ = write!(body, "w{k}_0 := a + {k}; ");
            } else {
                let prev = j - 1;
                let _ = write!(body, "w{k}_{j} := w{k}_{prev} + {j}; ");
            }
        }
        let _ = write!(body, "s := s + w{k}_{}", width - 1);
        let _ = writeln!(src, "node head{k} {{ {body} }}");
        let _ = writeln!(src, "node latch{k} {{ i{k} := i{k} - 1; branch i{k} > 0 }}");
    }
    let _ = writeln!(src, "node done {{ out(s) }}");
    // Wiring: init -> head0; headk -> head(k+1) ... innermost -> latch(d-1);
    // latchk -> headk (back) | latch(k-1) (exit); latch0 exits to done.
    let _ = writeln!(src, "edge init -> head0");
    for k in 0..depth {
        if k + 1 < depth {
            let _ = writeln!(src, "edge head{k} -> head{}", k + 1);
        } else {
            let _ = writeln!(src, "edge head{k} -> latch{k}");
        }
    }
    for k in (0..depth).rev() {
        let exit = if k == 0 {
            "done".to_owned()
        } else {
            format!("latch{}", k - 1)
        };
        let _ = writeln!(src, "edge latch{k} -> head{k}, {exit}");
    }
    parse(&src).expect("generated loop nest parses")
}

/// A straight-line/diamond chain of `sections` sections, each containing
/// `width` assignments with one partially redundant pattern per diamond —
/// cheap per-round work, many patterns.
pub fn diamond_chain(sections: usize, width: usize) -> FlowGraph {
    let sections = sections.max(1);
    let width = width.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "start n0");
    let _ = writeln!(src, "end done");
    let _ = writeln!(src, "node n0 {{ skip }}");
    for k in 0..sections {
        let mut left = String::new();
        let mut right = String::new();
        for j in 0..width {
            let _ = write!(left, "x{j} := a + {j}; ");
            let _ = write!(right, "x{j} := a + {j}; ");
        }
        let _ = writeln!(src, "node l{k} {{ {left}skip }}");
        let _ = writeln!(src, "node r{k} {{ {right}skip }}");
        let _ = writeln!(src, "node j{k} {{ y{k} := x0 + b }}");
        let prev = if k == 0 {
            "n0".to_owned()
        } else {
            format!("j{}", k - 1)
        };
        let _ = writeln!(src, "edge {prev} -> l{k}, r{k}");
        let _ = writeln!(src, "edge l{k} -> j{k}");
        let _ = writeln!(src, "edge r{k} -> j{k}");
    }
    let _ = writeln!(src, "node done {{ out(y0) }}");
    let _ = writeln!(src, "edge j{} -> done", sections - 1);
    parse(&src).expect("generated diamond chain parses")
}

/// A while-language benchmark program: `bodies` nested do-while loops,
/// each with an invariant chain and induction updates — compiled through
/// the `am-lang` frontend (parser + 3-address lowering), so the
/// `showdown` table also exercises the full stack.
pub fn while_workload(bodies: usize, chain: usize) -> FlowGraph {
    use std::fmt::Write as _;
    let bodies = bodies.max(1);
    let chain = chain.max(1);
    let mut src = String::from("acc := 0;\n");
    for k in 0..bodies {
        let _ = writeln!(src, "i{k} := n;");
        let _ = writeln!(src, "do {{");
        for j in 0..chain {
            if j == 0 {
                let _ = writeln!(src, "  w{k}_0 := base + {k};");
            } else {
                let _ = writeln!(src, "  w{k}_{j} := w{k}_{} * 3 + {j};", j - 1);
            }
        }
        let _ = writeln!(src, "  acc := acc + w{k}_{} + i{k};", chain - 1);
        let _ = writeln!(src, "  i{k} := i{k} - 1;");
        let _ = writeln!(src, "}} while (i{k} > 0);");
    }
    src.push_str("print(acc);\n");
    am_lang::compile(&src).expect("generated while program compiles")
}

/// XL family: the shape of a program after heavy inlining — `calls` call
/// sites, each a branch diamond whose two arms carry the body of one of
/// `procs` distinct procedures (so every `procs`-th site repeats the same
/// code and the eliminator has cross-site work). Sites are spread over 8
/// lanes joined at the end.
pub fn inlined_program(calls: usize, procs: usize) -> FlowGraph {
    const LANES: usize = 8;
    let calls = calls.max(LANES);
    let procs = procs.max(1);
    let mut src = String::new();
    let _ = writeln!(src, "start entry");
    let _ = writeln!(src, "end done");
    let _ = writeln!(src, "node entry {{ acc := 0 }}");
    let per_lane = calls.div_ceil(LANES);
    for lane in 0..LANES {
        for i in 0..per_lane {
            let site = lane * per_lane + i;
            let p = site % procs;
            // The inlined body: a tiny dependent chain per procedure.
            // Redefining `x` at each site head kills the chain's source
            // operand between sites, so motion is confined to one
            // diamond (arms hoist into their own head) and the round
            // count stays flat as `calls` grows instead of code
            // creeping up the whole chain one diamond per round.
            let body = format!("t{p}_0 := x + {p}; t{p}_1 := t{p}_0 + 1; acc := acc + t{p}_1");
            let _ = writeln!(
                src,
                "node h{lane}_{i} {{ x := x + 1; branch x > {} }}",
                site % 7
            );
            let _ = writeln!(src, "node a{lane}_{i} {{ {body} }}");
            let _ = writeln!(src, "node b{lane}_{i} {{ {body} }}");
            if i == 0 {
                let _ = writeln!(src, "edge entry -> h{lane}_0");
            } else {
                let _ = writeln!(src, "edge a{lane}_{} -> h{lane}_{i}", i - 1);
                let _ = writeln!(src, "edge b{lane}_{} -> h{lane}_{i}", i - 1);
            }
            let _ = writeln!(src, "edge h{lane}_{i} -> a{lane}_{i}, b{lane}_{i}");
        }
        let _ = writeln!(src, "edge a{lane}_{} -> join", per_lane - 1);
        let _ = writeln!(src, "edge b{lane}_{} -> join", per_lane - 1);
    }
    let _ = writeln!(src, "node join {{ skip }}");
    let _ = writeln!(src, "node done {{ out(acc) }}");
    let _ = writeln!(src, "edge join -> done");
    parse(&src).expect("generated inlined program parses")
}

/// Least-squares slope of `ln(micros)` over `ln(nodes)` for
/// `(nodes, micros)` pairs — the empirical scaling exponent of a sweep
/// along node count, the axis Sec. 4.5 frames its complexity claim in.
/// Pairs with a zero coordinate are skipped; NaN with fewer than two left.
pub fn fit_nodes_exponent(rows: impl IntoIterator<Item = (usize, u128)>) -> f64 {
    let points: Vec<(f64, f64)> = rows
        .into_iter()
        .filter(|&(nodes, micros)| nodes > 0 && micros > 0)
        .map(|(nodes, micros)| ((nodes as f64).ln(), (micros as f64).ln()))
        .collect();
    if points.len() < 2 {
        return f64::NAN;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::global::{optimize_with, GlobalConfig, GlobalResult};

    fn optimize_quietly(g: &FlowGraph) -> GlobalResult {
        let config = GlobalConfig {
            keep_snapshots: false,
            ..Default::default()
        };
        optimize_with(g, &config)
    }

    #[test]
    fn loop_nest_is_valid_and_scales() {
        let small = loop_nest(1, 1);
        let large = loop_nest(4, 6);
        assert_eq!(small.validate(), Ok(()));
        assert_eq!(large.validate(), Ok(()));
        assert!(large.instr_count() > small.instr_count());
        assert!(am_ir::analysis::is_reducible(&large));
    }

    #[test]
    fn diamond_chain_is_valid() {
        let g = diamond_chain(5, 3);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.node_count() >= 5 * 3);
    }

    #[test]
    fn nest_grid_is_valid_and_scales() {
        let small = nest_grid(2, 2, 2);
        let large = nest_grid(40, 2, 4);
        assert_eq!(small.validate(), Ok(()));
        assert_eq!(large.validate(), Ok(()));
        assert!(large.node_count() > 40 * 4);
        assert!(am_ir::analysis::is_reducible(&large));
    }

    #[test]
    fn nest_grid_rounds_stay_flat_as_copies_grow() {
        // The whole point of the family: 4x the program must not mean
        // more motion rounds, or XL rungs measure round count, not
        // solver throughput.
        let small = optimize_quietly(&nest_grid(5, 2, 4)).motion;
        let large = optimize_quietly(&nest_grid(20, 2, 4)).motion;
        assert!(small.converged && large.converged);
        assert!(
            large.rounds <= small.rounds + 1,
            "rounds grew with copies: {} -> {}",
            small.rounds,
            large.rounds
        );
    }

    #[test]
    fn wide_fan_is_valid_and_optimizes() {
        let g = wide_fan(64, 4);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.node_count() >= 64 + 3);
        assert!(optimize_quietly(&g).motion.converged);
    }

    #[test]
    fn inlined_program_is_valid_and_optimizes() {
        let g = inlined_program(64, 6);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.node_count() >= 64 * 3);
        assert!(optimize_quietly(&g).motion.converged);
    }

    #[test]
    fn loop_nest_optimizes_and_converges() {
        let g = loop_nest(3, 4);
        let motion = optimize_quietly(&g).motion;
        assert!(motion.converged);
        assert!(motion.rounds >= 2, "second-order chain needs rounds");
    }

    #[test]
    fn loop_nest_semantics_preserved_through_pipeline() {
        use am_core::global::optimize;
        use am_ir::interp::{run, Config};
        let g = loop_nest(2, 3);
        let opt = optimize(&g).program;
        for n in [1, 2, 4] {
            let cfg = Config::with_inputs(vec![("n", n), ("a", 7)]);
            let r0 = run(&g, &cfg);
            let r1 = run(&opt, &cfg);
            assert_eq!(r0.observable(), r1.observable(), "n={n}");
            assert!(r1.expr_evals <= r0.expr_evals, "n={n}");
        }
    }

    #[test]
    fn exponent_fit_on_synthetic_data() {
        let k = fit_nodes_exponent([(10usize, 100u128), (20, 400), (40, 1600)]);
        assert!((k - 2.0).abs() < 1e-9, "{k}");
    }
}

#[cfg(test)]
mod while_workload_tests {
    use super::*;
    use am_core::global::optimize;
    use am_ir::interp::{run, Config};

    #[test]
    fn while_workload_compiles_and_optimizes() {
        let g = while_workload(2, 3);
        assert_eq!(g.validate(), Ok(()));
        let opt = optimize(&g).program;
        for n in [1, 3] {
            let cfg = Config::with_inputs(vec![("n", n), ("base", 10)]);
            let a = run(&g, &cfg);
            let b = run(&opt, &cfg);
            assert_eq!(a.observable(), b.observable(), "n={n}");
            assert!(b.expr_evals <= a.expr_evals);
        }
    }
}
