//! Workload families and measurement for the complexity study (Sec. 4.5).
//!
//! The paper claims the global algorithm is "essentially quadratic" for
//! realistic structured programs and up to fourth order in the unrestricted
//! worst case. [`structured_sweep`]/[`unstructured_sweep`] regenerate that
//! study: program families swept over size, measuring wall time, assignment
//! motion rounds and total data-flow solver iterations.

use std::fmt::Write as _;
use std::time::Instant;

use am_core::global::{optimize_with, GlobalConfig};
use am_ir::random::SplitMix64;
pub use am_ir::random::{nest_grid, wide_fan};
use am_ir::random::{unstructured, UnstructuredConfig};
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
/// the `am-lang` frontend (parser + 3-address lowering), so the sweep also
/// exercises the full stack.
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

/// One measured data point of the complexity study.
#[derive(Clone, Debug)]
pub struct ComplexityRow {
    /// Workload label.
    pub label: String,
    /// Nodes before optimization.
    pub nodes: usize,
    /// Instructions before optimization.
    pub instrs: usize,
    /// Wall time of the full pipeline, in microseconds.
    pub micros: u128,
    /// Assignment-motion rounds until stabilization.
    pub motion_rounds: usize,
    /// Total data-flow solver iterations across all phases.
    pub solver_iterations: u64,
    /// Whether the motion phase converged within budget.
    pub converged: bool,
}

/// Runs the full pipeline on `g` and records the complexity metrics.
pub fn measure_complexity(label: &str, g: &FlowGraph) -> ComplexityRow {
    let config = GlobalConfig {
        keep_snapshots: false,
        ..Default::default()
    };
    let start = Instant::now();
    let result = optimize_with(g, &config);
    let micros = start.elapsed().as_micros();
    ComplexityRow {
        label: label.to_owned(),
        nodes: g.node_count(),
        instrs: g.instr_count(),
        micros,
        motion_rounds: result.motion.rounds,
        solver_iterations: result.motion.iterations + result.flush.iterations,
        converged: result.motion.converged,
    }
}

/// The structured sweep: loop nests of growing depth and width.
pub fn structured_sweep() -> Vec<ComplexityRow> {
    let mut rows = Vec::new();
    for (depth, width) in [
        (1, 2),
        (2, 2),
        (2, 4),
        (3, 4),
        (4, 4),
        (4, 8),
        (6, 8),
        (8, 8),
    ] {
        let g = loop_nest(depth, width);
        rows.push(measure_complexity(&format!("nest d={depth} w={width}"), &g));
    }
    for sections in [2, 4, 8, 16, 32] {
        let g = diamond_chain(sections, 4);
        rows.push(measure_complexity(&format!("diamonds s={sections}"), &g));
    }
    for (bodies, chain) in [(1, 3), (2, 3), (4, 3), (4, 6), (8, 6)] {
        let g = while_workload(bodies, chain);
        rows.push(measure_complexity(
            &format!("whilelang b={bodies} c={chain}"),
            &g,
        ));
    }
    rows
}

/// The unstructured sweep: random graphs of growing node count.
pub fn unstructured_sweep() -> Vec<ComplexityRow> {
    let mut rows = Vec::new();
    for nodes in [8, 16, 32, 64, 128] {
        let mut rng = SplitMix64::new(nodes as u64);
        let g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes,
                extra_edges: nodes / 2,
                max_instrs: 4,
                num_vars: 6,
                allow_div: false,
            },
        );
        rows.push(measure_complexity(&format!("random n={nodes}"), &g));
    }
    rows
}

/// A deterministic corpus of in-memory jobs for the batch pipeline:
/// `unique` distinct random structured programs, each repeated `dups`
/// times under different names, shuffled into an interleaved order. The
/// duplicates make the content-addressed cache earn its keep.
pub fn pipeline_corpus(unique: usize, dups: usize) -> Vec<am_pipeline::Job> {
    use am_ir::random::{structured, StructuredConfig};
    use am_ir::text::to_text;
    let unique = unique.max(1);
    let dups = dups.max(1);
    let mut jobs = Vec::with_capacity(unique * dups);
    for copy in 0..dups {
        for idx in 0..unique {
            let mut rng = SplitMix64::new(0xC0_6905 + idx as u64);
            let g = structured(&mut rng, &StructuredConfig::default());
            jobs.push(am_pipeline::Job::from_source(
                format!("mem/{idx}_{copy}.ir"),
                am_lang::SourceKind::Ir,
                to_text(&g),
            ));
        }
    }
    jobs
}

/// One data point of the pipeline throughput study.
#[derive(Clone, Debug)]
pub struct ThroughputRow {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Jobs served from the result cache.
    pub cache_hits: usize,
    /// Batch wall time in microseconds.
    pub micros: u128,
    /// Jobs per second.
    pub jobs_per_sec: f64,
}

/// Runs the corpus through `am_pipeline` once per worker count and
/// reports throughput — the `pipeline_throughput` workload.
pub fn pipeline_throughput(
    unique: usize,
    dups: usize,
    worker_counts: &[usize],
) -> Vec<ThroughputRow> {
    let jobs = pipeline_corpus(unique, dups);
    worker_counts
        .iter()
        .map(|&workers| {
            let pipeline = am_pipeline::Pipeline::new(am_pipeline::PipelineConfig {
                workers: Some(workers),
                ..Default::default()
            });
            let report = pipeline.run(&jobs);
            let secs = report.wall.as_secs_f64();
            ThroughputRow {
                workers,
                jobs: report.jobs.len(),
                cache_hits: report.cache_hits(),
                micros: report.wall.as_micros(),
                jobs_per_sec: if secs > 0.0 {
                    jobs.len() as f64 / secs
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

/// Least-squares slope of `ln(time)` over `ln(size)` — the empirical
/// scaling exponent of a sweep.
pub fn fit_exponent(rows: &[ComplexityRow]) -> f64 {
    fit_log_log(
        rows.iter()
            .filter(|r| r.micros > 0 && r.instrs > 0)
            .map(|r| ((r.instrs as f64).ln(), (r.micros as f64).ln()))
            .collect(),
    )
}

/// Fitted exponent of wall time against *node count* — the axis the XL
/// ladder scales along (Sec. 4.5 frames the complexity claim per node).
pub fn fit_nodes_exponent(rows: &[ComplexityRow]) -> f64 {
    fit_log_log(
        rows.iter()
            .filter(|r| r.micros > 0 && r.nodes > 0)
            .map(|r| ((r.nodes as f64).ln(), (r.micros as f64).ln()))
            .collect(),
    )
}

fn fit_log_log(points: Vec<(f64, f64)>) -> f64 {
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
        let small = measure_complexity("s", &nest_grid(5, 2, 4));
        let large = measure_complexity("l", &nest_grid(20, 2, 4));
        assert!(small.converged && large.converged);
        assert!(
            large.motion_rounds <= small.motion_rounds + 1,
            "rounds grew with copies: {} -> {}",
            small.motion_rounds,
            large.motion_rounds
        );
    }

    #[test]
    fn wide_fan_is_valid_and_optimizes() {
        let g = wide_fan(64, 4);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.node_count() >= 64 + 3);
        let row = measure_complexity("fan", &g);
        assert!(row.converged);
    }

    #[test]
    fn inlined_program_is_valid_and_optimizes() {
        let g = inlined_program(64, 6);
        assert_eq!(g.validate(), Ok(()));
        assert!(g.node_count() >= 64 * 3);
        let row = measure_complexity("inline", &g);
        assert!(row.converged);
    }

    #[test]
    fn loop_nest_optimizes_and_converges() {
        let g = loop_nest(3, 4);
        let row = measure_complexity("t", &g);
        assert!(row.converged);
        assert!(row.motion_rounds >= 2, "second-order chain needs rounds");
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
        let rows: Vec<ComplexityRow> = [(10usize, 100u128), (20, 400), (40, 1600)]
            .into_iter()
            .map(|(instrs, micros)| ComplexityRow {
                label: "synthetic".into(),
                nodes: 1,
                instrs,
                micros,
                motion_rounds: 1,
                solver_iterations: 1,
                converged: true,
            })
            .collect();
        let k = fit_exponent(&rows);
        assert!((k - 2.0).abs() < 1e-9, "{k}");
    }
}

#[cfg(test)]
mod pipeline_workload_tests {
    use super::*;

    #[test]
    fn corpus_duplicates_hit_the_cache() {
        let rows = pipeline_throughput(4, 3, &[2]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].jobs, 12);
        // A duplicate in flight while its original is still optimizing on
        // the other worker misses (both then insert the same entry), so
        // each unique program is optimized at most `workers` times:
        // 12 jobs - 4 unique * 2 workers => at least 4 hits.
        assert!(rows[0].cache_hits >= 4, "{rows:?}");
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
