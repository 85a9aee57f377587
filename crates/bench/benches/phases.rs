//! Per-phase cost breakdown on a representative structured workload,
//! including the Tables 1–3 analyses in isolation — the ablation the
//! DESIGN.md inventory calls out. Plain wall-clock harness.

use am_bench::timer::{bench, iters_from_env};
use am_bench::workloads::loop_nest;
use am_core::{flush, hoist, init, motion, rae};
use am_dfa::{solve, Confluence, Direction, PointGraph, Problem};
use am_ir::PatternUniverse;
use std::hint::black_box;

fn main() {
    let iters = iters_from_env(100);
    println!("== phases ==");
    let base = loop_nest(3, 4);
    let mut prepared = base.clone();
    prepared.split_critical_edges();
    init::initialize(&mut prepared);

    bench("initialization", iters, || {
        let mut g = base.clone();
        g.split_critical_edges();
        black_box(init::initialize(&mut g));
    });
    bench("analysis_rae_table2", iters, || {
        black_box(rae::redundant_locs(&prepared));
    });
    bench("analysis_hoist_table1", iters, || {
        black_box(hoist::analyze_hoisting(&prepared));
    });
    bench("motion_fixpoint", iters, || {
        let mut g = prepared.clone();
        black_box(motion::assignment_motion(&mut g));
    });
    // Flush on the stabilized program (Table 3).
    let mut stabilized = prepared.clone();
    motion::assignment_motion(&mut stabilized);
    bench("analysis_flush_table3", iters, || {
        let mut g = stabilized.clone();
        black_box(flush::final_flush(&mut g));
    });

    // Ablation: full pipeline vs pipeline without the flush phase.
    println!("== ablation ==");
    for (label, with_flush) in [
        ("pipeline/with_flush", true),
        ("pipeline/without_flush", false),
    ] {
        bench(label, iters, || {
            let mut g = base.clone();
            g.split_critical_edges();
            init::initialize(&mut g);
            motion::assignment_motion(&mut g);
            if with_flush {
                flush::final_flush(&mut g);
            }
            black_box(g);
        });
    }

    // The bare fixpoint solver on a wide Table 2 universe.
    println!("== solver ==");
    let wide = loop_nest(6, 10);
    let mut wide_init = wide.clone();
    wide_init.split_critical_edges();
    init::initialize(&mut wide_init);
    let universe = PatternUniverse::collect(&wide_init);
    let pg = PointGraph::build(&wide_init);
    let mut problem = Problem::new(
        Direction::Forward,
        Confluence::Must,
        pg.len(),
        universe.assign_count(),
    );
    for point in pg.points() {
        if let Some(instr) = pg.instr(point) {
            for (i, pat) in universe.assign_patterns() {
                if pat.executed_by(instr) {
                    problem.gen[point.index()].insert(i);
                }
                if !pat.transparent_for(instr) {
                    problem.kill[point.index()].insert(i);
                }
            }
        }
    }
    bench("sequential", iters, || {
        black_box(solve(pg.succs(), pg.preds(), &problem));
    });
}
