//! The motion loop's node-level Tables 1–2 against a naive `rae; aht` loop.
//!
//! `am_core::rae` and `am_core::hoist` solve both systems over blocks,
//! through the round caches of the motion context: composed Table 2 block
//! transfers with streamed per-instruction facts, cached Table 1 locals, a
//! warm-started hoistability solve and a fixed entry universe. This oracle
//! writes the loop out literally — Table 2 per instruction over a
//! `PointGraph`, Table 1 per block, local predicates read straight off the
//! pattern definitions, every system solved by the generic solver over a
//! universe collected afresh each round — and requires every round's
//! program to equal the motion loop's hook snapshot of that round, and the
//! streamed Table 2 facts to equal the point-level ones.

use am_bitset::BitSet;
use am_core::global::GlobalConfig;
use am_core::motion::{assignment_motion_with, MotionOrder};
use am_core::{hoist, init, rae};
use am_dfa::{node_adjacency, solve, Confluence, Direction, PointGraph, Problem};
use am_ir::random::{structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig};
use am_ir::text::{parse_with_mode, to_text, Mode};
use am_ir::{FlowGraph, Instr, Loc, PatternUniverse};

#[allow(dead_code)]
#[path = "../../bench/src/programs.rs"]
mod figures;

/// Table 2 per instruction point: `N-REDUNDANT*` at every point of `pg`.
fn point_redundancy(pg: &PointGraph<'_>, universe: &PatternUniverse) -> Vec<BitSet> {
    let ap = universe.assign_count();
    let mut p = Problem::new(Direction::Forward, Confluence::Must, pg.len(), ap);
    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        for (i, pat) in universe.assign_patterns() {
            // X-REDUNDANT = EXECUTED + ASS-TRANSP · N-REDUNDANT, with
            // self-referential patterns excluded.
            if pat.is_self_referential() || !pat.transparent_for(instr) {
                p.kill[point.index()].insert(i);
            } else if pat.executed_by(instr) {
                p.gen[point.index()].insert(i);
            }
        }
    }
    solve(pg.succs(), pg.preds(), &p).before
}

/// One literal elimination step; checks the streamed facts on the way.
fn naive_rae(g: &mut FlowGraph, what: &str) {
    let universe = PatternUniverse::collect(g);
    let pg = PointGraph::build(g);
    let before = point_redundancy(&pg, &universe);

    let analysis = rae::analyze_redundancy(g);
    for n in g.nodes() {
        let first = pg.first_of(n).index();
        let points = &before[first..=pg.last_of(n).index()];
        assert_eq!(
            analysis.block_facts(g, n),
            points,
            "{what}: streamed Table 2 facts of node {}\n{g:?}",
            g.label(n)
        );
        assert_eq!(analysis.solution.before[n.index()], before[first], "{what}");
    }

    let mut redundant: Vec<Loc> = Vec::new();
    for point in pg.points() {
        let (Some(instr), Some(loc)) = (pg.instr(point), pg.loc(point)) else {
            continue;
        };
        let hit = universe
            .assign_patterns()
            .any(|(i, pat)| pat.executed_by(instr) && before[point.index()].contains(i));
        if hit {
            redundant.push(loc);
        }
    }
    assert_eq!(rae::redundant_locs(g).0, redundant, "{what}");
    for n in g.nodes() {
        let doomed: Vec<usize> = redundant
            .iter()
            .filter(|l| l.node == n)
            .map(|l| l.index)
            .collect();
        let kept = g.instrs(n).enumerate();
        let kept = kept
            .filter(|(j, _)| !doomed.contains(j))
            .map(|(_, i)| i.clone());
        g.set_block(n, kept.collect());
    }
}

/// One literal Table 1 insertion step; checks the one-shot analysis on the
/// way.
fn naive_aht(g: &mut FlowGraph, what: &str) {
    let universe = PatternUniverse::collect(g);
    let (ap, nodes) = (universe.assign_count(), g.node_count());
    let mut loc_hoistable = vec![BitSet::new(ap); nodes];
    let mut loc_blocked = vec![BitSet::new(ap); nodes];
    let mut candidates: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes];
    for n in g.nodes() {
        let instrs: Vec<&Instr> = g.instrs(n).collect();
        for (i, pat) in universe.assign_patterns() {
            // The first occurrence no earlier instruction blocks.
            let stop = instrs
                .iter()
                .position(|ins| pat.executed_by(ins) || pat.blocked_by(ins));
            if let Some(idx) = stop.filter(|&idx| pat.executed_by(instrs[idx])) {
                loc_hoistable[n.index()].insert(i);
                candidates[n.index()].push((i, idx));
            }
            if instrs.iter().any(|ins| pat.blocked_by(ins)) {
                loc_blocked[n.index()].insert(i);
            }
        }
        candidates[n.index()].sort_by_key(|&(_, idx)| idx);
    }
    let (succs, preds) = node_adjacency(g);
    let mut p = Problem::new(Direction::Backward, Confluence::Must, nodes, ap);
    p.gen = loc_hoistable.clone();
    p.kill = loc_blocked.clone();
    let sol = solve(&succs, &preds, &p);
    let mut n_insert = vec![BitSet::new(ap); nodes];
    let mut x_insert = vec![BitSet::new(ap); nodes];
    for n in g.nodes() {
        let ni = n.index();
        for i in 0..ap {
            let frontier =
                n == g.start() || g.preds(n).iter().any(|m| !sol.after[m.index()].contains(i));
            if sol.before[ni].contains(i) && frontier {
                n_insert[ni].insert(i);
            }
            if sol.after[ni].contains(i) && loc_blocked[ni].contains(i) {
                x_insert[ni].insert(i);
            }
        }
    }

    let analysis = hoist::analyze_hoisting(g);
    assert_eq!(
        analysis.loc_hoistable, loc_hoistable,
        "{what}: LOC-HOISTABLE"
    );
    assert_eq!(analysis.loc_blocked, loc_blocked, "{what}: LOC-BLOCKED");
    for n in g.nodes() {
        assert_eq!(
            analysis.candidates(n),
            candidates[n.index()],
            "{what}: candidates"
        );
    }
    assert_eq!(
        analysis.hoistable.before, sol.before,
        "{what}: N-HOISTABLE*"
    );
    assert_eq!(analysis.hoistable.after, sol.after, "{what}: X-HOISTABLE*");
    assert_eq!(analysis.n_insert, n_insert, "{what}: N-INSERT");
    assert_eq!(analysis.x_insert, x_insert, "{what}: X-INSERT");

    // A fresh universe numbers patterns in first-occurrence order, the
    // order same-point insertions are emitted in.
    let instance = |i: usize| {
        let pat = universe.assign(i);
        Instr::Assign {
            lhs: pat.lhs,
            rhs: pat.rhs,
        }
    };
    for n in g.nodes() {
        let ni = n.index();
        let mut fresh: Vec<Instr> = n_insert[ni].iter().map(instance).collect();
        let removed: Vec<usize> = candidates[ni].iter().map(|&(_, idx)| idx).collect();
        let kept = g.instrs(n).enumerate();
        fresh.extend(
            kept.filter(|(j, _)| !removed.contains(j))
                .map(|(_, i)| i.clone()),
        );
        fresh.extend(x_insert[ni].iter().map(instance));
        g.set_block(n, fresh);
    }
}

/// Runs the naive loop beside the motion loop and compares them round by
/// round.
fn check_motion(g: &FlowGraph, what: &str) {
    let mut snapshots: Vec<String> = Vec::new();
    let mut motion = g.clone();
    let config = GlobalConfig::default();
    let stats = assignment_motion_with(&mut motion, &config, MotionOrder::RaeFirst, &mut |_, g| {
        snapshots.push(to_text(g))
    });
    assert!(stats.converged, "{what}");

    let mut naive = g.clone();
    for (r, snapshot) in snapshots.iter().enumerate() {
        let entry = to_text(&naive);
        let what = format!("{what} round {}", r + 1);
        naive_rae(&mut naive, &what);
        naive_aht(&mut naive, &what);
        let text = to_text(&naive);
        assert_eq!(&text, snapshot, "{what}: the motion loop diverges");
        assert_eq!(
            text == entry,
            r + 1 == snapshots.len(),
            "{what}: the loops disagree on convergence"
        );
    }
}

/// Checks `g` raw and after the initialization phase, both with critical
/// edges split.
fn check_raw_and_initialized(g: &FlowGraph, what: &str) {
    let mut g = g.clone();
    g.split_critical_edges();
    check_motion(&g, &format!("{what} raw"));
    init::initialize(&mut g);
    check_motion(&g, &format!("{what} initialized"));
}

#[test]
fn figure_programs_match_the_naive_loop() {
    let sources = [
        figures::FIG1,
        figures::FIG2,
        figures::FIG4,
        figures::FIG7,
        figures::FIG8,
        figures::FIG10,
        figures::FIG13,
        figures::FIG16,
        figures::FIG18,
    ];
    for (k, src) in sources.into_iter().enumerate() {
        // Fig. 18 is stated with a nested expression.
        let g = parse_with_mode(src, Mode::Decompose).unwrap();
        check_raw_and_initialized(&g, &format!("figure source {k}"));
    }
}

#[test]
fn random_programs_match_the_naive_loop() {
    for seed in 0..200 {
        let mut rng = SplitMix64::new(seed);
        let g = if seed % 2 == 0 {
            structured(&mut rng, &StructuredConfig::default())
        } else {
            unstructured(&mut rng, &UnstructuredConfig::default())
        };
        check_raw_and_initialized(&g, &format!("seed {seed}"));
    }
}
