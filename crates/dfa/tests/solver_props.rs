//! Properties of the fixed-point solver on random point graphs:
//!
//! * the returned solution **is** a fixed point of the equations;
//! * it is extremal (greatest for must, least for may), checked against a
//!   naive round-robin reference solver;
//! * per-point facts are consistent with path semantics on acyclic graphs;
//! * the scheduled and seeded (incremental) solvers are bit-identical to
//!   the naive reference on all of the classic analyses, over the shared
//!   80-program corpus plus 200 extra seeded random programs;
//! * the block engine (`am_dfa::blocks`), which composes each block's rows,
//!   solves over blocks and streams the facts back, lands on the same
//!   facts at every program point as the point-level statement below,
//!   over the same programs, the two XL shapes, and the corpus with its
//!   critical edges split (whose empty blocks have pass-through points).
//!
//! Randomized via `am_ir::rng::SplitMix64`; every case is reproducible
//! from its printed case number or seed.

use am_bitset::BitSet;
use am_dfa::classic::{
    anticipated_expressions, available_expressions, live_variables,
    partially_available_expressions, reaching_copies,
};
use am_dfa::{
    solve, solve_scheduled, solve_seeded, Adjacency, Bits, BlockGraph, BlockSolution, Confluence,
    Direction, PatternMasks, PointFacts, PointGraph, Problem,
};
use am_ir::random::{
    corpus80, nest_grid, structured, unstructured, wide_fan, StructuredConfig, UnstructuredConfig,
};
use am_ir::rng::SplitMix64;
use am_ir::{reference_universe, AssignPattern, FlowGraph, Instr, PatternUniverse, Term};

/// A random DAG plus optional back edges over `n` points.
#[derive(Clone, Debug)]
struct RandomFlow {
    succs: Adjacency,
    preds: Adjacency,
}

fn random_flow(n: usize, edges: &[(usize, usize)], back_edges: bool) -> RandomFlow {
    let mut succs = vec![Vec::new(); n];
    let mut preds = vec![Vec::new(); n];
    // Skeleton chain keeps everything connected.
    for i in 0..n - 1 {
        succs[i].push(i + 1);
        preds[i + 1].push(i);
    }
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        let (from, to) = if a < b || back_edges { (a, b) } else { (b, a) };
        if !succs[from].contains(&to) {
            succs[from].push(to);
            preds[to].push(from);
        }
    }
    RandomFlow {
        succs: Adjacency::from_lists(&succs),
        preds: Adjacency::from_lists(&preds),
    }
}

fn random_problem(
    flow: &RandomFlow,
    universe: usize,
    direction: Direction,
    confluence: Confluence,
    gen_bits: &[(usize, usize)],
    kill_bits: &[(usize, usize)],
) -> Problem {
    let n = flow.succs.len();
    let mut p = Problem::new(direction, confluence, n, universe);
    for &(point, bit) in gen_bits {
        p.gen[point % n].insert(bit % universe);
    }
    for &(point, bit) in kill_bits {
        p.kill[point % n].insert(bit % universe);
    }
    p
}

fn pairs(rng: &mut SplitMix64, max_len: usize, a: usize, b: usize) -> Vec<(usize, usize)> {
    let n = rng.gen_range(0..max_len);
    (0..n)
        .map(|_| (rng.gen_range(0..a), rng.gen_range(0..b)))
        .collect()
}

/// Naive reference: iterate all points round-robin until nothing changes.
fn reference_solve(flow: &RandomFlow, p: &Problem) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = flow.succs.len();
    let top = match p.confluence {
        Confluence::Must => BitSet::full(p.universe),
        Confluence::May => BitSet::new(p.universe),
    };
    let mut input = vec![top.clone(); n];
    let mut output = vec![top; n];
    let (upstream, _) = match p.direction {
        Direction::Forward => (&flow.preds, &flow.succs),
        Direction::Backward => (&flow.succs, &flow.preds),
    };
    loop {
        let mut changed = false;
        for point in 0..n {
            let mut merged = if upstream[point].is_empty() {
                p.boundary.clone()
            } else {
                match p.confluence {
                    Confluence::Must => {
                        let mut acc = BitSet::full(p.universe);
                        for &q in &upstream[point] {
                            acc.intersect_with(&output[q as usize]);
                        }
                        acc
                    }
                    Confluence::May => {
                        let mut acc = BitSet::new(p.universe);
                        for &q in &upstream[point] {
                            acc.union_with(&output[q as usize]);
                        }
                        acc
                    }
                }
            };
            changed |= input[point].copy_from(&merged);
            merged.difference_with(&p.kill[point]);
            merged.union_with(&p.gen[point]);
            changed |= output[point].copy_from(&merged);
        }
        if !changed {
            break;
        }
    }
    match p.direction {
        Direction::Forward => (input, output),
        Direction::Backward => (output, input),
    }
}

#[test]
fn worklist_matches_round_robin_reference() {
    let mut rng = SplitMix64::new(0xDFA_001);
    for case in 0..128 {
        let n = rng.gen_range(2..14usize);
        let universe = rng.gen_range(1..20usize);
        let edges = pairs(&mut rng, 16, 14, 14);
        let back = rng.gen_bool(0.5);
        let gen_bits = pairs(&mut rng, 20, 14, 20);
        let kill_bits = pairs(&mut rng, 20, 14, 20);
        let direction = if rng.gen_bool(0.5) {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let confluence = if rng.gen_bool(0.5) {
            Confluence::Must
        } else {
            Confluence::May
        };
        let flow = random_flow(n, &edges, back);
        let p = random_problem(
            &flow, universe, direction, confluence, &gen_bits, &kill_bits,
        );
        let sol = solve(&flow.succs, &flow.preds, &p);
        let (ref_before, ref_after) = reference_solve(&flow, &p);
        for point in 0..n {
            assert_eq!(
                &sol.before[point], &ref_before[point],
                "case {case} before at {point}"
            );
            assert_eq!(
                &sol.after[point], &ref_after[point],
                "case {case} after at {point}"
            );
        }
    }
}

#[test]
fn solution_is_a_fixed_point() {
    let mut rng = SplitMix64::new(0xDFA_002);
    for case in 0..128 {
        let n = rng.gen_range(2..14usize);
        let universe = rng.gen_range(1..20usize);
        let edges = pairs(&mut rng, 16, 14, 14);
        let gen_bits = pairs(&mut rng, 20, 14, 20);
        let kill_bits = pairs(&mut rng, 20, 14, 20);
        let confluence = if rng.gen_bool(0.5) {
            Confluence::Must
        } else {
            Confluence::May
        };
        let flow = random_flow(n, &edges, true);
        let p = random_problem(
            &flow,
            universe,
            Direction::Forward,
            confluence,
            &gen_bits,
            &kill_bits,
        );
        let sol = solve(&flow.succs, &flow.preds, &p);
        for point in 0..n {
            // before = merge over preds (or boundary).
            let expected_before = if flow.preds[point].is_empty() {
                p.boundary.clone()
            } else {
                match confluence {
                    Confluence::Must => {
                        let mut acc = BitSet::full(universe);
                        for &q in &flow.preds[point] {
                            acc.intersect_with(&sol.after[q as usize]);
                        }
                        acc
                    }
                    Confluence::May => {
                        let mut acc = BitSet::new(universe);
                        for &q in &flow.preds[point] {
                            acc.union_with(&sol.after[q as usize]);
                        }
                        acc
                    }
                }
            };
            assert_eq!(
                &sol.before[point], &expected_before,
                "case {case} point {point}"
            );
            // after = gen ∪ (before ∖ kill).
            let mut expected_after = sol.before[point].clone();
            expected_after.difference_with(&p.kill[point]);
            expected_after.union_with(&p.gen[point]);
            assert_eq!(
                &sol.after[point], &expected_after,
                "case {case} point {point}"
            );
        }
    }
}

#[test]
fn acyclic_forward_may_equals_reachability() {
    let mut rng = SplitMix64::new(0xDFA_003);
    for case in 0..128 {
        let n = rng.gen_range(2..12usize);
        let universe = rng.gen_range(1..8usize);
        let edges = pairs(&mut rng, 12, 12, 12);
        let gen_bits = {
            let len = rng.gen_range(1..8usize);
            (0..len)
                .map(|_| (rng.gen_range(0..12usize), rng.gen_range(0..8usize)))
                .collect::<Vec<_>>()
        };
        // On a DAG with no kills, a forward-may fact holds after p iff some
        // point generating it reaches p (reflexively).
        let flow = random_flow(n, &edges, false);
        let p = random_problem(
            &flow,
            universe,
            Direction::Forward,
            Confluence::May,
            &gen_bits,
            &[],
        );
        let sol = solve(&flow.succs, &flow.preds, &p);
        // Reachability closure per bit.
        for bit in 0..universe {
            let mut holds_after = vec![false; n];
            for point in 0..n {
                // Topological order: skeleton guarantees index order works
                // for the forward direction (all extra edges go forward).
                let incoming = flow.preds[point].iter().any(|&q| holds_after[q as usize]);
                holds_after[point] = p.gen[point].contains(bit) || incoming;
                assert_eq!(
                    sol.after[point].contains(bit),
                    holds_after[point],
                    "case {case} bit {bit} point {point}"
                );
            }
        }
    }
}

/// The point-level statement of the expression systems: per point, gen =
/// computed occurrences, kill = patterns mentioning the defined variable;
/// with `kill_removes_gen`, an instruction that both computes and kills a
/// pattern does not generate it.
fn expr_problem(
    pg: &PointGraph<'_>,
    universe: &PatternUniverse,
    direction: Direction,
    confluence: Confluence,
    kill_removes_gen: bool,
) -> Problem {
    let masks = PatternMasks::build(universe, pg.graph().pool().len());
    let mut p = Problem::new(direction, confluence, pg.len(), universe.expr_count());
    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        let idx = point.index();
        instr.for_each_expr_occurrence(|occ| {
            if let Some(i) = universe.expr_id(&occ) {
                p.gen[idx].insert(i);
            }
        });
        if let Some(d) = instr.def() {
            let mentions = masks.expr_mentions(d);
            p.kill[idx].union_with(mentions);
            if kill_removes_gen {
                p.gen[idx].difference_with(mentions);
            }
        }
    }
    p
}

/// The point-level statement of liveness: gen = uses, kill = the def.
fn live_variables_problem(pg: &PointGraph<'_>) -> Problem {
    let vars = pg.graph().pool().len();
    let mut p = Problem::new(Direction::Backward, Confluence::May, pg.len(), vars);
    for point in pg.points() {
        if let Some(instr) = pg.instr(point) {
            let idx = point.index();
            instr.for_each_use(|v| {
                p.gen[idx].insert(v.index());
            });
            if let Some(d) = instr.def() {
                p.kill[idx].insert(d.index());
            }
        }
    }
    p
}

/// The point-level statement of reaching copies: a copy generates its own
/// pattern and kills every other copy reading or writing its target.
fn reaching_copies_problem(pg: &PointGraph<'_>, universe: &PatternUniverse) -> Problem {
    let masks = PatternMasks::build(universe, pg.graph().pool().len());
    let (n, ap) = (pg.len(), universe.assign_count());
    let mut p = Problem::new(Direction::Forward, Confluence::Must, n, ap);
    for point in pg.points() {
        let Some(instr) = pg.instr(point) else {
            continue;
        };
        let idx = point.index();
        let own = match instr {
            Instr::Assign { lhs, rhs } if matches!(rhs, Term::Operand(_)) => {
                universe.assign_id(&AssignPattern::new(*lhs, *rhs))
            }
            _ => None,
        };
        if let Some(i) = own {
            p.gen[idx].insert(i);
        }
        if let Some(d) = instr.def() {
            let kill = &mut p.kill[idx];
            kill.union_with(masks.assign_lhs(d));
            kill.union_with(masks.assign_mentions(d));
            kill.intersect_with(masks.trivial_assigns());
            if let Some(i) = own {
                kill.remove(i);
            }
        }
    }
    p
}

/// The facts of a block-level solve at every program point of `g`, in
/// point order, streamed from the block boundaries.
fn point_rows<G: Bits, K: Bits>(
    g: &FlowGraph,
    blocks: &BlockSolution<G, K>,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let (mut before, mut after) = (Vec::new(), Vec::new());
    let mut facts = PointFacts::default();
    for n in g.nodes() {
        blocks.facts(g, n, &mut facts);
        for j in 0..facts.points() {
            before.push(facts.before(j).clone());
            after.push(facts.after(j).clone());
        }
    }
    (before, after)
}

/// Per-point facts of one analysis, entry then exit.
type PointRows = (Vec<BitSet>, Vec<BitSet>);

/// The four classic analyses of the paper's baselines — availability,
/// anticipability, liveness, reaching copies — plus partial availability,
/// so every direction × confluence combination is exercised, and one
/// forward system with overlapping gen and kill rows: each as its
/// point-level problem, and as the block engine's facts at every point.
fn classic_problems(
    g: &FlowGraph,
    pg: &PointGraph<'_>,
    universe: &PatternUniverse,
) -> Vec<(&'static str, Problem, PointRows)> {
    let (fwd, bwd) = (Direction::Forward, Direction::Backward);
    let (must, may) = (Confluence::Must, Confluence::May);
    let blocks = BlockGraph::build(g);
    vec![
        (
            "available",
            expr_problem(pg, universe, fwd, must, true),
            point_rows(g, &available_expressions(g, &blocks, universe)),
        ),
        (
            "anticipated",
            expr_problem(pg, universe, bwd, must, false),
            point_rows(g, &anticipated_expressions(g, &blocks, universe)),
        ),
        (
            "partially-available",
            expr_problem(pg, universe, fwd, may, true),
            point_rows(g, &partially_available_expressions(g, &blocks, universe)),
        ),
        (
            "live",
            live_variables_problem(pg),
            point_rows(g, &live_variables(g, &blocks)),
        ),
        (
            "reaching-copies",
            reaching_copies_problem(pg, universe),
            point_rows(g, &reaching_copies(g, &blocks, universe)),
        ),
        // A forward system whose rows may generate what they kill (`x :=
        // x+1` computes and kills x+1), which the analyses above never
        // state: the row applies its kill before its gen.
        (
            "computed-forward",
            expr_problem(pg, universe, fwd, must, false),
            point_rows(g, &computed_forward(g, &blocks, universe)),
        ),
    ]
}

/// The forward must system with the anticipability rows (gen = computed
/// occurrences, kept when the instruction also kills them).
fn computed_forward(
    g: &FlowGraph,
    blocks: &BlockGraph,
    universe: &PatternUniverse,
) -> BlockSolution<BitSet, BitSet> {
    let masks = PatternMasks::build(universe, g.pool().len());
    let ep = universe.expr_count();
    BlockSolution::solve(
        g,
        blocks,
        Direction::Forward,
        Confluence::Must,
        ep,
        |instr| {
            let (mut gen, mut kill) = (BitSet::new(ep), BitSet::new(ep));
            instr.for_each_expr_occurrence(|occ| {
                gen.extend(universe.expr_id(&occ));
            });
            if let Some(d) = instr.def() {
                kill.union_with(masks.expr_mentions(d));
            }
            (gen, kill)
        },
    )
}

/// Scheduling and warm seeding are pure performance devices: the fixed
/// point of a gen/kill system is unique per extremum, so every strategy
/// must land on identical facts. Checks the scheduled solver and a
/// full-seed warm restart of `solve_seeded` against the naive reference on
/// every classic analysis over `g`, and the block engine's facts at every
/// point.
fn check_classic_equivalence(name: &str, g: &FlowGraph) {
    let pg = PointGraph::build(g);
    let universe = PatternUniverse::collect(g);
    let flow = RandomFlow {
        succs: pg.succs().clone(),
        preds: pg.preds().clone(),
    };
    let every_point: Vec<usize> = (0..pg.len()).collect();
    for (analysis, problem, (blocks_before, blocks_after)) in classic_problems(g, &pg, &universe) {
        let (ref_before, ref_after) = reference_solve(&flow, &problem);
        assert_eq!(
            blocks_before, ref_before,
            "{name}/{analysis}: block-engine before-facts diverge from naive"
        );
        assert_eq!(
            blocks_after, ref_after,
            "{name}/{analysis}: block-engine after-facts diverge from naive"
        );
        let scheduled = solve_scheduled(pg.succs(), pg.preds(), &problem, pg.schedule(), None);
        assert_eq!(
            scheduled.before, ref_before,
            "{name}/{analysis}: scheduled before-facts diverge from naive"
        );
        assert_eq!(
            scheduled.after, ref_after,
            "{name}/{analysis}: scheduled after-facts diverge from naive"
        );
        // Recycled buffers are reinitialized: a cold solve into the
        // converged facts of the same problem lands on them again.
        let recycled = solve_scheduled(
            pg.succs(),
            pg.preds(),
            &problem,
            pg.schedule(),
            Some(scheduled.clone()),
        );
        assert_eq!(
            (&recycled.before, &recycled.after, recycled.iterations),
            (&scheduled.before, &scheduled.after, scheduled.iterations),
            "{name}/{analysis}: recycled buffers change the solve"
        );
        // Warm restart from the converged facts with every point dirty:
        // one no-op sweep over a solved system, identical fixed point.
        let warm = solve_seeded(
            pg.succs(),
            pg.preds(),
            &problem,
            pg.schedule(),
            scheduled.clone(),
            &every_point,
        );
        assert_eq!(
            warm.before, ref_before,
            "{name}/{analysis}: seeded before-facts diverge from naive"
        );
        assert_eq!(
            warm.after, ref_after,
            "{name}/{analysis}: seeded after-facts diverge from naive"
        );
    }
}

/// Interned-vs-structural differential for the pattern universe: the
/// arena-backed `PatternUniverse::collect` must enumerate exactly the
/// patterns the naive linear-scan `reference_universe` finds — same
/// content, same first-occurrence order, both for assignment patterns and
/// for the expression universe the classic gen/kill systems are built
/// over. Any divergence here would silently re-index every bit vector.
fn check_universe_equivalence(name: &str, g: &FlowGraph) {
    let interned = PatternUniverse::collect(g);
    let (ref_assigns, ref_exprs) = reference_universe(g);
    let assigns: Vec<_> = interned.assign_patterns().map(|(_, p)| p).collect();
    assert_eq!(
        assigns, ref_assigns,
        "{name}: assign-pattern universe diverges"
    );
    let exprs: Vec<_> = interned.expr_patterns().map(|(_, t)| t).collect();
    assert_eq!(exprs, ref_exprs, "{name}: expression universe diverges");
    for (i, t) in ref_exprs.iter().enumerate() {
        assert_eq!(interned.expr_id(t), Some(i), "{name}: expr id lookup {i}");
    }
    for (i, p) in ref_assigns.iter().enumerate() {
        assert_eq!(
            interned.assign_id(p),
            Some(i),
            "{name}: assign id lookup {i}"
        );
    }
    interned
        .arena()
        .verify()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn classic_analyses_match_naive_reference_on_the_corpus() {
    for (name, g) in corpus80() {
        check_classic_equivalence(&name, &g);
        check_universe_equivalence(&name, &g);
    }
}

#[test]
fn block_engine_matches_the_point_level_statement_on_split_and_xl_programs() {
    let mut programs: Vec<(String, FlowGraph)> = vec![
        ("nest_grid(20,2,8)".into(), nest_grid(20, 2, 8)),
        ("wide_fan(100,4)".into(), wide_fan(100, 4)),
    ];
    programs.extend(corpus80().into_iter().map(|(name, mut g)| {
        g.split_critical_edges();
        (format!("{name}/split"), g)
    }));
    let mut empty_blocks = 0;
    for (name, g) in &programs {
        check_classic_equivalence(name, g);
        empty_blocks += g.nodes().filter(|&n| g.ids(n).is_empty()).count();
    }
    assert!(empty_blocks > 0, "some pass-through point was compared");
}

#[test]
fn classic_analyses_match_naive_reference_on_random_graphs() {
    // 200 programs beyond the corpus: 100 structured (reducible, nested
    // loops) and 100 unstructured (random extra edges, often irreducible),
    // seeded apart from the corpus seed ranges.
    for seed in 1000..1100u64 {
        let mut rng = SplitMix64::new(seed);
        let g = structured(
            &mut rng,
            &StructuredConfig {
                allow_div: seed % 2 == 0,
                max_depth: 2 + (seed as usize % 3),
                ..Default::default()
            },
        );
        check_classic_equivalence(&format!("structured/{seed}"), &g);
        check_universe_equivalence(&format!("structured/{seed}"), &g);
    }
    for seed in 2000..2100u64 {
        let mut rng = SplitMix64::new(seed);
        let g = unstructured(
            &mut rng,
            &UnstructuredConfig {
                nodes: 4 + (seed as usize % 16),
                extra_edges: 1 + (seed as usize % 10),
                max_instrs: 4,
                num_vars: 6,
                allow_div: seed % 3 == 0,
            },
        );
        check_classic_equivalence(&format!("unstructured/{seed}"), &g);
        check_universe_equivalence(&format!("unstructured/{seed}"), &g);
    }
}

#[test]
fn worklist_iteration_count_is_bounded() {
    let mut rng = SplitMix64::new(0xDFA_004);
    for case in 0..128 {
        let n = rng.gen_range(2..14usize);
        let universe = rng.gen_range(1..20usize);
        let edges = pairs(&mut rng, 16, 14, 14);
        let back = rng.gen_bool(0.5);
        let gen_bits = pairs(&mut rng, 20, 14, 20);
        let kill_bits = pairs(&mut rng, 20, 14, 20);
        let direction = if rng.gen_bool(0.5) {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let confluence = if rng.gen_bool(0.5) {
            Confluence::Must
        } else {
            Confluence::May
        };
        // Monotone gen/kill systems: every point's output changes at most
        // `universe` times after its first computation, and each change
        // requeues at most `max_degree` neighbours. The worklist must stay
        // within n + n·universe·max_degree point updates.
        let flow = random_flow(n, &edges, back);
        let p = random_problem(
            &flow, universe, direction, confluence, &gen_bits, &kill_bits,
        );
        let sol = solve(&flow.succs, &flow.preds, &p);
        let max_degree = (0..n)
            .map(|p| flow.succs.degree(p).max(flow.preds.degree(p)))
            .max()
            .unwrap_or(0)
            .max(1);
        let bound = (n + n * universe * max_degree) as u64;
        assert!(
            sol.iterations <= bound,
            "case {case}: {} iterations exceeds bound {}",
            sol.iterations,
            bound
        );
    }
}
