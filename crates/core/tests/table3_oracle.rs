//! The block-level Table 3 solve against a naive instruction-level oracle.
//!
//! `am_core::flush` solves delayability and usability over blocks and
//! streams the per-instruction facts from the solved block boundaries.
//! This oracle states Table 3 literally — one point per instruction (one
//! pass-through point per empty block), local predicates read straight
//! off the definitions, both systems solved by the naive round-robin
//! solver of `am-dfa`'s test support — and requires every streamed fact to
//! agree with it.

use am_bitset::BitSet;
use am_core::flush::{analyze_flush, InstrFacts};
use am_core::{init, lcm, motion};
use am_dfa::{Confluence, Direction, Problem};
use am_ir::random::{structured, unstructured, SplitMix64, StructuredConfig, UnstructuredConfig};
use am_ir::text::parse;
use am_ir::{FlowGraph, Instr};

#[allow(dead_code)]
#[path = "../../dfa/tests/support/points.rs"]
mod points;

use points::PointGraph;

/// Checks every instruction's streamed facts of `g` against the
/// instruction-level solve.
fn check_against_points(g: &mut FlowGraph, what: &str) {
    let analysis = analyze_flush(g);
    let (universe, temps) = (&analysis.universe, &analysis.temps);
    let ep = universe.expr_count();
    let pg = PointGraph::build(g);
    let points = pg.len();
    let local = |instr: Option<&Instr>, pred: &dyn Fn(&Instr, usize) -> bool| {
        let mut set = BitSet::new(ep);
        if let Some(instr) = instr {
            set.extend((0..ep).filter(|&i| pred(instr, i)));
        }
        set
    };
    let is_inst: Vec<BitSet> = pg
        .points()
        .map(|p| {
            local(pg.instr(p), &|instr, i| {
                matches!(instr, Instr::Assign { lhs, rhs }
                    if *lhs == temps[i] && *rhs == universe.expr(i))
            })
        })
        .collect();
    let used: Vec<BitSet> = pg
        .points()
        .map(|p| local(pg.instr(p), &|instr, i| instr.uses(temps[i])))
        .collect();
    let blocked: Vec<BitSet> = pg
        .points()
        .map(|p| {
            local(pg.instr(p), &|instr, i| {
                instr
                    .def()
                    .is_some_and(|d| d == temps[i] || universe.expr(i).mentions(d))
            })
        })
        .collect();

    let mut delay = Problem::new(Direction::Forward, Confluence::Must, points, ep);
    delay.gen = is_inst.clone();
    for p in 0..points {
        delay.kill[p].union_with(&used[p]);
        delay.kill[p].union_with(&blocked[p]);
    }
    let (n_delay, x_delay) = pg.solve(&delay);
    let mut usable = Problem::new(Direction::Backward, Confluence::May, points, ep);
    usable.gen = used.clone();
    usable.kill = is_inst.clone();
    let (n_usable, x_usable) = pg.solve(&usable);

    for n in g.nodes() {
        let facts = analysis.block_facts(g, n);
        let first = pg.first_of(n).index();
        assert_eq!(facts.len(), pg.last_of(n).index() + 1 - first, "{what}");
        for (j, f) in facts.iter().enumerate() {
            let p = first + j;
            let expected = InstrFacts {
                is_inst: is_inst[p].clone(),
                used: used[p].clone(),
                blocked: blocked[p].clone(),
                n_delay: n_delay[p].clone(),
                x_delay: x_delay[p].clone(),
                n_usable: n_usable[p].clone(),
                x_usable: x_usable[p].clone(),
            };
            assert_eq!(
                *f,
                expected,
                "{what}: node {} instruction {j}\n{g:?}",
                g.label(n)
            );
        }
        // The block-level solutions are the facts at the block boundary.
        let (ni, last) = (n.index(), pg.last_of(n).index());
        let block_level = (&analysis.delay.before[ni], &analysis.delay.after[ni]);
        assert_eq!(block_level, (&n_delay[first], &x_delay[last]), "{what}");
        let block_level = (&analysis.usable.before[ni], &analysis.usable.after[ni]);
        assert_eq!(block_level, (&n_usable[first], &x_usable[last]), "{what}");
    }
}

/// Checks the stages the flush meets in practice: the initialized
/// program, the assignment-motion fixed point the global algorithm
/// flushes, and the busy-code-motion output lazy code motion flushes.
fn check_stages(orig: &FlowGraph, what: &str) {
    let mut g = orig.clone();
    g.split_critical_edges();
    init::initialize(&mut g);
    check_against_points(&mut g.clone(), &format!("{what} G_Init"));
    motion::assignment_motion(&mut g);
    check_against_points(&mut g, &format!("{what} G_AssMot"));
    let mut em = orig.clone();
    em.split_critical_edges();
    lcm::busy_expression_motion(&mut em);
    check_against_points(&mut em, &format!("{what} BCM"));
}

#[test]
fn running_example_streams_the_instruction_level_facts() {
    let g = parse(
        "start 1\nend 4\n\
         node 1 { y := c+d }\n\
         node 2 { branch x+z > y+i }\n\
         node 3 { y := c+d; x := y+z; i := i+x }\n\
         node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
         edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
    )
    .unwrap();
    check_stages(&g, "running example");
}

#[test]
fn empty_blocks_and_repeated_instances_match_the_oracle() {
    // Empty split-edge blocks, an instance re-initialized within one
    // block, a double use and a self-blocking assignment.
    let g = parse(
        "start s\nend e\n\
         node s { x := a+b; branch x > a+b }\n\
         node l { }\n\
         node r { a := a+b; y := a+b; y := a+b }\n\
         node e { out(x,y) }\n\
         edge s -> l, r\nedge l -> e\nedge r -> e",
    )
    .unwrap();
    check_stages(&g, "edge cases");
}

#[test]
fn random_programs_stream_the_instruction_level_facts() {
    for seed in 0..60 {
        let mut rng = SplitMix64::new(seed);
        let g = if seed % 2 == 0 {
            structured(&mut rng, &StructuredConfig::default())
        } else {
            unstructured(&mut rng, &UnstructuredConfig::default())
        };
        check_stages(&g, &format!("seed {seed}"));
    }
}
