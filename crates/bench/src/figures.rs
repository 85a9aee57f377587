//! Executable reproductions of every figure in the paper's evaluation.
//!
//! Each `fig*` function runs the relevant transformation(s) on the figure's
//! input program and returns a [`FigureReport`] with the before/after
//! programs (temporaries canonically renamed) and dynamic measurements on
//! corresponding runs. The `figures` binary prints all of them;
//! integration tests pin the load-bearing facts.

use am_core::global::optimize;
use am_core::lcm::{busy_expression_motion, lazy_expression_motion};
use am_core::motion::assignment_motion;
use am_core::restricted::restricted_assignment_motion;
use am_core::{copyprop, init};
use am_ir::alpha::canonical_text;
use am_ir::interp::{run, Config, Oracle, StopReason};
use am_ir::text::{parse, parse_with_mode, Mode};
use am_ir::FlowGraph;

use crate::programs;

/// One measured variant of a figure's program.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Variant label (e.g. "original", "EM only").
    pub label: String,
    /// Total expression evaluations over the run batch.
    pub expr_evals: u64,
    /// Total assignment executions over the run batch.
    pub assign_execs: u64,
    /// Total temporary-assignment executions over the run batch.
    pub temp_assigns: u64,
    /// Completed runs in the batch.
    pub runs: usize,
}

/// The reproduction of one figure.
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// Figure identifier, e.g. "fig05".
    pub id: &'static str,
    /// What the figure demonstrates.
    pub title: &'static str,
    /// The input program.
    pub before: String,
    /// The transformed program(s), labeled.
    pub after: Vec<(String, String)>,
    /// Dynamic measurements on corresponding runs.
    pub measurements: Vec<Measurement>,
    /// Observations worth pinning (asserted by the test suite).
    pub notes: Vec<String>,
}

/// Measures `g` over a batch of fixed oracles with the given inputs.
pub fn measure(label: &str, g: &FlowGraph, inputs: &[(String, i64)]) -> Measurement {
    let mut m = Measurement {
        label: label.to_owned(),
        expr_evals: 0,
        assign_execs: 0,
        temp_assigns: 0,
        runs: 0,
    };
    for seed in 0..32u64 {
        let cfg = Config {
            oracle: Oracle::random(seed.wrapping_mul(97).wrapping_add(13), 10),
            inputs: inputs.to_vec(),
            ..Config::default()
        };
        let r = run(g, &cfg);
        if r.stop == StopReason::ReachedEnd {
            m.runs += 1;
            m.expr_evals += r.expr_evals;
            m.assign_execs += r.assign_execs;
            m.temp_assigns += r.temp_assign_execs;
        }
    }
    m
}

fn split(src: &str) -> FlowGraph {
    let mut g = parse(src).expect("figure source parses");
    g.split_critical_edges();
    g
}

/// Fig. 1: expression motion shares the partially redundant `a+b`.
pub fn fig01_expression_motion() -> FigureReport {
    let original = parse(programs::FIG1).unwrap();
    let mut em = split(programs::FIG1);
    busy_expression_motion(&mut em);
    let inputs: Vec<(String, i64)> = vec![("a".into(), 2), ("b".into(), 3), ("y".into(), 1)];
    FigureReport {
        id: "fig01",
        title: "Expression motion (EM) shares a+b through a temporary",
        before: canonical_text(&original),
        after: vec![("EM (busy placement, Fig. 1b)".into(), canonical_text(&em))],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("EM", &em, &inputs),
        ],
        notes: vec![
            "a+b is evaluated once per run after EM".into(),
            "the assignments themselves remain".into(),
        ],
    }
}

/// Fig. 2: assignment motion hoists the whole assignment out of the loop.
pub fn fig02_assignment_motion() -> FigureReport {
    let original = parse(programs::FIG2).unwrap();
    let mut am = split(programs::FIG2);
    assignment_motion(&mut am);
    let inputs: Vec<(String, i64)> = vec![("a".into(), 2), ("b".into(), 3), ("y".into(), 1)];
    FigureReport {
        id: "fig02",
        title: "Assignment motion (AM) hoists x := a+b out of the loop",
        before: canonical_text(&original),
        after: vec![("AM (Fig. 2b)".into(), canonical_text(&am))],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("AM", &am, &inputs),
        ],
        notes: vec!["x := a+b occurs exactly once after AM".into()],
    }
}

/// Fig. 3: after the initialization transformation, AM subsumes EM.
pub fn fig03_uniform() -> FigureReport {
    let original = parse(programs::FIG1).unwrap();
    let mut g = split(programs::FIG1);
    init::initialize(&mut g);
    let initialized = canonical_text(&g);
    assignment_motion(&mut g);
    let inputs: Vec<(String, i64)> = vec![("a".into(), 2), ("b".into(), 3), ("y".into(), 1)];
    FigureReport {
        id: "fig03",
        title: "Initialization makes AM subsume EM (Fig. 3)",
        before: canonical_text(&original),
        after: vec![
            ("after initialization (Fig. 3a)".into(), initialized),
            ("after AM (Fig. 3b)".into(), canonical_text(&g)),
        ],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("init+AM", &g, &inputs),
        ],
        notes: vec!["AM on the initialized program achieves the EM effect".into()],
    }
}

/// Fig. 4 → 5 (with Figs. 12, 14, 15 as phase snapshots): the full
/// algorithm on the running example.
pub fn fig05_global() -> FigureReport {
    let original = parse(programs::FIG4).unwrap();
    let result = optimize(&original);
    let inputs = programs::fig4_inputs();
    FigureReport {
        id: "fig05",
        title: "Uniform EM & AM on the running example (Figs. 4, 5, 12, 14, 15)",
        before: canonical_text(&original),
        after: vec![
            (
                "after initialization (Fig. 12)".into(),
                canonical_text(result.after_init.as_ref().unwrap()),
            ),
            (
                "after assignment motion (Fig. 14)".into(),
                canonical_text(result.after_motion.as_ref().unwrap()),
            ),
            (
                "final (Fig. 5 / 15)".into(),
                canonical_text(&result.program),
            ),
        ],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("GlobAlg", &result.program, &inputs),
        ],
        notes: vec![
            format!(
                "assignment motion stabilized after {} rounds",
                result.motion.rounds
            ),
            "x := y+z left the loop; y := c+d eliminated; i := i+x and y+i untouched".into(),
        ],
    }
}

/// Fig. 6: the separate effects of EM and AM on the running example.
pub fn fig06_separate_effects() -> FigureReport {
    let original = parse(programs::FIG4).unwrap();
    let mut em = split(programs::FIG4);
    lazy_expression_motion(&mut em);
    let mut am = split(programs::FIG4);
    assignment_motion(&mut am);
    let full = optimize(&original).program;
    let inputs = programs::fig4_inputs();
    FigureReport {
        id: "fig06",
        title: "Separate effects: EM alone (Fig. 6a) and AM alone (Fig. 6b) both miss the loop-invariant assignment",
        before: canonical_text(&original),
        after: vec![
            ("EM only (Fig. 6a)".into(), canonical_text(&em)),
            ("AM only (Fig. 6b)".into(), canonical_text(&am)),
            ("uniform EM & AM (Fig. 5)".into(), canonical_text(&full)),
        ],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("EM only", &em, &inputs),
            measure("AM only", &am, &inputs),
            measure("uniform EM & AM", &full, &inputs),
        ],
        notes: vec![
            "neither EM nor AM alone removes x := y+z from the loop".into(),
            "the uniform algorithm evaluates the fewest expressions".into(),
        ],
    }
}

/// Fig. 7: motion across loops, including an irreducible construct, without
/// ever moving into a loop.
pub fn fig07_loops() -> FigureReport {
    let original = parse(programs::FIG7).unwrap();
    assert!(
        !am_ir::analysis::is_reducible(&original),
        "Fig. 7 is irreducible"
    );
    let mut am = split(programs::FIG7);
    assignment_motion(&mut am);
    let inputs: Vec<(String, i64)> = vec![
        ("u".into(), 1),
        ("v".into(), 2),
        ("y".into(), 3),
        ("z".into(), 4),
    ];
    FigureReport {
        id: "fig07",
        title: "Loops: hoisting across an irreducible construct, never into a loop (Fig. 7)",
        before: canonical_text(&original),
        after: vec![("AM (Fig. 7b)".into(), canonical_text(&am))],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("AM", &am, &inputs),
        ],
        notes: vec![
            "x := y+z from nodes 7, 9, 11 merged at node 6".into(),
            "node 6's instance stays (eliminating it would move code into the first loop)".into(),
            "the first loop's blocked occurrence is untouched".into(),
        ],
    }
}

/// Fig. 8/9: restricted vs. unrestricted assignment motion.
pub fn fig08_restricted() -> FigureReport {
    let original = parse(programs::FIG8).unwrap();
    let mut restricted = split(programs::FIG8);
    let rstats = restricted_assignment_motion(&mut restricted);
    let mut unrestricted = split(programs::FIG8);
    assignment_motion(&mut unrestricted);
    let inputs: Vec<(String, i64)> = vec![("y".into(), 3), ("z".into(), 4), ("p".into(), 1)];
    FigureReport {
        id: "fig08",
        title: "Restricted ('immediately profitable') AM fails where unrestricted AM succeeds (Figs. 8/9)",
        before: canonical_text(&original),
        after: vec![
            ("restricted AM (Fig. 8 — unchanged)".into(), canonical_text(&restricted)),
            ("unrestricted AM (Fig. 9b)".into(), canonical_text(&unrestricted)),
        ],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("restricted", &restricted, &inputs),
            measure("unrestricted", &unrestricted, &inputs),
        ],
        notes: vec![
            format!(
                "restricted accepted {} hoistings (rejected {})",
                rstats.accepted, rstats.rejected
            ),
            "unrestricted removes x := y+z from the join block".into(),
        ],
    }
}

/// Fig. 10: critical edge splitting.
pub fn fig10_critical_edges() -> FigureReport {
    let original = parse(programs::FIG10).unwrap();
    let mut splitg = original.clone();
    let count = splitg.split_critical_edges();
    let mut am = splitg.clone();
    assignment_motion(&mut am);
    let inputs: Vec<(String, i64)> = vec![("a".into(), 1), ("b".into(), 2), ("p".into(), 0)];
    FigureReport {
        id: "fig10",
        title: "Critical edges block motion until split by synthetic nodes (Fig. 10)",
        before: canonical_text(&original),
        after: vec![
            (format!("{count} edge(s) split"), canonical_text(&splitg)),
            ("AM on the split graph".into(), canonical_text(&am)),
        ],
        measurements: vec![
            measure("original", &original, &inputs),
            measure("AM after splitting", &am, &inputs),
        ],
        notes: vec![
            "the partially redundant x := a+b at node 3 is eliminated after splitting".into(),
        ],
    }
}

/// Fig. 13: hoisting candidates within a basic block.
pub fn fig13_candidates() -> FigureReport {
    let g = parse(programs::FIG13).unwrap();
    let analysis = am_core::hoist::analyze_hoisting(&g);
    let n1 = g.start();
    let mut notes = Vec::new();
    for (pat, idx) in analysis.candidates(n1) {
        notes.push(format!(
            "candidate: '{}' at instruction {idx}",
            analysis.universe.assign(*pat).display(g.pool())
        ));
    }
    FigureReport {
        id: "fig13",
        title: "Hoisting candidates: only the first unblocked occurrence qualifies (Fig. 13)",
        before: canonical_text(&g),
        after: vec![],
        measurements: vec![],
        notes,
    }
}

/// Fig. 16/17: expression optimality is compatible only with *relative*
/// assignment and temporary optimality. We verify the relative-optimality
/// fixpoint property on the reconstruction and report the per-path costs.
pub fn fig16_incomparable() -> FigureReport {
    let original = parse(programs::FIG16).unwrap();
    let result = optimize(&original);
    // Relative optimality: the result is a fixpoint of further motion.
    let mut again = result.program.clone();
    let stats2 = am_core::motion::assignment_motion(&mut again);
    let refix = again == result.program;
    let per_path = |g: &FlowGraph, p: i64| {
        let r = run(
            g,
            &Config::with_inputs(vec![("p", p), ("c", 1), ("d", 2), ("a", 5), ("b", 6)]),
        );
        (r.expr_evals, r.assign_execs)
    };
    let (e1, a1) = per_path(&result.program, 1);
    let (e2, a2) = per_path(&result.program, 0);
    FigureReport {
        id: "fig16",
        title: "Expression optimality with relative assignment/temporary optimality (Figs. 16/17, reconstruction)",
        before: canonical_text(&original),
        after: vec![("GlobAlg".into(), canonical_text(&result.program))],
        measurements: vec![
            measure("original", &original, &programs::fig4_inputs()),
            measure("GlobAlg", &result.program, &programs::fig4_inputs()),
        ],
        notes: vec![
            format!("path via node 1: {e1} evaluations, {a1} assignments"),
            format!("path via node 2: {e2} evaluations, {a2} assignments"),
            format!(
                "re-running assignment motion is the identity (relative optimality): {refix} ({} rounds)",
                stats2.rounds
            ),
        ],
    }
}

/// Figs. 18–20: complex expressions vs 3-address code. EM gets stuck on the
/// decomposed form (Fig. 19b), EM+CP partially recovers (Fig. 20a), and the
/// uniform algorithm beats both by emptying the loop (Fig. 20b).
pub fn fig18_three_address() -> FigureReport {
    let decomposed = parse_with_mode(programs::FIG18, Mode::Decompose).unwrap();

    // Fig. 19(b): EM alone on the 3-address form.
    let mut em = decomposed.clone();
    em.split_critical_edges();
    lazy_expression_motion(&mut em);

    // Fig. 20(a): EM interleaved with copy propagation.
    let mut emcp = decomposed.clone();
    emcp.split_critical_edges();
    for _ in 0..4 {
        let before = emcp.clone();
        lazy_expression_motion(&mut emcp);
        copyprop::copy_propagation(&mut emcp, true);
        if emcp == before {
            break;
        }
    }

    // Fig. 20(b): the uniform algorithm.
    let full = optimize(&decomposed).program;

    let inputs: Vec<(String, i64)> = vec![
        ("a".into(), 1),
        ("b".into(), 2),
        ("c".into(), 3),
        ("q".into(), 5),
    ];
    FigureReport {
        id: "fig18",
        title:
            "3-address decomposition: EM stuck, EM+CP partial, uniform EM & AM wins (Figs. 18-20)",
        before: canonical_text(&decomposed),
        after: vec![
            ("EM only (Fig. 19b)".into(), canonical_text(&em)),
            (
                "EM + copy propagation (Fig. 20a)".into(),
                canonical_text(&emcp),
            ),
            ("uniform EM & AM (Fig. 20b)".into(), canonical_text(&full)),
        ],
        measurements: vec![
            measure("original (3-address)", &decomposed, &inputs),
            measure("EM only", &em, &inputs),
            measure("EM + CP", &emcp, &inputs),
            measure("uniform EM & AM", &full, &inputs),
        ],
        notes: vec![
            "t+c is not loop-invariant for EM (t is assigned in the loop)".into(),
            "copy propagation re-exposes the invariance; the uniform algorithm needs no CP".into(),
        ],
    }
}

/// All figure reproductions, in paper order.
pub fn all_reports() -> Vec<FigureReport> {
    vec![
        fig01_expression_motion(),
        fig02_assignment_motion(),
        fig03_uniform(),
        fig05_global(),
        fig06_separate_effects(),
        fig07_loops(),
        fig08_restricted(),
        fig10_critical_edges(),
        fig13_candidates(),
        fig16_incomparable(),
        fig18_three_address(),
    ]
}
