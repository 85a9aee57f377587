//! Acceptance tests for the symbolic equivalence prover (`am-prove`).
//!
//! * Every phase transition of the optimizer is statically **Proved** on
//!   the whole 80-program corpus and 200 random programs, with an
//!   Inconclusive rate of at most 5% and zero refutations.
//! * Every fault kind the checker can inject is statically **Refuted**,
//!   with a witness path this test replays through the interpreter to
//!   confirm the divergence — no dynamic oracle needed to find the bug.
//! * A loop-carried reassociation the prover cannot decide is
//!   **Inconclusive** (never Refuted), and the dynamic oracle then passes
//!   it — the documented fallback.
//! * The benchmark's XL shapes (`nest_grid`, `wide_fan`) prove at every
//!   stage with nothing left inconclusive, and every recorded elimination
//!   is discharged: the prover's budgets bound work, not branch width. Small sizes run here; the full sizes are
//!   `#[ignore]`d and run in release with `-- --ignored`.

use am_core::explain::capture;
use am_ir::interp::{run, Config, Oracle, StopReason};
use am_ir::random::{
    corpus80, nest_grid, structured, unstructured, wide_fan, SplitMix64, StructuredConfig,
    UnstructuredConfig,
};
use am_ir::text::parse;
use am_ir::FlowGraph;
use am_prove::{
    discharge_provenance, prove_optimization, prove_pair, ProveConfig, ProveStats, RefuteKind,
    Verdict,
};
use am_trace::Tracer;
use assignment_motion::prelude::*;

/// The full static sweep: corpus80 plus 200 random programs, every phase
/// transition proved. The ≤5% inconclusive budget exists for loop-carried
/// cases the symbolic domain cannot decide; at the time of writing the
/// sweep's fallback rate is under 2% (44 of 2330 pairs).
#[test]
fn optimizer_is_statically_proved_on_corpus_and_random_programs() {
    let cfg = ProveConfig::default();
    let mut stats = ProveStats::default();
    let mut bad: Vec<String> = Vec::new();
    let mut programs: Vec<(String, FlowGraph)> = corpus80();
    for seed in 0..200u64 {
        let mut rng = SplitMix64::new(seed);
        let g = if seed % 2 == 0 {
            structured(&mut rng, &StructuredConfig::default())
        } else {
            unstructured(&mut rng, &UnstructuredConfig::default())
        };
        programs.push((format!("random-{seed}"), g));
    }
    for (name, g) in &programs {
        let outcome = prove_optimization(g, None, &cfg);
        stats.accumulate(&outcome.stats);
        for (stage, o) in &outcome.stages {
            if o.verdict != Verdict::Proved {
                bad.push(format!("{name}/{stage}: {} ({})", o.verdict, o.reason));
            }
        }
    }
    assert_eq!(
        stats.refuted, 0,
        "static refutations on correct runs: {bad:?}"
    );
    assert!(
        stats.inconclusive * 20 <= stats.total(),
        "inconclusive rate above 5%: {stats} — {bad:?}"
    );
}

/// Replays a refutation witness and reports whether the two programs'
/// observables actually differ under it.
fn witness_diverges(
    a: &FlowGraph,
    b: &FlowGraph,
    decisions: &[usize],
    inputs: &[(String, i64)],
) -> bool {
    let cfg = Config {
        oracle: Oracle::Fixed(decisions.to_vec()),
        inputs: inputs.to_vec(),
        ..Config::default()
    };
    let ra = run(a, &cfg);
    let rb = run(b, &cfg);
    ra.observable() != rb.observable()
}

/// Each injectable fault kind must be *statically* refuted on some corpus
/// program, and the witness the prover hands back must reproduce the
/// divergence in the interpreter.
#[test]
fn every_fault_kind_is_statically_refuted_with_a_confirmed_witness() {
    use assignment_motion::check::fault::{apply_fault, FaultKind};
    let cfg = ProveConfig::default();
    let kinds = [
        (FaultKind::TweakConst, RefuteKind::Semantic),
        (FaultKind::DropInstr, RefuteKind::Semantic),
        (FaultKind::DuplicateEval, RefuteKind::Optimality),
        (FaultKind::SwapPatternIds, RefuteKind::Semantic),
    ];
    for (kind, want) in kinds {
        let mut refuted = false;
        for (name, g) in corpus80() {
            let optimized = optimize(&g).program;
            let mut faulted = optimized.clone();
            if !apply_fault(&mut faulted, kind) {
                continue;
            }
            let o = prove_pair(&optimized, &faulted, &cfg);
            if o.verdict != Verdict::Refuted {
                continue;
            }
            let r = o.refutation.expect("refuted outcome carries a witness");
            assert_eq!(r.kind, want, "{kind:?} on {name}: wrong refutation kind");
            match r.kind {
                RefuteKind::Semantic => {
                    assert!(
                        witness_diverges(&optimized, &faulted, &r.decisions, &r.inputs),
                        "{kind:?} on {name}: witness does not reproduce in the interpreter"
                    );
                }
                RefuteKind::Optimality => {
                    let rcfg = Config {
                        oracle: Oracle::Fixed(r.decisions.clone()),
                        inputs: r.inputs.clone(),
                        ..Config::default()
                    };
                    let ra = run(&optimized, &rcfg);
                    let rb = run(&faulted, &rcfg);
                    assert_eq!(ra.stop, StopReason::ReachedEnd);
                    assert_eq!(rb.stop, StopReason::ReachedEnd);
                    assert!(
                        rb.expr_evals > ra.expr_evals,
                        "{kind:?} on {name}: witness shows no extra evaluations"
                    );
                }
            }
            refuted = true;
            break;
        }
        assert!(
            refuted,
            "{kind:?}: no corpus program was statically refuted"
        );
    }
}

/// A loop-carried reassociation (`x+1+1` each trip vs `x+2` each trip) is
/// beyond the prover's normalization: the loop join widens `x`, the two
/// increments never meet in one value, and the candidate divergence does
/// not reproduce concretely — so the verdict must be Inconclusive (the
/// sound "I don't know", never a refutation), and the dynamic oracle then
/// accepts the pair.
#[test]
fn loop_carried_reassociation_is_inconclusive_and_passes_dynamically() {
    let a = parse(
        "start s\nend e\n\
         node s { x := 0 }\n\
         node l { x := x+1; x := x+1; branch x < v0 }\n\
         node e { out(x) }\n\
         edge s -> l\nedge l -> l, e",
    )
    .unwrap();
    let b = parse(
        "start s\nend e\n\
         node s { x := 0 }\n\
         node l { x := x+2; branch x < v0 }\n\
         node e { out(x) }\n\
         edge s -> l\nedge l -> l, e",
    )
    .unwrap();
    let o = prove_pair(&a, &b, &ProveConfig::default());
    assert_eq!(o.verdict, Verdict::Inconclusive, "{}", o.reason);
    // The dynamic oracle (the checker's differential comparison) passes.
    let report = compare(&a, &b, &Default::default());
    assert!(report.semantically_equal());
}

/// Proves every stage of the optimization of each program and asserts
/// every verdict is `Proved`, then discharges every recorded elimination.
fn assert_every_stage_proved(programs: &[(&str, FlowGraph)]) {
    let cfg = ProveConfig::default();
    for (name, g) in programs {
        let outcome = prove_optimization(g, None, &cfg);
        let bad: Vec<String> = outcome
            .stages
            .iter()
            .filter(|(_, o)| o.verdict != Verdict::Proved)
            .map(|(stage, o)| format!("{stage}: {} ({})", o.verdict, o.reason))
            .collect();
        assert!(bad.is_empty(), "{name}: {bad:?}");
        assert_eq!(outcome.stats.inconclusive, 0, "{name}: {}", outcome.stats);
        let report = discharge_provenance(&capture(g, None, &Tracer::disabled()), &cfg);
        assert!(
            report.failed == 0 && report.inconclusive == 0,
            "{name}: {report}"
        );
    }
}

/// A state whose decision range (here a 200-way branch) exceeds the
/// simulations left is refused when first reached, before any of its
/// decisions is queued.
#[test]
fn a_decision_range_beyond_the_simulation_budget_is_refused() {
    let g = wide_fan(200, 4);
    let optimized = optimize(&g).program;
    let cfg = ProveConfig {
        max_simulations: 150,
        ..ProveConfig::default()
    };
    let o = prove_pair(&g, &optimized, &cfg);
    assert_eq!(o.verdict, Verdict::Inconclusive, "{}", o.reason);
    assert_eq!(o.reason, "simulation budget exceeded");
    assert!(
        o.simulations < cfg.max_simulations,
        "{} simulations: the wide state was explored up to the budget",
        o.simulations
    );
}

/// The XL benchmark shapes at small size: a 200-way fan (a decision range
/// of 200 per state) and a 20-copy loop-nest grid.
#[test]
fn xl_shapes_prove_at_every_stage() {
    assert_every_stage_proved(&[
        ("wide_fan(200, 4)", wide_fan(200, 4)),
        ("nest_grid(20, 2, 8)", nest_grid(20, 2, 8)),
    ]);
}

/// The same at the sizes the `xl-fan` and `xl-nest` benchmark workloads
/// optimize. Slow in a debug build; run with
/// `cargo test --release --test prover -- --ignored`.
#[test]
#[ignore]
fn xl_shapes_prove_at_every_stage_at_full_size() {
    assert_every_stage_proved(&[
        ("wide_fan(2500, 4)", wide_fan(2500, 4)),
        ("nest_grid(300, 2, 8)", nest_grid(300, 2, 8)),
    ]);
}
