//! Per-phase differential validation of one program.
//!
//! [`validate`] replays the optimizer through the phase-boundary hooks of
//! [`optimize_hooked`], snapshotting the
//! program after every phase, then checks each *consecutive pair* of
//! snapshots — original vs. split, split vs. init, round `r` vs. round
//! `r+1`, … — against the counting interpreter on corresponding runs (the
//! same fixed oracle and inputs). Because every stage of the paper's
//! algorithm must individually preserve semantics and never increase the
//! number of expression evaluations on corresponding paths, the first pair
//! that disagrees names the exact phase that introduced the bug.
//!
//! When [`ValidationConfig::prove`] is set, each pair is first handed to
//! the symbolic equivalence prover (`am-prove`): a statically *Proved*
//! pair never touches the interpreter, a *Refuted* pair fails immediately
//! as [`FailureKind::Proof`] with the prover's interpreter-confirmed
//! witness path, and only an *Inconclusive* pair falls back to the
//! dynamic differential oracle. Campaigns enable this by default, so
//! every injected fault must be refuted statically, for all inputs — not
//! merely observed to diverge on the sampled runs.

use am_core::global::{optimize_hooked, GlobalConfig};
use am_core::sink::{sink_assignments, SinkConfig};
use am_core::verify::weakly_equivalent;
use am_ir::alpha::{rename_temps_canonically, stable_hash, stable_hash_text};
use am_ir::interp::{run, Config, Oracle, RunResult, StopReason};
use am_ir::text::to_text;
use am_ir::{reference_universe, FlowGraph, PatternUniverse};
use am_prove::{prove_pair, ProveConfig, Verdict};
use am_trace::Tracer;

use crate::fault::{apply_fault, FaultSpec};
use crate::stage::Stage;

/// Configuration for one [`validate`] call.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// Corresponding runs per snapshot pair.
    pub runs: usize,
    /// Oracle decisions per run (bounds the common path prefix).
    pub decisions: usize,
    /// Base seed; run `i` uses oracle seed `seed + i`.
    pub seed: u64,
    /// Initial variable values for every run.
    pub inputs: Vec<(String, i64)>,
    /// Round budget forwarded to the optimizer (`None` = paper bound).
    pub max_motion_rounds: Option<usize>,
    /// Also check the LCM and sink baselines against the original.
    pub check_baselines: bool,
    /// Inject a deliberate miscompile at a phase boundary (testing the
    /// harness itself; see [`crate::fault`]).
    pub fault: Option<FaultSpec>,
    /// Also run the `am-lint` static suite on the final snapshot (after
    /// any injected fault) and report its findings in
    /// [`Validation::lint`]. A static cross-check of the dynamic oracles:
    /// a corrupted translation should both diverge under the interpreter
    /// *and* trip the linter.
    pub lint: bool,
    /// Trace sink forwarded to the optimizer under validation, so
    /// campaign traces include phase/round/analysis events. Disabled
    /// (a no-op) by default.
    pub tracer: Tracer,
    /// Run the symbolic equivalence prover on every snapshot pair before
    /// the interpreter: statically proved pairs skip the dynamic runs,
    /// statically refuted pairs fail as [`FailureKind::Proof`], and
    /// inconclusive pairs fall back to the differential oracle. Off by
    /// default here (the plain differential harness); campaigns turn it
    /// on.
    pub prove: bool,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            runs: 16,
            decisions: 14,
            seed: 0xC0FFEE,
            inputs: vec![
                ("v0".into(), 3),
                ("v1".into(), 2),
                ("v2".into(), -5),
                ("v3".into(), 1),
            ],
            max_motion_rounds: None,
            check_baselines: true,
            fault: None,
            lint: false,
            tracer: Tracer::disabled(),
            prove: false,
        }
    }
}

/// What went wrong at a stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The stage produced a structurally invalid graph.
    Structural(String),
    /// Observable behaviour diverged on a corresponding run.
    Semantic {
        /// Index of the failing run (its oracle seed is `seed + run`).
        run: usize,
        /// Human-readable account of the divergence.
        detail: String,
    },
    /// The interned identity layer disagreed with its structural reference
    /// on a snapshot: the streamed `stable_hash` diverged from the
    /// text-path hash, or the arena-backed pattern universe diverged from
    /// the naive linear-scan enumeration. Not a miscompile of the program —
    /// a corruption of the identity layer every cache and gen/kill system
    /// is keyed by.
    Identity(String),
    /// The stage *increased* expression evaluations on a completed
    /// corresponding run — an optimality regression (Thm 5.2).
    Optimality {
        /// Index of the failing run.
        run: usize,
        /// Evaluations before the stage.
        before: u64,
        /// Evaluations after the stage.
        after: u64,
    },
    /// The symbolic prover statically refuted the pair: it holds an
    /// interpreter-confirmed witness path on which the two snapshots
    /// diverge (the witness oracle and inputs are in the enclosing
    /// [`Failure`]). Found without running the differential oracle first.
    Proof {
        /// The prover's account of the divergence along the witness path.
        detail: String,
    },
}

impl FailureKind {
    /// Whether two failures are the same kind, ignoring run indices and
    /// message text. The shrinker's acceptance test.
    pub fn same_class(&self, other: &FailureKind) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }
}

/// A localized validation failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The stage whose output first disagreed with its input.
    pub stage: Stage,
    /// The nature of the disagreement.
    pub kind: FailureKind,
    /// The fixed oracle decisions of the failing run (empty for
    /// structural failures) — enough to replay it by hand.
    pub decisions: Vec<usize>,
    /// The inputs of the failing run.
    pub inputs: Vec<(String, i64)>,
}

/// The outcome of one [`validate`] call.
#[derive(Clone, Debug)]
pub struct Validation {
    /// The first failure found, if any.
    pub failure: Option<Failure>,
    /// Snapshot pairs that were differentially checked.
    pub stages_checked: usize,
    /// Corresponding runs per pair.
    pub runs: usize,
    /// Assignment-motion rounds the optimizer took.
    pub motion_rounds: usize,
    /// Whether a requested fault found an injection site. A fault with no
    /// site leaves the program untouched, so the validation passing then
    /// is vacuous — campaigns skip such seeds.
    pub fault_injected: bool,
    /// Findings of the `am-lint` suite on the final snapshot, when
    /// [`ValidationConfig::lint`] was set.
    pub lint: Option<am_lint::LintSummary>,
    /// Per-stage prover verdicts, in chain order, when
    /// [`ValidationConfig::prove`] was set. Baseline stages are never
    /// proved (they are compared dynamically only), so they do not
    /// appear here.
    pub prove_verdicts: Vec<(Stage, Verdict)>,
    /// Why a validation that found no failure checked nothing at some
    /// stage: the stage was left to the interpreter, and no run of either
    /// program finished within the step limit, so the comparison was
    /// vacuous. `None` when every stage was proved or compared on at
    /// least one finished run.
    pub unchecked: Option<String>,
}

impl Validation {
    /// No failure was found.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Counts of prover verdicts over some set of proof attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Pairs proved equivalent for all inputs.
    pub proved: u64,
    /// Pairs refuted with a confirmed witness.
    pub refuted: u64,
    /// Pairs the prover could not decide (dynamic fallback).
    pub inconclusive: u64,
}

impl VerdictCounts {
    /// Records one verdict.
    pub fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Proved => self.proved += 1,
            Verdict::Refuted => self.refuted += 1,
            Verdict::Inconclusive => self.inconclusive += 1,
        }
    }

    /// Total proof attempts counted.
    pub fn total(&self) -> u64 {
        self.proved + self.refuted + self.inconclusive
    }
}

impl std::fmt::Display for VerdictCounts {
    /// Renders as `proved/refuted/inconclusive`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.proved, self.refuted, self.inconclusive)
    }
}

/// Weak equivalence relaxed for *corresponding truncated runs*.
///
/// Stages move assignments across program points, so on a fixed oracle one
/// version may hit a (faithfully preserved) trap that the other version's
/// run never reaches because its oracle ran out first. That skew is not a
/// miscompile: it is accepted when the truncated run has no trap and its
/// outputs are a prefix of (or extended by) the trapped run's outputs.
fn corresponding_equivalent(a: &RunResult, b: &RunResult) -> bool {
    if weakly_equivalent(a, b) {
        return true;
    }
    fn prefix(short: &[Vec<i64>], long: &[Vec<i64>]) -> bool {
        short.len() <= long.len() && &long[..short.len()] == short
    }
    fn skew(truncated: &RunResult, trapped: &RunResult) -> bool {
        truncated.trap.is_none()
            && matches!(
                truncated.stop,
                StopReason::OracleExhausted | StopReason::StepLimit
            )
            && trapped.trap.is_some()
            && (prefix(&truncated.outputs, &trapped.outputs)
                || prefix(&trapped.outputs, &truncated.outputs))
    }
    skew(a, b) || skew(b, a)
}

fn describe(a: &RunResult, b: &RunResult) -> String {
    format!(
        "before: outputs {:?} trap {:?} stop {:?} | after: outputs {:?} trap {:?} stop {:?}",
        a.outputs, a.trap, a.stop, b.outputs, b.trap, b.stop
    )
}

/// Cross-checks the interned identity layer on one snapshot against its
/// structural references: the streamed `stable_hash` against the hash of
/// the clone-and-print oracle text (`to_text(&rename_temps_canonically(..))`,
/// which shares no renaming code with the stream), the arena-backed
/// pattern universe against the naive linear-scan enumeration, and the
/// arena's own internal invariants. Returns a description of the first mismatch.
fn identity_mismatch(snap: &FlowGraph) -> Option<String> {
    let streamed = stable_hash(snap);
    let oracle = stable_hash_text(&to_text(&rename_temps_canonically(snap)));
    if streamed != oracle {
        return Some(format!(
            "streamed stable_hash {streamed:016x} != clone-and-print oracle hash {oracle:016x}"
        ));
    }
    let interned = PatternUniverse::collect(snap);
    let (ref_assigns, ref_exprs) = reference_universe(snap);
    let assigns: Vec<_> = interned.assign_patterns().map(|(_, p)| p).collect();
    if assigns != ref_assigns {
        return Some(format!(
            "assign-pattern universe diverges from reference: {} interned vs {} reference",
            assigns.len(),
            ref_assigns.len()
        ));
    }
    let exprs: Vec<_> = interned.expr_patterns().map(|(_, t)| t).collect();
    if exprs != ref_exprs {
        return Some(format!(
            "expression universe diverges from reference: {} interned vs {} reference",
            exprs.len(),
            ref_exprs.len()
        ));
    }
    if let Err(e) = interned.arena().verify() {
        return Some(format!("arena invariant violated: {e}"));
    }
    None
}

fn decisions_of(oracle: &Oracle) -> Vec<usize> {
    match oracle {
        Oracle::Fixed(v) => v.clone(),
        Oracle::Deterministic => Vec::new(),
    }
}

/// Validates every optimizer stage on `g`, plus the end-to-end result and
/// (optionally) the LCM and sink baselines. Returns the first failure
/// found, localized to the stage that introduced it.
pub fn validate(g: &FlowGraph, cfg: &ValidationConfig) -> Validation {
    // 1. Replay the optimizer, snapshotting at every phase boundary. A
    //    requested fault is applied *before* the snapshot is taken, so the
    //    corruption is attributed to the injected stage.
    let mut chain: Vec<(Stage, FlowGraph)> = Vec::new();
    let mut fault_injected = false;
    let gcfg = GlobalConfig {
        max_motion_rounds: cfg.max_motion_rounds,
        keep_snapshots: false,
        tracer: cfg.tracer.clone(),
        ..GlobalConfig::default()
    };
    let mut motion_rounds = 0;
    optimize_hooked(g, &gcfg, &mut |phase, prog| {
        if let Some(f) = cfg.fault {
            if !fault_injected && f.at.matches(phase) {
                fault_injected = apply_fault(prog, f.kind);
            }
        }
        let stage = Stage::from(phase);
        if let Stage::MotionRound(r) = stage {
            motion_rounds = r;
        }
        // The converged motion round is a no-op; checking an identical
        // snapshot twice adds nothing, so collapse it.
        if chain.last().map(|(_, prev)| prev == prog) != Some(true) {
            chain.push((stage, prog.clone()));
        }
    });

    // Static cross-check: lint the final snapshot (post-fault, so injected
    // corruption is visible to the static analyses too).
    let lint = cfg.lint.then(|| {
        let final_prog = chain.last().map(|(_, p)| p).unwrap_or(g);
        let report = am_lint::lint_graph(
            final_prog,
            &am_lint::LintConfig {
                tracer: cfg.tracer.clone(),
                srcmap: None,
            },
        );
        am_lint::LintSummary::from(&report)
    });

    // 2. Every snapshot must be structurally valid, and the interned
    //    identity layer must agree with its structural reference on it.
    for (stage, snap) in &chain {
        let kind = if let Err(e) = snap.validate() {
            Some(FailureKind::Structural(e.to_string()))
        } else {
            identity_mismatch(snap).map(FailureKind::Identity)
        };
        if let Some(kind) = kind {
            return Validation {
                failure: Some(Failure {
                    stage: *stage,
                    kind,
                    decisions: Vec::new(),
                    inputs: cfg.inputs.clone(),
                }),
                stages_checked: chain.len(),
                runs: cfg.runs,
                motion_rounds,
                fault_injected,
                lint: lint.clone(),
                prove_verdicts: Vec::new(),
                unchecked: None,
            };
        }
    }

    // 3. Fixed-oracle run configurations shared by every comparison. Run
    //    results are produced lazily per snapshot: a pair the prover
    //    discharges statically never touches the interpreter at all.
    let run_cfgs: Vec<Config> = (0..cfg.runs)
        .map(|i| Config {
            oracle: Oracle::random(cfg.seed.wrapping_add(i as u64), cfg.decisions),
            inputs: cfg.inputs.clone(),
            ..Config::default()
        })
        .collect();
    let progs: Vec<&FlowGraph> = std::iter::once(g)
        .chain(chain.iter().map(|(_, s)| s))
        .collect();
    let mut runs_cache: Vec<Option<Vec<RunResult>>> = vec![None; progs.len()];
    fn runs_at<'c>(
        cache: &'c mut [Option<Vec<RunResult>>],
        progs: &[&FlowGraph],
        cfgs: &[Config],
        i: usize,
    ) -> &'c [RunResult] {
        if cache[i].is_none() {
            cache[i] = Some(cfgs.iter().map(|c| run(progs[i], c)).collect());
        }
        cache[i].as_deref().unwrap()
    }

    let fail = |stage: Stage, kind: FailureKind, run_idx: Option<usize>| Failure {
        stage,
        kind,
        decisions: run_idx
            .map(|i| decisions_of(&run_cfgs[i].oracle))
            .unwrap_or_default(),
        inputs: cfg.inputs.clone(),
    };

    // Differentially checks one transformation step: semantics must be
    // preserved and expression evaluations must not increase on completed
    // corresponding runs.
    let check_pair = |stage: Stage, before: &[RunResult], after: &[RunResult]| -> Option<Failure> {
        for (i, (ra, rb)) in before.iter().zip(after).enumerate() {
            if !corresponding_equivalent(ra, rb) {
                return Some(fail(
                    stage,
                    FailureKind::Semantic {
                        run: i,
                        detail: describe(ra, rb),
                    },
                    Some(i),
                ));
            }
            let both_done = ra.stop == StopReason::ReachedEnd && rb.stop == StopReason::ReachedEnd;
            if both_done && rb.expr_evals > ra.expr_evals {
                return Some(fail(
                    stage,
                    FailureKind::Optimality {
                        run: i,
                        before: ra.expr_evals,
                        after: rb.expr_evals,
                    },
                    Some(i),
                ));
            }
        }
        None
    };

    // A dynamic comparison is vacuous when every run on both sides was cut
    // off by the step limit; the first such stage is reported.
    let mut unchecked: Option<String> = None;
    let mut note_vacuous = |stage: Stage, before: &[RunResult], after: &[RunResult]| {
        let cut = |runs: &[RunResult]| runs.iter().all(|r| r.stop == StopReason::StepLimit);
        if unchecked.is_none() && cut(before) && cut(after) {
            let limit = run_cfgs.first().map_or(0, |c| c.max_steps);
            unchecked = Some(format!(
                "{stage}: no interpreter run of either program finished within {limit} steps"
            ));
        }
    };
    let mut stages_checked = 0;
    let mut prove_verdicts: Vec<(Stage, Verdict)> = Vec::new();
    let prove_cfg = ProveConfig {
        inputs: cfg.inputs.clone(),
        tracer: cfg.tracer.clone(),
        ..ProveConfig::default()
    };
    // Proves one pair when the prover is enabled. `Ok(true)` means the
    // pair is statically discharged (skip the interpreter); `Ok(false)`
    // means fall back to the dynamic oracle; `Err` carries the static
    // refutation, with the prover's confirmed witness as the replay.
    let prove_step = |verdicts: &mut Vec<(Stage, Verdict)>,
                      stage: Stage,
                      before: &FlowGraph,
                      after: &FlowGraph|
     -> Result<bool, Failure> {
        let o = prove_pair(before, after, &prove_cfg);
        verdicts.push((stage, o.verdict));
        match o.verdict {
            Verdict::Proved => Ok(true),
            Verdict::Inconclusive => Ok(false),
            Verdict::Refuted => {
                let r = o.refutation.expect("a refuted outcome carries its witness");
                Err(Failure {
                    stage,
                    kind: FailureKind::Proof { detail: r.detail },
                    decisions: r.decisions,
                    inputs: r.inputs,
                })
            }
        }
    };

    // 4. Pairwise consecutive checks along the phase chain — prover
    //    first, interpreter fallback — then the end-to-end comparison
    //    backing the theorems directly. `progs[i]` precedes `chain[i]`.
    let failure: Option<Failure> = 'check: {
        let final_pairs = chain
            .iter()
            .enumerate()
            .map(|(i, (stage, _))| (*stage, i, i + 1))
            .chain((!chain.is_empty()).then_some((Stage::Final, 0, chain.len())));
        for (stage, before_idx, after_idx) in final_pairs {
            stages_checked += 1;
            if cfg.prove {
                match prove_step(
                    &mut prove_verdicts,
                    stage,
                    progs[before_idx],
                    progs[after_idx],
                ) {
                    Ok(true) => continue,
                    Ok(false) => {}
                    Err(f) => break 'check Some(f),
                }
            }
            runs_at(&mut runs_cache, &progs, &run_cfgs, before_idx);
            runs_at(&mut runs_cache, &progs, &run_cfgs, after_idx);
            let before = runs_cache[before_idx].as_deref().unwrap();
            let after = runs_cache[after_idx].as_deref().unwrap();
            if let Some(f) = check_pair(stage, before, after) {
                break 'check Some(f);
            }
            note_vacuous(stage, before, after);
        }

        // 5. The standalone baselines, against the original program. These
        //    are independent algorithms, not phase transitions of the run
        //    under validation, so they are always compared dynamically.
        if cfg.check_baselines {
            let mut lcm = g.clone();
            lcm.split_critical_edges();
            am_core::lcm::lazy_expression_motion(&mut lcm);
            let mut sink = g.clone();
            sink.split_critical_edges();
            sink_assignments(
                &mut sink,
                &SinkConfig {
                    eliminate_nontrivial_dead: false,
                },
            );
            for (stage, version) in [(Stage::Lcm, &lcm), (Stage::Sink, &sink)] {
                if let Err(e) = version.validate() {
                    break 'check Some(fail(stage, FailureKind::Structural(e.to_string()), None));
                }
                stages_checked += 1;
                let runs: Vec<RunResult> = run_cfgs.iter().map(|c| run(version, c)).collect();
                let original = runs_at(&mut runs_cache, &progs, &run_cfgs, 0);
                if let Some(f) = check_pair(stage, original, &runs) {
                    break 'check Some(f);
                }
                note_vacuous(stage, original, &runs);
            }
        }
        None
    };

    Validation {
        unchecked: unchecked.filter(|_| failure.is_none()),
        failure,
        stages_checked,
        runs: cfg.runs,
        motion_rounds,
        fault_injected,
        lint,
        prove_verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, InjectAt};
    use am_ir::text::parse;

    fn diamond() -> FlowGraph {
        parse(
            "start s\nend e\n\
             node s { x := a+b }\n\
             node l { y := a+b; out(y) }\n\
             node r { z := a*b; out(z) }\n\
             node j { out(x) }\n\
             node e { }\n\
             edge s -> l\nedge s -> r\nedge l -> j\nedge r -> j\nedge j -> e",
        )
        .unwrap()
    }

    #[test]
    fn clean_program_validates_across_all_stages() {
        let v = validate(&diamond(), &ValidationConfig::default());
        assert!(v.passed(), "{:?}", v.failure);
        assert!(v.stages_checked >= 4, "{}", v.stages_checked);
        assert!(!v.fault_injected);
    }

    #[test]
    fn init_fault_is_localized_to_init() {
        let cfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::TweakConst,
            }),
            ..ValidationConfig::default()
        };
        let src = "start s\nend e\nnode s { x := v0+1; out(x) }\nnode e { out(v0) }\nedge s -> e";
        let v = validate(&parse(src).unwrap(), &cfg);
        assert!(v.fault_injected);
        let f = v.failure.expect("fault must be caught");
        assert_eq!(f.stage, Stage::Init, "{f:?}");
        assert!(matches!(f.kind, FailureKind::Semantic { .. }), "{f:?}");
    }

    #[test]
    fn flush_fault_is_localized_to_flush() {
        let cfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Flush,
                kind: FaultKind::DropInstr,
            }),
            ..ValidationConfig::default()
        };
        let v = validate(&diamond(), &cfg);
        assert!(v.fault_injected);
        let f = v.failure.expect("fault must be caught");
        assert_eq!(f.stage, Stage::Flush, "{f:?}");
    }

    #[test]
    fn duplicate_eval_fault_is_an_optimality_failure() {
        let cfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::DuplicateEval,
            }),
            ..ValidationConfig::default()
        };
        let src = "start s\nend e\nnode s { x := v0+v1; out(x) }\nnode e { }\nedge s -> e";
        let v = validate(&parse(src).unwrap(), &cfg);
        assert!(v.fault_injected);
        let f = v.failure.expect("extra evaluation must be caught");
        assert_eq!(f.stage, Stage::Init, "{f:?}");
        assert!(matches!(f.kind, FailureKind::Optimality { .. }), "{f:?}");
    }

    #[test]
    fn fault_without_a_site_reports_not_injected() {
        let cfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::TweakConst,
            }),
            ..ValidationConfig::default()
        };
        let src = "start s\nend e\nnode s { x := v0+v1 }\nnode e { out(x) }\nedge s -> e";
        let v = validate(&parse(src).unwrap(), &cfg);
        assert!(!v.fault_injected);
        assert!(v.passed(), "{:?}", v.failure);
    }

    #[test]
    fn failure_carries_a_replayable_oracle() {
        let cfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Flush,
                kind: FaultKind::DropInstr,
            }),
            ..ValidationConfig::default()
        };
        let v = validate(&diamond(), &cfg);
        let f = v.failure.expect("fault must be caught");
        assert_eq!(f.decisions.len(), cfg.decisions);
        assert_eq!(f.inputs, cfg.inputs);
    }

    #[test]
    fn identity_oracle_is_silent_on_sound_graphs() {
        assert_eq!(identity_mismatch(&diamond()), None);
        let opt = am_core::global::optimize(&diamond()).program;
        assert_eq!(identity_mismatch(&opt), None);
    }

    #[test]
    fn kind_classes_ignore_payloads() {
        let a = FailureKind::Semantic {
            run: 0,
            detail: "x".into(),
        };
        let b = FailureKind::Semantic {
            run: 7,
            detail: "y".into(),
        };
        assert!(a.same_class(&b));
        assert!(!a.same_class(&FailureKind::Structural("z".into())));
        assert!(!a.same_class(&FailureKind::Identity("w".into())));
        assert!(FailureKind::Identity("p".into()).same_class(&FailureKind::Identity("q".into())));
        assert!(FailureKind::Proof { detail: "p".into() }
            .same_class(&FailureKind::Proof { detail: "q".into() }));
        assert!(!a.same_class(&FailureKind::Proof { detail: "r".into() }));
    }

    #[test]
    fn prover_discharges_a_clean_program_statically() {
        let cfg = ValidationConfig {
            prove: true,
            ..ValidationConfig::default()
        };
        let v = validate(&diamond(), &cfg);
        assert!(v.passed(), "{:?}", v.failure);
        assert!(!v.prove_verdicts.is_empty());
        assert!(
            v.prove_verdicts
                .iter()
                .all(|(_, vd)| *vd == Verdict::Proved),
            "{:?}",
            v.prove_verdicts
        );
    }

    #[test]
    fn prover_statically_refutes_an_injected_fault() {
        let cfg = ValidationConfig {
            prove: true,
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::TweakConst,
            }),
            ..ValidationConfig::default()
        };
        let src = "start s\nend e\nnode s { x := v0+1; out(x) }\nnode e { out(v0) }\nedge s -> e";
        let v = validate(&parse(src).unwrap(), &cfg);
        assert!(v.fault_injected);
        let f = v.failure.expect("fault must be caught");
        assert_eq!(f.stage, Stage::Init, "{f:?}");
        assert!(matches!(f.kind, FailureKind::Proof { .. }), "{f:?}");
    }

    #[test]
    fn corresponding_equivalence_tolerates_trap_skew() {
        use am_ir::interp::Trap;
        let base = run(
            &parse("start s\nend e\nnode s { out(v1) }\nnode e { }\nedge s -> e").unwrap(),
            &Config::with_inputs(vec![("v1", 2)]),
        );
        let mut truncated = base.clone();
        truncated.stop = StopReason::OracleExhausted;
        truncated.trap = None;
        let mut trapped = base.clone();
        trapped.stop = StopReason::Trapped;
        trapped.trap = Some(Trap::DivByZero);
        assert!(!weakly_equivalent(&truncated, &trapped));
        assert!(corresponding_equivalent(&truncated, &trapped));
        // But a *completed* run against a trapped one is a real divergence.
        assert!(!corresponding_equivalent(&base, &trapped));
    }
}
