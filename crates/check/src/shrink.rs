//! A delta-debugging minimizer for failing programs.
//!
//! Random programs that trip the validator are rarely small. [`shrink`]
//! cuts a failing program down — drop nodes (with or without bridging the
//! gap), drop edges, clear blocks, delete single instructions, simplify
//! terms to their operands — re-validating after every cut and keeping a
//! candidate only if the *same class* of failure at the *same stage class*
//! survives (`ddmin`-style greedy first-improvement, restarted to a fixed
//! point). The result is the graph that goes into the reproduction bundle.

use am_ir::{FlowGraph, Instr, Loc, Term};

use crate::stage::Stage;
use crate::validate::{validate, Failure, ValidationConfig};

/// Budget knobs for [`shrink`].
#[derive(Clone, Copy, Debug)]
pub struct ShrinkConfig {
    /// Hard cap on candidate validations (each one replays the optimizer
    /// and the oracle runs on the candidate).
    pub max_attempts: usize,
}

impl Default for ShrinkConfig {
    fn default() -> Self {
        ShrinkConfig { max_attempts: 3000 }
    }
}

/// The outcome of a [`shrink`] call.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The smallest failing program found.
    pub minimized: FlowGraph,
    /// The failure the minimized program exhibits (stage may carry a
    /// different round number than the original's, never a different
    /// class).
    pub failure: Failure,
    /// Node count before shrinking.
    pub original_nodes: usize,
    /// Node count after shrinking.
    pub minimized_nodes: usize,
    /// Candidate validations performed.
    pub attempts: usize,
    /// Candidates that kept the failure alive and were adopted.
    pub accepted: usize,
}

/// Re-validates `candidate` and returns its failure if it reproduces the
/// same class of bug at the same class of stage.
fn reproduces(
    candidate: &FlowGraph,
    vcfg: &ValidationConfig,
    stage: Stage,
    failure: &Failure,
) -> Option<Failure> {
    if candidate.validate().is_err() {
        return None;
    }
    let v = validate(candidate, vcfg);
    v.failure
        .filter(|f| f.stage.same_class(stage) && f.kind.same_class(&failure.kind))
}

/// All single-step reductions of `g`, most aggressive first.
fn candidates(g: &FlowGraph) -> Vec<FlowGraph> {
    let mut out = Vec::new();
    let nodes: Vec<_> = g.nodes().collect();

    // Drop a whole node — first severing its paths, then bridging them.
    for &n in &nodes {
        for bridge in [false, true] {
            if let Some(c) = g.without_node(n, bridge) {
                out.push(c);
            }
        }
    }
    // Drop one edge.
    for &m in &nodes {
        for &n in g.succs(m) {
            let mut c = g.clone();
            c.remove_edge(m, n);
            out.push(c);
        }
    }
    // Clear a whole block.
    for &n in &nodes {
        if !g.block(n).is_empty() {
            let mut c = g.clone();
            c.set_block(n, Vec::new());
            out.push(c);
        }
    }
    // Delete one instruction.
    for &n in &nodes {
        for index in 0..g.block(n).len() {
            let mut c = g.clone();
            c.remove_instr(Loc { node: n, index });
            out.push(c);
        }
    }
    // Simplify one term: a binary right-hand side or branch side collapses
    // to either of its operands; an out(...) truncates to one operand.
    for &n in &nodes {
        for index in 0..g.block(n).len() {
            let loc = Loc { node: n, index };
            let mut simplified = |instr: Instr| {
                let mut c = g.clone();
                c.replace_instr(loc, instr);
                out.push(c);
            };
            match g.instr(loc) {
                &Instr::Assign {
                    lhs: def,
                    rhs: Term::Binary { lhs, rhs, .. },
                } => {
                    for op in [lhs, rhs] {
                        simplified(Instr::Assign {
                            lhs: def,
                            rhs: Term::Operand(op),
                        });
                    }
                }
                Instr::Branch(cond) => {
                    for side in [0, 1] {
                        let term = if side == 0 { &cond.lhs } else { &cond.rhs };
                        if let Term::Binary { lhs, .. } = term {
                            let mut cond = *cond;
                            if side == 0 {
                                cond.lhs = Term::Operand(*lhs);
                            } else {
                                cond.rhs = Term::Operand(*lhs);
                            }
                            simplified(Instr::Branch(cond));
                        }
                    }
                }
                Instr::Out(ops) if ops.len() > 1 => simplified(Instr::Out(ops[..1].to_vec())),
                _ => {}
            }
        }
    }
    out
}

/// Minimizes `g` while preserving `failure`'s class at its stage class.
///
/// `vcfg` must be the configuration that produced `failure` on `g` —
/// including any injected fault — so each candidate is judged by the same
/// oracle. Greedy: the first candidate that still fails becomes the new
/// program and the passes restart, until a full sweep yields nothing or
/// the attempt budget runs out.
pub fn shrink(
    g: &FlowGraph,
    vcfg: &ValidationConfig,
    failure: &Failure,
    cfg: &ShrinkConfig,
) -> ShrinkResult {
    let mut current = g.clone();
    let mut best_failure = failure.clone();
    let mut attempts = 0;
    let mut accepted = 0;

    'restart: loop {
        for candidate in candidates(&current) {
            if attempts >= cfg.max_attempts {
                break 'restart;
            }
            attempts += 1;
            if let Some(f) = reproduces(&candidate, vcfg, failure.stage, failure) {
                current = candidate;
                best_failure = f;
                accepted += 1;
                continue 'restart;
            }
        }
        break;
    }

    ShrinkResult {
        original_nodes: g.nodes().count(),
        minimized_nodes: current.nodes().count(),
        minimized: current,
        failure: best_failure,
        attempts,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultSpec, InjectAt};
    use am_ir::text::parse;

    /// A padded program: the fault only needs the `x := v0+1; out(x)`
    /// kernel, everything else is shrinkable decoration.
    fn padded() -> FlowGraph {
        parse(
            "start s\nend e\n\
             node s { x := v0+1; out(x) }\n\
             node a { p := v1+v2; q := p*2 }\n\
             node b { r := v3+4; out(r, p) }\n\
             node c { w := v2*v2 }\n\
             node j { out(q) }\n\
             node e { out(v3) }\n\
             edge s -> a\nedge s -> b\nedge a -> c\nedge b -> c\n\
             edge c -> j\nedge j -> e",
        )
        .unwrap()
    }

    #[test]
    fn shrinks_an_injected_fault_below_the_acceptance_bound() {
        let vcfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::TweakConst,
            }),
            check_baselines: false,
            ..ValidationConfig::default()
        };
        let g = padded();
        let v = validate(&g, &vcfg);
        let failure = v.failure.expect("padded program must fail under fault");
        let r = shrink(&g, &vcfg, &failure, &ShrinkConfig::default());
        assert!(r.minimized_nodes < r.original_nodes);
        assert!(r.minimized_nodes <= 10, "{} nodes", r.minimized_nodes);
        assert!(r.failure.stage.same_class(failure.stage));
        // The minimized program still reproduces when validated afresh.
        let again = validate(&r.minimized, &vcfg);
        assert!(again
            .failure
            .as_ref()
            .is_some_and(|f| f.kind.same_class(&failure.kind)));
    }

    #[test]
    fn shrink_respects_the_attempt_budget() {
        let vcfg = ValidationConfig {
            fault: Some(FaultSpec {
                at: InjectAt::Init,
                kind: FaultKind::TweakConst,
            }),
            check_baselines: false,
            ..ValidationConfig::default()
        };
        let g = padded();
        let failure = validate(&g, &vcfg).failure.unwrap();
        let r = shrink(&g, &vcfg, &failure, &ShrinkConfig { max_attempts: 5 });
        assert!(r.attempts <= 5);
    }
}
