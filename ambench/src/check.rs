//! The output checker. It runs after timing and never trusts the optimizer:
//! every distinct program's output is interpreted next to its input with
//! `am_ir::interp`, under seeded branch oracles and inputs, and the
//! observable behaviour must agree.

use am_ir::alpha::stable_hash;
use am_ir::interp::{run, Config, Oracle, RunResult, StopReason};
use am_ir::random::SplitMix64;
use am_ir::FlowGraph;

use crate::stats::geomean;

/// Interpreter runs per program under a fixed random branch oracle (the
/// decisions drive every branch, so the two programs walk corresponding
/// paths); one more run lets the branch conditions decide.
const ORACLE_RUNS: u64 = 8;
/// Decisions per oracle run.
const DECISIONS: usize = 32;

/// Step budget of one run. The interpreter's default of 100k steps
/// truncates the XL loop nests, and a truncated pair proves nothing.
fn step_budget(g: &FlowGraph) -> u64 {
    (g.instr_count() as u64 * 200).max(100_000)
}

/// What the checker found for one distinct program.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Why the output is wrong, if it is.
    pub failure: Option<String>,
    /// Optimized / original expression evaluations, one per completed run
    /// pair that evaluated anything.
    pub evals_ratios: Vec<f64>,
    /// Optimized / original instruction count.
    pub size_ratio: f64,
}

/// Interprets `optimized` next to `original` and compares what they do.
///
/// A pair of runs fails when their observables (outputs and trap) differ,
/// or when only one of the two completes. Pairs that both truncate are not
/// compared; a program none of whose pairs completes fails too, since
/// nothing was shown about it.
pub fn check_program(original: &FlowGraph, optimized: &FlowGraph, seed: u64) -> Verdict {
    let mut verdict = Verdict {
        failure: None,
        evals_ratios: Vec::new(),
        size_ratio: optimized.instr_count() as f64 / original.instr_count().max(1) as f64,
    };
    let names: Vec<String> = original
        .pool()
        .iter()
        .filter(|&v| !original.pool().is_temp(v))
        .map(|v| original.pool().name(v).to_owned())
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut completed = 0;
    for i in 0..=ORACLE_RUNS {
        let oracle = if i < ORACLE_RUNS {
            Oracle::random(rng.next_u64(), DECISIONS)
        } else {
            Oracle::Deterministic
        };
        let inputs = names
            .iter()
            .map(|n| (n.clone(), rng.gen_range(-3..=6i64)))
            .collect();
        let mut config = Config {
            oracle,
            max_steps: step_budget(original),
            inputs,
        };
        let (mut a, mut b) = (run(original, &config), run(optimized, &config));
        // A program that needs almost the whole budget can finish on one
        // side only because motion saved steps; give both more room once.
        if (a.stop == StopReason::StepLimit) != (b.stop == StopReason::StepLimit) {
            config.max_steps *= 10;
            (a, b) = (run(original, &config), run(optimized, &config));
        }
        match compare_runs(&a, &b) {
            Pair::Failed(why) => {
                verdict.failure = Some(format!("run {i}: {why}"));
                return verdict;
            }
            Pair::Completed => {
                completed += 1;
                if a.expr_evals > 0 {
                    verdict
                        .evals_ratios
                        .push(b.expr_evals as f64 / a.expr_evals as f64);
                }
            }
            Pair::Truncated => {}
        }
    }
    if completed == 0 {
        verdict.failure = Some(format!(
            "all {} run pairs truncated; nothing was compared",
            ORACLE_RUNS + 1
        ));
    }
    verdict
}

enum Pair {
    Completed,
    Truncated,
    Failed(String),
}

fn compare_runs(a: &RunResult, b: &RunResult) -> Pair {
    let done = |r: &RunResult| matches!(r.stop, StopReason::ReachedEnd | StopReason::Trapped);
    match (done(a), done(b)) {
        (true, true) if a.observable() == b.observable() => Pair::Completed,
        (true, true) => Pair::Failed(format!(
            "observables differ: {:?} vs {:?}",
            a.observable(),
            b.observable()
        )),
        (true, false) | (false, true) => Pair::Failed(format!(
            "only one run completed: {:?} vs {:?}",
            a.stop, b.stop
        )),
        // Both stopped at the same exhausted decision: the paths
        // correspond, so the outputs so far must agree.
        _ if a.stop == StopReason::OracleExhausted && b.stop == StopReason::OracleExhausted => {
            if a.observable() == b.observable() {
                Pair::Truncated
            } else {
                Pair::Failed(format!(
                    "truncated outputs differ: {:?} vs {:?}",
                    a.observable(),
                    b.observable()
                ))
            }
        }
        _ => Pair::Truncated,
    }
}

/// The first output of each program is its reference; every later output
/// must be byte-identical to it.
#[derive(Debug)]
pub struct OutputLog {
    refs: Vec<Option<String>>,
    mismatched: Vec<usize>,
}

impl OutputLog {
    /// A log for `programs` distinct programs.
    pub fn new(programs: usize) -> OutputLog {
        OutputLog {
            refs: vec![None; programs],
            mismatched: vec![0; programs],
        }
    }

    /// Records one output of program `index`; false when it differs from
    /// the program's reference.
    pub fn record(&mut self, index: usize, canonical: &str) -> bool {
        match &self.refs[index] {
            None => {
                self.refs[index] = Some(canonical.to_owned());
                true
            }
            Some(reference) if reference == canonical => true,
            Some(_) => {
                self.mismatched[index] += 1;
                false
            }
        }
    }

    /// The reference output of program `index`, once one was recorded.
    pub fn reference(&self, index: usize) -> Option<&str> {
        self.refs[index].as_deref()
    }

    /// Outputs of program `index` that differed from its reference.
    pub fn mismatched(&self, index: usize) -> usize {
        self.mismatched[index]
    }
}

/// The checker's verdict over a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// The index and reason of each failing program.
    pub failures: Vec<(usize, String)>,
    /// Geometric mean of optimized/original expression evaluations over all
    /// completed runs (the run time of the generated code).
    pub evals_ratio: f64,
    /// Geometric mean of optimized/original instruction counts (the size of
    /// the generated code).
    pub size_ratio: f64,
}

/// Checks each `(index, original, optimized)` program. Its oracles and
/// inputs are seeded by the input program's hash, so a program is checked
/// the same way, and adds the same ratios, in every workload and seed.
pub fn summarize(programs: impl Iterator<Item = (usize, FlowGraph, FlowGraph)>) -> Summary {
    let mut failures = Vec::new();
    let mut evals = Vec::new();
    let mut sizes = Vec::new();
    for (i, original, optimized) in programs {
        let v = check_program(&original, &optimized, stable_hash(&original));
        if let Some(why) = v.failure {
            failures.push((i, why));
        }
        evals.extend(v.evals_ratios);
        sizes.push(v.size_ratio);
    }
    Summary {
        failures,
        evals_ratio: geomean(&evals),
        size_ratio: geomean(&sizes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_check::fault::{apply_fault, FaultKind};
    use am_core::global::optimize;

    fn corpus_graphs(n: usize) -> Vec<FlowGraph> {
        crate::inputs::corpus(1)
            .iter()
            .take(n)
            .map(|p| am_lang::compile_source(p.kind, &p.text).expect("compiles"))
            .collect()
    }

    #[test]
    fn optimized_corpus_passes() {
        for (i, g) in corpus_graphs(40).iter().enumerate() {
            let v = check_program(g, &optimize(g).program, i as u64);
            assert_eq!(v.failure, None, "program {i}");
            assert!(v.evals_ratios.iter().all(|&r| r <= 1.0), "program {i}");
        }
    }

    #[test]
    fn checker_flags_an_injected_fault() {
        for (i, g) in corpus_graphs(12).iter().enumerate() {
            let mut bad = optimize(g).program;
            assert!(apply_fault(&mut bad, FaultKind::DropInstr), "program {i}");
            let v = check_program(g, &bad, i as u64);
            assert!(v.failure.is_some(), "program {i}: fault not caught");
        }
    }

    #[test]
    fn xl_runs_complete_within_the_budget() {
        let g = am_bench::workloads::nest_grid(60, 2, 8);
        let v = check_program(&g, &optimize(&g).program, 3);
        assert_eq!(v.failure, None);
        assert!(
            !v.evals_ratios.is_empty(),
            "the conditions-driven run completes"
        );
    }

    #[test]
    fn output_log_requires_byte_identity() {
        let mut log = OutputLog::new(2);
        assert!(log.record(0, "a"));
        assert!(log.record(0, "a"));
        assert!(!log.record(0, "b"));
        assert!(log.record(1, "c"));
        assert_eq!((log.mismatched(0), log.mismatched(1)), (1, 0));
        assert_eq!(log.reference(0), Some("a"));
        assert_eq!(log.reference(1), Some("c"));
    }
}
