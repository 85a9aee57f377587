//! Proving a whole optimization run: every phase transition of
//! `optimize_hooked` (split / init / each motion round / flush), plus the
//! end-to-end pair (input program vs. final program).

use am_core::global::{optimize_hooked, GlobalConfig, PhaseId};
use am_ir::FlowGraph;

use crate::engine::{prove_pair, PairOutcome, ProveConfig, Verdict};

/// Aggregate verdict counts over a set of proof attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProveStats {
    /// Pairs statically proved.
    pub proved: usize,
    /// Pairs refuted with a confirmed witness.
    pub refuted: usize,
    /// Pairs the prover gave up on.
    pub inconclusive: usize,
}

impl ProveStats {
    /// Folds one verdict in.
    pub fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Proved => self.proved += 1,
            Verdict::Refuted => self.refuted += 1,
            Verdict::Inconclusive => self.inconclusive += 1,
        }
    }

    /// Component-wise sum.
    pub fn accumulate(&mut self, other: &ProveStats) {
        self.proved += other.proved;
        self.refuted += other.refuted;
        self.inconclusive += other.inconclusive;
    }

    /// Total attempts counted.
    pub fn total(&self) -> usize {
        self.proved + self.refuted + self.inconclusive
    }
}

impl std::fmt::Display for ProveStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} proved, {} refuted, {} inconclusive",
            self.proved, self.refuted, self.inconclusive
        )
    }
}

/// The proof outcome of one optimization run.
#[derive(Debug)]
pub struct ChainOutcome {
    /// One outcome per phase transition, labelled with the phase it
    /// leads *into* (`"split"`, `"init"`, `"motion round N"`, `"flush"`,
    /// and the end-to-end `"final"` pair).
    pub stages: Vec<(String, PairOutcome)>,
    /// Aggregate verdict counts.
    pub stats: ProveStats,
}

impl ChainOutcome {
    /// Whether every transition was statically proved.
    pub fn all_proved(&self) -> bool {
        self.stats.refuted == 0 && self.stats.inconclusive == 0
    }
}

/// Runs the optimizer on `g` and proves every phase transition, plus the
/// end-to-end pair. Consecutive identical snapshots (motion rounds that
/// changed nothing) prove trivially via the identical-graph shortcut.
pub fn prove_optimization(
    g: &FlowGraph,
    max_motion_rounds: Option<usize>,
    cfg: &ProveConfig,
) -> ChainOutcome {
    let mut snapshots: Vec<(PhaseId, FlowGraph)> = Vec::new();
    let global = GlobalConfig {
        max_motion_rounds,
        keep_snapshots: false,
        tracer: cfg.tracer.clone(),
    };
    optimize_hooked(g, &global, &mut |phase, prog| {
        snapshots.push((phase, prog.clone()));
    });
    let mut stages = Vec::new();
    let mut stats = ProveStats::default();
    let mut prev: &FlowGraph = g;
    for (phase, snap) in &snapshots {
        let out = prove_pair(prev, snap, cfg);
        stats.add(out.verdict);
        stages.push((phase.to_string(), out));
        prev = snap;
    }
    if let Some((_, last)) = snapshots.last() {
        let out = prove_pair(g, last, cfg);
        stats.add(out.verdict);
        stages.push(("final".to_owned(), out));
    }
    ChainOutcome { stages, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::parse;

    #[test]
    fn the_paper_running_example_is_proved_end_to_end() {
        let g = parse(
            "start 1\nend 4\nnode 1 { y := c+d }\nnode 2 { branch x+z > y+i }\nnode 3 { y := c+d; x := y+z; i := i+x }\nnode 4 { x := y+z; x := c+d; out(i,x,y) }\nedge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let outcome = prove_optimization(&g, None, &ProveConfig::default());
        assert!(
            outcome.all_proved(),
            "{:?}",
            outcome
                .stages
                .iter()
                .map(|(s, o)| format!("{s}: {} ({})", o.verdict, o.reason))
                .collect::<Vec<_>>()
        );
        assert!(outcome.stats.total() >= 4);
    }
}
