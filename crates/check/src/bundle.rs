//! Reproduction bundles for validation failures.
//!
//! A failure that cannot be replayed is a rumor. [`write_bundle`] persists
//! everything needed to reproduce one by hand under a directory (by
//! default `target/am-check/`): the original program, the shrunk witness,
//! and a `report.txt` naming the failing stage, the oracle decision trace,
//! the inputs, the seed and the exact `amcheck` command line.
//!
//! The `.ir` files hold the [`canonical_text`]
//! of the *pre-optimization* programs: labels synthesized by edge splitting
//! (`"S2,3"`) and optimizer temporaries (`"h<a+b>"`) do not re-lex, so
//! bundles always snapshot programs from before the optimizer ran.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use am_ir::alpha::canonical_text;
use am_ir::FlowGraph;

use crate::shrink::ShrinkResult;
use crate::stage::Stage;
use crate::validate::{Failure, FailureKind};
use am_prove::Verdict;

/// Everything a reproduction needs.
#[derive(Clone, Debug)]
pub struct Bundle {
    /// Directory name under the output root, e.g. `seed-42`.
    pub name: String,
    /// The campaign seed that generated the program, if any.
    pub seed: Option<u64>,
    /// The unoptimized program that failed validation.
    pub original: FlowGraph,
    /// The shrinker's output, when one ran.
    pub shrunk: Option<ShrinkResult>,
    /// The localized failure.
    pub failure: Failure,
    /// An exact command line that replays the failure.
    pub command: String,
    /// Per-stage prover verdicts of the failing validation, in chain
    /// order (empty when the prover was off).
    pub prove_verdicts: Vec<(Stage, Verdict)>,
}

/// The human-readable `report.txt` body for `b`.
pub fn render_report(b: &Bundle) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "am-check failure report");
    let _ = writeln!(s, "=======================");
    let _ = writeln!(s, "stage:     {}", b.failure.stage);
    match &b.failure.kind {
        FailureKind::Structural(e) => {
            let _ = writeln!(s, "kind:      structural ({e})");
        }
        FailureKind::Identity(e) => {
            let _ = writeln!(s, "kind:      identity-layer corruption ({e})");
        }
        FailureKind::Semantic { run, detail } => {
            let _ = writeln!(s, "kind:      semantic divergence (run {run})");
            let _ = writeln!(s, "detail:    {detail}");
        }
        FailureKind::Optimality { run, before, after } => {
            let _ = writeln!(
                s,
                "kind:      optimality regression (run {run}): {before} -> {after} expr evals"
            );
        }
        FailureKind::Proof { detail } => {
            let _ = writeln!(
                s,
                "kind:      statically refuted by the prover (interpreter-confirmed witness)"
            );
            let _ = writeln!(s, "detail:    {detail}");
        }
    }
    if let Some(seed) = b.seed {
        let _ = writeln!(s, "seed:      {seed}");
    }
    let _ = writeln!(s, "decisions: {:?}", b.failure.decisions);
    let _ = writeln!(s, "inputs:    {:?}", b.failure.inputs);
    if !b.prove_verdicts.is_empty() {
        let rendered: Vec<String> = b
            .prove_verdicts
            .iter()
            .map(|(stage, v)| format!("{stage} {v}"))
            .collect();
        let _ = writeln!(s, "prover:    {}", rendered.join("; "));
    }
    if let Some(r) = &b.shrunk {
        let _ = writeln!(
            s,
            "shrink:    {} -> {} nodes ({} candidates tried, {} accepted)",
            r.original_nodes, r.minimized_nodes, r.attempts, r.accepted
        );
    }
    let _ = writeln!(s, "reproduce: {}", b.command);
    s
}

/// Writes `b` under `root`, creating `root/<name>/`, and returns that
/// directory. Emits `original.ir`, `minimized.ir` (when a shrink ran) and
/// `report.txt`.
pub fn write_bundle(root: &Path, b: &Bundle) -> io::Result<PathBuf> {
    let dir = root.join(&b.name);
    fs::create_dir_all(&dir)?;
    fs::write(dir.join("original.ir"), canonical_text(&b.original))?;
    if let Some(r) = &b.shrunk {
        fs::write(dir.join("minimized.ir"), canonical_text(&r.minimized))?;
    }
    fs::write(dir.join("report.txt"), render_report(b))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;
    use am_ir::text::parse;

    fn dummy_failure() -> Failure {
        Failure {
            stage: Stage::MotionRound(2),
            kind: FailureKind::Semantic {
                run: 3,
                detail: "outputs differ".into(),
            },
            decisions: vec![1, 0, 2],
            inputs: vec![("v0".into(), 3)],
        }
    }

    #[test]
    fn bundle_round_trips_through_the_parser() {
        let g =
            parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e").unwrap();
        let b = Bundle {
            name: "seed-7".into(),
            seed: Some(7),
            original: g.clone(),
            shrunk: None,
            failure: dummy_failure(),
            command: "amcheck --seeds 7..8".into(),
            prove_verdicts: vec![
                (Stage::Split, Verdict::Proved),
                (Stage::Init, Verdict::Refuted),
            ],
        };
        let root = std::env::temp_dir().join("am-check-bundle-rt");
        let _ = std::fs::remove_dir_all(&root);
        let dir = write_bundle(&root, &b).unwrap();
        let text = std::fs::read_to_string(dir.join("original.ir")).unwrap();
        let reparsed = parse(&text).unwrap();
        assert!(am_ir::alpha::alpha_eq(&g, &reparsed));
        let report = std::fs::read_to_string(dir.join("report.txt")).unwrap();
        assert!(report.contains("motion round 2"), "{report}");
        assert!(report.contains("seed:      7"), "{report}");
        assert!(report.contains("amcheck --seeds 7..8"), "{report}");
        assert!(
            report.contains("prover:    split proved; init refuted"),
            "{report}"
        );
        assert!(!dir.join("minimized.ir").exists());
    }
}
