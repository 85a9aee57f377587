//! `L103`: cross-check of the optimizer's own justifications against the
//! lint suite's redundancy analysis.
//!
//! `amopt --explain` produces one [`am_trace::ProvRecord`] per
//! transformation; an `Eliminate` record claims its site was
//! *must-redundant* — the eliminated right-hand side available on every
//! incoming path when control reaches the occurrence. That is exactly the
//! condition `L101` (see [`crate::lint_graph`]) checks with the classic
//! availability solver. This module replays every `Eliminate` record of a
//! provenance [`Capture`] against the snapshot its coordinates refer to
//! (the capture owns that mapping and the site lookup): a record naming a
//! site the availability analysis does *not* consider must-redundant
//! means the decision log and the dataflow analysis disagree about the
//! same paper rule — one of them is wrong, and either way it is an error.

use am_core::explain::{locate, Capture};
use am_dfa::classic::available_expressions;
use am_dfa::{BlockGraph, PointFacts};
use am_ir::{FlowGraph, Instr, PatternUniverse};
use am_trace::ProvRecord;

use crate::diag::{Diagnostic, LintReport, Severity};
use crate::LintConfig;

/// Checks every `Eliminate` record of `capture` against the redundancy
/// analysis of the snapshot it refers to (`L103`, error on disagreement
/// or unlocatable coordinates). Non-`Eliminate` records assert motion
/// rather than store properties and are not availability claims, so they
/// are not checked here.
pub fn check_provenance(capture: &Capture, cfg: &LintConfig) -> LintReport {
    let mut span = cfg.tracer.span("lint", "provenance");
    let mut diags = Vec::new();
    let mut checked = 0usize;
    for (snap, round_records) in capture.eliminations() {
        let Some(snap) = snap else {
            for r in &round_records {
                diags.push(unlocatable(r, "no snapshot for its round"));
            }
            continue;
        };
        checked += check_round(snap, &round_records, &mut diags);
    }
    span.arg("checked", checked as i64)
        .arg("findings", diags.len() as i64);
    LintReport { diags }
}

/// Cross-checks one round's `Eliminate` records against the availability
/// solution of its pre-round snapshot, returning how many sites carried a
/// checkable (nontrivial-rhs) claim.
fn check_round(snap: &FlowGraph, records: &[&ProvRecord], diags: &mut Vec<Diagnostic>) -> usize {
    let universe = PatternUniverse::collect(snap);
    let avail = available_expressions(snap, &BlockGraph::build(snap), &universe);
    let pool = snap.pool();
    let mut checked = 0usize;
    // The availability facts of the block the last record named.
    let (mut facts, mut facts_of) = (PointFacts::default(), None);
    for r in records {
        let Some((node, index, instr)) = locate(snap, r) else {
            diags.push(unlocatable(
                r,
                "its coordinates do not name that instruction in the snapshot",
            ));
            continue;
        };
        let Instr::Assign { rhs, .. } = instr else {
            diags.push(unlocatable(r, "its coordinates name a non-assignment"));
            continue;
        };
        // Copies (`x := y`) are not expression computations; L101 has no
        // availability claim about them, so there is nothing to
        // cross-check.
        if !rhs.is_nontrivial() {
            continue;
        }
        checked += 1;
        let i = universe
            .expr_id(rhs)
            .expect("universe collected from this snapshot");
        if facts_of != Some(node) {
            avail.facts(snap, node, &mut facts);
            facts_of = Some(node);
        }
        if !facts.before(index).contains(i) {
            diags.push(Diagnostic {
                code: "L103",
                severity: Severity::Error,
                message: format!(
                    "round {} eliminated '{}' but '{}' is not available on \
                     every incoming path at that site — the provenance log \
                     and the L101 redundancy analysis disagree",
                    r.round,
                    r.instr,
                    rhs.display(pool)
                ),
                node: Some(r.node.clone()),
                instr: Some(index),
                node_id: None,
                pos: None,
            });
        }
    }
    checked
}

fn unlocatable(r: &ProvRecord, why: &str) -> Diagnostic {
    Diagnostic {
        code: "L103",
        severity: Severity::Error,
        message: format!(
            "round {} Eliminate record for '{}' cannot be cross-checked: {why}",
            r.round, r.instr
        ),
        node: Some(r.node.clone()),
        instr: r.index.map(|i| i as usize),
        node_id: None,
        pos: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_core::explain::capture;
    use am_ir::text::parse;
    use am_trace::{ProvKind, Tracer};

    #[test]
    fn running_example_provenance_agrees_with_l101() {
        let g = parse(
            "start 1\nend 4\nnode 1 { y := c+d }\nnode 2 { branch x+z > y+i }\nnode 3 { y := c+d; x := y+z; i := i+x }\nnode 4 { x := y+z; x := c+d; out(i,x,y) }\nedge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let report = check_provenance(
            &capture(&g, None, &Tracer::disabled()),
            &LintConfig::default(),
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn corpus_provenance_agrees_with_l101() {
        for (name, g) in am_ir::random::corpus80().into_iter().take(20) {
            let report = check_provenance(
                &capture(&g, None, &Tracer::disabled()),
                &LintConfig::default(),
            );
            assert!(report.is_clean(), "{name}: {report}");
        }
    }

    fn fake_record(node: &str, index: u32, instr: &str) -> ProvRecord {
        ProvRecord {
            kind: ProvKind::Eliminate,
            phase: "motion",
            round: 1,
            node: node.to_owned(),
            index: Some(index),
            instr: instr.to_owned(),
            new_instr: None,
            pattern: None,
            instr_id: None,
            justification: "doctored".to_owned(),
        }
    }

    #[test]
    fn a_doctored_record_naming_a_non_redundant_site_is_flagged() {
        // `y := a+b` in node s is the *first* computation of a+b: no
        // honest Eliminate record can name it.
        let g =
            parse("start s\nend e\nnode s { y := a+b; out(y) }\nnode e { }\nedge s -> e").unwrap();
        let r = fake_record("s", 0, "y := a+b");
        let mut diags = Vec::new();
        let checked = check_round(&g, &[&r], &mut diags);
        assert_eq!(checked, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L103");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(
            diags[0].message.contains("disagree"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn a_record_with_bogus_coordinates_is_flagged_as_unlocatable() {
        let g =
            parse("start s\nend e\nnode s { y := a+b; out(y) }\nnode e { }\nedge s -> e").unwrap();
        let r = fake_record("s", 0, "y := c+d"); // text mismatch
        let mut diags = Vec::new();
        check_round(&g, &[&r], &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "L103");
        assert!(
            diags[0].message.contains("cannot be cross-checked"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn an_honest_record_on_a_redundant_site_is_certified() {
        let g = parse(
            "start s\nend e\nnode s { x := a+b }\nnode e { y := a+b; out(x,y) }\nedge s -> e",
        )
        .unwrap();
        let r = fake_record("e", 0, "y := a+b");
        let mut diags = Vec::new();
        let checked = check_round(&g, &[&r], &mut diags);
        assert_eq!(checked, 1);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
