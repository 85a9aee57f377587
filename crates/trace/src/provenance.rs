//! Optimization provenance: one record per individual program
//! transformation, naming the paper rule and the analysis fact that
//! justified it.
//!
//! The optimizer reports *counts* (`MotionStats`, `FlushStats`); provenance
//! records report *sites*. Each elimination, hoist insertion/removal and
//! flush insertion/removal/reconstruction appends one [`ProvRecord`] to the
//! log of a recording [`Tracer`](crate::Tracer), so the full decision log
//! of a run replays the exact multiset delta between the post-initialization
//! program and the final program — a property the differential test in
//! `crates/pipeline/tests/explain.rs` pins on the whole corpus.
//!
//! Only a tracer made by [`Tracer::recording`](crate::Tracer::recording)
//! keeps records; on any other, `record()` is one branch, no locking, no
//! formatting, no allocation. Only `amopt --explain` (and tests) record.

use crate::json::{self, Json};

/// What kind of transformation a record documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProvKind {
    /// An assignment occurrence removed by redundant assignment
    /// elimination (Table 2).
    Eliminate,
    /// An instance inserted by assignment hoisting (Table 1 insertion
    /// points).
    HoistInsert,
    /// A hoisting candidate removed by assignment hoisting (Fig. 13).
    HoistRemove,
    /// An initialization inserted by the final flush (Table 3
    /// initialization points).
    FlushInsert,
    /// An instance removed from its old position by the final flush.
    FlushRemove,
    /// A single-serving use rewritten back to its original term by the
    /// final flush (`RECONSTRUCT`).
    FlushReconstruct,
}

impl ProvKind {
    /// Stable lowercase identifier used in the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            ProvKind::Eliminate => "eliminate",
            ProvKind::HoistInsert => "hoist-insert",
            ProvKind::HoistRemove => "hoist-remove",
            ProvKind::FlushInsert => "flush-insert",
            ProvKind::FlushRemove => "flush-remove",
            ProvKind::FlushReconstruct => "flush-reconstruct",
        }
    }

    /// The paper rule the transformation applies.
    pub fn rule(self) -> &'static str {
        match self {
            ProvKind::Eliminate => "Table 2: N-REDUNDANT (elimination step, Sec. 4.3.1)",
            ProvKind::HoistInsert => {
                "Table 1: N-INSERT/X-INSERT of the greatest hoistability solution (Sec. 4.3.2)"
            }
            ProvKind::HoistRemove => {
                "Fig. 13: first unblocked occurrence is the hoisting candidate"
            }
            ProvKind::FlushInsert => "Table 3: N-INIT/X-INIT = LATEST · X-USABLE* (Sec. 4.4)",
            ProvKind::FlushRemove => "Table 3: IS-INST removed, re-placed at latest points",
            ProvKind::FlushReconstruct => "Table 3: RECONSTRUCT = USED · N-LATEST · ¬X-USABLE*",
        }
    }

    /// Net effect on the instruction multiset: how many copies of
    /// [`ProvRecord::instr`] the transformation adds (+1) or removes (−1).
    /// Reconstructions remove `instr` and add [`ProvRecord::new_instr`].
    pub fn delta(self) -> i64 {
        match self {
            ProvKind::HoistInsert | ProvKind::FlushInsert => 1,
            ProvKind::Eliminate
            | ProvKind::HoistRemove
            | ProvKind::FlushRemove
            | ProvKind::FlushReconstruct => -1,
        }
    }
}

/// One provenance record: a single transformation at a single site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvRecord {
    /// The transformation kind (also determines the paper rule).
    pub kind: ProvKind,
    /// The optimizer phase (`"motion"` or `"flush"`).
    pub phase: &'static str,
    /// The 1-based motion round, 0 for the flush.
    pub round: u32,
    /// Label of the block the site sits in.
    pub node: String,
    /// Instruction index within the block at the time of the
    /// transformation (`None` for block-entry/exit insertions).
    pub index: Option<u32>,
    /// Display text of the instruction removed, inserted, or (for
    /// reconstructions) replaced.
    pub instr: String,
    /// The rewritten instruction, for reconstructions only.
    pub new_instr: Option<String>,
    /// The analysis bit (pattern index in the round's universe) the
    /// decision keyed on, when the transformation is pattern-indexed.
    pub pattern: Option<u32>,
    /// The hash-consed instruction id (`am_ir::intern::InstrId`) of the
    /// site, when the capturing pass had one at hand.
    pub instr_id: Option<u32>,
    /// Which analysis fact justified the decision, in the paper's terms.
    pub justification: String,
}

impl ProvRecord {
    /// The record as one JSON object (a line of the JSONL export).
    pub fn to_json(&self) -> Json {
        let members = [
            Some(("kind", self.kind.label().into())),
            Some(("phase", self.phase.into())),
            Some(("round", self.round.into())),
            Some(("node", self.node.as_str().into())),
            self.index.map(|index| ("index", index.into())),
            Some(("instr", self.instr.as_str().into())),
            self.new_instr
                .as_deref()
                .map(|new_instr| ("new_instr", new_instr.into())),
            self.pattern.map(|pattern| ("pattern", pattern.into())),
            self.instr_id.map(|id| ("instr_id", id.into())),
            Some(("rule", self.kind.rule().into())),
            Some(("justification", self.justification.as_str().into())),
        ];
        json::obj(members.into_iter().flatten())
    }
}

/// Renders records as JSONL, one object per line (the `--explain` export).
pub fn jsonl(records: &[ProvRecord]) -> String {
    let mut out = String::new();
    for record in records {
        record.to_json().write(&mut out);
        out.push('\n');
    }
    out
}

/// Renders records as a human report: sites grouped by phase and round,
/// each line naming the transformation, the site and the paper rule.
pub fn report(records: &[ProvRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if records.is_empty() {
        out.push_str("no transformations recorded\n");
        return out;
    }
    let mut counts: Vec<(ProvKind, usize)> = Vec::new();
    for record in records {
        match counts.iter_mut().find(|(k, _)| *k == record.kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((record.kind, 1)),
        }
    }
    let _ = writeln!(out, "{} transformations:", records.len());
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {:>5} {:<17} {}", n, kind.label(), kind.rule());
    }
    let mut header: Option<(&'static str, u32)> = None;
    for record in records {
        let here = (record.phase, record.round);
        if header != Some(here) {
            header = Some(here);
            if record.round > 0 {
                let _ = writeln!(out, "\n{} round {}:", record.phase, record.round);
            } else {
                let _ = writeln!(out, "\n{}:", record.phase);
            }
        }
        let site = match record.index {
            Some(index) => format!("node {} [{}]", record.node, index),
            None => format!("node {}", record.node),
        };
        match &record.new_instr {
            Some(new_instr) => {
                let _ = writeln!(
                    out,
                    "  {:<17} {:<16} {} -> {}  ({})",
                    record.kind.label(),
                    site,
                    record.instr,
                    new_instr,
                    record.justification
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<17} {:<16} {}  ({})",
                    record.kind.label(),
                    site,
                    record.instr,
                    record.justification
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProvRecord {
        ProvRecord {
            kind: ProvKind::Eliminate,
            phase: "motion",
            round: 2,
            node: "loop.head".into(),
            index: Some(3),
            instr: "x := a+b".into(),
            new_instr: None,
            pattern: Some(1),
            instr_id: Some(42),
            justification: "N-REDUNDANT[p] bit 1 at block entry".into(),
        }
    }

    #[test]
    fn disabled_recorder_drops_records() {
        let rec = crate::Tracer::disabled();
        assert!(!rec.is_recording());
        rec.record(sample());
        assert!(rec.take_records().is_empty());
    }

    #[test]
    fn enabled_recorder_shares_the_log_across_clones() {
        let rec = crate::Tracer::disabled().recording();
        assert!(rec.is_recording());
        let clone = rec.clone();
        clone.record(sample());
        rec.record(ProvRecord {
            kind: ProvKind::FlushReconstruct,
            round: 0,
            phase: "flush",
            new_instr: Some("x := a+b".into()),
            instr: "x := h1".into(),
            ..sample()
        });
        let records = rec.take_records();
        assert_eq!(records.len(), 2);
        assert!(rec.take_records().is_empty(), "take drains the log");
    }

    #[test]
    fn jsonl_round_trips() {
        let records = vec![
            sample(),
            ProvRecord {
                kind: ProvKind::FlushReconstruct,
                phase: "flush",
                round: 0,
                node: "4".into(),
                index: None,
                instr: "x := h1".into(),
                new_instr: Some("x := c+d".into()),
                pattern: Some(0),
                instr_id: None,
                justification: "USED · N-LATEST · ¬X-USABLE*".into(),
            },
        ];
        let text = jsonl(&records);
        let parsed: Vec<Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        let built: Vec<Json> = records.iter().map(ProvRecord::to_json).collect();
        assert_eq!(parsed, built);
        assert_eq!(parsed[0].u64_field("index"), Ok(3));
        assert!(
            parsed[1].get("index").is_none(),
            "absent fields are left out"
        );
        assert_eq!(parsed[1].str_field("new_instr"), Ok("x := c+d"));
    }

    #[test]
    fn report_names_the_rule_per_site() {
        let text = report(&[sample()]);
        assert!(text.contains("eliminate"), "{text}");
        assert!(text.contains("x := a+b"), "{text}");
        assert!(text.contains("motion round 2"), "{text}");
        assert!(text.contains("N-REDUNDANT"), "{text}");
    }

    #[test]
    fn deltas_balance_for_reconstructions() {
        assert_eq!(ProvKind::HoistInsert.delta(), 1);
        assert_eq!(ProvKind::Eliminate.delta(), -1);
        assert_eq!(ProvKind::FlushReconstruct.delta(), -1);
    }
}
