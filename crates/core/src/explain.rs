//! Provenance capture: one optimizer run on a recording tracer,
//! kept together with the phase snapshots its records can be replayed
//! against.
//!
//! Every consumer of the decision log works from one [`Capture`]:
//! `amopt --explain` prints and exports its records, the `L103` lint
//! (`am_lint::check_provenance`) checks each `Eliminate` record against
//! the availability analysis of its snapshot, and the prover
//! (`am_prove::discharge_provenance`) discharges the same records
//! symbolically. The two rules they share live here:
//!
//! * an `Eliminate` record of motion round `r` refers to the program at
//!   the *start* of round `r` — the `MotionRound(r-1)` snapshot, or `Init`
//!   for round 1 — because a round collects all redundant sites before
//!   removing any ([`Capture::eliminations`]);
//! * a record's site is the instruction at the record's index in the node
//!   with the record's label, provided its display text equals the
//!   record's ([`locate`]).
//!
//! Caching and provenance are at odds — a cache hit is precisely a run
//! whose individual decisions were *not* replayed — so a capture always
//! optimizes from scratch.

use am_ir::{FlowGraph, Instr, NodeId};
use am_trace::{ProvKind, ProvRecord, Tracer};

use crate::global::{optimize_hooked, GlobalConfig, GlobalResult, PhaseId};

/// One optimizer run with provenance recorded.
pub struct Capture {
    /// The optimizer result; `after_init` and `after_motion` are always
    /// populated, so the records between them are exactly the motion
    /// decisions and the records after `after_motion` the flush ones.
    pub result: GlobalResult,
    /// Every transformation the run performed, in application order.
    pub records: Vec<ProvRecord>,
    /// The `Init` and every `MotionRound` snapshot, in phase order.
    snapshots: Vec<(PhaseId, FlowGraph)>,
}

/// Optimizes `g` on [`tracer.recording()`](Tracer::recording): spans and
/// counters go to `tracer`'s sink, records into the capture.
pub fn capture(g: &FlowGraph, max_motion_rounds: Option<usize>, tracer: &Tracer) -> Capture {
    let config = GlobalConfig {
        max_motion_rounds,
        keep_snapshots: true,
        tracer: tracer.recording(),
    };
    let mut snapshots = Vec::new();
    let result = optimize_hooked(g, &config, &mut |phase, prog| {
        if matches!(phase, PhaseId::Init | PhaseId::MotionRound(_)) {
            snapshots.push((phase, prog.clone()));
        }
    });
    Capture {
        result,
        records: config.tracer.take_records(),
        snapshots,
    }
}

/// The phase whose snapshot an `Eliminate` record of motion round `round`
/// refers to: the program as the round found it.
fn snapshot_phase(round: u32) -> PhaseId {
    if round <= 1 {
        PhaseId::Init
    } else {
        PhaseId::MotionRound(round as usize - 1)
    }
}

/// Locates `r`'s site in `snap`: the node labelled `r.node`, the
/// instruction at `r.index` in it, and only if that instruction displays
/// as `r.instr`. `None` means the record is unlocatable.
pub fn locate<'g>(snap: &'g FlowGraph, r: &ProvRecord) -> Option<(NodeId, usize, &'g Instr)> {
    let node = snap.nodes().find(|&n| snap.label(n) == r.node)?;
    let index = r.index? as usize;
    let instr = snap.instrs(node).nth(index)?;
    (instr.display(snap.pool()) == r.instr).then_some((node, index, instr))
}

impl Capture {
    /// The `Eliminate` records grouped by round, rounds ascending and
    /// records in application order, each group paired with the snapshot
    /// its records refer to (`None` when the run produced no such
    /// snapshot).
    pub fn eliminations(&self) -> Vec<(Option<&FlowGraph>, Vec<&ProvRecord>)> {
        let mut elims: Vec<&ProvRecord> = self
            .records
            .iter()
            .filter(|r| r.kind == ProvKind::Eliminate)
            .collect();
        elims.sort_by_key(|r| r.round);
        elims
            .chunk_by(|a, b| a.round == b.round)
            .map(|round| {
                let phase = snapshot_phase(round[0].round);
                let snap = self
                    .snapshots
                    .iter()
                    .find(|(p, _)| *p == phase)
                    .map(|(_, s)| s);
                (snap, round.to_vec())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::text::parse;

    fn record(node: &str, index: Option<u32>, instr: &str) -> ProvRecord {
        ProvRecord {
            kind: ProvKind::Eliminate,
            phase: "motion",
            round: 1,
            node: node.to_owned(),
            index,
            instr: instr.to_owned(),
            new_instr: None,
            pattern: None,
            instr_id: None,
            justification: String::new(),
        }
    }

    #[test]
    fn locate_needs_label_index_and_text_to_agree() {
        let g =
            parse("start s\nend e\nnode s { x := a+b; y := x }\nnode e { out(y) }\nedge s -> e")
                .unwrap();
        let (node, index, instr) = locate(&g, &record("s", Some(1), "y := x")).unwrap();
        assert_eq!(g.label(node), "s");
        assert_eq!(index, 1);
        assert_eq!(instr.display(g.pool()), "y := x");

        for (why, r) in [
            ("wrong label", record("q", Some(1), "y := x")),
            ("index out of range", record("s", Some(2), "y := x")),
            ("no index", record("s", None, "y := x")),
            ("text mismatch", record("s", Some(0), "y := x")),
        ] {
            assert!(locate(&g, &r).is_none(), "{why} must be unlocatable");
        }
    }

    #[test]
    fn a_round_refers_to_the_snapshot_it_started_from() {
        assert_eq!(snapshot_phase(1), PhaseId::Init);
        assert_eq!(snapshot_phase(2), PhaseId::MotionRound(1));
        assert_eq!(snapshot_phase(7), PhaseId::MotionRound(6));
    }

    #[test]
    fn every_elimination_is_paired_with_a_snapshot_that_locates_it() {
        // Fig. 4, the running example: its eliminations span rounds.
        let g = parse(
            "start 1\nend 4\nnode 1 { y := c+d }\nnode 2 { branch x+z > y+i }\nnode 3 { y := c+d; x := y+z; i := i+x }\nnode 4 { x := y+z; x := c+d; out(i,x,y) }\nedge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .unwrap();
        let c = capture(&g, None, &Tracer::disabled());
        assert!(c.result.after_init.is_some() && c.result.after_motion.is_some());
        let groups = c.eliminations();
        assert!(!groups.is_empty());
        let mut seen = 0;
        let mut last_round = 0;
        for (snap, records) in &groups {
            let round = records[0].round;
            assert!(round > last_round, "rounds ascend and do not repeat");
            last_round = round;
            let snap = snap.expect("every round's start is snapshotted");
            for r in records {
                assert_eq!(r.round, round);
                assert!(locate(snap, r).is_some(), "{r:?}");
                seen += 1;
            }
        }
        assert_eq!(seen, c.result.motion.eliminated);
    }

    #[test]
    fn a_capture_traces_like_an_unrecorded_run() {
        // Each event without its timestamps and durations.
        let shape = |events: Vec<am_trace::Event>| {
            events
                .into_iter()
                .map(|e| {
                    let span = matches!(e.kind, am_trace::EventKind::Span { .. });
                    (e.cat, e.name, span, e.depth, e.args)
                })
                .collect::<Vec<_>>()
        };
        for (name, g) in am_ir::random::corpus80().into_iter().step_by(8) {
            let (tracer, collector) = Tracer::collector();
            let captured = capture(&g, None, &tracer);
            let (tracer, plain) = Tracer::collector();
            let config = GlobalConfig {
                max_motion_rounds: None,
                keep_snapshots: true,
                tracer,
            };
            optimize_hooked(&g, &config, &mut |_, _| {});
            assert!(!collector.is_empty(), "{name}: the capture traced nothing");
            assert_eq!(shape(collector.take()), shape(plain.take()), "{name}");
            assert_eq!(
                captured.records,
                capture(&g, None, &Tracer::disabled()).records,
                "{name}: the sink changed the records"
            );
        }
    }
}
