//! Differential test for the `--explain` provenance log: on the whole
//! 80-program corpus, the recorded decision sites must replay the *exact*
//! multiset delta between the optimizer's phase snapshots — every
//! eliminated, hoisted and flushed assignment accounted for, nothing
//! extra, nothing missing — and the per-kind record counts must equal the
//! aggregate counters the optimizer reports.

use std::collections::HashMap;

use am_core::explain::capture;
use am_ir::random::corpus80;
use am_ir::FlowGraph;
use am_trace::{ProvKind, ProvRecord, Tracer};

/// Per-site instruction multiset: (block label, instruction text) → count.
type Multiset = HashMap<(String, String), i64>;

fn multiset(g: &FlowGraph) -> Multiset {
    let mut m = Multiset::new();
    for n in g.nodes() {
        let label = g.label(n).to_owned();
        for instr in g.instrs(n) {
            *m.entry((label.clone(), instr.display(g.pool())))
                .or_insert(0) += 1;
        }
    }
    m
}

/// Applies a decision log to the multiset: removals decrement, insertions
/// increment, reconstructions swap `instr` for `new_instr` in place.
fn apply(name: &str, m: &mut Multiset, records: &[ProvRecord]) {
    for r in records {
        let key = (r.node.clone(), r.instr.clone());
        match r.kind {
            ProvKind::HoistInsert | ProvKind::FlushInsert => {
                assert!(r.new_instr.is_none(), "{name}: insertion with new_instr");
                *m.entry(key).or_insert(0) += 1;
            }
            ProvKind::Eliminate | ProvKind::HoistRemove | ProvKind::FlushRemove => {
                assert!(r.new_instr.is_none(), "{name}: removal with new_instr");
                *m.entry(key).or_insert(0) -= 1;
            }
            ProvKind::FlushReconstruct => {
                let new_instr = r
                    .new_instr
                    .clone()
                    .unwrap_or_else(|| panic!("{name}: reconstruction without new_instr"));
                *m.entry(key).or_insert(0) -= 1;
                *m.entry((r.node.clone(), new_instr)).or_insert(0) += 1;
            }
        }
    }
}

fn normalized(m: &Multiset) -> Multiset {
    m.iter()
        .filter(|(_, &count)| count != 0)
        .map(|(k, &count)| (k.clone(), count))
        .collect()
}

fn count(records: &[ProvRecord], kind: ProvKind) -> usize {
    records.iter().filter(|r| r.kind == kind).count()
}

/// Recording provenance must be observation only: the explained run's
/// final program is bit-identical to the normal (not recording) pipeline
/// run, and the default tracer really is the one-branch one that keeps no
/// records — none accumulate anywhere a caller didn't ask for them.
#[test]
fn recording_never_perturbs_the_optimization() {
    let default = Tracer::default();
    assert!(
        !default.is_recording(),
        "the default tracer keeps no records"
    );
    assert!(default.take_records().is_empty());

    let pipeline = am_pipeline::Pipeline::new(am_pipeline::PipelineConfig::default());
    for (name, g) in corpus80().into_iter().take(12) {
        let normal = pipeline.optimize_graph(g.clone());
        let explained = capture(&g, None, &Tracer::disabled());
        assert_eq!(
            am_ir::alpha::canonical_text(&explained.result.program),
            normal.result.canonical,
            "{name}: explained program differs from the normal run"
        );
    }
}

#[test]
fn provenance_replays_the_exact_corpus_delta() {
    for (name, g) in corpus80() {
        let explanation = capture(&g, None, &Tracer::disabled());
        let result = &explanation.result;
        let records = &explanation.records;
        assert!(result.motion.converged, "{name}: did not converge");

        // Records arrive in application order: every motion record strictly
        // before every flush record.
        let split = records.iter().position(|r| r.phase == "flush");
        let (motion_records, flush_records) = match split {
            Some(i) => {
                assert!(
                    records[i..].iter().all(|r| r.phase == "flush"),
                    "{name}: motion record after a flush record"
                );
                records.split_at(i)
            }
            None => (&records[..], &records[..0]),
        };

        // Per-kind record counts equal the optimizer's aggregate counters:
        // one provenance line per eliminated/moved assignment, exactly.
        assert_eq!(
            count(motion_records, ProvKind::Eliminate),
            result.motion.eliminated,
            "{name}: eliminations"
        );
        assert_eq!(
            count(motion_records, ProvKind::HoistInsert),
            result.motion.inserted,
            "{name}: hoist insertions"
        );
        assert_eq!(
            count(motion_records, ProvKind::HoistRemove),
            result.motion.removed,
            "{name}: hoist removals"
        );
        assert_eq!(
            count(flush_records, ProvKind::FlushInsert),
            result.flush.inserted,
            "{name}: flush insertions"
        );
        assert_eq!(
            count(flush_records, ProvKind::FlushRemove),
            result.flush.instances_removed,
            "{name}: flush removals"
        );
        assert_eq!(
            count(flush_records, ProvKind::FlushReconstruct),
            result.flush.reconstructed,
            "{name}: reconstructions"
        );

        // Replay the decision log over the post-initialization snapshot:
        // the motion records must land exactly on the post-motion snapshot,
        // and the flush records on the final program. Any unrecorded or
        // misattributed transformation breaks the multiset equality.
        let after_init = result.after_init.as_ref().expect("snapshots kept");
        let after_motion = result.after_motion.as_ref().expect("snapshots kept");
        let mut m = multiset(after_init);
        apply(&name, &mut m, motion_records);
        assert_eq!(
            normalized(&m),
            multiset(after_motion),
            "{name}: motion records do not replay the motion delta"
        );
        apply(&name, &mut m, flush_records);
        assert_eq!(
            normalized(&m),
            multiset(&result.program),
            "{name}: flush records do not replay the flush delta"
        );
    }
}
