//! The `amopt --explain` path: a cache-bypassing optimizer run with
//! provenance capture enabled.
//!
//! Caching and provenance are at odds — a cache hit is precisely a run
//! whose individual decisions were *not* replayed — so explanation always
//! re-optimizes from scratch. The extra cost is the point: `--explain` is a
//! diagnostic mode, not a production path, and the recorder it enables is
//! the same one every ordinary run carries disabled at one branch per
//! potential record.

use am_core::global::{optimize_with, GlobalConfig, GlobalResult};
use am_ir::FlowGraph;
use am_obs::{ProvRecord, ProvRecorder};
use am_trace::Tracer;

/// The outcome of one explained optimization: the ordinary result (with
/// phase snapshots kept) plus the full decision log.
pub struct Explanation {
    /// The optimizer result; `after_init` and `after_motion` are always
    /// populated so callers can replay the decision log phase by phase.
    pub result: GlobalResult,
    /// Every transformation the run performed, in application order.
    pub records: Vec<ProvRecord>,
}

/// Optimizes `graph` with provenance recording enabled, bypassing every
/// cache tier. Snapshots are kept: the records between `after_init` and
/// `after_motion` are exactly the motion-phase decisions, and the records
/// after `after_motion` are exactly the flush decisions.
pub fn explain_graph(graph: &FlowGraph, max_motion_rounds: Option<usize>) -> Explanation {
    let recorder = ProvRecorder::enabled();
    let config = GlobalConfig {
        max_motion_rounds,
        keep_snapshots: true,
        tracer: Tracer::disabled(),
        recorder: recorder.clone(),
    };
    let result = optimize_with(graph, &config);
    Explanation {
        result,
        records: recorder.take(),
    }
}
