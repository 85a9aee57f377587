//! `am-trace`: structured tracing and optimizer metrics for the assignment
//! motion workspace.
//!
//! The crate has three layers:
//!
//! * **Collection** — a cheap, cloneable [`Tracer`] handle producing
//!   hierarchical [`Span`]s (`optimize > round 3 > rae > solve`), counter
//!   samples and instant markers into a shared [`Sink`]. The disabled
//!   tracer is the default everywhere and its spans cost one branch and an
//!   `Instant::now` — no allocation, no locking, no thread-local traffic.
//! * **Model** — [`OptStats`] folds a flat event stream into per-span
//!   latency statistics (exact percentiles + log₂ histograms), per-analysis
//!   fixpoint totals and an iterations-vs-program-size scatter.
//! * **Export** — [`export::summary_tree`], [`export::jsonl`] and
//!   [`export::chrome_trace`] render the same events for humans, for
//!   `amstat` aggregation and for `chrome://tracing`.
//!
//! Everything is dependency-free and thread-safe; pipeline workers share
//! one collector through `Arc`.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod sink;
pub mod stats;
pub mod tracer;

pub use event::{Event, EventKind};
pub use sink::{Collector, NoopSink, Sink};
pub use stats::{AnalysisTotals, DurStats, Histogram, OptStats, RoundCost, ScatterPoint};
pub use tracer::{Span, Tracer};
