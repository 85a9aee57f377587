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
//!   A [`Tracer::recording`] handle also keeps the optimizer's decision
//!   log: one [`provenance`] record per transformation, naming the paper
//!   rule and the analysis fact that justified it (`amopt --explain`).
//! * **Model** — [`OptStats`] folds a flat event stream into per-span
//!   latency statistics (exact percentiles + log₂ histograms), per-analysis
//!   fixpoint totals and an iterations-vs-program-size scatter.
//! * **Export** — [`export::summary_tree`], [`export::jsonl`] and
//!   [`export::chrome_trace`] render the same events for humans, for
//!   `amstat` aggregation and for `chrome://tracing`;
//!   [`provenance::jsonl`] and [`provenance::report`] render a decision
//!   log.
//!
//! Everything is dependency-free and thread-safe; pipeline workers share
//! one collector through `Arc`.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod provenance;
pub mod sink;
pub mod stats;
pub mod tracer;

pub use event::{Event, EventKind};
pub use provenance::{ProvKind, ProvRecord};
pub use sink::{Collector, Sink};
pub use stats::{AnalysisTotals, DurStats, Histogram, OptStats, RoundCost, ScatterPoint};
pub use tracer::{Span, Tracer};
