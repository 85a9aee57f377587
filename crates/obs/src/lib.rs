//! `am-obs`: the observability layer of the assignment-motion workspace.
//!
//! Four independent pieces, all zero-dependency (`am-trace` supplies the
//! one JSON codec and the metrics primitives):
//!
//! * [`provenance`] — per-instruction decision records captured while the
//!   optimizer runs: which analysis fact (which bit of which Table 1/2/3
//!   row at which point) justified each elimination, hoist and flush
//!   motion. Exported as JSONL and as a human report naming the paper rule
//!   applied per site (`amopt --explain`).
//! * [`promtext`] — a registry of named counters/gauges/histograms rendered
//!   in the Prometheus text exposition format (0.0.4): `# HELP`/`# TYPE`
//!   lines, label sets, cumulative `_bucket`/`_sum`/`_count` histograms.
//!   `amserve --metrics` serves this over [`httpx`].
//! * [`ring`] — a bounded in-memory ring of per-request span trees, keyed
//!   by client-generated trace ids propagated through the wire protocol
//!   (`amclient trace-tail`).
//! * [`regress`] — the bench-regression sentinel: append-only
//!   `BENCH_history.jsonl` entries and a noise-aware comparator over
//!   `am-bench-dataflow/v1` / `am-bench-service/v1` documents
//!   (`amstat regress`, wired as a CI gate).

#![warn(missing_docs)]

pub mod httpx;
pub mod promtext;
pub mod provenance;
pub mod regress;
pub mod ring;

pub use promtext::Registry;
pub use provenance::{ProvKind, ProvRecord, ProvRecorder};
pub use ring::{TraceEntry, TraceRing};
