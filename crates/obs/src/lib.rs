//! `am-obs`: the operational side of observability in the
//! assignment-motion workspace — what a running service exposes and what
//! the bench tooling checks.
//!
//! Independent, zero-dependency pieces (`am-trace` supplies the one JSON
//! codec and the metrics primitives). The optimizer's own observer, spans,
//! counters and the decision log (`am_trace::provenance`) alike, is
//! `am_trace::Tracer`; no optimizer crate depends on this one.
//!
//! * [`promtext`] — a registry of named counters/gauges/histograms rendered
//!   in the Prometheus text exposition format (0.0.4): `# HELP`/`# TYPE`
//!   lines, label sets, cumulative `_bucket`/`_sum`/`_count` histograms.
//!   `amserve --metrics` serves this over [`httpx`], a minimal HTTP/1.1
//!   exchange.
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
pub mod regress;
pub mod ring;

pub use promtext::Registry;
pub use ring::{TraceEntry, TraceRing};
