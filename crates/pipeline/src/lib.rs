//! Parallel batch optimization of whole program corpora.
//!
//! The per-program algorithm lives in [`am_core::global`]; this crate runs
//! it at fleet scale:
//!
//! ```text
//!   jobs (.wl / .ir / in-memory)
//!        │
//!   work queue ──► scoped worker threads (catch_unwind per job)
//!        │              │
//!        │              ├─ stable_hash(input) ──► result cache (LRU) ── hit ─┐
//!        │              └─ miss: optimize_with + per-phase timings ──────────┤
//!        ▼              ▼                                                    ▼
//!   PipelineReport: per-job outcomes in submission order + aggregates
//! ```
//!
//! Guarantees:
//!
//! * **Determinism** — job reports come back in submission order and the
//!   optimizer is deterministic, so batch output is byte-identical whether
//!   one worker runs or sixteen do.
//! * **Isolation** — a job that panics is reported as
//!   [`JobOutcome::Panicked`](job::JobOutcome::Panicked); every other job
//!   still completes.
//! * **Sharing** — the cache is keyed by
//!   [`am_ir::alpha::stable_hash`], so alpha-equivalent inputs (including
//!   byte-identical files under different names) are optimized once.
//!
//! # Examples
//!
//! ```
//! use am_pipeline::{Job, Pipeline, PipelineConfig};
//! use am_lang::SourceKind;
//!
//! // One worker so the duplicate is a guaranteed cache hit: with several
//! // workers, two equivalent jobs in flight at once may both miss (the
//! // race costs time, never correctness).
//! let pipeline = Pipeline::new(PipelineConfig { workers: Some(1), ..Default::default() });
//! let jobs = vec![
//!     Job::from_source("double", SourceKind::While, "x := (a+b)*(a+b); print(x);"),
//!     Job::from_source("again", SourceKind::While, "x := (a+b)*(a+b); print(x);"),
//! ];
//! let report = pipeline.run(&jobs);
//! assert_eq!(report.succeeded(), 2);
//! assert_eq!(report.cache_hits(), 1); // identical program: optimized once
//! ```

#![warn(missing_docs)]

pub mod bench_json;
pub mod cache;
pub mod engine;
pub mod job;
pub mod report;

pub use bench_json::{BenchRecord, BENCH_SCHEMA};
pub use cache::{CacheStats, CachedResult, ResultCache, SecondaryCache};
pub use engine::{Pipeline, PipelineConfig};
pub use job::{Job, JobInput, JobOutcome, JobReport, OptimizedJob, ResultSource};
pub use report::PipelineReport;
