//! Benchmark harness: executable reproductions of every figure in *The
//! Power of Assignment Motion* and the Sec. 4.5 complexity study.
//!
//! * [`figures`] — one reproduction function per paper figure, returning
//!   before/after programs and dynamic cost measurements (used by the
//!   `figures` binary and the integration tests);
//! * [`workloads`] — the synthetic program families of the complexity
//!   study and its exponent fit (`bench_dataflow` binary);
//! * [`programs`] — the figure input programs in textual IR.

#![warn(missing_docs)]

pub mod figures;
pub mod programs;
pub mod witness;
pub mod workloads;
