//! `ambench`, the repository benchmark. See `README.md` in this directory
//! for the workloads, the metrics and how to compare two commits.

pub mod batch;
pub mod check;
pub mod compare;
pub mod inputs;
pub mod layers;
pub mod reference;
pub mod run;
pub mod serve;
pub mod spec;
pub mod stats;
