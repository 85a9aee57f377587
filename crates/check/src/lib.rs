//! Translation validation for the assignment-motion optimizer.
//!
//! The workspace's correctness story rests on the paper's theorems:
//! semantics preservation (Thm 5.1) and run-cost optimality (Thms 5.2–5.4).
//! `am-core::verify` can compare two whole programs, but an end-to-end
//! mismatch on a 40-node random program says nothing about *which* phase
//! broke it. This crate follows the translation-validation tradition
//! (Necula's TVI; Csmith-style differential testing): it re-runs the
//! optimizer through the phase-boundary hooks of
//! [`am_core::global::optimize_hooked`], snapshots the program after
//! critical-edge splitting, initialization, **every** `rae; aht` round and
//! the final flush, and checks each consecutive pair of snapshots against
//! the counting interpreter on corresponding runs. The first pair that
//! disagrees names the exact phase — and round — that introduced the bug.
//! The LCM and sink baselines are validated against the original program
//! the same way.
//!
//! Campaigns additionally run the `am-prove` symbolic equivalence prover
//! on every snapshot pair *before* the interpreter (on by default, see
//! [`validate::ValidationConfig::prove`]): statically proved pairs are
//! discharged for all inputs without a single concrete run, statically
//! refuted pairs fail as [`validate::FailureKind::Proof`] with the
//! prover's interpreter-confirmed witness path, and only inconclusive
//! pairs fall back to the dynamic differential oracle.
//!
//! On failure, a delta-debugging [`shrink`](shrink::shrink) pass cuts the
//! program down (drop nodes and edges, truncate blocks, simplify terms),
//! re-checking after each cut that the *same class* of failure survives,
//! and a reproduction [`bundle`] — minimized `.ir` text, seed,
//! phase, oracle trace — is written under `target/am-check/`.
//!
//! Entry points:
//!
//! * [`validate::validate`] — check one program, localizing any failure;
//! * [`campaign::run_campaign`] — seeded sweeps over the random-program
//!   corpus (the `amcheck` binary wraps this);
//! * [`fault::FaultSpec`] — inject a deliberate miscompile at a chosen
//!   phase boundary, to prove the harness localizes and shrinks it.
//!
//! # Examples
//!
//! ```
//! use am_check::validate::{validate, ValidationConfig};
//! use am_ir::text::parse;
//!
//! let g = parse(
//!     "start s\nend e\nnode s { x := a+b; y := a+b }\nnode e { out(x,y) }\nedge s -> e",
//! )?;
//! let report = validate(&g, &ValidationConfig::default());
//! assert!(report.passed(), "{:?}", report.failure);
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod bundle;
pub mod campaign;
pub mod fault;
pub mod shrink;
pub mod stage;
pub mod validate;

pub use bundle::{write_bundle, Bundle};
pub use campaign::{
    run_campaign, seed_program, CampaignConfig, CampaignReport, ProveSummary, SeedFailure,
};
pub use fault::{FaultKind, FaultSpec, InjectAt};
pub use shrink::{shrink, ShrinkConfig, ShrinkResult};
pub use stage::Stage;
pub use validate::{validate, Failure, FailureKind, Validation, ValidationConfig, VerdictCounts};
