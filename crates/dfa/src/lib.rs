//! Generic bit-vector data-flow framework over `am-ir` flow graphs.
//!
//! All four analyses of *The Power of Assignment Motion* (Tables 1–3) are
//! gen/kill bit-vector systems; this crate provides the shared machinery:
//!
//! * [`blocks`] — the one engine every gen/kill system runs on: stated per
//!   instruction, composed per block, solved over a copy of the flow
//!   graph's edge rows ([`BlockGraph`]) and streamed back per instruction;
//! * [`solve`] — the worklist fixed-point solver, parameterized over
//!   [`Direction`], [`Confluence`] (∏/Σ) and per-point gen/kill sets;
//!   must-systems are solved to greatest fixed points, may-systems to least;
//! * [`classic`] — availability, anticipability, partial availability,
//!   liveness and reaching copies, used by the baseline transformations,
//!   the lints and as framework tests, and strong liveness, which is not
//!   gen/kill;
//! * [`PointGraph`] — the instruction-level program-point view: the point
//!   set strong liveness runs on, and the literal per-instruction
//!   statement the test oracles solve.
//!
//! # Examples
//!
//! ```
//! use am_dfa::{classic::available_expressions, BlockGraph};
//! use am_ir::{text::parse, PatternUniverse, Term, BinOp};
//!
//! let g = parse("start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2")?;
//! let universe = PatternUniverse::collect(&g);
//! let avail = available_expressions(&g, &BlockGraph::build(&g), &universe);
//! let a = g.pool().lookup("a").unwrap();
//! let b = g.pool().lookup("b").unwrap();
//! let ab = universe.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
//! assert!(avail.solution.after[g.end().index()].contains(ab));
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

#![warn(missing_docs)]

mod adjacency;
pub mod blocks;
pub mod classic;
mod masks;
mod points;
mod solve;

pub use adjacency::Adjacency;
pub use blocks::{compose, compose_row, stream, Bits, BlockGraph, BlockSolution, PointFacts};
pub use masks::PatternMasks;
pub use points::{PointGraph, PointId};
pub use solve::{
    solve, solve_scheduled, solve_seeded, Confluence, Direction, Problem, Schedule, Solution,
};
