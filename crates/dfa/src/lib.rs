//! Generic bit-vector data-flow framework over `am-ir` flow graphs.
//!
//! All four analyses of *The Power of Assignment Motion* (Tables 1–3) are
//! gen/kill bit-vector systems; this crate provides the shared machinery:
//!
//! * [`blocks`] — the one engine every gen/kill system runs on: stated per
//!   instruction, composed per block, solved over a copy of the flow
//!   graph's edge rows ([`BlockGraph`]) and streamed back per instruction;
//! * [`BlockGraph`] — the solver's one way in: a worklist fixed-point
//!   solver over the blocks, parameterized over [`Direction`],
//!   [`Confluence`] (∏/Σ) and per-block gen/kill sets ([`Problem`]);
//!   must-systems are solved to greatest fixed points, may-systems to
//!   least;
//! * [`classic`] — availability, anticipability, partial availability,
//!   liveness and reaching copies, used by the baseline transformations,
//!   the lints and as framework tests, and strong liveness, which is not
//!   gen/kill but is solved over the same blocks.
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

pub mod blocks;
pub mod classic;
mod masks;
mod solve;

pub use blocks::{compose, compose_row, stream, Bits, BlockSolution, PointFacts};
pub use masks::PatternMasks;
pub use solve::{BlockGraph, Confluence, Direction, Problem, Solution};
