//! Generic bit-vector data-flow framework over `am-ir` flow graphs.
//!
//! All four analyses of *The Power of Assignment Motion* (Tables 1–3) are
//! gen/kill bit-vector systems; this crate provides the shared machinery:
//!
//! * [`PointGraph`] — the instruction-level program-point view the paper
//!   states Tables 2 and 3 in, used by the baselines, the lints and the
//!   test oracles; [`node_adjacency`] — the block-level view the optimizer
//!   solves all three tables over;
//! * [`solve`] — the worklist fixed-point solver, parameterized over
//!   [`Direction`], [`Confluence`] (∏/Σ) and per-point gen/kill sets;
//!   must-systems are solved to greatest fixed points, may-systems to least;
//! * [`classic`] — availability, anticipability, liveness and reaching
//!   copies, used by the baseline transformations and as framework tests.
//!
//! # Examples
//!
//! ```
//! use am_dfa::{PointGraph, classic::available_expressions};
//! use am_ir::{text::parse, PatternUniverse, Term, BinOp};
//!
//! let g = parse("start 1\nend 2\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge 1 -> 2")?;
//! let pg = PointGraph::build(&g);
//! let universe = PatternUniverse::collect(&g);
//! let sol = available_expressions(&pg, &universe);
//! let a = g.pool().lookup("a").unwrap();
//! let b = g.pool().lookup("b").unwrap();
//! let ab = universe.expr_id(&Term::binary(BinOp::Add, a, b)).unwrap();
//! assert!(sol.after[pg.exit().index()].contains(ab));
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

#![warn(missing_docs)]

mod adjacency;
pub mod classic;
mod masks;
mod points;
mod solve;

pub use adjacency::Adjacency;
pub use masks::PatternMasks;
pub use points::{node_adjacency, PointGraph, PointId};
pub use solve::{
    solve, solve_scheduled, solve_seeded, Confluence, Direction, Problem, Schedule, Solution,
};
