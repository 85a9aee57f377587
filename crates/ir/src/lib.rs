//! Flow-graph intermediate representation for assignment and expression
//! motion.
//!
//! This crate is the program substrate of the workspace: everything the
//! PLDI'95 algorithm *The Power of Assignment Motion* (Knoop, Rüthing,
//! Steffen) operates on, built from scratch:
//!
//! * [`FlowGraph`] — directed flow graphs `G = (N, E, s, e)` over basic
//!   blocks of 3-address instructions (Sec. 2 of the paper), with critical
//!   edge splitting (Sec. 2.1);
//! * [`Term`], [`Instr`], [`Cond`] — the 3-address term and instruction
//!   language, including write statements and branch conditions;
//! * [`patterns`] — assignment/expression pattern universes and the local
//!   blocking and transparency predicates of Tables 1–3;
//! * [`text`] — a textual syntax with parser and printer, including the
//!   nested-expression frontend and its 3-address decomposition (Sec. 6);
//! * [`interp`] — a counting interpreter that makes the paper's run-cost
//!   comparisons (Def. 3.8) measurable;
//! * [`analysis`] — dominators, reducibility, natural loops;
//! * [`random`] — structured/unstructured program generators;
//! * [`rows`] — the flat row store the graph keeps its per-node lists in;
//! * [`alpha`] — alpha-equivalence modulo temporary names, for pinning
//!   transformed programs against the paper's figures.
//!
//! # Examples
//!
//! ```
//! use am_ir::text::parse;
//! use am_ir::interp::{run, Config};
//!
//! // The running example of the paper (Fig. 4).
//! let g = parse(
//!     "start 1\nend 4\n\
//!      node 1 { y := c+d }\n\
//!      node 2 { branch x+z > y+i }\n\
//!      node 3 { y := c+d; x := y+z; i := i+x }\n\
//!      node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
//!      edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
//! )?;
//! let result = run(&g, &Config::with_inputs(vec![("c", 1), ("d", 2)]));
//! assert_eq!(result.outputs.len(), 1);
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod alpha;
pub mod analysis;
pub mod builder;
pub mod dot;
mod graph;
mod instr;
pub mod intern;
pub mod interp;
pub mod patterns;
pub mod random;
pub mod rng;
pub mod rows;
mod term;
pub mod text;
mod var;

pub use graph::{Block, FlowGraph, GraphError, Loc, NodeId};
pub use instr::{Cond, Instr};
pub use intern::{InstrId, InstrInterner, PatternId, TermArena, TermId};
pub use patterns::{reference_universe, AssignPattern, PatternUniverse};
pub use term::{BinOp, Operand, Term};
pub use var::{Var, VarPool};
