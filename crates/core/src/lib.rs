//! Uniform partially-redundant expression and assignment elimination — the
//! algorithm of *The Power of Assignment Motion* (Knoop, Rüthing, Steffen,
//! PLDI 1995), plus the baselines it is evaluated against.
//!
//! The entry point is [`global::optimize`], which runs the paper's three
//! phases on a flow graph:
//!
//! 1. [`init`] — decompose every assignment `x := t` into
//!    `h_t := t; x := h_t`, making assignment motion subsume expression
//!    motion;
//! 2. [`motion`] — interleave [`rae`] (redundant assignment elimination,
//!    Table 2) and [`hoist`] (assignment hoisting, Table 1) until the
//!    program stabilizes, capturing all second-order effects;
//! 3. [`flush`] — sink the surviving temporary initializations to their
//!    latest useful points and reconstruct the single-use ones (Table 3).
//!
//! # Examples
//!
//! ```
//! use am_ir::text::parse;
//! use am_core::global::optimize;
//!
//! // Fig. 4, the running example of the paper.
//! let g = parse(
//!     "start 1\nend 4\n\
//!      node 1 { y := c+d }\n\
//!      node 2 { branch x+z > y+i }\n\
//!      node 3 { y := c+d; x := y+z; i := i+x }\n\
//!      node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
//!      edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
//! )?;
//! let result = optimize(&g);
//! let text = am_ir::alpha::canonical_text(&result.program);
//! // Fig. 5: the loop body only keeps i := i+x and the h2 update.
//! assert!(text.contains("node 3 {\n  i := i+x\n  h2 := x+z\n}"));
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod copyprop;
pub mod explain;
pub mod flush;
pub mod global;
pub mod hoist;
mod incremental;
pub mod init;
pub mod lcm;
pub mod motion;
pub mod preorder;
pub mod rae;
pub mod restricted;
pub mod sink;
pub mod universe;
pub mod verify;
