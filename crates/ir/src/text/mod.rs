//! Textual IR: a small language for writing flow graphs, plus the
//! pretty-printer that round-trips it.
//!
//! # Syntax
//!
//! ```text
//! # The running example of the paper (Fig. 4).
//! start 1
//! end 4
//! node 1 { y := c+d }
//! node 2 { branch x+z > y+i }
//! node 3 { y := c+d; x := y+z; i := i+x }
//! node 4 { x := y+z; x := c+d; out(i,x,y) }
//! edge 1 -> 2
//! edge 2 -> 3, 4
//! edge 3 -> 2
//! ```
//!
//! Statements are separated by `;` or newlines; `#` starts a line comment.
//! Right-hand sides may be arbitrarily nested expressions; parsing in
//! [`Mode::Strict`] rejects anything deeper than 3-address form, while
//! [`Mode::Decompose`] performs the canonical decomposition of Sec. 6
//! (Fig. 18: `x := a+b+c` becomes `t1 := a+b; x := t1+c`). In either mode,
//! nesting deeper than [`MAX_DEPTH`] is a [`ParseError`].
//!
//! # Examples
//!
//! ```
//! use am_ir::text::{parse, to_text};
//!
//! let g = parse("start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e\n")?;
//! assert_eq!(g.node_count(), 2);
//! let round = parse(&to_text(&g))?;
//! assert_eq!(to_text(&round), to_text(&g));
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

mod ast;
#[cfg(test)]
mod diagnostics;
mod lexer;
mod parser;
mod printer;

pub use lexer::{lex, LexError, Pos, Token};
pub use parser::{
    parse, parse_cond_str, parse_expr_str, parse_with_locations, parse_with_mode, Mode, ParseError,
    SourceMap, MAX_DEPTH,
};
pub use printer::{node_summary, to_text};
pub(crate) use printer::{
    source_names, write_cond, write_instr, write_int, write_program, write_term, INFALLIBLE,
};
