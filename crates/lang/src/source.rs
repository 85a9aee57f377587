//! File-type dispatch: one entry point that accepts either frontend.
//!
//! The workspace has two textual program formats — `.wl` while-language
//! source (this crate) and `.ir` flow-graph text (`am_ir::text`). Batch
//! tools should not care which one they were handed; [`compile_source`]
//! dispatches on a [`SourceKind`], usually derived from the file extension
//! with [`SourceKind::from_path`].

use std::fmt;
use std::path::Path;

use am_ir::text::{parse_with_mode, Mode, ParseError};
use am_ir::FlowGraph;

use crate::parse::LangError;

/// Which frontend a piece of source text belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// While-language source (`.wl`), lowered through this crate.
    While,
    /// Flow-graph text (`.ir`), parsed in [`Mode::Decompose`] so nested
    /// expressions are legal and broken into 3-address form.
    Ir,
}

impl SourceKind {
    /// Derives the kind from a file extension: `wl` → [`SourceKind::While`],
    /// `ir` → [`SourceKind::Ir`], anything else → `None`.
    pub fn from_path(path: &Path) -> Option<SourceKind> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("wl") => Some(SourceKind::While),
            Some("ir") => Some(SourceKind::Ir),
            _ => None,
        }
    }
}

impl fmt::Display for SourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceKind::While => write!(f, "wl"),
            SourceKind::Ir => write!(f, "ir"),
        }
    }
}

/// A frontend failure from either parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// The while-language parser rejected the input.
    Lang(LangError),
    /// The flow-graph parser rejected the input.
    Ir(ParseError),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Lang(e) => write!(f, "{e}"),
            SourceError::Ir(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<LangError> for SourceError {
    fn from(e: LangError) -> Self {
        SourceError::Lang(e)
    }
}

impl From<ParseError> for SourceError {
    fn from(e: ParseError) -> Self {
        SourceError::Ir(e)
    }
}

/// Compiles `text` to a flow graph according to `kind`.
pub fn compile_source(kind: SourceKind, text: &str) -> Result<FlowGraph, SourceError> {
    match kind {
        SourceKind::While => Ok(crate::compile(text)?),
        SourceKind::Ir => Ok(parse_with_mode(text, Mode::Decompose)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_follows_the_extension() {
        assert_eq!(
            SourceKind::from_path(Path::new("a/b.wl")),
            Some(SourceKind::While)
        );
        assert_eq!(
            SourceKind::from_path(Path::new("b.ir")),
            Some(SourceKind::Ir)
        );
        assert_eq!(SourceKind::from_path(Path::new("b.txt")), None);
        assert_eq!(SourceKind::from_path(Path::new("no_extension")), None);
    }

    #[test]
    fn both_frontends_dispatch() {
        let wl = compile_source(SourceKind::While, "x := a + b; print(x);").unwrap();
        assert_eq!(wl.validate(), Ok(()));
        let ir = compile_source(
            SourceKind::Ir,
            "start s\nend e\nnode s { x := a+b }\nnode e { out(x) }\nedge s -> e",
        )
        .unwrap();
        assert_eq!(ir.validate(), Ok(()));
        assert!(compile_source(SourceKind::While, "x = 1;").is_err());
        assert!(compile_source(SourceKind::Ir, "start\nmangled").is_err());
    }

    #[test]
    fn deep_ir_is_a_typed_error() {
        // Both shapes used to abort the process with a stack overflow.
        let n = 200_000;
        let program = |rhs: String| {
            format!("start s\nend e\nnode s {{ x := {rhs} }}\nnode e {{ out(x) }}\nedge s -> e")
        };
        let parens = program(format!("{}a{}", "(".repeat(n), ")".repeat(n)));
        let chain = program(format!("a{}", "+a".repeat(n)));
        for src in [parens, chain] {
            let Err(SourceError::Ir(err)) = compile_source(SourceKind::Ir, &src) else {
                panic!("deep .ir input must be a parse error");
            };
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }
}
