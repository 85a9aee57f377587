//! Static analysis suite over `am-ir` programs: a well-formedness verifier
//! and an *optimality linter* that turns the paper's theorems into
//! machine-checkable diagnostics.
//!
//! The paper's headline results are static guarantees — expression
//! optimality (Thm 5.2), relative assignment optimality (Thm 5.3) and
//! relative temporary optimality (Thm 5.4) — but the rest of the repo only
//! checks optimizer output *dynamically* (the `am-check` interpreter
//! oracles). This crate re-runs the underlying dataflow analyses on a
//! program and reports, statically:
//!
//! * **well-formedness** (`L0xx`): CFG invariants (single entry, reachable
//!   nodes, edge consistency), temporaries read before initialization, and
//!   the `h_t` naming discipline of the initialization phase;
//! * **residual redundancy** (`L1xx`): expression computations that are
//!   still fully (error) or partially (warning) redundant — a static check
//!   of Thm 5.2 on optimizer output;
//! * **faint assignments** (`L2xx`): the backward faintness fixpoint of
//!   Sec. 3, strictly stronger than dead-code liveness — assignments whose
//!   value never reaches an `out` or branch, and temporaries the flush
//!   phase should have deleted;
//! * **temporary lifetimes** (`L3xx`): single-use temporaries that should
//!   have been reconstructed (Thm 5.4) and the peak number of
//!   simultaneously live temporaries (register pressure).
//!
//! Separately, [`check_provenance`] (`L103`) cross-checks the optimizer's
//! own `--explain` decision log against the redundancy analysis: every
//! `Eliminate` provenance record must name a site the `L101` availability
//! solver also considers must-redundant, and any disagreement is an error
//! — the decision log and the dataflow analysis implement the same paper
//! rule, so they must agree.
//!
//! Every diagnostic carries a stable code (catalogued in `docs/LINTS.md`),
//! a severity, and a location; reports render human-readable or as JSONL.
//!
//! # Examples
//!
//! ```
//! use am_ir::text::parse;
//! use am_lint::{lint_graph, LintConfig};
//!
//! // x := a+b is recomputed on a path where it is already available.
//! let g = parse(
//!     "start 1\nend 2\n\
//!      node 1 { x := a+b }\n\
//!      node 2 { y := a+b; out(x,y) }\n\
//!      edge 1 -> 2",
//! )?;
//! let report = lint_graph(&g, &LintConfig::default());
//! assert_eq!(report.errors(), 1);
//! assert!(report.diags.iter().any(|d| d.code == "L101"));
//! # Ok::<(), am_ir::text::ParseError>(())
//! ```

#![warn(missing_docs)]

mod diag;
mod faint;
mod provenance;
mod redundancy;
mod temps;
mod wellformed;

pub use diag::{Diagnostic, LintReport, LintSummary, Severity};
pub use provenance::check_provenance;

use am_dfa::BlockGraph;
use am_ir::text::SourceMap;
use am_ir::{FlowGraph, Loc, NodeId, PatternUniverse};
use am_trace::Tracer;

/// Configuration of a lint run.
#[derive(Clone, Default)]
pub struct LintConfig {
    /// Trace sink: one `lint` span per analysis, with a findings count.
    /// Disabled (a no-op) by default.
    pub tracer: Tracer,
    /// Source positions of the program's instructions, when it was parsed
    /// from text via
    /// [`parse_with_locations`](am_ir::text::parse_with_locations);
    /// findings then cite the original line/column.
    pub srcmap: Option<SourceMap>,
}

/// Shared per-run context handed to the analyses.
pub(crate) struct Ctx<'a> {
    pub g: &'a FlowGraph,
    /// The block graph the data-flow lints solve over.
    pub blocks: BlockGraph,
    srcmap: Option<&'a SourceMap>,
}

impl Ctx<'_> {
    /// An instruction-scoped finding.
    pub fn at(
        &self,
        code: &'static str,
        severity: Severity,
        loc: Loc,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message,
            node: Some(self.g.label(loc.node).to_owned()),
            instr: Some(loc.index),
            node_id: Some(loc.node),
            pos: self.srcmap.and_then(|m| m.get(loc.node, loc.index)),
        }
    }

    /// A node-scoped finding.
    pub fn at_node(
        &self,
        code: &'static str,
        severity: Severity,
        node: NodeId,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message,
            node: Some(self.g.label(node).to_owned()),
            instr: None,
            node_id: Some(node),
            pos: None,
        }
    }
}

/// Runs the full lint suite on `g`.
///
/// Structural verification (`L001`–`L007`) runs first; when it reports any
/// error the dataflow-based analyses are skipped, since they are only
/// meaningful over well-formed flow graphs.
pub fn lint_graph(g: &FlowGraph, cfg: &LintConfig) -> LintReport {
    let ctx = Ctx {
        g,
        blocks: BlockGraph::build(g),
        srcmap: cfg.srcmap.as_ref(),
    };
    let mut diags = Vec::new();

    let run = |name: &str, diags: &mut Vec<Diagnostic>, f: &mut dyn FnMut(&mut Vec<Diagnostic>)| {
        let mut span = cfg.tracer.span("lint", name.to_owned());
        let before = diags.len();
        f(diags);
        span.arg("findings", (diags.len() - before) as i64);
    };

    run("structure", &mut diags, &mut |d| {
        wellformed::check_structure(&ctx, d)
    });
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return LintReport { diags };
    }

    let universe = PatternUniverse::collect(g);
    run("defuse", &mut diags, &mut |d| {
        wellformed::check_defuse(&ctx, d)
    });
    run("redundancy", &mut diags, &mut |d| {
        redundancy::check(&ctx, &universe, d)
    });
    run("faint", &mut diags, &mut |d| faint::check(&ctx, d));
    run("temps", &mut diags, &mut |d| {
        temps::check(&ctx, &universe, d)
    });
    LintReport { diags }
}
