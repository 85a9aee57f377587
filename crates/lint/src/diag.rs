//! The structured diagnostics model: severities, stable codes, locations,
//! and human / JSONL rendering.

use std::fmt;

use am_ir::text::Pos;
use am_ir::NodeId;
use am_trace::json;

/// How serious a finding is.
///
/// Ordered `Info < Warning < Error` so `max` picks the worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory metric or observation; never affects the exit code.
    Info,
    /// A missed-optimality or suspicious-code finding: worth a look, but
    /// legitimate programs can produce it.
    Warning,
    /// A violated invariant: the program breaks a well-formedness rule or a
    /// guarantee the optimizer is required to establish (Thms 5.1–5.4).
    Error,
}

impl Severity {
    /// Lowercase name, as used in JSONL and human output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single lint finding.
///
/// `code` is stable across releases (documented in `docs/LINTS.md`); the
/// location fields are optional because some findings are about the whole
/// graph, some about a node, and some about one instruction.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable diagnostic code, e.g. `"L101"`.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Label of the node the finding is about, when node-scoped.
    pub node: Option<String>,
    /// Instruction index within the node, when instruction-scoped.
    pub instr: Option<usize>,
    /// Node id in the linted graph, for tooling overlays (dot coloring).
    pub node_id: Option<NodeId>,
    /// Source position, when the program was parsed from text with a
    /// [`SourceMap`](am_ir::text::SourceMap).
    pub pos: Option<Pos>,
}

impl Diagnostic {
    /// A graph-scoped finding with no particular location.
    pub fn global(code: &'static str, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message,
            node: None,
            instr: None,
            node_id: None,
            pos: None,
        }
    }

    /// Renders the location part, e.g. `"node 3, instr 1 (line 4:7)"`.
    fn location(&self) -> Option<String> {
        let mut out = String::new();
        if let Some(node) = &self.node {
            out.push_str("node ");
            out.push_str(node);
            if let Some(i) = self.instr {
                out.push_str(&format!(", instr {i}"));
            }
        }
        if let Some(p) = self.pos {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("(line {p})"));
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(loc) = self.location() {
            write!(f, " {loc}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings of one [`lint_graph`](crate::lint_graph) run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Findings in analysis order (structural first, then dataflow lints).
    pub diags: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of info-severity findings.
    pub fn infos(&self) -> usize {
        self.count(Severity::Info)
    }

    fn count(&self, s: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == s).count()
    }

    /// The worst severity present, if any finding exists.
    pub fn worst(&self) -> Option<Severity> {
        self.diags.iter().map(|d| d.severity).max()
    }

    /// Whether nothing at all was flagged.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// The process exit code convention of `amlint`: 0 clean (or info
    /// only), 1 warnings, 2 errors.
    pub fn exit_code(&self) -> u8 {
        match self.worst() {
            Some(Severity::Error) => 2,
            Some(Severity::Warning) => 1,
            _ => 0,
        }
    }

    /// One JSONL line per finding, each tagged with the program name.
    pub fn to_jsonl(&self, program: &str) -> String {
        let mut out = String::new();
        for d in &self.diags {
            let members = [
                Some(("program", program.into())),
                Some(("code", d.code.into())),
                Some(("severity", d.severity.name().into())),
                d.node.as_deref().map(|node| ("node", node.into())),
                d.instr.map(|i| ("instr", i.into())),
                d.pos.map(|p| ("line", p.line.into())),
                d.pos.map(|p| ("col", p.col.into())),
                Some(("message", d.message.as_str().into())),
            ];
            json::obj(members.into_iter().flatten()).write(&mut out);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s), {} info",
            self.errors(),
            self.warnings(),
            self.infos()
        )
    }
}

/// A compact, cache-friendly summary of a [`LintReport`] — what the batch
/// pipeline stores per job (the full report borrows nothing, but keeping
/// only counts and pre-rendered lines keeps `CachedResult` small and
/// `Send + Sync` trivially).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Info-severity findings.
    pub infos: usize,
    /// Rendered diagnostic lines (human form).
    pub lines: Vec<String>,
}

impl LintSummary {
    /// Whether any error-severity finding was recorded.
    pub fn has_errors(&self) -> bool {
        self.errors > 0
    }

    /// Whether anything at all was recorded.
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0 && self.infos == 0
    }
}

impl From<&LintReport> for LintSummary {
    fn from(r: &LintReport) -> LintSummary {
        LintSummary {
            errors: r.errors(),
            warnings: r.warnings(),
            infos: r.infos(),
            lines: r.diags.iter().map(|d| d.to_string()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            diags: vec![
                Diagnostic::global("L900", Severity::Info, "just saying".into()),
                Diagnostic {
                    code: "L901",
                    severity: Severity::Error,
                    message: "bad \"thing\"".into(),
                    node: Some("3".into()),
                    instr: Some(1),
                    node_id: None,
                    pos: Some(Pos::new(4, 7)),
                },
            ],
        }
    }

    #[test]
    fn counts_and_exit_codes() {
        let r = sample();
        assert_eq!((r.errors(), r.warnings(), r.infos()), (1, 0, 1));
        assert_eq!(r.worst(), Some(Severity::Error));
        assert_eq!(r.exit_code(), 2);
        assert!(!r.is_clean());
        let empty = LintReport::default();
        assert_eq!(empty.exit_code(), 0);
        assert!(empty.is_clean());
        let info_only = LintReport {
            diags: vec![Diagnostic::global("L1", Severity::Info, "m".into())],
        };
        assert_eq!(info_only.exit_code(), 0);
    }

    #[test]
    fn human_rendering_includes_code_and_location() {
        let r = sample();
        let line = r.diags[1].to_string();
        assert_eq!(
            line,
            "error[L901] node 3, instr 1 (line 4:7): bad \"thing\""
        );
    }

    #[test]
    fn jsonl_is_parseable_and_escaped() {
        let r = sample();
        let out = r.to_jsonl("demo/x");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = am_trace::json::parse(line).expect("valid json");
            assert_eq!(v.get("program").and_then(|p| p.as_str()), Some("demo/x"));
        }
        let second = am_trace::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("code").and_then(|c| c.as_str()), Some("L901"));
        assert_eq!(second.get("line").and_then(|l| l.as_i64()), Some(4));
        assert_eq!(
            second.get("message").and_then(|m| m.as_str()),
            Some("bad \"thing\"")
        );
    }

    #[test]
    fn summary_mirrors_report() {
        let r = sample();
        let s = LintSummary::from(&r);
        assert_eq!(s.errors, 1);
        assert_eq!(s.lines.len(), 2);
        assert!(s.has_errors());
        assert!(!s.is_clean());
    }
}
