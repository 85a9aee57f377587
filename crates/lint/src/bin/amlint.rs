//! `amlint` — lint IR programs against the paper's invariants.
//!
//! ```sh
//! # Lint the default corpus directory:
//! cargo run --release -p am-lint --bin amlint -- programs
//!
//! # Optimize first, then lint the optimizer's output (the CI gate):
//! cargo run --release -p am-lint --bin amlint -- --optimize --corpus
//!
//! # 50 seeded random programs, machine-readable findings:
//! cargo run --release -p am-lint --bin amlint -- --synthetic 50 --jsonl findings.jsonl
//! ```
//!
//! Exit codes: 0 clean (or info-only), 1 warnings, 2 errors, 3 usage or
//! I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

use am_core::explain::capture;
use am_core::global::{optimize_with, GlobalConfig};
use am_ir::dot::to_dot_with;
use am_ir::text::{parse_with_locations, SourceMap};
use am_ir::FlowGraph;
use am_lang::{compile_source, SourceKind};
use am_lint::{lint_graph, LintConfig, LintReport, Severity};
use am_trace::{export, Tracer};

struct Options {
    optimize: bool,
    provenance: bool,
    synthetic: usize,
    corpus: bool,
    jsonl: Option<PathBuf>,
    dot: Option<PathBuf>,
    trace: Option<PathBuf>,
    quiet: bool,
    inputs: Vec<PathBuf>,
}

const USAGE: &str = "usage: amlint [options] [file|dir ...]

Lints every .ir and .wl program given (directories are scanned,
non-recursively) against the paper's structural and optimality
invariants. With no inputs, --synthetic or --corpus, uses ./programs.

options:
  --optimize       run the full optimizer first and lint its output
                   (checks the guarantees of Thms 5.1-5.4 statically)
  --provenance     also run the optimizer with provenance recording (the
                   run --optimize lints) and cross-check every Eliminate
                   record against the L101 redundancy analysis (L103;
                   disagreement is an error)
  --synthetic N    also lint N deterministic seeded random programs
  --corpus         also lint the canonical 80-program random corpus
  --jsonl FILE     write all findings as JSON lines to FILE
  --dot FILE       write a Graphviz rendering of the (single) linted
                   program with nodes colored by worst finding severity
  --trace FILE     record per-analysis tracer spans as JSONL to FILE
  --quiet          suppress per-finding lines, print only the summary
  --help           this text

exit: 0 clean or info-only, 1 warnings, 2 errors, 3 usage/IO error";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        optimize: false,
        provenance: false,
        synthetic: 0,
        corpus: false,
        jsonl: None,
        dot: None,
        trace: None,
        quiet: false,
        inputs: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--optimize" => opts.optimize = true,
            "--provenance" => opts.provenance = true,
            "--synthetic" => {
                opts.synthetic = value(&mut args, "--synthetic")?
                    .parse()
                    .map_err(|e| format!("--synthetic: {e}"))?;
            }
            "--corpus" => opts.corpus = true,
            "--jsonl" => opts.jsonl = Some(PathBuf::from(value(&mut args, "--jsonl")?)),
            "--dot" => opts.dot = Some(PathBuf::from(value(&mut args, "--dot")?)),
            "--trace" => opts.trace = Some(PathBuf::from(value(&mut args, "--trace")?)),
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'; --help for usage"));
            }
            path => opts.inputs.push(PathBuf::from(path)),
        }
    }
    if opts.inputs.is_empty() && opts.synthetic == 0 && !opts.corpus {
        opts.inputs.push(PathBuf::from("programs"));
    }
    Ok(opts)
}

/// A program to lint: name, graph, and (for `.ir` files) the source map
/// that lets findings cite original line/column positions.
struct Unit {
    name: String,
    graph: FlowGraph,
    srcmap: Option<SourceMap>,
}

fn load_file(path: &PathBuf) -> Result<Unit, String> {
    let kind = SourceKind::from_path(path)
        .ok_or_else(|| format!("{}: not a .ir or .wl file", path.display()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = path.display().to_string();
    match kind {
        SourceKind::Ir => {
            let (graph, srcmap) = parse_with_locations(&text, am_ir::text::Mode::Strict)
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Unit {
                name,
                graph,
                srcmap: Some(srcmap),
            })
        }
        _ => {
            let graph = compile_source(kind, &text).map_err(|e| format!("{name}: {e}"))?;
            Ok(Unit {
                name,
                graph,
                srcmap: None,
            })
        }
    }
}

fn collect_units(inputs: &[PathBuf]) -> Result<Vec<Unit>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for input in inputs {
        if input.is_dir() {
            let entries =
                std::fs::read_dir(input).map_err(|e| format!("{}: {e}", input.display()))?;
            for entry in entries {
                let path = entry
                    .map_err(|e| format!("{}: {e}", input.display()))?
                    .path();
                if path.is_file() && SourceKind::from_path(&path).is_some() {
                    files.push(path);
                }
            }
        } else {
            files.push(input.clone());
        }
    }
    files.sort();
    files.dedup();
    files.iter().map(load_file).collect()
}

/// Seeded random structured programs — the same seed base as `amopt
/// --synthetic`, so the two tools agree on what `synthetic/0007` means.
fn synthetic_units(count: usize) -> Vec<Unit> {
    use am_ir::random::{structured, SplitMix64, StructuredConfig};
    (0..count)
        .map(|i| {
            let mut rng = SplitMix64::new(0xA5_0000 + i as u64);
            Unit {
                name: format!("synthetic/{i:04}"),
                graph: structured(&mut rng, &StructuredConfig::default()),
                srcmap: None,
            }
        })
        .collect()
}

fn corpus_units() -> Vec<Unit> {
    am_ir::random::corpus80()
        .into_iter()
        .map(|(name, graph)| Unit {
            name: format!("corpus/{name}"),
            graph,
            srcmap: None,
        })
        .collect()
}

/// Graphviz rendering with nodes colored by their worst finding.
fn severity_dot(g: &FlowGraph, report: &LintReport) -> String {
    to_dot_with(g, |n| {
        report
            .diags
            .iter()
            .filter(|d| d.node_id == Some(n))
            .map(|d| d.severity)
            .max()
            .map(|worst| {
                let color = match worst {
                    Severity::Error => "#f4cccc",
                    Severity::Warning => "#fff2cc",
                    Severity::Info => "#d0e0f0",
                };
                format!("style=filled, fillcolor=\"{color}\"")
            })
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(3);
        }
    };
    let mut units = match collect_units(&opts.inputs) {
        Ok(u) => u,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(3);
        }
    };
    units.extend(synthetic_units(opts.synthetic));
    if opts.corpus {
        units.extend(corpus_units());
    }
    if units.is_empty() {
        eprintln!("no programs to lint; --help for usage");
        return ExitCode::from(3);
    }
    if opts.dot.is_some() && units.len() != 1 {
        eprintln!(
            "--dot needs exactly one program to render, got {}",
            units.len()
        );
        return ExitCode::from(3);
    }

    let (tracer, collector) = match &opts.trace {
        Some(_) => {
            let (t, c) = Tracer::collector();
            (t, Some(c))
        }
        None => (Tracer::disabled(), None),
    };

    let mut worst: u8 = 0;
    let mut jsonl = String::new();
    let mut totals = (0usize, 0usize, 0usize);
    for unit in &units {
        let mut graph = unit.graph.clone();
        let mut srcmap = unit.srcmap.clone();
        // One optimizer run per unit: the provenance capture, when asked
        // for, is also the run whose output --optimize lints.
        let explained = opts.provenance.then(|| capture(&unit.graph, None, &tracer));
        if opts.optimize {
            let mut span = tracer.span("lint", format!("optimize {}", unit.name));
            graph = match &explained {
                Some(c) => c.result.program.clone(),
                None => {
                    optimize_with(
                        &graph,
                        &GlobalConfig {
                            tracer: tracer.clone(),
                            ..GlobalConfig::default()
                        },
                    )
                    .program
                }
            };
            // Optimization rewrites the program; original positions no
            // longer apply.
            srcmap = None;
            span.arg("nodes", graph.node_count() as i64);
        }
        let cfg = LintConfig {
            tracer: tracer.clone(),
            srcmap,
        };
        let mut report = lint_graph(&graph, &cfg);
        if let Some(c) = &explained {
            report
                .diags
                .extend(am_lint::check_provenance(c, &cfg).diags);
        }
        totals.0 += report.errors();
        totals.1 += report.warnings();
        totals.2 += report.infos();
        worst = worst.max(report.exit_code());
        if !opts.quiet {
            for d in &report.diags {
                println!("{}: {d}", unit.name);
            }
        }
        if opts.jsonl.is_some() {
            jsonl.push_str(&report.to_jsonl(&unit.name));
        }
        if let Some(path) = &opts.dot {
            if let Err(e) = std::fs::write(path, severity_dot(&graph, &report)) {
                eprintln!("--dot {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
    }

    println!(
        "{} program(s): {} error(s), {} warning(s), {} info",
        units.len(),
        totals.0,
        totals.1,
        totals.2
    );
    if let Some(path) = &opts.jsonl {
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("--jsonl {}: {e}", path.display());
            return ExitCode::from(3);
        }
    }
    if let (Some(path), Some(collector)) = (&opts.trace, &collector) {
        let events = collector.take();
        if let Err(e) = std::fs::write(path, export::jsonl(&events)) {
            eprintln!("--trace {}: {e}", path.display());
            return ExitCode::from(3);
        }
        if !opts.quiet {
            println!(
                "trace: {} events written to {}",
                events.len(),
                path.display()
            );
        }
    }
    ExitCode::from(worst)
}
