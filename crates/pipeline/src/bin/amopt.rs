//! `amopt` — batch-optimize program files in parallel.
//!
//! ```sh
//! # Optimize everything under programs/ (the default corpus):
//! cargo run --release -p am-pipeline --bin amopt
//!
//! # Specific files and directories, 4 workers, two passes over the batch
//! # (the second pass is served entirely from the cache):
//! cargo run --release -p am-pipeline --bin amopt -- --workers 4 --repeat 2 programs demo.wl
//!
//! # Print each optimized program:
//! cargo run --release -p am-pipeline --bin amopt -- --emit programs/matrix_sum.wl
//! ```

use std::borrow::Cow;
use std::path::PathBuf;
use std::process::ExitCode;

use am_core::explain::capture;
use am_lang::SourceKind;
use am_pipeline::bench_json::{self, BenchRecord};
use am_pipeline::{Job, JobInput, JobOutcome, Pipeline, PipelineConfig, PipelineReport};
use am_trace::{export, provenance, Tracer};

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
    Summary,
}

struct Options {
    workers: Option<usize>,
    cache_capacity: usize,
    max_motion_rounds: Option<usize>,
    repeat: usize,
    emit: bool,
    quiet: bool,
    verify: bool,
    prove: bool,
    lint: bool,
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
    explain: bool,
    explain_dir: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    synthetic: usize,
    inputs: Vec<PathBuf>,
}

const USAGE: &str = "usage: amopt [options] [file|dir ...]

Optimizes every .wl and .ir file given (directories are scanned,
non-recursively). With no inputs, uses ./programs.

options:
  --workers N      worker threads (default: available parallelism)
  --cache-cap N    in-memory result-cache capacity in entries (default 256)
  --rounds N       motion-round budget per job (default: paper's bound)
  --repeat N       run the batch N times; repeats hit the cache (default 1)
  --emit           print each optimized program (canonical text)
  --quiet          suppress the per-job report, print only the summary
  --verify         translation-validate every job per phase (am-check);
                   a failed validation fails the batch
  --prove          statically prove every phase pair equivalent for all
                   inputs with the am-prove symbolic prover (implies
                   --verify; inconclusive pairs fall back to the
                   interpreter; a refuted pair fails the batch); with
                   --explain, also statically discharges each recorded
                   elimination's side condition
  --lint           run the am-lint static suite on every optimized
                   program; error-severity findings fail the batch
  --trace FILE     record a structured trace of the whole run to FILE
                   (phases, motion rounds, analyses, jobs, batches)
  --trace-format F trace output format: chrome (chrome://tracing JSON,
                   default), jsonl (one event per line, amstat input),
                   or summary (human-readable tree)
  --explain        re-optimize each job with provenance recording (cache
                   bypassed) and print the decision log: one line per
                   eliminated/hoisted/flushed assignment naming the paper
                   rule and the analysis fact that justified it
  --explain-dir D  with --explain, also write per-job exports under D:
                   <name>.prov.jsonl (machine-readable decision log) and
                   <name>.prov.txt (the human report)
  --bench-json F   write per-job phase timings and solver counters of the
                   last pass to F (am-bench-dataflow/v1 JSON, the schema
                   bench_dataflow emits); cache hits report zero timings
  --synthetic N    append N deterministic synthetic programs to the batch
                   (seeded random structured programs; no files needed)
  --help           this text";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workers: None,
        cache_capacity: 256,
        max_motion_rounds: None,
        repeat: 1,
        emit: false,
        quiet: false,
        verify: false,
        prove: false,
        lint: false,
        trace: None,
        trace_format: TraceFormat::Chrome,
        explain: false,
        explain_dir: None,
        bench_json: None,
        synthetic: 0,
        inputs: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                opts.workers = Some(
                    value(&mut args, "--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                );
            }
            "--cache-cap" => {
                opts.cache_capacity = value(&mut args, "--cache-cap")?
                    .parse()
                    .map_err(|e| format!("--cache-cap: {e}"))?;
            }
            "--rounds" => {
                opts.max_motion_rounds = Some(
                    value(&mut args, "--rounds")?
                        .parse()
                        .map_err(|e| format!("--rounds: {e}"))?,
                );
            }
            "--repeat" => {
                opts.repeat = value(&mut args, "--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if opts.repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
            }
            "--emit" => opts.emit = true,
            "--quiet" => opts.quiet = true,
            "--verify" => opts.verify = true,
            "--prove" => opts.prove = true,
            "--lint" => opts.lint = true,
            "--trace" => {
                opts.trace = Some(PathBuf::from(value(&mut args, "--trace")?));
            }
            "--trace-format" => {
                opts.trace_format = match value(&mut args, "--trace-format")?.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "jsonl" => TraceFormat::Jsonl,
                    "summary" => TraceFormat::Summary,
                    other => {
                        return Err(format!(
                            "--trace-format: '{other}' is not chrome, jsonl or summary"
                        ))
                    }
                };
            }
            "--explain" => opts.explain = true,
            "--explain-dir" => {
                opts.explain = true;
                opts.explain_dir = Some(PathBuf::from(value(&mut args, "--explain-dir")?));
            }
            "--bench-json" => {
                opts.bench_json = Some(PathBuf::from(value(&mut args, "--bench-json")?));
            }
            "--synthetic" => {
                opts.synthetic = value(&mut args, "--synthetic")?
                    .parse()
                    .map_err(|e| format!("--synthetic: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'; --help for usage"));
            }
            path => opts.inputs.push(PathBuf::from(path)),
        }
    }
    if opts.inputs.is_empty() && opts.synthetic == 0 {
        opts.inputs.push(PathBuf::from("programs"));
    }
    Ok(opts)
}

/// Deterministic synthetic corpus: seeded random structured programs,
/// serialized to IR text so they flow through the normal job path.
fn synthetic_jobs(count: usize) -> Vec<Job> {
    use am_ir::random::{structured, SplitMix64, StructuredConfig};
    (0..count)
        .map(|i| {
            let mut rng = SplitMix64::new(0xA5_0000 + i as u64);
            let g = structured(&mut rng, &StructuredConfig::default());
            Job::from_source(
                format!("synthetic/{i:04}"),
                SourceKind::Ir,
                am_ir::text::to_text(&g),
            )
        })
        .collect()
}

/// Expands files and directories into jobs, sorted by name so the batch
/// is deterministic regardless of directory iteration order.
fn collect_jobs(inputs: &[PathBuf]) -> Result<Vec<Job>, String> {
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
    if files.is_empty() {
        return Err(format!(
            "no .wl or .ir files found under: {}",
            inputs
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(files.into_iter().map(Job::from_path).collect())
}

/// One `am-bench-dataflow/v1` record per optimized job of a pass. The
/// solver counters come from the cached result (deterministic in the
/// input); the phase timings are the job's own, so a cache hit reports
/// zeros. Failed and panicked jobs produce no record.
fn bench_records(report: &PipelineReport) -> Vec<BenchRecord> {
    report
        .jobs
        .iter()
        .filter_map(|job| {
            let o = job.optimized()?;
            let r = &o.result;
            let cache_hit = o.source.is_cached();
            let timings = if cache_hit {
                Default::default()
            } else {
                r.timings
            };
            Some(BenchRecord {
                label: job.name.clone(),
                nodes: r.nodes,
                instrs: r.instrs,
                points: r.points,
                wall_micros: timings.total().as_micros(),
                split_micros: timings.split.as_micros(),
                init_micros: timings.init.as_micros(),
                motion_micros: timings.motion.as_micros(),
                flush_micros: timings.flush.as_micros(),
                rounds: r.motion.rounds,
                converged: r.motion.converged,
                iterations: r.motion.iterations + r.flush.iterations,
                worklist_pushes: r.motion.worklist_pushes + r.flush.worklist_pushes,
                max_worklist_len: r.flush.max_worklist_len,
                eliminated: r.motion.eliminated,
                inserted: r.motion.inserted,
                removed: r.motion.removed,
                cache_hit,
                allocations: None,
            })
        })
        .collect()
}

/// The `--explain` pass: re-optimizes every job sequentially on a
/// recording tracer (no cache — a cache hit is exactly a run whose
/// decisions were not replayed), printing the human report and
/// optionally exporting per-job JSONL + report files. With `--prove`,
/// every `Eliminate` record's side condition (must-redundancy at the
/// recorded site) of that same capture is additionally discharged
/// statically by the symbolic prover; the number of sites that were
/// *refuted* (or could not be located) is returned and fails the batch
/// when nonzero.
fn run_explain(jobs: &[Job], opts: &Options) -> Result<usize, String> {
    if let Some(dir) = &opts.explain_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("--explain-dir {}: {e}", dir.display()))?;
    }
    let mut total = 0usize;
    let mut discharge_failed = 0usize;
    for job in jobs {
        let (kind, text): (SourceKind, Cow<str>) = match &job.input {
            JobInput::Memory { kind, text } => (*kind, Cow::Borrowed(text)),
            JobInput::Path(path) => {
                let kind = SourceKind::from_path(path).ok_or_else(|| {
                    format!(
                        "{}: unknown file type (expected .wl or .ir)",
                        path.display()
                    )
                })?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                (kind, Cow::Owned(text))
            }
            JobInput::Poison => continue,
        };
        let graph =
            am_lang::compile_source(kind, &text).map_err(|e| format!("{}: {e}", job.name))?;
        let explanation = capture(&graph, opts.max_motion_rounds, &Tracer::disabled());
        total += explanation.records.len();
        if let Some(dir) = &opts.explain_dir {
            let stem = job.name.replace(['/', '\\'], "_");
            let jsonl_path = dir.join(format!("{stem}.prov.jsonl"));
            std::fs::write(&jsonl_path, provenance::jsonl(&explanation.records))
                .map_err(|e| format!("{}: {e}", jsonl_path.display()))?;
            let txt_path = dir.join(format!("{stem}.prov.txt"));
            std::fs::write(&txt_path, provenance::report(&explanation.records))
                .map_err(|e| format!("{}: {e}", txt_path.display()))?;
        }
        if !opts.quiet {
            print!(
                "== explain {} ==\n{}",
                job.name,
                provenance::report(&explanation.records)
            );
        }
        if opts.prove {
            let report =
                am_prove::discharge_provenance(&explanation, &am_prove::ProveConfig::default());
            discharge_failed += report.failed;
            if !opts.quiet || report.failed > 0 {
                println!("discharge {}: {report}", job.name);
                for site in report.sites.iter().filter(|s| {
                    s.status == am_prove::DischargeStatus::Failed
                        || s.status == am_prove::DischargeStatus::Unlocatable
                }) {
                    println!(
                        "  round {} node {} [{}] `{}`: {}",
                        site.round, site.node, site.index, site.instr, site.status
                    );
                }
            }
        }
    }
    match &opts.explain_dir {
        Some(dir) => println!(
            "explain: {} transformation(s) across {} job(s), exports under {}",
            total,
            jobs.len(),
            dir.display()
        ),
        None => println!(
            "explain: {} transformation(s) across {} job(s)",
            total,
            jobs.len()
        ),
    }
    if opts.prove && discharge_failed > 0 {
        eprintln!("amopt: {discharge_failed} provenance site(s) failed static discharge");
    }
    Ok(discharge_failed)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let mut jobs = if opts.inputs.is_empty() {
        Vec::new()
    } else {
        match collect_jobs(&opts.inputs) {
            Ok(j) => j,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
    };
    jobs.extend(synthetic_jobs(opts.synthetic));
    let (tracer, collector) = match &opts.trace {
        Some(_) => {
            let (t, c) = Tracer::collector();
            (t, Some(c))
        }
        None => (Tracer::disabled(), None),
    };
    let pipeline = Pipeline::new(PipelineConfig {
        workers: opts.workers,
        cache_capacity: opts.cache_capacity,
        max_motion_rounds: opts.max_motion_rounds,
        verify: opts.verify,
        prove: opts.prove,
        lint: opts.lint,
        tracer,
        secondary: None,
    });
    let mut any_failed = false;
    let mut last_bench: Option<Vec<BenchRecord>> = None;
    for pass in 1..=opts.repeat {
        let report = pipeline.run(&jobs);
        if opts.bench_json.is_some() && pass == opts.repeat {
            last_bench = Some(bench_records(&report));
        }
        if opts.repeat > 1 && !opts.quiet {
            println!("== pass {pass}/{} ==", opts.repeat);
        }
        if opts.quiet {
            let verify = if opts.verify || opts.prove {
                format!(", {} verified", report.verified())
            } else {
                String::new()
            };
            let prove = if opts.prove {
                let c = report.proof_counts();
                format!(
                    ", proofs {}/{}/{} (p/r/i)",
                    c.proved, c.refuted, c.inconclusive
                )
            } else {
                String::new()
            };
            let lint = if opts.lint {
                format!(", {} lint error(s)", report.lint_errors())
            } else {
                String::new()
            };
            println!(
                "pass {pass}: {}/{} ok, {} cache hits{verify}{prove}{lint}, {:.2} ms",
                report.succeeded(),
                report.jobs.len(),
                report.cache_hits(),
                report.wall.as_secs_f64() * 1e3
            );
            println!(
                "cache: {} hits, {} misses, {} evictions ({:.0}% hit rate)",
                report.cache.hits,
                report.cache.misses,
                report.cache.evictions,
                report.cache.hit_rate() * 100.0
            );
            // Quiet suppresses the per-job table, never the failures: each
            // bad input still gets one clean per-file line on stderr.
            for job in &report.jobs {
                match &job.outcome {
                    // Failed messages already carry the job name as a prefix.
                    JobOutcome::Failed(e) => eprintln!("amopt: {e}"),
                    JobOutcome::Panicked(e) => eprintln!("amopt: {}: panicked: {e}", job.name),
                    JobOutcome::Optimized(_) => {}
                }
            }
        } else {
            println!("{report}");
        }
        if opts.emit && pass == 1 {
            for job in &report.jobs {
                if let JobOutcome::Optimized(o) = &job.outcome {
                    println!("== {} ==\n{}", job.name, o.result.canonical);
                }
            }
        }
        any_failed |=
            report.failed() + report.panicked() + report.verify_failed() + report.lint_errors() > 0;
    }
    if opts.explain {
        match run_explain(&jobs, &opts) {
            Ok(discharge_failed) => any_failed |= discharge_failed > 0,
            Err(msg) => {
                eprintln!("amopt: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let (Some(path), Some(records)) = (&opts.bench_json, &last_bench) {
        let doc = bench_json::render("amopt", records);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("--bench-json {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            println!(
                "bench: {} record(s) written to {}",
                records.len(),
                path.display()
            );
        }
    }
    if let (Some(path), Some(collector)) = (&opts.trace, &collector) {
        let events = collector.take();
        let out = match opts.trace_format {
            TraceFormat::Chrome => export::chrome_trace(&events),
            TraceFormat::Jsonl => export::jsonl(&events),
            TraceFormat::Summary => export::summary_tree(&events),
        };
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("--trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            println!(
                "trace: {} events written to {}",
                events.len(),
                path.display()
            );
        }
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
