//! The batch workloads (`corpus`, `xl-nest`, `xl-fan`): every sample
//! compiles one program cold, as `amopt` does per file.

use std::sync::Arc;
use std::time::Instant;

use am_core::global::{optimize_hooked, GlobalConfig, PhaseId};
use am_ir::alpha::{canonical_text, stable_hash};
use am_pipeline::{CachedResult, Job, JobOutcome, ResultCache};

use crate::check::OutputLog;
use crate::inputs::Program;
use crate::layers::{Call, Recorder};
use crate::reference::Reference;
use crate::run::{self, ms_since, Outcome, Settings, SETUPS};

/// Capacity of the per-sample result cache, as the pipeline's default.
const CACHE_CAPACITY: usize = 256;
/// How batch times are taken.
const CLOCK: &str = "at reference speed (wall time corrected by the reference kernel)";

struct Prepared {
    programs: Vec<Program>,
    jobs: Vec<Job>,
    refs: Vec<Result<Arc<CachedResult>, String>>,
    log: OutputLog,
}

/// Generates the inputs and compiles each once; that warm-up pass fills
/// allocator pools and code caches, and its outputs are the references
/// later samples must equal.
fn prepare(programs: Vec<Program>) -> Prepared {
    let jobs: Vec<Job> = programs.iter().map(run::job).collect();
    let mut log = OutputLog::new(programs.len());
    let refs = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let r = run::cold_compile(job)?;
            log.record(i, &r.canonical);
            Ok(r)
        })
        .collect();
    Prepared {
        programs,
        jobs,
        refs,
        log,
    }
}

/// Runs a batch workload whose inputs `generate` draws from the seed.
/// Its times are at reference speed (see [`crate::reference`]).
///
/// The untraced run times `Pipeline::run_job`, the `amopt` path. The traced
/// run times the same calls made one by one ([`decomposed`]): every other
/// sample reads the clock around each call, the rest only around the
/// whole, so the two differ by the cost of tracing alone.
pub fn run(generate: fn(u64) -> Vec<Program>, s: Settings) -> Result<Outcome, String> {
    let mut reference = Reference::new();
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        prepared = Some(prepare(generate(s.seed)));
        let wall_s = t.elapsed().as_secs_f64();
        setups_s.push(wall_s * reference.close());
    }
    let Prepared {
        programs,
        jobs,
        refs,
        mut log,
    } = prepared.expect("at least one set-up");

    let n = programs.len();
    let mut out = Samples {
        pending: Vec::new(),
        latencies_ms: Vec::new(),
        recorder: s.traced.then(Recorder::new),
    };
    let mut timed = vec![0u64; n];
    let mut errors = Vec::new();
    let mut samples = 0usize;
    run::reset_peak_rss()?;
    let start = Instant::now();
    let deadline = start + s.window;
    while Instant::now() < deadline {
        if reference.stale() {
            out.settle(reference.close());
        }
        let p = samples % n;
        let output = if s.traced {
            // With an even number of programs plain alternation would
            // trace the same half every pass, so the phase shifts by one
            // each pass.
            let shift = if n % 2 == 0 { samples / n } else { 0 };
            let mut probe = Probe::new((samples + shift) % 2 == 1);
            let t = Instant::now();
            let output = decomposed(&programs[p], &mut probe);
            let end = Instant::now();
            out.pending.push(match probe.calls {
                Some(calls) => Pending::Traced(t, end, calls),
                None => Pending::Whole((end - t).as_secs_f64() * 1e3),
            });
            output
        } else {
            let t = Instant::now();
            let report = run::cold_pipeline().run_job(&jobs[p]);
            out.pending.push(Pending::Whole(ms_since(t)));
            match report.outcome {
                JobOutcome::Optimized(o) => Ok(o.result),
                JobOutcome::Failed(m) | JobOutcome::Panicked(m) => Err(m),
            }
        };
        timed[p] += 1;
        samples += 1;
        match output {
            Ok(r) => {
                log.record(p, &r.canonical);
            }
            Err(why) => errors.push(format!("{}: {why}", programs[p].name)),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    out.settle(reference.close());
    let peak_rss_mb = run::peak_rss_mb()?;

    let (check, counts) = run::verify(&programs, &refs);
    let mut failures = run::describe(&programs, &check, &log);
    let failed = run::failed_samples(&timed, &log, &check) + errors.len() as u64;
    failures.extend(errors);
    // Programs compiled per second of compiling: the timed window without
    // the reference kernel's runs, at reference speed.
    let compiling_s = out.latencies_ms.iter().sum::<f64>() / 1e3;
    Ok(Outcome {
        clock: CLOCK,
        setups_s,
        ops_per_s: out.latencies_ms.len() as f64 / compiling_s,
        latencies_ms: out.latencies_ms,
        wall_s,
        peak_rss_mb,
        attempted: samples as u64,
        failed,
        failures,
        check,
        counts,
        recorder: out.recorder,
        serve: None,
    })
}

/// A timed sample waiting for the kernel timing that follows it.
enum Pending {
    /// An untraced sample: its wall time, ms.
    Whole(f64),
    /// A traced sample: its root interval and the calls made inside it.
    Traced(Instant, Instant, Vec<Call>),
}

/// The timed samples, at reference speed once settled.
struct Samples {
    pending: Vec<Pending>,
    /// Untraced samples, ms.
    latencies_ms: Vec<f64>,
    /// Traced samples, in a traced run.
    recorder: Option<Recorder>,
}

impl Samples {
    /// Corrects the pending samples by `factor` ([`Reference::close`]).
    fn settle(&mut self, factor: f64) {
        for p in self.pending.drain(..) {
            match p {
                Pending::Whole(ms) => self.latencies_ms.push(ms * factor),
                Pending::Traced(start, end, calls) => self
                    .recorder
                    .as_mut()
                    .expect("only a traced run traces samples")
                    .sample(start, end, &calls, factor),
            }
        }
    }
}

/// Times the calls of one decomposed sample, or, when off, only makes
/// them: an untimed call costs one branch and no clock read.
struct Probe {
    calls: Option<Vec<Call>>,
}

impl Probe {
    fn new(on: bool) -> Probe {
        Probe {
            calls: on.then(|| Vec::with_capacity(16)),
        }
    }

    /// Makes one call into `layer`, timing it when the probe is on.
    fn call<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(calls) = self.calls.as_mut() else {
            return f();
        };
        let start = Instant::now();
        let r = f();
        calls.push(Call {
            layer,
            name,
            start,
            end: Instant::now(),
            depth: 1,
        });
        r
    }
}

/// One cold compile made of the calls `Pipeline::run_job` makes:
/// `compile_source`, `stable_hash`, the cache lookup, `optimize_hooked`
/// (whose hook marks split, init, each motion round and flush),
/// `canonical_text`, the cache insert, and freeing both graphs.
fn decomposed(p: &Program, probe: &mut Probe) -> Result<Arc<CachedResult>, String> {
    let graph = probe
        .call("lang", "parse", || am_lang::compile_source(p.kind, &p.text))
        .map_err(|e| e.to_string())?;
    let hash = probe.call("ir", "hash", || stable_hash(&graph));
    let cache = ResultCache::new(CACHE_CAPACITY);
    if probe
        .call("pipeline", "cache_get", || cache.get(hash))
        .is_some()
    {
        return Err("a fresh cache answered a lookup".to_owned());
    }

    let config = GlobalConfig {
        keep_snapshots: false,
        ..GlobalConfig::default()
    };
    let timing = probe.calls.is_some();
    let mut marks: Vec<(PhaseId, Instant)> = Vec::with_capacity(if timing { 16 } else { 0 });
    let out = probe.call("core", "optimize", || {
        optimize_hooked(&graph, &config, &mut |phase, _| {
            if timing {
                marks.push((phase, Instant::now()))
            }
        })
    });
    if let Some(calls) = probe.calls.as_mut() {
        let mut prev = calls.last().expect("optimize was timed").start;
        for (phase, at) in marks {
            let name = match phase {
                PhaseId::Split => "split",
                PhaseId::Init => "init",
                PhaseId::MotionRound(_) => "round",
                PhaseId::Flush => "flush",
            };
            calls.push(Call {
                layer: "core",
                name,
                start: prev,
                end: at,
                depth: 2,
            });
            prev = at;
        }
    }

    let canonical = probe.call("ir", "emit", || canonical_text(&out.program));
    let result = probe.call("pipeline", "cache_insert", || {
        let mut instrs = 0;
        let mut points = 0;
        for n in graph.nodes() {
            let len = graph.block(n).len();
            instrs += len;
            points += len.max(1);
        }
        cache.insert(
            hash,
            CachedResult {
                canonical,
                nodes: graph.node_count(),
                instrs,
                points,
                init: out.init,
                motion: out.motion,
                flush: out.flush,
                edges_split: out.edges_split,
                timings: out.timings,
                lint: None,
            },
        )
    });
    // `run_job` frees both graphs before it returns; so does the sample.
    probe.call("ir", "free", || {
        drop(out.program);
        drop(graph);
    });
    Ok(result)
}
