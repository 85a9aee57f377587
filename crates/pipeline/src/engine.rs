//! The worker-pool engine.
//!
//! Jobs are drained from a shared queue (an atomic index into the job
//! slice) by scoped worker threads. Each job runs under `catch_unwind`, so
//! a panicking job is reported as [`JobOutcome::Panicked`] while its worker
//! carries on with the rest of the queue. Results land in per-job slots, so
//! the report order is submission order no matter which worker finished
//! when — with a deterministic optimizer this makes batch output
//! byte-identical across worker counts.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use am_check::validate::{validate, ValidationConfig, VerdictCounts};
use am_core::global::{optimize_owned, GlobalConfig, PhaseTimings};
use am_ir::alpha::{canonical_text, stable_hash};
use am_ir::FlowGraph;
use am_lang::{compile_source, SourceKind};
use am_trace::Tracer;

use crate::cache::{CachedResult, ResultCache, SecondaryCache};
use crate::job::{Job, JobInput, JobOutcome, JobReport, OptimizedJob, ResultSource};
use crate::report::PipelineReport;

/// Engine configuration.
#[derive(Clone)]
pub struct PipelineConfig {
    /// Worker threads; `None` uses [`std::thread::available_parallelism`].
    pub workers: Option<usize>,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Motion-round budget per job; `None` uses the paper's quadratic
    /// bound. A job that exhausts the budget still terminates and reports
    /// `converged: false`.
    pub max_motion_rounds: Option<usize>,
    /// Translation-validate every job: re-run the optimizer through the
    /// phase-boundary hooks and differentially check each phase against
    /// the counting interpreter (see `am-check`). Runs even on cache hits
    /// — the cache stores results, not validations.
    pub verify: bool,
    /// Run the `am-prove` symbolic equivalence prover on every phase pair
    /// before the interpreter (implies `verify`): proved pairs are
    /// discharged for *all* inputs statically, refuted pairs fail the job
    /// with the prover's witness, and only inconclusive pairs fall back to
    /// the differential interpreter runs.
    pub prove: bool,
    /// Lint every freshly optimized program with the `am-lint` static
    /// suite and store the summary in the result cache. Unlike `verify`,
    /// the verdict is a deterministic function of the input, so cache
    /// hits reuse the stored summary (which is `None` when the entry was
    /// cached by a run without linting).
    pub lint: bool,
    /// Trace sink shared by every worker: per-job spans, per-batch
    /// counters and the optimizer's own phase/round/analysis events.
    /// Disabled (a no-op) by default.
    pub tracer: Tracer,
    /// Second cache tier consulted on in-memory misses and fed on fresh
    /// optimizations (e.g. the `am-serve` persistent on-disk store).
    /// `None` (the default) keeps the engine purely in-memory.
    pub secondary: Option<Arc<dyn SecondaryCache>>,
}

impl std::fmt::Debug for PipelineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("max_motion_rounds", &self.max_motion_rounds)
            .field("verify", &self.verify)
            .field("prove", &self.prove)
            .field("lint", &self.lint)
            .field("tracer", &self.tracer)
            .field("secondary", &self.secondary.is_some())
            .finish()
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: None,
            cache_capacity: 256,
            max_motion_rounds: None,
            verify: false,
            prove: false,
            lint: false,
            tracer: Tracer::disabled(),
            secondary: None,
        }
    }
}

/// A batch optimizer: worker pool plus a result cache that persists across
/// [`Pipeline::run`] calls on the same instance.
pub struct Pipeline {
    config: PipelineConfig,
    cache: ResultCache,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new(PipelineConfig::default())
    }
}

impl Pipeline {
    /// Creates an engine with the given configuration.
    pub fn new(config: PipelineConfig) -> Pipeline {
        let cache = ResultCache::new(config.cache_capacity);
        Pipeline { config, cache }
    }

    /// The shared result cache (its counters survive across batches).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The number of worker threads a run will use.
    pub fn workers(&self) -> usize {
        self.config
            .workers
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .max(1)
    }

    /// Optimizes every job, in parallel, and returns per-job reports in
    /// submission order plus batch aggregates.
    pub fn run(&self, jobs: &[Job]) -> PipelineReport {
        let started = Instant::now();
        let workers = self.workers().min(jobs.len()).max(1);
        let cache_before = self.cache.stats();
        let mut batch = self.config.tracer.span("batch", "batch");
        batch
            .arg("jobs", jobs.len() as i64)
            .arg("workers", workers as i64);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobReport>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let report = self.run_job(job);
                    *slots[i].lock().unwrap() = Some(report);
                });
            }
        });

        let jobs: Vec<JobReport> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("every slot filled"))
            .collect();
        let mut phase_totals = PhaseTimings::default();
        for job in &jobs {
            if let Some(o) = job.optimized().filter(|o| !o.source.is_cached()) {
                phase_totals.accumulate(&o.result.timings);
            }
        }
        let cache = self.cache.stats();
        let batch_cache_hits = cache.hits - cache_before.hits;
        let batch_cache_misses = cache.misses - cache_before.misses;
        self.config.tracer.counter(
            "batch",
            "cache",
            &[
                ("hits", batch_cache_hits as i64),
                ("misses", batch_cache_misses as i64),
            ],
        );
        drop(batch);
        PipelineReport {
            workers,
            wall: started.elapsed(),
            cache,
            batch_cache_hits,
            batch_cache_misses,
            phase_totals,
            jobs,
        }
    }

    /// Runs one job through the full engine path — I/O or in-memory parse,
    /// cache lookup (memory, then secondary), optimize on miss — with the
    /// same panic isolation and tracing a batch worker applies. This is the
    /// entry point services use to serve individual requests off the batch
    /// machinery.
    pub fn run_job(&self, job: &Job) -> JobReport {
        let started = Instant::now();
        let mut span = self.config.tracer.span("job", "job");
        let outcome = match catch_unwind(AssertUnwindSafe(|| self.process(job))) {
            Ok(Ok(optimized)) => JobOutcome::Optimized(optimized),
            Ok(Err(message)) => JobOutcome::Failed(message),
            Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
        };
        if let JobOutcome::Optimized(o) = &outcome {
            span.arg("cache_hit", o.source.is_cached() as i64);
        }
        drop(span);
        JobReport {
            name: job.name.clone(),
            outcome,
            wall: started.elapsed(),
        }
    }

    fn process(&self, job: &Job) -> Result<OptimizedJob, String> {
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
            JobInput::Poison => panic!("poison job '{}'", job.name),
        };
        let graph = compile_source(kind, &text).map_err(|e| format!("{}: {e}", job.name))?;
        let verification =
            (self.config.verify || self.config.prove).then(|| self.verify_graph(&graph));
        let mut optimized = self.optimize_graph(graph);
        if let Some((verdict, counts)) = verification {
            optimized.verification = Some(verdict);
            optimized.prove = counts;
        }
        Ok(optimized)
    }

    /// Optimizes one already-parsed program through the cache tiers:
    /// in-memory hit, then secondary-cache hit (promoted into memory), then
    /// a fresh optimizer run (offered to the secondary cache). Verification
    /// is a per-request concern and is left `None`; callers wanting it use
    /// [`Pipeline::run_job`].
    ///
    /// The program is taken by value: its hash and input shape are read
    /// first, and a fresh run then optimizes the program itself
    /// ([`optimize_owned`]), with no copy made.
    pub fn optimize_graph(&self, graph: FlowGraph) -> OptimizedJob {
        let input_hash = stable_hash(&graph);
        if let Some(result) = self.cache.get(input_hash) {
            return OptimizedJob {
                input_hash,
                source: ResultSource::Memory,
                result,
                verification: None,
                prove: None,
            };
        }
        if let Some(secondary) = &self.config.secondary {
            if let Some(loaded) = secondary.load(input_hash) {
                let result = self.cache.insert(input_hash, loaded);
                return OptimizedJob {
                    input_hash,
                    source: ResultSource::Secondary,
                    result,
                    verification: None,
                    prove: None,
                };
            }
        }
        // Input shape, for bench reporting.
        let (nodes, instrs, points) =
            (graph.node_count(), graph.instr_count(), graph.point_count());
        let config = GlobalConfig {
            max_motion_rounds: self.config.max_motion_rounds,
            keep_snapshots: false,
            tracer: self.config.tracer.clone(),
        };
        let out = optimize_owned(graph, &config, &mut |_, _| {});
        let lint = self.config.lint.then(|| {
            let report = am_lint::lint_graph(
                &out.program,
                &am_lint::LintConfig {
                    tracer: self.config.tracer.clone(),
                    srcmap: None,
                },
            );
            am_lint::LintSummary::from(&report)
        });
        let entry = CachedResult {
            canonical: canonical_text(&out.program),
            nodes,
            instrs,
            points,
            init: out.init,
            motion: out.motion,
            flush: out.flush,
            edges_split: out.edges_split,
            timings: out.timings,
            lint,
        };
        if let Some(secondary) = &self.config.secondary {
            secondary.store(input_hash, &entry);
        }
        let result = self.cache.insert(input_hash, entry);
        OptimizedJob {
            input_hash,
            source: ResultSource::Fresh,
            result,
            verification: None,
            prove: None,
        }
    }

    /// Differentially validates every optimizer phase on `graph` —
    /// prove-first when [`PipelineConfig::prove`] is on — returning the
    /// verdict plus the per-phase prover verdict counts (when proving).
    fn verify_graph(
        &self,
        graph: &am_ir::FlowGraph,
    ) -> (Result<(), String>, Option<VerdictCounts>) {
        let vcfg = ValidationConfig {
            max_motion_rounds: self.config.max_motion_rounds,
            // The baselines are not what this pipeline ships; verify the
            // phases the batch actually ran.
            check_baselines: false,
            prove: self.config.prove,
            tracer: self.config.tracer.clone(),
            ..ValidationConfig::default()
        };
        let v = validate(graph, &vcfg);
        let counts = self.config.prove.then(|| {
            let mut c = VerdictCounts::default();
            for (_, verdict) in &v.prove_verdicts {
                c.add(*verdict);
            }
            c
        });
        let verdict = match v.failure {
            None => Ok(()),
            Some(f) => Err(format!("{}: {:?}", f.stage, f.kind)),
        };
        (verdict, counts)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
