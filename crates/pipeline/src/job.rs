//! Units of work and their outcomes.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use am_lang::SourceKind;

use crate::cache::CachedResult;

/// Where a job's program text comes from.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Read the file at run time; the kind is derived from the extension
    /// (`.wl` while-language, `.ir` flow-graph text).
    Path(PathBuf),
    /// In-memory source of a known kind.
    Memory {
        /// Which frontend parses `text`.
        kind: SourceKind,
        /// The program text.
        text: String,
    },
    /// Panics when processed. Exists so tests (and operators diagnosing a
    /// deployment) can verify that one crashing job fails alone without
    /// taking down its worker's remaining queue.
    Poison,
}

/// A named unit of work for the pipeline.
#[derive(Clone, Debug)]
pub struct Job {
    /// Display name (file path or caller-chosen label).
    pub name: String,
    /// The program source.
    pub input: JobInput,
}

impl Job {
    /// A job that reads and optimizes the file at `path`.
    pub fn from_path(path: impl Into<PathBuf>) -> Job {
        let path = path.into();
        Job {
            name: path.display().to_string(),
            input: JobInput::Path(path),
        }
    }

    /// A job over in-memory source text.
    pub fn from_source(name: impl Into<String>, kind: SourceKind, text: impl Into<String>) -> Job {
        Job {
            name: name.into(),
            input: JobInput::Memory {
                kind,
                text: text.into(),
            },
        }
    }

    /// A job that panics when processed (worker-isolation probe).
    pub fn poison(name: impl Into<String>) -> Job {
        Job {
            name: name.into(),
            input: JobInput::Poison,
        }
    }
}

/// What happened to one job.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The program was optimized (or served from cache).
    Optimized(OptimizedJob),
    /// The job failed cleanly: I/O error, unknown extension, parse error.
    Failed(String),
    /// The job panicked; the payload is the panic message. Other jobs are
    /// unaffected.
    Panicked(String),
}

/// Where a job's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultSource {
    /// The optimizer ran; nothing cached matched.
    Fresh,
    /// Served from the in-memory [`ResultCache`](crate::ResultCache).
    Memory,
    /// Served from the configured
    /// [`SecondaryCache`](crate::cache::SecondaryCache) (and promoted into
    /// memory).
    Secondary,
}

impl ResultSource {
    /// Whether any cache tier served the result.
    pub fn is_cached(self) -> bool {
        !matches!(self, ResultSource::Fresh)
    }

    /// Stable lower-case label (`fresh`, `memory`, `disk`).
    pub fn label(self) -> &'static str {
        match self {
            ResultSource::Fresh => "fresh",
            ResultSource::Memory => "memory",
            ResultSource::Secondary => "disk",
        }
    }
}

/// A successful optimization, possibly served from the cache.
#[derive(Clone, Debug)]
pub struct OptimizedJob {
    /// Stable content hash of the *input* program (the cache key).
    pub input_hash: u64,
    /// Which tier produced the result; [`ResultSource::is_cached`] tells
    /// a cache hit.
    pub source: ResultSource,
    /// The optimized program and its per-phase statistics. Its `timings`
    /// are this job's own optimizer run only when `source` is
    /// [`ResultSource::Fresh`]; a cache hit ran nothing.
    pub result: Arc<CachedResult>,
    /// Translation-validation verdict: `None` when verification was not
    /// requested, `Some(Err(_))` names the failing phase. Present even on
    /// cache hits — the cache stores results, not validations.
    pub verification: Option<Result<(), String>>,
    /// Per-phase symbolic-prover verdict counts
    /// (proved/refuted/inconclusive): `None` unless the job ran with
    /// [`PipelineConfig::prove`](crate::PipelineConfig::prove).
    pub prove: Option<am_check::validate::VerdictCounts>,
}

/// One job's outcome plus its end-to-end wall time (I/O + parse + optimize).
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job's display name.
    pub name: String,
    /// What happened.
    pub outcome: JobOutcome,
    /// End-to-end wall time for this job on its worker.
    pub wall: Duration,
}

impl JobReport {
    /// The optimized payload, if the job succeeded.
    pub fn optimized(&self) -> Option<&OptimizedJob> {
        match &self.outcome {
            JobOutcome::Optimized(o) => Some(o),
            _ => None,
        }
    }
}
