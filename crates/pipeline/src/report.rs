//! Aggregated batch results.

use std::fmt;
use std::time::Duration;

use am_core::global::PhaseTimings;

use crate::cache::CacheStats;
use crate::job::{JobOutcome, JobReport};

/// The result of one [`Pipeline::run`](crate::Pipeline::run): per-job
/// reports in submission order plus batch-wide aggregates.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// One entry per submitted job, in submission order (independent of
    /// which worker ran it when).
    pub jobs: Vec<JobReport>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall time of the whole batch.
    pub wall: Duration,
    /// Cache counters at the end of the batch. Cumulative over the
    /// pipeline's lifetime — a second batch on the same [`Pipeline`](crate::Pipeline)
    /// includes the first batch's traffic.
    pub cache: CacheStats,
    /// Cache hits attributable to *this* batch (end minus start).
    pub batch_cache_hits: u64,
    /// Cache misses attributable to *this* batch (end minus start).
    pub batch_cache_misses: u64,
    /// Sum of per-phase optimizer times across all non-cached jobs. With
    /// several workers this exceeds `wall` — it is total CPU time spent in
    /// the optimizer, not elapsed time.
    pub phase_totals: PhaseTimings,
}

impl PipelineReport {
    /// Jobs that produced an optimized program (freshly or from cache).
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.optimized().is_some()).count()
    }

    /// Jobs that failed cleanly (I/O, unknown kind, parse error).
    pub fn failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Failed(_)))
            .count()
    }

    /// Jobs that panicked in the optimizer.
    pub fn panicked(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Panicked(_)))
            .count()
    }

    /// Jobs served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.optimized().is_some_and(|o| o.cache_hit))
            .count()
    }

    /// Jobs served from the secondary (persistent) cache tier.
    pub fn secondary_hits(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                j.optimized()
                    .is_some_and(|o| o.source == crate::job::ResultSource::Secondary)
            })
            .count()
    }

    /// Jobs whose translation validation passed.
    pub fn verified(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                j.optimized()
                    .is_some_and(|o| matches!(o.verification, Some(Ok(()))))
            })
            .count()
    }

    /// Jobs whose translation validation failed.
    pub fn verify_failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                j.optimized()
                    .is_some_and(|o| matches!(o.verification, Some(Err(_))))
            })
            .count()
    }

    /// Summed prover verdict counts over all jobs that ran with the
    /// symbolic prover (zero counts when no job proved anything).
    pub fn proof_counts(&self) -> am_check::validate::VerdictCounts {
        let mut total = am_check::validate::VerdictCounts::default();
        for j in &self.jobs {
            if let Some(c) = j.optimized().and_then(|o| o.prove.as_ref()) {
                total.proved += c.proved;
                total.refuted += c.refuted;
                total.inconclusive += c.inconclusive;
            }
        }
        total
    }

    /// Jobs with a lint verdict (linted now, or served from a cache entry
    /// that stored one).
    pub fn linted(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.optimized().is_some_and(|o| o.result.lint.is_some()))
            .count()
    }

    /// Error-severity lint findings summed over all jobs.
    pub fn lint_errors(&self) -> usize {
        self.lint_sum(|l| l.errors)
    }

    /// Warning-severity lint findings summed over all jobs.
    pub fn lint_warnings(&self) -> usize {
        self.lint_sum(|l| l.warnings)
    }

    fn lint_sum(&self, f: impl Fn(&am_lint::LintSummary) -> usize) -> usize {
        self.jobs
            .iter()
            .filter_map(|j| j.optimized().and_then(|o| o.result.lint.as_ref()))
            .map(f)
            .sum()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline: {} jobs on {} workers in {:.2} ms",
            self.jobs.len(),
            self.workers,
            ms(self.wall)
        )?;
        for job in &self.jobs {
            match &job.outcome {
                JobOutcome::Optimized(o) => {
                    let src = o.source.label();
                    writeln!(
                        f,
                        "  ok    {:<32} {:>8.2} ms  {:<6}  hash {:016x}  rounds {}  eliminated {}  flush -{}+{}",
                        job.name,
                        ms(job.wall),
                        src,
                        o.input_hash,
                        o.result.motion.rounds,
                        o.result.motion.eliminated,
                        o.result.flush.instances_removed,
                        o.result.flush.inserted,
                    )?;
                    if !o.result.motion.converged {
                        writeln!(f, "        {:<32} motion budget exhausted", "")?;
                    }
                    if let Some(Err(e)) = &o.verification {
                        writeln!(f, "        {:<32} verify FAILED at {}", "", e)?;
                    }
                    if let Some(lint) = &o.result.lint {
                        if lint.has_errors() {
                            for line in &lint.lines {
                                writeln!(f, "        {:<32} lint: {line}", "")?;
                            }
                        }
                    }
                }
                JobOutcome::Failed(e) => {
                    writeln!(f, "  fail  {:<32} {}", job.name, e)?;
                }
                JobOutcome::Panicked(e) => {
                    writeln!(f, "  panic {:<32} {}", job.name, e)?;
                }
            }
        }
        writeln!(
            f,
            "  cache: batch {} hits, {} misses; lifetime {} hits, {} misses, {} evictions, {} resident ({:.0}% hit rate)",
            self.batch_cache_hits,
            self.batch_cache_misses,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            self.cache.hit_rate() * 100.0
        )?;
        if self.verified() + self.verify_failed() > 0 {
            writeln!(
                f,
                "  verify: {} ok, {} failed",
                self.verified(),
                self.verify_failed()
            )?;
        }
        let proofs = self.proof_counts();
        if proofs.total() > 0 {
            writeln!(
                f,
                "  prove: {} proved, {} refuted, {} inconclusive (phase pairs)",
                proofs.proved, proofs.refuted, proofs.inconclusive
            )?;
        }
        if self.linted() > 0 {
            writeln!(
                f,
                "  lint: {} jobs, {} error(s), {} warning(s)",
                self.linted(),
                self.lint_errors(),
                self.lint_warnings()
            )?;
        }
        write!(
            f,
            "  phases (cpu): split {:.2} ms, init {:.2} ms, motion {:.2} ms, flush {:.2} ms",
            ms(self.phase_totals.split),
            ms(self.phase_totals.init),
            ms(self.phase_totals.motion),
            ms(self.phase_totals.flush),
        )
    }
}
