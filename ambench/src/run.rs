//! What every workload run produces, and how it becomes the printed
//! metrics and the final JSON line.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use am_core::global::{optimize_with, GlobalConfig};
use am_ir::alpha::canonical_text;
use am_pipeline::{CachedResult, Job, JobOutcome, Pipeline, PipelineConfig};

use crate::check::{self, OutputLog, Summary};
use crate::inputs::Program;
use crate::layers::{per_layer_metrics, Counts, LayerInputs, Recorder, ServeStats};
use crate::spec::Metric;
use crate::stats::{latency_percentiles, median, percentile, sorted};

/// Set-ups per run. `setup_s` is their median; the last one's state is
/// the one that gets timed.
pub const SETUPS: usize = 9;

/// How long to measure, and whether this is the traced run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Timed window.
    pub window: Duration,
    /// Traced run: every other sample is traced and per-layer metrics are
    /// reported instead of end-to-end ones.
    pub traced: bool,
}

/// The raw results of one workload run. Batch workloads give their times
/// at reference speed (see [`crate::reference`]), `serve` in wall-clock
/// time.
pub struct Outcome {
    /// How the times were taken, for the report.
    pub clock: &'static str,
    /// Duration of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// Untraced timed samples, ms.
    pub latencies_ms: Vec<f64>,
    /// Samples answered per second of timed samples.
    pub ops_per_s: f64,
    /// Timed window, wall-clock seconds.
    pub wall_s: f64,
    /// Peak resident set over the timed window, MiB.
    pub peak_rss_mb: f64,
    /// Timed samples attempted.
    pub attempted: u64,
    /// Timed samples that errored, were refused, or produced wrong output.
    pub failed: u64,
    /// Why, one line per failing program or sample.
    pub failures: Vec<String>,
    /// The output check over the workload's distinct programs.
    pub check: Summary,
    /// Exact optimizer counts over the distinct programs.
    pub counts: Counts,
    /// The traced samples, in a traced run.
    pub recorder: Option<Recorder>,
    /// The server's own figures, for `serve`.
    pub serve: Option<ServeStats>,
}

/// A cold engine, as `amopt` builds one per invocation: a fresh result
/// cache, and one solver thread.
pub fn cold_pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig {
        workers: Some(1),
        ..PipelineConfig::default()
    })
}

/// Compiles one job on a cold engine.
pub fn cold_compile(job: &Job) -> Result<Arc<CachedResult>, String> {
    match cold_pipeline().run_job(job).outcome {
        JobOutcome::Optimized(o) => Ok(o.result),
        JobOutcome::Failed(m) => Err(m),
        JobOutcome::Panicked(m) => Err(format!("panicked: {m}")),
    }
}

/// The job for one program.
pub fn job(p: &Program) -> Job {
    Job::from_source(p.name.clone(), p.kind, p.text.clone())
}

/// Checks every program's reference output against its input and sums
/// the exact counts. `refs[i]` is program `i`'s output, or why there is
/// none.
pub fn verify(
    programs: &[Program],
    refs: &[Result<Arc<CachedResult>, String>],
) -> (Summary, Counts) {
    let mut counts = Counts::default();
    let mut broken = Vec::new();
    let mut triples = Vec::new();
    for (i, (p, r)) in programs.iter().zip(refs).enumerate() {
        let r = match r {
            Ok(r) => r,
            Err(why) => {
                broken.push((i, why.clone()));
                continue;
            }
        };
        counts.add(r);
        let original = match am_lang::compile_source(p.kind, &p.text) {
            Ok(g) => g,
            Err(e) => {
                broken.push((i, format!("input does not compile: {e}")));
                continue;
            }
        };
        // Canonical text does not always parse back (split-edge nodes get
        // labels like `3,5`), so the graph to interpret comes from a direct
        // optimizer call whose text must equal the output under test.
        let config = GlobalConfig {
            keep_snapshots: false,
            ..GlobalConfig::default()
        };
        let optimized = optimize_with(&original, &config).program;
        if canonical_text(&optimized) == r.canonical {
            triples.push((i, original, optimized));
        } else {
            broken.push((i, "output differs from a direct optimize_with".to_owned()));
        }
    }
    let mut summary = check::summarize(triples.into_iter());
    summary.failures.extend(broken);
    (summary, counts)
}

/// Timed samples that failed: all of a failing program's, and the ones
/// whose output differed from their program's reference.
pub fn failed_samples(timed: &[u64], log: &OutputLog, summary: &Summary) -> u64 {
    let bad: BTreeSet<usize> = summary.failures.iter().map(|(i, _)| *i).collect();
    (0..timed.len())
        .map(|i| {
            if bad.contains(&i) {
                timed[i]
            } else {
                log.mismatched(i) as u64
            }
        })
        .sum()
}

/// Failure lines naming programs, for the report.
pub fn describe(programs: &[Program], summary: &Summary, log: &OutputLog) -> Vec<String> {
    let mut lines: Vec<String> = summary
        .failures
        .iter()
        .map(|(i, why)| format!("{}: {why}", programs[*i].name))
        .collect();
    for (i, p) in programs.iter().enumerate() {
        if log.mismatched(i) > 0 {
            lines.push(format!(
                "{}: {} outputs differ from its first",
                p.name,
                log.mismatched(i)
            ));
        }
    }
    lines
}

/// Elapsed milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Restarts the kernel's peak-RSS count (`VmHWM`) from the current
/// resident set, so that the peak read after the timed window belongs to
/// the window and not to set-up.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process (`VmHWM`) since the last reset, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end_metrics(o: &Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    let (p50, p90) = latency_percentiles(&o.latencies_ms)?;
    Ok(vec![
        ("latency_ms_p50", p50),
        ("latency_ms_p90", p90),
        ("ops_per_s", o.ops_per_s),
        ("evals_ratio", o.check.evals_ratio),
        ("size_ratio", o.check.size_ratio),
        ("peak_rss_mb", o.peak_rss_mb),
        ("setup_s", median(&o.setups_s)),
    ])
}

/// The metrics of this run's mode.
pub fn metrics(o: &Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    match &o.recorder {
        None => end_to_end_metrics(o),
        Some(recorder) => {
            let untraced_p50_ms = if o.latencies_ms.is_empty() {
                0.0
            } else {
                percentile(&sorted(&o.latencies_ms), 0.5)
            };
            recorder.record_counts(&o.counts);
            Ok(per_layer_metrics(&LayerInputs {
                recorder,
                untraced_p50_ms,
                counts: &o.counts,
                serve: o.serve.as_ref(),
            }))
        }
    }
}

/// Renders `values` in the order and units of `declared`: one `name value
/// unit` line each, then the result object as the last line. Every
/// declared metric must have been measured, and nothing else.
pub fn render(
    declared: &[Metric],
    values: &[(&str, f64)],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some((extra, _)) = values
        .iter()
        .find(|(n, _)| !declared.iter().any(|m| m.name == *n))
    {
        return Err(format!(
            "measured '{extra}', which BENCHMARK.json does not declare"
        ));
    }
    let mut lines = String::new();
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in declared.iter().enumerate() {
        let value = values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares '{}', which was not measured",
                    m.name
                )
            })?;
        if !value.is_finite() {
            return Err(format!("{} is {value}", m.name));
        }
        let _ = writeln!(lines, "{} {value} {}", m.name, m.unit);
        if k > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    Ok(lines + &json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    fn outcome(traced: bool) -> Outcome {
        Outcome {
            clock: "wall",
            setups_s: vec![0.3, 0.1, 0.2],
            latencies_ms: (1..=100).map(f64::from).collect(),
            ops_per_s: 50.0,
            wall_s: 2.0,
            peak_rss_mb: 20.0,
            attempted: 100,
            failed: 0,
            failures: Vec::new(),
            check: Summary {
                failures: Vec::new(),
                evals_ratio: 0.9,
                size_ratio: 1.1,
            },
            counts: Counts::default(),
            recorder: traced.then(Recorder::new),
            serve: None,
        }
    }

    #[test]
    fn the_binary_prints_exactly_the_declared_metrics() {
        let spec = Spec::load();
        for traced in [false, true] {
            let values = metrics(&outcome(traced)).unwrap();
            let text = render(spec.metrics(traced), &values, true, 100, 0).unwrap();
            let last = text.lines().last().unwrap();
            let doc = am_trace::json::parse(last).unwrap();
            let printed: Vec<&str> = doc
                .get("metrics")
                .and_then(|m| m.as_obj())
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let declared: Vec<&str> = spec
                .metrics(traced)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            assert_eq!(printed, declared, "traced={traced}");
            assert_eq!(text.lines().count(), declared.len() + 1);
        }
    }

    #[test]
    fn end_to_end_values() {
        let values = end_to_end_metrics(&outcome(false)).unwrap();
        let get = |k: &str| values.iter().find(|(n, _)| *n == k).unwrap().1;
        assert_eq!(get("latency_ms_p50"), 50.0);
        assert_eq!(get("latency_ms_p90"), 90.0);
        assert_eq!(get("ops_per_s"), 50.0);
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("peak_rss_mb"), 20.0);
    }

    #[test]
    fn peak_rss_resets_and_reads() {
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn render_refuses_undeclared_and_missing_metrics() {
        let spec = Spec::load();
        assert!(render(&spec.end_to_end, &[("bogus", 1.0)], true, 1, 0).is_err());
        assert!(render(&spec.end_to_end, &[], true, 1, 0).is_err());
    }
}
