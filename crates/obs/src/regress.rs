//! The bench-regression sentinel: append-only history entries and a
//! noise-aware comparator over the two bench document schemas
//! (`am-bench-dataflow/v1`, `am-bench-service/v1`).
//!
//! Both bench harnesses append one line per run to `BENCH_history.jsonl`
//! (`{"ts":…,"kind":"dataflow"|"service","doc":{…}}`, the full document
//! compacted onto the line), so the perf trajectory accumulates across
//! machines and PRs. `amstat regress` compares a candidate run against a
//! checked-in baseline and exits nonzero on regression.
//!
//! Noise model: deterministic **counters** (worklist pushes, iterations,
//! eliminations, …) get a tight relative tolerance — they only move when
//! the algorithm changes. **Time** metrics (wall micros, throughput,
//! latency quantiles) get a loose relative tolerance plus an absolute
//! floor, because shared CI runners jitter by tens of percent on
//! microsecond-scale workloads; `counts_only` skips them entirely, which
//! is how the cross-machine CI gate runs.

use std::fmt::Write as _;

use am_trace::json::{self, Json};

/// Whether a bigger candidate value is a regression or an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (latency, worklist pushes).
    LowerBetter,
    /// Bigger is better (throughput, eliminations).
    HigherBetter,
}

/// How a metric is judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricClass {
    /// Deterministic counter: tight tolerance, never skipped.
    Count,
    /// Wall-clock measurement: loose tolerance + floor, skippable.
    Time,
}

/// One comparable metric extracted from a bench document.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable name, unique within the document (`label / field`).
    pub name: String,
    /// The value.
    pub value: f64,
    /// Count or time.
    pub class: MetricClass,
    /// Which way regressions point.
    pub direction: Direction,
}

/// Comparator thresholds. A candidate `c` against baseline `b` regresses
/// when it lands outside the allowed band:
/// lower-better: `c > b·ratio + floor`; higher-better: `c < b/ratio − floor`.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Relative tolerance for time metrics (e.g. `1.5` = 50% slack).
    pub time_ratio: f64,
    /// Absolute floor for time metrics, in the metric's own unit.
    pub time_floor: f64,
    /// Relative tolerance for deterministic counters.
    pub count_ratio: f64,
    /// Skip time metrics entirely (the cross-machine CI mode).
    pub counts_only: bool,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            time_ratio: 1.5,
            time_floor: 500.0,
            count_ratio: 1.02,
            counts_only: false,
        }
    }
}

/// One metric that landed outside its allowed band.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// The metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// The bound the candidate violated.
    pub allowed: f64,
    /// Which way the bound points.
    pub direction: Direction,
}

/// The outcome of one baseline/candidate comparison.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Document kind (`dataflow` or `service`).
    pub kind: String,
    /// Metrics compared.
    pub compared: usize,
    /// Time metrics skipped by `counts_only`.
    pub skipped_time: usize,
    /// Metrics present on only one side (labels added/removed).
    pub unmatched: usize,
    /// No metric name appeared on both sides (fully disjoint rung sets,
    /// e.g. an XL-only candidate against the full-ladder baseline). The
    /// comparison is a defined skip — nothing was gated — rather than a
    /// failure, so `ok()` still holds.
    pub disjoint: bool,
    /// Metrics outside their allowed band.
    pub regressions: Vec<Finding>,
    /// Metrics that *improved* beyond the tolerance (informational).
    pub improvements: Vec<Finding>,
}

impl Report {
    /// Whether the candidate passed.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human rendering — see "reading a regression report" in
    /// docs/OBSERVABILITY.md.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "regress [{}]: {} metrics compared, {} time metrics skipped, {} unmatched",
            self.kind, self.compared, self.skipped_time, self.unmatched
        );
        for f in &self.regressions {
            let bound = match f.direction {
                Direction::LowerBetter => format!("allowed <= {:.1}", f.allowed),
                Direction::HigherBetter => format!("allowed >= {:.1}", f.allowed),
            };
            let _ = writeln!(
                out,
                "  REGRESSION {}: {} -> {} ({bound})",
                f.name, f.baseline, f.candidate
            );
        }
        for f in &self.improvements {
            let _ = writeln!(
                out,
                "  improved   {}: {} -> {}",
                f.name, f.baseline, f.candidate
            );
        }
        if self.disjoint {
            let _ = writeln!(
                out,
                "  SKIP: baseline and candidate share no workload labels; nothing gated"
            );
        }
        let _ = writeln!(
            out,
            "{}",
            if self.ok() {
                "OK: no regressions"
            } else {
                "REGRESSED"
            }
        );
        out
    }
}

/// The document kind of a parsed bench document, from its `schema` tag.
pub fn doc_kind(doc: &Json) -> Result<&'static str, String> {
    match doc.str_field("schema")? {
        "am-bench-dataflow/v1" => Ok("dataflow"),
        "am-bench-service/v1" => Ok("service"),
        other => Err(format!("unsupported bench schema \"{other}\"")),
    }
}

fn num(v: &Json, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Json::Num(n)) => Some(*n),
        Some(Json::Bool(b)) => Some(*b as u8 as f64),
        _ => None,
    }
}

/// Extracts the comparable metrics of a bench document.
pub fn extract_metrics(doc: &Json) -> Result<Vec<Metric>, String> {
    use Direction::*;
    use MetricClass::*;
    let mut metrics = Vec::new();
    let mut push = |name: String, value: Option<f64>, class, direction| {
        if let Some(value) = value {
            metrics.push(Metric {
                name,
                value,
                class,
                direction,
            });
        }
    };
    match doc_kind(doc)? {
        "dataflow" => {
            for r in doc.arr_field("records")? {
                let label = r.str_field("label")?;
                for (field, direction) in [
                    ("converged", HigherBetter),
                    ("eliminated", HigherBetter),
                    ("rounds", LowerBetter),
                    ("iterations", LowerBetter),
                    ("worklist_pushes", LowerBetter),
                    ("max_worklist_len", LowerBetter),
                ] {
                    push(
                        format!("{label} / {field}"),
                        num(r, field),
                        Count,
                        direction,
                    );
                }
                for field in ["wall_micros", "motion_micros"] {
                    push(
                        format!("{label} / {field}"),
                        num(r, field),
                        Time,
                        LowerBetter,
                    );
                }
            }
        }
        "service" => {
            push("requests".into(), num(doc, "requests"), Count, HigherBetter);
            push("errors".into(), num(doc, "errors"), Count, LowerBetter);
            push(
                "dedup_ratio".into(),
                num(doc, "dedup_ratio"),
                Count,
                HigherBetter,
            );
            push(
                "throughput_rps".into(),
                num(doc, "throughput_rps"),
                Time,
                HigherBetter,
            );
            if let Some(lat) = doc.get("latency_micros") {
                for field in ["p50", "p95", "p99", "max"] {
                    push(
                        format!("latency_micros / {field}"),
                        num(lat, field),
                        Time,
                        LowerBetter,
                    );
                }
            }
        }
        _ => unreachable!("doc_kind covers both schemas"),
    }
    Ok(metrics)
}

/// Compares a candidate document against a baseline of the same kind.
pub fn compare(baseline: &Json, candidate: &Json, t: &Thresholds) -> Result<Report, String> {
    let kind = doc_kind(baseline)?;
    if doc_kind(candidate)? != kind {
        return Err(format!(
            "kind mismatch: baseline is {kind}, candidate is {}",
            doc_kind(candidate)?
        ));
    }
    let base = extract_metrics(baseline)?;
    let cand = extract_metrics(candidate)?;
    let mut report = Report {
        kind: kind.to_owned(),
        ..Report::default()
    };
    let mut matched = 0usize;
    for b in &base {
        let Some(c) = cand.iter().find(|c| c.name == b.name) else {
            continue;
        };
        matched += 1;
        if b.class == MetricClass::Time && t.counts_only {
            report.skipped_time += 1;
            continue;
        }
        report.compared += 1;
        let (ratio, floor) = match b.class {
            MetricClass::Count => (t.count_ratio, 0.5),
            MetricClass::Time => (t.time_ratio, t.time_floor),
        };
        let finding = |allowed: f64| Finding {
            name: b.name.clone(),
            baseline: b.value,
            candidate: c.value,
            allowed,
            direction: b.direction,
        };
        match b.direction {
            Direction::LowerBetter => {
                let allowed = b.value * ratio + floor;
                if c.value > allowed {
                    report.regressions.push(finding(allowed));
                } else if c.value < b.value / ratio - floor {
                    report.improvements.push(finding(allowed));
                }
            }
            Direction::HigherBetter => {
                let allowed = b.value / ratio - floor;
                if c.value < allowed {
                    report.regressions.push(finding(allowed));
                } else if c.value > b.value * ratio + floor {
                    report.improvements.push(finding(allowed));
                }
            }
        }
    }
    report.unmatched = (base.len() - matched) + (cand.len() - matched);
    // Fully disjoint rung sets (no shared labels at all) are a defined
    // skip, not an error: partial bench runs (XL smoke, --small) must be
    // comparable against a wider baseline without tripping CI when the
    // overlap happens to be empty.
    report.disjoint = matched == 0 && !(base.is_empty() && cand.is_empty());
    Ok(report)
}

/// Builds one `BENCH_history.jsonl` line from a rendered bench document.
pub fn history_line(ts_seconds: u64, doc_text: &str) -> Result<String, String> {
    let doc = json::parse(doc_text).map_err(|e| e.to_string())?;
    let kind = doc_kind(&doc)?;
    Ok(json::obj([
        ("ts", ts_seconds.into()),
        ("kind", kind.into()),
        ("doc", doc),
    ])
    .to_string())
}

/// Appends one history line for `doc_text` to the file at `path`,
/// timestamped with the current wall clock. Used by both bench harnesses.
pub fn append_history(path: &std::path::Path, doc_text: &str) -> Result<(), String> {
    use std::io::Write as _;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let line = history_line(ts, doc_text)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads a bench document from file text: either a bare document or a
/// `BENCH_history.jsonl` file, in which case the newest entry (optionally
/// restricted to `kind`) is unwrapped.
pub fn load_doc(text: &str, kind: Option<&str>) -> Result<Json, String> {
    if let Ok(doc) = json::parse(text.trim()) {
        if doc.get("schema").is_some() {
            return Ok(doc);
        }
    }
    let mut newest: Option<Json> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = json::parse(line).map_err(|e| format!("history line {}: {e}", lineno + 1))?;
        let entry_kind = entry.get("kind").and_then(Json::as_str);
        if entry_kind.is_none() || entry.get("doc").is_none() {
            return Err(format!(
                "line {} is neither a bench document nor a history entry",
                lineno + 1
            ));
        }
        if kind.is_none() || entry_kind == kind {
            newest = entry.get("doc").cloned();
        }
    }
    newest.ok_or_else(|| match kind {
        Some(kind) => format!("no \"{kind}\" entry in the history file"),
        None => "empty history file".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataflow_doc(pushes: u64, wall: u64, eliminated: u64) -> String {
        format!(
            r#"{{"schema":"am-bench-dataflow/v1","generator":"t","records":[
                {{"label":"nest d=1","converged":true,"eliminated":{eliminated},"rounds":4,
                  "iterations":100,"worklist_pushes":{pushes},"max_worklist_len":10,
                  "wall_micros":{wall},"motion_micros":{}}}]}}"#,
            wall / 2
        )
    }

    fn service_doc(rps: f64, errors: u64) -> String {
        format!(
            r#"{{"schema":"am-bench-service/v1","requests":640,"errors":{errors},
                "dedup_ratio":8.0,"throughput_rps":{rps},
                "latency_micros":{{"p50":100,"p95":200,"p99":300,"max":400}}}}"#
        )
    }

    fn parse(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let doc = parse(&dataflow_doc(376, 222, 8));
        let report = compare(&doc, &doc, &Thresholds::default()).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.compared >= 8);
    }

    #[test]
    fn counter_regression_trips_tightly() {
        let base = parse(&dataflow_doc(376, 222, 8));
        // 10% more worklist pushes: outside the 2% counter band even
        // though the time band would allow it.
        let worse = parse(&dataflow_doc(414, 222, 8));
        let report = compare(&base, &worse, &Thresholds::default()).unwrap();
        assert!(!report.ok());
        assert!(report.regressions[0].name.contains("worklist_pushes"));
    }

    #[test]
    fn lost_eliminations_are_a_regression() {
        let base = parse(&dataflow_doc(376, 222, 8));
        let worse = parse(&dataflow_doc(376, 222, 5));
        let report = compare(&base, &worse, &Thresholds::default()).unwrap();
        assert!(!report.ok());
        assert!(report.regressions[0].name.contains("eliminated"));
    }

    #[test]
    fn time_noise_within_band_passes_and_counts_only_skips_it() {
        let base = parse(&dataflow_doc(376, 1000, 8));
        let noisy = parse(&dataflow_doc(376, 1400, 8));
        assert!(compare(&base, &noisy, &Thresholds::default()).unwrap().ok());
        // A genuine blowup trips...
        let slow = parse(&dataflow_doc(376, 30_000, 8));
        assert!(!compare(&base, &slow, &Thresholds::default()).unwrap().ok());
        // ...unless counts_only skips time entirely (the CI mode).
        let counts_only = Thresholds {
            counts_only: true,
            ..Thresholds::default()
        };
        let report = compare(&base, &slow, &counts_only).unwrap();
        assert!(report.ok());
        assert!(report.skipped_time >= 2);
    }

    #[test]
    fn tiny_absolute_times_never_trip() {
        // 3µs -> 8µs is 2.7x but under the 500µs floor: timer noise.
        let base = parse(&dataflow_doc(376, 3, 8));
        let jitter = parse(&dataflow_doc(376, 8, 8));
        assert!(compare(&base, &jitter, &Thresholds::default())
            .unwrap()
            .ok());
    }

    #[test]
    fn service_throughput_and_errors_gate() {
        let base = parse(&service_doc(2800.0, 0));
        assert!(compare(&base, &base, &Thresholds::default()).unwrap().ok());
        let errors = parse(&service_doc(2800.0, 3));
        let report = compare(&base, &errors, &Thresholds::default()).unwrap();
        assert!(!report.ok());
        assert_eq!(report.regressions[0].name, "errors");
        let slow = parse(&service_doc(900.0, 0));
        assert!(!compare(&base, &slow, &Thresholds::default()).unwrap().ok());
    }

    #[test]
    fn kind_mismatch_errors() {
        let d = parse(&dataflow_doc(1, 1, 1));
        let s = parse(&service_doc(1.0, 0));
        assert!(compare(&d, &s, &Thresholds::default()).is_err());
    }

    #[test]
    fn disjoint_rung_sets_skip_instead_of_failing() {
        // An XL-smoke candidate compared against a baseline whose rungs
        // it doesn't share must be a defined no-op gate, not a failure.
        let d = parse(&dataflow_doc(376, 222, 8));
        let other = parse(&dataflow_doc(376, 222, 8).replace("nest d=1", "xl nest c=2000"));
        let report = compare(&d, &other, &Thresholds::default()).unwrap();
        assert!(report.ok(), "{}", report.render());
        assert!(report.disjoint);
        assert_eq!(report.compared, 0);
        assert!(report.unmatched > 0);
        assert!(report.render().contains("SKIP"), "{}", report.render());
        // A partial overlap is an ordinary comparison, not a skip.
        let report = compare(&d, &d, &Thresholds::default()).unwrap();
        assert!(!report.disjoint);
        assert!(!report.render().contains("SKIP"));
    }

    #[test]
    fn history_lines_wrap_and_unwrap() {
        let doc = dataflow_doc(376, 222, 8);
        let line = history_line(1754600000, &doc).unwrap();
        assert!(line.starts_with("{\"ts\":1754600000,\"kind\":\"dataflow\",\"doc\":{"));
        assert!(!line.contains('\n'));
        let service_line = history_line(1754600001, &service_doc(2800.0, 0)).unwrap();
        let file = format!("{line}\n{service_line}\n");
        let newest = load_doc(&file, None).unwrap();
        assert_eq!(doc_kind(&newest).unwrap(), "service");
        let dataflow = load_doc(&file, Some("dataflow")).unwrap();
        assert_eq!(doc_kind(&dataflow).unwrap(), "dataflow");
        assert!(load_doc(&file, Some("nope")).is_err());
        // A bare document loads as itself.
        let bare = load_doc(&doc, None).unwrap();
        assert_eq!(doc_kind(&bare).unwrap(), "dataflow");
    }
}
