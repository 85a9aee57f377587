//! `ambench compare`: the parent-versus-change rule.
//!
//! A change *improves* a metric on a workload when it wins at least nine
//! of ten pairs (ties count for neither side) and the medians differ by
//! more than the parent's own spread (the distance between its quartiles).
//! It *regresses* an end-to-end metric when its median is worse than the
//! parent's by more than the metric's bound. When the parent's spread is
//! wider than the bound the pairing cannot tell, and the metric is
//! *unresolved* unless every change run beats, or loses to, every parent
//! run. Per-layer metrics have no bound; they regress by the mirror image
//! of the improvement rule.

use std::fmt::Write as _;
use std::path::Path;

use am_trace::json::{self, Json};

use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles};

/// One saved run (`ambench ... --json PATH`).
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

impl Record {
    /// Parses one saved run.
    pub fn parse(file: &str, text: &str) -> Result<Record, String> {
        let doc = json::parse(text).map_err(|e| format!("{file}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{file}: no workload"))?
            .to_owned();
        let traced = matches!(doc.get("traced"), Some(Json::Bool(true)));
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{file}: no metrics"))?
            .iter()
            .map(|(name, m)| match m.get("value") {
                Some(Json::Num(v)) => Ok((name.clone(), *v)),
                _ => Err(format!("{file}: {name} has no value")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Record {
            workload,
            traced,
            metrics,
        })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Reads every `*.json` record in `dir`, sorted by file name (pairs are
/// formed in that order).
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Record::parse(&p.display().to_string(), &text)
        })
        .collect()
}

/// How a change compares with its parent on one metric and workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the pairing rule.
    Improved,
    /// Within the bound (or, without one, no pairing evidence either way).
    Unchanged,
    /// Worse by more than the bound (or by the mirrored pairing rule).
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the rule to one metric's parent and change values, paired by
/// position.
pub fn classify(m: &Metric, base: &[f64], change: &[f64]) -> Verdict {
    let sign = if m.higher_is_better { 1.0 } else { -1.0 };
    // Positive when `c` is better than `b`.
    let gain = |b: f64, c: f64| sign * (c - b);
    let pairs = base.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| gain(base[i], change[i]) > 0.0)
        .count();
    let losses = (0..pairs)
        .filter(|&i| gain(base[i], change[i]) < 0.0)
        .count();
    let iqr = quartiles(base).map_or(0.0, |(q1, q3)| q3 - q1);
    let diff = gain(median(base), median(change));
    let decisive = |n: usize| pairs > 0 && n * 10 >= pairs * 9;
    if decisive(wins) && diff > iqr {
        return Verdict::Improved;
    }
    let Some(bound) = m.bound else {
        return if decisive(losses) && -diff > iqr {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    let every = |better: bool| {
        base.iter().all(|&b| {
            change
                .iter()
                .all(|&c| (gain(b, c) > 0.0) == better && gain(b, c) != 0.0)
        })
    };
    let tolerance = bound * median(base).abs();
    if iqr > tolerance {
        return if every(true) {
            Verdict::Improved
        } else if every(false) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if -diff > tolerance {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Compares two sets of saved runs; returns the report and whether any
/// metric regressed.
pub fn compare(spec: &Spec, base: &[Record], change: &[Record]) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<26} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base_median", "change_median", "delta%", "iqr%", "wins"
    );
    let mut regressed = false;
    let mut tally = [0usize; 4];
    for workload in &spec.workloads {
        for traced in [false, true] {
            let pick = |set: &[Record]| -> Vec<Record> {
                set.iter()
                    .filter(|r| &r.workload == workload && r.traced == traced)
                    .cloned()
                    .collect()
            };
            let (b, c) = (pick(base), pick(change));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            for m in spec.metrics(traced) {
                let values = |set: &[Record]| -> Vec<f64> {
                    set.iter().filter_map(|r| r.value(&m.name)).collect()
                };
                let (bv, cv) = (values(&b), values(&c));
                if bv.is_empty() || cv.is_empty() {
                    continue;
                }
                let verdict = classify(m, &bv, &cv);
                regressed |= verdict == Verdict::Regressed;
                tally[verdict as usize] += 1;
                let (mb, mc) = (median(&bv), median(&cv));
                let iqr = quartiles(&bv).map_or(0.0, |(q1, q3)| q3 - q1);
                let pct = |x: f64| if mb != 0.0 { 100.0 * x / mb.abs() } else { 0.0 };
                let pairs = bv.len().min(cv.len());
                let sign = if m.higher_is_better { 1.0 } else { -1.0 };
                let wins = (0..pairs).filter(|&i| sign * (cv[i] - bv[i]) > 0.0).count();
                let _ = writeln!(
                    out,
                    "{workload:<8} {:<26} {mb:>14.6} {mc:>14.6} {:>+8.2} {:>8.2} {:>3}/{:<2}  {}",
                    m.name,
                    pct(mc - mb),
                    pct(iqr),
                    wins,
                    pairs,
                    verdict.label()
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        tally[0], tally[1], tally[2], tally[3]
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(bound: Option<f64>) -> Metric {
        Metric {
            name: "latency_ms_p50".to_owned(),
            unit: "ms".to_owned(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_spread_is_an_improvement() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let mut change: Vec<f64> = base.iter().map(|b| b - 10.0).collect();
        change[0] = 200.0; // one lost pair is allowed
        assert_eq!(
            classify(&metric(Some(0.1)), &base, &change),
            Verdict::Improved
        );
        change[1] = 200.0; // two are not, and the medians stay within bound
        assert_ne!(
            classify(&metric(Some(0.1)), &base, &change),
            Verdict::Improved
        );
    }

    #[test]
    fn bounds_decide_regressions() {
        let base = vec![100.0, 101.0, 99.0, 100.0, 100.5];
        let slightly = vec![105.0, 104.0, 106.0, 105.0, 104.5];
        let much = vec![120.0, 121.0, 119.0, 120.0, 122.0];
        assert_eq!(
            classify(&metric(Some(0.1)), &base, &base),
            Verdict::Unchanged
        );
        assert_eq!(
            classify(&metric(Some(0.1)), &base, &slightly),
            Verdict::Unchanged
        );
        assert_eq!(
            classify(&metric(Some(0.1)), &base, &much),
            Verdict::Regressed
        );
        // Without a bound the mirrored pairing rule applies.
        assert_eq!(
            classify(&metric(None), &base, &slightly),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = vec![50.0, 150.0, 100.0, 60.0, 140.0];
        let change = vec![100.0, 100.0, 100.0, 100.0, 100.0];
        assert_eq!(
            classify(&metric(Some(0.1)), &base, &change),
            Verdict::Unresolved
        );
    }

    #[test]
    fn records_round_trip_through_the_result_line() {
        let text = r#"{"workload": "corpus", "seed": 1, "traced": false, "correct": true, "attempted": 5, "failed": 0, "metrics": {"latency_ms_p50": {"value": 1.5, "unit": "ms"}}}"#;
        let r = Record::parse("a.json", text).unwrap();
        assert_eq!(r.workload, "corpus");
        assert!(!r.traced);
        assert_eq!(r.value("latency_ms_p50"), Some(1.5));
    }
}
