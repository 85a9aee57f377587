//! The benchmark's contract, read from the repository's `BENCHMARK.json`
//! (compiled in, so the binary and the file cannot drift apart): which
//! workloads exist and which metrics a run prints, with their units,
//! directions and regression bounds.

use am_trace::json::{self, Json};

/// The `BENCHMARK.json` this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_ms_p50`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Printed by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Printed by traced runs.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The compiled-in contract.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is valid")
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let workloads = array(&doc, "workloads")?
            .iter()
            .map(|w| str_field(w, "name").map(str::to_owned))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The metrics a run prints in the given mode.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("\"{key}\" must be an array"))
}

fn str_field<'a>(item: &'a Json, key: &str) -> Result<&'a str, String> {
    item.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string \"{key}\""))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    array(doc, key)?
        .iter()
        .map(|m| {
            let name = str_field(m, "name")?;
            if !valid_name(name) {
                return Err(format!("bad metric name '{name}'"));
            }
            let higher_is_better = match str_field(m, "better")? {
                "higher" => true,
                "lower" => false,
                other => return Err(format!("{name}: better is '{other}'")),
            };
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                Some(_) => return Err(format!("{name}: bound must be a number")),
                None => None,
            };
            Ok(Metric {
                name: name.to_owned(),
                unit: str_field(m, "unit")?.to_owned(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// The metric-name grammar: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in ["latency_ms_p50", "core.flush_share", "a-b", "9lives", "x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "_x", "a b", "a/b", "né", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_parses_and_follows_the_contract() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, ["corpus", "xl-nest", "xl-fan", "serve"]);
        assert!(spec.end_to_end.len() <= 8 && spec.per_layer.len() <= 128);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
    }
}
