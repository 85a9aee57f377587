//! The `am-bench-dataflow/v1` benchmark record schema.
//!
//! One JSON document per benchmark run, shared between the
//! `bench_dataflow` scaling harness (`crates/bench`) and
//! `amopt --bench-json`: a `schema` tag, the producing `generator`, and a
//! flat list of per-workload (or per-job) records carrying wall time,
//! per-phase timings and the solver counters, one compact record per line.
//! Written through the workspace's one JSON codec, [`am_trace::json`].
//!
//! Consumers diff successive documents to track the solver trajectory:
//! `wall_micros` and `worklist_pushes` are the regression-gated fields
//! (see `docs/PERFORMANCE.md`).

use am_trace::json::{self, Json};

/// Schema identifier embedded in every document.
pub const BENCH_SCHEMA: &str = "am-bench-dataflow/v1";

/// One benchmarked workload or job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BenchRecord {
    /// Workload or job label, e.g. `nest d=4 w=4`.
    pub label: String,
    /// Input CFG nodes.
    pub nodes: usize,
    /// Input instructions.
    pub instrs: usize,
    /// Instruction-level program points of the input (`PointGraph` size).
    pub points: usize,
    /// End-to-end `optimize` wall time, microseconds (best of N).
    pub wall_micros: u128,
    /// Critical-edge splitting time, microseconds.
    pub split_micros: u128,
    /// Initialization time, microseconds.
    pub init_micros: u128,
    /// Assignment-motion time, microseconds.
    pub motion_micros: u128,
    /// Final-flush time, microseconds.
    pub flush_micros: u128,
    /// Motion rounds until stabilization.
    pub rounds: usize,
    /// Whether motion converged within its round budget.
    pub converged: bool,
    /// Solver iterations (motion + flush).
    pub iterations: u64,
    /// Solver worklist pushes (motion + flush).
    pub worklist_pushes: u64,
    /// Peak solver worklist length across all solves.
    pub max_worklist_len: usize,
    /// Assignment occurrences eliminated by motion.
    pub eliminated: usize,
    /// Instances inserted by hoisting.
    pub inserted: usize,
    /// Hoisting candidates removed.
    pub removed: usize,
    /// Whether the record was served from the result cache (always false
    /// for the scaling harness; per-job for `amopt --bench-json`, where a
    /// hit reports zero timings).
    pub cache_hit: bool,
    /// Heap allocations of one optimize run, where the writer counts them
    /// (`bench_dataflow`, through a counting allocator); omitted from the
    /// JSON when `None`.
    pub allocations: Option<u64>,
}

impl BenchRecord {
    /// Worklist pushes per program point: the dedup/ordering health metric
    /// gated in CI. Counts every solve of the run, so a well-ordered
    /// engine stays in the low tens even over many motion rounds.
    pub fn pushes_per_point(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.worklist_pushes as f64 / self.points as f64
        }
    }

    /// The record as one JSON object, fields in schema order.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("label", self.label.as_str().into()),
            ("nodes", self.nodes.into()),
            ("instrs", self.instrs.into()),
            ("points", self.points.into()),
            ("wall_micros", self.wall_micros.into()),
            ("split_micros", self.split_micros.into()),
            ("init_micros", self.init_micros.into()),
            ("motion_micros", self.motion_micros.into()),
            ("flush_micros", self.flush_micros.into()),
            ("rounds", self.rounds.into()),
            ("converged", self.converged.into()),
            ("iterations", self.iterations.into()),
            ("worklist_pushes", self.worklist_pushes.into()),
            ("max_worklist_len", self.max_worklist_len.into()),
            ("eliminated", self.eliminated.into()),
            ("inserted", self.inserted.into()),
            ("removed", self.removed.into()),
            ("cache_hit", self.cache_hit.into()),
        ];
        if let Some(n) = self.allocations {
            fields.push(("allocations", n.into()));
        }
        json::obj(fields)
    }
}

/// Estimated rendered size of one record — used to reserve the output
/// buffer up front so multi-MB documents build in one allocation instead
/// of repeatedly growing (and copying) the string.
const RECORD_RESERVE: usize = 384;

/// The full document: schema tag, generator name, records.
fn document(generator: &str, records: &[BenchRecord]) -> Json {
    json::obj([
        ("schema", BENCH_SCHEMA.into()),
        ("generator", generator.into()),
        (
            "records",
            records.iter().map(BenchRecord::to_json).collect(),
        ),
    ])
}

/// Renders the full document, one record per line, into a single
/// pre-reserved buffer. Callers persisting the result should write it
/// through a temporary file + rename so an interrupted run never leaves a
/// truncated document behind.
pub fn render(generator: &str, records: &[BenchRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * RECORD_RESERVE);
    document(generator, records).write_lines(&mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_shape_and_escaping() {
        let rec = BenchRecord {
            label: "nest \"d=1\"".to_owned(),
            nodes: 3,
            instrs: 7,
            points: 8,
            wall_micros: 1234,
            converged: true,
            worklist_pushes: 40,
            ..Default::default()
        };
        let doc = render("bench_dataflow", &[rec.clone(), rec]);
        assert!(doc.starts_with(
            "{\"schema\":\"am-bench-dataflow/v1\",\n \"generator\":\"bench_dataflow\",\n \
             \"records\":[{\"label\":\"nest \\\"d=1\\\"\",\"nodes\":3,"
        ));
        assert!(doc.contains("\"wall_micros\":1234,"));
        assert!(doc.contains("\"converged\":true,"));
        assert!(doc.contains("\"cache_hit\":false},\n  {\"label\":"));
        assert!(doc.ends_with("\"cache_hit\":false}]}\n"));
        assert_eq!(doc.lines().count(), 4, "one line per record: {doc}");
    }

    #[test]
    fn empty_document_is_valid() {
        let doc = render("amopt", &[]);
        assert!(doc.contains("\"records\":[]"));
        assert_eq!(json::parse(&doc).unwrap(), document("amopt", &[]));
    }

    #[test]
    fn render_parse_round_trip_preserves_every_field() {
        let records = vec![
            BenchRecord {
                label: "service \"p99\"\n".to_owned(),
                nodes: 98,
                instrs: 354,
                points: 360,
                wall_micros: 123_456_789,
                split_micros: 11,
                init_micros: 22,
                motion_micros: 33,
                flush_micros: 44,
                rounds: 7,
                converged: true,
                iterations: 9001,
                worklist_pushes: 4242,
                max_worklist_len: 77,
                eliminated: 12,
                inserted: 3,
                removed: 4,
                cache_hit: true,
                allocations: Some(4321),
            },
            BenchRecord::default(),
        ];
        let doc = render("amopt", &records);
        assert_eq!(json::parse(&doc).unwrap(), document("amopt", &records));
        let first = records[0].to_json();
        assert_eq!(first.as_obj().map(<[_]>::len), Some(19));
        assert_eq!(first.u64_field("allocations"), Ok(4321));
        assert_eq!(records[1].to_json().field("allocations").ok(), None);
        assert_eq!(first.u64_field("max_worklist_len"), Ok(77));
        assert_eq!(first.bool_field("cache_hit"), Ok(true));
    }

    #[test]
    fn multi_megabyte_document_round_trips_untruncated() {
        // XL ladder reports reach tens of thousands of records; the
        // writer must neither truncate nor corrupt at that size.
        let records: Vec<BenchRecord> = (0..20_000)
            .map(|i| BenchRecord {
                label: format!("xl synthetic rung #{i} \"q\""),
                nodes: 30_000 + i,
                instrs: 150_003,
                points: 180_000,
                wall_micros: 8_000_000_000_000_000 + i as u128,
                iterations: 4_000_000_000_000_000 - i as u64,
                worklist_pushes: 1_000_000_000_000_000 + i as u64,
                converged: i % 2 == 0,
                ..Default::default()
            })
            .collect();
        let doc = render("bench_dataflow", &records);
        assert!(doc.len() > 2_000_000, "not a multi-MB document");
        assert!(doc.ends_with("}]}\n"), "document truncated");
        assert_eq!(doc.lines().count(), 2 + records.len());
        assert_eq!(
            json::parse(&doc).unwrap(),
            document("bench_dataflow", &records)
        );
    }

    #[test]
    fn checked_in_baseline_parses_through_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dataflow.json");
        let text = std::fs::read_to_string(path).expect("checked-in BENCH_dataflow.json");
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.str_field("schema"), Ok(BENCH_SCHEMA));
        assert_eq!(doc.str_field("generator"), Ok("bench_dataflow"));
        let records = doc.arr_field("records").unwrap();
        assert!(
            records.len() >= 12,
            "workload ladder shrank: {}",
            records.len()
        );
        let written = BenchRecord::default().to_json();
        for r in records {
            let label = r.str_field("label").unwrap();
            // Every field the encoder writes is present, with its type.
            for (key, value) in written.as_obj().unwrap() {
                let field = r.field(key).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(
                    std::mem::discriminant(field),
                    std::mem::discriminant(value),
                    "{label}: \"{key}\" has the wrong type"
                );
            }
            assert!(r.u64_field("points").unwrap() > 0, "{label}: zero points");
            assert_eq!(
                r.bool_field("converged"),
                Ok(true),
                "{label}: did not converge"
            );
        }
    }

    #[test]
    fn pushes_per_point_handles_zero_points() {
        assert_eq!(BenchRecord::default().pushes_per_point(), 0.0);
        let r = BenchRecord {
            points: 8,
            worklist_pushes: 40,
            ..Default::default()
        };
        assert!((r.pushes_per_point() - 5.0).abs() < 1e-9);
    }
}
