//! Per-layer measurement from outside the program.
//!
//! A traced sample takes an `Instant` around every call it makes into a
//! crate's public functions (and at each `optimize_hooked` phase boundary);
//! once the sample has ended, the calls become spans in an
//! `am_trace::Tracer::collector()`, so recording costs the timed interval
//! only the clock reads. Self times are kept at full clock precision here;
//! the exported JSONL rounds to microseconds, as the trace format does.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use am_pipeline::CachedResult;
use am_trace::{Collector, Event, EventKind, Sink, Tracer};

use crate::stats::{percentile, share, sorted};

/// One timed call into a layer inside a traced sample.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Layer (crate) the call belongs to: `lang`, `ir`, `pipeline`, `core`.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// 1 for a direct child of the sample, 2 for a phase inside `optimize`.
    pub depth: u32,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Collects traced samples: spans for the JSONL trace, and self time per
/// layer for the metrics.
pub struct Recorder {
    tracer: Tracer,
    collector: Arc<Collector>,
    epoch: Instant,
    /// All traced roots, wall ms: the whole the self times are shares of.
    root_total_ms: f64,
    /// Self time per `layer.name`, summed over samples, wall ms.
    self_ms: BTreeMap<String, f64>,
    calls: BTreeMap<String, u64>,
    unattributed_ms: f64,
    /// Per metric stem (see [`stem`]), one time per traced sample that
    /// reached that layer, ms (at reference speed for batch samples, wall
    /// for requests); `trace.root` holds the whole sample, `core.round`
    /// one time per motion round.
    per_sample: BTreeMap<&'static str, Vec<f64>>,
}

/// The metric a call's self time counts toward, if any: both cache calls
/// are `pipeline.cache`, and all motion rounds of a sample are
/// `core.motion`.
fn stem(layer: &str, name: &str) -> Option<&'static str> {
    Some(match (layer, name) {
        ("lang", "parse") => "lang.parse",
        ("ir", "hash") => "ir.hash",
        ("ir", "emit") => "ir.emit",
        ("pipeline", _) => "pipeline.cache",
        ("core", "split") => "core.split",
        ("core", "init") => "core.init",
        ("core", "round") => "core.motion",
        ("core", "flush") => "core.flush",
        _ => return None,
    })
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder with its own in-memory collector.
    pub fn new() -> Recorder {
        let (tracer, collector) = Tracer::collector();
        Recorder {
            tracer,
            collector,
            epoch: Instant::now(),
            root_total_ms: 0.0,
            self_ms: BTreeMap::new(),
            calls: BTreeMap::new(),
            unattributed_ms: 0.0,
            per_sample: BTreeMap::new(),
        }
    }

    fn push(&mut self, stem: &'static str, value: f64) {
        self.per_sample.entry(stem).or_default().push(value);
    }

    /// Median over the traced samples of one metric stem; 0 when no
    /// sample reached that layer.
    fn p50_of(&self, stem: &str) -> f64 {
        self.per_sample
            .get(stem)
            .map_or(0.0, |v| percentile(&sorted(v), 0.5))
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        tid: u64,
        cat: &str,
        name: &str,
        start: Instant,
        end: Instant,
        depth: u32,
        args: Vec<(String, i64)>,
    ) {
        self.collector.emit(Event {
            name: name.to_owned(),
            cat: cat.to_owned(),
            kind: EventKind::Span {
                dur_micros: (end - start).as_micros() as u64,
            },
            ts_micros: start.saturating_duration_since(self.epoch).as_micros() as u64,
            tid,
            depth,
            args,
        });
    }

    fn add_self(&mut self, key: String, value_ms: f64) {
        *self.calls.entry(key.clone()).or_default() += 1;
        *self.self_ms.entry(key).or_default() += value_ms;
    }

    /// Records one traced batch sample: the root interval and the calls
    /// made inside it. The root's time not covered by a depth-1 call is
    /// unattributed. `factor` turns wall time into reference-speed time
    /// ([`crate::reference::Reference::close`]).
    pub fn sample(&mut self, start: Instant, end: Instant, calls: &[Call], factor: f64) {
        let root_ms = ms(end - start);
        self.push("trace.root", root_ms * factor);
        self.root_total_ms += root_ms;
        let mut children_ms = 0.0;
        let mut stems: BTreeMap<&'static str, f64> = BTreeMap::new();
        for c in calls {
            let dur = ms(c.end - c.start);
            if c.depth == 1 {
                children_ms += dur;
            }
            let nested: f64 = calls
                .iter()
                .filter(|d| d.depth == c.depth + 1 && d.start >= c.start && d.end <= c.end)
                .map(|d| ms(d.end - d.start))
                .sum();
            if let Some(s) = stem(c.layer, c.name) {
                *stems.entry(s).or_default() += (dur - nested) * factor;
            }
            if (c.layer, c.name) == ("core", "round") {
                self.push("core.round", dur * factor);
            }
            self.add_self(format!("{}.{}", c.layer, c.name), dur - nested);
            self.emit(1, c.layer, c.name, c.start, c.end, c.depth, Vec::new());
        }
        self.unattributed_ms += root_ms - children_ms;
        for (s, v) in stems {
            self.push(s, v);
        }
        self.emit(1, "bench", "sample", start, end, 0, Vec::new());
    }

    /// Records one traced `serve` request: the client-side root and the
    /// server's own queue and service times from the reply. The rest of
    /// the root is the wire (client and server I/O, framing, decoding and
    /// the server's parse before enqueueing). `fresh` tells a request the
    /// optimizer answered from one the cache answered.
    pub fn request(
        &mut self,
        tid: u64,
        start: Instant,
        end: Instant,
        queue: Duration,
        service: Duration,
        fresh: bool,
    ) {
        let root_ms = ms(end - start);
        self.push("trace.root", root_ms);
        self.root_total_ms += root_ms;
        let wire_ms = root_ms - ms(queue) - ms(service);
        self.add_self("serve.queue".to_owned(), ms(queue));
        self.add_self("serve.service".to_owned(), ms(service));
        self.add_self("serve.wire".to_owned(), wire_ms);
        self.push("serve.queue", ms(queue));
        self.push("serve.wire", wire_ms);
        let service_stem = if fresh {
            "serve.service_fresh"
        } else {
            "serve.service_hit"
        };
        self.push(service_stem, ms(service));
        let args = vec![
            ("queue_us".to_owned(), queue.as_micros() as i64),
            ("service_us".to_owned(), service.as_micros() as i64),
            ("wire_us".to_owned(), (wire_ms * 1e3) as i64),
        ];
        self.emit(tid, "bench", "request", start, end, 0, args);
    }

    fn self_of(&self, key: &str) -> f64 {
        self.self_ms.get(key).copied().unwrap_or(0.0)
    }

    fn roots(&self) -> usize {
        self.per_sample.get("trace.root").map_or(0, Vec::len)
    }

    /// The per-layer table: self time per call site, its share of all
    /// traced root time, and the check that the parts add up to the roots.
    pub fn table(&self) -> String {
        let total = self.root_total_ms;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>12} {:>8}",
            "layer.call", "calls", "self_ms", "share"
        );
        let mut rows: Vec<(&str, u64, f64)> = self
            .self_ms
            .iter()
            .map(|(k, v)| (k.as_str(), self.calls[k], *v))
            .collect();
        rows.push(("unattributed", self.roots() as u64, self.unattributed_ms));
        let mut parts = 0.0;
        for (key, calls, self_ms) in rows {
            parts += self_ms;
            let _ = writeln!(
                out,
                "{key:<22} {calls:>9} {self_ms:>12.3} {:>8.4}",
                share(self_ms, total)
            );
        }
        let _ = writeln!(
            out,
            "traced root {total:.3} ms over {} samples; self times + unattributed = {parts:.3} ms ({:+.4}%)",
            self.roots(),
            100.0 * (share(parts, total) - 1.0)
        );
        out
    }

    /// Emits the workload's exact counts as one counter event (counter
    /// values are integers, so the pushes-per-point ratio stays out).
    pub fn record_counts(&self, counts: &Counts) {
        let args: Vec<(&str, i64)> = counts
            .metrics()
            .iter()
            .filter(|(_, v)| v.fract() == 0.0)
            .map(|(k, v)| (*k, *v as i64))
            .collect();
        self.tracer.counter("bench", "counts", &args);
    }

    /// Every recorded event as JSON lines (the format `amstat` reads).
    pub fn jsonl(&self) -> String {
        am_trace::export::jsonl(&self.collector.events())
    }
}

/// The exact per-program counts of a workload, summed over its distinct
/// programs (each counted once, however often it was compiled).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    rounds: u64,
    eliminated: u64,
    inserted: u64,
    removed: u64,
    flush_removed: u64,
    flush_inserted: u64,
    flush_reconstructed: u64,
    motion_pushes: u64,
    flush_pushes: u64,
    iterations: u64,
    points: u64,
    flush_max_worklist_len: u64,
}

impl Counts {
    /// Adds one program's optimizer statistics.
    pub fn add(&mut self, r: &CachedResult) {
        self.rounds += r.motion.rounds as u64;
        self.eliminated += r.motion.eliminated as u64;
        self.inserted += r.motion.inserted as u64;
        self.removed += r.motion.removed as u64;
        self.flush_removed += r.flush.instances_removed as u64;
        self.flush_inserted += r.flush.inserted as u64;
        self.flush_reconstructed += r.flush.reconstructed as u64;
        self.motion_pushes += r.motion.worklist_pushes;
        self.flush_pushes += r.flush.worklist_pushes;
        self.iterations += r.motion.iterations + r.flush.iterations;
        self.points += r.points as u64;
        self.flush_max_worklist_len = self
            .flush_max_worklist_len
            .max(r.flush.max_worklist_len as u64);
    }

    /// The counts as metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.rounds", self.rounds as f64),
            ("core.eliminated", self.eliminated as f64),
            ("core.inserted", self.inserted as f64),
            ("core.removed", self.removed as f64),
            ("core.flush_removed", self.flush_removed as f64),
            ("core.flush_inserted", self.flush_inserted as f64),
            ("core.flush_reconstructed", self.flush_reconstructed as f64),
            ("dfa.motion_pushes", self.motion_pushes as f64),
            ("dfa.flush_pushes", self.flush_pushes as f64),
            ("dfa.iterations", self.iterations as f64),
            (
                "dfa.pushes_per_point",
                share(
                    (self.motion_pushes + self.flush_pushes) as f64,
                    self.points as f64,
                ),
            ),
            (
                "dfa.flush_max_worklist_len",
                self.flush_max_worklist_len as f64,
            ),
        ]
    }
}

/// What the server itself reported over the timed window of `serve`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Memory-cache hits over answered requests.
    pub hit_ratio: f64,
    /// Requests answered by riding an identical in-flight job.
    pub coalesced: u64,
    /// Requests refused with `busy`.
    pub busy: u64,
    /// Largest dispatch-queue population the server saw.
    pub queue_peak: u64,
    /// Fresh optimizer runs' total time in split, init, motion and flush
    /// over the timed window, ms.
    pub phase_ms: [f64; 4],
    /// Median of each of those phases over the server's fresh runs, ms.
    pub phase_p50_ms: [f64; 4],
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The traced samples.
    pub recorder: &'a Recorder,
    /// Median of the untraced samples of the same run, ms.
    pub untraced_p50_ms: f64,
    /// Exact counts over the workload's distinct programs.
    pub counts: &'a Counts,
    /// The server's own figures, for `serve`.
    pub serve: Option<&'a ServeStats>,
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer a workload
/// does not run reads 0; so does `core.round_ms_p50` on `serve`, whose
/// server reports whole phases only.
pub fn per_layer_metrics(inp: &LayerInputs) -> Vec<(&'static str, f64)> {
    let r = inp.recorder;
    let total = r.root_total_ms;
    let of = |key: &str| share(r.self_of(key), total);
    let p50 = |stem: &str| r.p50_of(stem);
    // split, init, motion, flush: batch samples time them around the
    // optimizer's phase hooks; the server times its own fresh runs.
    let (phase_p50, motion_share, flush_share) = match inp.serve {
        Some(s) => (
            s.phase_p50_ms,
            share(s.phase_ms[2], total),
            share(s.phase_ms[3], total),
        ),
        None => (
            ["core.split", "core.init", "core.motion", "core.flush"].map(p50),
            of("core.round"),
            of("core.flush"),
        ),
    };
    let serve = inp.serve.cloned().unwrap_or_default();
    let root_p50 = p50("trace.root");
    let mut out = vec![
        ("trace.root_ms_p50", root_p50),
        (
            "trace.overhead_ratio",
            share(root_p50, inp.untraced_p50_ms) - 1.0,
        ),
        ("trace.unattributed_share", share(r.unattributed_ms, total)),
        ("lang.parse_ms_p50", p50("lang.parse")),
        ("lang.parse_share", of("lang.parse")),
        ("ir.hash_ms_p50", p50("ir.hash")),
        ("ir.emit_ms_p50", p50("ir.emit")),
        ("pipeline.cache_ms_p50", p50("pipeline.cache")),
        ("core.split_ms_p50", phase_p50[0]),
        ("core.init_ms_p50", phase_p50[1]),
        ("core.motion_ms_p50", phase_p50[2]),
        ("core.round_ms_p50", p50("core.round")),
        ("core.motion_share", motion_share),
        ("core.flush_ms_p50", phase_p50[3]),
        ("core.flush_share", flush_share),
        ("serve.wire_ms_p50", p50("serve.wire")),
        ("serve.queue_ms_p50", p50("serve.queue")),
        ("serve.service_hit_ms_p50", p50("serve.service_hit")),
        ("serve.service_fresh_ms_p50", p50("serve.service_fresh")),
        ("serve.hit_ratio", serve.hit_ratio),
        ("serve.coalesced", serve.coalesced as f64),
        ("serve.busy", serve.busy as f64),
        ("serve.queue_peak", serve.queue_peak as f64),
    ];
    out.extend(inp.counts.metrics());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_add_up_to_the_root() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let call = |layer, name, s, e, depth| Call {
            layer,
            name,
            start: at(s),
            end: at(e),
            depth,
        };
        let calls = [
            call("lang", "parse", 0, 100, 1),
            call("core", "optimize", 110, 400, 1),
            call("core", "split", 110, 120, 2),
            call("core", "round", 120, 200, 2),
            call("core", "round", 200, 300, 2),
            call("core", "flush", 300, 390, 2),
            call("ir", "emit", 400, 450, 1),
        ];
        let mut r = Recorder::new();
        r.sample(at(0), at(500), &calls, 0.5);
        assert!((r.self_of("core.optimize") - 0.010).abs() < 1e-9);
        assert!((r.unattributed_ms - 0.060).abs() < 1e-9);
        let parts: f64 = r.self_ms.values().sum::<f64>() + r.unattributed_ms;
        assert!((parts - 0.5).abs() < 1e-9);
        assert!(r.table().contains("0.0000%)"), "{}", r.table());
        // Per-sample times are at reference speed: wall ms times the factor.
        assert!((r.p50_of("core.motion") - 0.090).abs() < 1e-9);
        assert!((r.p50_of("core.round") - 0.040).abs() < 1e-9);
        assert_eq!(r.per_sample["core.round"].len(), 2);
        assert!((r.p50_of("core.flush") - 0.045).abs() < 1e-9);
        assert_eq!(r.p50_of("pipeline.cache"), 0.0);
        let lines = r.jsonl();
        assert_eq!(lines.lines().count(), calls.len() + 1);
        for line in lines.lines() {
            am_trace::export::parse_jsonl_line(line).expect("amstat can read it");
        }
    }

    #[test]
    fn serve_requests_split_into_wire_queue_and_service() {
        let t0 = Instant::now();
        let mut r = Recorder::new();
        let ms = Duration::from_millis;
        r.request(1, t0, t0 + ms(10), ms(1), ms(2), false);
        r.request(2, t0, t0 + ms(10), ms(1), ms(5), true);
        assert!((r.self_of("serve.wire") - 11.0).abs() < 1e-9);
        let stats = ServeStats {
            phase_ms: [1.0, 1.0, 2.0, 1.0],
            phase_p50_ms: [0.5, 0.5, 1.0, 0.5],
            ..ServeStats::default()
        };
        let m = per_layer_metrics(&LayerInputs {
            recorder: &r,
            untraced_p50_ms: 10.0,
            counts: &Counts::default(),
            serve: Some(&stats),
        });
        let get = |k: &str| m.iter().find(|(n, _)| *n == k).unwrap().1;
        assert!((get("serve.wire_ms_p50") - 4.0).abs() < 1e-9);
        assert!((get("serve.queue_ms_p50") - 1.0).abs() < 1e-9);
        assert!((get("serve.service_hit_ms_p50") - 2.0).abs() < 1e-9);
        assert!((get("serve.service_fresh_ms_p50") - 5.0).abs() < 1e-9);
        assert!((get("core.motion_share") - 0.1).abs() < 1e-9);
        assert_eq!(get("core.motion_ms_p50"), 1.0);
        assert_eq!(get("core.round_ms_p50"), 0.0);
        assert!(get("trace.overhead_ratio").abs() < 1e-9);
    }
}
