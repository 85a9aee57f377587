//! The optimizer metrics model: [`Histogram`], [`DurStats`] and the
//! aggregated [`OptStats`] built from a flat event stream.
//!
//! `OptStats` is what the human-readable exporters and `amstat` share: it
//! folds spans into per-`cat/name` latency statistics (count, total, exact
//! percentiles, a log₂ histogram), folds `analysis` counters into
//! per-analysis fixpoint totals (iterations, worklist pushes, peak worklist
//! length), sums every other counter, and extracts the
//! iterations-vs-program-size scatter the complexity claim (paper Sec. 4.5)
//! is checked against.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Number of log₂ buckets; bucket `i ≥ 1` holds durations in
/// `[2^(i-1), 2^i)` microseconds, bucket 0 holds zero. 2³⁹ µs ≈ 6 days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram over microsecond durations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Sample count per bucket.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a duration.
    pub fn bucket_of(micros: u64) -> usize {
        ((64 - micros.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::bucket_of(micros)] += 1;
        self.count += 1;
    }

    /// The inclusive upper bound of the bucket holding quantile `q`
    /// (0 < q ≤ 1); 0 when empty. A power-of-two estimate, by design.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

/// Latency statistics for one span name: exact percentiles from the raw
/// samples plus the log₂ histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurStats {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, microseconds.
    pub total_micros: u64,
    /// Largest single duration.
    pub max_micros: u64,
    /// The log₂ histogram of the same samples.
    pub histogram: Histogram,
    /// Every sample, sorted ascending (kept for exact percentiles).
    pub sorted_micros: Vec<u64>,
}

impl DurStats {
    /// Records one sample (used by the fold below and by live recorders
    /// such as the `am-serve` metrics, which build `DurStats` directly
    /// instead of going through an event stream).
    pub fn record(&mut self, micros: u64) {
        self.count += 1;
        self.total_micros += micros;
        self.max_micros = self.max_micros.max(micros);
        self.histogram.record(micros);
        let at = self.sorted_micros.partition_point(|&v| v <= micros);
        self.sorted_micros.insert(at, micros);
    }

    /// Exact quantile `q` (0 < q ≤ 1) over the recorded samples. Degenerate
    /// inputs stay total: an empty recorder answers 0 for every `q`, a
    /// single sample answers itself for every `q`, and out-of-range `q`
    /// clamps to the smallest/largest sample rather than indexing out of
    /// bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.sorted_micros.is_empty() {
            return 0;
        }
        let rank = (q * self.sorted_micros.len() as f64).ceil() as usize;
        self.sorted_micros[rank.clamp(1, self.sorted_micros.len()) - 1]
    }
}

/// Fixpoint-solver totals for one analysis (`rae`, `aht`, `delayability`,
/// `usability`), folded over every `analysis` counter event of that name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisTotals {
    /// Counter samples folded in (≈ solver invocations).
    pub solves: u64,
    /// Total point updates until convergence.
    pub iterations: u64,
    /// Total worklist pushes.
    pub worklist_pushes: u64,
    /// Peak worklist length over all solves.
    pub max_worklist_len: u64,
}

/// The cost of one motion round number, folded over every `round` span of
/// that number: its time, the blocks it rewrote (`dirty_blocks`) or moved
/// code in without changing (`identity_blocks`), and the blocks its
/// Table 2 pass streamed (`streamed_blocks`): those holding an elimination,
/// the only ones whose block summary and entry fact let the stream
/// through. Sec. 4.5 predicts that the
/// work of a round follows its dirty blocks, not program size.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundCost {
    /// Latency of the round.
    pub time: DurStats,
    /// Dirty blocks summed over the folded spans.
    pub dirty_blocks: u64,
    /// Identity blocks summed over the folded spans.
    pub identity_blocks: u64,
    /// Streamed blocks summed over the folded spans.
    pub streamed_blocks: u64,
}

impl RoundCost {
    /// Mean dirty and identity blocks per folded span.
    pub fn mean_blocks(&self) -> (f64, f64) {
        let n = self.time.count.max(1) as f64;
        (
            self.dirty_blocks as f64 / n,
            self.identity_blocks as f64 / n,
        )
    }

    /// Mean streamed blocks per folded span.
    pub fn mean_streamed(&self) -> f64 {
        self.streamed_blocks as f64 / self.time.count.max(1) as f64
    }
}

/// One point of the iterations-vs-size scatter: an `optimize` span's
/// program size against the fixpoint work it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterPoint {
    /// Flow-graph nodes of the input program.
    pub nodes: i64,
    /// Instructions of the input program.
    pub instrs: i64,
    /// Total solver iterations across every analysis of the run.
    pub iterations: i64,
    /// Motion rounds until stabilization.
    pub rounds: i64,
}

/// A service-level view over an `am-serve` trace: the answered-by-source
/// breakdown, backpressure/error totals and the session/request span
/// statistics. Derived from the generic [`OptStats`] aggregates by
/// [`OptStats::service`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceSummary {
    /// Client connections (`conn/session` spans).
    pub sessions: u64,
    /// Jobs a worker actually processed (`request/optimize` spans) —
    /// cache hits included, coalesced followers not.
    pub leaders: u64,
    /// Results computed fresh (`serve/source/fresh`).
    pub fresh: u64,
    /// Results served from the in-memory cache (`serve/source/memory`).
    pub memory: u64,
    /// Results served from the persistent cache (`serve/source/disk`).
    pub disk: u64,
    /// Requests answered by coalescing onto an identical in-flight job
    /// (`serve/source/coalesced`).
    pub coalesced: u64,
    /// Requests rejected with `busy` (`serve/busy/count`).
    pub busy: u64,
    /// Requests answered with an error (`serve/error/count`).
    pub errors: u64,
    /// Worker service latency (the `request/optimize` span durations).
    pub service: DurStats,
    /// Connection lifetimes (the `conn/session` span durations).
    pub session: DurStats,
}

impl ServiceSummary {
    /// Successful answers across every source.
    pub fn answered(&self) -> u64 {
        self.fresh + self.memory + self.disk + self.coalesced
    }

    /// Fraction of answers that avoided a fresh optimization, in percent;
    /// 0 when nothing was answered.
    pub fn cached_pct(&self) -> f64 {
        let answered = self.answered();
        if answered == 0 {
            return 0.0;
        }
        (answered - self.fresh) as f64 * 100.0 / answered as f64
    }
}

/// Aggregated optimizer metrics over an event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OptStats {
    /// Per-span statistics keyed `cat/name` (e.g. `phase/motion`).
    pub spans: BTreeMap<String, DurStats>,
    /// Per-analysis fixpoint totals keyed by analysis name.
    pub analyses: BTreeMap<String, AnalysisTotals>,
    /// Every other counter value, summed, keyed `cat/name/key`.
    pub counters: BTreeMap<String, i64>,
    /// Per-round cost of the motion fixed point, keyed by the 1-based
    /// round number of the `round/round N` spans.
    pub rounds: BTreeMap<u32, RoundCost>,
    /// Iterations-vs-size scatter, one point per `optimize` span.
    pub scatter: Vec<ScatterPoint>,
    /// Total events folded in.
    pub events: u64,
}

impl OptStats {
    /// Folds `events` into the aggregate model.
    pub fn from_events(events: &[Event]) -> OptStats {
        let mut stats = OptStats::default();
        stats.fold(events);
        stats
    }

    /// Folds more events into an existing aggregate (amstat merges many
    /// trace files this way).
    pub fn fold(&mut self, events: &[Event]) {
        for ev in events {
            self.events += 1;
            match &ev.kind {
                EventKind::Span { dur_micros } => {
                    self.spans
                        .entry(format!("{}/{}", ev.cat, ev.name))
                        .or_default()
                        .record(*dur_micros);
                    let round = ev.name.strip_prefix("round ").and_then(|r| r.parse().ok());
                    if let Some(round) = round.filter(|_| ev.cat == "round") {
                        let cost = self.rounds.entry(round).or_default();
                        cost.time.record(*dur_micros);
                        cost.dirty_blocks += ev.arg("dirty_blocks").unwrap_or(0).max(0) as u64;
                        cost.identity_blocks +=
                            ev.arg("identity_blocks").unwrap_or(0).max(0) as u64;
                        cost.streamed_blocks +=
                            ev.arg("streamed_blocks").unwrap_or(0).max(0) as u64;
                    }
                    if ev.cat == "phase" && ev.name == "optimize" {
                        self.scatter.push(ScatterPoint {
                            nodes: ev.arg("nodes").unwrap_or(0),
                            instrs: ev.arg("instrs").unwrap_or(0),
                            iterations: ev.arg("iterations").unwrap_or(0),
                            rounds: ev.arg("rounds").unwrap_or(0),
                        });
                    }
                }
                EventKind::Counter if ev.cat == "analysis" => {
                    let totals = self.analyses.entry(ev.name.clone()).or_default();
                    totals.solves += 1;
                    totals.iterations += ev.arg("iterations").unwrap_or(0).max(0) as u64;
                    totals.worklist_pushes += ev.arg("worklist_pushes").unwrap_or(0).max(0) as u64;
                    totals.max_worklist_len = totals
                        .max_worklist_len
                        .max(ev.arg("max_worklist_len").unwrap_or(0).max(0) as u64);
                }
                EventKind::Counter => {
                    for (key, value) in &ev.args {
                        *self
                            .counters
                            .entry(format!("{}/{}/{}", ev.cat, ev.name, key))
                            .or_insert(0) += value;
                    }
                }
                EventKind::Instant => {}
            }
        }
    }

    /// Total fixpoint iterations across every analysis.
    pub fn total_iterations(&self) -> u64 {
        self.analyses.values().map(|a| a.iterations).sum()
    }

    /// The service-level view of an `am-serve` trace, or `None` when the
    /// stream contains no server events (a plain `amopt` trace).
    pub fn service(&self) -> Option<ServiceSummary> {
        let has_server_events = self.spans.contains_key("conn/session")
            || self.counters.keys().any(|k| k.starts_with("serve/"));
        if !has_server_events {
            return None;
        }
        let counter = |key: &str| self.counters.get(key).copied().unwrap_or(0).max(0) as u64;
        let span = |key: &str| self.spans.get(key).cloned().unwrap_or_default();
        let session = span("conn/session");
        let service = span("request/optimize");
        Some(ServiceSummary {
            sessions: session.count,
            leaders: service.count,
            fresh: counter("serve/source/fresh"),
            memory: counter("serve/source/memory"),
            disk: counter("serve/source/disk"),
            coalesced: counter("serve/source/coalesced"),
            busy: counter("serve/busy/count"),
            errors: counter("serve/error/count"),
            service,
            session,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &str, name: &str, dur: u64, args: Vec<(String, i64)>) -> Event {
        Event {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Span { dur_micros: dur },
            ts_micros: 0,
            tid: 1,
            depth: 0,
            args,
        }
    }

    fn counter(cat: &str, name: &str, args: Vec<(String, i64)>) -> Event {
        Event {
            name: name.into(),
            cat: cat.into(),
            kind: EventKind::Counter,
            ts_micros: 0,
            tid: 1,
            depth: 0,
            args,
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        // p50 over {1,2,3,4,100,1000}: 3rd sample = 3 → bucket [2,4).
        assert_eq!(h.quantile(0.5), 3);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn durstats_exact_percentiles() {
        let mut d = DurStats::default();
        for v in [50u64, 10, 30, 20, 40] {
            d.record(v);
        }
        assert_eq!(d.sorted_micros, vec![10, 20, 30, 40, 50]);
        assert_eq!(d.quantile(0.5), 30);
        assert_eq!(d.quantile(0.95), 50);
        assert_eq!(d.quantile(1.0), 50);
        assert_eq!(d.max_micros, 50);
        assert_eq!(d.total_micros, 150);
    }

    #[test]
    fn durstats_quantiles_survive_degenerate_inputs() {
        // Empty: every quantile is 0, including the out-of-range ones.
        let empty = DurStats::default();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0, "empty at q={q}");
        }
        assert_eq!(empty.histogram.quantile(0.5), 0, "empty histogram");

        // One sample: every quantile is that sample.
        let mut single = DurStats::default();
        single.record(42);
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(single.quantile(q), 42, "single sample at q={q}");
        }
        assert_eq!((single.count, single.max_micros), (1, 42));

        // Out-of-range q clamps instead of panicking: below the first
        // sample's rank lands on the minimum, above the last on the max.
        let mut d = DurStats::default();
        for v in [10u64, 20, 30] {
            d.record(v);
        }
        assert_eq!(d.quantile(0.0), 10);
        assert_eq!(d.quantile(-1.0), 10);
        assert_eq!(d.quantile(5.0), 30);

        // A zero-microsecond sample is representable end to end.
        let mut zero = DurStats::default();
        zero.record(0);
        assert_eq!(zero.quantile(0.5), 0);
        assert_eq!(zero.histogram.count, 1);
    }

    #[test]
    fn events_fold_into_the_model() {
        let events = vec![
            span(
                "phase",
                "optimize",
                120,
                vec![
                    ("nodes".into(), 9),
                    ("instrs".into(), 30),
                    ("iterations".into(), 77),
                    ("rounds".into(), 2),
                ],
            ),
            span("phase", "init", 20, vec![]),
            counter(
                "analysis",
                "rae",
                vec![
                    ("iterations".into(), 40),
                    ("worklist_pushes".into(), 55),
                    ("max_worklist_len".into(), 12),
                ],
            ),
            counter(
                "analysis",
                "rae",
                vec![
                    ("iterations".into(), 37),
                    ("worklist_pushes".into(), 44),
                    ("max_worklist_len".into(), 9),
                ],
            ),
            counter("batch", "cache", vec![("hits".into(), 3)]),
            counter("batch", "cache", vec![("hits".into(), 2)]),
        ];
        let stats = OptStats::from_events(&events);
        assert_eq!(stats.events, 6);
        assert_eq!(stats.spans["phase/init"].count, 1);
        let rae = &stats.analyses["rae"];
        assert_eq!(rae.solves, 2);
        assert_eq!(rae.iterations, 77);
        assert_eq!(rae.worklist_pushes, 99);
        assert_eq!(rae.max_worklist_len, 12);
        assert_eq!(stats.counters["batch/cache/hits"], 5);
        assert_eq!(stats.scatter.len(), 1);
        assert_eq!(stats.scatter[0].nodes, 9);
        assert_eq!(stats.scatter[0].iterations, 77);
        assert_eq!(stats.total_iterations(), 77);
        assert_eq!(stats.service(), None, "no server events in an amopt trace");
    }

    #[test]
    fn round_spans_fold_into_per_round_cost() {
        let blocks = |dirty, identity| {
            vec![
                ("dirty_blocks".to_owned(), dirty),
                ("identity_blocks".to_owned(), identity),
            ]
        };
        let events = vec![
            span("round", "round 1", 500, blocks(40, 0)),
            span("round", "round 2", 100, blocks(2, 5)),
            span("round", "round 1", 700, blocks(60, 0)),
            // Not a motion round: a span of another category, and one
            // without a round number.
            span("phase", "round 1", 9, blocks(1, 1)),
            span("round", "round", 9, blocks(1, 1)),
        ];
        let stats = OptStats::from_events(&events);
        assert_eq!(stats.rounds.keys().copied().collect::<Vec<_>>(), [1, 2]);
        let first = &stats.rounds[&1];
        assert_eq!((first.time.count, first.time.quantile(1.0)), (2, 700));
        assert_eq!(first.mean_blocks(), (50.0, 0.0));
        assert_eq!(stats.rounds[&2].mean_blocks(), (2.0, 5.0));
    }

    #[test]
    fn round_spans_fold_streamed_blocks() {
        let streamed = |n| vec![("streamed_blocks".to_owned(), n)];
        let events = vec![
            span("round", "round 1", 500, streamed(30)),
            span("round", "round 1", 700, streamed(50)),
            // A trace written before the arg existed reads 0.
            span("round", "round 2", 100, Vec::new()),
        ];
        let stats = OptStats::from_events(&events);
        assert_eq!(stats.rounds[&1].streamed_blocks, 80);
        assert_eq!(stats.rounds[&1].mean_streamed(), 40.0);
        assert_eq!(stats.rounds[&2].mean_streamed(), 0.0);
    }

    #[test]
    fn server_traces_summarize_by_source() {
        let events = vec![
            span("conn", "session", 900, vec![("requests".into(), 5)]),
            span("conn", "session", 400, vec![("requests".into(), 2)]),
            span("request", "optimize", 120, vec![("queue_micros".into(), 8)]),
            span("request", "optimize", 40, vec![("queue_micros".into(), 3)]),
            span("request", "optimize", 60, vec![("queue_micros".into(), 2)]),
            counter(
                "serve",
                "source",
                vec![("fresh".into(), 1), ("coalesced".into(), 2)],
            ),
            counter(
                "serve",
                "source",
                vec![("memory".into(), 1), ("coalesced".into(), 0)],
            ),
            counter(
                "serve",
                "source",
                vec![("disk".into(), 1), ("coalesced".into(), 0)],
            ),
            counter("serve", "busy", vec![("count".into(), 4)]),
            counter("serve", "error", vec![("count".into(), 1)]),
        ];
        let summary = OptStats::from_events(&events)
            .service()
            .expect("service trace");
        assert_eq!(summary.sessions, 2);
        assert_eq!(summary.leaders, 3);
        assert_eq!(
            (
                summary.fresh,
                summary.memory,
                summary.disk,
                summary.coalesced
            ),
            (1, 1, 1, 2)
        );
        assert_eq!(summary.answered(), 5);
        assert_eq!(summary.busy, 4);
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.cached_pct(), 80.0);
        assert_eq!(summary.service.quantile(0.5), 60);
        assert_eq!(summary.session.max_micros, 900);
    }
}
