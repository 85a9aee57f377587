//! The producer handle: [`Tracer`] and its RAII [`Span`] guard.
//!
//! A `Tracer` is a cheap, cloneable handle that every instrumented layer
//! receives (optimizer config, pipeline config, campaign config). The
//! disabled tracer carries no sink at all: `span()` returns a guard that
//! still measures wall time (callers use the returned [`Duration`] for
//! their own reporting, e.g. `PhaseTimings`) but touches no shared state
//! and emits nothing — the hot-path cost of disabled tracing is one branch
//! and one `Instant::now` per span, taken only at phase granularity.
//!
//! The same handle carries the optimizer's decision log: a tracer made by
//! [`Tracer::recording`] also keeps every [`ProvRecord`] a pass reports,
//! in one log its clones share. Any other tracer drops records on one
//! branch, before a pass formats a record's text.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::{Event, EventKind};
use crate::provenance::ProvRecord;
use crate::sink::{Collector, Sink};

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// A handle for emitting spans and counters into a shared [`Sink`], and
/// provenance records into a shared log.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn Sink>>,
    records: Option<Arc<Mutex<Vec<ProvRecord>>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("recording", &self.is_recording())
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer: nothing is recorded anywhere.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer writing into `sink`.
    pub fn new(sink: Arc<dyn Sink>) -> Tracer {
        Tracer {
            sink: Some(sink),
            records: None,
        }
    }

    /// A tracer emitting into this one's sink (if any) that also keeps
    /// provenance records, in a fresh log its clones share.
    pub fn recording(&self) -> Tracer {
        Tracer {
            sink: self.sink.clone(),
            records: Some(Arc::default()),
        }
    }

    /// Whether records are kept. A pass checks this before formatting a
    /// record's instruction text, so a tracer that is not recording pays
    /// one branch per potential record.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.records.is_some()
    }

    /// Appends one provenance record (a no-op unless recording).
    pub fn record(&self, record: ProvRecord) {
        if let Some(records) = &self.records {
            records
                .lock()
                .expect("provenance log poisoned")
                .push(record);
        }
    }

    /// Takes every record kept so far, leaving the log empty.
    pub fn take_records(&self) -> Vec<ProvRecord> {
        match &self.records {
            Some(records) => std::mem::take(&mut *records.lock().expect("provenance log poisoned")),
            None => Vec::new(),
        }
    }

    /// Convenience: a fresh in-memory [`Collector`] plus a tracer feeding
    /// it.
    pub fn collector() -> (Tracer, Arc<Collector>) {
        let collector = Arc::new(Collector::new());
        (
            Tracer::new(Arc::clone(&collector) as Arc<dyn Sink>),
            collector,
        )
    }

    /// Whether events are being recorded. Callers may use this to skip
    /// computing expensive arguments (e.g. pattern-universe sizes).
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span. The guard emits one [`EventKind::Span`] event when
    /// ended (or dropped); nest guards to build the hierarchy.
    pub fn span(&self, cat: &str, name: impl Into<String>) -> Span {
        let start = Instant::now();
        match &self.sink {
            None => Span {
                sink: None,
                cat: String::new(),
                name: String::new(),
                start,
                start_micros: 0,
                depth: 0,
                args: Vec::new(),
                done: false,
            },
            Some(sink) => {
                let depth = DEPTH.with(|d| {
                    let depth = d.get();
                    d.set(depth + 1);
                    depth
                });
                Span {
                    start_micros: sink.now_micros(),
                    sink: Some(Arc::clone(sink)),
                    cat: cat.to_owned(),
                    name: name.into(),
                    start,
                    depth,
                    args: Vec::new(),
                    done: false,
                }
            }
        }
    }

    /// Emits a counter sample with the given values.
    pub fn counter(&self, cat: &str, name: &str, args: &[(&str, i64)]) {
        self.point(cat, name, EventKind::Counter, args);
    }

    /// Emits an instant marker.
    pub fn instant(&self, cat: &str, name: &str) {
        self.point(cat, name, EventKind::Instant, &[]);
    }

    fn point(&self, cat: &str, name: &str, kind: EventKind, args: &[(&str, i64)]) {
        let Some(sink) = &self.sink else { return };
        sink.emit(Event {
            name: name.to_owned(),
            cat: cat.to_owned(),
            kind,
            ts_micros: sink.now_micros(),
            tid: current_tid(),
            depth: DEPTH.with(|d| d.get()),
            args: args.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        });
    }
}

/// RAII guard for an open span. Ending it (explicitly via [`Span::end`] or
/// implicitly on drop) emits the completed-span event and returns the
/// measured wall-clock duration.
pub struct Span {
    sink: Option<Arc<dyn Sink>>,
    cat: String,
    name: String,
    start: Instant,
    start_micros: u64,
    depth: u32,
    args: Vec<(String, i64)>,
    done: bool,
}

impl Span {
    /// Attaches a structured value, reported when the span ends. No-op on
    /// a disabled tracer's span.
    pub fn arg(&mut self, key: &str, value: i64) -> &mut Self {
        if self.sink.is_some() {
            self.args.push((key.to_owned(), value));
        }
        self
    }

    /// Ends the span now and returns its wall-clock duration.
    pub fn end(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if self.done {
            return elapsed;
        }
        self.done = true;
        if let Some(sink) = self.sink.take() {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            sink.emit(Event {
                name: std::mem::take(&mut self.name),
                cat: std::mem::take(&mut self.cat),
                kind: EventKind::Span {
                    dur_micros: elapsed.as_micros() as u64,
                },
                ts_micros: self.start_micros,
                tid: current_tid(),
                depth: self.depth,
                args: std::mem::take(&mut self.args),
            });
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_emits_nothing_but_still_times() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        let span = tracer.span("phase", "init");
        let dur = span.end();
        assert!(dur < Duration::from_secs(1));
        tracer.counter("meta", "x", &[("a", 1)]);
    }

    #[test]
    fn disabled_fast_path_carries_no_state() {
        // Clones and the Default impl stay disabled.
        let tracer = Tracer::disabled();
        assert!(!tracer.clone().enabled());
        assert!(!Tracer::default().enabled());

        // Disabled spans take the no-sink arm: args are dropped, nothing
        // allocates into the span, and drop order doesn't matter.
        let mut span = tracer.span("phase", "outer");
        span.arg("nodes", 1).arg("instrs", 2);
        let inner = tracer.span("phase", "inner");
        drop(span);
        drop(inner);

        // Crucially, a disabled span never touches the thread-local depth
        // counter — so interleaving disabled spans with an enabled tracer
        // must not skew the enabled tracer's recorded nesting.
        let (enabled, collector) = Tracer::collector();
        let _quiet = tracer.span("phase", "quiet");
        {
            let _loud = enabled.span("phase", "loud");
            let _quiet_inner = tracer.span("phase", "quiet-inner");
            let _loud_inner = enabled.span("phase", "loud-inner");
        }
        let events = collector.take();
        assert_eq!(events.len(), 2, "only the enabled tracer emits");
        assert_eq!(
            (events[0].name.as_str(), events[0].depth),
            ("loud-inner", 1)
        );
        assert_eq!((events[1].name.as_str(), events[1].depth), ("loud", 0));
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let (tracer, collector) = Tracer::collector();
        {
            let mut outer = tracer.span("phase", "optimize");
            outer.arg("nodes", 7);
            {
                let _inner = tracer.span("phase", "init");
            }
            let _ = outer.end();
        }
        let events = collector.take();
        assert_eq!(events.len(), 2);
        // Inner span ends first, so it is emitted first.
        assert_eq!(events[0].name, "init");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "optimize");
        assert_eq!(events[1].depth, 0);
        assert_eq!(events[1].arg("nodes"), Some(7));
        // The inner span lies within the outer one.
        let (i, o) = (&events[0], &events[1]);
        assert!(i.ts_micros >= o.ts_micros);
        assert!(
            i.ts_micros + i.dur_micros().unwrap() <= o.ts_micros + o.dur_micros().unwrap() + 1,
            "{i:?} not inside {o:?}"
        );
    }

    #[test]
    fn depth_recovers_after_drop() {
        let (tracer, collector) = Tracer::collector();
        {
            let _a = tracer.span("phase", "a");
        }
        {
            let _b = tracer.span("phase", "b");
        }
        let events = collector.take();
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[1].depth, 0);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let (tracer, collector) = Tracer::collector();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let t = tracer.clone();
                s.spawn(move || {
                    let _span = t.span("job", "work");
                });
            }
        });
        let events = collector.take();
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "{events:?}");
    }

    #[test]
    fn records_ride_a_recording_tracer_only() {
        let record = |round| ProvRecord {
            kind: crate::ProvKind::Eliminate,
            phase: "motion",
            round,
            node: "1".into(),
            index: Some(0),
            instr: "x := a+b".into(),
            new_instr: None,
            pattern: Some(0),
            instr_id: None,
            justification: "N-REDUNDANT".into(),
        };
        let (parent, collector) = Tracer::collector();
        assert!(!parent.is_recording());
        parent.record(record(1));
        assert!(parent.take_records().is_empty(), "no log, nothing kept");

        let recording = parent.recording();
        assert!(recording.is_recording() && recording.enabled());
        let clone = recording.clone();
        clone.record(record(1));
        recording.record(record(2));
        assert!(parent.take_records().is_empty(), "the parent has no log");
        assert!(parent.recording().take_records().is_empty(), "a fresh log");
        let rounds: Vec<u32> = recording.take_records().iter().map(|r| r.round).collect();
        assert_eq!(rounds, [1, 2], "clones share one log, in order");
        assert!(clone.take_records().is_empty(), "take_records drains it");

        drop(recording.span("phase", "flush"));
        let events = collector.take();
        assert_eq!(events.len(), 1, "spans reach the parent's sink");
        assert_eq!(events[0].name, "flush");
        assert!(
            !Tracer::disabled().recording().enabled(),
            "no sink, no spans"
        );
    }

    #[test]
    fn counters_carry_args() {
        let (tracer, collector) = Tracer::collector();
        tracer.counter("analysis", "rae", &[("iterations", 42), ("pushes", 99)]);
        let events = collector.take();
        assert_eq!(events[0].arg("iterations"), Some(42));
        assert_eq!(events[0].arg("pushes"), Some(99));
        assert_eq!(events[0].kind, crate::event::EventKind::Counter);
    }
}
