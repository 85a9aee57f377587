//! End-to-end request tracing: a bounded in-memory ring of per-request
//! span trees, keyed by client-generated trace ids.
//!
//! `amclient` stamps every optimize request with a trace id; the server
//! links the request's measured stages (queue wait, worker service, and —
//! for fresh runs — the four optimizer phases) into one [`TraceEntry`] and
//! pushes it here. The ring keeps the most recent entries only, so live
//! inspection (`amclient trace-tail`) is O(capacity) memory no matter how
//! long the daemon runs.

use std::collections::VecDeque;
use std::sync::Mutex;

use am_trace::json::{self, Json};

/// Names of the four optimizer phases, in [`TraceEntry::phases`] order.
pub const PHASE_NAMES: [&str; 4] = ["split", "init", "motion", "flush"];

/// One completed request: the linked span tree of its server-side stages.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceEntry {
    /// The client-generated trace id propagated in the wire protocol.
    pub trace_id: String,
    /// The submitted program name.
    pub name: String,
    /// How the request was answered (`fresh`, `memory`, `disk`,
    /// `coalesced`, `busy`, `error`).
    pub source: String,
    /// Microseconds spent queued before a worker picked the job up.
    pub queue_micros: u64,
    /// Microseconds from pickup to answer.
    pub service_micros: u64,
    /// Per-phase optimizer wall time (split/init/motion/flush), for
    /// requests that ran fresh.
    pub phases: Option<[u64; 4]>,
    /// Server-side connection id the request arrived on.
    pub conn: u64,
    /// Server uptime at completion, microseconds.
    pub ts_micros: u64,
}

impl TraceEntry {
    /// The span tree as `(depth, name, micros)` rows, root first.
    pub fn spans(&self) -> Vec<(usize, &'static str, u64)> {
        let mut rows = vec![
            (0, "request", self.queue_micros + self.service_micros),
            (1, "queue", self.queue_micros),
            (1, "service", self.service_micros),
        ];
        if let Some(phases) = &self.phases {
            for (name, &micros) in PHASE_NAMES.iter().zip(phases) {
                rows.push((2, *name, micros));
            }
        }
        rows
    }

    /// The entry as one JSON object.
    pub fn to_json(&self) -> Json {
        let members = [
            Some(("trace", self.trace_id.as_str().into())),
            Some(("name", self.name.as_str().into())),
            Some(("source", self.source.as_str().into())),
            Some(("queue_micros", self.queue_micros.into())),
            Some(("service_micros", self.service_micros.into())),
            Some(("conn", self.conn.into())),
            Some(("ts_micros", self.ts_micros.into())),
            self.phases
                .map(|phases| ("phases", phases.into_iter().map(Json::from).collect())),
        ];
        json::obj(members.into_iter().flatten())
    }

    /// Reads an entry back from [`to_json`](TraceEntry::to_json)'s
    /// object. `conn` and `ts_micros` default to 0, and `phases` is absent
    /// unless it holds exactly four integers.
    pub fn from_json(v: &Json) -> Result<TraceEntry, String> {
        let phases = v.arr_field("phases").ok().and_then(|items| {
            let micros: Vec<u64> = items.iter().filter_map(Json::as_u64).collect();
            <[u64; 4]>::try_from(micros).ok()
        });
        Ok(TraceEntry {
            trace_id: v.str_field("trace")?.to_owned(),
            name: v.str_field("name")?.to_owned(),
            source: v.str_field("source")?.to_owned(),
            queue_micros: v.u64_field("queue_micros")?,
            service_micros: v.u64_field("service_micros")?,
            phases,
            conn: v.u64_field("conn").unwrap_or(0),
            ts_micros: v.u64_field("ts_micros").unwrap_or(0),
        })
    }
}

/// A thread-safe bounded ring of the most recent [`TraceEntry`]s.
pub struct TraceRing {
    capacity: usize,
    entries: Mutex<VecDeque<TraceEntry>>,
    dropped: Mutex<u64>,
}

impl TraceRing {
    /// A ring holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
            dropped: Mutex::new(0),
        }
    }

    /// Appends an entry, evicting the oldest when full.
    pub fn push(&self, entry: TraceEntry) {
        let mut entries = self.entries.lock().expect("trace ring poisoned");
        if entries.len() == self.capacity {
            entries.pop_front();
            *self.dropped.lock().expect("trace ring poisoned") += 1;
        }
        entries.push_back(entry);
    }

    /// The newest `limit` entries, oldest first.
    pub fn tail(&self, limit: usize) -> Vec<TraceEntry> {
        let entries = self.entries.lock().expect("trace ring poisoned");
        let skip = entries.len().saturating_sub(limit);
        entries.iter().skip(skip).cloned().collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("trace ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted so far (how much history `trace-tail` has missed).
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().expect("trace ring poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> TraceEntry {
        TraceEntry {
            trace_id: format!("{id:016x}"),
            name: format!("prog_{id}"),
            source: "fresh".into(),
            queue_micros: 10 * id,
            service_micros: 100 * id,
            phases: Some([1, 2, 3, 4]),
            conn: 1,
            ts_micros: 1000 * id,
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let ring = TraceRing::new(3);
        for id in 0..5 {
            ring.push(entry(id));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let tail = ring.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].name, "prog_3");
        assert_eq!(tail[1].name, "prog_4");
        assert_eq!(ring.tail(100).len(), 3, "limit larger than the ring");
    }

    #[test]
    fn entries_round_trip_through_json() {
        for e in [
            entry(7),
            TraceEntry {
                phases: None,
                source: "memory".into(),
                ..entry(8)
            },
        ] {
            let text = e.to_json().to_string();
            let parsed = TraceEntry::from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed, e);
        }
    }

    #[test]
    fn span_tree_links_queue_service_and_phases() {
        let spans = entry(2).spans();
        assert_eq!(spans[0], (0, "request", 220));
        assert_eq!(spans[1], (1, "queue", 20));
        assert_eq!(spans[2], (1, "service", 200));
        assert_eq!(spans[3], (2, "split", 1));
        assert_eq!(spans.len(), 7);
        let cached = TraceEntry {
            phases: None,
            ..entry(2)
        };
        assert_eq!(cached.spans().len(), 3, "no phase children on cache hits");
    }
}
