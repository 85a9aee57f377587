//! Where events go: the [`Sink`] trait and the in-memory [`Collector`].
//!
//! Sinks are shared as `Arc<dyn Sink>`; every producer in the workspace
//! (optimizer phases, pipeline workers, validation campaigns) writes to the
//! same sink, and worker threads interleave safely — the collector locks
//! only to append.

use std::sync::Mutex;
use std::time::Instant;

use crate::event::Event;

/// A destination for trace events.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn emit(&self, event: Event);
    /// Microseconds elapsed since this sink's epoch (events are stamped
    /// relative to it).
    fn now_micros(&self) -> u64;
}

/// An in-memory, thread-safe event collector with a fixed epoch.
pub struct Collector {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// Creates an empty collector; its epoch is *now*.
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A copy of every event recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for Collector {
    fn emit(&self, event: Event) {
        self.events.lock().unwrap().push(event);
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn instant(name: &str) -> Event {
        Event {
            name: name.into(),
            cat: "meta".into(),
            kind: EventKind::Instant,
            ts_micros: 0,
            tid: 1,
            depth: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn collector_records_in_order_and_drains() {
        let c = Collector::new();
        c.emit(instant("a"));
        c.emit(instant("b"));
        assert_eq!(c.len(), 2);
        let events = c.take();
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].name, "b");
        assert!(c.is_empty());
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let c = std::sync::Arc::new(Collector::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..25 {
                        c.emit(instant(&format!("t{t}-{i}")));
                    }
                });
            }
        });
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn clock_is_monotonic() {
        let c = Collector::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }
}
