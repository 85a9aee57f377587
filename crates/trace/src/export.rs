//! Exporters: human-readable tree summary, JSON lines, and the Chrome
//! `chrome://tracing` / Perfetto event format.
//!
//! All three work from a plain `&[Event]` slice, so any sink that can hand
//! events back (the in-memory [`Collector`](crate::sink::Collector)) can
//! feed any exporter. The JSONL format round-trips: [`parse_jsonl_line`]
//! restores exactly the [`Event`] that [`jsonl_line`] serialized, which is
//! what lets `amstat` aggregate traces across processes and corpus runs.

use std::fmt::Write as _;

use crate::event::{Event, EventKind};
use crate::json::{self, Json};
use crate::stats::OptStats;

/// The event's `args` as an object of integers.
fn args_json(ev: &Event) -> Json {
    Json::Obj(
        ev.args
            .iter()
            .map(|(key, value)| (key.clone(), (*value).into()))
            .collect(),
    )
}

/// Serializes one event as a single JSON line (no trailing newline).
pub fn jsonl_line(ev: &Event) -> String {
    let ph = match ev.kind {
        EventKind::Span { .. } => "span",
        EventKind::Counter => "counter",
        EventKind::Instant => "instant",
    };
    let members = [
        Some(("name", ev.name.as_str().into())),
        Some(("cat", ev.cat.as_str().into())),
        Some(("ph", ph.into())),
        Some(("ts", ev.ts_micros.into())),
        ev.dur_micros().map(|dur| ("dur", dur.into())),
        Some(("tid", ev.tid.into())),
        Some(("depth", ev.depth.into())),
        Some(("args", args_json(ev))),
    ];
    json::obj(members.into_iter().flatten()).to_string()
}

/// Serializes a whole event stream as JSON lines.
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&jsonl_line(ev));
        out.push('\n');
    }
    out
}

/// Parses one JSONL line back into an [`Event`] — the inverse of
/// [`jsonl_line`].
pub fn parse_jsonl_line(line: &str) -> Result<Event, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let kind = match v.str_field("ph")? {
        "span" => EventKind::Span {
            dur_micros: v.u64_field("dur")?,
        },
        "counter" => EventKind::Counter,
        "instant" => EventKind::Instant,
        _ => return Err("\"ph\" must be span|counter|instant".to_owned()),
    };
    let args = v
        .obj_field("args")?
        .iter()
        .map(|(key, value)| {
            value
                .as_i64()
                .map(|n| (key.clone(), n))
                .ok_or_else(|| format!("arg \"{key}\" must be an integer"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Event {
        name: v.str_field("name")?.to_owned(),
        cat: v.str_field("cat")?.to_owned(),
        kind,
        ts_micros: v.u64_field("ts")?,
        tid: v.u64_field("tid")?,
        depth: u32::try_from(v.u64_field("depth")?).map_err(|_| "\"depth\" out of range")?,
        args,
    })
}

/// Serializes the event stream in the Chrome trace-event format (a JSON
/// array of objects, one per line), loadable in `chrome://tracing` and
/// Perfetto.
///
/// Spans become complete events (`"ph":"X"` with `ts`/`dur`), counters
/// become counter events (`"ph":"C"`), instants thread-scoped instant
/// events (`"ph":"i"`). All timestamps are microseconds, as the format
/// requires.
pub fn chrome_trace(events: &[Event]) -> String {
    let trace: Json = events
        .iter()
        .map(|ev| {
            let ph = match ev.kind {
                EventKind::Span { .. } => "X",
                EventKind::Counter => "C",
                EventKind::Instant => "i",
            };
            let members = [
                Some(("name", ev.name.as_str().into())),
                Some(("cat", ev.cat.as_str().into())),
                Some(("ph", ph.into())),
                Some(("ts", ev.ts_micros.into())),
                ev.dur_micros().map(|dur| ("dur", dur.into())),
                (ev.kind == EventKind::Instant).then(|| ("s", "t".into())),
                Some(("pid", 1u64.into())),
                Some(("tid", ev.tid.into())),
                Some(("args", args_json(ev))),
            ];
            json::obj(members.into_iter().flatten())
        })
        .collect();
    let mut out = String::new();
    trace.write_lines(&mut out);
    out.push('\n');
    out
}

fn fmt_micros(micros: u64) -> String {
    if micros >= 10_000_000 {
        format!("{:.2} s", micros as f64 / 1e6)
    } else if micros >= 10_000 {
        format!("{:.2} ms", micros as f64 / 1e3)
    } else {
        format!("{micros} us")
    }
}

/// Renders the span hierarchy as an indented tree (one block per thread,
/// spans in start order) followed by the aggregated analysis totals and
/// counters.
pub fn summary_tree(events: &[Event]) -> String {
    let mut out = String::new();
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut spans: Vec<&Event> = events
            .iter()
            .filter(|e| e.tid == tid && matches!(e.kind, EventKind::Span { .. }))
            .collect();
        if spans.is_empty() {
            continue;
        }
        spans.sort_by_key(|e| (e.ts_micros, e.depth));
        let _ = writeln!(out, "thread {tid}");
        for ev in spans {
            let indent = "  ".repeat(ev.depth as usize + 1);
            let _ = write!(
                out,
                "{indent}{} [{}] {}",
                ev.name,
                ev.cat,
                fmt_micros(ev.dur_micros().unwrap_or(0))
            );
            for (key, value) in &ev.args {
                let _ = write!(out, "  {key}={value}");
            }
            out.push('\n');
        }
    }
    let stats = OptStats::from_events(events);
    if !stats.analyses.is_empty() {
        let _ = writeln!(out, "analyses");
        for (name, totals) in &stats.analyses {
            let _ = writeln!(
                out,
                "  {name}: {} solves, {} iterations, {} pushes, peak worklist {}",
                totals.solves, totals.iterations, totals.worklist_pushes, totals.max_worklist_len
            );
        }
    }
    if !stats.counters.is_empty() {
        let _ = writeln!(out, "counters");
        for (key, value) in &stats.counters {
            let _ = writeln!(out, "  {key} = {value}");
        }
    }
    out
}

/// A one-line digest of a trace, for logs where perf regressions should
/// show up: span count, total fixpoint iterations, and p50/p95 of the
/// dominant span categories.
pub fn summary_line(events: &[Event]) -> String {
    let stats = OptStats::from_events(events);
    let mut line = format!(
        "trace: {} events, {} iterations",
        stats.events,
        stats.total_iterations()
    );
    for key in ["job/job", "phase/optimize", "phase/motion", "campaign/seed"] {
        if let Some(d) = stats.spans.get(key) {
            let _ = write!(
                line,
                "; {key} n={} p50={} p95={}",
                d.count,
                fmt_micros(d.quantile(0.5)),
                fmt_micros(d.quantile(0.95))
            );
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                name: "init".into(),
                cat: "phase".into(),
                kind: EventKind::Span { dur_micros: 42 },
                ts_micros: 10,
                tid: 1,
                depth: 1,
                args: vec![("temps".into(), 3)],
            },
            Event {
                name: "optimize".into(),
                cat: "phase".into(),
                kind: EventKind::Span { dur_micros: 120 },
                ts_micros: 5,
                tid: 1,
                depth: 0,
                args: vec![("nodes".into(), 9), ("iterations".into(), 31)],
            },
            Event {
                name: "rae".into(),
                cat: "analysis".into(),
                kind: EventKind::Counter,
                ts_micros: 30,
                tid: 1,
                depth: 2,
                args: vec![("iterations".into(), 31), ("worklist_pushes".into(), 40)],
            },
            Event {
                name: "start".into(),
                cat: "meta".into(),
                kind: EventKind::Instant,
                ts_micros: 1,
                tid: 2,
                depth: 0,
                args: vec![],
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        for ev in sample_events() {
            let line = jsonl_line(&ev);
            let back = parse_jsonl_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl_line("not json").is_err());
        assert!(parse_jsonl_line("{}").is_err());
        assert!(
            parse_jsonl_line(
                r#"{"name":"x","cat":"c","ph":"span","ts":1,"tid":1,"depth":0,"args":{}}"#
            )
            .is_err(),
            "span without dur"
        );
        assert!(parse_jsonl_line(
            r#"{"name":"x","cat":"c","ph":"blip","ts":1,"tid":1,"depth":0,"args":{}}"#
        )
        .is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_the_right_phases() {
        let text = chrome_trace(&sample_events());
        let parsed = json::parse(&text).unwrap();
        let items = parsed.as_arr().unwrap();
        assert_eq!(items.len(), 4);
        let phases: Vec<&str> = items
            .iter()
            .map(|i| i.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, vec!["X", "X", "C", "i"]);
        for item in items {
            assert!(item.get("name").is_some());
            assert!(item.get("pid").is_some());
            assert!(item.get("tid").is_some());
            assert!(item.get("ts").is_some());
        }
        assert_eq!(items[0].get("dur").unwrap().as_i64(), Some(42));
        assert_eq!(
            items[2]
                .get("args")
                .unwrap()
                .get("iterations")
                .unwrap()
                .as_i64(),
            Some(31)
        );
    }

    #[test]
    fn summary_tree_indents_by_depth_and_totals_analyses() {
        let text = summary_tree(&sample_events());
        assert!(text.contains("thread 1"), "{text}");
        // optimize (depth 0) before init (depth 1) despite emission order.
        let opt = text.find("optimize [phase]").unwrap();
        let init = text.find("init [phase]").unwrap();
        assert!(opt < init, "{text}");
        assert!(text.contains("    init"), "indented: {text}");
        assert!(text.contains("rae: 1 solves, 31 iterations"), "{text}");
    }

    #[test]
    fn summary_line_reports_iterations() {
        let line = summary_line(&sample_events());
        assert!(line.contains("4 events"), "{line}");
        assert!(line.contains("31 iterations"), "{line}");
        assert!(line.contains("phase/optimize"), "{line}");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        assert_eq!(jsonl(&[]), "");
        assert_eq!(chrome_trace(&[]), "[]\n");
        assert_eq!(summary_tree(&[]), "");
    }
}
