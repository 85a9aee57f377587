//! `amstat`: offline analysis of the observability artifacts.
//!
//! Three modes:
//!
//! * `amstat TRACE.jsonl [...]` — aggregate JSONL traces produced by
//!   `amopt --trace` or `amserve --trace` into the [`OptStats`] report
//!   (per-span latency percentiles, per-analysis fixpoint totals, the
//!   iterations-vs-size scatter, and the service summary for server
//!   traces). Files holding an `am-stats/v1` document (written by
//!   `amclient stats --json`) are rendered as a live-stats report instead
//!   and may be mixed freely with trace files.
//! * `amstat regress --baseline FILE --candidate FILE [...]` — the
//!   bench-regression sentinel: compare two bench documents (or
//!   `BENCH_history.jsonl` files) and exit 1 on regression.
//!
//! Exits 0 on success, 1 on failure/regression, 2 on usage errors, so CI
//! can gate on it directly.

use std::process::ExitCode;

use am_obs::regress::{self, Thresholds};
use am_trace::export::parse_jsonl_line;
use am_trace::json::{self, Json};
use am_trace::stats::OptStats;

fn usage() -> ! {
    eprintln!("usage: amstat TRACE.jsonl [TRACE.jsonl ...]");
    eprintln!("       amstat STATS.json            (from `amclient stats --json`)");
    eprintln!("       amstat regress --baseline FILE --candidate FILE [options]");
    eprintln!();
    eprintln!("Trace mode aggregates JSONL traces written by `amopt --trace FILE");
    eprintln!("--trace-format jsonl` or `amserve --trace FILE`: per-span latency");
    eprintln!("percentiles, per-analysis fixpoint totals, the iterations-vs-nodes");
    eprintln!("scatter, and — for server traces — the answered-by-source service");
    eprintln!("summary. Multiple files merge into one report. Files containing an");
    eprintln!("am-stats/v1 document are rendered as a live-stats report instead.");
    eprintln!();
    eprintln!("regress options:");
    eprintln!("  --baseline FILE    checked-in bench doc or BENCH_history.jsonl");
    eprintln!("  --candidate FILE   fresh bench doc or BENCH_history.jsonl (newest entry)");
    eprintln!("  --kind KIND        pick `dataflow` or `service` entries from history");
    eprintln!("  --counts-only      compare deterministic counters only (CI mode)");
    eprintln!("  --time-ratio X     relative slack for time metrics (default 1.5)");
    eprintln!("  --time-floor N     absolute time slack, metric units (default 500)");
    eprintln!("  --count-ratio X    relative slack for counters (default 1.02)");
    eprintln!();
    eprintln!("Exits 1 on malformed/empty input or on a detected regression.");
    std::process::exit(2);
}

fn fmt_micros(micros: u64) -> String {
    if micros >= 10_000_000 {
        format!("{:.2}s", micros as f64 / 1e6)
    } else if micros >= 10_000 {
        format!("{:.2}ms", micros as f64 / 1e3)
    } else {
        format!("{micros}us")
    }
}

/// One input file: either a JSONL trace or an `am-stats/v1` document.
#[cfg_attr(test, derive(Debug))]
enum Input {
    Trace(Vec<am_trace::Event>),
    Stats(Json),
}

fn load_input(path: &str) -> Result<Input, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(doc) = json::parse(text.trim()) {
        if doc.get("schema").and_then(Json::as_str) == Some("am-stats/v1") {
            return Ok(Input::Stats(doc));
        }
    }
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_jsonl_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?);
    }
    if events.is_empty() {
        return Err(format!("{path}: no events"));
    }
    Ok(Input::Trace(events))
}

fn print_report(stats: &OptStats) {
    println!("events: {}", stats.events);
    println!();
    println!(
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "span", "count", "total", "p50", "p95", "p99", "max"
    );
    for (key, d) in &stats.spans {
        println!(
            "{key:<24} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            d.count,
            fmt_micros(d.total_micros),
            fmt_micros(d.quantile(0.5)),
            fmt_micros(d.quantile(0.95)),
            fmt_micros(d.quantile(0.99)),
            fmt_micros(d.max_micros),
        );
    }
    if !stats.analyses.is_empty() {
        println!();
        println!(
            "{:<14} {:>7} {:>12} {:>12} {:>14}",
            "analysis", "solves", "iterations", "pushes", "peak worklist"
        );
        for (name, a) in &stats.analyses {
            println!(
                "{name:<14} {:>7} {:>12} {:>12} {:>14}",
                a.solves, a.iterations, a.worklist_pushes, a.max_worklist_len
            );
        }
        println!("total fixpoint iterations: {}", stats.total_iterations());
    }
    if !stats.rounds.is_empty() {
        println!();
        println!(
            "{:<8} {:>7} {:>10} {:>10} {:>12} {:>15} {:>15}",
            "round", "count", "p50", "p95", "dirty blocks", "identity blocks", "streamed blocks"
        );
        for (round, cost) in &stats.rounds {
            let (dirty, identity) = cost.mean_blocks();
            println!(
                "{round:<8} {:>7} {:>10} {:>10} {dirty:>12.1} {identity:>15.1} {:>15.1}",
                cost.time.count,
                fmt_micros(cost.time.quantile(0.5)),
                fmt_micros(cost.time.quantile(0.95)),
                cost.mean_streamed(),
            );
        }
    }
    if !stats.counters.is_empty() {
        println!();
        println!("counters");
        for (key, value) in &stats.counters {
            println!("  {key} = {value}");
        }
    }
    if let Some(service) = stats.service() {
        println!();
        println!("service (amserve trace)");
        println!(
            "  sessions: {}   worker jobs: {}   answered: {} ({:.1}% cached)",
            service.sessions,
            service.leaders,
            service.answered(),
            service.cached_pct(),
        );
        println!(
            "  by source: fresh {}, memory {}, disk {}, coalesced {}   busy: {}   errors: {}",
            service.fresh,
            service.memory,
            service.disk,
            service.coalesced,
            service.busy,
            service.errors,
        );
        if service.service.count > 0 {
            println!(
                "  service latency: p50 {} p95 {} p99 {} max {}",
                fmt_micros(service.service.quantile(0.5)),
                fmt_micros(service.service.quantile(0.95)),
                fmt_micros(service.service.quantile(0.99)),
                fmt_micros(service.service.max_micros),
            );
        }
    }
    if !stats.scatter.is_empty() {
        println!();
        println!(
            "{:>8} {:>8} {:>12} {:>8}   iterations vs size",
            "nodes", "instrs", "iterations", "rounds"
        );
        for p in &stats.scatter {
            println!(
                "{:>8} {:>8} {:>12} {:>8}",
                p.nodes, p.instrs, p.iterations, p.rounds
            );
        }
    }
}

fn u(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Renders an `am-stats/v1` document (the `amclient stats --json` output).
fn print_stats_doc(path: &str, doc: &Json) {
    println!("live stats ({path})");
    println!(
        "  uptime: {}   workers: {}   connections: {} open / {} total",
        fmt_micros(u(doc, "uptime_micros")),
        u(doc, "workers"),
        u(doc, "connections_open"),
        u(doc, "connections_total"),
    );
    if let Some(r) = doc.get("requests") {
        println!(
            "  requests: optimize {}, stats {}, ping {}",
            u(r, "optimize"),
            u(r, "stats"),
            u(r, "ping")
        );
    }
    if let Some(s) = doc.get("sources") {
        println!(
            "  by source: fresh {}, memory {}, disk {}, coalesced {}   busy: {}   errors: {}",
            u(s, "fresh"),
            u(s, "memory"),
            u(s, "disk"),
            u(s, "coalesced"),
            u(doc, "busy"),
            u(doc, "errors"),
        );
    }
    println!(
        "  queue: {} now, {} peak",
        u(doc, "queued_now"),
        u(doc, "queue_peak")
    );
    if let Some(m) = doc.get("memory_cache") {
        println!(
            "  memory cache: {} hits, {} misses, {} evictions, {} entries",
            u(m, "hits"),
            u(m, "misses"),
            u(m, "evictions"),
            u(m, "entries")
        );
    }
    match doc.get("disk_cache") {
        None | Some(Json::Null) => {}
        Some(d) => println!(
            "  disk cache: {} hits, {} misses, {} stores, {} entries, {} bytes",
            u(d, "hits"),
            u(d, "misses"),
            u(d, "stores"),
            u(d, "entries"),
            u(d, "bytes")
        ),
    }
    if let Some(lat) = doc.get("latency") {
        println!();
        println!(
            "  {:<10} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "latency", "count", "p50", "p95", "p99", "max"
        );
        for key in ["request", "queue", "split", "init", "motion", "flush"] {
            if let Some(q) = lat.get(key) {
                println!(
                    "  {key:<10} {:>7} {:>10} {:>10} {:>10} {:>10}",
                    u(q, "count"),
                    fmt_micros(u(q, "p50")),
                    fmt_micros(u(q, "p95")),
                    fmt_micros(u(q, "p99")),
                    fmt_micros(u(q, "max")),
                );
            }
        }
    }
}

fn run(paths: &[String]) -> Result<(), String> {
    let mut stats = OptStats::default();
    let mut traces = 0usize;
    let mut first = true;
    for path in paths {
        match load_input(path)? {
            Input::Trace(events) => {
                stats.fold(&events);
                traces += 1;
            }
            Input::Stats(doc) => {
                if !first {
                    println!();
                }
                first = false;
                print_stats_doc(path, &doc);
            }
        }
    }
    if traces > 0 {
        if !first {
            println!();
        }
        print_report(&stats);
    }
    Ok(())
}

fn parse_f64(name: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("{name} needs a positive number, got \"{value}\""))
}

fn run_regress(args: &[String]) -> Result<bool, String> {
    let mut baseline = None;
    let mut candidate = None;
    let mut kind: Option<String> = None;
    let mut t = Thresholds::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--candidate" => candidate = Some(value("--candidate")?),
            "--kind" => kind = Some(value("--kind")?),
            "--counts-only" => t.counts_only = true,
            "--time-ratio" => t.time_ratio = parse_f64("--time-ratio", &value("--time-ratio")?)?,
            "--time-floor" => t.time_floor = parse_f64("--time-floor", &value("--time-floor")?)?,
            "--count-ratio" => {
                t.count_ratio = parse_f64("--count-ratio", &value("--count-ratio")?)?
            }
            other => return Err(format!("unknown regress option \"{other}\"")),
        }
    }
    let baseline = baseline.ok_or("regress needs --baseline FILE")?;
    let candidate = candidate.ok_or("regress needs --candidate FILE")?;
    if let Some(k) = &kind {
        if k != "dataflow" && k != "service" {
            return Err(format!(
                "--kind must be \"dataflow\" or \"service\", got \"{k}\""
            ));
        }
    }
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        regress::load_doc(&text, kind.as_deref()).map_err(|e| format!("{path}: {e}"))
    };
    let report = regress::compare(&load(&baseline)?, &load(&candidate)?, &t)?;
    print!("{}", report.render());
    Ok(report.ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") {
        usage();
    }
    let outcome = if args[0] == "regress" {
        run_regress(&args[1..]).map(|ok| {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        })
    } else {
        run(&args).map(|()| ExitCode::SUCCESS)
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("amstat: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_trace::event::{Event, EventKind};
    use am_trace::export::jsonl;

    fn span(name: &str, dur: u64) -> Event {
        Event {
            name: name.to_owned(),
            cat: "phase".to_owned(),
            kind: EventKind::Span { dur_micros: dur },
            ts_micros: 0,
            tid: 1,
            depth: 1,
            args: Vec::new(),
        }
    }

    fn temp_file(tag: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("amstat_test_{tag}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn multiple_trace_files_merge_into_one_aggregate() {
        let a = temp_file("a.jsonl", &jsonl(&[span("motion", 100)]));
        let b = temp_file("b.jsonl", &jsonl(&[span("motion", 300), span("flush", 7)]));
        let mut stats = OptStats::default();
        for path in [&a, &b] {
            match load_input(path.to_str().unwrap()).unwrap() {
                Input::Trace(events) => stats.fold(&events),
                Input::Stats(_) => panic!("trace file parsed as stats doc"),
            }
        }
        assert_eq!(stats.events, 3, "events from both files are counted");
        let motion = &stats.spans["phase/motion"];
        assert_eq!(motion.count, 2, "same span key merges across files");
        assert_eq!(motion.total_micros, 400);
        assert_eq!(motion.max_micros, 300);
        assert_eq!(stats.spans["phase/flush"].count, 1);
        let _ = (std::fs::remove_file(a), std::fs::remove_file(b));
    }

    #[test]
    fn stats_documents_are_detected_not_parsed_as_traces() {
        let doc = r#"{"schema":"am-stats/v1","uptime_micros":5000000,"workers":4}"#;
        let path = temp_file("stats.json", doc);
        match load_input(path.to_str().unwrap()).unwrap() {
            Input::Stats(doc) => {
                assert_eq!(doc.get("workers").and_then(Json::as_u64), Some(4));
            }
            Input::Trace(_) => panic!("stats doc parsed as trace"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_and_malformed_inputs_error() {
        let empty = temp_file("empty.jsonl", "\n\n");
        assert!(load_input(empty.to_str().unwrap())
            .unwrap_err()
            .contains("no events"));
        let bad = temp_file("bad.jsonl", "{\"name\": 42}\n");
        let err = load_input(bad.to_str().unwrap()).unwrap_err();
        assert!(err.contains(":1:"), "line number in {err}");
        let _ = (std::fs::remove_file(empty), std::fs::remove_file(bad));
    }
}
