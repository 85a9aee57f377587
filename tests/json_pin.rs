//! The JSON codec, pinned byte for byte.
//!
//! Every compact JSON format the workspace writes — wire frames, the
//! `am-stats/v1` document, disk-cache entries and their index, trace
//! JSONL, provenance and lint JSONL, and bench history lines — is
//! compared here with the exact bytes (or, for corpus-sized streams, the
//! FNV-1a hash and length) the encoders produced when the pin was
//! written. Strings carry quotes, backslashes, control characters and
//! non-ASCII text, so escaping is pinned too. A cache entry written by
//! that encoder must still decode: caches on disk outlive the binary that
//! wrote them.
//!
//! When a change is *meant* to move a format, print the new values with
//! `cargo test --test json_pin -- --nocapture` and update the pins (and
//! bump the format's schema tag when old readers would misread it).

use std::time::Duration;

use am_core::explain::capture;
use am_core::flush::FlushStats;
use am_core::global::{optimize_with, GlobalConfig, PhaseTimings};
use am_core::init::InitStats;
use am_core::motion::MotionStats;
use am_ir::random::corpus80;
use am_lang::SourceKind;
use am_lint::{lint_graph, LintConfig, LintSummary};
use am_obs::regress::history_line;
use am_obs::TraceEntry;
use am_pipeline::bench_json::{self, BenchRecord};
use am_pipeline::{CachedResult, SecondaryCache};
use am_serve::diskcache::{decode_entry, encode_entry, DiskCache, DiskCacheConfig};
use am_serve::proto::{
    encode_busy, encode_error, encode_ok, encode_request, encode_result, encode_stats,
    encode_stats_doc, encode_trace, DiskCacheSnapshot, Envelope, MemoryCacheSnapshot,
    OptimizeRequest, QuantileSummary, Request, ResultPayload, StatsSnapshot,
};
use am_trace::{Event, EventKind, Tracer};

/// Quotes, backslashes, every escaped control character, DEL, and text
/// outside ASCII and outside the Basic Multilingual Plane.
const NASTY: &str = "q\"uote \\ back\u{1}\u{8}\u{c}\u{1f}\t\n\r\u{7f} é μ 😀";

fn check(name: &str, got: &str, want: &str) {
    println!("{name}: {got:?}");
    assert_eq!(got, want, "{name}: encoded bytes moved");
}

/// FNV-1a hash and byte length of a stream.
fn fnv(text: &str) -> (u64, usize) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, text.len())
}

fn check_stream(name: &str, text: &str, want: (u64, usize)) {
    let got = fnv(text);
    println!("{name}: ({:#018x}, {})", got.0, got.1);
    assert_eq!(got, want, "{name}: encoded stream moved (hash, bytes)");
}

#[test]
fn requests_are_pinned() {
    let optimize = |id, name: &str, kind, trace: Option<&str>| Envelope {
        id,
        request: Request::Optimize(OptimizeRequest {
            name: name.to_owned(),
            kind,
            text: format!("x := 1;\nprint(x); // {name}"),
            trace: trace.map(str::to_owned),
        }),
    };
    let cases = [
        (
            "ping",
            Envelope {
                id: 1,
                request: Request::Ping,
            },
            "{\"am\":1,\"id\":1,\"op\":\"ping\"}",
        ),
        (
            "stats",
            Envelope {
                id: 2,
                request: Request::Stats,
            },
            "{\"am\":1,\"id\":2,\"op\":\"stats\"}",
        ),
        (
            "shutdown",
            Envelope {
                id: 3,
                request: Request::Shutdown,
            },
            "{\"am\":1,\"id\":3,\"op\":\"shutdown\"}",
        ),
        (
            "trace-tail",
            Envelope {
                id: 4,
                request: Request::TraceTail { limit: 25 },
            },
            "{\"am\":1,\"id\":4,\"op\":\"trace-tail\",\"limit\":25}",
        ),
        (
            "optimize+trace",
            optimize(5, NASTY, SourceKind::While, Some("00c0ffee00c0ffee")),
            "{\"am\":1,\"id\":5,\"op\":\"optimize\",\"name\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"kind\":\"while\",\"text\":\"x := 1;\\nprint(x); // q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"trace\":\"00c0ffee00c0ffee\"}",
        ),
        (
            "optimize",
            optimize(8_999_999_999_999_999, "raw.ir", SourceKind::Ir, None),
            "{\"am\":1,\"id\":8999999999999999,\"op\":\"optimize\",\"name\":\"raw.ir\",\"kind\":\"ir\",\"text\":\"x := 1;\\nprint(x); // raw.ir\"}",
        ),
    ];
    for (name, envelope, want) in cases {
        check(name, &encode_request(&envelope), want);
    }
}

fn trace_entries() -> Vec<TraceEntry> {
    vec![
        TraceEntry {
            trace_id: "a1".into(),
            name: NASTY.into(),
            source: "fresh".into(),
            queue_micros: 3,
            service_micros: 90,
            phases: Some([1, 2, 60, 9]),
            conn: 4,
            ts_micros: 1000,
        },
        TraceEntry {
            trace_id: "a2".into(),
            name: "p2.wl".into(),
            source: "memory".into(),
            queue_micros: 1,
            service_micros: 5,
            phases: None,
            conn: 4,
            ts_micros: 2000,
        },
    ]
}

fn stats_snapshot(disk: bool) -> StatsSnapshot {
    let q = |base: u64| QuantileSummary {
        count: base,
        total_micros: base * 30,
        p50: base + 1,
        p95: base + 2,
        p99: base + 3,
        max: base + 4,
    };
    StatsSnapshot {
        uptime_micros: 5_000_000,
        workers: 8,
        connections_open: 2,
        connections_total: 19,
        requests_optimize: 400,
        requests_stats: 3,
        requests_ping: 2,
        fresh: 100,
        memory_hits: 250,
        disk_hits: 30,
        coalesced: 20,
        busy: 7,
        errors: 1,
        queued_now: 4,
        queue_peak: 63,
        memory_cache: MemoryCacheSnapshot {
            hits: 280,
            misses: 120,
            evictions: 9,
            entries: 111,
        },
        disk_cache: disk.then_some(DiskCacheSnapshot {
            hits: 30,
            misses: 90,
            stores: 100,
            evictions: 2,
            load_errors: 1,
            entries: 98,
            bytes: 123_456,
            budget_bytes: 268_435_456,
        }),
        latency_request: q(400),
        latency_queue: q(10),
        phases: [q(100), q(200), q(300), q(0)],
    }
}

#[test]
fn replies_are_pinned() {
    check("ok", &encode_ok(7), "{\"id\":7,\"type\":\"ok\"}");
    check(
        "busy",
        &encode_busy(8, 64, 64),
        "{\"id\":8,\"type\":\"busy\",\"queued\":64,\"limit\":64}",
    );
    check("error", &encode_error(9, NASTY), "{\"id\":9,\"type\":\"error\",\"message\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\"}");
    let payload = ResultPayload {
        name: NASTY.to_owned(),
        hash: format!("{:016x}", 0xdead_beef_u64),
        source: "coalesced".to_owned(),
        canonical: "start 1\nend 1\nnode 1 {\n  out(x)\n}\n".to_owned(),
        nodes: 12,
        instrs: 40,
        points: 64,
        edges_split: 3,
        rounds: 2,
        converged: true,
        eliminated: 5,
        inserted: 4,
        removed: 6,
        iterations: 321,
        lint_errors: 0,
        lint_warnings: 1,
        queue_micros: 17,
        service_micros: 905,
    };
    check("result", &encode_result(11, &payload), "{\"id\":11,\"type\":\"result\",\"name\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"hash\":\"00000000deadbeef\",\"source\":\"coalesced\",\"canonical\":\"start 1\\nend 1\\nnode 1 {\\n  out(x)\\n}\\n\",\"nodes\":12,\"instrs\":40,\"points\":64,\"edges_split\":3,\"rounds\":2,\"converged\":true,\"eliminated\":5,\"inserted\":4,\"removed\":6,\"iterations\":321,\"lint_errors\":0,\"lint_warnings\":1,\"queue_micros\":17,\"service_micros\":905}");
    check(
        "result/unconverged",
        &encode_result(
            12,
            &ResultPayload {
                converged: false,
                ..payload
            },
        ),
        "{\"id\":12,\"type\":\"result\",\"name\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"hash\":\"00000000deadbeef\",\"source\":\"coalesced\",\"canonical\":\"start 1\\nend 1\\nnode 1 {\\n  out(x)\\n}\\n\",\"nodes\":12,\"instrs\":40,\"points\":64,\"edges_split\":3,\"rounds\":2,\"converged\":false,\"eliminated\":5,\"inserted\":4,\"removed\":6,\"iterations\":321,\"lint_errors\":0,\"lint_warnings\":1,\"queue_micros\":17,\"service_micros\":905}",
    );
    check("trace", &encode_trace(31, &trace_entries(), 7), "{\"id\":31,\"type\":\"trace\",\"dropped\":7,\"entries\":[{\"trace\":\"a1\",\"name\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"source\":\"fresh\",\"queue_micros\":3,\"service_micros\":90,\"conn\":4,\"ts_micros\":1000,\"phases\":[1,2,60,9]},{\"trace\":\"a2\",\"name\":\"p2.wl\",\"source\":\"memory\",\"queue_micros\":1,\"service_micros\":5,\"conn\":4,\"ts_micros\":2000}]}");
    check(
        "trace/empty",
        &encode_trace(32, &[], 0),
        "{\"id\":32,\"type\":\"trace\",\"dropped\":0,\"entries\":[]}",
    );
    check("stats+disk", &encode_stats(21, &stats_snapshot(true)), "{\"id\":21,\"type\":\"stats\",\"uptime_micros\":5000000,\"workers\":8,\"connections_open\":2,\"connections_total\":19,\"requests\":{\"optimize\":400,\"stats\":3,\"ping\":2},\"sources\":{\"fresh\":100,\"memory\":250,\"disk\":30,\"coalesced\":20},\"busy\":7,\"errors\":1,\"queued_now\":4,\"queue_peak\":63,\"memory_cache\":{\"hits\":280,\"misses\":120,\"evictions\":9,\"entries\":111},\"disk_cache\":{\"hits\":30,\"misses\":90,\"stores\":100,\"evictions\":2,\"load_errors\":1,\"entries\":98,\"bytes\":123456,\"budget_bytes\":268435456},\"latency\":{\"request\":{\"count\":400,\"total_micros\":12000,\"p50\":401,\"p95\":402,\"p99\":403,\"max\":404},\"queue\":{\"count\":10,\"total_micros\":300,\"p50\":11,\"p95\":12,\"p99\":13,\"max\":14},\"split\":{\"count\":100,\"total_micros\":3000,\"p50\":101,\"p95\":102,\"p99\":103,\"max\":104},\"init\":{\"count\":200,\"total_micros\":6000,\"p50\":201,\"p95\":202,\"p99\":203,\"max\":204},\"motion\":{\"count\":300,\"total_micros\":9000,\"p50\":301,\"p95\":302,\"p99\":303,\"max\":304},\"flush\":{\"count\":0,\"total_micros\":0,\"p50\":1,\"p95\":2,\"p99\":3,\"max\":4}}}");
    check("stats", &encode_stats(22, &stats_snapshot(false)), "{\"id\":22,\"type\":\"stats\",\"uptime_micros\":5000000,\"workers\":8,\"connections_open\":2,\"connections_total\":19,\"requests\":{\"optimize\":400,\"stats\":3,\"ping\":2},\"sources\":{\"fresh\":100,\"memory\":250,\"disk\":30,\"coalesced\":20},\"busy\":7,\"errors\":1,\"queued_now\":4,\"queue_peak\":63,\"memory_cache\":{\"hits\":280,\"misses\":120,\"evictions\":9,\"entries\":111},\"disk_cache\":null,\"latency\":{\"request\":{\"count\":400,\"total_micros\":12000,\"p50\":401,\"p95\":402,\"p99\":403,\"max\":404},\"queue\":{\"count\":10,\"total_micros\":300,\"p50\":11,\"p95\":12,\"p99\":13,\"max\":14},\"split\":{\"count\":100,\"total_micros\":3000,\"p50\":101,\"p95\":102,\"p99\":103,\"max\":104},\"init\":{\"count\":200,\"total_micros\":6000,\"p50\":201,\"p95\":202,\"p99\":203,\"max\":204},\"motion\":{\"count\":300,\"total_micros\":9000,\"p50\":301,\"p95\":302,\"p99\":303,\"max\":304},\"flush\":{\"count\":0,\"total_micros\":0,\"p50\":1,\"p95\":2,\"p99\":3,\"max\":4}}}");
}

#[test]
fn stats_documents_are_pinned() {
    check("doc+disk", &encode_stats_doc(&stats_snapshot(true)), "{\"schema\":\"am-stats/v1\",\"uptime_micros\":5000000,\"workers\":8,\"connections_open\":2,\"connections_total\":19,\"requests\":{\"optimize\":400,\"stats\":3,\"ping\":2},\"sources\":{\"fresh\":100,\"memory\":250,\"disk\":30,\"coalesced\":20},\"busy\":7,\"errors\":1,\"queued_now\":4,\"queue_peak\":63,\"memory_cache\":{\"hits\":280,\"misses\":120,\"evictions\":9,\"entries\":111},\"disk_cache\":{\"hits\":30,\"misses\":90,\"stores\":100,\"evictions\":2,\"load_errors\":1,\"entries\":98,\"bytes\":123456,\"budget_bytes\":268435456},\"latency\":{\"request\":{\"count\":400,\"total_micros\":12000,\"p50\":401,\"p95\":402,\"p99\":403,\"max\":404},\"queue\":{\"count\":10,\"total_micros\":300,\"p50\":11,\"p95\":12,\"p99\":13,\"max\":14},\"split\":{\"count\":100,\"total_micros\":3000,\"p50\":101,\"p95\":102,\"p99\":103,\"max\":104},\"init\":{\"count\":200,\"total_micros\":6000,\"p50\":201,\"p95\":202,\"p99\":203,\"max\":204},\"motion\":{\"count\":300,\"total_micros\":9000,\"p50\":301,\"p95\":302,\"p99\":303,\"max\":304},\"flush\":{\"count\":0,\"total_micros\":0,\"p50\":1,\"p95\":2,\"p99\":3,\"max\":4}}}");
    check("doc", &encode_stats_doc(&stats_snapshot(false)), "{\"schema\":\"am-stats/v1\",\"uptime_micros\":5000000,\"workers\":8,\"connections_open\":2,\"connections_total\":19,\"requests\":{\"optimize\":400,\"stats\":3,\"ping\":2},\"sources\":{\"fresh\":100,\"memory\":250,\"disk\":30,\"coalesced\":20},\"busy\":7,\"errors\":1,\"queued_now\":4,\"queue_peak\":63,\"memory_cache\":{\"hits\":280,\"misses\":120,\"evictions\":9,\"entries\":111},\"disk_cache\":null,\"latency\":{\"request\":{\"count\":400,\"total_micros\":12000,\"p50\":401,\"p95\":402,\"p99\":403,\"max\":404},\"queue\":{\"count\":10,\"total_micros\":300,\"p50\":11,\"p95\":12,\"p99\":13,\"max\":14},\"split\":{\"count\":100,\"total_micros\":3000,\"p50\":101,\"p95\":102,\"p99\":103,\"max\":104},\"init\":{\"count\":200,\"total_micros\":6000,\"p50\":201,\"p95\":202,\"p99\":203,\"max\":204},\"motion\":{\"count\":300,\"total_micros\":9000,\"p50\":301,\"p95\":302,\"p99\":303,\"max\":304},\"flush\":{\"count\":0,\"total_micros\":0,\"p50\":1,\"p95\":2,\"p99\":3,\"max\":4}}}");
}

fn cached_result(lint: bool) -> CachedResult {
    CachedResult {
        canonical: "start 1\nend 1\nnode 1 {\n  x := a+b\n  out(x)\n}\n".to_owned(),
        nodes: 3,
        instrs: 9,
        points: 15,
        init: InitStats {
            assignments_decomposed: 4,
            condition_sides_extracted: 1,
        },
        motion: MotionStats {
            rounds: 2,
            eliminated: 3,
            inserted: 2,
            removed: 5,
            iterations: 88,
            worklist_pushes: 120,
            converged: true,
        },
        flush: FlushStats {
            instances_removed: 1,
            inserted: 1,
            reconstructed: 0,
            iterations: 30,
            worklist_pushes: 41,
            max_worklist_len: 7,
        },
        edges_split: 2,
        timings: PhaseTimings {
            split: Duration::from_micros(11),
            init: Duration::from_micros(22),
            motion: Duration::from_micros(3300),
            flush: Duration::from_micros(440),
        },
        lint: lint.then(|| LintSummary {
            errors: 0,
            warnings: 2,
            infos: 1,
            lines: vec![NASTY.to_owned(), "info: plain".to_owned()],
        }),
    }
}

/// An entry file as the encoder wrote it when the pin was taken.
const PINNED_ENTRY: &str = "{\"schema\":\"am-serve-cache/v1\",\"canonical\":\"start 1\\nend 1\\nnode 1 {\\n  x := a+b\\n  out(x)\\n}\\n\",\"nodes\":3,\"instrs\":9,\"points\":15,\"edges_split\":2,\"init\":{\"assignments_decomposed\":4,\"condition_sides_extracted\":1},\"motion\":{\"rounds\":2,\"eliminated\":3,\"inserted\":2,\"removed\":5,\"iterations\":88,\"worklist_pushes\":120,\"converged\":true},\"flush\":{\"instances_removed\":1,\"inserted\":1,\"reconstructed\":0,\"iterations\":30,\"worklist_pushes\":41,\"max_worklist_len\":7},\"timings_micros\":{\"split\":11,\"init\":22,\"motion\":3300,\"flush\":440},\"lint\":{\"errors\":0,\"warnings\":2,\"infos\":1,\"lines\":[\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"info: plain\"]}}\n";

#[test]
fn cache_entries_are_pinned_and_old_entries_decode() {
    check(
        "entry+lint",
        &encode_entry(&cached_result(true)),
        PINNED_ENTRY,
    );
    check("entry", &encode_entry(&cached_result(false)), "{\"schema\":\"am-serve-cache/v1\",\"canonical\":\"start 1\\nend 1\\nnode 1 {\\n  x := a+b\\n  out(x)\\n}\\n\",\"nodes\":3,\"instrs\":9,\"points\":15,\"edges_split\":2,\"init\":{\"assignments_decomposed\":4,\"condition_sides_extracted\":1},\"motion\":{\"rounds\":2,\"eliminated\":3,\"inserted\":2,\"removed\":5,\"iterations\":88,\"worklist_pushes\":120,\"converged\":true},\"flush\":{\"instances_removed\":1,\"inserted\":1,\"reconstructed\":0,\"iterations\":30,\"worklist_pushes\":41,\"max_worklist_len\":7},\"timings_micros\":{\"split\":11,\"init\":22,\"motion\":3300,\"flush\":440},\"lint\":null}\n");
    let decoded = decode_entry(PINNED_ENTRY).expect("a pinned entry decodes");
    assert_eq!(
        format!("{decoded:?}"),
        format!("{:?}", cached_result(true)),
        "the pinned entry decodes to the value that wrote it"
    );
}

#[test]
fn cache_index_is_pinned() {
    let root = std::env::temp_dir().join(format!("am-json-pin-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cache = DiskCache::open(&DiskCacheConfig::new(&root)).unwrap();
    for key in [0xabc, 0x1, 0xffff_0000_0000_0001] {
        cache.store(key, &cached_result(key == 1));
    }
    assert!(cache.load(0x1).is_some());
    cache.flush_index().unwrap();
    let index = std::fs::read_to_string(root.join("v1").join("index.json")).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    check("index", &index, "{\"schema\":\"am-serve-index/v1\",\"entries\":[{\"hash\":\"0000000000000001\",\"last_used\":7},{\"hash\":\"0000000000000abc\",\"last_used\":2},{\"hash\":\"ffff000000000001\",\"last_used\":6}]}\n");
}

#[test]
fn trace_jsonl_is_pinned() {
    let event = |name: &str, cat: &str, kind, args: Vec<(&str, i64)>| Event {
        name: name.to_owned(),
        cat: cat.to_owned(),
        kind,
        ts_micros: 1_234,
        tid: 3,
        depth: 2,
        args: args.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    };
    let events = [
        event(
            "motion",
            "phase",
            EventKind::Span { dur_micros: 42 },
            vec![("rounds", 7), ("delta", -3)],
        ),
        event(
            NASTY,
            "analysis",
            EventKind::Counter,
            vec![(NASTY, 8_999_999_999_999_999)],
        ),
        event("start", "meta", EventKind::Instant, vec![]),
    ];
    check("jsonl", &am_trace::export::jsonl(&events), "{\"name\":\"motion\",\"cat\":\"phase\",\"ph\":\"span\",\"ts\":1234,\"dur\":42,\"tid\":3,\"depth\":2,\"args\":{\"rounds\":7,\"delta\":-3}}\n{\"name\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"cat\":\"analysis\",\"ph\":\"counter\",\"ts\":1234,\"tid\":3,\"depth\":2,\"args\":{\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\":8999999999999999}}\n{\"name\":\"start\",\"cat\":\"meta\",\"ph\":\"instant\",\"ts\":1234,\"tid\":3,\"depth\":2,\"args\":{}}\n");
}

#[test]
fn provenance_and_lint_jsonl_of_the_corpus_are_pinned() {
    let mut provenance = String::new();
    let mut report = String::new();
    let mut lint = String::new();
    for (name, g) in corpus80() {
        let records = capture(&g, None, &Tracer::disabled()).records;
        provenance.push_str(&am_trace::provenance::jsonl(&records));
        report.push_str(&am_trace::provenance::report(&records));
        let optimized = optimize_with(&g, &GlobalConfig::default()).program;
        lint.push_str(&lint_graph(&optimized, &LintConfig::default()).to_jsonl(&name));
    }
    check_stream(
        "provenance",
        &provenance,
        (0x7aad_16cb_978f_f8cb, 7_431_455),
    );
    check_stream(
        "provenance report",
        &report,
        (0xe18c_a665_065c_b68b, 3_450_462),
    );
    check_stream("lint", &lint, (0xc560_63c8_93e4_add9, 114_618));
}

#[test]
fn history_lines_are_pinned() {
    let records = [
        BenchRecord {
            label: NASTY.to_owned(),
            nodes: 3,
            instrs: 7,
            points: 8,
            wall_micros: 1234,
            converged: true,
            worklist_pushes: 40,
            ..Default::default()
        },
        BenchRecord::default(),
    ];
    let dataflow = bench_json::render("bench_dataflow", &records);
    check(
        "history/dataflow",
        &history_line(1_754_600_000, &dataflow).unwrap(),
        "{\"ts\":1754600000,\"kind\":\"dataflow\",\"doc\":{\"schema\":\"am-bench-dataflow/v1\",\"generator\":\"bench_dataflow\",\"records\":[{\"label\":\"q\\\"uote \\\\ back\\u0001\\u0008\\u000c\\u001f\\t\\n\\r\u{7f} é μ 😀\",\"nodes\":3,\"instrs\":7,\"points\":8,\"wall_micros\":1234,\"split_micros\":0,\"init_micros\":0,\"motion_micros\":0,\"flush_micros\":0,\"rounds\":0,\"converged\":true,\"iterations\":0,\"worklist_pushes\":40,\"max_worklist_len\":0,\"eliminated\":0,\"inserted\":0,\"removed\":0,\"cache_hit\":false},{\"label\":\"\",\"nodes\":0,\"instrs\":0,\"points\":0,\"wall_micros\":0,\"split_micros\":0,\"init_micros\":0,\"motion_micros\":0,\"flush_micros\":0,\"rounds\":0,\"converged\":false,\"iterations\":0,\"worklist_pushes\":0,\"max_worklist_len\":0,\"eliminated\":0,\"inserted\":0,\"removed\":0,\"cache_hit\":false}]}}",
    );
    let service = r#"{"schema": "am-bench-service/v1", "generator": "bench_service",
        "config": {"clients": 4, "persistent_cache": false},
        "requests": 640, "errors": 0,
        "dedup_ratio": 8.000, "throughput_rps": 2834.9, "tiny": 0.1, "neg": -0.5,
        "huge": 1e20, "frac": 12345.678,
        "latency_micros": {"count": 640, "p50": 12682, "max": 81596}}"#;
    check(
        "history/service",
        &history_line(1_754_600_001, service).unwrap(),
        "{\"ts\":1754600001,\"kind\":\"service\",\"doc\":{\"schema\":\"am-bench-service/v1\",\"generator\":\"bench_service\",\"config\":{\"clients\":4,\"persistent_cache\":false},\"requests\":640,\"errors\":0,\"dedup_ratio\":8,\"throughput_rps\":2834.9,\"tiny\":0.1,\"neg\":-0.5,\"huge\":100000000000000000000,\"frac\":12345.678,\"latency_micros\":{\"count\":640,\"p50\":12682,\"max\":81596}}}",
    );
}
