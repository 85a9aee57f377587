//! End-to-end service tests: real sockets, real threads, real disk.
//!
//! Each test boots an in-process [`Server`] on an ephemeral localhost
//! port (or a unix socket), drives it with [`Client`] connections, and
//! shuts it down gracefully through the protocol.

use std::collections::HashMap;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use am_ir::random::{unstructured, SplitMix64, UnstructuredConfig};
use am_lang::SourceKind;
use am_serve::client::{Client, ClientError};
use am_serve::diskcache::DiskCacheConfig;
use am_serve::net::{Endpoint, NetStream};
use am_serve::proto::{self, Reply};
use am_serve::server::{Server, ServerConfig};
use am_trace::json;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("am-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Boots a server on 127.0.0.1:0, returning its endpoint and the thread
/// running it (joined by shutting the server down through a client).
fn boot(config: ServerConfig) -> (Endpoint, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind");
    let endpoint = server.endpoint().clone();
    (endpoint, thread::spawn(move || server.run()))
}

fn stop(endpoint: &Endpoint, handle: thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(endpoint).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// A mid-size program that takes a worker a little while to optimize —
/// used to keep the single-worker queue occupied in backpressure tests.
fn slow_program(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let g = unstructured(
        &mut rng,
        &UnstructuredConfig {
            nodes: 48,
            extra_edges: 24,
            max_instrs: 4,
            num_vars: 6,
            allow_div: false,
        },
    );
    am_ir::text::to_text(&g)
}

#[test]
fn ping_optimize_stats_shutdown_round_trip() {
    let (endpoint, handle) = boot(ServerConfig::default());
    let mut client = Client::connect(&endpoint).expect("connect");
    client.ping().expect("ping");

    let result = client
        .optimize(
            "paper.ir",
            SourceKind::Ir,
            "start 1\nend 4\n\
             node 1 { y := c+d }\n\
             node 2 { branch x+z > y+i }\n\
             node 3 { y := c+d; x := y+z; i := i+x }\n\
             node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .expect("optimize");
    assert_eq!(result.source, "fresh");
    assert_eq!(result.hash.len(), 16);
    assert!(result.converged);
    assert!(result.canonical.contains("node"));
    assert!(
        result.eliminated > 0,
        "the paper example loses an assignment"
    );

    // Same program again: served from memory, byte-identical.
    let again = client
        .optimize(
            "paper2.ir",
            SourceKind::Ir,
            "start 1\nend 4\n\
             node 1 { y := c+d }\n\
             node 2 { branch x+z > y+i }\n\
             node 3 { y := c+d; x := y+z; i := i+x }\n\
             node 4 { x := y+z; x := c+d; out(i,x,y) }\n\
             edge 1 -> 2\nedge 2 -> 3, 4\nedge 3 -> 2",
        )
        .expect("optimize again");
    assert_eq!(again.source, "memory");
    assert_eq!(again.hash, result.hash);
    assert_eq!(again.canonical, result.canonical);

    // While-language front end over the same connection.
    let wl = client
        .optimize(
            "count.wl",
            SourceKind::While,
            "x := 0; while (x < 9) { x := x + 1; } print(x);",
        )
        .expect("optimize wl");
    assert_eq!(wl.source, "fresh");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests_ping, 1);
    assert_eq!(stats.requests_optimize, 3);
    assert_eq!((stats.fresh, stats.memory_hits), (2, 1));
    assert_eq!(stats.connections_open, 1);
    assert!(stats.disk_cache.is_none());
    assert_eq!(stats.latency_request.count, 3);
    assert!(stats.uptime_micros > 0);

    stop(&endpoint, handle);
}

#[test]
fn malformed_programs_fail_cleanly_and_the_connection_survives() {
    let (endpoint, handle) = boot(ServerConfig::default());
    let mut client = Client::connect(&endpoint).expect("connect");

    let err = client
        .optimize("bad.ir", SourceKind::Ir, "start 1\nend 1\nthis is not ir")
        .expect_err("malformed program must fail");
    let ClientError::Server(message) = err else {
        panic!("expected a server error, got {err:?}")
    };
    assert!(
        message.contains("bad.ir"),
        "diagnostic names the job: {message}"
    );

    // The failure was per-request: the same connection still works.
    client.ping().expect("ping after error");
    let ok = client
        .optimize("ok.ir", SourceKind::Ir, "start 1\nend 1\nnode 1 { out(x) }")
        .expect("valid program after error");
    assert_eq!(ok.source, "fresh");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 1);
    stop(&endpoint, handle);
}

#[test]
fn deeply_nested_ir_gets_an_error_reply_and_the_server_survives() {
    let (endpoint, handle) = boot(ServerConfig::default());
    let mut client = Client::connect(&endpoint).expect("connect");

    // 200k parentheses used to overflow a worker's stack, which no
    // `catch_unwind` can stop: the whole daemon aborted.
    let n = 200_000;
    let deep = format!(
        "start s\nend e\nnode s {{ x := {}a{} }}\nnode e {{ out(x) }}\nedge s -> e",
        "(".repeat(n),
        ")".repeat(n)
    );
    let err = client
        .optimize("deep.ir", SourceKind::Ir, &deep)
        .expect_err("deep program must fail");
    let ClientError::Server(message) = err else {
        panic!("expected a server error, got {err:?}")
    };
    assert!(message.contains("nested deeper"), "{message}");

    client.ping().expect("ping after the deep request");
    stop(&endpoint, handle);
}

#[test]
fn deeply_nested_json_frame_gets_an_error_reply_and_the_server_survives() {
    let (endpoint, handle) = boot(ServerConfig::default());

    // 100k nested `[` (a ~100 KB frame, far under the frame cap) used to
    // overflow the connection thread's stack inside the JSON reader: an
    // abort of the whole daemon.
    let mut raw = NetStream::connect(&endpoint).expect("connect");
    proto::write_frame(&mut raw, &"[".repeat(100_000)).expect("send deep frame");
    let reply = proto::read_frame(&mut raw)
        .expect("read reply")
        .expect("a reply frame, not a closed connection");
    let (id, reply) = proto::parse_response(&reply).expect("well-formed reply");
    assert_eq!(id, 0, "no request id could be read");
    let Reply::Error { message } = reply else {
        panic!("expected an error reply, got {reply:?}")
    };
    assert!(message.contains("nested deeper"), "{message}");
    drop(raw);

    let mut client = Client::connect(&endpoint).expect("fresh connection");
    client.ping().expect("ping after the deep frame");
    stop(&endpoint, handle);
}

#[test]
fn ascii_escaped_names_outside_the_bmp_are_echoed_intact() {
    let (endpoint, handle) = boot(ServerConfig::default());

    // How Python's default `json.dumps` sends "p😀.ir": the character as
    // a `\u` surrogate pair.
    let request = r#"{"am":1,"id":7,"op":"optimize","name":"p\ud83d\ude00.ir","kind":"ir","text":"start s\nend s\nnode s { out(x) }"}"#;
    let mut raw = NetStream::connect(&endpoint).expect("connect");
    proto::write_frame(&mut raw, request).expect("send request");
    let reply = proto::read_frame(&mut raw)
        .expect("read reply")
        .expect("a reply frame");
    let (id, reply) = proto::parse_response(&reply).expect("well-formed reply");
    assert_eq!(id, 7);
    let Reply::Result(result) = reply else {
        panic!("expected a result, got {reply:?}")
    };
    assert_eq!(result.name, "p\u{1f600}.ir");
    drop(raw);
    stop(&endpoint, handle);
}

/// Waits up to 20 s for `child` to exit on its own.
fn exit_code_within_deadline(child: &mut std::process::Child) -> Option<i32> {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("poll amserve") {
            return status.code();
        }
        thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn amserve_caps_the_cache_budget_at_the_exact_integer_limit() {
    let dir = temp_dir("budget");
    let amserve = |budget_mb: u64, extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_amserve"))
            .args(["--listen", "tcp://127.0.0.1:0", "--quiet", "--cache-dir"])
            .arg(dir.join("cache"))
            .args(["--cache-budget-mb", &budget_mb.to_string()])
            .args(extra)
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn amserve")
    };
    let max_mb = (json::EXACT_INT_LIMIT - 1) >> 20;
    // 2^44 MiB overflows a u64 byte count (it used to wrap to a 0-byte
    // budget); one MiB more than the cap reaches the limit, past which a
    // `stats` reply is unreadable. Both are usage errors, before binding.
    for budget_mb in [1 << 44, max_mb + 1, u64::MAX] {
        let mut child = amserve(budget_mb, &[]);
        let code = exit_code_within_deadline(&mut child);
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert_eq!(code, Some(2), "--cache-budget-mb {budget_mb}: {stderr}");
        assert!(
            stderr.contains(&format!("--cache-budget-mb must be at most {max_mb}")),
            "{stderr}"
        );
    }

    // The cap itself is served, and `stats` reads it back exactly.
    let ready = dir.join("ready");
    let mut child = amserve(
        max_mb,
        &["--ready-file", ready.to_str().expect("UTF-8 path")],
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let endpoint = loop {
        if let Some(line) = std::fs::read_to_string(&ready)
            .ok()
            .filter(|text| text.ends_with('\n'))
            .and_then(|text| text.lines().next().map(str::to_owned))
        {
            break Endpoint::parse(&line).expect("ready-file endpoint");
        }
        assert!(Instant::now() < deadline, "amserve never became ready");
        thread::sleep(Duration::from_millis(20));
    };
    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats readable at the cap");
    assert_eq!(stats.disk_cache.map(|d| d.budget_bytes), Some(max_mb << 20));
    client.shutdown().expect("shutdown");
    assert_eq!(exit_code_within_deadline(&mut child), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_get_bit_identical_results_with_dedup() {
    let (endpoint, handle) = boot(ServerConfig::default());
    let corpus: Arc<Vec<(String, String)>> = Arc::new(
        am_ir::random::corpus80()
            .into_iter()
            .map(|(name, g)| (name, am_ir::text::to_text(&g)))
            .collect(),
    );

    // Two clients pipeline the same corpus twice, concurrently.
    let mut threads = Vec::new();
    for _ in 0..2 {
        let endpoint = endpoint.clone();
        let corpus = Arc::clone(&corpus);
        threads.push(thread::spawn(move || {
            // Windowed pipelining: keep at most 32 requests in flight so the
            // 64-deep per-connection queue never answers `busy`.
            const WINDOW: usize = 32;
            let mut client = Client::connect(&endpoint).expect("connect");
            let mut pending = HashMap::new();
            let mut outputs: Vec<Option<(String, String)>> = vec![None; corpus.len() * 2];
            let drain = |client: &mut Client,
                         pending: &mut HashMap<u64, usize>,
                         outputs: &mut Vec<Option<(String, String)>>| {
                let (id, reply) = client.recv().expect("recv");
                let slot = pending.remove(&id).expect("known id");
                match reply {
                    Reply::Result(r) => outputs[slot] = Some((r.hash.clone(), r.canonical.clone())),
                    other => panic!("unexpected reply: {other:?}"),
                }
            };
            for pass in 0..2 {
                for (i, (name, text)) in corpus.iter().enumerate() {
                    while pending.len() >= WINDOW {
                        drain(&mut client, &mut pending, &mut outputs);
                    }
                    let id = client
                        .submit(name.clone(), SourceKind::Ir, text.clone())
                        .expect("submit");
                    pending.insert(id, pass * corpus.len() + i);
                }
            }
            while !pending.is_empty() {
                drain(&mut client, &mut pending, &mut outputs);
            }
            outputs.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        }));
    }
    let results: Vec<Vec<(String, String)>> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Bit-identical across passes and across clients.
    assert_eq!(results[0], results[1], "both clients saw identical results");
    let n = corpus.len();
    assert_eq!(
        results[0][..n],
        results[0][n..],
        "second pass identical to first"
    );

    // Dedup: 4 × 80 answers, but each unique program optimized exactly once.
    let mut control = Client::connect(&endpoint).expect("connect");
    let stats = control.stats().expect("stats");
    assert_eq!(
        stats.fresh, n as u64,
        "one fresh optimization per unique program"
    );
    assert_eq!(
        stats.fresh + stats.memory_hits + stats.disk_hits + stats.coalesced,
        4 * n as u64,
        "every request answered from some source"
    );
    assert!(stats.memory_hits + stats.coalesced >= 3 * n as u64);

    stop(&endpoint, handle);
}

#[test]
fn disk_cache_serves_results_across_a_server_restart() {
    let dir = temp_dir("restart");
    let disk = DiskCacheConfig::new(dir.join("cache"));
    let programs: Vec<(String, String)> = (0..6)
        .map(|i| (format!("p{i}.ir"), slow_program(i)))
        .collect();

    // First server life: everything is fresh, write-through to disk.
    let (endpoint, handle) = boot(ServerConfig {
        disk: Some(disk.clone()),
        ..ServerConfig::default()
    });
    let mut first_life = Vec::new();
    {
        let mut client = Client::connect(&endpoint).expect("connect");
        for (name, text) in &programs {
            let r = client
                .optimize(name.clone(), SourceKind::Ir, text.clone())
                .expect("optimize");
            assert_eq!(r.source, "fresh");
            first_life.push((r.hash, r.canonical));
        }
        let stats = client.stats().expect("stats");
        let disk_stats = stats.disk_cache.expect("disk cache enabled");
        assert_eq!(disk_stats.stores, programs.len() as u64);
        assert_eq!(disk_stats.entries, programs.len() as u64);
    }
    stop(&endpoint, handle);

    // Second life, same cache dir, cold memory: served from disk.
    let (endpoint, handle) = boot(ServerConfig {
        disk: Some(disk),
        ..ServerConfig::default()
    });
    {
        let mut client = Client::connect(&endpoint).expect("connect");
        for ((name, text), (hash, canonical)) in programs.iter().zip(&first_life) {
            let r = client
                .optimize(name.clone(), SourceKind::Ir, text.clone())
                .expect("optimize");
            assert_eq!(r.source, "disk", "{name} served from the persistent cache");
            assert_eq!(&r.hash, hash);
            assert_eq!(
                &r.canonical, canonical,
                "{name} bit-identical across restart"
            );
        }
        // Promoted into memory: a third submission is a memory hit.
        let (name, text) = &programs[0];
        let r = client
            .optimize(name.clone(), SourceKind::Ir, text.clone())
            .expect("optimize");
        assert_eq!(r.source, "memory");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.disk_hits, programs.len() as u64);
    }
    stop(&endpoint, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_queue_answers_busy_instead_of_buffering() {
    // One worker, a two-deep queue, and a burst of distinct slow programs:
    // the submissions outrun the worker, so some must bounce with `busy`.
    let (endpoint, handle) = boot(ServerConfig {
        workers: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let burst = 24;
    let mut pending = Vec::new();
    for i in 0..burst {
        let id = client
            .submit(format!("b{i}.ir"), SourceKind::Ir, slow_program(100 + i))
            .expect("submit");
        pending.push(id);
    }
    let mut results = 0u64;
    let mut busy = 0u64;
    for _ in 0..burst {
        match client.recv().expect("recv").1 {
            Reply::Result(_) => results += 1,
            Reply::Busy { limit, .. } => {
                assert_eq!(limit, 2);
                busy += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(results + busy, burst);
    assert!(busy > 0, "burst of {burst} must overflow a 2-deep queue");
    assert!(results > 0, "accepted jobs are still answered");
    let stats = Client::connect(&endpoint)
        .expect("connect")
        .stats()
        .expect("stats");
    assert_eq!(stats.busy, busy);
    stop(&endpoint, handle);
}

#[test]
fn shutdown_drains_queued_work_before_acknowledging() {
    let (endpoint, handle) = boot(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&endpoint).expect("connect");
    let jobs = 6;
    for i in 0..jobs {
        client
            .submit(format!("d{i}.ir"), SourceKind::Ir, slow_program(200 + i))
            .expect("submit");
    }
    // Give the reader thread time to enqueue the burst, then ask a second
    // connection to shut the server down. The `ok` only returns once the
    // queue has drained — after which all six results must be waiting.
    thread::sleep(std::time::Duration::from_millis(300));
    let mut control = Client::connect(&endpoint).expect("connect");
    control.shutdown().expect("shutdown");
    for _ in 0..jobs {
        match client.recv().expect("drained result").1 {
            Reply::Result(_) => {}
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn server_traces_aggregate_through_amstat_model() {
    let (tracer, collector) = am_trace::Tracer::collector();
    let (endpoint, handle) = boot(ServerConfig {
        tracer,
        ..ServerConfig::default()
    });
    {
        let mut client = Client::connect(&endpoint).expect("connect");
        let text = "start 1\nend 1\nnode 1 { x := a+b; y := a+b; out(x,y) }";
        for name in ["t0.ir", "t1.ir"] {
            client
                .optimize(name.to_owned(), SourceKind::Ir, text.to_owned())
                .expect("optimize");
        }
        client
            .optimize("bad.ir", SourceKind::Ir, "start 1\nend 1\nnot ir")
            .expect_err("malformed");
    }
    stop(&endpoint, handle);

    // The exact pipeline amstat runs: JSONL text → events → OptStats.
    let jsonl = am_trace::export::jsonl(&collector.take());
    let events: Vec<_> = jsonl
        .lines()
        .map(|l| am_trace::export::parse_jsonl_line(l).expect("parseable trace line"))
        .collect();
    let stats = am_trace::stats::OptStats::from_events(&events);
    let service = stats.service().expect("server trace has a service view");
    assert_eq!(
        service.sessions, 2,
        "client connection + shutdown connection"
    );
    assert_eq!(
        service.fresh, 1,
        "identical programs dedup to one fresh run"
    );
    assert_eq!(service.memory, 1);
    assert_eq!(service.errors, 1);
    assert_eq!(service.answered(), 2);
    assert_eq!(
        service.leaders as usize,
        service.service.sorted_micros.len()
    );
}

#[test]
fn metrics_listener_and_trace_ring_observe_requests_end_to_end() {
    let server = Server::bind(ServerConfig {
        metrics: Some(Endpoint::Tcp("127.0.0.1:0".to_owned())),
        trace_ring: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let metrics_endpoint = server.metrics_endpoint().expect("metrics bound").clone();
    let handle = thread::spawn(move || server.run());

    let mut client = Client::connect(&endpoint).expect("connect");
    let text = "start 1\nend 1\nnode 1 { x := a+b; y := a+b; out(x,y) }";
    let fresh = client
        .optimize("m0.ir", SourceKind::Ir, text.to_owned())
        .expect("optimize");
    assert_eq!(fresh.source, "fresh");
    let hit = client
        .optimize("m1.ir", SourceKind::Ir, text.to_owned())
        .expect("optimize again");
    assert_eq!(hit.source, "memory");

    // Every request carried a client-generated trace id, so both sit in
    // the ring: the fresh run with phase children, the hit without.
    let (entries, dropped) = client.trace_tail(16).expect("trace-tail");
    assert_eq!(dropped, 0);
    assert_eq!(entries.len(), 2, "both traced requests in the ring");
    assert_eq!(entries[0].name, "m0.ir");
    assert_eq!(entries[0].source, "fresh");
    assert!(entries[0].phases.is_some(), "fresh run has phase spans");
    assert_eq!(entries[0].spans().len(), 7);
    assert_eq!(entries[1].source, "memory");
    assert!(entries[1].phases.is_none(), "cache hit has no phase spans");
    assert_eq!(entries[0].trace_id.len(), 16);
    assert_ne!(entries[0].trace_id, entries[1].trace_id);
    assert_eq!(
        entries[0].trace_id[..8],
        entries[1].trace_id[..8],
        "one connection shares a trace-id prefix"
    );

    // The scrape endpoint speaks HTTP and exports the expected families.
    let mut stream = am_serve::net::NetStream::connect(&metrics_endpoint).expect("connect http");
    let (status, body) = am_obs::httpx::get(&mut stream, "/metrics").expect("GET /metrics");
    assert!(status.contains("200"), "status: {status}");
    for needle in [
        "# TYPE am_requests_total counter",
        "am_requests_total{verb=\"optimize\"} 2",
        "am_optimize_results_total{source=\"fresh\"} 1",
        "am_optimize_results_total{source=\"memory\"} 1",
        "# TYPE am_request_latency_seconds histogram",
        "am_request_latency_seconds_count 2",
        "am_cache_hits_total{tier=\"memory\"} 1",
        "am_trace_ring_entries 2",
        "am_workers",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }

    // Unknown paths and non-GET methods answer with proper HTTP errors.
    let mut stream = am_serve::net::NetStream::connect(&metrics_endpoint).expect("connect http");
    let (status, _) = am_obs::httpx::get(&mut stream, "/nope").expect("GET /nope");
    assert!(status.contains("404"), "status: {status}");

    stop(&endpoint, handle);
}

#[cfg(unix)]
#[test]
fn unix_domain_sockets_work_end_to_end() {
    let dir = temp_dir("uds");
    let socket = dir.join("am.sock");
    let (endpoint, handle) = boot(ServerConfig {
        endpoint: Endpoint::Unix(socket.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(endpoint, Endpoint::Unix(socket.clone()));
    let mut client = Client::connect(&endpoint).expect("connect over uds");
    client.ping().expect("ping");
    let r = client
        .optimize(
            "u.ir",
            SourceKind::Ir,
            "start 1\nend 1\nnode 1 { x := a+b; out(x) }",
        )
        .expect("optimize");
    assert_eq!(r.source, "fresh");
    stop(&endpoint, handle);
    assert!(!socket.exists(), "socket file removed on exit");
    let _ = std::fs::remove_dir_all(&dir);
}
