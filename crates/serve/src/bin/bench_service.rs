//! The service benchmark: an in-process `amserve` under concurrent
//! clients.
//!
//! Boots a server on an ephemeral localhost port, drives it with N client
//! threads — each pipelining the built-in 80-program corpus over its own
//! connection, `--passes` times — and writes an `am-bench-service/v1`
//! JSON document: throughput, dedup ratio (requests answered per fresh
//! optimization), result-source mix, and client-observed latency
//! percentiles.
//!
//! ```sh
//! cargo run --release -p am-serve --bin bench_service
//! cargo run --release -p am-serve --bin bench_service -- \
//!     --clients 8 --passes 2 --out target/BENCH_service.json
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use am_lang::SourceKind;
use am_serve::client::Client;
use am_serve::diskcache::DiskCacheConfig;
use am_serve::net::Endpoint;
use am_serve::proto::Reply;
use am_serve::server::{Server, ServerConfig};
use am_trace::json;

/// Schema tag of the emitted document.
pub const SERVICE_SCHEMA: &str = "am-bench-service/v1";

const USAGE: &str = "usage: bench_service [options]

Boots an in-process optimization server and measures it under concurrent
clients submitting the built-in 80-program corpus. Writes machine-readable
benchmark records (am-bench-service/v1 JSON).

options:
  --out PATH       output file (default BENCH_service.json)
  --clients N      concurrent client connections (default 4)
  --passes N       corpus passes per client (default 2)
  --window N       pipelined in-flight requests per client (default 16)
  --workers N      server worker threads (default: all cores)
  --cache-dir DIR  run with the persistent disk cache under DIR
  --metrics        also serve (and scrape once) a Prometheus endpoint, to
                   measure the exposition's overhead in the same run
  --history PATH   also append the run to an append-only history
                   (default BENCH_history.jsonl; see amstat regress)
  --no-history     skip the history append
  --help           this text";

struct Options {
    out: String,
    clients: usize,
    passes: usize,
    window: usize,
    workers: usize,
    cache_dir: Option<String>,
    metrics: bool,
    history: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        out: "BENCH_service.json".to_owned(),
        clients: 4,
        passes: 2,
        window: 16,
        workers: 0,
        cache_dir: None,
        metrics: false,
        history: Some("BENCH_history.jsonl".to_owned()),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => opts.out = value(&mut args, "--out")?,
            "--clients" => {
                opts.clients = value(&mut args, "--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
                if opts.clients == 0 {
                    return Err("--clients must be at least 1".to_owned());
                }
            }
            "--passes" => {
                opts.passes = value(&mut args, "--passes")?
                    .parse()
                    .map_err(|e| format!("--passes: {e}"))?;
                if opts.passes == 0 {
                    return Err("--passes must be at least 1".to_owned());
                }
            }
            "--window" => {
                opts.window = value(&mut args, "--window")?
                    .parse::<usize>()
                    .map_err(|e| format!("--window: {e}"))?
                    .max(1);
            }
            "--workers" => {
                opts.workers = value(&mut args, "--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-dir" => opts.cache_dir = Some(value(&mut args, "--cache-dir")?),
            "--metrics" => opts.metrics = true,
            "--history" => opts.history = Some(value(&mut args, "--history")?),
            "--no-history" => opts.history = None,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}'; --help for usage")),
        }
    }
    Ok(opts)
}

/// What one client thread observed.
#[derive(Default)]
struct ClientOutcome {
    latencies_micros: Vec<u64>,
    by_source: HashMap<String, u64>,
    busy_retries: u64,
    errors: u64,
}

/// Submits the corpus `passes` times over one pipelined connection.
fn drive_client(
    endpoint: &Endpoint,
    corpus: &[(String, String)],
    passes: usize,
    window: usize,
) -> Result<ClientOutcome, String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    let mut outcome = ClientOutcome::default();
    let total = corpus.len() * passes;
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut retry: Vec<usize> = Vec::new();
    let mut next = 0usize;
    while next < total || !in_flight.is_empty() || !retry.is_empty() {
        while in_flight.len() < window {
            let Some(slot) = retry.pop().or_else(|| {
                (next < total).then(|| {
                    next += 1;
                    next - 1
                })
            }) else {
                break;
            };
            let (name, text) = &corpus[slot % corpus.len()];
            let id = client
                .submit(name.clone(), SourceKind::Ir, text.clone())
                .map_err(|e| format!("submit: {e}"))?;
            in_flight.insert(id, (slot, Instant::now()));
        }
        if in_flight.is_empty() {
            break;
        }
        let (id, reply) = client.recv().map_err(|e| format!("recv: {e}"))?;
        let Some((slot, submitted)) = in_flight.remove(&id) else {
            return Err(format!("response for unknown request id {id}"));
        };
        match reply {
            Reply::Result(result) => {
                outcome
                    .latencies_micros
                    .push(submitted.elapsed().as_micros() as u64);
                *outcome.by_source.entry(result.source).or_insert(0) += 1;
            }
            Reply::Busy { .. } => {
                outcome.busy_retries += 1;
                retry.push(slot);
            }
            Reply::Error { message } => {
                outcome.errors += 1;
                eprintln!("bench_service: {message}");
            }
            other => return Err(format!("unexpected reply: {other:?}")),
        }
    }
    Ok(outcome)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

struct BenchDoc {
    clients: usize,
    passes: usize,
    window: usize,
    workers: u64,
    programs: usize,
    persistent_cache: bool,
    requests: u64,
    errors: u64,
    busy_retries: u64,
    sources: [(String, u64); 4],
    wall_micros: u64,
    latencies_sorted: Vec<u64>,
}

impl BenchDoc {
    fn fresh(&self) -> u64 {
        self.sources
            .iter()
            .find(|(name, _)| name == "fresh")
            .map_or(0, |(_, n)| *n)
    }

    /// Requests answered per fresh optimization — the cache/coalescing
    /// multiplier. 1.0 means no reuse at all.
    fn dedup_ratio(&self) -> f64 {
        let answered: u64 = self.sources.iter().map(|(_, n)| n).sum();
        if self.fresh() == 0 {
            answered as f64
        } else {
            answered as f64 / self.fresh() as f64
        }
    }

    fn throughput_rps(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.requests as f64 * 1e6 / self.wall_micros as f64
        }
    }

    /// The `am-bench-service/v1` document, one member per line.
    /// `dedup_ratio` and `throughput_rps` are rounded to 3 and 1 decimals.
    fn render(&self) -> String {
        let l = &self.latencies_sorted;
        let mean = if l.is_empty() {
            0
        } else {
            l.iter().sum::<u64>() / l.len() as u64
        };
        let round = |x: f64, scale: f64| (x * scale).round() / scale;
        let doc = json::obj([
            ("schema", SERVICE_SCHEMA.into()),
            ("generator", "bench_service".into()),
            (
                "config",
                json::obj([
                    ("clients", self.clients.into()),
                    ("passes", self.passes.into()),
                    ("window", self.window.into()),
                    ("workers", self.workers.into()),
                    ("programs", self.programs.into()),
                    ("persistent_cache", self.persistent_cache.into()),
                ]),
            ),
            ("requests", self.requests.into()),
            ("errors", self.errors.into()),
            ("busy_retries", self.busy_retries.into()),
            (
                "sources",
                json::obj(
                    self.sources
                        .iter()
                        .map(|(name, count)| (name.as_str(), (*count).into())),
                ),
            ),
            ("dedup_ratio", round(self.dedup_ratio(), 1e3).into()),
            ("throughput_rps", round(self.throughput_rps(), 1e1).into()),
            ("wall_micros", self.wall_micros.into()),
            (
                "latency_micros",
                json::obj([
                    ("count", l.len().into()),
                    ("mean", mean.into()),
                    ("p50", percentile(l, 0.50).into()),
                    ("p95", percentile(l, 0.95).into()),
                    ("p99", percentile(l, 0.99).into()),
                    ("max", l.last().copied().unwrap_or(0).into()),
                ]),
            ),
        ]);
        let mut out = String::new();
        doc.write_lines(&mut out);
        out.push('\n');
        out
    }
}

fn run(opts: &Options) -> Result<BenchDoc, String> {
    let corpus: Vec<(String, String)> = am_ir::random::corpus80()
        .into_iter()
        .map(|(name, graph)| (name, am_ir::text::to_text(&graph)))
        .collect();
    let programs = corpus.len();
    let corpus = Arc::new(corpus);

    let config = ServerConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".to_owned()),
        workers: opts.workers,
        disk: opts
            .cache_dir
            .as_ref()
            .map(|dir| DiskCacheConfig::new(dir.clone())),
        metrics: opts
            .metrics
            .then(|| Endpoint::Tcp("127.0.0.1:0".to_owned())),
        ..ServerConfig::default()
    };
    let persistent_cache = config.disk.is_some();
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let endpoint = server.endpoint().clone();
    let metrics_endpoint = server.metrics_endpoint().cloned();
    let server_thread = std::thread::spawn(move || server.run());

    let started = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..opts.clients {
        let endpoint = endpoint.clone();
        let corpus = Arc::clone(&corpus);
        let (passes, window) = (opts.passes, opts.window);
        threads.push(std::thread::spawn(move || {
            drive_client(&endpoint, &corpus, passes, window)
        }));
    }
    let mut outcomes = Vec::new();
    for thread in threads {
        outcomes.push(
            thread
                .join()
                .map_err(|_| "client thread panicked".to_owned())??,
        );
    }
    let wall_micros = started.elapsed().as_micros() as u64;

    // One scrape, to prove the exposition works while the benchmark's
    // counters are still live — and so the --metrics run exercises the
    // listener it is measuring the overhead of.
    if let Some(m) = &metrics_endpoint {
        let mut stream =
            am_serve::net::NetStream::connect(m).map_err(|e| format!("metrics connect: {e}"))?;
        let (status, body) =
            am_obs::httpx::get(&mut stream, "/metrics").map_err(|e| format!("scrape: {e}"))?;
        if !status.contains("200") || !body.contains("am_requests_total") {
            return Err(format!("metrics scrape failed: {status}"));
        }
    }

    let mut control = Client::connect(&endpoint).map_err(|e| format!("connect: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server_thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("serve: {e}"))?;

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_micros.iter().copied())
        .collect();
    latencies.sort_unstable();
    let source_total = |name: &str| {
        outcomes
            .iter()
            .map(|o| o.by_source.get(name).copied().unwrap_or(0))
            .sum::<u64>()
    };
    Ok(BenchDoc {
        clients: opts.clients,
        passes: opts.passes,
        window: opts.window,
        workers: stats.workers,
        programs,
        persistent_cache,
        requests: latencies.len() as u64,
        errors: outcomes.iter().map(|o| o.errors).sum(),
        busy_retries: outcomes.iter().map(|o| o.busy_retries).sum(),
        sources: [
            ("fresh".to_owned(), source_total("fresh")),
            ("memory".to_owned(), source_total("memory")),
            ("disk".to_owned(), source_total("disk")),
            ("coalesced".to_owned(), source_total("coalesced")),
        ],
        wall_micros,
        latencies_sorted: latencies,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let doc = match run(&opts) {
        Ok(doc) => doc,
        Err(msg) => {
            eprintln!("bench_service: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} requests over {} clients in {:.2}s: {:.1} req/s, dedup x{:.2}",
        doc.requests,
        doc.clients,
        doc.wall_micros as f64 / 1e6,
        doc.throughput_rps(),
        doc.dedup_ratio()
    );
    for (name, count) in &doc.sources {
        println!("  {name:<10} {count}");
    }
    println!(
        "  latency p50={}us p95={}us p99={}us max={}us",
        percentile(&doc.latencies_sorted, 0.50),
        percentile(&doc.latencies_sorted, 0.95),
        percentile(&doc.latencies_sorted, 0.99),
        doc.latencies_sorted.last().copied().unwrap_or(0)
    );
    if let Err(e) = std::fs::write(&opts.out, doc.render()) {
        eprintln!("{}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", opts.out);
    if let Some(history) = &opts.history {
        match am_obs::regress::append_history(std::path::Path::new(history), &doc.render()) {
            Ok(()) => println!("appended this run to {history}"),
            Err(e) => {
                eprintln!("bench_service: history: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if doc.errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_trace::json::{self, Json};

    fn doc() -> BenchDoc {
        BenchDoc {
            clients: 2,
            passes: 2,
            window: 16,
            workers: 8,
            programs: 80,
            persistent_cache: false,
            requests: 320,
            errors: 0,
            busy_retries: 3,
            sources: [
                ("fresh".to_owned(), 80),
                ("memory".to_owned(), 200),
                ("disk".to_owned(), 0),
                ("coalesced".to_owned(), 40),
            ],
            wall_micros: 2_000_000,
            latencies_sorted: (1..=320).collect(),
        }
    }

    #[test]
    fn rendered_document_parses_with_the_expected_fields() {
        let v = json::parse(&doc().render()).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(SERVICE_SCHEMA));
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(320));
        let sources = v.get("sources").unwrap();
        assert_eq!(sources.get("memory").and_then(Json::as_u64), Some(200));
        // 320 answered / 80 fresh = 4x dedup.
        let dedup = match v.get("dedup_ratio") {
            Some(Json::Num(n)) => *n,
            other => panic!("dedup_ratio: {other:?}"),
        };
        assert!((dedup - 4.0).abs() < 1e-9);
        let latency = v.get("latency_micros").unwrap();
        assert_eq!(latency.get("p50").and_then(Json::as_u64), Some(160));
        assert_eq!(latency.get("max").and_then(Json::as_u64), Some(320));
        assert_eq!(
            v.get("config")
                .unwrap()
                .get("programs")
                .and_then(Json::as_u64),
            Some(80)
        );
    }
}
