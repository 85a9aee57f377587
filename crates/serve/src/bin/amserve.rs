//! `amserve`: the long-running optimization daemon.
//!
//! Binds a localhost TCP address or unix-domain socket, serves `amclient`
//! requests over the length-prefixed JSON protocol, and keeps the result
//! caches — in-memory always, on-disk when `--cache-dir` is given — hot
//! across any number of client batches. Stops on a client's `shutdown`
//! request after draining in-flight work.

use std::process::ExitCode;

use am_serve::diskcache::DiskCacheConfig;
use am_serve::net::Endpoint;
use am_serve::server::{Server, ServerConfig};
use am_trace::{json, Tracer};

fn usage() -> ! {
    eprintln!("usage: amserve [options]");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --listen EP          endpoint: tcp://HOST:PORT, unix://PATH, HOST:PORT or a");
    eprintln!("                       socket path (default tcp://127.0.0.1:7345; port 0 binds");
    eprintln!("                       an ephemeral port, see --ready-file)");
    eprintln!("  --cache-dir DIR      enable the persistent result cache under DIR");
    eprintln!("  --cache-budget-mb N  on-disk cache byte budget, MiB (default 256)");
    eprintln!("  --cache-cap N        in-memory result-cache capacity, entries (default 1024)");
    eprintln!("  --workers N          worker threads (default: all cores)");
    eprintln!("  --queue-depth N      per-connection queue bound before busy (default 64)");
    eprintln!("  --max-rounds N       motion-round budget per job");
    eprintln!("  --lint               lint optimized programs, report counts in results");
    eprintln!("  --trace FILE         write a JSONL trace (amstat-compatible) on exit");
    eprintln!("  --metrics EP         serve Prometheus text on a second endpoint");
    eprintln!("                       (GET /metrics, plus /healthz)");
    eprintln!("  --trace-ring N       completed-request traces kept for trace-tail");
    eprintln!("                       (default 256)");
    eprintln!("  --ready-file FILE    write the bound endpoint to FILE once listening");
    eprintln!("                       (second line 'metrics EP' when --metrics is on)");
    eprintln!("  --quiet              suppress startup/shutdown chatter");
    std::process::exit(2);
}

struct Options {
    config: ServerConfig,
    trace_path: Option<String>,
    ready_file: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        config: ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:7345".to_owned()),
            ..ServerConfig::default()
        },
        trace_path: None,
        ready_file: None,
        quiet: false,
    };
    let mut cache_dir: Option<String> = None;
    let mut cache_budget_mb: u64 = 256;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "-h" | "--help" => usage(),
            "--listen" => options.config.endpoint = Endpoint::parse(&value("--listen")?)?,
            "--cache-dir" => cache_dir = Some(value("--cache-dir")?),
            "--cache-budget-mb" => {
                cache_budget_mb = value("--cache-budget-mb")?
                    .parse()
                    .map_err(|_| "--cache-budget-mb needs an integer".to_owned())?
            }
            "--cache-cap" => {
                options.config.cache_capacity = value("--cache-cap")?
                    .parse()
                    .map_err(|_| "--cache-cap needs an integer".to_owned())?
            }
            "--workers" => {
                options.config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs an integer".to_owned())?
            }
            "--queue-depth" => {
                options.config.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth needs an integer".to_owned())?
            }
            "--max-rounds" => {
                options.config.max_motion_rounds = Some(
                    value("--max-rounds")?
                        .parse()
                        .map_err(|_| "--max-rounds needs an integer".to_owned())?,
                )
            }
            "--lint" => options.config.lint = true,
            "--trace" => options.trace_path = Some(value("--trace")?),
            "--metrics" => options.config.metrics = Some(Endpoint::parse(&value("--metrics")?)?),
            "--trace-ring" => {
                options.config.trace_ring = value("--trace-ring")?
                    .parse()
                    .map_err(|_| "--trace-ring needs an integer".to_owned())?
            }
            "--ready-file" => options.ready_file = Some(value("--ready-file")?),
            "--quiet" => options.quiet = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    // The budget travels in `stats` replies, whose integers are exact
    // (and readable by `amclient`) only below the JSON limit.
    let budget_bytes = cache_budget_mb
        .max(1)
        .checked_mul(1 << 20)
        .filter(|&bytes| bytes < json::EXACT_INT_LIMIT)
        .ok_or_else(|| {
            format!(
                "--cache-budget-mb must be at most {}",
                (json::EXACT_INT_LIMIT - 1) >> 20
            )
        })?;
    if let Some(dir) = cache_dir {
        options.config.disk = Some(DiskCacheConfig {
            root: dir.into(),
            budget_bytes,
        });
    }
    Ok(options)
}

fn run(mut options: Options) -> Result<(), String> {
    let collector = options.trace_path.as_ref().map(|_| {
        let (tracer, collector) = Tracer::collector();
        options.config.tracer = tracer;
        collector
    });
    let disk_enabled = options.config.disk.is_some();
    let server = Server::bind(options.config).map_err(|e| format!("bind: {e}"))?;
    let endpoint = server.endpoint().clone();
    let metrics_endpoint = server.metrics_endpoint().cloned();
    if let Some(path) = &options.ready_file {
        // Written after bind, so a reader that sees the file can connect
        // immediately — this is how CI discovers an ephemeral port (for
        // both listeners: the metrics endpoint rides on a second line).
        let mut ready = format!("{endpoint}\n");
        if let Some(m) = &metrics_endpoint {
            ready.push_str(&format!("metrics {m}\n"));
        }
        std::fs::write(path, ready).map_err(|e| format!("{path}: {e}"))?;
    }
    if !options.quiet {
        eprintln!(
            "amserve: listening on {endpoint} ({} cache)",
            if disk_enabled {
                "persistent"
            } else {
                "in-memory"
            }
        );
        if let Some(m) = &metrics_endpoint {
            eprintln!("amserve: metrics on {m} (GET /metrics)");
        }
    }
    server.run().map_err(|e| format!("serve: {e}"))?;
    if let (Some(path), Some(collector)) = (&options.trace_path, &collector) {
        let events = collector.take();
        std::fs::write(path, am_trace::export::jsonl(&events))
            .map_err(|e| format!("{path}: {e}"))?;
        if !options.quiet {
            eprintln!("amserve: wrote {} trace events to {path}", events.len());
        }
    }
    if !options.quiet {
        eprintln!("amserve: drained and stopped");
    }
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("amserve: {message}");
            return ExitCode::from(2);
        }
    };
    match run(options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("amserve: {message}");
            ExitCode::FAILURE
        }
    }
}
