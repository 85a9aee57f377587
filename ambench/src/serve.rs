//! The `serve` workload: an in-process `amserve` driven in a closed loop.
//!
//! The timed window is made of whole rounds. Each round boots a server
//! with a cold cache and plays the seed's fixed request order
//! ([`inputs::serve_round`]) over two connections, so the share of fresh
//! optimizations and cache hits is the same however fast the server
//! answers; the window only decides how many rounds run.

use std::io;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use am_serve::proto::{Reply, StatsSnapshot};
use am_serve::{Client, Endpoint, Server, ServerConfig};

use crate::check::OutputLog;
use crate::inputs::{self, Program};
use crate::layers::{Recorder, ServeStats};
use crate::run::{self, Outcome, Settings, SETUPS};
use crate::stats::{median, share};

/// Client connections, each with one request outstanding. With the
/// server's two workers this keeps the load at the box's two cores.
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;

struct Booted {
    server: JoinHandle<io::Result<()>>,
    endpoint: Endpoint,
    control: Client,
}

impl Booted {
    /// Drains and stops the server and waits for its threads.
    fn stop(mut self) -> Result<(), String> {
        let ack = self
            .control
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"));
        let joined = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_owned())?
            .map_err(|e| format!("serve: {e}"));
        ack.and(joined)
    }
}

/// Boots a server with a cold cache on an ephemeral localhost port.
fn boot() -> Result<Booted, String> {
    let server = Server::bind(ServerConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".to_owned()),
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let endpoint = server.endpoint().clone();
    let server = thread::spawn(move || server.run());
    let control = Client::connect(&endpoint).map_err(|e| format!("connect: {e}"))?;
    Ok(Booted {
        server,
        endpoint,
        control,
    })
}

/// One set-up: boots a server, warms it with programs outside the request
/// pool, and stops it.
fn warm_up(warmup: &[Program]) -> Result<(), String> {
    let mut booted = boot()?;
    let warmed: Result<(), String> = warmup.iter().try_for_each(|p| {
        booted
            .control
            .optimize(p.name.clone(), p.kind, p.text.clone())
            .map(drop)
            .map_err(|e| format!("warm-up {}: {e}", p.name))
    });
    let warmed = warmed.and_then(|()| booted.control.ping().map_err(|e| format!("ping: {e}")));
    let stopped = booted.stop();
    warmed.and(stopped)
}

/// One answered, refused or failed request.
struct Exchange {
    program: usize,
    start: Instant,
    end: Instant,
    reply: Reply,
}

/// One connection's closed loop: send each program of `order`, waiting for
/// each answer before the next.
fn drive(mut client: Client, pool: &[Program], order: &[usize]) -> Result<Vec<Exchange>, String> {
    let mut out = Vec::with_capacity(order.len());
    for &program in order {
        let p = &pool[program];
        let start = Instant::now();
        let id = client
            .submit(p.name.clone(), p.kind, p.text.clone())
            .map_err(|e| format!("submit: {e}"))?;
        let (got, reply) = client.recv().map_err(|e| format!("recv: {e}"))?;
        let end = Instant::now();
        if got != id {
            return Err(format!("reply to request {got} while waiting for {id}"));
        }
        out.push(Exchange {
            program,
            start,
            end,
            reply,
        });
    }
    Ok(out)
}

/// What one round produced.
struct Round {
    /// Each connection's exchanges, in order.
    exchanges: Vec<Vec<Exchange>>,
    /// From the first submit to the last reply, seconds.
    wall_s: f64,
    /// The server's own figures; its cache was cold, so they are the
    /// round's alone.
    stats: StatsSnapshot,
}

/// Plays one round against a freshly booted server.
fn round(booted: &mut Booted, pool: &[Program], order: &[Vec<usize>]) -> Result<Round, String> {
    // A ping per connection, so the server has taken every connection on
    // before the round starts.
    let clients = (0..order.len())
        .map(|_| {
            let mut c = Client::connect(&booted.endpoint).map_err(|e| format!("connect: {e}"))?;
            c.ping().map_err(|e| format!("ping: {e}"))?;
            Ok(c)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let start = Instant::now();
    let results: Vec<Result<Vec<Exchange>, String>> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(order)
            .map(|(client, order)| scope.spawn(move || drive(client, pool, order)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let exchanges = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let last = exchanges
        .iter()
        .flatten()
        .map(|x| x.end)
        .max()
        .unwrap_or(start);
    let stats = booted.control.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(Round {
        exchanges,
        wall_s: (last - start).as_secs_f64(),
        stats,
    })
}

/// The servers' figures over all rounds.
fn summarize(rounds: &[StatsSnapshot]) -> ServeStats {
    let sum = |f: fn(&StatsSnapshot) -> u64| rounds.iter().map(f).sum::<u64>();
    let answered = sum(|s| s.fresh + s.memory_hits + s.disk_hits + s.coalesced);
    ServeStats {
        hit_ratio: share(sum(|s| s.memory_hits) as f64, answered as f64),
        coalesced: sum(|s| s.coalesced),
        busy: sum(|s| s.busy),
        queue_peak: rounds.iter().map(|s| s.queue_peak).max().unwrap_or(0),
        phase_ms: std::array::from_fn(|i| {
            rounds.iter().map(|s| s.phases[i].total_micros).sum::<u64>() as f64 / 1e3
        }),
        phase_p50_ms: std::array::from_fn(|i| {
            let p50s: Vec<f64> = rounds
                .iter()
                .map(|s| s.phases[i].p50 as f64 / 1e3)
                .collect();
            median(&p50s)
        }),
    }
}

/// What the timed window of `serve` produced.
struct Timed {
    rounds: Vec<Round>,
    peak_rss_mb: f64,
}

/// Plays whole rounds while another one, as long as the last, fits in the
/// window (at least one). Booting and stopping each round's server is
/// outside the timed intervals.
fn measure(pool: &[Program], order: &[Vec<usize>], s: Settings) -> Result<Timed, String> {
    run::reset_peak_rss()?;
    let deadline = Instant::now() + s.window;
    let mut rounds = Vec::new();
    let mut last = Duration::ZERO;
    while rounds.is_empty() || Instant::now() + last <= deadline {
        let t = Instant::now();
        let mut booted = boot()?;
        let played = round(&mut booted, pool, order);
        let stopped = booted.stop();
        rounds.push(played?);
        stopped?;
        last = t.elapsed();
    }
    Ok(Timed {
        rounds,
        peak_rss_mb: run::peak_rss_mb()?,
    })
}

/// Runs the `serve` workload.
pub fn run(s: Settings) -> Result<Outcome, String> {
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let pool = inputs::serve_pool();
        let order = inputs::serve_round(s.seed, CONNECTIONS);
        warm_up(&inputs::serve_warmup())?;
        setups_s.push(t.elapsed().as_secs_f64());
        prepared = Some((pool, order));
    }
    let (pool, order) = prepared.expect("at least one set-up");
    let Timed {
        rounds,
        peak_rss_mb,
    } = measure(&pool, &order, s)?;

    let mut recorder = s.traced.then(Recorder::new);
    let mut latencies_ms = Vec::new();
    let mut log = OutputLog::new(pool.len());
    let mut timed = vec![0u64; pool.len()];
    let mut errors = Vec::new();
    let mut answered = 0;
    for round in &rounds {
        for (conn, list) in round.exchanges.iter().enumerate() {
            for (k, x) in list.iter().enumerate() {
                timed[x.program] += 1;
                let name = &pool[x.program].name;
                let r = match &x.reply {
                    Reply::Result(r) => r,
                    Reply::Busy { queued, limit } => {
                        errors.push(format!("{name}: busy ({queued}/{limit} queued)"));
                        continue;
                    }
                    Reply::Error { message } => {
                        errors.push(format!("{name}: {message}"));
                        continue;
                    }
                    other => {
                        errors.push(format!("{name}: unexpected reply {other:?}"));
                        continue;
                    }
                };
                answered += 1;
                log.record(x.program, &r.canonical);
                match recorder.as_mut() {
                    Some(rec) if k % 2 == 1 => rec.request(
                        conn as u64 + 1,
                        x.start,
                        x.end,
                        Duration::from_micros(r.queue_micros),
                        Duration::from_micros(r.service_micros),
                        // A coalesced reply waited on a fresh optimization.
                        matches!(r.source.as_str(), "fresh" | "coalesced"),
                    ),
                    _ => latencies_ms.push((x.end - x.start).as_secs_f64() * 1e3),
                }
            }
        }
    }
    let wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let stats: Vec<StatsSnapshot> = rounds.into_iter().map(|r| r.stats).collect();

    // Every reply must equal what the batch path makes of the program.
    let refs: Vec<_> = pool
        .iter()
        .map(|p| run::cold_compile(&run::job(p)))
        .collect();
    let (mut check, counts) = run::verify(&pool, &refs);
    for (i, r) in refs.iter().enumerate() {
        if let (Ok(batch), Some(served)) = (r, log.reference(i)) {
            if batch.canonical != served {
                check
                    .failures
                    .push((i, "served output differs from the batch output".to_owned()));
            }
        }
    }
    let mut failures = run::describe(&pool, &check, &log);
    let failed = run::failed_samples(&timed, &log, &check) + errors.len() as u64;
    failures.extend(errors);
    Ok(Outcome {
        clock: "wall clock",
        setups_s,
        latencies_ms,
        ops_per_s: answered as f64 / wall_s,
        wall_s,
        peak_rss_mb,
        attempted: timed.iter().sum(),
        failed,
        failures,
        check,
        counts,
        recorder,
        serve: Some(summarize(&stats)),
    })
}
