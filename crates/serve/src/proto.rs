//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON. Requests carry a client-assigned `id` which the server
//! echoes in the response, so responses may be delivered out of order and
//! clients may pipeline many requests over one connection. Program hashes
//! are 64-bit and JSON numbers are doubles, so hashes travel as 16-digit
//! hex strings.
//!
//! Request operations (`"op"`):
//!
//! * `ping` — liveness probe, answered with `ok`;
//! * `optimize` — `name` (a label), `kind` (`"while"` or `"ir"`) and
//!   `text` (the program source), answered with `result`, `busy` or
//!   `error`;
//! * `stats` — answered with a [`StatsSnapshot`];
//! * `shutdown` — graceful drain; the `ok` answer arrives after every
//!   queued job has been answered and the persistent cache index flushed.
//!
//! The reader/writer works over any `Read`/`Write`, so tests can run it
//! over in-memory buffers. Payloads are built and read as
//! [`am_trace::json::Json`] values, through the workspace's one JSON codec.

use std::io::{self, Read, Write};

use am_lang::SourceKind;
use am_obs::TraceEntry;
use am_trace::json::{self, Json};

/// Protocol version, carried as `"am"` in every request.
pub const PROTOCOL_VERSION: u64 = 1;

/// Frame size cap (64 MiB): a length prefix beyond this is treated as a
/// corrupt stream rather than an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                bytes.len()
            ),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close (EOF before the first
/// byte). A read timeout *before* the frame starts surfaces as the
/// underlying `WouldBlock`/`TimedOut` error so a polling caller can check
/// its shutdown flag and retry; once the first byte has arrived the rest
/// of the frame is awaited across timeouts (a half-frame only fails when
/// the peer actually goes away).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut header = [0u8; 4];
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    read_full(r, &mut header[1..])?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// `read_exact` that rides out timeouts: mid-frame, a `WouldBlock` or
/// `TimedOut` from a socket read timeout means "not yet", not "gone".
fn read_full(r: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// An `optimize` request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizeRequest {
    /// Client-side label echoed in the result (typically a file name).
    pub name: String,
    /// How to interpret `text`.
    pub kind: SourceKind,
    /// Program source.
    pub text: String,
    /// Client-generated trace id, propagated end to end: the server links
    /// the request's measured stages under this id in its trace ring
    /// (`trace-tail`). Optional and ignored by older servers — the field
    /// is simply absent on the wire when `None`.
    pub trace: Option<String>,
}

/// A parsed request operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Optimize one program.
    Optimize(OptimizeRequest),
    /// Live server metrics.
    Stats,
    /// The newest entries of the server's request-trace ring.
    TraceTail {
        /// Maximum entries to return.
        limit: u64,
    },
    /// Graceful drain-and-stop.
    Shutdown,
}

/// A request plus its client-assigned correlation id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Echoed verbatim in the response.
    pub id: u64,
    /// The operation.
    pub request: Request,
}

fn kind_str(kind: SourceKind) -> &'static str {
    match kind {
        SourceKind::While => "while",
        SourceKind::Ir => "ir",
    }
}

fn kind_from_str(s: &str) -> Result<SourceKind, String> {
    match s {
        "while" => Ok(SourceKind::While),
        "ir" => Ok(SourceKind::Ir),
        other => Err(format!(
            "unknown source kind '{other}' (expected 'while' or 'ir')"
        )),
    }
}

/// Renders a request frame payload.
pub fn encode_request(envelope: &Envelope) -> String {
    let head = [("am", PROTOCOL_VERSION.into()), ("id", envelope.id.into())];
    let op = |op: &str| ("op", Json::from(op));
    let tail = match &envelope.request {
        Request::Ping => vec![op("ping")],
        Request::Stats => vec![op("stats")],
        Request::TraceTail { limit } => vec![op("trace-tail"), ("limit", (*limit).into())],
        Request::Shutdown => vec![op("shutdown")],
        Request::Optimize(req) => {
            let mut members = vec![
                op("optimize"),
                ("name", req.name.as_str().into()),
                ("kind", kind_str(req.kind).into()),
                ("text", req.text.as_str().into()),
            ];
            members.extend(req.trace.as_deref().map(|trace| ("trace", trace.into())));
            members
        }
    };
    json::obj(head.into_iter().chain(tail)).to_string()
}

/// Parses a request frame payload. On failure the error carries the
/// request id when one could still be extracted, so the server can send a
/// correlated `error` response.
pub fn parse_request(payload: &str) -> Result<Envelope, (Option<u64>, String)> {
    let value = json::parse(payload).map_err(|e| (None, format!("bad request JSON: {e}")))?;
    let id = value.u64_field("id").map_err(|e| (None, e))?;
    let fail = |msg: String| (Some(id), msg);
    match value.u64_field("am").map_err(fail)? {
        PROTOCOL_VERSION => {}
        v => return Err(fail(format!("unsupported protocol version {v}"))),
    }
    let request = match value.str_field("op").map_err(fail)? {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "trace-tail" => Request::TraceTail {
            limit: value.u64_field("limit").unwrap_or(16),
        },
        "shutdown" => Request::Shutdown,
        "optimize" => {
            let field = |key: &str| value.str_field(key).map(str::to_owned).map_err(fail);
            Request::Optimize(OptimizeRequest {
                name: field("name")?,
                kind: kind_from_str(&field("kind")?).map_err(fail)?,
                text: field("text")?,
                trace: field("trace").ok(),
            })
        }
        other => return Err(fail(format!("unknown op '{other}'"))),
    };
    Ok(Envelope { id, request })
}

/// An `optimize` outcome as it travels over the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultPayload {
    /// The request's label, echoed.
    pub name: String,
    /// Stable input-program hash, 16 hex digits.
    pub hash: String,
    /// Where the result came from: `fresh`, `memory`, `disk` or
    /// `coalesced` (computed once for several concurrent requests).
    pub source: String,
    /// Canonical text of the optimized program.
    pub canonical: String,
    /// Input CFG nodes.
    pub nodes: u64,
    /// Input instructions.
    pub instrs: u64,
    /// Instruction-level program points.
    pub points: u64,
    /// Critical edges split.
    pub edges_split: u64,
    /// Assignment-motion rounds.
    pub rounds: u64,
    /// Whether motion reached its fixed point within budget.
    pub converged: bool,
    /// Assignment occurrences eliminated.
    pub eliminated: u64,
    /// Instances inserted by hoisting.
    pub inserted: u64,
    /// Hoisting candidates removed.
    pub removed: u64,
    /// Total solver iterations (motion + flush).
    pub iterations: u64,
    /// Lint errors on the optimized program (0 when linting was off).
    pub lint_errors: u64,
    /// Lint warnings on the optimized program.
    pub lint_warnings: u64,
    /// Time the job waited in the dispatch queue.
    pub queue_micros: u64,
    /// Time spent producing the answer (compile + optimize or cache load).
    pub service_micros: u64,
}

/// Latency summary for one metric: sample count and microsecond
/// percentiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantileSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub total_micros: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// In-memory result-cache counters as they travel over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryCacheSnapshot {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Resident entries.
    pub entries: u64,
}

/// Persistent disk-cache counters as they travel over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCacheSnapshot {
    /// Loads that found a valid entry.
    pub hits: u64,
    /// Loads that found nothing.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries dropped to fit the byte budget.
    pub evictions: u64,
    /// Entries that failed to parse and were deleted.
    pub load_errors: u64,
    /// Entries currently on disk.
    pub entries: u64,
    /// Bytes currently on disk.
    pub bytes: u64,
    /// Configured byte budget.
    pub budget_bytes: u64,
}

/// The live server metrics answered to a `stats` request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Worker threads.
    pub workers: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// `optimize` requests received.
    pub requests_optimize: u64,
    /// `stats` requests received.
    pub requests_stats: u64,
    /// `ping` requests received.
    pub requests_ping: u64,
    /// Results computed fresh.
    pub fresh: u64,
    /// Results served from the in-memory cache.
    pub memory_hits: u64,
    /// Results served from the persistent cache.
    pub disk_hits: u64,
    /// Results answered by coalescing onto an identical in-flight job.
    pub coalesced: u64,
    /// Requests rejected with `busy`.
    pub busy: u64,
    /// Requests answered with `error`.
    pub errors: u64,
    /// Jobs sitting in dispatch queues right now.
    pub queued_now: u64,
    /// Largest queue population observed.
    pub queue_peak: u64,
    /// In-memory cache counters.
    pub memory_cache: MemoryCacheSnapshot,
    /// Persistent cache counters; `None` when running memory-only.
    pub disk_cache: Option<DiskCacheSnapshot>,
    /// End-to-end request latency (enqueue → response written).
    pub latency_request: QuantileSummary,
    /// Queue wait (enqueue → worker pickup).
    pub latency_queue: QuantileSummary,
    /// Optimizer phase latencies of fresh runs, keyed `split`, `init`,
    /// `motion`, `flush` in that order.
    pub phases: [QuantileSummary; 4],
}

/// The four phase labels, index-aligned with [`StatsSnapshot::phases`].
pub use am_obs::ring::PHASE_NAMES;

/// A response as seen by the client.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Acknowledgement (ping, shutdown).
    Ok,
    /// An optimize result.
    Result(Box<ResultPayload>),
    /// Backpressure: the connection's queue is full; retry after draining
    /// some responses.
    Busy {
        /// Jobs already queued for this connection.
        queued: u64,
        /// The per-connection limit.
        limit: u64,
    },
    /// The request failed (parse error, unknown op, optimizer panic…).
    Error {
        /// Human-readable cause.
        message: String,
    },
    /// Live metrics.
    Stats(Box<StatsSnapshot>),
    /// The newest request traces.
    Trace {
        /// Entries, oldest first.
        entries: Vec<TraceEntry>,
        /// Ring evictions so far (history `trace-tail` can no longer see).
        dropped: u64,
    },
}

fn quantiles_json(q: &QuantileSummary) -> Json {
    json::obj([
        ("count", q.count.into()),
        ("total_micros", q.total_micros.into()),
        ("p50", q.p50.into()),
        ("p95", q.p95.into()),
        ("p99", q.p99.into()),
        ("max", q.max.into()),
    ])
}

/// A response frame payload: the `id` and `type` members, then `body`.
fn response<'k>(id: u64, kind: &str, body: impl IntoIterator<Item = (&'k str, Json)>) -> String {
    json::obj(
        [("id", id.into()), ("type", kind.into())]
            .into_iter()
            .chain(body),
    )
    .to_string()
}

/// Renders an `ok` response payload.
pub fn encode_ok(id: u64) -> String {
    response(id, "ok", [])
}

/// Renders a `busy` response payload.
pub fn encode_busy(id: u64, queued: u64, limit: u64) -> String {
    response(
        id,
        "busy",
        [("queued", queued.into()), ("limit", limit.into())],
    )
}

/// Renders an `error` response payload.
pub fn encode_error(id: u64, message: &str) -> String {
    response(id, "error", [("message", message.into())])
}

/// Renders a `result` response payload.
pub fn encode_result(id: u64, r: &ResultPayload) -> String {
    response(
        id,
        "result",
        [
            ("name", r.name.as_str().into()),
            ("hash", r.hash.as_str().into()),
            ("source", r.source.as_str().into()),
            ("canonical", r.canonical.as_str().into()),
            ("nodes", r.nodes.into()),
            ("instrs", r.instrs.into()),
            ("points", r.points.into()),
            ("edges_split", r.edges_split.into()),
            ("rounds", r.rounds.into()),
            ("converged", r.converged.into()),
            ("eliminated", r.eliminated.into()),
            ("inserted", r.inserted.into()),
            ("removed", r.removed.into()),
            ("iterations", r.iterations.into()),
            ("lint_errors", r.lint_errors.into()),
            ("lint_warnings", r.lint_warnings.into()),
            ("queue_micros", r.queue_micros.into()),
            ("service_micros", r.service_micros.into()),
        ],
    )
}

/// Renders a `trace` response payload.
pub fn encode_trace(id: u64, entries: &[TraceEntry], dropped: u64) -> String {
    response(
        id,
        "trace",
        [
            ("dropped", dropped.into()),
            ("entries", entries.iter().map(TraceEntry::to_json).collect()),
        ],
    )
}

/// Renders a `stats` response payload.
pub fn encode_stats(id: u64, s: &StatsSnapshot) -> String {
    response(id, "stats", stats_body(s))
}

/// Renders a snapshot as a standalone `am-stats/v1` document — the shape
/// `amclient stats --json` prints and `amstat` reads directly (same body
/// as the wire `stats` response, with a schema tag instead of the
/// response envelope).
pub fn encode_stats_doc(s: &StatsSnapshot) -> String {
    json::obj(
        [("schema", "am-stats/v1".into())]
            .into_iter()
            .chain(stats_body(s)),
    )
    .to_string()
}

fn stats_body(s: &StatsSnapshot) -> [(&'static str, Json); 13] {
    let m = &s.memory_cache;
    let disk = s.disk_cache.map_or(Json::Null, |d| {
        json::obj([
            ("hits", d.hits.into()),
            ("misses", d.misses.into()),
            ("stores", d.stores.into()),
            ("evictions", d.evictions.into()),
            ("load_errors", d.load_errors.into()),
            ("entries", d.entries.into()),
            ("bytes", d.bytes.into()),
            ("budget_bytes", d.budget_bytes.into()),
        ])
    });
    let latency = [
        ("request", quantiles_json(&s.latency_request)),
        ("queue", quantiles_json(&s.latency_queue)),
    ]
    .into_iter()
    .chain(
        PHASE_NAMES
            .into_iter()
            .zip(s.phases.iter().map(quantiles_json)),
    );
    [
        ("uptime_micros", s.uptime_micros.into()),
        ("workers", s.workers.into()),
        ("connections_open", s.connections_open.into()),
        ("connections_total", s.connections_total.into()),
        (
            "requests",
            json::obj([
                ("optimize", s.requests_optimize.into()),
                ("stats", s.requests_stats.into()),
                ("ping", s.requests_ping.into()),
            ]),
        ),
        (
            "sources",
            json::obj([
                ("fresh", s.fresh.into()),
                ("memory", s.memory_hits.into()),
                ("disk", s.disk_hits.into()),
                ("coalesced", s.coalesced.into()),
            ]),
        ),
        ("busy", s.busy.into()),
        ("errors", s.errors.into()),
        ("queued_now", s.queued_now.into()),
        ("queue_peak", s.queue_peak.into()),
        (
            "memory_cache",
            json::obj([
                ("hits", m.hits.into()),
                ("misses", m.misses.into()),
                ("evictions", m.evictions.into()),
                ("entries", m.entries.into()),
            ]),
        ),
        ("disk_cache", disk),
        ("latency", json::obj(latency)),
    ]
}

fn parse_quantiles(v: &Json, key: &str) -> Result<QuantileSummary, String> {
    let q = v.field(key)?;
    Ok(QuantileSummary {
        count: q.u64_field("count")?,
        total_micros: q.u64_field("total_micros")?,
        p50: q.u64_field("p50")?,
        p95: q.u64_field("p95")?,
        p99: q.u64_field("p99")?,
        max: q.u64_field("max")?,
    })
}

/// Parses a response frame payload into its id and [`Reply`].
pub fn parse_response(payload: &str) -> Result<(u64, Reply), String> {
    let value = json::parse(payload).map_err(|e| format!("bad response JSON: {e}"))?;
    let id = value.u64_field("id")?;
    let reply = match value.str_field("type")? {
        "ok" => Reply::Ok,
        "trace" => {
            let entries = value
                .arr_field("entries")?
                .iter()
                .map(TraceEntry::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Reply::Trace {
                entries,
                dropped: value.u64_field("dropped")?,
            }
        }
        "busy" => Reply::Busy {
            queued: value.u64_field("queued")?,
            limit: value.u64_field("limit")?,
        },
        "error" => Reply::Error {
            message: value.str_field("message")?.to_owned(),
        },
        "result" => Reply::Result(Box::new(ResultPayload {
            name: value.str_field("name")?.to_owned(),
            hash: value.str_field("hash")?.to_owned(),
            source: value.str_field("source")?.to_owned(),
            canonical: value.str_field("canonical")?.to_owned(),
            nodes: value.u64_field("nodes")?,
            instrs: value.u64_field("instrs")?,
            points: value.u64_field("points")?,
            edges_split: value.u64_field("edges_split")?,
            rounds: value.u64_field("rounds")?,
            converged: value.bool_field("converged")?,
            eliminated: value.u64_field("eliminated")?,
            inserted: value.u64_field("inserted")?,
            removed: value.u64_field("removed")?,
            iterations: value.u64_field("iterations")?,
            lint_errors: value.u64_field("lint_errors")?,
            lint_warnings: value.u64_field("lint_warnings")?,
            queue_micros: value.u64_field("queue_micros")?,
            service_micros: value.u64_field("service_micros")?,
        })),
        "stats" => {
            let requests = value.field("requests")?;
            let sources = value.field("sources")?;
            let mem = value.field("memory_cache")?;
            let disk = match value.get("disk_cache") {
                None | Some(Json::Null) => None,
                Some(d) => Some(DiskCacheSnapshot {
                    hits: d.u64_field("hits")?,
                    misses: d.u64_field("misses")?,
                    stores: d.u64_field("stores")?,
                    evictions: d.u64_field("evictions")?,
                    load_errors: d.u64_field("load_errors")?,
                    entries: d.u64_field("entries")?,
                    bytes: d.u64_field("bytes")?,
                    budget_bytes: d.u64_field("budget_bytes")?,
                }),
            };
            let latency = value.field("latency")?;
            let mut phases = [QuantileSummary::default(); 4];
            for (slot, name) in phases.iter_mut().zip(PHASE_NAMES) {
                *slot = parse_quantiles(latency, name)?;
            }
            Reply::Stats(Box::new(StatsSnapshot {
                uptime_micros: value.u64_field("uptime_micros")?,
                workers: value.u64_field("workers")?,
                connections_open: value.u64_field("connections_open")?,
                connections_total: value.u64_field("connections_total")?,
                requests_optimize: requests.u64_field("optimize")?,
                requests_stats: requests.u64_field("stats")?,
                requests_ping: requests.u64_field("ping")?,
                fresh: sources.u64_field("fresh")?,
                memory_hits: sources.u64_field("memory")?,
                disk_hits: sources.u64_field("disk")?,
                coalesced: sources.u64_field("coalesced")?,
                busy: value.u64_field("busy")?,
                errors: value.u64_field("errors")?,
                queued_now: value.u64_field("queued_now")?,
                queue_peak: value.u64_field("queue_peak")?,
                memory_cache: MemoryCacheSnapshot {
                    hits: mem.u64_field("hits")?,
                    misses: mem.u64_field("misses")?,
                    evictions: mem.u64_field("evictions")?,
                    entries: mem.u64_field("entries")?,
                },
                disk_cache: disk,
                latency_request: parse_quantiles(latency, "request")?,
                latency_queue: parse_quantiles(latency, "queue")?,
                phases,
            }))
        }
        other => return Err(format!("unknown response type '{other}'")),
    };
    Ok((id, reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_are_errors() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &huge[..]).is_err());

        let mut cut = Vec::new();
        write_frame(&mut cut, "hello").unwrap();
        cut.truncate(cut.len() - 2);
        let err = read_frame(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn requests_round_trip() {
        let cases = [
            Envelope {
                id: 1,
                request: Request::Ping,
            },
            Envelope {
                id: 2,
                request: Request::Stats,
            },
            Envelope {
                id: 3,
                request: Request::Shutdown,
            },
            Envelope {
                id: 900_719_925_474_099, // near the f64-exact ceiling
                request: Request::Optimize(OptimizeRequest {
                    name: "loop \"quoted\".wl".to_owned(),
                    kind: SourceKind::While,
                    text: "while x < 3 do\n  x := x + 1\nod".to_owned(),
                    trace: Some("00c0ffee00c0ffee".to_owned()),
                }),
            },
            Envelope {
                id: 5,
                request: Request::Optimize(OptimizeRequest {
                    name: "raw.ir".to_owned(),
                    kind: SourceKind::Ir,
                    text: "start s\nend s\nnode s { out(x) }".to_owned(),
                    trace: None,
                }),
            },
            Envelope {
                id: 6,
                request: Request::TraceTail { limit: 25 },
            },
        ];
        for envelope in cases {
            let wire = encode_request(&envelope);
            assert_eq!(parse_request(&wire).unwrap(), envelope, "{wire}");
        }
    }

    #[test]
    fn request_parse_errors_keep_the_id_when_possible() {
        let (id, msg) = parse_request("{\"am\":1,\"id\":9,\"op\":\"frobnicate\"}").unwrap_err();
        assert_eq!(id, Some(9));
        assert!(msg.contains("frobnicate"), "{msg}");

        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, None);

        let (id, msg) = parse_request("{\"am\":2,\"id\":4,\"op\":\"ping\"}").unwrap_err();
        assert_eq!(id, Some(4));
        assert!(msg.contains("version 2"), "{msg}");
    }

    #[test]
    fn simple_responses_round_trip() {
        assert_eq!(parse_response(&encode_ok(7)).unwrap(), (7, Reply::Ok));
        assert_eq!(
            parse_response(&encode_busy(8, 64, 64)).unwrap(),
            (
                8,
                Reply::Busy {
                    queued: 64,
                    limit: 64
                }
            )
        );
        assert_eq!(
            parse_response(&encode_error(9, "no \"such\" op")).unwrap(),
            (
                9,
                Reply::Error {
                    message: "no \"such\" op".to_owned()
                }
            )
        );
    }

    #[test]
    fn trace_requests_without_limit_use_the_default() {
        let envelope = parse_request("{\"am\":1,\"id\":3,\"op\":\"trace-tail\"}").unwrap();
        assert_eq!(envelope.request, Request::TraceTail { limit: 16 });
    }

    #[test]
    fn trace_responses_round_trip() {
        let entries = vec![
            TraceEntry {
                trace_id: "a1".into(),
                name: "p1.wl".into(),
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
        ];
        let (id, reply) = parse_response(&encode_trace(31, &entries, 7)).unwrap();
        assert_eq!(id, 31);
        assert_eq!(
            reply,
            Reply::Trace {
                entries,
                dropped: 7
            }
        );

        let (_, empty) = parse_response(&encode_trace(32, &[], 0)).unwrap();
        assert_eq!(
            empty,
            Reply::Trace {
                entries: Vec::new(),
                dropped: 0
            }
        );
    }

    #[test]
    fn stats_doc_carries_the_schema_tag_and_the_full_body() {
        let doc = encode_stats_doc(&StatsSnapshot {
            workers: 3,
            ..Default::default()
        });
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("am-stats/v1"));
        assert_eq!(v.get("workers").and_then(Json::as_u64), Some(3));
        assert!(v.get("latency").is_some());
        assert!(v.get("id").is_none(), "a doc is not a response envelope");
    }

    #[test]
    fn result_responses_round_trip() {
        let payload = ResultPayload {
            name: "p01.wl".to_owned(),
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
        let (id, reply) = parse_response(&encode_result(11, &payload)).unwrap();
        assert_eq!(id, 11);
        assert_eq!(reply, Reply::Result(Box::new(payload)));
    }

    #[test]
    fn stats_responses_round_trip() {
        let mut snapshot = StatsSnapshot {
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
            disk_cache: Some(DiskCacheSnapshot {
                hits: 30,
                misses: 90,
                stores: 100,
                evictions: 2,
                load_errors: 1,
                entries: 98,
                bytes: 123_456,
                budget_bytes: 268_435_456,
            }),
            latency_request: QuantileSummary {
                count: 400,
                total_micros: 9000,
                p50: 15,
                p95: 60,
                p99: 200,
                max: 900,
            },
            latency_queue: QuantileSummary {
                count: 400,
                total_micros: 800,
                p50: 1,
                p95: 5,
                p99: 11,
                max: 40,
            },
            ..Default::default()
        };
        snapshot.phases[2] = QuantileSummary {
            count: 100,
            total_micros: 5000,
            p50: 40,
            p95: 90,
            p99: 130,
            max: 200,
        };
        let (id, reply) = parse_response(&encode_stats(21, &snapshot)).unwrap();
        assert_eq!(id, 21);
        assert_eq!(reply, Reply::Stats(Box::new(snapshot.clone())));

        snapshot.disk_cache = None;
        let (_, reply) = parse_response(&encode_stats(22, &snapshot)).unwrap();
        assert_eq!(reply, Reply::Stats(Box::new(snapshot)));
    }
}
