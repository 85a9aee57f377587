//! The optimization server.
//!
//! One accept loop, one reader thread per connection, and a shared worker
//! pool over a single [`am_pipeline::Pipeline`] engine — so every
//! connection shares the in-memory result cache, and (when configured)
//! the persistent [`DiskCache`] tier underneath it.
//!
//! Scheduling is fair by construction: each connection owns a bounded
//! queue (overflow is answered with `busy`, not buffered), and workers
//! take jobs round-robin across connections, so a client streaming
//! thousands of programs cannot starve one submitting a single job.
//!
//! Identical concurrent work is **coalesced**: jobs are keyed by the
//! input's stable hash, and a job whose hash is already being optimized
//! parks behind that leader instead of burning a worker; when the leader
//! finishes, every parked follower is answered from the same result
//! (reported as source `coalesced`).
//!
//! Shutdown is graceful: the `shutdown` request stops intake, drains
//! every queued and in-flight job (responses still go out), flushes the
//! disk-cache index, and only then acknowledges.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use am_ir::alpha::stable_hash;
use am_ir::FlowGraph;
use am_lang::compile_source;
use am_obs::promtext::Registry;
use am_obs::{httpx, TraceEntry, TraceRing};
use am_pipeline::{OptimizedJob, Pipeline, PipelineConfig, ResultSource, SecondaryCache};
use am_trace::Tracer;

use crate::diskcache::{DiskCache, DiskCacheConfig};
use crate::metrics::Metrics;
use crate::net::{Endpoint, NetListener, NetStream};
use crate::proto::{self, write_frame, Envelope, Request, ResultPayload, StatsSnapshot};

/// How often blocked loops (accept, reads, idle workers) re-check the
/// shutdown flag.
const POLL: Duration = Duration::from_millis(50);
/// Per-connection socket read timeout; bounds how long a reader thread
/// can ignore the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads; 0 uses [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Per-connection queue bound; a submit past it is answered `busy`.
    pub queue_depth: usize,
    /// In-memory result-cache capacity, entries.
    pub cache_capacity: usize,
    /// Persistent cache tier; `None` runs memory-only.
    pub disk: Option<DiskCacheConfig>,
    /// Motion-round budget per job (`None`: the paper's quadratic bound).
    pub max_motion_rounds: Option<usize>,
    /// Lint freshly optimized programs and report counts in results.
    pub lint: bool,
    /// Trace sink: per-connection spans, per-request spans and `serve`
    /// counters (see `docs/SERVICE.md`).
    pub tracer: Tracer,
    /// Optional second listener serving Prometheus text exposition over
    /// HTTP (`GET /metrics`, plus `/healthz`); `None` disables it.
    pub metrics: Option<Endpoint>,
    /// Request-trace ring capacity: how many completed traced requests
    /// `trace-tail` can look back on.
    pub trace_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_owned()),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 1024,
            disk: None,
            max_motion_rounds: None,
            lint: false,
            tracer: Tracer::disabled(),
            metrics: None,
            trace_ring: 256,
        }
    }
}

struct ConnState {
    id: u64,
    writer: Mutex<NetStream>,
}

impl ConnState {
    /// Writes one response frame. Best-effort: a vanished client only
    /// costs the bytes.
    fn send(&self, payload: &str) {
        let mut writer = self.writer.lock().unwrap();
        let _ = write_frame(&mut *writer, payload);
    }
}

struct PendingJob {
    id: u64,
    name: String,
    hash: u64,
    graph: FlowGraph,
    /// Client-generated trace id; requests carrying one land in the ring.
    trace: Option<String>,
    conn: Arc<ConnState>,
    /// Enqueue time until pickup, then reset to service start.
    clock: Instant,
    /// Filled at pickup: how long the job waited in its queue.
    queue_micros: u64,
}

#[derive(Default)]
struct Dispatch {
    /// Per-connection FIFO queues.
    queues: HashMap<u64, VecDeque<PendingJob>>,
    /// Round-robin order over connections with queued work (each id at
    /// most once; stale ids are skipped on pop).
    order: VecDeque<u64>,
    /// Program hash → followers parked behind the in-flight leader.
    inflight: HashMap<u64, Vec<PendingJob>>,
    /// Jobs waiting in queues.
    queued: usize,
    /// Jobs parked behind a leader.
    parked: usize,
    /// Leader jobs currently on a worker.
    active: usize,
}

impl Dispatch {
    fn outstanding(&self) -> usize {
        self.queued + self.parked + self.active
    }

    /// Pops the next job, round-robin across connections.
    fn pop_next(&mut self) -> Option<PendingJob> {
        while let Some(conn_id) = self.order.pop_front() {
            let Some(queue) = self.queues.get_mut(&conn_id) else {
                continue; // connection closed, queue dropped
            };
            let Some(job) = queue.pop_front() else {
                continue;
            };
            if !queue.is_empty() {
                self.order.push_back(conn_id);
            }
            self.queued -= 1;
            return Some(job);
        }
        None
    }
}

struct Shared {
    pipeline: Pipeline,
    disk: Option<Arc<DiskCache>>,
    metrics: Metrics,
    ring: TraceRing,
    started: Instant,
    dispatch: Mutex<Dispatch>,
    work_ready: Condvar,
    drained: Condvar,
    shutdown: AtomicBool,
    tracer: Tracer,
    queue_depth: usize,
    workers: usize,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let queued = self.dispatch.lock().unwrap().queued as u64;
        self.metrics.snapshot(
            self.workers as u64,
            queued,
            self.pipeline.cache().stats(),
            self.disk.as_ref().map(|d| d.snapshot()),
        )
    }

    /// Links one completed (or rejected) traced request into the ring.
    #[allow(clippy::too_many_arguments)]
    fn record_trace(
        &self,
        trace: &Option<String>,
        name: &str,
        source: &str,
        queue_micros: u64,
        service_micros: u64,
        phases: Option<[u64; 4]>,
        conn: u64,
    ) {
        let Some(trace_id) = trace else { return };
        self.ring.push(TraceEntry {
            trace_id: trace_id.clone(),
            name: name.to_owned(),
            source: source.to_owned(),
            queue_micros,
            service_micros,
            phases,
            conn,
            ts_micros: self.started.elapsed().as_micros() as u64,
        });
    }

    /// The full Prometheus text exposition: request/latency families from
    /// [`Metrics`], plus the populations and cache tiers only the server
    /// knows.
    fn prometheus(&self) -> String {
        let mut r = Registry::new();
        self.metrics.export(&mut r);
        r.gauge("am_workers", "Worker threads.", &[], self.workers as f64);
        let queued = self.dispatch.lock().unwrap().queued;
        r.gauge(
            "am_queue_depth",
            "Jobs sitting in dispatch queues now.",
            &[],
            queued as f64,
        );
        let mem = self.pipeline.cache().stats();
        let mut tier = |name: &str, hits: u64, misses: u64, evictions: u64, entries: u64| {
            let labels = &[("tier", name)];
            r.counter("am_cache_hits_total", "Cache lookup hits.", labels, hits);
            r.counter(
                "am_cache_misses_total",
                "Cache lookup misses.",
                labels,
                misses,
            );
            r.counter(
                "am_cache_evictions_total",
                "Cache evictions.",
                labels,
                evictions,
            );
            r.gauge(
                "am_cache_entries",
                "Cache entries resident.",
                labels,
                entries as f64,
            );
        };
        tier(
            "memory",
            mem.hits,
            mem.misses,
            mem.evictions,
            mem.entries as u64,
        );
        if let Some(disk) = &self.disk {
            let d = disk.snapshot();
            tier("disk", d.hits, d.misses, d.evictions, d.entries);
        }
        r.gauge(
            "am_trace_ring_entries",
            "Request traces held in the ring.",
            &[],
            self.ring.len() as f64,
        );
        r.counter(
            "am_trace_ring_dropped_total",
            "Request traces evicted from the ring.",
            &[],
            self.ring.dropped(),
        );
        r.render()
    }

    fn notify_if_drained(&self, dispatch: &Dispatch) {
        if dispatch.outstanding() == 0 {
            self.drained.notify_all();
        }
    }
}

/// A bound, not-yet-running server. [`Server::bind`] resolves the
/// endpoint (so port 0 becomes a real port before any client races the
/// accept loop); [`Server::run`] serves until a `shutdown` request
/// drains it.
pub struct Server {
    shared: Arc<Shared>,
    listener: NetListener,
    endpoint: Endpoint,
    metrics_listener: Option<NetListener>,
    metrics_endpoint: Option<Endpoint>,
}

impl Server {
    /// Opens the persistent cache (if configured), builds the engine, and
    /// binds the listening socket.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let disk = match &config.disk {
            Some(disk_config) => Some(Arc::new(DiskCache::open(disk_config)?)),
            None => None,
        };
        let pipeline = Pipeline::new(PipelineConfig {
            workers: Some(1), // the server brings its own pool
            cache_capacity: config.cache_capacity,
            max_motion_rounds: config.max_motion_rounds,
            verify: false,
            prove: false,
            lint: config.lint,
            tracer: config.tracer.clone(),
            secondary: disk
                .as_ref()
                .map(|d| Arc::clone(d) as Arc<dyn SecondaryCache>),
        });
        let (listener, endpoint) = NetListener::bind(&config.endpoint)?;
        let (metrics_listener, metrics_endpoint) = match &config.metrics {
            Some(ep) => {
                let (l, bound) = NetListener::bind(ep)?;
                (Some(l), Some(bound))
            }
            None => (None, None),
        };
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        Ok(Server {
            shared: Arc::new(Shared {
                pipeline,
                disk,
                metrics: Metrics::new(),
                ring: TraceRing::new(config.trace_ring),
                started: Instant::now(),
                dispatch: Mutex::new(Dispatch::default()),
                work_ready: Condvar::new(),
                drained: Condvar::new(),
                shutdown: AtomicBool::new(false),
                tracer: config.tracer,
                queue_depth: config.queue_depth.max(1),
                workers,
            }),
            listener,
            endpoint,
            metrics_listener,
            metrics_endpoint,
        })
    }

    /// The endpoint actually bound (real port for TCP port 0).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The metrics endpoint actually bound, when `--metrics` was given.
    pub fn metrics_endpoint(&self) -> Option<&Endpoint> {
        self.metrics_endpoint.as_ref()
    }

    /// Serves until a client's `shutdown` request drains the server. All
    /// threads are joined before returning; a unix socket file is removed
    /// on the way out.
    pub fn run(self) -> io::Result<()> {
        let shared = &self.shared;
        let mut workers = Vec::with_capacity(shared.workers);
        for _ in 0..shared.workers {
            let shared = Arc::clone(shared);
            workers.push(thread::spawn(move || worker_loop(&shared)));
        }
        let metrics_thread = match self.metrics_listener {
            Some(listener) => {
                listener.set_nonblocking(true)?;
                let shared = Arc::clone(shared);
                Some(thread::spawn(move || metrics_loop(&shared, &listener)))
            }
            None => None,
        };
        self.listener.set_nonblocking(true)?;
        let mut handlers = Vec::new();
        let mut next_conn_id = 1u64;
        let result = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            match self.listener.accept() {
                Ok(stream) => {
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    let shared = Arc::clone(shared);
                    handlers.push(thread::spawn(move || {
                        handle_connection(&shared, stream, conn_id)
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.work_ready.notify_all();
        for handle in handlers {
            let _ = handle.join();
        }
        for handle in workers {
            let _ = handle.join();
        }
        if let Some(handle) = metrics_thread {
            let _ = handle.join();
        }
        if let Some(disk) = &shared.disk {
            let _ = disk.flush_index();
        }
        #[cfg(unix)]
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        #[cfg(unix)]
        if let Some(Endpoint::Unix(path)) = &self.metrics_endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// The metrics listener: one short HTTP exchange per connection
/// (`/metrics` renders the Prometheus exposition, `/healthz` answers
/// liveness), polled so the shutdown flag stops it with the rest of the
/// server.
fn metrics_loop(shared: &Arc<Shared>, listener: &NetListener) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                // Per-exchange thread: a stalled scraper must not block
                // the next scrape.
                thread::spawn(move || serve_metrics_exchange(&shared, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn serve_metrics_exchange(shared: &Shared, mut stream: NetStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Some(request) = httpx::read_request(&mut stream) else {
        return;
    };
    let path = request.path.split('?').next().unwrap_or("");
    let _ = if request.method != "GET" {
        httpx::write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n",
        )
    } else {
        match path {
            "/metrics" => httpx::write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &shared.prometheus(),
            ),
            "/healthz" => httpx::write_response(&mut stream, "200 OK", "text/plain", "ok\n"),
            _ => httpx::write_response(
                &mut stream,
                "404 Not Found",
                "text/plain",
                "try /metrics or /healthz\n",
            ),
        }
    };
}

fn handle_connection(shared: &Arc<Shared>, mut stream: NetStream, conn_id: u64) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnState {
        id: conn_id,
        writer: Mutex::new(writer),
    });
    shared.metrics.connection_opened();
    let mut span = shared.tracer.span("conn", "session");
    let mut requests = 0i64;
    // Whether the peer went away (vs. us breaking for shutdown): a dead
    // client's queued jobs are dropped, a live client's are drained.
    let mut client_gone = false;
    loop {
        match proto::read_frame(&mut stream) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) | Ok(None) => {
                client_gone = true;
                break;
            }
            Ok(Some(payload)) => {
                requests += 1;
                match proto::parse_request(&payload) {
                    Err((id, message)) => {
                        shared.metrics.request_error();
                        shared.tracer.counter("serve", "error", &[("count", 1)]);
                        conn.send(&proto::encode_error(id.unwrap_or(0), &message));
                    }
                    Ok(envelope) => {
                        if !handle_request(shared, &conn, envelope) {
                            break;
                        }
                    }
                }
            }
        }
    }
    if client_gone {
        let mut dispatch = shared.dispatch.lock().unwrap();
        if let Some(queue) = dispatch.queues.remove(&conn_id) {
            dispatch.queued -= queue.len();
        }
        shared.notify_if_drained(&dispatch);
    }
    shared.metrics.connection_closed();
    span.arg("requests", requests);
}

/// Handles one request; returns `false` when the reader should stop
/// (shutdown acknowledged).
fn handle_request(shared: &Arc<Shared>, conn: &Arc<ConnState>, envelope: Envelope) -> bool {
    let id = envelope.id;
    match envelope.request {
        Request::Ping => {
            shared.metrics.ping();
            conn.send(&proto::encode_ok(id));
            true
        }
        Request::Stats => {
            shared.metrics.stats_request();
            let snapshot = shared.snapshot();
            conn.send(&proto::encode_stats(id, &snapshot));
            true
        }
        Request::Shutdown => {
            initiate_shutdown(shared);
            conn.send(&proto::encode_ok(id));
            false
        }
        Request::TraceTail { limit } => {
            shared.metrics.stats_request();
            let entries = shared.ring.tail(limit as usize);
            conn.send(&proto::encode_trace(id, &entries, shared.ring.dropped()));
            true
        }
        Request::Optimize(req) => {
            let graph = match compile_source(req.kind, &req.text) {
                Ok(graph) => graph,
                Err(e) => {
                    shared.metrics.request_error();
                    shared.tracer.counter("serve", "error", &[("count", 1)]);
                    shared.record_trace(&req.trace, &req.name, "error", 0, 0, None, conn.id);
                    conn.send(&proto::encode_error(id, &format!("{}: {e}", req.name)));
                    return true;
                }
            };
            let hash = stable_hash(&graph);
            let mut dispatch = shared.dispatch.lock().unwrap();
            // Checked under the dispatch lock so a job can never slip in
            // after the drain condition was observed true.
            if shared.shutdown.load(Ordering::SeqCst) {
                drop(dispatch);
                shared.metrics.request_error();
                conn.send(&proto::encode_error(id, "server is shutting down"));
                return true;
            }
            let queue = dispatch.queues.entry(conn.id).or_default();
            if queue.len() >= shared.queue_depth {
                let queued = queue.len() as u64;
                drop(dispatch);
                shared.metrics.rejected_busy();
                shared.tracer.counter("serve", "busy", &[("count", 1)]);
                shared.record_trace(&req.trace, &req.name, "busy", 0, 0, None, conn.id);
                conn.send(&proto::encode_busy(id, queued, shared.queue_depth as u64));
                return true;
            }
            let was_empty = queue.is_empty();
            queue.push_back(PendingJob {
                id,
                name: req.name,
                hash,
                graph,
                trace: req.trace,
                conn: Arc::clone(conn),
                clock: Instant::now(),
                queue_micros: 0,
            });
            if was_empty {
                dispatch.order.push_back(conn.id);
            }
            dispatch.queued += 1;
            let depth = dispatch.queued as u64;
            drop(dispatch);
            shared.metrics.optimize_enqueued(depth);
            shared.work_ready.notify_one();
            true
        }
    }
}

/// Stops intake, waits for every outstanding job to be answered, then
/// flushes the persistent cache index. The caller acknowledges after this
/// returns, so the `ok` is a completed-drain receipt.
fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.work_ready.notify_all();
    let mut dispatch = shared.dispatch.lock().unwrap();
    while dispatch.outstanding() > 0 {
        let (guard, _) = shared
            .drained
            .wait_timeout(dispatch, Duration::from_millis(100))
            .unwrap();
        dispatch = guard;
    }
    drop(dispatch);
    if let Some(disk) = &shared.disk {
        let _ = disk.flush_index();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut dispatch = shared.dispatch.lock().unwrap();
    loop {
        if let Some(mut job) = dispatch.pop_next() {
            job.queue_micros = job.clock.elapsed().as_micros() as u64;
            job.clock = Instant::now();
            // Single-flight: identical in-flight work parks behind the
            // leader instead of occupying this worker.
            if let Some(followers) = dispatch.inflight.get_mut(&job.hash) {
                followers.push(job);
                dispatch.parked += 1;
                continue;
            }
            dispatch.inflight.insert(job.hash, Vec::new());
            dispatch.active += 1;
            drop(dispatch);
            process_leader(shared, job);
            dispatch = shared.dispatch.lock().unwrap();
            dispatch.active -= 1;
            shared.notify_if_drained(&dispatch);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Nothing queued; parked jobs belong to an active leader.
            break;
        }
        let (guard, _) = shared
            .work_ready
            .wait_timeout(dispatch, Duration::from_millis(100))
            .unwrap();
        dispatch = guard;
    }
}

fn process_leader(shared: &Shared, mut job: PendingJob) {
    let mut span = shared.tracer.span("request", "optimize");
    span.arg("queue_micros", job.queue_micros as i64);
    // The engine consumes the parsed program; the job keeps its reply
    // address.
    let graph = std::mem::take(&mut job.graph);
    let outcome = catch_unwind(AssertUnwindSafe(|| shared.pipeline.optimize_graph(graph)));
    let followers = {
        let mut dispatch = shared.dispatch.lock().unwrap();
        let followers = dispatch.inflight.remove(&job.hash).unwrap_or_default();
        dispatch.parked -= followers.len();
        followers
        // Not drained yet: this leader still counts as active until the
        // worker loop reacquires the lock, which is after every response
        // below has been written.
    };
    span.arg("followers", followers.len() as i64);
    match outcome {
        Ok(out) => {
            if out.source == ResultSource::Fresh {
                shared.metrics.phase_timings([
                    out.timings.split.as_micros() as u64,
                    out.timings.init.as_micros() as u64,
                    out.timings.motion.as_micros() as u64,
                    out.timings.flush.as_micros() as u64,
                ]);
            }
            shared.tracer.counter(
                "serve",
                "source",
                &[
                    (out.source.label(), 1),
                    ("coalesced", followers.len() as i64),
                ],
            );
            answer(shared, &job, &out, out.source.label(), false);
            for follower in &followers {
                answer(shared, follower, &out, "coalesced", true);
            }
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            let count = 1 + followers.len() as i64;
            shared.tracer.counter("serve", "error", &[("count", count)]);
            for failed in std::iter::once(&job).chain(&followers) {
                shared.metrics.request_error();
                shared.record_trace(
                    &failed.trace,
                    &failed.name,
                    "error",
                    failed.queue_micros,
                    failed.clock.elapsed().as_micros() as u64,
                    None,
                    failed.conn.id,
                );
                failed.conn.send(&proto::encode_error(
                    failed.id,
                    &format!("{}: optimizer panicked: {message}", failed.name),
                ));
            }
        }
    }
}

fn answer(shared: &Shared, job: &PendingJob, out: &OptimizedJob, source: &str, coalesced: bool) {
    let service_micros = job.clock.elapsed().as_micros() as u64;
    let r = &out.result;
    let payload = ResultPayload {
        name: job.name.clone(),
        hash: format!("{:016x}", job.hash),
        source: source.to_owned(),
        canonical: r.canonical.clone(),
        nodes: r.nodes as u64,
        instrs: r.instrs as u64,
        points: r.points as u64,
        edges_split: r.edges_split as u64,
        rounds: r.motion.rounds as u64,
        converged: r.motion.converged,
        eliminated: r.motion.eliminated as u64,
        inserted: r.motion.inserted as u64,
        removed: r.motion.removed as u64,
        iterations: r.motion.iterations + r.flush.iterations,
        lint_errors: r.lint.as_ref().map_or(0, |l| l.errors as u64),
        lint_warnings: r.lint.as_ref().map_or(0, |l| l.warnings as u64),
        queue_micros: job.queue_micros,
        service_micros,
    };
    job.conn.send(&proto::encode_result(job.id, &payload));
    // Phase spans only for the run that actually executed the optimizer;
    // cache hits and coalesced riders carry the flat request span alone.
    let phases = (!coalesced && out.source == ResultSource::Fresh).then_some([
        out.timings.split.as_micros() as u64,
        out.timings.init.as_micros() as u64,
        out.timings.motion.as_micros() as u64,
        out.timings.flush.as_micros() as u64,
    ]);
    shared.record_trace(
        &job.trace,
        &job.name,
        source,
        job.queue_micros,
        service_micros,
        phases,
        job.conn.id,
    );
    shared.metrics.optimize_answered(
        out.source,
        coalesced,
        job.queue_micros,
        job.queue_micros + service_micros,
    );
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
