//! The HTTP server: acceptor thread, bounded connection queue, fixed
//! worker pool, endpoint routing, and graceful drain-then-exit
//! shutdown.
//!
//! Every thread the server spawns registers with an [`ia_obs`]
//! [`MergeSink`] (lint rule L7) and flushes its thread-local telemetry
//! after each request, so `GET /metrics` — which renders the sink's
//! merged snapshot — always reflects work completed on *other*
//! threads without tearing down the pool.
//!
//! # Telemetry plane
//!
//! Every request is assigned a **request id**, echoed back as the
//! `x-request-id` header and pushed as the worker's ambient
//! correlation context ([`ia_obs::push_context`]) for the request's
//! lifetime — so every span and trace event the request produces
//! carries it. `GET /metrics` content-negotiates between the
//! exact-`u64` JSON tree and the Prometheus 0.0.4 text exposition
//! (`Accept: text/plain`). A panicking handler answers `500` and
//! counts `serve.panics`.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ia_dse::scheduler::{execute, ExecOptions, ExecOutcome};
use ia_dse::{DseError, ExperimentSpec, RunOptions, RunOutcome};
use ia_obs::json::JsonValue;
use ia_obs::prometheus::PromWriter;
use ia_obs::{counter_add, counter_max, histogram_record, MergeSink, Snapshot, Stopwatch};
use ia_rank::canon::{BindError, BoundConfig};
use ia_rank::sensitivity::{self, elasticities};
use ia_rank::sweep::{self, CachedSolve, PointCache};

use crate::api::{
    sensitivity_response, solve_response, sweep_points, sweep_response, SensitivityRequest,
    SolveRequest, SweepRequest, SWEEP_EXEC,
};
use crate::cache::{CacheOutcome, SolveCache};
use crate::fleet::{FleetDispatcher, FleetState};
use crate::http::{self, error_body, Request};

/// Tuning knobs of one server instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// The listen address, e.g. `127.0.0.1:8080` (`:0` picks an
    /// ephemeral port; read it back with [`Server::local_addr`]).
    pub addr: String,
    /// Worker-thread count.
    pub workers: usize,
    /// Solve-cache capacity in entries.
    pub cache_entries: usize,
    /// Accepted-connection queue bound; connections beyond it are shed
    /// with `429`.
    pub queue_depth: usize,
    /// Per-request deadline, measured from accept time (queue wait
    /// counts against it).
    pub request_timeout: Duration,
    /// Request-body size ceiling; larger bodies are rejected with
    /// `413`.
    pub max_body_bytes: usize,
    /// Read by nothing. It stays only because the benchmark's
    /// `serve-mixed` workload (`perfbench/src/workloads/serve.rs`)
    /// names it in a struct literal; it goes once the benchmark drops
    /// it.
    pub diag_dir: PathBuf,
    /// Enables fleet mode: `POST /dse` jobs dispatch points to remote
    /// workers over the `/fleet/*` endpoints instead of solving them
    /// on the job thread (see [`crate::fleet`]).
    pub fleet: bool,
    /// Fleet point-lease duration; an expired lease is reclaimed and
    /// redispatched.
    pub lease_ms: u64,
    /// Heartbeat cadence advertised to fleet workers; a worker silent
    /// for a full lease period loses its leases.
    pub heartbeat_ms: u64,
    /// Run-store root for `POST /dse` jobs. When set, jobs execute
    /// through the persistent engine (`runs/<run_id>/` with
    /// `results.jsonl`), so a resubmitted spec resumes instead of
    /// recomputing.
    pub runs: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            cache_entries: 256,
            queue_depth: 64,
            request_timeout: Duration::from_secs(10),
            max_body_bytes: 64 * 1024,
            diag_dir: PathBuf::from("."),
            fleet: false,
            lease_ms: 30_000,
            heartbeat_ms: 5_000,
            runs: None,
        }
    }
}

/// One accepted connection waiting for a worker.
struct Conn {
    stream: TcpStream,
    /// Started at accept time — request reads, queue wait and compute
    /// all count against the same deadline.
    accepted: Stopwatch,
}

/// Where an asynchronous dse job stands.
enum JobPhase {
    Running,
    Done(JsonValue),
    Failed(String),
}

/// Shared state of one `POST /dse` job.
struct JobState {
    progress: AtomicU64,
    phase: Mutex<JobPhase>,
}

struct Shared {
    cfg: ServerConfig,
    local_addr: SocketAddr,
    queue: Mutex<VecDeque<Conn>>,
    wake: Condvar,
    stop: AtomicBool,
    cache: SolveCache<CachedSolve>,
    served: AtomicU64,
    sink: MergeSink,
    /// Asynchronous dse jobs by id; entries survive completion so
    /// `GET /dse/<id>` can read results until the server exits.
    jobs: Mutex<BTreeMap<u64, Arc<JobState>>>,
    next_job: AtomicU64,
    /// Job threads, joined (after the worker pool) by [`Server::join`].
    /// Jobs observe the stop flag as a cancel signal, so a graceful
    /// drain stops them at the next point boundary.
    job_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Request ids handed out per accepted request, starting at 1.
    next_request: AtomicU64,
    /// Fleet coordinator bookkeeping; `Some` only in fleet mode.
    fleet: Option<FleetState>,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Flips the stop flag, wakes every worker, and pokes the listener
    /// with a throwaway connection so the blocking `accept` returns.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.notify_all();
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running server: an acceptor plus `cfg.workers` worker threads.
///
/// Dropping the handle does not stop the server; call
/// [`Server::shutdown`] (or `POST /shutdown`) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and starts the acceptor and worker threads.
    /// Enables the [`ia_obs`] collector so `/metrics` has data.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        ia_obs::set_enabled(true);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let worker_count = std::cmp::max(1, cfg.workers);
        let shared = Arc::new(Shared {
            cache: SolveCache::new(cfg.cache_entries),
            fleet: cfg
                .fleet
                .then(|| FleetState::new(cfg.lease_ms, cfg.heartbeat_ms)),
            cfg,
            local_addr,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            sink: MergeSink::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(0),
            job_handles: Mutex::new(Vec::new()),
            next_request: AtomicU64::new(0),
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let _guard = shared.sink.register_worker("serve.acceptor");
                accept_loop(&shared, &listener);
            })
        };

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(thread::spawn(move || {
                let name = format!("serve.worker.{i}");
                let _guard = shared.sink.register_worker(&name);
                worker_loop(&shared);
            }));
        }

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The sink the server's threads merge telemetry into. Callers can
    /// `collect()` it into their own thread-local storage after
    /// [`Server::join`], or `peek_snapshot()` it at any time.
    #[must_use]
    pub fn sink(&self) -> &MergeSink {
        &self.shared.sink
    }

    /// Begins a graceful shutdown: stop accepting, let workers drain
    /// the queue and finish in-flight requests.
    pub fn shutdown(&self) {
        self.shared.request_stop();
    }

    /// Waits for the acceptor, all workers, and any dse job threads to
    /// exit, then merges their telemetry into the calling thread's
    /// collector storage. Returns the number of requests served.
    #[must_use]
    pub fn join(mut self) -> u64 {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Jobs see the stop flag as their cancel signal, so after the
        // drain they stop at the next point boundary.
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.shared.job_handles));
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.sink.collect();
        self.shared.served.load(Ordering::SeqCst)
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let accepted = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The shutdown poke (or a straggler); drop it unserved.
            break;
        }
        let conn = Conn {
            stream: accepted,
            accepted: Stopwatch::start(),
        };
        let enqueued = {
            let mut queue = lock(&shared.queue);
            if queue.len() >= shared.cfg.queue_depth {
                Err(conn)
            } else {
                queue.push_back(conn);
                Ok(queue.len())
            }
        };
        match enqueued {
            Ok(depth) => {
                counter_add("serve.queue.enqueued", 1);
                counter_max(
                    "serve.queue.depth_max",
                    u64::try_from(depth).unwrap_or(u64::MAX),
                );
                shared.wake.notify_one();
            }
            Err(shed) => {
                counter_add("serve.queue.shed", 1);
                let mut stream = shed.stream;
                http::write_response(&mut stream, 429, &error_body("server queue is full"));
            }
        }
        shared.sink.flush_thread();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let conn = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(conn) = queue.pop_front() {
                    break Some(conn);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(conn) = conn else { break };
        handle(shared, conn);
        shared.served.fetch_add(1, Ordering::SeqCst);
        shared.sink.flush_thread();
    }
}

fn handle(shared: &Arc<Shared>, mut conn: Conn) {
    counter_add("serve.requests", 1);
    let request_id = shared.next_request.fetch_add(1, Ordering::SeqCst) + 1;
    let request_hex = ia_obs::context_hex(request_id);
    let _ctx = ia_obs::push_context(request_id);
    let request = match http::read_request(
        &mut conn.stream,
        &conn.accepted,
        shared.cfg.request_timeout,
        shared.cfg.max_body_bytes,
    ) {
        Ok(request) => request,
        Err(e) => {
            let status = e.status();
            if status != 0 {
                counter_add(status_counter(status), 1);
                let response = http::Response::json(status, error_body(&e.message()))
                    .with_header("x-request-id", &request_hex);
                http::write(&mut conn.stream, &response);
            }
            return;
        }
    };
    let outcome = {
        let _span = ia_obs::span("serve.request");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(shared, &request, &conn.accepted)
        }))
    };
    let response = match outcome {
        Ok(response) => response,
        Err(_) => {
            // The default panic hook has already printed the message
            // and location to stderr.
            counter_add("serve.panics", 1);
            http::Response::json(500, error_body("request handler panicked"))
        }
    };
    counter_add(status_counter(response.status), 1);
    let latency_us = conn.accepted.elapsed_ns() / 1_000;
    histogram_record(latency_histogram(&request.path), latency_us);
    let response = response.with_header("x-request-id", &request_hex);
    http::write(&mut conn.stream, &response);
}

fn route(shared: &Arc<Shared>, request: &Request, started: &Stopwatch) -> http::Response {
    let json = |(status, body): (u16, String)| http::Response::json(status, body);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => json(healthz(shared)),
        ("GET", "/metrics") => metrics(shared, request),
        ("POST", "/debug/panic") => {
            // Deliberate fault injection so the panic → 500 path stays
            // testable end to end. `panic_any` (rather than the
            // `panic!` macro) keeps the request path clean under the
            // no-panic lint, which targets *accidental* panics; the
            // worker's catch_unwind turns this into a 500.
            std::panic::panic_any("deliberate panic via /debug/panic")
        }
        ("POST", "/solve") => json(solve_endpoint(shared, &request.body, started)),
        ("POST", "/sweep") => json(sweep_endpoint(shared, &request.body, started)),
        ("POST", "/sensitivity") => json(sensitivity_endpoint(shared, &request.body, started)),
        ("POST", "/dse") => json(dse_endpoint(shared, &request.body)),
        ("GET", path) if path.strip_prefix("/dse/").is_some() => json(dse_status_endpoint(
            shared,
            path.trim_start_matches("/dse/"),
        )),
        ("POST", "/fleet/register") => json(fleet_endpoint(shared, &request.body, "register")),
        ("POST", "/fleet/claim") => json(fleet_endpoint(shared, &request.body, "claim")),
        ("POST", "/fleet/result") => json(fleet_endpoint(shared, &request.body, "result")),
        ("POST", "/shutdown") => {
            shared.request_stop();
            json((200, r#"{"status":"shutting down"}"#.to_owned()))
        }
        (
            _,
            "/healthz" | "/metrics" | "/debug/panic" | "/solve" | "/sweep" | "/sensitivity"
            | "/dse" | "/fleet/register" | "/fleet/claim" | "/fleet/result" | "/shutdown",
        ) => json((
            405,
            error_body(&format!(
                "method {} not allowed for {}",
                request.method, request.path
            )),
        )),
        (_, path) => json((404, error_body(&format!("no such route `{path}`")))),
    }
}

/// Dispatches one `/fleet/*` request to the coordinator state, or
/// rejects it when fleet mode is off.
fn fleet_endpoint(shared: &Shared, body: &[u8], action: &str) -> (u16, String) {
    let Some(fleet) = &shared.fleet else {
        return (
            503,
            error_body("fleet mode is disabled (start serve with --fleet)"),
        );
    };
    match action {
        "register" => fleet.register(body),
        "claim" => fleet.claim(body, shared.stop.load(Ordering::SeqCst)),
        _ => fleet.result(body),
    }
}

fn status_counter(status: u16) -> &'static str {
    match status {
        200 => "serve.http.200",
        202 => "serve.http.202",
        400 => "serve.http.400",
        404 => "serve.http.404",
        405 => "serve.http.405",
        408 => "serve.http.408",
        413 => "serve.http.413",
        429 => "serve.http.429",
        431 => "serve.http.431",
        500 => "serve.http.500",
        503 => "serve.http.503",
        _ => "serve.http.other",
    }
}

fn latency_histogram(path: &str) -> &'static str {
    match path {
        "/solve" => "serve.latency_us.solve",
        "/sweep" => "serve.latency_us.sweep",
        "/sensitivity" => "serve.latency_us.sensitivity",
        "/healthz" => "serve.latency_us.healthz",
        "/metrics" => "serve.latency_us.metrics",
        path if path == "/dse" || path.starts_with("/dse/") => "serve.latency_us.dse",
        path if path.starts_with("/fleet/") => "serve.latency_us.fleet",
        _ => "serve.latency_us.other",
    }
}

/// `GET /healthz`: liveness plus queue and cache occupancy. In fleet
/// mode the body ends with a `fleet` block: worker, queue and lease
/// occupancy.
fn healthz(shared: &Shared) -> (u16, String) {
    let queued = lock(&shared.queue).len();
    let mut fields = vec![
        ("status".to_owned(), JsonValue::Str("ok".to_owned())),
        (
            "workers".to_owned(),
            JsonValue::UInt(u64::try_from(std::cmp::max(1, shared.cfg.workers)).unwrap_or(0)),
        ),
        (
            "queue_depth".to_owned(),
            JsonValue::UInt(u64::try_from(queued).unwrap_or(0)),
        ),
        (
            "cache_entries".to_owned(),
            JsonValue::UInt(u64::try_from(shared.cache.len()).unwrap_or(0)),
        ),
    ];
    if let Some(fleet) = &shared.fleet {
        fields.push(("fleet".to_owned(), fleet.healthz_json()));
    }
    (200, JsonValue::Obj(fields).render())
}

fn metrics(shared: &Shared, request: &Request) -> http::Response {
    // Fold this worker's own telemetry in first so the snapshot also
    // covers requests it has served since its last flush.
    shared.sink.flush_thread();
    let snapshot = shared.sink.peek_snapshot();
    if request.accepts_plain_text() {
        return http::Response::text(
            200,
            "text/plain; version=0.0.4",
            render_prometheus(&snapshot),
        );
    }
    let mut doc = snapshot.to_json();
    if let JsonValue::Obj(fields) = &mut doc {
        let rates = derived_rates(fields);
        if !rates.is_empty() {
            fields.push(("derived".to_owned(), JsonValue::Obj(rates)));
        }
    }
    http::Response::json(200, doc.render())
}

/// Renders the Prometheus text-exposition view of a snapshot: RED
/// series first (per-endpoint request totals and duration histograms
/// from the `serve.latency_us.*` histograms, per-status-class response
/// totals from the `serve.http.*` counters), then the generic
/// `iarank_*` families for every counter, span, and histogram.
fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut w = PromWriter::new();
    let endpoints: Vec<(&str, &ia_obs::HistogramStat)> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, stat)| {
            name.strip_prefix("serve.latency_us.")
                .map(|endpoint| (endpoint, stat))
        })
        .collect();
    if !endpoints.is_empty() {
        w.family(
            "iarank_http_requests_total",
            "counter",
            "HTTP requests served, by endpoint.",
        );
        for (endpoint, stat) in &endpoints {
            w.sample(
                "iarank_http_requests_total",
                &[("endpoint", endpoint)],
                stat.count,
            );
        }
    }
    let classes: Vec<(&str, u64)> = snapshot
        .counters
        .iter()
        .filter_map(|(name, value)| {
            name.strip_prefix("serve.http.").map(|code| {
                let class = match code.as_bytes().first() {
                    Some(b'2') => "2xx",
                    Some(b'3') => "3xx",
                    Some(b'4') => "4xx",
                    Some(b'5') => "5xx",
                    _ => "other",
                };
                (class, *value)
            })
        })
        .collect();
    if !classes.is_empty() {
        w.family(
            "iarank_http_responses_total",
            "counter",
            "HTTP responses sent, by status class.",
        );
        let mut totals: Vec<(&str, u64)> = Vec::new();
        for (class, value) in classes {
            match totals.iter_mut().find(|(c, _)| *c == class) {
                Some((_, total)) => *total += value,
                None => totals.push((class, value)),
            }
        }
        for (class, total) in totals {
            w.sample("iarank_http_responses_total", &[("class", class)], total);
        }
    }
    if !endpoints.is_empty() {
        w.family(
            "iarank_http_request_duration_us",
            "histogram",
            "HTTP request duration in microseconds, by endpoint.",
        );
        for (endpoint, stat) in &endpoints {
            w.histogram(
                "iarank_http_request_duration_us",
                &[("endpoint", endpoint)],
                stat,
            );
        }
    }
    let mut out = w.finish();
    out.push_str(&ia_obs::prometheus::render_snapshot(snapshot, "iarank"));
    out
}

/// Computes the derived cache hit rates from the raw counters: the
/// server's own `/solve` cache (a `shared` outcome waited on another
/// request's compute, so it counts as a hit) and the point cache the
/// sweep/dse engines consult. Rates appear only once the matching
/// lookups have happened.
fn derived_rates(fields: &[(String, JsonValue)]) -> Vec<(String, JsonValue)> {
    let counter = |name: &str| -> u64 {
        fields
            .iter()
            .find(|(key, _)| key == "counters")
            .and_then(|(_, counters)| counters.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let ratio =
        |hits: u64, lookups: u64| -> JsonValue { JsonValue::Num(hits as f64 / lookups as f64) };
    let mut rates = Vec::new();
    let solve_hits = counter("serve.cache.hits") + counter("serve.cache.shared");
    let solve_lookups = solve_hits + counter("serve.cache.misses");
    if solve_lookups > 0 {
        rates.push((
            "serve.cache.hit_rate".to_owned(),
            ratio(solve_hits, solve_lookups),
        ));
    }
    let sweep_hits = counter("sweep.cache.hits");
    let sweep_lookups = sweep_hits + counter("sweep.cache.misses");
    if sweep_lookups > 0 {
        rates.push((
            "sweep.cache.hit_rate".to_owned(),
            ratio(sweep_hits, sweep_lookups),
        ));
    }
    rates
}

/// Parses a JSON body, mapping UTF-8 and JSON failures to 400.
fn parse_body(body: &[u8]) -> Result<JsonValue, (u16, String)> {
    let text =
        std::str::from_utf8(body).map_err(|_| (400, error_body("request body is not UTF-8")))?;
    JsonValue::parse(text).map_err(|e| (400, error_body(&format!("malformed JSON: {e}"))))
}

fn over_deadline(shared: &Shared, started: &Stopwatch) -> bool {
    started.elapsed() >= shared.cfg.request_timeout
}

fn solve_endpoint(shared: &Shared, body: &[u8], started: &Stopwatch) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(err) => return err,
    };
    let config = match SolveRequest::from_json(&doc) {
        Ok(SolveRequest(config)) => config,
        Err(e) => return (400, error_body(&e.0)),
    };
    if over_deadline(shared, started) {
        return (503, error_body("deadline exceeded before solve"));
    }
    let solve = || config.solve().map_err(|e| e.to_string());
    match shared.cache.get_or_compute(config.cache_key(), solve) {
        Ok((value, outcome, evicted)) => {
            counter_add(outcome_counter(outcome), 1);
            if evicted > 0 {
                counter_add("serve.cache.evictions", evicted);
            }
            if over_deadline(shared, started) {
                return (503, error_body("deadline exceeded during solve"));
            }
            (200, solve_response(&value, outcome.label()).render())
        }
        Err(message) => (400, error_body(&message)),
    }
}

fn outcome_counter(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "serve.cache.hits",
        CacheOutcome::Miss => "serve.cache.misses",
        CacheOutcome::Shared => "serve.cache.shared",
    }
}

/// Why a `/sweep` or `/sensitivity` batch stopped short: the reply's
/// status and message.
struct BatchStop(u16, String);

impl From<DseError> for BatchStop {
    fn from(e: DseError) -> Self {
        BatchStop(500, e.to_string())
    }
}

/// `POST /sweep`: one configuration per swept value
/// ([`sweep::configs`]), run as a batch by [`run_points`]. Misses run on
/// up to `--workers` threads when `parallel` is set, else one.
fn sweep_endpoint(shared: &Shared, body: &[u8], started: &Stopwatch) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(err) => return err,
    };
    let request = match SweepRequest::from_json(&doc) {
        Ok(request) => request,
        Err(e) => return (400, error_body(&e.0)),
    };
    let axis = request.axis;
    let values = request
        .values
        .unwrap_or_else(|| axis.paper_values().to_vec());
    let configs = sweep::configs(&request.base, axis, &values);
    let workers = if request.parallel {
        shared.cfg.workers
    } else {
        1
    };
    match run_points(shared, started, &request.base, configs, workers, "sweep") {
        Ok(outcome) => {
            let points = sweep_points(&values, &outcome);
            let body = sweep_response(axis, &points, outcome.cached, outcome.solved);
            (200, body.render())
        }
        Err(BatchStop(status, message)) => (status, error_body(&message)),
    }
}

/// `POST /sensitivity`: the nine configurations of
/// [`sensitivity::points`], run by [`run_points`] with one worker, as a
/// non-parallel `/sweep`. The base is the content address of a
/// `/solve` of the same fields, so each warms the other.
fn sensitivity_endpoint(shared: &Shared, body: &[u8], started: &Stopwatch) -> (u16, String) {
    let doc = match parse_body(body) {
        Ok(doc) => doc,
        Err(err) => return err,
    };
    let request = match SensitivityRequest::from_json(&doc) {
        Ok(request) => request,
        Err(e) => return (400, error_body(&e.0)),
    };
    let configs = sensitivity::points(&request.base, request.step);
    let outcome = match run_points(shared, started, &request.base, configs, 1, "sensitivity") {
        Ok(outcome) => outcome,
        Err(BatchStop(status, message)) => return (status, error_body(&message)),
    };
    let normalized: Vec<f64> = outcome
        .results
        .iter()
        .flatten()
        .map(|s| s.normalized)
        .collect();
    let Ok(normalized) = <[f64; sensitivity::POINTS]>::try_from(normalized) else {
        return (503, error_body("deadline exceeded during sensitivity"));
    };
    let report = elasticities(&request.base, request.step, &normalized);
    (200, sensitivity_response(&report).render())
}

/// Runs the configurations built from `base` as one batch on the dse
/// point executor with `workers` threads, against the server's solve
/// cache and under the `sweep.*` telemetry names. A base that cannot
/// bind is a 400 even when the batch is empty, and so is a
/// configuration that could not be built. Hits are answered on this
/// thread. Every fresh solve first checks the deadline and the stop
/// flag, so a late request stops between points with a 503 instead of
/// running its whole batch.
fn run_points(
    shared: &Shared,
    started: &Stopwatch,
    base: &BoundConfig,
    configs: Result<Vec<BoundConfig>, BindError>,
    workers: usize,
    what: &str,
) -> Result<ExecOutcome, BatchStop> {
    if over_deadline(shared, started) {
        return Err(BatchStop(503, format!("deadline exceeded before {what}")));
    }
    let invalid = |e: BindError| BatchStop(400, e.to_string());
    base.bind()
        .and_then(|bound| bound.builder().map(drop))
        .map_err(invalid)?;
    let configs = configs.map_err(invalid)?;
    let late = || BatchStop(503, format!("deadline exceeded during {what}"));
    let solve = |config: &BoundConfig| {
        if over_deadline(shared, started) || shared.stop.load(Ordering::SeqCst) {
            return Err(late());
        }
        config.solve().map_err(invalid)
    };
    let opts = ExecOptions {
        workers,
        ..ExecOptions::default()
    };
    let cache = ServeDseCache {
        cache: &shared.cache,
    };
    let outcome = execute(
        &SWEEP_EXEC,
        &configs,
        &BoundConfig::cache_key,
        &solve,
        &cache,
        &opts,
    )?;
    if over_deadline(shared, started) {
        return Err(late());
    }
    Ok(outcome)
}

/// [`PointCache`] adapter for `/sweep`, `/sensitivity` and dse jobs:
/// their points read and write the server's solve cache under the same
/// content addresses `/solve` uses, so each warms the others.
struct ServeDseCache<'s> {
    cache: &'s SolveCache<CachedSolve>,
}

impl PointCache for ServeDseCache<'_> {
    fn lookup(&self, key: u128) -> Option<CachedSolve> {
        self.cache.lookup(key)
    }

    fn store(&self, key: u128, value: CachedSolve) {
        let evicted = self.cache.insert(key, value);
        if evicted > 0 {
            counter_add("serve.cache.evictions", evicted);
        }
    }
}

/// `POST /dse`: parse an experiment spec, start an asynchronous
/// exploration job against the shared solve cache, and return its id.
fn dse_endpoint(shared: &Arc<Shared>, body: &[u8]) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(body) else {
        return (400, error_body("request body is not UTF-8"));
    };
    let spec = match ExperimentSpec::parse_str(text) {
        Ok(spec) => spec,
        Err(e) => return (400, error_body(&e.to_string())),
    };
    if shared.stop.load(Ordering::SeqCst) {
        return (503, error_body("server is shutting down"));
    }
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst) + 1;
    let state = Arc::new(JobState {
        progress: AtomicU64::new(0),
        phase: Mutex::new(JobPhase::Running),
    });
    lock(&shared.jobs).insert(id, Arc::clone(&state));
    let job_shared = Arc::clone(shared);
    let handle = thread::spawn(move || {
        let _guard = job_shared.sink.register_worker(&format!("serve.dse.{id}"));
        run_dse_job(&job_shared, &state, &spec);
    });
    lock(&shared.job_handles).push(handle);
    counter_add("serve.dse.jobs", 1);
    let body = JsonValue::Obj(vec![
        ("job".to_owned(), JsonValue::UInt(id)),
        ("status".to_owned(), JsonValue::Str("running".to_owned())),
    ]);
    (202, body.render())
}

/// Executes one dse job on its own thread. The server's stop flag is
/// the cancel signal, so a graceful drain stops the job at the next
/// point boundary and its partial result is still readable.
fn run_dse_job(shared: &Shared, state: &JobState, spec: &ExperimentSpec) {
    // Correlate everything this job traces on the spec's
    // content-addressed run id, not the transient HTTP request id — the
    // same spec resubmitted later correlates to the same stream.
    let run_id = spec.run_id();
    let _ctx = ia_obs::push_context(ia_obs::context_for(&run_id));
    let cache = ServeDseCache {
        cache: &shared.cache,
    };
    // In fleet mode points are dispatched to remote workers; with a
    // run-store root they persist under `runs/<run_id>/` (resumable);
    // the two compose freely.
    let dispatcher = shared
        .fleet
        .as_ref()
        .map(|fleet| FleetDispatcher::new(fleet, &shared.stop));
    let opts = RunOptions {
        cancel: Some(&shared.stop),
        progress: Some(&state.progress),
        solver: dispatcher.as_ref().map(|d| d as &dyn ia_dse::PointSolver),
        ..RunOptions::default()
    };
    let result = match &shared.cfg.runs {
        Some(runs) => ia_dse::run(spec, runs, &opts),
        None => ia_dse::explore(spec, &cache, &opts),
    };
    let phase = match result {
        Ok(outcome) => JobPhase::Done(dse_result_json(&run_id, &outcome)),
        Err(e) => JobPhase::Failed(e.to_string()),
    };
    *lock(&state.phase) = phase;
    shared.sink.flush_thread();
}

/// Renders a finished job's outcome: the run id the job correlates on,
/// the execution counts, per-round phase timings, and every completed
/// point with its coordinates and solved metrics.
fn dse_result_json(run_id: &str, outcome: &RunOutcome) -> JsonValue {
    let points: Vec<JsonValue> = outcome
        .points
        .iter()
        .map(|point| {
            JsonValue::Obj(vec![
                (
                    "coords".to_owned(),
                    JsonValue::Arr(point.coords.iter().map(|&x| JsonValue::Num(x)).collect()),
                ),
                (
                    "key".to_owned(),
                    JsonValue::Str(format!("{:032x}", point.key)),
                ),
                (
                    "solve".to_owned(),
                    ia_dse::store::solve_to_json(&point.solve),
                ),
            ])
        })
        .collect();
    let rounds_detail: Vec<JsonValue> = outcome
        .round_timings
        .iter()
        .map(|t| {
            JsonValue::Obj(vec![
                ("round".to_owned(), JsonValue::UInt(t.round)),
                ("points".to_owned(), JsonValue::UInt(t.points)),
                ("solved".to_owned(), JsonValue::UInt(t.solved)),
                ("cached".to_owned(), JsonValue::UInt(t.cached)),
                ("execute_ns".to_owned(), JsonValue::UInt(t.execute_ns)),
                ("refine_ns".to_owned(), JsonValue::UInt(t.refine_ns)),
                ("dp_expand_ns".to_owned(), JsonValue::UInt(t.dp_expand_ns)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("run_id".to_owned(), JsonValue::Str(run_id.to_owned())),
        (
            "total_points".to_owned(),
            JsonValue::UInt(outcome.total_points),
        ),
        ("solved".to_owned(), JsonValue::UInt(outcome.solved)),
        ("cached".to_owned(), JsonValue::UInt(outcome.cached)),
        ("skipped".to_owned(), JsonValue::UInt(outcome.skipped)),
        ("rounds".to_owned(), JsonValue::UInt(outcome.rounds)),
        ("complete".to_owned(), JsonValue::Bool(outcome.complete)),
        ("rounds_detail".to_owned(), JsonValue::Arr(rounds_detail)),
        ("points".to_owned(), JsonValue::Arr(points)),
    ])
}

/// `GET /dse/<id>`: report a job's progress or final result.
fn dse_status_endpoint(shared: &Shared, id_text: &str) -> (u16, String) {
    let Ok(id) = id_text.parse::<u64>() else {
        return (400, error_body(&format!("bad job id `{id_text}`")));
    };
    let Some(state) = lock(&shared.jobs).get(&id).cloned() else {
        return (404, error_body(&format!("no such dse job {id}")));
    };
    let progress = state.progress.load(Ordering::SeqCst);
    let mut fields = vec![("job".to_owned(), JsonValue::UInt(id))];
    match &*lock(&state.phase) {
        JobPhase::Running => {
            fields.push(("status".to_owned(), JsonValue::Str("running".to_owned())));
            fields.push(("progress".to_owned(), JsonValue::UInt(progress)));
        }
        JobPhase::Done(result) => {
            fields.push(("status".to_owned(), JsonValue::Str("done".to_owned())));
            fields.push(("progress".to_owned(), JsonValue::UInt(progress)));
            fields.push(("result".to_owned(), result.clone()));
        }
        JobPhase::Failed(message) => {
            fields.push(("status".to_owned(), JsonValue::Str("failed".to_owned())));
            fields.push(("error".to_owned(), JsonValue::Str(message.clone())));
        }
    }
    (200, JsonValue::Obj(fields).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_latency_names_are_total() {
        assert_eq!(status_counter(200), "serve.http.200");
        assert_eq!(status_counter(418), "serve.http.other");
        assert_eq!(latency_histogram("/solve"), "serve.latency_us.solve");
        assert_eq!(latency_histogram("/nope"), "serve.latency_us.other");
    }

    #[test]
    fn derived_rates_stay_absent_until_a_lookup_happens() {
        // A cold server has zero cache lookups; emitting a 0/0 rate
        // would put a NaN on the JSON surface, so the keys must be
        // absent entirely.
        assert!(derived_rates(&[]).is_empty());
        let cold = vec![("counters".to_owned(), JsonValue::Obj(Vec::new()))];
        assert!(derived_rates(&cold).is_empty());
        // Only misses: the rate exists and is exactly zero.
        let misses = vec![(
            "counters".to_owned(),
            JsonValue::Obj(vec![("serve.cache.misses".to_owned(), JsonValue::UInt(3))]),
        )];
        let rates = derived_rates(&misses);
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].0, "serve.cache.hit_rate");
        assert!(matches!(rates[0].1, JsonValue::Num(r) if r == 0.0));
        // Hits and shared waits both count as hits.
        let mixed = vec![(
            "counters".to_owned(),
            JsonValue::Obj(vec![
                ("serve.cache.hits".to_owned(), JsonValue::UInt(1)),
                ("serve.cache.shared".to_owned(), JsonValue::UInt(1)),
                ("serve.cache.misses".to_owned(), JsonValue::UInt(2)),
                ("sweep.cache.hits".to_owned(), JsonValue::UInt(4)),
                ("sweep.cache.misses".to_owned(), JsonValue::UInt(0)),
            ]),
        )];
        let rates = derived_rates(&mixed);
        assert_eq!(rates.len(), 2);
        assert!(matches!(rates[0].1, JsonValue::Num(r) if (r - 0.5).abs() < 1e-12));
        assert!(matches!(rates[1].1, JsonValue::Num(r) if r == 1.0));
    }
}
