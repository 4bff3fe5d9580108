//! Simulation-as-a-service: the `orderlight serve` daemon.
//!
//! A dependency-free, thread-per-connection TCP server over
//! [`std::net::TcpListener`] that accepts scenario requests on a
//! newline-delimited JSON protocol, batches independent runs onto a
//! persistent worker pool (the run-level parallelism unit from
//! [`crate::pool`]), streams progress and final [`RunStats`] back to
//! many concurrent clients, and memoizes completed runs in a bounded
//! LRU cache keyed by [`crate::Scenario::canonical_hash`].
//!
//! ## Wire protocol
//!
//! One JSON object per line, both directions. A request is either an
//! `orderlight/scenario/v1` document ([`crate::schema`]) with an
//! optional extra `"id"` field echoed back verbatim, or an admin
//! command:
//!
//! | request | terminal reply |
//! |---|---|
//! | scenario document | `{"reply":"result",...}` (below) |
//! | `{"cmd":"stats"}` | [`SERVICE_STATS_SCHEMA_V1`]: cache size / hits / misses / hit ratio / insertions / evictions / SLO |
//! | `{"cmd":"metrics"}` | [`SERVICE_METRICS_SCHEMA_V1`]: canonical-JSON registry snapshot (`"format":"text"` for exposition lines) |
//! | `{"cmd":"flightrec"}` | [`FLIGHTREC_SCHEMA_V1`]: recent request records + last error payloads |
//! | `{"cmd":"shutdown"}` | `{"reply":"bye"}` and the daemon exits |
//!
//! A scenario request answers with up to three lines:
//!
//! ```text
//! {"id":7,"reply":"accepted","scenario_hash":"0x..."}   (cache miss only)
//! {"id":7,"reply":"running"}                            (cache miss only)
//! {"id":7,"reply":"result","cached":false,"latency_us":...,"slo":{...},"span":{...},"stats":{...}}
//! ```
//!
//! Every failure is a typed single-line reply, never a dropped
//! connection: `{"reply":"error","kind":K,"message":...}` with `kind`
//! one of `parse` (malformed JSON), `schema` (versioning / unknown
//! field / bad value, see [`crate::schema::SchemaError`]), `config`
//! (fields valid but
//! inconsistent), `sim` (the run itself failed) or `proto` (bad admin
//! command, or a request line over [`MAX_LINE_BYTES`]). A non-UTF-8
//! line is a `parse` error.
//!
//! ## The telemetry plane
//!
//! The daemon carries a live [`MetricsRegistry`]: per-state request
//! counters, cache hit/miss/insertion/eviction counters and a size
//! gauge, queue depth, per-worker busy/idle time, bytes in/out, and
//! sharded latency histograms. Every request is measured as a
//! [`SpanPhases`] (parse → queue-wait → run → serialize → write) that
//! rides the result reply under `"span"` and lands — with the scenario
//! hash and outcome — in a bounded flight recorder
//! ([`FLIGHT_RECORDER_REQUESTS`] recent requests,
//! [`FLIGHT_RECORDER_ERRORS`] recent error payloads).
//!
//! Telemetry is **observe-only**: every counter, span and flight
//! record for a request commits *before* its terminal reply bytes are
//! written (so a client that has read its reply always sees the
//! request reflected in the very next metrics snapshot), and disabling
//! telemetry ([`Server::with_telemetry`]) changes no result `stats`
//! payload — the contract the serve smoke gate `cmp`s. Snapshot
//! semantics: metric groups `requests`, `cache` and `queue` are exact
//! and deterministic under a serialized session; `io`, `workers` and
//! `timing` are wall-clock and only monotonicity is guaranteed.
//!
//! ## Why the cache is exact
//!
//! [`crate::System::run`] is a pure function of its config — the
//! parallel-equivalence and core-equivalence suites prove bit-identical
//! results at any worker count and under either execution core. A
//! request's canonical hash therefore fully determines its reply bytes,
//! so a cached reply *is* the true reply, not an approximation; the
//! `ci.sh` smoke gate `cmp`s served replies against a direct in-process
//! run. Results enter the cache before the socket write, so a client
//! disconnecting mid-run never loses the work — and because the cache
//! is exact, LRU eviction ([`Server::with_cache_max`]) is purely a
//! memory/latency trade: an evicted scenario recomputes bit-identically.
//!
//! The bench suite's `point_latency_us` percentiles become the service
//! SLO: every result reply carries the p50/p95/p99 of request latency
//! so far, and `{"cmd":"stats"}` exposes hit/miss counters.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use orderlight_trace::json::{self, Value};
use orderlight_trace::{Counter, Gauge, Histogram, MetricsRegistry, ShardedHistogram, SpanPhases};

use crate::schema::{stats_to_value, ScenarioSpec};

/// Schema tag of the `{"cmd":"stats"}` reply.
pub const SERVICE_STATS_SCHEMA_V1: &str = "orderlight/service-stats/v1";
/// Schema tag of the `{"cmd":"metrics"}` reply.
pub const SERVICE_METRICS_SCHEMA_V1: &str = "orderlight/service-metrics/v1";
/// Schema tag of the `{"cmd":"flightrec"}` reply.
pub const FLIGHTREC_SCHEMA_V1: &str = "orderlight/flightrec/v1";

/// How many recent request records the flight recorder retains.
pub const FLIGHT_RECORDER_REQUESTS: usize = 256;
/// How many recent error payloads the flight recorder retains.
pub const FLIGHT_RECORDER_ERRORS: usize = 32;

/// How often a blocked connection reader wakes up to check for
/// shutdown, so `run` can join handler threads even when a client
/// holds an idle connection open.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line the server reads, newline excluded. A longer
/// line is answered with a `proto` error and skipped, so one client
/// cannot grow a server buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What a worker reports back to the connection handler that enqueued
/// the job.
enum JobEvent {
    /// The run left the queue and started executing.
    Started,
    /// The run finished: the canonical stats JSON, or a message.
    Finished(Result<String, String>),
}

/// One queued simulation.
struct Job {
    spec: ScenarioSpec,
    hash: u64,
    events: mpsc::Sender<JobEvent>,
}

/// The scenario cache: canonical hash → canonical stats JSON, bounded
/// by LRU eviction when `max > 0`. Recency is a logical tick stamped on
/// every hit and insert; eviction removes the smallest stamp. The map
/// stays small (eviction bounds it), so the O(len) stamp scan on insert
/// is cheaper than maintaining an intrusive list.
struct LruCache {
    map: HashMap<u64, (String, u64)>,
    tick: u64,
    max: usize,
    insertions: u64,
    evictions: u64,
}

impl LruCache {
    /// `max == 0` means unbounded.
    fn new(max: usize) -> Self {
        LruCache { map: HashMap::new(), tick: 0, max, insertions: 0, evictions: 0 }
    }

    /// Looks up a result, refreshing its recency on a hit.
    fn get(&mut self, hash: u64) -> Option<String> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&hash).map(|(json, stamp)| {
            *stamp = tick;
            json.clone()
        })
    }

    /// Inserts a result, evicting least-recently-used entries while the
    /// bound is exceeded. Returns `(newly inserted, entries evicted)`.
    fn insert(&mut self, hash: u64, json: String) -> (bool, usize) {
        self.tick += 1;
        let fresh = self.map.insert(hash, (json, self.tick)).is_none();
        if fresh {
            self.insertions += 1;
        }
        let mut evicted = 0;
        while self.max > 0 && self.map.len() > self.max {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&h, _)| h)
                .expect("non-empty cache");
            self.map.remove(&oldest);
            evicted += 1;
        }
        self.evictions += evicted as u64;
        (fresh, evicted)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One flight-recorder entry: what happened to a recent request.
struct FlightRecord {
    seq: u64,
    hash: Option<u64>,
    outcome: String,
    span: SpanPhases,
    latency_us: u64,
}

/// Bounded ring of recent request records plus the last N error
/// payloads — the "what just happened" surface behind
/// `{"cmd":"flightrec"}`.
#[derive(Default)]
struct FlightRecorder {
    next_seq: u64,
    requests: VecDeque<FlightRecord>,
    errors: VecDeque<String>,
}

impl FlightRecorder {
    fn record(&mut self, hash: Option<u64>, outcome: String, span: SpanPhases, latency_us: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.requests.push_back(FlightRecord { seq, hash, outcome, span, latency_us });
        while self.requests.len() > FLIGHT_RECORDER_REQUESTS {
            self.requests.pop_front();
        }
    }

    fn record_error(&mut self, payload: String) {
        self.errors.push_back(payload);
        while self.errors.len() > FLIGHT_RECORDER_ERRORS {
            self.errors.pop_front();
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn to_value(&self) -> (Value, Value) {
        let requests: Vec<Value> = self
            .requests
            .iter()
            .map(|r| {
                let mut map = BTreeMap::new();
                map.insert("seq".to_string(), Value::Num(r.seq as f64));
                if let Some(hash) = r.hash {
                    map.insert("scenario_hash".to_string(), Value::Str(format!("{hash:#018x}")));
                }
                map.insert("outcome".to_string(), Value::Str(r.outcome.clone()));
                map.insert("latency_us".to_string(), Value::Num(r.latency_us as f64));
                map.insert("phases".to_string(), r.span.to_value());
                Value::Obj(map)
            })
            .collect();
        let errors: Vec<Value> = self.errors.iter().map(|e| Value::Str(e.clone())).collect();
        (Value::Arr(requests), Value::Arr(errors))
    }
}

/// The registered metric handles plus the flight recorder — present
/// only when telemetry is enabled. Handles are registered once at
/// server start; the hot path touches only relaxed atomics and sharded
/// histogram mutexes.
struct Telemetry {
    registry: MetricsRegistry,
    requests_received: Arc<Counter>,
    requests_accepted: Arc<Counter>,
    requests_running: Arc<Counter>,
    requests_result: Arc<Counter>,
    requests_error: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_insertions: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_size: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
    workers_jobs: Arc<Counter>,
    workers_busy_us: Arc<Counter>,
    workers_idle_us: Arc<Counter>,
    io_bytes_in: Arc<Counter>,
    io_bytes_out: Arc<Counter>,
    timing_latency_us: Arc<ShardedHistogram>,
    timing_queue_wait_us: Arc<ShardedHistogram>,
    timing_run_us: Arc<ShardedHistogram>,
    flightrec: Mutex<FlightRecorder>,
}

impl Telemetry {
    fn new(workers: usize) -> Self {
        let registry = MetricsRegistry::new();
        let shards = workers.max(2);
        Telemetry {
            requests_received: registry.counter("requests.received"),
            requests_accepted: registry.counter("requests.accepted"),
            requests_running: registry.counter("requests.running"),
            requests_result: registry.counter("requests.result"),
            requests_error: registry.counter("requests.error"),
            cache_hits: registry.counter("cache.hits"),
            cache_misses: registry.counter("cache.misses"),
            cache_insertions: registry.counter("cache.insertions"),
            cache_evictions: registry.counter("cache.evictions"),
            cache_size: registry.gauge("cache.size"),
            queue_depth: registry.gauge("queue.depth"),
            workers_busy: registry.gauge("workers.busy"),
            workers_jobs: registry.counter("workers.jobs"),
            workers_busy_us: registry.counter("workers.busy_us"),
            workers_idle_us: registry.counter("workers.idle_us"),
            io_bytes_in: registry.counter("io.bytes_in"),
            io_bytes_out: registry.counter("io.bytes_out"),
            timing_latency_us: registry.histogram("timing.latency_us", shards, 1, 40),
            timing_queue_wait_us: registry.histogram("timing.queue_wait_us", shards, 1, 40),
            timing_run_us: registry.histogram("timing.run_us", shards, 1, 40),
            flightrec: Mutex::new(FlightRecorder::default()),
            registry,
        }
    }
}

/// State shared between the acceptor, connection handlers and workers.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    cache: Mutex<LruCache>,
    /// Request latency in µs (queue wait + run, or cache lookup).
    latency_us: Mutex<Histogram>,
    hits: AtomicU64,
    misses: AtomicU64,
    slow_us: Option<u64>,
    telemetry: Option<Telemetry>,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(workers: usize, cache_max: usize, slow_ms: Option<u64>, telemetry: bool) -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            cache: Mutex::new(LruCache::new(cache_max)),
            latency_us: Mutex::new(Histogram::exponential(1, 40)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            slow_us: slow_ms.map(|ms| ms.saturating_mul(1000)),
            telemetry: telemetry.then(|| Telemetry::new(workers)),
            shutdown: AtomicBool::new(false),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Records one request latency and returns the SLO percentiles
    /// including it.
    fn record_latency(&self, us: u64) -> Value {
        let mut hist = self.latency_us.lock().expect("latency lock");
        hist.record(us);
        slo_value(&hist)
    }

    /// Inserts a finished run into the cache, applying the LRU bound
    /// and mirroring size/insertion/eviction telemetry under the cache
    /// lock (so gauge and map never disagree).
    fn cache_insert(&self, hash: u64, stats_json: String) {
        let mut cache = self.cache.lock().expect("cache lock");
        let (fresh, evicted) = cache.insert(hash, stats_json);
        if let Some(t) = &self.telemetry {
            if fresh {
                t.cache_insertions.inc();
            }
            t.cache_evictions.add(evicted as u64);
            t.cache_size.set(i64::try_from(cache.len()).unwrap_or(i64::MAX));
        }
    }

    /// Commits a terminal `result` for a request: per-state counters,
    /// hit/miss attribution, timing histograms and the flight record —
    /// all *before* the reply bytes leave the socket.
    fn commit_result(&self, hash: u64, cached: bool, span: SpanPhases, latency_us: u64) {
        if let Some(t) = &self.telemetry {
            t.requests_result.inc();
            if cached {
                t.cache_hits.inc();
            } else {
                t.cache_misses.inc();
                t.timing_queue_wait_us.record(span.queue_us);
                t.timing_run_us.record(span.run_us);
            }
            t.timing_latency_us.record(latency_us);
            let outcome = if cached { "result-hit" } else { "result-miss" };
            t.flightrec.lock().expect("flightrec lock").record(
                Some(hash),
                outcome.to_string(),
                span,
                latency_us,
            );
        }
    }

    /// Commits a terminal `error` reply: the error counter, the flight
    /// record and the error-payload ring.
    fn commit_error(&self, hash: Option<u64>, span: SpanPhases, latency_us: u64, reply: &Value) {
        if let Some(t) = &self.telemetry {
            t.requests_error.inc();
            let kind = reply.get("kind").and_then(Value::as_str).unwrap_or("unknown");
            let mut rec = t.flightrec.lock().expect("flightrec lock");
            rec.record(hash, format!("error:{kind}"), span, latency_us);
            rec.record_error(reply.to_json());
        }
    }
}

/// `{"p50":..,"p95":..,"p99":..}` from a latency histogram.
fn slo_value(hist: &Histogram) -> Value {
    let mut slo = BTreeMap::new();
    for (name, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        #[allow(clippy::cast_precision_loss)]
        let v = hist.percentile(p).unwrap_or(0) as f64;
        slo.insert(name.to_string(), Value::Num(v));
    }
    Value::Obj(slo)
}

/// The `orderlight serve` daemon. [`Server::bind`] it, read
/// [`Server::local_addr`], then [`Server::run`] — which blocks until a
/// client sends `{"cmd": "shutdown"}`.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    cache_max: usize,
    slow_ms: Option<u64>,
    telemetry: bool,
}

impl Server {
    /// Binds the listener. `workers` is clamped to at least 1.
    /// Telemetry defaults to enabled, the cache to unbounded, the slow
    /// log to off.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
            cache_max: 0,
            slow_ms: None,
            telemetry: true,
        })
    }

    /// Bounds the scenario cache to `max` entries with LRU eviction
    /// (`0` = unbounded, the default).
    #[must_use]
    pub fn with_cache_max(mut self, max: usize) -> Server {
        self.cache_max = max;
        self
    }

    /// Enables the slow-request log: a request whose run phase exceeds
    /// `ms` milliseconds emits one canonical-JSON line to stderr.
    #[must_use]
    pub fn with_slow_ms(mut self, ms: Option<u64>) -> Server {
        self.slow_ms = ms;
        self
    }

    /// Enables or disables the telemetry plane (metrics registry,
    /// spans, flight recorder). Disabling it changes no result `stats`
    /// payload — telemetry only observes.
    #[must_use]
    pub fn with_telemetry(mut self, on: bool) -> Server {
        self.telemetry = on;
        self
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown: spawns the worker pool, then accepts
    /// connections and handles each on its own thread. Returns once
    /// every worker and handler has joined.
    ///
    /// # Errors
    /// Propagates accept failures other than shutdown.
    pub fn run(self) -> std::io::Result<()> {
        let shared = Shared::new(self.workers, self.cache_max, self.slow_ms, self.telemetry);
        let addr = self.local_addr()?;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker_loop(&shared));
            }
            for stream in self.listener.incoming() {
                if shared.shutting_down() {
                    break;
                }
                let stream = stream?;
                let shared = &shared;
                scope.spawn(move || handle_connection(stream, shared, addr));
            }
            // Unblock the workers so the scope can join them.
            shared.available.notify_all();
            Ok(())
        })
    }
}

/// Pops jobs until shutdown. Runs each scenario with panics contained,
/// inserts the canonical result into the cache *before* reporting back
/// (a disconnected client must not lose the work), then wakes the
/// handler. Time blocked on the queue is idle, time in the run busy.
fn worker_loop(shared: &Shared) {
    loop {
        let idle_start = Instant::now();
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutting_down() {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        if let Some(t) = &shared.telemetry {
            t.workers_idle_us.add(elapsed_us(idle_start));
            t.queue_depth.dec();
            t.workers_busy.inc();
        }
        let _ = job.events.send(JobEvent::Started);
        let busy_start = Instant::now();
        let outcome = run_job(&job.spec);
        if let Ok(stats_json) = &outcome {
            shared.cache_insert(job.hash, stats_json.clone());
        }
        if let Some(t) = &shared.telemetry {
            t.workers_busy_us.add(elapsed_us(busy_start));
            t.workers_jobs.inc();
            t.workers_busy.dec();
        }
        let _ = job.events.send(JobEvent::Finished(outcome));
    }
}

/// Builds and runs one scenario, mapping panics and simulation errors
/// to messages. Returns the canonical stats JSON on success.
fn run_job(spec: &ScenarioSpec) -> Result<String, String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let scenario = spec.build().map_err(|e| e.to_string())?;
        let stats = scenario.run().map_err(|e| e.to_string())?;
        Ok(stats_to_value(&stats).to_json())
    }));
    run.unwrap_or_else(|_| Err("simulation panicked".to_string()))
}

/// Serves one client connection: a loop of request lines, each
/// answered with typed reply lines. Returns (dropping the connection)
/// on EOF, socket error or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared, self_addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // A request is answered with several small reply lines (accepted,
    // running, result); with Nagle's algorithm on, each line after the
    // first waits for the client's delayed ACK (tens of ms).
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The line read so far (newline included once it arrives). A read
    // timeout keeps it, so a client may pause mid-line.
    let mut line = Vec::new();
    // Set once the line outgrew `MAX_LINE_BYTES`: it has been answered,
    // and its remaining bytes are discarded up to the newline.
    let mut overlong = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutting_down() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let eof = chunk.is_empty();
        let (take, complete) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), eof),
        };
        if !overlong {
            line.extend_from_slice(&chunk[..take]);
        }
        reader.consume(take);
        if let Some(t) = &shared.telemetry {
            t.io_bytes_in.add(take as u64);
        }
        if !overlong && line.len() > MAX_LINE_BYTES + usize::from(line.ends_with(b"\n")) {
            overlong = true;
            line = Vec::new();
            if !reject_line(
                &mut writer,
                shared,
                "proto",
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            ) {
                return;
            }
        }
        if complete {
            let keep_open = if std::mem::take(&mut overlong) {
                true
            } else {
                match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => true,
                    Ok(text) => handle_request(text.trim(), &mut writer, shared, self_addr),
                    Err(_) => {
                        reject_line(&mut writer, shared, "parse", "request line is not UTF-8")
                    }
                }
            };
            line.clear();
            if eof || !keep_open {
                return;
            }
        }
    }
}

/// Answers a request line that never reaches the JSON parser with a
/// typed error. Returns `false` when the connection should close.
fn reject_line(writer: &mut TcpStream, shared: &Shared, kind: &str, message: &str) -> bool {
    let start = Instant::now();
    if let Some(t) = &shared.telemetry {
        t.requests_received.inc();
    }
    let reply = error_reply(None, kind, message);
    fail(writer, shared, start, SpanPhases::default(), &reply)
}

/// Writes an error reply, committing its telemetry first.
fn fail(
    writer: &mut TcpStream,
    shared: &Shared,
    start: Instant,
    mut span: SpanPhases,
    reply: &Value,
) -> bool {
    span.parse_us = span.parse_us.max(elapsed_us(start));
    shared.commit_error(None, span, elapsed_us(start), reply);
    write_reply(writer, reply, shared)
}

/// Handles one request line. Returns `false` when the connection
/// should close (write failure or shutdown).
fn handle_request(line: &str, writer: &mut TcpStream, shared: &Shared, addr: SocketAddr) -> bool {
    let start = Instant::now();
    if let Some(t) = &shared.telemetry {
        t.requests_received.inc();
    }
    let mut span = SpanPhases::default();
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            let reply = error_reply(None, "parse", &e.to_string());
            return fail(writer, shared, start, span, &reply);
        }
    };
    // Envelope: an optional "id" echoed on every reply for this
    // request; "cmd" marks an admin request.
    let (doc, id) = split_id(doc);
    if let Value::Obj(map) = &doc {
        if let Some(cmd) = map.get("cmd") {
            return handle_admin(cmd, &doc, id.as_ref(), writer, shared, addr);
        }
    }
    let spec = match ScenarioSpec::from_value(&doc) {
        Ok(spec) => spec,
        Err(e) => {
            let reply = error_reply(id.as_ref(), "schema", &e.to_string());
            return fail(writer, shared, start, span, &reply);
        }
    };
    let scenario = match spec.build() {
        Ok(s) => s,
        Err(e) => {
            let reply = error_reply(id.as_ref(), "config", &e.to_string());
            return fail(writer, shared, start, span, &reply);
        }
    };
    let hash = scenario.canonical_hash();
    span.parse_us = elapsed_us(start);

    if let Some(stats_json) = shared.cache.lock().expect("cache lock").get(hash) {
        shared.hits.fetch_add(1, Ordering::Relaxed);
        let us = elapsed_us(start);
        let slo = shared.record_latency(us);
        let serialize_start = Instant::now();
        let mut reply = result_reply(id.as_ref(), true, us, slo, &stats_json);
        span.serialize_us = elapsed_us(serialize_start);
        if shared.telemetry.is_some() {
            reply.insert("span".to_string(), span.to_value());
        }
        shared.commit_result(hash, true, span, us);
        return write_reply(writer, &Value::Obj(reply), shared);
    }

    shared.misses.fetch_add(1, Ordering::Relaxed);
    let mut accepted = reply_base(id.as_ref(), "accepted");
    accepted.insert("scenario_hash".to_string(), Value::Str(format!("{hash:#018x}")));
    if let Some(t) = &shared.telemetry {
        t.requests_accepted.inc();
    }
    let write_start = Instant::now();
    if !write_reply(writer, &Value::Obj(accepted), shared) {
        return false;
    }
    span.write_us += elapsed_us(write_start);

    let (tx, rx) = mpsc::channel();
    let enqueued = Instant::now();
    shared.queue.lock().expect("queue lock").push_back(Job { spec, hash, events: tx });
    if let Some(t) = &shared.telemetry {
        t.queue_depth.inc();
    }
    shared.available.notify_one();

    // The worker owns the run; this handler only relays events, so a
    // dead client can break the relay without wedging the worker.
    let mut client_alive = true;
    let mut run_started = enqueued;
    loop {
        match rx.recv() {
            Ok(JobEvent::Started) => {
                run_started = Instant::now();
                span.queue_us = elapsed_us(enqueued);
                if let Some(t) = &shared.telemetry {
                    t.requests_running.inc();
                }
                if client_alive {
                    let write_start = Instant::now();
                    client_alive = write_reply(
                        writer,
                        &Value::Obj(reply_base(id.as_ref(), "running")),
                        shared,
                    );
                    span.write_us += elapsed_us(write_start);
                }
            }
            Ok(JobEvent::Finished(Ok(stats_json))) => {
                span.run_us = elapsed_us(run_started);
                let us = elapsed_us(start);
                let slo = shared.record_latency(us);
                let serialize_start = Instant::now();
                let mut reply = result_reply(id.as_ref(), false, us, slo, &stats_json);
                span.serialize_us = elapsed_us(serialize_start);
                if shared.telemetry.is_some() {
                    reply.insert("span".to_string(), span.to_value());
                }
                shared.commit_result(hash, false, span, us);
                slow_log(shared, hash, &span);
                if client_alive {
                    client_alive = write_reply(writer, &Value::Obj(reply), shared);
                }
                return client_alive;
            }
            Ok(JobEvent::Finished(Err(message))) => {
                span.run_us = elapsed_us(run_started);
                let reply = error_reply(id.as_ref(), "sim", &message);
                shared.commit_error(Some(hash), span, elapsed_us(start), &reply);
                if client_alive {
                    client_alive = write_reply(writer, &reply, shared);
                }
                return client_alive;
            }
            Err(_) => return false,
        }
    }
}

/// Emits the slow-request log line when the run phase exceeded the
/// configured threshold: one canonical-JSON record on stderr with the
/// scenario hash and the full phase breakdown.
fn slow_log(shared: &Shared, hash: u64, span: &SpanPhases) {
    let Some(threshold_us) = shared.slow_us else { return };
    if span.run_us <= threshold_us {
        return;
    }
    let mut map = BTreeMap::new();
    map.insert("event".to_string(), Value::Str("slow_request".to_string()));
    map.insert("scenario_hash".to_string(), Value::Str(format!("{hash:#018x}")));
    #[allow(clippy::cast_precision_loss)]
    map.insert("run_us".to_string(), Value::Num(span.run_us as f64));
    #[allow(clippy::cast_precision_loss)]
    map.insert("threshold_us".to_string(), Value::Num(threshold_us as f64));
    map.insert("phases".to_string(), span.to_value());
    eprintln!("{}", Value::Obj(map).to_json());
}

/// Handles `{"cmd": ...}`. Returns `false` to close the connection.
fn handle_admin(
    cmd: &Value,
    doc: &Value,
    id: Option<&Value>,
    writer: &mut TcpStream,
    shared: &Shared,
    addr: SocketAddr,
) -> bool {
    let num = |v: u64| {
        #[allow(clippy::cast_precision_loss)]
        Value::Num(v as f64)
    };
    match cmd.as_str() {
        Some("shutdown") => {
            shared.shutdown.store(true, Ordering::Relaxed);
            shared.available.notify_all();
            // Poke the acceptor loop so it observes the flag.
            let _ = TcpStream::connect(addr);
            write_reply(writer, &Value::Obj(reply_base(id, "bye")), shared);
            false
        }
        Some("stats") => {
            let mut reply = reply_base(id, "stats");
            reply.insert("schema".to_string(), Value::Str(SERVICE_STATS_SCHEMA_V1.to_string()));
            let hits = shared.hits.load(Ordering::Relaxed);
            let misses = shared.misses.load(Ordering::Relaxed);
            reply.insert("hits".to_string(), num(hits));
            reply.insert("misses".to_string(), num(misses));
            let ratio = if hits + misses == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                {
                    hits as f64 / (hits + misses) as f64
                }
            };
            reply.insert("hit_ratio".to_string(), Value::Num(ratio));
            {
                let cache = shared.cache.lock().expect("cache lock");
                let size = num(cache.len() as u64);
                reply.insert("cached_scenarios".to_string(), size.clone());
                reply.insert("cache_size".to_string(), size);
                reply.insert("cache_max".to_string(), num(cache.max as u64));
                reply.insert("insertions".to_string(), num(cache.insertions));
                reply.insert("evictions".to_string(), num(cache.evictions));
            }
            reply.insert("slo".to_string(), slo_value(&shared.latency_us.lock().expect("latency")));
            write_reply(writer, &Value::Obj(reply), shared)
        }
        Some("metrics") => {
            let Some(t) = &shared.telemetry else {
                let reply = error_reply(id, "proto", "telemetry is disabled on this server");
                return write_reply(writer, &reply, shared);
            };
            let mut reply = reply_base(id, "metrics");
            reply.insert("schema".to_string(), Value::Str(SERVICE_METRICS_SCHEMA_V1.to_string()));
            if doc.get("format").and_then(Value::as_str) == Some("text") {
                reply.insert("text".to_string(), Value::Str(t.registry.to_text()));
            } else {
                reply.insert("snapshot".to_string(), t.registry.snapshot_value());
            }
            write_reply(writer, &Value::Obj(reply), shared)
        }
        Some("flightrec") => {
            let Some(t) = &shared.telemetry else {
                let reply = error_reply(id, "proto", "telemetry is disabled on this server");
                return write_reply(writer, &reply, shared);
            };
            let mut reply = reply_base(id, "flightrec");
            reply.insert("schema".to_string(), Value::Str(FLIGHTREC_SCHEMA_V1.to_string()));
            reply.insert("capacity".to_string(), num(FLIGHT_RECORDER_REQUESTS as u64));
            let (requests, errors) = t.flightrec.lock().expect("flightrec lock").to_value();
            reply.insert("requests".to_string(), requests);
            reply.insert("errors".to_string(), errors);
            write_reply(writer, &Value::Obj(reply), shared)
        }
        _ => {
            let reply = error_reply(id, "proto", &format!("unknown cmd {cmd:?}"));
            shared.commit_error(None, SpanPhases::default(), 0, &reply);
            write_reply(writer, &reply, shared)
        }
    }
}

/// Pulls the optional `"id"` envelope field out of a request object so
/// the remainder is a pure schema document.
fn split_id(doc: Value) -> (Value, Option<Value>) {
    match doc {
        Value::Obj(mut map) => {
            let id = map.remove("id");
            (Value::Obj(map), id)
        }
        other => (other, None),
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn reply_base(id: Option<&Value>, reply: &str) -> BTreeMap<String, Value> {
    let mut map = BTreeMap::new();
    if let Some(id) = id {
        map.insert("id".to_string(), id.clone());
    }
    map.insert("reply".to_string(), Value::Str(reply.to_string()));
    map
}

fn error_reply(id: Option<&Value>, kind: &str, message: &str) -> Value {
    let mut map = reply_base(id, "error");
    map.insert("kind".to_string(), Value::Str(kind.to_string()));
    map.insert("message".to_string(), Value::Str(message.to_string()));
    Value::Obj(map)
}

fn result_reply(
    id: Option<&Value>,
    cached: bool,
    latency_us: u64,
    slo: Value,
    stats_json: &str,
) -> BTreeMap<String, Value> {
    let mut map = reply_base(id, "result");
    map.insert("cached".to_string(), Value::Bool(cached));
    #[allow(clippy::cast_precision_loss)]
    map.insert("latency_us".to_string(), Value::Num(latency_us as f64));
    map.insert("slo".to_string(), slo);
    let stats = json::parse(stats_json).unwrap_or(Value::Null);
    map.insert("stats".to_string(), stats);
    map
}

/// Serialises one reply and writes it as a line, counting the bytes
/// out. Returns `false` on a write failure (client gone).
fn write_reply(writer: &mut TcpStream, reply: &Value, shared: &Shared) -> bool {
    let mut line = reply.to_json();
    line.push('\n');
    if let Some(t) = &shared.telemetry {
        t.io_bytes_out.add(line.len() as u64);
    }
    writer.write_all(line.as_bytes()).is_ok()
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// Sends one request line to a server and collects reply lines until
/// the terminal `result` / `error` / `stats` / `metrics` / `flightrec`
/// / `bye` reply (or EOF).
///
/// # Errors
/// Propagates connection and write failures.
pub fn request(addr: &str, line: &str) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    writer.write_all(format!("{line}\n").as_bytes())?;
    let mut replies = Vec::new();
    for reply in BufReader::new(stream).lines() {
        let reply = reply?;
        let terminal = reply_kind(&reply).is_none_or(|k| {
            matches!(k.as_str(), "result" | "error" | "stats" | "metrics" | "flightrec" | "bye")
        });
        replies.push(reply);
        if terminal {
            break;
        }
    }
    Ok(replies)
}

/// The `"reply"` discriminator of a reply line, when it parses.
#[must_use]
pub fn reply_kind(line: &str) -> Option<String> {
    let doc = json::parse(line).ok()?;
    doc.get("reply")?.as_str().map(ToString::to_string)
}

/// Extracts the embedded `stats` object of a `result` reply and
/// re-serialises it canonically — byte-identical to what
/// [`stats_to_value`] produces for the same run, which is what lets
/// clients `cmp` a served reply against a local run.
#[must_use]
pub fn extract_stats(result_line: &str) -> Option<String> {
    let doc = json::parse(result_line).ok()?;
    if doc.get("reply")?.as_str()? != "result" {
        return None;
    }
    Some(doc.get("stats")?.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_builders_echo_the_id() {
        let id = Value::Num(7.0);
        let err = error_reply(Some(&id), "parse", "nope").to_json();
        assert_eq!(err, r#"{"id":7,"kind":"parse","message":"nope","reply":"error"}"#);
        let (doc, id) = split_id(json::parse(r#"{"id": 3, "cmd": "stats"}"#).unwrap());
        assert_eq!(id, Some(Value::Num(3.0)));
        assert!(doc.get("id").is_none());
        assert!(doc.get("cmd").is_some());
    }

    #[test]
    fn reply_kind_and_stats_extraction() {
        let slo = slo_value(&Histogram::exponential(1, 4));
        let line = Value::Obj(result_reply(None, true, 12, slo, r#"{"b":2,"a":1}"#)).to_json();
        assert_eq!(reply_kind(&line).as_deref(), Some("result"));
        // Canonical re-serialisation sorts the embedded keys.
        assert_eq!(extract_stats(&line).as_deref(), Some(r#"{"a":1,"b":2}"#));
        assert_eq!(extract_stats(r#"{"reply":"running"}"#), None);
    }

    #[test]
    fn lru_cache_evicts_the_least_recently_used_entry() {
        let mut cache = LruCache::new(2);
        assert_eq!(cache.insert(1, "a".into()), (true, 0));
        assert_eq!(cache.insert(2, "b".into()), (true, 0));
        // Touch 1 so 2 becomes the eviction victim.
        assert_eq!(cache.get(1).as_deref(), Some("a"));
        assert_eq!(cache.insert(3, "c".into()), (true, 1));
        assert_eq!(cache.get(2), None, "least-recently-used entry evicted");
        assert_eq!(cache.get(1).as_deref(), Some("a"));
        assert_eq!(cache.get(3).as_deref(), Some("c"));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.insertions, cache.evictions), (3, 1));
        // Re-inserting an existing key is not a new insertion.
        assert_eq!(cache.insert(1, "a2".into()), (false, 0));
        assert_eq!(cache.insertions, 3);
    }

    #[test]
    fn lru_cache_unbounded_never_evicts() {
        let mut cache = LruCache::new(0);
        for k in 0..100 {
            assert_eq!(cache.insert(k, format!("{k}")), (true, 0));
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.evictions, 0);
    }

    #[test]
    fn flight_recorder_rings_are_bounded() {
        let mut fr = FlightRecorder::default();
        for i in 0..(FLIGHT_RECORDER_REQUESTS as u64 + 10) {
            fr.record(Some(i), "result-miss".to_string(), SpanPhases::default(), i);
        }
        for i in 0..(FLIGHT_RECORDER_ERRORS + 5) {
            fr.record_error(format!("e{i}"));
        }
        assert_eq!(fr.requests.len(), FLIGHT_RECORDER_REQUESTS);
        assert_eq!(fr.errors.len(), FLIGHT_RECORDER_ERRORS);
        // Oldest entries dropped: the first surviving seq is 10.
        assert_eq!(fr.requests.front().map(|r| r.seq), Some(10));
        let (requests, errors) = fr.to_value();
        assert_eq!(requests.as_array().unwrap().len(), FLIGHT_RECORDER_REQUESTS);
        assert_eq!(errors.as_array().unwrap().len(), FLIGHT_RECORDER_ERRORS);
        assert_eq!(errors.as_array().unwrap()[0].as_str(), Some("e5"));
    }
}
