//! `serve-mixed`: an in-process `sim::service::Server` with one worker
//! and telemetry on, driven in a closed loop by two client connections.
//! Each pass starts a fresh server (so the cache starts cold), sends the
//! seed's request mix and shuts the server down. The host speed probe
//! runs before and after each pass, never beside it, and the pass's
//! host times are divided by the speed factor it measured (see
//! [`crate::speed`]).
//!
//! A client only repeats scenarios it asked for itself, after the first
//! reply, so which requests hit the cache is fixed by the seed and not
//! by how the two clients interleave.

use crate::digest::value_digest;
use crate::layers::millis;
use crate::op::check_digest;
use crate::ops::{self, key, Workload};
use crate::report::{peak_rss_mb, Report};
use crate::speed::SpeedProbe;
use crate::stats::{median, percentile};
use crate::sweep::{self, log_passes, Clock, PlainPass, TracedPass, MIN_PASSES};
use orderlight::rng::Rng;
use orderlight_sim::core_select::set_core_override;
use orderlight_sim::service::{self, Server, SERVICE_METRICS_SCHEMA_V1, SERVICE_STATS_SCHEMA_V1};
use orderlight_sim::{ScenarioSpec, SimCore};
use orderlight_trace::json::{self, Value};
use orderlight_trace::SpanPhases;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client connections (at most the host's two cores).
pub const CLIENTS: usize = 2;
/// Cache hits per distinct scenario, after its first (missing) request.
pub const REPEATS: usize = 3;
/// Per client: `stats`, `metrics`, unknown-field and bad-version
/// requests, this many of each.
pub const EXTRAS_EACH: usize = 3;
/// Speed probe samples taken before and again after each pass.
pub const PROBE_SAMPLES: usize = 10;

/// What a request must be answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A result for scenario `key`, from the cache or not.
    Result {
        /// The scenario's key.
        key: String,
        /// Whether it must be a cache hit.
        cached: bool,
    },
    /// A typed error of this kind.
    Error(&'static str),
    /// An admin reply of this kind carrying this schema tag.
    Admin(&'static str, &'static str),
}

/// One request line and its expected answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The envelope id.
    pub id: u64,
    /// The wire line (without the newline).
    pub line: String,
    /// The expected answer.
    pub expect: Expect,
}

#[derive(Debug, Clone, Copy)]
enum Item {
    Scenario(usize),
    Stats,
    Metrics,
    UnknownField(usize),
    BadVersion(usize),
}

/// The seed's request mix: one list per client. Every seed sends every
/// distinct scenario once as a miss and [`REPEATS`] times as a hit, so
/// only the split between clients, the order and the rejected documents
/// change.
#[must_use]
pub fn plan(seed: u64) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed);
    let mut scenarios = ops::serve_scenarios();
    rng.shuffle(&mut scenarios);
    let per_client = scenarios.len() / CLIENTS;
    scenarios
        .chunks(per_client)
        .enumerate()
        .map(|(client, mine)| {
            let mut items: Vec<Item> =
                (0..mine.len()).flat_map(|i| [Item::Scenario(i); REPEATS + 1]).collect();
            for _ in 0..EXTRAS_EACH {
                items.push(Item::Stats);
                items.push(Item::Metrics);
                items.push(Item::UnknownField(rng.gen_index(mine.len())));
                items.push(Item::BadVersion(rng.gen_index(mine.len())));
            }
            rng.shuffle(&mut items);
            let mut seen = vec![false; mine.len()];
            items
                .into_iter()
                .enumerate()
                .map(|(n, item)| {
                    let id = (client * 1000 + n) as u64;
                    request(id, item, mine, &mut seen)
                })
                .collect()
        })
        .collect()
}

fn request(id: u64, item: Item, mine: &[ScenarioSpec], seen: &mut [bool]) -> Request {
    // The spec's canonical document plus the id envelope and, for a
    // rejected request, one spoiled field.
    let with = |spec: &ScenarioSpec, spoil: Option<(&str, Value)>| {
        let Value::Obj(mut map) = spec.to_value() else { unreachable!("a spec is an object") };
        if let Some((field, value)) = spoil {
            map.insert(field.to_string(), value);
        }
        #[allow(clippy::cast_precision_loss)]
        map.insert("id".to_string(), Value::Num(id as f64));
        Value::Obj(map).to_json()
    };
    let admin = |cmd: &str| format!("{{\"cmd\":\"{cmd}\",\"id\":{id}}}");
    let (line, expect) = match item {
        Item::Scenario(i) => {
            let cached = std::mem::replace(&mut seen[i], true);
            (with(&mine[i], None), Expect::Result { key: key(&mine[i]), cached })
        }
        Item::Stats => (admin("stats"), Expect::Admin("stats", SERVICE_STATS_SCHEMA_V1)),
        Item::Metrics => (admin("metrics"), Expect::Admin("metrics", SERVICE_METRICS_SCHEMA_V1)),
        Item::UnknownField(i) => {
            (with(&mine[i], Some(("priority", Value::Num(1.0)))), Expect::Error("schema"))
        }
        Item::BadVersion(i) => {
            let old = Value::Str("orderlight/scenario/v0".to_string());
            (with(&mine[i], Some(("schema", old))), Expect::Error("schema"))
        }
    };
    Request { id, line, expect }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    /// Sends one line and reads replies up to the terminal one.
    fn exchange(&mut self, line: &str) -> Result<String, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
        loop {
            let mut reply = String::new();
            match self.reader.read_line(&mut reply) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let kind = service::reply_kind(reply.trim());
            if !matches!(kind.as_deref(), Some("accepted" | "running")) {
                return Ok(reply.trim().to_string());
            }
        }
    }
}

/// One request as a client saw it.
#[derive(Debug, Clone)]
struct Observed {
    latency: Duration,
    reply: String,
}

/// A checked `result` reply.
#[derive(Debug, Clone, Copy)]
struct Served {
    cached: bool,
    /// Client latency on the nominal host.
    latency: Duration,
    /// The server's span, in host time as measured.
    span: SpanPhases,
    /// The host's speed factor over the pass.
    speed: f64,
    core_cycles: u64,
    exec_time_ms: f64,
}

impl Served {
    /// A span phase in µs on the nominal host.
    #[allow(clippy::cast_precision_loss)]
    fn us(&self, phase: fn(&SpanPhases) -> u64) -> f64 {
        phase(&self.span) as f64 / self.speed
    }
}

/// What one serve pass measured; times on the nominal host.
#[derive(Debug, Default, Clone)]
struct ServePass {
    setup: Duration,
    wall: Duration,
    speed: f64,
    latencies_ms: Vec<f64>,
    served: Vec<Served>,
    exec_ms: BTreeMap<String, f64>,
}

impl ServePass {
    fn normalize(&mut self, speed: f64) {
        self.speed = speed;
        self.setup = self.setup.div_f64(speed);
        self.wall = self.wall.div_f64(speed);
        for latency in &mut self.latencies_ms {
            *latency /= speed;
        }
        for served in &mut self.served {
            served.speed = speed;
            served.latency = served.latency.div_f64(speed);
        }
    }
}

/// Checks one reply against its request; returns the result details
/// for a scenario request.
fn check_reply(
    req: &Request,
    seen: &Observed,
    expected: &BTreeMap<String, u64>,
) -> Result<Option<(String, Served)>, String> {
    let doc =
        json::parse(&seen.reply).map_err(|e| format!("id {}: unparsable reply: {e}", req.id))?;
    let field = |name: &str| doc.get(name).and_then(Value::as_str).unwrap_or("");
    #[allow(clippy::cast_precision_loss)]
    if doc.get("id").and_then(Value::as_f64) != Some(req.id as f64) {
        return Err(format!("id {}: reply carries another id: {}", req.id, seen.reply));
    }
    match &req.expect {
        Expect::Error(kind) if field("reply") == "error" && field("kind") == *kind => Ok(None),
        Expect::Admin(reply, schema) if field("reply") == *reply && field("schema") == *schema => {
            Ok(None)
        }
        Expect::Result { key, cached } if field("reply") == "result" => {
            let got_cached = doc.get("cached").and_then(Value::as_bool);
            if got_cached != Some(*cached) {
                return Err(format!("{key}: cached {got_cached:?}, expected {cached}"));
            }
            let stats = doc.get("stats").ok_or_else(|| format!("{key}: no stats"))?;
            let num = |path: &[&str]| {
                path.iter().try_fold(stats, |v, k| v.get(k)).and_then(Value::as_f64).unwrap_or(-1.0)
            };
            if num(&["verified_mismatches"]) != 0.0 || num(&["verified_matches"]) <= 0.0 {
                return Err(format!("{key}: verification failed in the served run"));
            }
            check_digest(key, value_digest(stats), expected)?;
            let span = doc
                .get("span")
                .and_then(SpanPhases::from_value)
                .ok_or_else(|| format!("{key}: no span"))?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let core_cycles = num(&["core_cycles"]) as u64;
            let served = Served {
                cached: *cached,
                latency: seen.latency,
                span,
                speed: 1.0,
                core_cycles,
                exec_time_ms: num(&["exec_time_ms"]),
            };
            Ok(Some((key.clone(), served)))
        }
        other => Err(format!("id {}: expected {other:?}, got {}", req.id, seen.reply)),
    }
}

/// Sends `requests` over one connection, one at a time.
fn drive(addr: SocketAddr, requests: &[Request]) -> Result<Vec<Observed>, String> {
    let mut conn = Conn::connect(addr)?;
    requests
        .iter()
        .map(|req| {
            let start = Instant::now();
            let reply = conn.exchange(&req.line)?;
            Ok(Observed { latency: start.elapsed(), reply })
        })
        .collect()
}

/// One pass: bind, first reply, the mix from every client at once,
/// shutdown. Per-request failures are tallied on `report`; an `Err` is
/// a pass that could not run at all.
fn serve_pass(
    plan: &[Vec<Request>],
    expected: &BTreeMap<String, u64>,
    report: &mut Report,
    probe: &mut SpeedProbe,
) -> Result<ServePass, String> {
    (0..PROBE_SAMPLES).for_each(|_| probe.sample());
    let mut pass = session(plan, expected, report)?;
    (0..PROBE_SAMPLES).for_each(|_| probe.sample());
    pass.normalize(probe.take_factor());
    Ok(pass)
}

/// The server session of one pass, in host time as measured.
fn session(
    plan: &[Vec<Request>],
    expected: &BTreeMap<String, u64>,
    report: &mut Report,
) -> Result<ServePass, String> {
    let start = Instant::now();
    let server = Server::bind("127.0.0.1:0", 1).map_err(|e| format!("bind: {e}"))?;
    let server = server.with_telemetry(true);
    let addr = server.local_addr().map_err(|e| format!("local address: {e}"))?;
    std::thread::scope(|scope| {
        let daemon = scope.spawn(move || server.run());
        let drove = (|| {
            let mut control = Conn::connect(addr)?;
            let first = control.exchange("{\"cmd\":\"stats\"}")?;
            let setup = start.elapsed();
            if service::reply_kind(&first).as_deref() != Some("stats") {
                return Err(format!("first reply is not stats: {first}"));
            }
            let begin = Instant::now();
            let clients: Vec<_> =
                plan.iter().map(|reqs| scope.spawn(move || drive(addr, reqs))).collect();
            let observed: Vec<_> =
                clients.into_iter().map(|c| c.join().expect("client thread")).collect();
            Ok((setup, begin.elapsed(), observed))
        })();
        // Shut down over a fresh connection whatever happened above.
        let bye = service::request(&addr.to_string(), "{\"cmd\":\"shutdown\"}");
        let ran = daemon.join().expect("server thread");
        let (setup, wall, observed) = drove?;
        bye.map_err(|e| format!("shutdown: {e}"))?;
        ran.map_err(|e| format!("server: {e}"))?;
        let mut pass = ServePass { setup, wall, ..ServePass::default() };
        for (requests, seen) in plan.iter().zip(observed) {
            let seen = match seen {
                Ok(seen) => seen,
                Err(e) => {
                    report.fail(format!("client: {e}"));
                    continue;
                }
            };
            for (req, obs) in requests.iter().zip(&seen) {
                pass.latencies_ms.push(millis(obs.latency));
                let outcome = check_reply(req, obs, expected).map(|served| {
                    if let Some((key, served)) = served {
                        pass.exec_ms.insert(key, served.exec_time_ms);
                        pass.served.push(served);
                    }
                });
                report.tally(outcome);
            }
        }
        Ok(pass)
    })
}

/// Runs `serve-mixed` for `seconds`.
///
/// # Errors
/// When the expectations cannot be read or a pass cannot run at all.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    // The server resolves each scenario's core itself; pin it to the
    // event core so `ORDERLIGHT_CORE` cannot change what is measured.
    set_core_override(Some(SimCore::Event));
    let plan = plan(seed);
    let expected = crate::expected(Workload::ServeMixed)?;
    let clock = Clock::new(seconds);
    let mut report = Report::default();
    let mut probe = SpeedProbe::default();
    if trace {
        traced_rounds(&plan, seed, &expected, &clock, &mut report, &mut probe)?;
        return Ok(report);
    }
    let mut passes: Vec<ServePass> = Vec::new();
    let mut last = Duration::ZERO;
    while clock.another(passes.len(), MIN_PASSES, last) {
        let round = Instant::now();
        passes.push(serve_pass(&plan, &expected, &mut report, &mut probe)?);
        last = round.elapsed();
    }
    log_passes(passes.iter().map(|p| (p.wall, p.speed)));
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    report.set("setup_s", med(passes.iter().map(|p| p.setup.as_secs_f64()).collect()));
    report.set("wall_s", med(passes.iter().map(|p| p.wall.as_secs_f64()).collect()));
    #[allow(clippy::cast_precision_loss)]
    report.set(
        "sim_mcycles_per_s",
        med(passes
            .iter()
            .map(|p| {
                let misses = p.served.iter().filter(|s| !s.cached);
                let (cycles, us) =
                    misses.fold((0, 0.0), |(c, u), s| (c + s.core_cycles, u + s.us(|p| p.run_us)));
                cycles as f64 / us.max(1.0)
            })
            .collect()),
    );
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.iter().copied()).collect();
    report.set("op_p50_ms", percentile(&latencies, 0.5).unwrap_or(0.0));
    report.set("op_p90_ms", percentile(&latencies, 0.9).unwrap_or(0.0));
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    let exec_ms = |k: &str| passes[0].exec_ms.get(k).copied();
    let speedup = sweep::speedup_geomean(&ops::serve_pairs(), exec_ms);
    report.set("ol_speedup_geomean", speedup.unwrap_or(0.0));
    Ok(report)
}

/// The traced run: rounds of a serve pass (for the service spans) and
/// an untraced and a traced direct run of the distinct scenarios (for
/// the simulator layers beneath the service).
fn traced_rounds(
    plan: &[Vec<Request>],
    seed: u64,
    expected: &BTreeMap<String, u64>,
    clock: &Clock,
    report: &mut Report,
    probe: &mut SpeedProbe,
) -> Result<(), String> {
    let order = ops::shuffled(&ops::serve_scenarios(), seed);
    let mut served: Vec<Served> = Vec::new();
    let mut plain: Vec<PlainPass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut last = Duration::ZERO;
    while clock.another(traced.len(), sweep::MIN_TRACED_ROUNDS, last) {
        let round = Instant::now();
        served.extend(serve_pass(plan, expected, report, probe)?.served);
        let (p, t) = sweep::traced_round(&order, expected, report, probe, traced.len());
        plain.push(p);
        traced.push(t);
        last = round.elapsed();
    }
    sweep::fill_traced(report, &plain, &traced);
    let med = |f: &dyn Fn(&Served) -> f64, misses_only: bool| {
        let v: Vec<f64> = served.iter().filter(|s| !(misses_only && s.cached)).map(f).collect();
        median(&v).unwrap_or(0.0)
    };
    report.set("service.parse_us", med(&|s| s.us(|p| p.parse_us), false));
    report.set("service.queue_wait_ms", med(&|s| s.us(|p| p.queue_us) / 1e3, true));
    report.set("service.run_ms", med(&|s| s.us(|p| p.run_us) / 1e3, true));
    report.set("service.serialize_us", med(&|s| s.us(|p| p.serialize_us), false));
    report.set("service.write_us", med(&|s| s.us(|p| p.write_us), true));
    #[allow(clippy::cast_precision_loss)]
    let hit_ratio = served.iter().filter(|s| s.cached).count() as f64 / served.len().max(1) as f64;
    report.set("service.cache_hit_ratio", hit_ratio);
    report.set(
        "service.client_overhead_ms",
        med(&|s| millis(s.latency) - s.us(SpanPhases::total_us) / 1e3, true),
    );
    Ok(())
}
