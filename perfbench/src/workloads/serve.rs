//! `serve-mixed`: an in-process `ia_serve::Server` with 2 workers and
//! the collector on (`Server::bind` forces it), driven over HTTP in an
//! open loop on a seeded schedule by two generator threads with one
//! connection each. About 83% of requests are `/solve` over a working
//! set warmed in set-up (hits), about 2.5% are `/solve` with a Miller
//! factor never sent before at the 1M / 130 nm default (misses, one
//! instrumented DP solve each), and about 15% are `/sweep` over the
//! warmed M column (hits through the sweep path): about 270 sweeps a
//! run, and no more misses than
//! one connection sends without falling behind. Misses go out on their
//! own generator, so a slow solve never delays the hit traffic at the
//! client; the rate stays well below what two workers serve.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ia_obs::json::JsonValue;
use ia_rank::canon::BoundConfig;
use ia_rank::sweep::CachedSolve;
use ia_serve::api::solve_response;
use ia_serve::{Server, ServerConfig, SolveRequest};

use super::{err, fastest_of_calls, lower};
use crate::loadgen::{poisson, run_open_loop, Planned, Rng, Sent};
use crate::{host, report_host, report_setup, stats, trace, Ctx, Report, Setups};

/// Working-set configurations answered from the cache.
const WORKING_SET: usize = 8;
/// Gate count of the working set and the swept column: the hit paths do
/// no DP, so a small design keeps the warm-up short.
const WARM_GATES: u64 = 20_000;
/// Hit and sweep requests per second (generator A).
const HIT_RATE: f64 = 60.0;
/// Miss requests per second (generator B).
const MISS_RATE: f64 = 1.5;
/// Share of generator A's requests that are sweeps.
const SWEEP_SHARE: f64 = 0.15;
/// A generator gives up on a response after this long.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit(usize),
    Sweep,
    Miss(usize),
}

/// One response as the generator saw it.
struct Response {
    status: u16,
    body: String,
}

/// One HTTP exchange on a fresh connection: the server answers one
/// request per connection and closes it. A traced request (`Some(id)`)
/// records its connect under a span.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    traced: Option<u64>,
) -> Result<Response, String> {
    let mut stream = {
        let _s = traced.map(|id| trace::span("serve.connect", id));
        TcpStream::connect(addr).map_err(err)?
    };
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(err)?;
    stream.set_nodelay(true).map_err(err)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(err)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(err)?;
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response `{}`", raw.lines().next().unwrap_or("")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok(Response { status, body })
}

/// The request bodies and the seeded schedule.
struct Workload {
    working: Vec<BoundConfig>,
    misses: Vec<BoundConfig>,
    hits_plan: Vec<Planned<Kind>>,
    miss_plan: Vec<Planned<Kind>>,
}

fn solve_body(config: &BoundConfig) -> String {
    let base = BoundConfig::default();
    let mut fields = Vec::new();
    if config.gates != base.gates {
        fields.push(format!("\"gates\": {}", config.gates));
    }
    if let Some(k) = config.k {
        fields.push(format!("\"k\": {k}"));
    }
    if config.miller != base.miller {
        fields.push(format!("\"miller\": {}", config.miller));
    }
    format!("{{{}}}", fields.join(", "))
}

fn sweep_body() -> String {
    format!("{{\"axis\": \"m\", \"gates\": {WARM_GATES}}}")
}

fn sweep_config(miller: f64) -> BoundConfig {
    BoundConfig {
        gates: WARM_GATES,
        miller,
        ..BoundConfig::default()
    }
}

/// Draws `count` distinct integers below `range`.
fn distinct(rng: &mut Rng, count: usize, range: u64) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.next_u64() % range;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn workload(seed: u64, seconds: Duration) -> Workload {
    let mut rng = Rng::new(seed ^ 0x5E87_E000);
    // Working set: K values on a 0.01 grid over 1.8..3.9.
    let working = distinct(&mut rng, WORKING_SET, 211)
        .into_iter()
        .map(|n| BoundConfig {
            gates: WARM_GATES,
            k: Some((180 + n) as f64 / 100.0),
            ..BoundConfig::default()
        })
        .collect();
    let hits_plan = poisson(
        &mut rng,
        Duration::from_secs_f64(1.0 / HIT_RATE),
        seconds,
        |r| {
            if r.unit() < SWEEP_SHARE {
                Kind::Sweep
            } else {
                Kind::Hit(usize::try_from(r.next_u64() % WORKING_SET as u64).unwrap_or(0))
            }
        },
    );
    let mut next_miss = 0usize;
    let miss_plan = poisson(
        &mut rng,
        Duration::from_secs_f64(1.0 / MISS_RATE),
        seconds,
        |_| {
            next_miss += 1;
            Kind::Miss(next_miss - 1)
        },
    );
    // Misses: Miller factors on a 1e-6 grid over 1.8..2.2, each sent
    // once, none equal to the default.
    let misses = distinct(&mut rng, miss_plan.len(), 400_000)
        .into_iter()
        .map(|n| (1_800_000 + n) as f64 / 1e6)
        .map(|m| if m == 2.0 { 2.2 } else { m })
        .map(|miller| BoundConfig {
            miller,
            ..BoundConfig::default()
        })
        .collect();
    Workload {
        working,
        misses,
        hits_plan,
        miss_plan,
    }
}

/// A bound, warmed server; shuts down and joins when dropped.
struct Warm {
    server: Option<Server>,
    addr: SocketAddr,
}

impl Drop for Warm {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            let _ = server.join();
        }
    }
}

fn warm_up(ctx: &Ctx, w: &Workload) -> Result<Warm, String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        diag_dir: ctx.scratch.join("diag"),
        ..ServerConfig::default()
    })
    .map_err(err)?;
    let warm = Warm {
        addr: server.local_addr(),
        server: Some(server),
    };
    for config in &w.working {
        let r = request(warm.addr, "POST", "/solve", &solve_body(config), None)?;
        if r.status != 200 {
            return Err(format!("warm-up /solve answered {}: {}", r.status, r.body));
        }
    }
    let r = request(warm.addr, "POST", "/sweep", &sweep_body(), None)?;
    if r.status != 200 {
        return Err(format!("warm-up /sweep answered {}: {}", r.status, r.body));
    }
    Ok(warm)
}

/// Expected ranks, from `BoundConfig::solve` on the same inputs.
fn expected_rank(config: &BoundConfig) -> Result<u64, String> {
    config.solve().map(|s| s.rank).map_err(err)
}

fn field_u64(doc: &JsonValue, key: &str) -> Option<u64> {
    doc.get(key).and_then(JsonValue::as_u64)
}

struct Checked {
    hits: Vec<f64>,
    misses: Vec<f64>,
    sweeps: Vec<f64>,
}

/// Checks every response by value and sorts latencies by class; a
/// failed, refused, timed-out or wrong response counts in `failed`.
fn check_all(
    report: &mut Report,
    w: &Workload,
    sent: &[(Kind, Sent<Result<Response, String>>)],
) -> Result<Checked, String> {
    let working: Vec<u64> = w
        .working
        .iter()
        .map(expected_rank)
        .collect::<Result<_, _>>()?;
    let column: Vec<(f64, u64)> = super::sweep::grid("m")
        .into_iter()
        .map(|m| expected_rank(&sweep_config(m)).map(|r| (m, r)))
        .collect::<Result<_, _>>()?;
    let mut out = Checked {
        hits: Vec::new(),
        misses: Vec::new(),
        sweeps: Vec::new(),
    };
    for (kind, s) in sent {
        let ms = s.latency.as_secs_f64() * 1e3;
        let response = match &s.result {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                report.check(false, || {
                    format!("{kind:?} answered {}: {}", r.status, r.body)
                });
                continue;
            }
            Err(e) => {
                report.check(false, || format!("{kind:?} failed: {e}"));
                continue;
            }
        };
        let doc = JsonValue::parse(&response.body).map_err(err);
        let doc = match doc {
            Ok(doc) => doc,
            Err(e) => {
                report.check(false, || format!("{kind:?}: unparsable body: {e}"));
                continue;
            }
        };
        let cache = doc.get("cache").and_then(JsonValue::as_str);
        match *kind {
            Kind::Hit(i) => {
                let ok = field_u64(&doc, "rank") == Some(working[i]) && cache == Some("hit");
                report.check(ok, || {
                    format!(
                        "hit {i}: {} expected rank {} cache hit",
                        response.body, working[i]
                    )
                });
                if ok {
                    out.hits.push(ms);
                }
            }
            Kind::Miss(i) => {
                let want = expected_rank(&w.misses[i])?;
                let ok = field_u64(&doc, "rank") == Some(want) && cache == Some("miss");
                report.check(ok, || {
                    format!(
                        "miss {i}: {} expected rank {want} cache miss",
                        response.body
                    )
                });
                if ok {
                    out.misses.push(ms);
                }
            }
            Kind::Sweep => {
                let points = doc
                    .get("points")
                    .and_then(JsonValue::as_array)
                    .unwrap_or(&[]);
                let ranks_ok = points.len() == column.len()
                    && points.iter().zip(&column).all(|(p, &(m, rank))| {
                        p.get("x").and_then(JsonValue::as_f64) == Some(m)
                            && field_u64(p, "rank") == Some(rank)
                    });
                let ok = ranks_ok
                    && field_u64(&doc, "cache_hits") == Some(column.len() as u64)
                    && field_u64(&doc, "cache_misses") == Some(0);
                report.check(ok, || format!("sweep: {}", response.body));
                if ok {
                    out.sweeps.push(ms);
                }
            }
        }
    }
    Ok(out)
}

fn send(
    addr: SocketAddr,
    w: &Workload,
    kind: Kind,
    traced: Option<u64>,
) -> Result<Response, String> {
    let _s = traced.map(|id| trace::span("serve.request", id));
    match kind {
        Kind::Hit(i) => request(addr, "POST", "/solve", &solve_body(&w.working[i]), traced),
        Kind::Miss(i) => request(addr, "POST", "/solve", &solve_body(&w.misses[i]), traced),
        Kind::Sweep => request(addr, "POST", "/sweep", &sweep_body(), traced),
    }
}

pub(super) fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up: the seeded schedule and bodies, a bound server, and its
    // cache warmed with the working set and the swept column.
    // Eight more repetitions run after the measurement window.
    let ((w, warm), setups) = Setups::first(ctx, 9, |_| {
        let w = workload(ctx.seed, ctx.seconds);
        let warm = warm_up(ctx, &w)?;
        Ok((w, warm))
    })?;

    let probe = host::Probe::start();
    // In the traced run, requests due in the second half carry spans.
    let traced_from = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds * 2
    };
    let start = Instant::now() + Duration::from_millis(20);
    let addr = warm.addr;
    let generator = |plan: &[Planned<Kind>], offset: u64| {
        let sent = run_open_loop(start, plan, |i, p| {
            let traced = (p.due >= traced_from).then_some(offset + i as u64);
            send(addr, &w, p.item, traced)
        });
        plan.iter().map(|p| p.item).zip(sent).collect::<Vec<_>>()
    };
    let (mut sent, misses) = std::thread::scope(|s| {
        let misses = s.spawn(|| generator(&w.miss_plan, 1 << 32));
        let hits = generator(&w.hits_plan, 0);
        (hits, misses.join())
    });
    sent.extend(misses.map_err(|_| "the miss generator panicked".to_owned())?);
    let metrics = request(warm.addr, "GET", "/metrics", "", None)?;
    drop(warm);
    report_host(report, &probe.finish());
    report_setup(report, &setups.finish()?);
    ia_obs::set_enabled(false);

    let checked = check_all(report, &w, &sent)?;
    report.summary("hit /solve", "ms", &checked.hits);
    report.summary("miss /solve", "ms", &checked.misses);
    report.summary("cached /sweep", "ms", &checked.sweeps);
    let late: Vec<f64> = sent
        .iter()
        .map(|(_, s)| s.late.as_secs_f64() * 1e3)
        .collect();
    report.summary("generator lateness", "ms", &late);
    // Cached requests are timed at their median, not their fastest: a
    // request's fastest times come from rare moments when the client,
    // the accepting worker and both vCPUs happened to be awake at once,
    // and spread by a quarter or more across ten runs, where the median
    // of over a thousand hits spread by under a tenth while the host's
    // state held. A miss is one DP solve, deterministic work timed at
    // its fastest like the other workloads' solves.
    let hit_ms = stats::median(&checked.hits);
    let miss_ms = stats::fastest(&checked.misses);
    let sweep_ms = stats::median(&checked.sweeps);
    for (name, value) in [
        ("hit_ms", hit_ms),
        ("miss_ms", miss_ms),
        ("sweep_ms", sweep_ms),
    ] {
        if let Some(v) = value {
            report.figure(name, "ms", v);
        }
    }
    if let Some(v) = hit_ms {
        report.metric("latency_ms", v);
    }
    // Design points answered per second through the sweep path. Misses
    // stay a per-layer figure: each is one DP solve, which the rank and
    // sweep workloads already time.
    let column = super::sweep::grid("m").len() as f64;
    if let Some(v) = sweep_ms {
        report.metric("points_per_s", column * 1e3 / v);
    }
    if !ctx.trace {
        return Ok(());
    }

    let spans = trace::take();
    let half = |from_traced: bool| -> Vec<f64> {
        sent.iter()
            .zip(w.hits_plan.iter().chain(&w.miss_plan))
            .filter(|((kind, s), p)| {
                matches!(kind, Kind::Hit(_))
                    && s.result.is_ok()
                    && (p.due >= traced_from) == from_traced
            })
            .map(|((_, s), _)| s.latency.as_secs_f64())
            .collect()
    };
    if let (Some(untraced), Some(traced)) =
        (stats::median(&half(false)), stats::median(&half(true)))
    {
        report.metric("trace.overhead_frac", traced / untraced - 1.0);
    }
    for (metric, value) in [("serve.miss_ms", miss_ms), ("serve.sweep_ms", sweep_ms)] {
        if let Some(v) = value {
            report.metric(metric, v);
        }
    }
    for (metric, count, samples) in [
        ("serve.hit_tail_ms", "serve.hit_n", &checked.hits),
        ("serve.miss_tail_ms", "serve.miss_n", &checked.misses),
    ] {
        if let Some(t) = stats::tail(samples) {
            report.metric(metric, t.value);
            report.line(format!("{metric}: {} = {:.4} ms", t.label(), t.value));
        }
        report.metric(count, samples.len() as f64);
    }
    if let Some(t) = stats::tail(&late) {
        report.metric("loadgen.late_ms", t.value);
    }
    report.metric("loadgen.sent", sent.len() as f64);
    let connect: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.connect")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    if let Some(v) = stats::median(&connect) {
        report.metric("serve.connect_us", v);
    }
    super::write_spans(ctx, "serve-mixed", &spans, report);
    server_counters(report, &metrics)?;
    serve_layers(report, &w)?;
    dp_overhead(report)
}

/// The server's own counters, scraped from `/metrics` after the run. A
/// counter appears there only once it has counted something, so one
/// that is missing reads 0.
fn server_counters(report: &mut Report, metrics: &Response) -> Result<(), String> {
    let doc = JsonValue::parse(&metrics.body).map_err(err)?;
    let counters = doc.get("counters").ok_or("`/metrics` has no counters")?;
    for name in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.shared",
        "serve.cache.evictions",
        "serve.queue.depth_max",
        "serve.queue.shed",
    ] {
        let value = counters.get(name).and_then(JsonValue::as_u64).unwrap_or(0);
        report.metric(name, value as f64);
    }
    Ok(())
}

/// The hit path's layers, by separate calls on the working-set bodies:
/// request parsing, content addressing and response rendering.
fn serve_layers(report: &mut Report, w: &Workload) -> Result<(), String> {
    let bodies: Vec<String> = w.working.iter().map(solve_body).collect();
    let requests: Vec<SolveRequest> = bodies
        .iter()
        .map(|b| {
            JsonValue::parse(b)
                .map_err(err)
                .and_then(|d| SolveRequest::from_json(&d).map_err(err))
        })
        .collect::<Result<_, _>>()?;
    let solved: CachedSolve = w.working[0].solve().map_err(err)?;
    let n = bodies.len();
    let parse = fastest_of_calls(400, |i| {
        let doc = JsonValue::parse(&bodies[i % n]).map_err(err)?;
        std::hint::black_box(SolveRequest::from_json(&doc).map_err(err)?);
        Ok(())
    })?;
    let key = fastest_of_calls(400, |i| {
        std::hint::black_box(requests[i % n].to_config().cache_key());
        Ok(())
    })?;
    let render = fastest_of_calls(400, |_| {
        std::hint::black_box(solve_response(&solved, "hit").render());
        Ok(())
    })?;
    report.metric("serve.parse_us", parse * 1e6);
    report.metric("serve.key_us", key * 1e6);
    report.metric("serve.render_us", render * 1e6);
    Ok(())
}

/// `dp::rank` on the 1M / 130 nm baseline with the collector on, over
/// off, alternating.
fn dp_overhead(report: &mut Report) -> Result<(), String> {
    let base = BoundConfig::default();
    let bound = base.bind().map_err(err)?;
    let problem = lower(&base, &bound.node, &bound.architecture)?;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..4 {
        for (enabled, samples) in [(false, &mut off), (true, &mut on)] {
            ia_obs::set_enabled(enabled);
            ia_obs::reset();
            let t = Instant::now();
            std::hint::black_box(ia_rank::dp::rank(problem.instance()));
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    ia_obs::set_enabled(false);
    ia_obs::reset();
    if let (Some(on), Some(off)) = (stats::fastest(&on), stats::fastest(&off)) {
        report.metric("obs.dp_overhead_x", on / off);
        report.line(format!(
            "obs.dp_overhead_x: {:.3} (dp::rank at 1M/130 nm: {:.2} ms on, {:.2} ms off)",
            on / off,
            on * 1e3,
            off * 1e3
        ));
    }
    Ok(())
}
