//! End-to-end robustness tests against a live server on a loopback
//! ephemeral port: malformed input, oversized bodies, unknown routes,
//! slow-loris clients, graceful drain, and single-flight deduplication
//! of concurrent identical solves.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use ia_obs::json::JsonValue;
use ia_serve::{Server, ServerConfig};

fn start(workers: usize, timeout_ms: u64) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        cache_entries: 64,
        queue_depth: 32,
        request_timeout: Duration::from_millis(timeout_ms),
        max_body_bytes: 64 * 1024,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Sends raw bytes and reads the full response (the server closes the
/// connection after one exchange). Returns (status, body).
fn exchange(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send request");
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = text
        .split("\r\n\r\n")
        .nth(1)
        .map(str::to_owned)
        .unwrap_or_default();
    (status, body)
}

fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(addr, &request_bytes("POST", path, body))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(addr, &request_bytes("GET", path, ""))
}

fn counter(metrics: &str, name: &str) -> u64 {
    let doc = JsonValue::parse(metrics).expect("metrics JSON");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

const SMALL_SOLVE: &str = r#"{"gates":20000,"bunch":2000}"#;

#[test]
fn oversized_body_is_rejected_with_413() {
    let server = start(2, 5_000);
    let addr = server.local_addr();
    // Declare a body over the 64 KiB cap; the server must refuse
    // before reading it.
    let head = format!(
        "POST /solve HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        1024 * 1024
    );
    let (status, body) = exchange(addr, head.as_bytes());
    assert_eq!(status, 413, "body: {body}");
    assert!(body.contains("exceeds"));
    server.shutdown();
    let _ = server.join();
}

#[test]
fn malformed_json_is_rejected_with_400() {
    let server = start(2, 5_000);
    let addr = server.local_addr();
    let (status, body) = post(addr, "/solve", "{not json");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("malformed JSON"));
    let (status, body) = post(addr, "/solve", r#"{"gaets":1}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown field"));
    server.shutdown();
    let _ = server.join();
}

#[test]
fn unknown_route_and_wrong_method_are_rejected() {
    let server = start(2, 5_000);
    let addr = server.local_addr();
    let (status, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/debug/prof");
    assert_eq!(status, 404, "no profile endpoint");
    let (status, _) = post(addr, "/debug/prof/start", "");
    assert_eq!(status, 404, "no profile window");
    let (status, _) = get(addr, "/solve");
    assert_eq!(status, 405, "GET on a POST route");
    let (status, _) = post(addr, "/healthz", "{}");
    assert_eq!(status, 405, "POST on a GET route");
    server.shutdown();
    let _ = server.join();
}

#[test]
fn slow_loris_hits_the_read_deadline() {
    let server = start(2, 400);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Trickle a header one fragment at a time, never finishing; the
    // per-request deadline (not a per-read timer) must cut us off.
    for fragment in ["POST /so", "lve HTT", "P/1.1\r\nHos", "t: t"] {
        stream.write_all(fragment.as_bytes()).expect("trickle");
        thread::sleep(Duration::from_millis(150));
    }
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 408, "body: {body}");
    server.shutdown();
    let _ = server.join();
}

#[test]
fn healthz_and_metrics_respond() {
    let server = start(2, 5_000);
    let addr = server.local_addr();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = JsonValue::parse(&body).expect("healthz JSON");
    assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(health.get("workers").and_then(JsonValue::as_u64), Some(2));
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = JsonValue::parse(&body).expect("metrics JSON");
    assert!(metrics.get("counters").is_some());
    server.shutdown();
    let _ = server.join();
}

#[test]
fn in_flight_requests_complete_during_graceful_shutdown() {
    let server = start(2, 10_000);
    let addr = server.local_addr();

    // Open a solve whose body arrives slowly, so it is mid-flight when
    // the shutdown lands on the other worker.
    let body = SMALL_SOLVE.as_bytes();
    let split = body.len() / 2;
    let mut slow = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /solve HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    slow.write_all(head.as_bytes()).expect("head");
    slow.write_all(&body[..split]).expect("half body");
    thread::sleep(Duration::from_millis(200));

    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);

    // Finish the in-flight request after shutdown began; it must still
    // be served to completion.
    slow.write_all(&body[split..]).expect("rest of body");
    let (status, reply) = read_response(&mut slow);
    assert_eq!(status, 200, "in-flight request was dropped: {reply}");
    let doc = JsonValue::parse(&reply).expect("solve JSON");
    assert!(doc.get("rank").and_then(JsonValue::as_u64).is_some());

    let served = server.join();
    assert!(served >= 2, "both requests counted, got {served}");
}

/// Waits until `/metrics` reports that all `expected` solve outcomes
/// have been flushed by the worker threads.
fn settled_metrics(addr: SocketAddr, expected: u64) -> String {
    for _ in 0..100 {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let outcomes = counter(&body, "serve.cache.hits")
            + counter(&body, "serve.cache.misses")
            + counter(&body, "serve.cache.shared");
        if outcomes >= expected {
            return body;
        }
        thread::sleep(Duration::from_millis(20));
    }
    panic!("metrics never settled at {expected} solve outcomes");
}

#[test]
fn concurrent_identical_burst_performs_exactly_one_dp_solve() {
    // Reference: one request on a fresh server records the DP cost of
    // a single cold solve.
    let reference = start(2, 30_000);
    let addr = reference.local_addr();
    let (status, _) = post(addr, "/solve", SMALL_SOLVE);
    assert_eq!(status, 200);
    let single = counter(&settled_metrics(addr, 1), "dp.states");
    assert!(single > 0, "a cold solve explores DP states");
    reference.shutdown();
    let _ = reference.join();

    // Burst: N identical requests race on another fresh server.
    const N: usize = 6;
    let burst = start(4, 30_000);
    let addr = burst.local_addr();
    let statuses: Vec<(u16, String)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(move || post(addr, "/solve", SMALL_SOLVE)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut misses = 0;
    for (status, body) in &statuses {
        assert_eq!(*status, 200, "body: {body}");
        let doc = JsonValue::parse(body).expect("solve JSON");
        if doc.get("cache").and_then(|c| c.as_str()) == Some("miss") {
            misses += 1;
        }
    }
    assert_eq!(misses, 1, "exactly one client computed");

    let expected = u64::try_from(N).expect("small N");
    let metrics = settled_metrics(addr, expected);
    assert_eq!(
        counter(&metrics, "dp.states"),
        single,
        "the burst explored exactly one solve's worth of DP states"
    );
    assert_eq!(counter(&metrics, "serve.cache.misses"), 1);
    assert_eq!(
        counter(&metrics, "serve.cache.hits") + counter(&metrics, "serve.cache.shared"),
        expected - 1
    );
    burst.shutdown();
    let _ = burst.join();
}

#[test]
fn sweep_and_sensitivity_endpoints_round_trip() {
    let server = start(2, 30_000);
    let addr = server.local_addr();
    let (status, body) = post(
        addr,
        "/sweep",
        r#"{"axis":"r","values":[0.3,0.4],"gates":20000,"bunch":2000}"#,
    );
    assert_eq!(status, 200, "body: {body}");
    let doc = JsonValue::parse(&body).expect("sweep JSON");
    let points = doc
        .get("points")
        .and_then(|p| p.as_array())
        .expect("points");
    assert_eq!(points.len(), 2);
    assert_eq!(doc.get("cache_misses").and_then(JsonValue::as_u64), Some(2));

    // The swept R=0.4 point shares a content address with the same
    // fully-bound /solve request, so this solve is a cache hit.
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"gates":20000,"bunch":2000,"fraction":0.4}"#,
    );
    assert_eq!(status, 200);
    let doc = JsonValue::parse(&body).expect("solve JSON");
    assert_eq!(
        doc.get("cache").and_then(|c| c.as_str()),
        Some("hit"),
        "sweep should have warmed the solve cache"
    );

    let (status, body) = post(addr, "/sensitivity", r#"{"gates":20000,"bunch":2000}"#);
    assert_eq!(status, 200, "body: {body}");
    let doc = JsonValue::parse(&body).expect("sensitivity JSON");
    let report = doc
        .get("sensitivities")
        .and_then(|s| s.as_array())
        .expect("sensitivities");
    assert_eq!(report.len(), 4, "one entry per knob");
    server.shutdown();
    let _ = server.join();
}

/// Polls `/metrics` until counter `name` reaches `at_least`.
fn await_counter(addr: SocketAddr, name: &str, at_least: u64) -> u64 {
    for _ in 0..200 {
        let value = counter(&get(addr, "/metrics").1, name);
        if value >= at_least {
            return value;
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("`{name}` never reached {at_least} on /metrics");
}

#[test]
fn sensitivity_points_share_the_solve_cache() {
    let server = start(2, 30_000);
    let addr = server.local_addr();
    let (status, cold) = post(addr, "/sensitivity", SMALL_SOLVE);
    assert_eq!(status, 200, "{cold}");
    assert_eq!(await_counter(addr, "sweep.cache.misses", 9), 9);
    // A repeat is all hits, byte for byte the same answer.
    assert_eq!(post(addr, "/sensitivity", SMALL_SOLVE), (200, cold));
    assert_eq!(await_counter(addr, "sweep.cache.hits", 9), 9);
    assert_eq!(counter(&get(addr, "/metrics").1, "sweep.cache.misses"), 9);
    // The base point is the `/solve` of the same fields.
    let (status, solve) = post(addr, "/solve", SMALL_SOLVE);
    assert_eq!(status, 200, "{solve}");
    assert!(solve.contains(r#""cache":"hit""#), "{solve}");
    server.shutdown();
    let _ = server.join();
}

#[test]
fn serial_and_parallel_sweeps_match_the_library_sweep() {
    use ia_rank::canon::BoundConfig;
    use ia_rank::sweep::{sweep_axis, Axis};
    use ia_serve::api::sweep_response;
    let config = BoundConfig {
        gates: 20_000,
        bunch: 2_000,
        ..BoundConfig::default()
    };
    let library = sweep_axis(&config, Axis::K, Axis::K.paper_values()).expect("sweeps");
    for parallel in [false, true] {
        // A fresh server each answers the K grid cold, then the same
        // sweep again wholly from its solve cache.
        let server = start(2, 30_000);
        let addr = server.local_addr();
        let body = format!(r#"{{"axis":"k","gates":20000,"bunch":2000,"parallel":{parallel}}}"#);
        for (hits, misses) in [(0, 22), (22, 0)] {
            let expected = sweep_response(Axis::K, &library, hits, misses).render();
            assert_eq!(
                post(addr, "/sweep", &body),
                (200, expected),
                "parallel {parallel}"
            );
        }
        assert_eq!(await_counter(addr, "sweep.cache.misses", 22), 22);
        assert_eq!(await_counter(addr, "sweep.cache.hits", 22), 22);
        server.shutdown();
        let _ = server.join();
    }
}
