//! End-to-end tests for the telemetry plane: request-id and run-id
//! correlation through trace events, the Prometheus text exposition,
//! a panicking handler, and windowed span profiles.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use ia_obs::json::JsonValue;
use ia_obs::{context_for, context_hex};
use ia_serve::{Server, ServerConfig};

fn start(workers: usize) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        request_timeout: Duration::from_millis(10_000),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// One HTTP exchange; returns status, lowercased headers, and body.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> (u16, BTreeMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send request");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    (status, headers, body.to_owned())
}

fn request_bytes(method: &str, path: &str, body: &str, extra: &[(&str, &str)]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    head.into_bytes()
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, BTreeMap<String, String>, String) {
    exchange(addr, &request_bytes("POST", path, body, &[]))
}

fn get(addr: SocketAddr, path: &str) -> (u16, BTreeMap<String, String>, String) {
    exchange(addr, &request_bytes("GET", path, "", &[]))
}

fn is_request_hex(id: &str) -> bool {
    id.len() == 16 && id.bytes().all(|b| b.is_ascii_hexdigit())
}

#[test]
fn concurrent_solves_correlate_spans_with_request_ids() {
    ia_obs::set_trace_enabled(true);
    let server = start(4);
    let addr = server.local_addr();

    // Eight distinct configurations so every request computes (no
    // single-flight collapsing) across the four workers.
    let ids: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let body = format!(
                        r#"{{"gates":20000,"bunch":2000,"miller":{}}}"#,
                        1.1 + 0.1 * i as f64
                    );
                    let (status, headers, body) = post(addr, "/solve", &body);
                    assert_eq!(status, 200, "body: {body}");
                    headers.get("x-request-id").expect("request id").clone()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for id in &ids {
        assert!(is_request_hex(id), "malformed request id `{id}`");
    }
    let distinct: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(distinct.len(), ids.len(), "request ids must be unique");

    server.shutdown();
    let _ = server.join();

    // Every response's id is the context of a `serve.request` span and
    // of the solve it ran: after join() the server's telemetry merged
    // into this thread.
    let trace = ia_obs::drain_trace();
    let begun = |name: &'static str| -> std::collections::BTreeSet<String> {
        trace
            .events
            .iter()
            .filter(|e| e.kind == ia_obs::TraceEventKind::Begin(name) && e.ctx != 0)
            .map(|e| context_hex(e.ctx))
            .collect()
    };
    for span in ["serve.request", "dp.solve"] {
        let ctxs = begun(span);
        for id in &ids {
            assert!(
                ctxs.contains(id),
                "request {id} left no correlated `{span}` span; saw {ctxs:?}"
            );
        }
    }
}

#[test]
fn metrics_negotiates_prometheus_text_exposition() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, _, _) = post(addr, "/solve", r#"{"gates":20000,"bunch":2000}"#);
    assert_eq!(status, 200);

    // The solve's worker flushes its counters after writing the
    // response, so poll until the exposition includes them.
    let (mut status, mut headers, mut body) = (0, BTreeMap::new(), String::new());
    for _ in 0..200 {
        (status, headers, body) = exchange(
            addr,
            &request_bytes("GET", "/metrics", "", &[("Accept", "text/plain")]),
        );
        if body.contains("iarank_http_requests_total{endpoint=\"solve\"} 1") {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("text/plain; version=0.0.4")
    );
    assert!(
        body.contains("# TYPE iarank_http_requests_total counter"),
        "{body}"
    );
    assert!(
        body.contains("iarank_http_requests_total{endpoint=\"solve\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE iarank_http_request_duration_us histogram"),
        "{body}"
    );
    assert!(body.contains("le=\"+Inf\""), "{body}");
    assert!(
        body.contains("iarank_http_request_duration_us_count{endpoint=\"solve\"} 1"),
        "{body}"
    );
    // The poll above may flush its own 2xx responses into the counter,
    // so assert presence rather than an exact count.
    assert!(
        body.contains("iarank_http_responses_total{class=\"2xx\"} "),
        "{body}"
    );

    // Without the Accept header the JSON tree is unchanged.
    let (status, headers, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let doc = JsonValue::parse(&body).expect("metrics JSON");
    assert!(doc.get("counters").is_some());

    server.shutdown();
    let _ = server.join();
}

#[test]
fn a_panicking_handler_answers_500_and_is_counted() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, headers, body) = post(addr, "/debug/panic", "");
    assert_eq!(status, 500, "body: {body}");
    assert!(headers.contains_key("x-request-id"));
    assert!(body.contains("request handler panicked"), "{body}");

    // The worker flushes its counters after writing the response, so
    // poll until the panic shows on /metrics.
    let mut panics = 0;
    for _ in 0..200 {
        let (status, _, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let doc = JsonValue::parse(&body).expect("metrics JSON");
        panics = doc
            .get("counters")
            .and_then(|c| c.get("serve.panics"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if panics >= 1 {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert!(panics >= 1, "serve.panics never reached /metrics");

    // The server keeps serving after the panic.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = server.join();
}

#[test]
fn dse_jobs_correlate_on_the_run_id() {
    ia_obs::set_trace_enabled(true);
    let server = start(2);
    let addr = server.local_addr();
    let spec = r#"{"name": "serve-telemetry",
        "base": {"gates": 20000, "bunch": 2000},
        "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5]}],
        "workers": 2}"#;
    let (status, _, body) = post(addr, "/dse", spec);
    assert_eq!(status, 202, "body: {body}");
    let id = JsonValue::parse(&body)
        .ok()
        .and_then(|d| d.get("job").and_then(JsonValue::as_u64))
        .expect("job id");

    let mut result = None;
    for _ in 0..600 {
        let (status, _, body) = get(addr, &format!("/dse/{id}"));
        assert_eq!(status, 200, "body: {body}");
        let doc = JsonValue::parse(&body).expect("status JSON");
        if doc.get("status").and_then(JsonValue::as_str) != Some("running") {
            result = Some(doc);
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let doc = result.expect("job finished");
    assert_eq!(doc.get("status").and_then(JsonValue::as_str), Some("done"));
    let result = doc.get("result").expect("result object");

    // The result names its content-addressed run id and per-round
    // phase timings.
    let run_id = result
        .get("run_id")
        .and_then(JsonValue::as_str)
        .expect("run id");
    assert!(is_request_hex(run_id), "malformed run id `{run_id}`");
    let rounds = result
        .get("rounds_detail")
        .and_then(JsonValue::as_array)
        .expect("rounds_detail");
    assert!(!rounds.is_empty());
    for round in rounds {
        for field in [
            "round",
            "points",
            "solved",
            "cached",
            "execute_ns",
            "refine_ns",
            "dp_expand_ns",
        ] {
            assert!(
                round.get(field).and_then(JsonValue::as_u64).is_some(),
                "round missing `{field}`: {}",
                round.render()
            );
        }
        // A round that solved fresh points spent attributable solver
        // time expanding layer pairs.
        if round.get("solved").and_then(JsonValue::as_u64).unwrap_or(0) > 0 {
            assert!(
                round
                    .get("dp_expand_ns")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
                    > 0,
                "fresh solves report expand-phase cost: {}",
                round.render()
            );
        }
    }

    // The job's `dse.point` spans, opened on scheduler worker threads,
    // carry the run id's correlation context.
    server.shutdown();
    let _ = server.join();
    let trace = ia_obs::drain_trace();
    let want = context_for(run_id);
    let points: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == ia_obs::TraceEventKind::Begin(ia_dse::names::SPAN_POINT))
        .filter(|e| {
            trace
                .thread_names
                .get(&e.tid)
                .is_some_and(|name| name.starts_with(ia_dse::names::WORKER_PREFIX))
        })
        .collect();
    assert!(
        points.iter().any(|e| e.ctx == want),
        "no `dse.point` span from a scheduler worker carries run id {}: {points:?}",
        context_hex(want)
    );
}

/// Finds the node named `name` among `roots`' children-by-path walk.
fn prof_node<'a>(doc: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    let mut nodes = doc.get("roots")?.as_array()?;
    let mut found = None;
    for segment in path {
        let node = nodes
            .iter()
            .find(|n| n.get("name").and_then(JsonValue::as_str) == Some(*segment))?;
        nodes = node.get("children")?.as_array()?;
        found = Some(node);
    }
    found
}

#[test]
fn debug_prof_windows_span_activity_under_concurrent_solves() {
    let server = start(4);
    let addr = server.local_addr();

    // Warm-up traffic before the window opens.
    let (status, _, _) = post(addr, "/solve", r#"{"gates":20000,"bunch":2000}"#);
    assert_eq!(status, 200);

    // Without a window the whole lifetime is profiled.
    let (status, _, body) = get(addr, "/debug/prof");
    assert_eq!(status, 200, "body: {body}");
    let doc = JsonValue::parse(&body).expect("profile JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("ia-prof-v1")
    );
    assert_eq!(doc.get("window").and_then(JsonValue::as_bool), Some(false));

    // Open a window, then run distinct solves concurrently so several
    // workers contribute spans inside it.
    let (status, _, body) = post(addr, "/debug/prof/start", "");
    assert_eq!(status, 200, "body: {body}");
    let started = JsonValue::parse(&body).expect("start response JSON");
    assert_eq!(
        started.get("status").and_then(JsonValue::as_str),
        Some("started")
    );
    thread::scope(|scope| {
        for i in 0..6 {
            scope.spawn(move || {
                let body = format!(
                    r#"{{"gates":20000,"bunch":2000,"miller":{}}}"#,
                    1.3 + 0.1 * f64::from(i)
                );
                let (status, _, body) = post(addr, "/solve", &body);
                assert_eq!(status, 200, "body: {body}");
            });
        }
    });

    // Workers flush their telemetry after writing the response, so the
    // spans from the six solves may trail the six replies by a moment:
    // poll until the window shows them all.
    let mut windowed_body = String::new();
    let mut solve_calls = 0;
    for _ in 0..200 {
        let (status, _, body) = get(addr, "/debug/prof");
        assert_eq!(status, 200, "body: {body}");
        windowed_body = body;
        let windowed = JsonValue::parse(&windowed_body).expect("windowed profile JSON");
        solve_calls = prof_node(&windowed, &["serve.request", "dp.solve"])
            .and_then(|n| n.get("calls"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if solve_calls >= 6 {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let windowed = JsonValue::parse(&windowed_body).expect("windowed profile JSON");
    assert_eq!(
        windowed.get("schema").and_then(JsonValue::as_str),
        Some("ia-prof-v1")
    );
    assert_eq!(
        windowed.get("window").and_then(JsonValue::as_bool),
        Some(true)
    );
    // The solver ran inside the window: dp.solve nests under the
    // request span with its expand phase below it, and the six fresh
    // solves are visible.
    assert!(
        solve_calls >= 6,
        "six fresh solves inside the window: {windowed_body}"
    );
    assert!(
        prof_node(&windowed, &["serve.request", "dp.solve", "expand"]).is_some(),
        "phase nodes survive the windowing: {windowed_body}"
    );

    // Restarting the window resets the baseline: an idle window
    // profiles (close to) nothing solver-side.
    let (status, _, _) = post(addr, "/debug/prof/start", "");
    assert_eq!(status, 200);
    let (status, _, body) = get(addr, "/debug/prof");
    assert_eq!(status, 200);
    let idle = JsonValue::parse(&body).expect("idle profile JSON");
    assert!(
        prof_node(&idle, &["serve.request", "dp.solve"]).is_none(),
        "no solver activity since the restart: {body}"
    );

    server.shutdown();
    let _ = server.join();
}
