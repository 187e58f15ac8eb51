//! End-to-end tests of the distributed dse fleet through the real
//! `iarank` binary: a fleet-mode `iarank serve` coordinator, remote
//! `iarank fleet worker --coordinator` processes, and `dse run
//! --workers-remote`. The acceptance bar is the one from docs/dse.md —
//! fleet runs produce byte-identical reports to a single-process run,
//! with zero duplicate solves, even when a worker dies mid-point — and
//! no request body can take the coordinator down.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ia_obs::json::JsonValue;
use ia_serve::client;

/// A 3x2 m/c grid (6 points) small enough to solve quickly in debug
/// builds.
const SPEC: &str = r#"{"name": "fleet-cli",
    "base": {"gates": 20000, "bunch": 2000},
    "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5]},
             {"knob": "c", "values": [400.0, 800.0]}]}"#;

/// The adaptive spec `crates/dse/tests/adaptive.rs` pins to 6 points
/// in 3 rounds, so refinement rounds cross the coordinator too.
const ADAPTIVE_SPEC: &str = r#"{"name": "adaptive-pin",
    "base": {"gates": 100000, "bunch": 5000},
    "axes": [{"knob": "c", "values": [200.0, 1000.0, 2000.0, 3000.0]}],
    "strategy": {"adaptive": {"threshold": 0.1, "max_rounds": 3}},
    "workers": 4}"#;

fn iarank() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iarank"))
}

/// A per-test scratch directory, wiped on entry (not on exit, so a
/// failing test leaves its evidence behind).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("iarank-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_spec(dir: &std::path::Path, spec: &str) -> std::path::PathBuf {
    let path = dir.join("spec.json");
    std::fs::write(&path, spec).expect("write spec");
    path
}

/// Runs the binary to completion, asserting exit 0, and returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = iarank().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "iarank {args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Scrapes the value of a `label: value` line from command output.
fn scrape(output: &str, label: &str) -> String {
    output
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{label}: ")))
        .unwrap_or_else(|| panic!("no `{label}:` line in output:\n{output}"))
        .to_owned()
}

/// Pulls the count before `marker` out of a worker's points line, e.g.
/// `5` for ` solved` in `points: 5 solved, 0 failed, 12 idle polls`.
fn count_before(line: &str, marker: &str) -> u64 {
    let head = line
        .split(marker)
        .next()
        .unwrap_or_else(|| panic!("no `{marker}` in `{line}`"));
    head.rsplit([' ', ','])
        .find(|token| !token.is_empty())
        .and_then(|token| token.parse().ok())
        .unwrap_or_else(|| panic!("no count before `{marker}` in `{line}`"))
}

/// A full single-process reference run; returns its run directory.
fn reference_run(spec: &std::path::Path, runs: &std::path::Path) -> std::path::PathBuf {
    let out = run_ok(&[
        "dse",
        "run",
        "--spec",
        spec.to_str().expect("utf8 path"),
        "--runs",
        runs.to_str().expect("utf8 path"),
    ]);
    assert!(out.contains("status: complete"), "reference run: {out}");
    std::path::PathBuf::from(scrape(&out, "run"))
}

fn report(run_dir: &std::path::Path) -> String {
    run_ok(&[
        "dse",
        "report",
        "--run",
        run_dir.to_str().expect("utf8 path"),
    ])
}

fn csv_report(run_dir: &std::path::Path) -> String {
    run_ok(&[
        "dse",
        "report",
        "--run",
        run_dir.to_str().expect("utf8 path"),
        "--csv",
    ])
}

/// Asserts the result log holds exactly `expected` lines with
/// `expected` distinct keys — the zero-duplicate-solves proof.
fn assert_no_duplicates(run_dir: &std::path::Path, expected: usize) {
    let text = std::fs::read_to_string(run_dir.join("results.jsonl")).expect("results.jsonl");
    let lines: Vec<&str> = text.lines().collect();
    let keys: BTreeSet<String> = lines
        .iter()
        .map(|line| {
            let doc = JsonValue::parse(line).expect("result line parses");
            doc.get("key")
                .and_then(|v| v.as_str().map(str::to_owned))
                .expect("result line has a key")
        })
        .collect();
    assert_eq!(lines.len(), expected, "result log line count:\n{text}");
    assert_eq!(keys.len(), expected, "distinct result keys:\n{text}");
}

/// Polls `probe` against a fleet-coordinator endpoint until it holds
/// or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Reads a numeric field out of the fleet block of the coordinator's
/// `/healthz`.
fn fleet_stat(addr: &str, field: &str) -> u64 {
    let Ok((200, body)) = client::get(addr, "/healthz", Duration::from_secs(5)) else {
        return 0;
    };
    JsonValue::parse(&body)
        .ok()
        .and_then(|doc| {
            doc.get("fleet")
                .and_then(|f| f.get(field).and_then(JsonValue::as_u64))
        })
        .unwrap_or(0)
}

/// Starts `iarank serve --fleet` on an ephemeral port with `extra`
/// flags; returns the server process and its resolved address.
fn start_coordinator(extra: &[&str]) -> (Child, String) {
    let mut serve = iarank()
        .args(["serve", "--addr", "127.0.0.1:0", "--fleet"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(serve.stdout.take().expect("serve stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line}"))
        .to_owned();
    // Keep the pipe open: the server writes to it again on exit.
    serve.stdout = Some(stdout.into_inner());
    (serve, addr)
}

/// Drains the coordinator through `POST /shutdown` and waits for it.
fn shut_down(mut serve: Child, addr: &str) {
    let (status, _) = client::post_json(addr, "/shutdown", "{}", Duration::from_secs(5))
        .expect("shutdown request");
    assert_eq!(status, 200);
    let _ = serve.wait();
}

/// A remote worker polling `addr`.
fn worker(addr: &str, id: &str, extra: &[&str]) -> Child {
    iarank()
        .args(["fleet", "worker", "--coordinator", addr, "--worker-id", id])
        .args(["--poll-ms", "10"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn remote worker")
}

#[test]
fn a_coordinator_fans_out_and_survives_a_worker_kill() {
    let dir = scratch("coord");
    let spec = write_spec(&dir, SPEC);
    let reference = reference_run(&spec, &dir.join("ref-runs"));
    let coord_runs = dir.join("coord-runs");
    let (serve, addr) = start_coordinator(&[
        "--lease-ms",
        "700",
        "--heartbeat-ms",
        "100",
        "--runs",
        coord_runs.to_str().expect("utf8 path"),
    ]);

    // The stalling worker registers first, so the dispatcher sees a
    // live fleet and queues points instead of solving in-process.
    let mut staller = worker(&addr, "stall", &["--stall-ms", "60000"]);
    wait_for("worker registration", || fleet_stat(&addr, "workers") >= 1);

    let submit = iarank()
        .args([
            "dse",
            "run",
            "--spec",
            spec.to_str().expect("utf8 path"),
            "--workers-remote",
            &addr,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn remote submit");

    // Once the staller holds a lease, bring up the helper and kill the
    // staller mid-point; its lease must be reclaimed and re-dispatched.
    wait_for("a dispatched lease", || fleet_stat(&addr, "inflight") >= 1);
    let mut helper = worker(&addr, "helper", &["--max-idle-ms", "8000"]);
    staller.kill().expect("kill staller");
    let _ = staller.wait();

    let out = submit.wait_with_output().expect("submit exits");
    assert!(
        out.status.success(),
        "remote dse run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        text.contains("status: complete"),
        "remote run completed: {text}"
    );
    let run_id = scrape(&text, "run id");

    // The reclaim counter is ticked on the coordinator; poll /metrics
    // until the worker threads have flushed it into the snapshot.
    wait_for("fleet.reclaimed > 0", || {
        let Ok((200, body)) = client::get(&addr, "/metrics", Duration::from_secs(5)) else {
            return false;
        };
        JsonValue::parse(&body)
            .ok()
            .and_then(|doc| {
                doc.get("counters")
                    .and_then(|c| c.get("fleet.reclaimed").and_then(JsonValue::as_u64))
            })
            .unwrap_or(0)
            >= 1
    });

    // With `--runs` the coordinator persisted the run; its report (and
    // result log) must match the single-process reference exactly.
    let run_dir = coord_runs.join(&run_id);
    assert_no_duplicates(&run_dir, 6);
    assert_eq!(
        report(&run_dir),
        report(&reference),
        "byte-identical reports"
    );

    shut_down(serve, &addr);
    let _ = helper.kill();
    let _ = helper.wait();
}

#[test]
fn three_remote_workers_match_a_single_process_adaptive_run() {
    let dir = scratch("trio");
    let spec = write_spec(&dir, ADAPTIVE_SPEC);
    let reference = reference_run(&spec, &dir.join("ref-runs"));
    let coord_runs = dir.join("coord-runs");
    let (serve, addr) = start_coordinator(&["--runs", coord_runs.to_str().expect("utf8 path")]);

    let workers: Vec<Child> = ["w1", "w2", "w3"]
        .into_iter()
        .map(|id| worker(&addr, id, &[]))
        .collect();
    wait_for("three registered workers", || {
        fleet_stat(&addr, "workers") >= 3
    });
    let text = run_ok(&[
        "dse",
        "run",
        "--spec",
        spec.to_str().expect("utf8 path"),
        "--workers-remote",
        &addr,
    ]);
    assert!(text.contains("status: complete"), "remote run: {text}");

    let run_dir = coord_runs.join(scrape(&text, "run id"));
    assert_no_duplicates(&run_dir, 6);
    assert_eq!(
        report(&run_dir),
        report(&reference),
        "byte-identical reports"
    );
    assert_eq!(
        csv_report(&run_dir),
        csv_report(&reference),
        "byte-identical CSV exports"
    );

    // A draining coordinator tells its workers to exit.
    shut_down(serve, &addr);
    let mut solved = 0;
    for child in workers {
        let out = child.wait_with_output().expect("worker exits");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "worker failed: {text}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        solved += count_before(&scrape(&text, "points"), " solved");
        // A worker that polls while the server drains hears
        // `draining`; one that polls after it closed cannot connect.
        let stopped = scrape(&text, "stopped");
        assert!(
            stopped == "the coordinator is draining"
                || stopped.starts_with("coordinator unreachable after 5 failed claims: "),
            "{stopped}"
        );
    }
    assert_eq!(solved, 6, "each point solved by exactly one worker");
}

#[test]
fn nested_bodies_are_rejected_and_the_coordinator_keeps_serving() {
    let (serve, addr) = start_coordinator(&[]);
    let timeout = Duration::from_secs(10);

    let json = "[".repeat(60_000);
    let (status, body) =
        client::post_json(&addr, "/fleet/register", &json, timeout).expect("register answers");
    assert_eq!(status, 400, "{body}");

    let toml = format!(
        "name = \"x\"\nfoo = {}{}",
        "[".repeat(30_000),
        "]".repeat(30_000)
    );
    let (status, body) = client::post_json(&addr, "/dse", &toml, timeout).expect("dse answers");
    assert_eq!(status, 400, "{body}");
    assert!(body.len() < 300, "the error quotes an excerpt: {body}");

    let (status, _) = client::get(&addr, "/healthz", timeout).expect("healthz answers");
    assert_eq!(status, 200);
    shut_down(serve, &addr);
}
