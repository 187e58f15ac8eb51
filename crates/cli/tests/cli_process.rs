//! End-to-end tests of the installed `iarank` binary via a real process
//! (argument handling, exit codes, stdout/stderr separation, and what
//! one `/sweep` or `/sensitivity` request may cost a running `iarank
//! serve`).

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ia_obs::json::JsonValue;
use ia_serve::client;

fn iarank() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iarank"))
}

/// Runs the binary to completion, asserting exit 0, and returns stdout.
fn run_ok(args: &[&str]) -> String {
    let out = iarank().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "iarank {args:?} failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

#[test]
fn help_exits_zero_and_prints_usage() {
    for args in [
        &["help"][..],
        &["--help"],
        &["-h"],
        &["rank", "--help"],
        &["rank", "-h"],
    ] {
        let out = iarank().args(args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{args:?} exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("utf8");
        assert!(text.contains("USAGE"), "{args:?}");
        assert!(text.contains("optimize"), "{args:?}");
    }
}

#[test]
fn no_arguments_prints_usage() {
    let out = iarank().output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn rank_subcommand_produces_a_result() {
    let out = iarank()
        .args(["rank", "--gates", "30000", "--bunch", "3000"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("result"));
    assert!(text.contains("frontier"));
}

#[test]
fn unknown_command_exits_nonzero_with_message_on_stderr() {
    let out = iarank().arg("bogus").output().expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    assert!(out.stdout.is_empty());
}

#[test]
fn malformed_flags_exit_with_code_two() {
    let out = iarank()
        .args(["rank", "--gates"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
}

#[test]
fn bad_flag_value_exits_nonzero() {
    let cases: [(&[&str], &str); 4] = [
        (&["rank", "--gates", "plenty"], "plenty"),
        (
            &["rank", "--k", "abc"],
            "bad value `abc` for `--k`: invalid float literal",
        ),
        (
            &["rank", "--miller", "abc"],
            "bad value `abc` for `--miller`: invalid float literal",
        ),
        (
            &["dse", "run", "--workers", "x"],
            "bad value `x` for `--workers`: invalid digit found in string",
        ),
    ];
    for (args, message) in cases {
        let out = iarank().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_exits_zero_without_a_panic() {
    // The read end is dropped before the spawn, so the first write to
    // stdout fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = iarank()
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn a_closed_stderr_exits_with_the_commands_own_code() {
    // As above, the read end is dropped before the spawn, so every
    // write to stderr fails with a broken pipe.
    let dir = std::env::temp_dir().join(format!("iarank_closed_stderr_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.json");
    let trace_arg = trace.to_str().expect("utf8 path");
    let cases: [(&[&str], i32); 3] = [
        (&["optimize", "--global", "2", "--gates", "30000"], 2),
        (&["rank", "--gates", "5"], 1),
        (
            &[
                "rank", "--gates", "30000", "--bunch", "3000", "--trace", trace_arg,
            ],
            0,
        ),
    ];
    for (args, code) in cases {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = iarank()
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("binary runs");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
    assert!(trace.is_file(), "the trace is written all the same");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn boolean_switches_take_an_explicit_value() {
    let sweep = [
        "sweep", "--axis", "r", "--gates", "30000", "--bunch", "3000",
    ];
    let serial = run_ok(&sweep);
    let parallel = run_ok(&[&sweep[..], &["--parallel"]].concat());
    assert!(
        serial.lines().count() >= 7,
        "header + rule + 5 rows: {serial}"
    );
    assert_eq!(parallel, serial, "the worker count never changes the table");
    let explicit = run_ok(&[&sweep[..], &["--parallel", "true"]].concat());
    assert_eq!(explicit, parallel);

    // `--detail` stands alone too; any other next token is a stray
    // argument, not a value that quietly drops the table.
    let rank = ["rank", "--gates", "30000", "--bunch", "3000"];
    let bare = run_ok(&[&rank[..], &["--detail"]].concat());
    assert!(bare.contains("util %"), "{bare}");
    assert_eq!(run_ok(&[&rank[..], &["--detail", "true"]].concat()), bare);
    assert_eq!(
        run_ok(&[&rank[..], &["--detail", "0"]].concat()),
        run_ok(&rank)
    );
    let out = iarank()
        .args([&rank[..], &["--detail", "yes"]].concat())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument `yes`"));
}

/// The number of threads the process `pid` runs now (0 where there is
/// no `/proc`, which leaves the thread bound below unchecked).
fn threads(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task")).map_or(0, Iterator::count)
}

/// A spawned `iarank serve`, killed on drop so that a failing test
/// leaves no server behind.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `iarank serve` on an ephemeral port with `extra` flags;
/// returns the process and its address.
fn serve(extra: &[&str]) -> (Served, String) {
    let mut server = iarank()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(server.stdout.take().expect("serve stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line}"))
        .to_owned();
    // Keep the pipe open: the server writes to it again on exit.
    server.stdout = Some(stdout.into_inner());
    (Served(server), addr)
}

#[test]
fn an_idle_server_runs_main_the_acceptor_and_its_workers() {
    let (server, addr) = serve(&["--workers", "2"]);
    let (status, _) = client::get(&addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(status, 200);
    let idle = threads(server.0.id());
    assert!(
        idle == 0 || idle == 4,
        "{idle} threads, want main + acceptor + 2 workers"
    );
}

#[cfg(unix)]
#[test]
fn sigterm_ends_serve_at_once() {
    use std::os::unix::process::ExitStatusExt;
    let (mut server, addr) = serve(&[]);
    let (status, _) = client::get(&addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(status, 200);
    let sent = Command::new("kill")
        .args(["-TERM", &server.0.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success());
    // The default action: no handler runs, and the shell reports the
    // signal as exit status 128 + 15 = 143.
    let exit = server.0.wait().expect("server exits");
    assert_eq!(exit.signal(), Some(15), "{exit:?}");
}

/// Reads counter `name` from the server's `/metrics` once the counter
/// `flushed` shows the request's telemetry has landed.
fn settled_counter(addr: &str, flushed: &str, name: &str) -> u64 {
    for _ in 0..200 {
        let (_, body) = client::get(addr, "/metrics", Duration::from_secs(5)).expect("metrics");
        let doc = JsonValue::parse(&body).expect("metrics JSON");
        let counter = |n: &str| doc.get("counters").and_then(|c| c.get(n)?.as_u64());
        if counter(flushed).is_some() {
            return counter(name).unwrap_or(0);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("`{flushed}` never reached /metrics");
}

#[test]
fn a_parallel_sweep_is_bounded_by_the_workers_and_the_deadline() {
    let (server, addr) = serve(&["--workers", "2", "--request-timeout-ms", "200"]);
    let pid = server.0.id();
    // Every thread the server keeps starts before the listening line.
    let (status, _) = client::get(&addr, "/healthz", Duration::from_secs(5)).expect("healthz");
    assert_eq!(status, 200);
    let baseline = threads(pid);
    let values: Vec<String> = (10..50).map(|i| format!("0.{i}")).collect();
    let body = format!(
        r#"{{"axis":"r","gates":200000,"parallel":true,"values":[{}]}}"#,
        values.join(",")
    );
    let done = std::sync::atomic::AtomicBool::new(false);
    let (reply, peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                peak = peak.max(threads(pid));
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        let reply = client::post_json(&addr, "/sweep", &body, Duration::from_secs(120));
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (reply, sampler.join().expect("sampler"))
    });
    let (status, text) = reply.expect("sweep request");
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("deadline exceeded"), "{text}");
    assert!(peak <= baseline + 2, "{peak} threads, {baseline} before");
    let misses = settled_counter(&addr, "serve.http.503", "sweep.cache.misses");
    assert!(
        misses < 40,
        "{misses} of 40 points solved past the deadline"
    );
}

#[test]
fn a_sensitivity_stops_within_one_solve_of_its_deadline() {
    let (_server, addr) = serve(&["--workers", "2", "--request-timeout-ms", "200"]);
    // Nine solves at 1M gates take seconds; the deadline is 200 ms.
    let (status, text) = client::post_json(&addr, "/sensitivity", "{}", Duration::from_secs(120))
        .expect("sensitivity request");
    assert_eq!(status, 503, "{text}");
    assert!(
        text.contains("deadline exceeded during sensitivity"),
        "{text}"
    );
    let misses = settled_counter(&addr, "serve.http.503", "sweep.cache.misses");
    assert!(
        (1..9).contains(&misses),
        "{misses} of 9 points solved for a request past its deadline"
    );
}
