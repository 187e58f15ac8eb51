//! Fixture tests for `ia-lint`: each tree under `tests/fixtures/`
//! seeds exactly the violations one rule should catch (plus waived and
//! test-code decoys that must stay silent), and the `clean` tree plus
//! the real workspace must produce no findings at all.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{lint_workspace, lint_workspace_opts, Diagnostic, LintOptions};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    lint_workspace(&fixture(name)).expect("fixture tree is readable")
}

#[test]
fn clean_fixture_has_no_findings() {
    let diags = lint_fixture("clean");
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).expect("workspace is readable");
    assert!(diags.is_empty(), "workspace findings: {diags:?}");
}

#[test]
fn l1_missing_headers_are_both_reported() {
    let diags = lint_fixture("crate_header");
    assert_eq!(diags.len(), 2, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/demo/src/lib.rs"));
        assert_eq!(d.line, 1);
        assert_eq!(d.rule, "crate-header");
    }
    assert!(diags[0].message.contains("#![forbid(unsafe_code)]"));
    assert!(diags[1].message.contains("#![warn(missing_docs)]"));
}

#[test]
fn l2_panics_on_library_paths_are_reported() {
    let diags = lint_fixture("no_panic");
    assert_eq!(diags.len(), 2, "got {diags:?}");
    assert_eq!(diags[0].file, Path::new("crates/core/src/lib.rs"));
    assert_eq!(diags[0].line, 9);
    assert_eq!(diags[0].rule, "no-panic");
    assert!(diags[0].message.contains("`.unwrap()`"));
    assert!(diags[0].message.contains("model crate `core`"));
    assert_eq!(diags[1].line, 14);
    assert!(diags[1].message.contains("`panic!`"));
}

#[test]
fn l3_raw_f64_params_are_reported() {
    let diags = lint_fixture("raw_f64");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].file, Path::new("crates/tech/src/lib.rs"));
    assert_eq!(diags[0].line, 8);
    assert_eq!(diags[0].rule, "raw-f64");
    assert!(diags[0].message.contains("`pub fn scale`"));
    assert!(diags[0].message.contains("model crate `tech`"));
}

#[test]
fn l4_float_casts_are_reported() {
    let diags = lint_fixture("float_cast");
    assert_eq!(diags.len(), 2, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/demo/src/lib.rs"));
        assert_eq!(d.rule, "float-cast");
        assert!(d.message.contains("`as u64`"));
    }
    assert_eq!(diags[0].line, 9);
    // The trailing-dot literal `1.` is a float and its cast is caught;
    // the `1..10` range and `1.max(0)` decoys in the same fixture are
    // not mis-lexed into floats.
    assert_eq!(diags[1].line, 27);
}

#[test]
fn l5_unguarded_nonfinite_literals_are_reported() {
    let diags = lint_fixture("nonfinite");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].file, Path::new("crates/demo/src/lib.rs"));
    assert_eq!(diags[0].line, 9);
    assert_eq!(diags[0].rule, "nonfinite");
    assert!(diags[0].message.contains("`f64::INFINITY`"));
}

#[test]
fn l6_raw_timing_is_reported() {
    let diags = lint_fixture("raw_timing");
    assert_eq!(diags.len(), 2, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/demo/src/lib.rs"));
        assert_eq!(d.rule, "raw-timing");
        assert!(d.message.contains("ia_obs::Stopwatch"));
    }
    assert_eq!(diags[0].line, 11);
    assert_eq!(diags[1].line, 18);
}

#[test]
fn l6_exempts_the_obs_crate() {
    // The same offending source under `crates/obs/` must be silent —
    // the observability crate is the sanctioned home for clock reads.
    let diags = lint_fixture("raw_timing_obs");
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn l7_unregistered_threads_are_reported() {
    let diags = lint_fixture("thread_reg");
    assert_eq!(diags.len(), 3, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/core/src/lib.rs"));
        assert_eq!(d.rule, "thread-registration");
        assert!(d.message.contains("register_worker"));
        assert!(d.message.contains("model crate `core`"));
    }
    assert_eq!(diags[0].line, 25);
    assert!(diags[0].message.contains("`thread::spawn`"));
    assert_eq!(diags[1].line, 31);
    assert!(diags[1].message.contains("`thread::scope`"));
    // The serve-style pool: registered loop silent, bare loop flagged.
    assert_eq!(diags[2].line, 52);
    assert!(diags[2].message.contains("`thread::spawn`"));
}

#[test]
fn l8_leaked_concurrency_resources_are_reported() {
    let diags = lint_fixture("bounded_conc");
    assert_eq!(diags.len(), 3, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/dse/src/lib.rs"));
        assert_eq!(d.rule, "bounded-concurrency");
        assert!(d.message.contains("model crate `dse`"));
    }
    assert_eq!(diags[0].line, 9);
    assert!(diags[0].message.contains("unbounded `mpsc::channel()`"));
    assert_eq!(diags[1].line, 32);
    assert!(diags[1].message.contains("discarded `JoinHandle`"));
    assert_eq!(diags[2].line, 38);
    assert!(diags[2].message.contains("discarded `JoinHandle`"));
}

#[test]
fn l9_lock_discipline_violations_are_reported() {
    let diags = lint_fixture("lock_discipline");
    assert_eq!(diags.len(), 4, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/serve/src/lib.rs"));
        assert_eq!(d.rule, "lock-discipline");
    }
    // Guard held across direct file I/O.
    assert_eq!(diags[0].line, 27);
    assert!(diags[0].message.contains("`serve::queue`"));
    assert!(diags[0].message.contains("blocking `fs::write`"));
    // Guard held across a call that reaches blocking work.
    assert_eq!(diags[1].line, 33);
    assert!(diags[1].message.contains("call to `persist`"));
    assert!(diags[1].message.contains("`fs::write`"));
    // Both halves of the inconsistent queue/log ordering.
    assert_eq!(diags[2].line, 44);
    assert!(diags[2].message.contains("inconsistent order"));
    assert_eq!(diags[3].line, 52);
    assert!(diags[3].message.contains("inconsistent order"));
}

#[test]
fn l9_disciplined_locking_is_clean() {
    let diags = lint_fixture("lock_discipline_clean");
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn l10_nondeterministic_iteration_is_reported() {
    let diags = lint_fixture("det_iter");
    assert_eq!(diags.len(), 2, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/report/src/lib.rs"));
        assert_eq!(d.rule, "deterministic-iteration");
        assert!(d.message.contains("`counters`"));
    }
    // Direct push into the rendered string.
    assert_eq!(diags[0].line, 12);
    assert!(diags[0].message.contains("`push_str`"));
    // The same leak through a resolved helper call.
    assert_eq!(diags[1].line, 22);
    assert!(diags[1].message.contains("call to `emit_line`"));
}

#[test]
fn l10_sorted_iteration_is_clean() {
    let diags = lint_fixture("det_iter_clean");
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn l11_layering_violations_are_reported() {
    let diags = lint_fixture("crate_layering");
    assert_eq!(diags.len(), 2, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.rule, "crate-layering");
    }
    // A `use ia_serve` path in the obs leaf (no manifest needed).
    assert_eq!(diags[0].file, Path::new("crates/obs/src/lib.rs"));
    assert_eq!(diags[0].line, 9);
    assert!(diags[0].message.contains("observability leaf"));
    // A `[dependencies]` entry in the tech manifest; the duplicate
    // `use ia_dse` edge in the source is folded into it, and the
    // `[dev-dependencies]` entry on serve does not count as an edge.
    assert_eq!(diags[1].file, Path::new("crates/tech/Cargo.toml"));
    assert_eq!(diags[1].line, 7);
    assert!(diags[1].message.contains("model crate `tech`"));
    assert!(diags[1].message.contains("product-layer crate `dse`"));
}

#[test]
fn l11_descending_dependencies_are_clean() {
    let diags = lint_fixture("crate_layering_clean");
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn l12_raw_logging_is_reported() {
    let diags = lint_fixture("no_raw_logging");
    assert_eq!(diags.len(), 3, "got {diags:?}");
    for d in &diags {
        assert_eq!(d.file, Path::new("crates/report/src/lib.rs"));
        assert_eq!(d.rule, "no-raw-logging");
        assert!(d.message.contains("return the error or count it"));
    }
    assert_eq!(diags[0].line, 9);
    assert!(diags[0].message.contains("`println!`"));
    assert_eq!(diags[1].line, 14);
    assert!(diags[1].message.contains("`eprintln!`"));
    assert_eq!(diags[2].line, 20);
    assert!(diags[2].message.contains("`dbg!`"));
}

#[test]
fn l12_exempts_the_cli_and_bench_crates() {
    let diags = lint_fixture("no_raw_logging_cli");
    assert!(diags.is_empty(), "unexpected findings: {diags:?}");
}

#[test]
fn stale_waivers_are_audited_by_default() {
    let diags = lint_fixture("stale_waiver");
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].file, Path::new("crates/demo/src/lib.rs"));
    assert_eq!(diags[0].line, 9);
    assert_eq!(diags[0].rule, "stale-waiver");
    assert!(diags[0].message.contains("`// lint: float-cast`"));

    // The opt-out tolerates the stale waiver (the used one on line 15
    // is silent either way).
    let opts = LintOptions {
        allow_stale_waivers: true,
    };
    let tolerated =
        lint_workspace_opts(&fixture("stale_waiver"), opts).expect("fixture tree is readable");
    assert!(tolerated.is_empty(), "unexpected findings: {tolerated:?}");
}

#[test]
fn cli_check_spec_validates_experiment_specs() {
    let bin = env!("CARGO_BIN_EXE_ia-lint");
    let dir = std::env::temp_dir().join("ia_lint_spec_test");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let good = dir.join("spec.toml");
    std::fs::write(
        &good,
        "name = \"lint-spec\"\n\n[base]\ngates = 20000\nbunch = 2000\n\n\
         [[axes]]\nknob = \"m\"\nvalues = [1.5, 2.0]\n",
    )
    .expect("writable");
    let ok = Command::new(bin)
        .arg("check-spec")
        .arg(&good)
        .output()
        .expect("runs");
    assert!(
        ok.status.success(),
        "valid spec must exit 0: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        stdout.contains("experiment spec `lint-spec` OK"),
        "{stdout}"
    );
    assert!(stdout.contains("2 grid point(s)"), "{stdout}");

    let bad = dir.join("bad_spec.json");
    std::fs::write(
        &bad,
        r#"{"name": "x", "axes": [{"knob": "warp", "values": [1]}]}"#,
    )
    .expect("writable");
    let err = Command::new(bin)
        .arg("check-spec")
        .arg(&bad)
        .output()
        .expect("runs");
    assert_eq!(err.status.code(), Some(1), "unknown knob must exit 1");
    assert!(String::from_utf8_lossy(&err.stderr).contains("invalid spec"));

    let missing = Command::new(bin)
        .args(["check-spec", "/nonexistent/spec.toml"])
        .output()
        .expect("runs");
    assert_eq!(
        missing.status.code(),
        Some(2),
        "unreadable file must exit 2"
    );
}

#[test]
fn cli_exit_codes_and_text_format() {
    let bin = env!("CARGO_BIN_EXE_ia-lint");

    let clean = Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("runs");
    assert!(clean.status.success(), "clean fixture must exit 0");
    assert!(String::from_utf8_lossy(&clean.stderr).contains("clean"));

    let dirty = Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("no_panic"))
        .output()
        .expect("runs");
    assert_eq!(dirty.status.code(), Some(1), "findings must exit 1");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:9: no-panic:"),
        "text format is `file:line: rule: message`, got: {stdout}"
    );

    // The usage text goes to stderr. With the pipe's read end dropped
    // before the spawn, that write fails, and the exit code stays 2.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let usage = Command::new(bin).stderr(writer).output().expect("runs");
    assert_eq!(usage.status.code(), Some(2), "missing command must exit 2");

    let missing = Command::new(bin)
        .args(["lint", "--root", "/nonexistent/ia-lint-root"])
        .output()
        .expect("runs");
    assert_eq!(missing.status.code(), Some(2), "missing root must exit 2");
    assert!(String::from_utf8_lossy(&missing.stderr).contains("not a directory"));
}

#[test]
fn cli_schema_checkers_validate_artifacts() {
    let bin = env!("CARGO_BIN_EXE_ia-lint");
    let dir = std::env::temp_dir().join("ia_lint_schema_test");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let metrics = dir.join("metrics.json");
    std::fs::write(
        &metrics,
        r#"{"counters":{"dp.states":4},"spans":[{"path":"dp.solve","calls":1,"total_ns":9}],"histograms":[]}"#,
    )
    .expect("writable");
    let ok = Command::new(bin)
        .arg("check-metrics")
        .arg(&metrics)
        .output()
        .expect("runs");
    assert!(ok.status.success(), "valid snapshot must exit 0");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("metrics snapshot OK"));

    let bad = dir.join("bad.json");
    std::fs::write(&bad, r#"{"counters":{},"spans":[],"histograms":[]}"#).expect("writable");
    let err = Command::new(bin)
        .arg("check-metrics")
        .arg(&bad)
        .output()
        .expect("runs");
    assert_eq!(err.status.code(), Some(1), "schema violation must exit 1");
    assert!(String::from_utf8_lossy(&err.stderr).contains("collector enabled"));

    let missing = Command::new(bin)
        .args(["check-metrics", "/nonexistent/metrics.json"])
        .output()
        .expect("runs");
    assert_eq!(
        missing.status.code(),
        Some(2),
        "unreadable file must exit 2"
    );

    let no_file = Command::new(bin)
        .arg("check-metrics")
        .output()
        .expect("runs");
    assert_eq!(
        no_file.status.code(),
        Some(2),
        "missing operand must exit 2"
    );
}

#[test]
fn cli_check_trace_validates_trace_exports() {
    let bin = env!("CARGO_BIN_EXE_ia-lint");
    let dir = std::env::temp_dir().join("ia_lint_trace_test");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let good = dir.join("trace.json");
    std::fs::write(
        &good,
        r#"[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"iarank"}},
            {"name":"dp.solve","cat":"span","ph":"B","ts":1.5,"pid":1,"tid":1},
            {"name":"dp.solve","cat":"span","ph":"E","ts":9.0,"pid":1,"tid":1}]"#,
    )
    .expect("writable");
    let ok = Command::new(bin)
        .arg("check-trace")
        .arg(&good)
        .output()
        .expect("runs");
    assert!(ok.status.success(), "valid trace must exit 0");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("trace OK"));

    let bad = dir.join("bad_trace.json");
    std::fs::write(
        &bad,
        r#"[{"name":"dp.solve","cat":"span","ph":"E","ts":1,"pid":1,"tid":1}]"#,
    )
    .expect("writable");
    let err = Command::new(bin)
        .arg("check-trace")
        .arg(&bad)
        .output()
        .expect("runs");
    assert_eq!(err.status.code(), Some(1), "unmatched end must exit 1");
    assert!(String::from_utf8_lossy(&err.stderr).contains("does not close"));
}

#[test]
fn cli_allow_stale_waivers_downgrades_the_audit() {
    let bin = env!("CARGO_BIN_EXE_ia-lint");
    let strict = Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture("stale_waiver"))
        .output()
        .expect("runs");
    assert_eq!(strict.status.code(), Some(1), "stale waiver must exit 1");
    assert!(String::from_utf8_lossy(&strict.stdout).contains("stale-waiver"));

    let tolerant = Command::new(bin)
        .args(["lint", "--allow-stale-waivers", "--root"])
        .arg(fixture("stale_waiver"))
        .output()
        .expect("runs");
    assert!(
        tolerant.status.success(),
        "--allow-stale-waivers must exit 0: {}",
        String::from_utf8_lossy(&tolerant.stdout)
    );
}

#[test]
fn cli_json_format_lists_each_finding() {
    let bin = env!("CARGO_BIN_EXE_ia-lint");
    let out = Command::new(bin)
        .args(["lint", "--format", "json", "--root"])
        .arg(fixture("raw_f64"))
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.contains("\"rule\": \"raw-f64\""));
    assert!(stdout.contains("\"line\": 8"));
    assert!(stdout.contains("crates/tech/src/lib.rs"));
}
