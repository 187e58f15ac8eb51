//! Pinned run-store and report bytes: a small dse spec and a small
//! corpus spec, run with one worker so the journal line order is
//! fixed, must write exactly the committed `manifest.json` and
//! `results.jsonl` and report exactly the committed text and `--csv`.
//! The expected files live in `tests/data/store_bytes/`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn data() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/store_bytes")
}

fn iarank(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_iarank"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "iarank {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

fn expected(kind: &str, file: &str) -> String {
    std::fs::read_to_string(data().join(kind).join(file)).expect("expected file")
}

/// Runs `<kind> run` on the pinned spec and compares every byte.
fn check(kind: &str) {
    let runs = std::env::temp_dir().join(format!("ia-store-bytes-{kind}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&runs);
    let spec = data().join(format!("{kind}.toml"));
    let status = iarank(&[
        kind,
        "run",
        "--spec",
        spec.to_str().expect("utf8 path"),
        "--runs",
        runs.to_str().expect("utf8 path"),
    ]);
    let run_dir = status
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("run: "))
        .expect("status names the run directory")
        .to_owned();
    for file in ["manifest.json", "results.jsonl"] {
        let written = std::fs::read_to_string(Path::new(&run_dir).join(file)).expect("written");
        assert_eq!(written, expected(kind, file), "{kind} {file}");
    }
    let report = iarank(&[kind, "report", "--run", &run_dir]);
    assert_eq!(report, expected(kind, "report.txt"), "{kind} report");
    let csv = iarank(&[kind, "report", "--run", &run_dir, "--csv"]);
    assert_eq!(csv, expected(kind, "report.csv"), "{kind} report --csv");
    let _ = std::fs::remove_dir_all(&runs);
}

#[test]
fn dse_store_and_report_bytes_are_pinned() {
    check("dse");
}

#[test]
fn corpus_store_and_report_bytes_are_pinned() {
    check("corpus");
}
