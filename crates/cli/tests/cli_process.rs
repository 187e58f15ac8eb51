//! End-to-end tests of the installed `iarank` binary via a real process
//! (argument handling, exit codes, stdout/stderr separation).

use std::process::{Command, Stdio};

fn iarank() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iarank"))
}

#[test]
fn help_exits_zero_and_prints_usage() {
    let out = iarank().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("USAGE"));
    assert!(text.contains("optimize"));
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
    let out = iarank()
        .args(["rank", "--gates", "plenty"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("plenty"));
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
