//! `iarank` — command-line interface to the interconnect-rank metric.
//!
//! See `iarank help` for usage.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::io::Write;

use args::ParsedArgs;
use commands::{CliError, MetricsOptions};

/// Writes command output to stdout. A reader that stopped reading
/// (`iarank … | head -1`) is not a failure: exit 0 quietly, as Unix
/// filters do.
fn write_stdout(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            write_stderr(&format!("error: cannot write output: {e}\n"));
            std::process::exit(1);
        }
    }
}

/// Writes diagnostics to stderr. A closed stderr must not turn an
/// error into a panic, so the exit code stays the command's own.
fn write_stderr(text: &str) {
    let _ = std::io::stderr().write_all(text.as_bytes());
}

fn main() {
    let parsed = match ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            write_stderr(&format!("error: {e}\n{}\n", commands::usage()));
            std::process::exit(2);
        }
    };
    // Telemetry flags are read before dispatch so the subcommands'
    // `reject_unknown` sees them as consumed and so the collector is
    // live before any instrumented code runs.
    let metrics = match MetricsOptions::from_args(&parsed) {
        Ok(metrics) => metrics,
        Err(e) => {
            write_stderr(&format!("error: {e}\n"));
            std::process::exit(1);
        }
    };
    if metrics.wants_collector() {
        ia_obs::set_enabled(true);
    }
    if metrics.wants_trace() {
        ia_obs::set_trace_enabled(true);
    }
    match commands::dispatch(&parsed) {
        Ok(output) => {
            write_stdout(&output);
            write_stdout(&metrics.render());
            // The trace goes to its own file; the confirmation goes to
            // stderr so `--metrics json | tail -n 1` stays intact.
            match metrics.write_trace() {
                Ok(Some(path)) => write_stderr(&format!("trace written to {path}\n")),
                Ok(None) => {}
                Err(e) => {
                    write_stderr(&format!("error: {e}\n"));
                    std::process::exit(1);
                }
            }
        }
        // Usage is shown exactly for argument errors (exit 2); domain
        // failures get the bare message (exit 1).
        Err(CliError::Args(e)) => {
            write_stderr(&format!("error: {e}\n{}\n", commands::usage()));
            std::process::exit(2);
        }
        Err(e) => {
            write_stderr(&format!("error: {e}\n"));
            std::process::exit(1);
        }
    }
}
