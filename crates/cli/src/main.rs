//! `iarank` — command-line interface to the interconnect-rank metric.
//!
//! See `iarank help` for usage.

mod args;
mod commands;
mod signal;

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
            eprintln!("error: cannot write output: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let parsed = match ParsedArgs::parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    // Telemetry flags are read before dispatch so the subcommands'
    // `reject_unknown` sees them as consumed and so the collector is
    // live before any instrumented code runs.
    let metrics = match MetricsOptions::from_args(&parsed) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if metrics.wants_collector() {
        ia_obs::set_enabled(true);
    }
    if metrics.wants_trace() {
        ia_obs::set_trace_enabled(true);
    }
    if metrics.wants_logging() {
        ia_obs::set_log_level(metrics.log_level);
        ia_obs::log::log(
            ia_obs::LogLevel::Info,
            "cli.command",
            "command started",
            vec![(
                "command",
                ia_obs::json::JsonValue::Str(parsed.command.clone().unwrap_or_default()),
            )],
        );
    }
    match commands::dispatch(&parsed) {
        Ok(output) => {
            write_stdout(&output);
            write_stdout(&metrics.render());
            // The trace and logs go to their own files; confirmations
            // go to stderr so `--metrics json | tail -n 1` stays
            // intact.
            match metrics.write_prof() {
                Ok(Some(path)) => eprintln!("profile written to {path}"),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            match metrics.write_trace() {
                Ok(Some(path)) => eprintln!("trace written to {path}"),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            match metrics.write_logs() {
                Ok(Some(path)) => eprintln!("logs appended to {path}"),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        // Usage is shown exactly for argument errors (exit 2); domain
        // failures get the bare message (exit 1).
        Err(CliError::Args(e)) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
