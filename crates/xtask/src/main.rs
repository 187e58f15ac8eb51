//! `ia-lint` command-line entry point.
//!
//! ```text
//! cargo run -p xtask -- lint [--format text|json] [--root PATH]
//!                       [--allow-stale-waivers]
//! cargo run -p xtask -- check-metrics FILE
//! cargo run -p xtask -- check-trace FILE
//! cargo run -p xtask -- check-spec FILE
//! cargo run -p xtask -- check-prom FILE
//! cargo run -p xtask -- check-corpus FILE
//! ```
//!
//! Exits 0 on a clean workspace / valid artifact, 1 when any rule
//! fires or an artifact is malformed, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Writes the usage text and the `ia-lint: …` lines to stderr. Write
/// errors are ignored, so a closed stderr leaves the exit code the
/// command's own.
fn write_stderr(text: &str) {
    let _ = std::io::stderr().write_all(text.as_bytes());
}

fn usage() -> ExitCode {
    write_stderr(&format!(
        "usage: ia-lint lint [--format text|json] [--root PATH]\n\
         \x20                [--allow-stale-waivers]\n\
         \x20      ia-lint check-metrics FILE\n\
         \x20      ia-lint check-trace FILE\n\
         \x20      ia-lint check-spec FILE\n\
         \x20      ia-lint check-prom FILE\n\
         \x20      ia-lint check-corpus FILE\n\
         \n\
         lint walks the workspace source and enforces the domain rules\n\
         {}.\n\
         Unused `// lint:` waivers are reported as stale-waiver unless\n\
         --allow-stale-waivers is given. See docs/linting.md.\n\
         \n\
         check-metrics validates a CLI `--metrics json` snapshot;\n\
         check-trace validates a Chrome trace-event export;\n\
         check-spec validates an ia-dse experiment spec (TOML/JSON);\n\
         check-prom validates a Prometheus 0.0.4 text exposition like\n\
         `GET /metrics` serves under `Accept: text/plain`;\n\
         check-corpus validates an ia-corpus-v1 rank-comparison report\n\
         (the `iarank corpus report` text or its `--csv true` form,\n\
         auto-detected).\n\
         See docs/observability.md.\n",
        xtask::registry::usage_list()
    ));
    ExitCode::from(2)
}

/// Runs a schema checker against a file, mapping I/O errors to exit 2
/// and schema violations to exit 1.
fn run_check(kind: &str, file: &str, check: fn(&str) -> Result<String, String>) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            write_stderr(&format!("ia-lint: cannot read {file}: {e}\n"));
            return ExitCode::from(2);
        }
    };
    match check(&text) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(problem) => {
            write_stderr(&format!("ia-lint: {kind} {file}: {problem}\n"));
            ExitCode::FAILURE
        }
    }
}

fn default_root() -> PathBuf {
    // When run via `cargo run -p xtask`, the manifest dir is
    // `<workspace>/crates/xtask`; fall back to the current directory
    // for a standalone invocation.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .filter(|p| p.join("Cargo.toml").is_file())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "text".to_string();
    let mut root = default_root();
    let mut command = None;

    // The check-* subcommands take exactly one positional file.
    match args.first().map(String::as_str) {
        Some("check-metrics") if args.len() == 2 => {
            return run_check("check-metrics", &args[1], xtask::schema::check_metrics);
        }
        Some("check-trace") if args.len() == 2 => {
            return run_check("check-trace", &args[1], xtask::schema::check_trace);
        }
        Some("check-spec") if args.len() == 2 => {
            return run_check("check-spec", &args[1], xtask::schema::check_spec);
        }
        Some("check-prom") if args.len() == 2 => {
            return run_check("check-prom", &args[1], xtask::schema::check_prom);
        }
        Some("check-corpus") if args.len() == 2 => {
            return run_check("check-corpus", &args[1], xtask::schema::check_corpus);
        }
        Some("check-metrics" | "check-trace" | "check-spec" | "check-prom" | "check-corpus") => {
            return usage()
        }
        _ => {}
    }

    let mut opts = xtask::LintOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f.clone(),
                _ => return usage(),
            },
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--allow-stale-waivers" => opts.allow_stale_waivers = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    if command != Some("lint") {
        return usage();
    }

    if !root.is_dir() {
        write_stderr(&format!(
            "ia-lint: root {} is not a directory\n",
            root.display()
        ));
        return ExitCode::from(2);
    }
    let diags = match xtask::lint_workspace_opts(&root, opts) {
        Ok(d) => d,
        Err(e) => {
            write_stderr(&format!("ia-lint: cannot walk {}: {e}\n", root.display()));
            return ExitCode::from(2);
        }
    };

    match format.as_str() {
        "json" => print!("{}", xtask::render_json(&diags)),
        _ => {
            print!("{}", xtask::render_text(&diags));
            if diags.is_empty() {
                write_stderr(&format!(
                    "ia-lint: clean ({} rules)\n",
                    xtask::registry::RULES.len()
                ));
            } else {
                write_stderr(&format!("ia-lint: {} finding(s)\n", diags.len()));
            }
        }
    }

    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
