//! `ia-lint` command-line entry point.
//!
//! ```text
//! cargo run -p xtask -- lint [--format text|json|sarif] [--root PATH]
//!                       [--allow-stale-waivers]
//! cargo run -p xtask -- check-metrics FILE
//! cargo run -p xtask -- check-trace FILE
//! cargo run -p xtask -- check-spec FILE
//! cargo run -p xtask -- check-sarif FILE
//! cargo run -p xtask -- check-logs FILE
//! cargo run -p xtask -- check-prom FILE
//! cargo run -p xtask -- check-prof FILE
//! cargo run -p xtask -- check-corpus FILE
//! ```
//!
//! Exits 0 on a clean workspace / valid artifact, 1 when any rule
//! fires or an artifact is malformed, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ia-lint lint [--format text|json|sarif] [--root PATH]\n\
         \x20                [--allow-stale-waivers]\n\
         \x20      ia-lint check-metrics FILE\n\
         \x20      ia-lint check-trace FILE\n\
         \x20      ia-lint check-spec FILE\n\
         \x20      ia-lint check-sarif FILE\n\
         \x20      ia-lint check-logs FILE\n\
         \x20      ia-lint check-prom FILE\n\
         \x20      ia-lint check-prof FILE\n\
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
         check-sarif validates a SARIF 2.1.0 log like `lint --format\n\
         sarif` emits;\n\
         check-logs validates a structured JSON-lines log file like\n\
         `--log-file` appends;\n\
         check-prom validates a Prometheus 0.0.4 text exposition like\n\
         `GET /metrics` serves under `Accept: text/plain`;\n\
         check-prof validates a hierarchical profile — the `ia-prof-v1`\n\
         JSON written by `--prof-out FILE.json` and served by\n\
         `GET /debug/prof`, or the folded-stack text any other\n\
         `--prof-out` extension emits (auto-detected);\n\
         check-corpus validates an ia-corpus-v1 rank-comparison report\n\
         (the `iarank corpus report` text or its `--csv true` form,\n\
         auto-detected).\n\
         See docs/observability.md.",
        xtask::registry::usage_list()
    );
    ExitCode::from(2)
}

/// Runs a schema checker against a file, mapping I/O errors to exit 2
/// and schema violations to exit 1.
fn run_check(kind: &str, file: &str, check: fn(&str) -> Result<String, String>) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ia-lint: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    match check(&text) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("ia-lint: {kind} {file}: {problem}");
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
        Some("check-sarif") if args.len() == 2 => {
            return run_check("check-sarif", &args[1], xtask::schema::check_sarif);
        }
        Some("check-logs") if args.len() == 2 => {
            return run_check("check-logs", &args[1], xtask::schema::check_logs);
        }
        Some("check-prom") if args.len() == 2 => {
            return run_check("check-prom", &args[1], xtask::schema::check_prom);
        }
        Some("check-prof") if args.len() == 2 => {
            return run_check("check-prof", &args[1], xtask::schema::check_prof);
        }
        Some("check-corpus") if args.len() == 2 => {
            return run_check("check-corpus", &args[1], xtask::schema::check_corpus);
        }
        Some(
            "check-metrics" | "check-trace" | "check-spec" | "check-sarif" | "check-logs"
            | "check-prom" | "check-prof" | "check-corpus",
        ) => return usage(),
        _ => {}
    }

    let mut opts = xtask::LintOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "lint" if command.is_none() => command = Some("lint"),
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" || f == "sarif" => format = f.clone(),
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
        eprintln!("ia-lint: root {} is not a directory", root.display());
        return ExitCode::from(2);
    }
    let diags = match xtask::lint_workspace_opts(&root, opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ia-lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match format.as_str() {
        "json" => print!("{}", xtask::render_json(&diags)),
        "sarif" => print!("{}", xtask::render_sarif(&diags)),
        _ => {
            print!("{}", xtask::render_text(&diags));
            if diags.is_empty() {
                eprintln!("ia-lint: clean ({} rules)", xtask::registry::RULES.len());
            } else {
                eprintln!("ia-lint: {} finding(s)", diags.len());
            }
        }
    }

    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
