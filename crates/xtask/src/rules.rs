//! The per-file lint rules (L1–L8). See the crate docs for the
//! rationale behind each and `docs/linting.md` for the user-facing
//! description. The workspace-level rules (L9–L11) live in
//! [`crate::analysis`].
//!
//! Rules emit findings unconditionally (test code aside); waivers are
//! applied centrally in `lib.rs` so the stale-waiver audit can tell
//! which `// lint:` comments actually suppressed something.

use crate::diag::Diagnostic;
use crate::source::{is_float_literal, SourceFile};
use std::path::Path;

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// L1 `crate-header`: a lib crate root must carry
/// `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
pub fn check_crate_header(rel: &Path, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let has = |needle: &str| {
        file.code_lines
            .iter()
            .any(|l| l.replace(' ', "").contains(needle))
    };
    if !has("#![forbid(unsafe_code)]") {
        diags.push(Diagnostic::new(
            rel.to_path_buf(),
            1,
            "crate-header",
            "lib crate must declare `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    if !has("#![warn(missing_docs)]") && !has("#![deny(missing_docs)]") {
        diags.push(Diagnostic::new(
            rel.to_path_buf(),
            1,
            "crate-header",
            "lib crate must declare `#![warn(missing_docs)]`".to_string(),
        ));
    }
}

/// L2 `no-panic`: no `.unwrap()` / `.expect(...)` / `panic!` in
/// non-test code of a model crate.
pub fn check_no_panic(rel: &Path, file: &SourceFile, krate: &str, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.in_test_code(t.line) {
            continue;
        }
        let what = match t.text.as_str() {
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
                if i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|n| n.text == "(") =>
            {
                format!("`.{}()`", t.text)
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if toks.get(i + 1).is_some_and(|n| n.text == "!") =>
            {
                format!("`{}!`", t.text)
            }
            _ => continue,
        };
        diags.push(Diagnostic::new(
            rel.to_path_buf(),
            t.line,
            "no-panic",
            format!(
                "{what} in non-test code of model crate `{krate}`; return a typed error \
                 instead (waive with `// lint: no-panic`)"
            ),
        ));
    }
}

/// L3 `raw-f64`: no raw `f64` parameters in `pub fn` signatures of a
/// model crate — quantities must use `ia-units` newtypes.
pub fn check_raw_f64(rel: &Path, file: &SourceFile, krate: &str, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let mut i = 0;
    while i < toks.len() {
        // Match `pub [(...)]? [const|async|unsafe|extern ".."]* fn name`.
        if toks[i].text != "pub" {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "(") {
            // pub(crate) / pub(super) restriction: not a public API.
            i = j;
            continue;
        }
        while toks
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern"))
        {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "fn") {
            i += 1;
            continue;
        }
        let fn_line = toks[j].line;
        let fn_name = toks.get(j + 1).map_or(String::new(), |t| t.text.clone());
        // Skip generics to the parameter list.
        let mut k = j + 2;
        if toks.get(k).is_some_and(|t| t.text == "<") {
            let mut depth = 0i64;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        if toks.get(k).is_none_or(|t| t.text != "(") {
            i = k;
            continue;
        }
        // Scan the parameter list for `: f64` at top nesting depth.
        let mut depth = 0i64;
        let mut angle = 0i64;
        while k < toks.len() {
            let t = &toks[k];
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "<" => angle += 1,
                ">" => angle -= 1,
                ":" if depth == 1
                    && angle == 0
                    && toks.get(k.wrapping_sub(1)).is_some_and(|p| p.text != ":")
                    && toks.get(k + 1).is_some_and(|n| n.text != ":") =>
                {
                    // Type position of a top-level parameter. Flag a
                    // bare `f64` (allowing `&`/`mut` prefixes only).
                    let mut ty = k + 1;
                    while toks
                        .get(ty)
                        .is_some_and(|t| matches!(t.text.as_str(), "&" | "mut" | "'"))
                    {
                        ty += 1;
                    }
                    let is_bare_f64 = toks.get(ty).is_some_and(|t| t.text == "f64")
                        && toks
                            .get(ty + 1)
                            .is_none_or(|n| n.text == "," || n.text == ")");
                    if is_bare_f64 {
                        let line = toks[ty].line;
                        if !file.in_test_code(line) {
                            diags.push(
                                Diagnostic::new(
                                    rel.to_path_buf(),
                                    line,
                                    "raw-f64",
                                    format!(
                                        "raw `f64` parameter in `pub fn {fn_name}` of model \
                                         crate `{krate}`; use an `ia-units` newtype (waive \
                                         with `// lint: raw-f64`)"
                                    ),
                                )
                                // A waiver on the `fn` line covers every
                                // parameter of a multi-line signature.
                                .also_waivable_at(fn_line),
                            );
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
}

/// L4 `float-cast`: no `as` float→int casts outside tests.
///
/// Textual heuristic: an `as <integer-type>` token pair is flagged when
/// the cast source shows float provenance — the preceding token is a
/// float literal, or the line up to the cast mentions `f64`/`f32` or a
/// float-producing method (`floor`, `ceil`, `round`, `trunc`, `sqrt`,
/// `ln`, `log2`, `exp`, `powi`, `powf`).
pub fn check_float_cast(rel: &Path, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const FLOAT_METHODS: &[&str] = &[
        ".floor", ".ceil", ".round", ".trunc", ".sqrt", ".ln", ".log2", ".exp", ".powi", ".powf",
    ];
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "as" {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if !INT_TYPES.contains(&target.text.as_str()) {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        let prev_is_float = i > 0 && is_float_literal(&toks[i - 1].text);
        let line_text = file.code_line(t.line);
        let line_has_float = line_text.contains("f64")
            || line_text.contains("f32")
            || FLOAT_METHODS.iter().any(|m| line_text.contains(m))
            || toks[..i]
                .iter()
                .rev()
                .take_while(|p| p.line == t.line)
                .any(|p| is_float_literal(&p.text));
        if prev_is_float || line_has_float {
            diags.push(Diagnostic::new(
                rel.to_path_buf(),
                t.line,
                "float-cast",
                format!(
                    "float→int `as {}` cast truncates silently; use a checked conversion \
                     (waive with `// lint: float-cast`)",
                    target.text
                ),
            ));
        }
    }
}

/// L6 `raw-timing`: no direct `Instant::now()` calls outside the
/// observability crate and test code — wall-clock measurement goes
/// through `ia_obs::Stopwatch` (benches) or `ia_obs::span` (library
/// phases) so every timing artifact shares one clock discipline.
pub fn check_raw_timing(rel: &Path, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "Instant" {
            continue;
        }
        // Match `Instant :: now (` (`::` lexes as two `:` tokens).
        let is_now_call = toks.get(i + 1).is_some_and(|a| a.text == ":")
            && toks.get(i + 2).is_some_and(|b| b.text == ":")
            && toks.get(i + 3).is_some_and(|n| n.text == "now")
            && toks.get(i + 4).is_some_and(|p| p.text == "(");
        if !is_now_call {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        diags.push(Diagnostic::new(
            rel.to_path_buf(),
            t.line,
            "raw-timing",
            "`Instant::now()` outside `crates/obs`; measure with `ia_obs::Stopwatch` \
             or a span (waive with `// lint: raw-timing`)"
                .to_string(),
        ));
    }
}

/// L7 `thread-registration`: `std::thread::spawn` / `std::thread::scope`
/// in non-test code of a model crate must register its workers with the
/// observability layer — a `register_worker` call within the following
/// 25 lines — so worker-thread counters, spans and trace events merge
/// back at collection points instead of dying with the thread-local
/// storage (see `ia_obs::MergeSink`).
pub fn check_thread_registration(
    rel: &Path,
    file: &SourceFile,
    krate: &str,
    diags: &mut Vec<Diagnostic>,
) {
    /// How many lines below the `thread::...` call the registration
    /// must appear (covers the spawned closure's opening statements).
    const WINDOW: usize = 25;
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.text != "thread" {
            continue;
        }
        // Match `thread :: spawn (` / `thread :: scope (`
        // (`::` lexes as two `:` tokens).
        let entry = match (
            toks.get(i + 1).map(|a| a.text.as_str()),
            toks.get(i + 2).map(|b| b.text.as_str()),
            toks.get(i + 3).map(|n| n.text.as_str()),
            toks.get(i + 4).map(|p| p.text.as_str()),
        ) {
            (Some(":"), Some(":"), Some(entry @ ("spawn" | "scope")), Some("(")) => entry,
            _ => continue,
        };
        if file.in_test_code(t.line) {
            continue;
        }
        let registered =
            (t.line..=t.line + WINDOW).any(|l| file.code_line(l).contains("register_worker"));
        if !registered {
            diags.push(Diagnostic::new(
                rel.to_path_buf(),
                t.line,
                "thread-registration",
                format!(
                    "`thread::{entry}` in non-test code of model crate `{krate}` without an \
                     `ia_obs` worker registration (`register_worker`) within {WINDOW} lines; \
                     worker telemetry would be lost at thread exit (waive with \
                     `// lint: thread-registration`)"
                ),
            ));
        }
    }
}

/// L8 `bounded-concurrency`: scheduler code in a model crate must not
/// leak concurrency resources — no unbounded `mpsc::channel()` (a
/// producer outrunning a consumer grows the queue without limit; use
/// `mpsc::sync_channel` or an explicit work queue), and no discarded
/// `thread::spawn` `JoinHandle` (an unjoined worker outlives shutdown
/// and its telemetry, error, or partial write is lost).
pub fn check_bounded_concurrency(
    rel: &Path,
    file: &SourceFile,
    krate: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.in_test_code(t.line) {
            continue;
        }
        // Unbounded channel: `mpsc :: channel [::<T>] (` (`::` lexes
        // as two `:` tokens). `sync_channel` is bounded and silent.
        if t.text == "mpsc"
            && toks.get(i + 1).is_some_and(|a| a.text == ":")
            && toks.get(i + 2).is_some_and(|b| b.text == ":")
            && toks.get(i + 3).is_some_and(|n| n.text == "channel")
        {
            // Step over an optional turbofish to the call paren.
            let mut p = i + 4;
            if toks.get(p).is_some_and(|a| a.text == ":")
                && toks.get(p + 1).is_some_and(|b| b.text == ":")
                && toks.get(p + 2).is_some_and(|c| c.text == "<")
            {
                let mut angle = 0i64;
                p += 2;
                while p < toks.len() {
                    match toks[p].text.as_str() {
                        "<" => angle += 1,
                        ">" => {
                            angle -= 1;
                            if angle == 0 {
                                p += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    p += 1;
                }
            }
            if toks.get(p).is_none_or(|t| t.text != "(") {
                continue;
            }
            diags.push(Diagnostic::new(
                rel.to_path_buf(),
                t.line,
                "bounded-concurrency",
                format!(
                    "unbounded `mpsc::channel()` in non-test code of model crate `{krate}`; \
                     use `mpsc::sync_channel` or a bounded work queue so producers \
                     backpressure (waive with `// lint: bounded-concurrency`)"
                ),
            ));
        }
        // Discarded spawn handle: a `thread :: spawn ( … ) ;` whole
        // statement (nothing consumes the returned handle), or the
        // handle bound to `_`. A handle that is named, pushed, block-
        // valued, or returned is fine.
        if t.text == "thread"
            && toks.get(i + 1).is_some_and(|a| a.text == ":")
            && toks.get(i + 2).is_some_and(|b| b.text == ":")
            && toks.get(i + 3).is_some_and(|n| n.text == "spawn")
            && toks.get(i + 4).is_some_and(|p| p.text == "(")
        {
            // Step over a `std ::` path prefix to the true context.
            let mut before = i;
            if i >= 3
                && toks[i - 1].text == ":"
                && toks[i - 2].text == ":"
                && toks[i - 3].text == "std"
            {
                before = i - 3;
            }
            let statement_position = match before.checked_sub(1).and_then(|p| toks.get(p)) {
                None => true,
                Some(prev) => matches!(prev.text.as_str(), ";" | "{" | "}"),
            };
            // Walk to the matching close paren of the spawn call; the
            // handle is dropped only when a `;` follows immediately.
            let mut depth = 0i64;
            let mut k = i + 4;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            let dropped_on_the_floor =
                statement_position && toks.get(k + 1).is_some_and(|n| n.text == ";");
            let bound_to_underscore =
                before >= 2 && toks[before - 1].text == "=" && toks[before - 2].text == "_";
            if dropped_on_the_floor || bound_to_underscore {
                diags.push(Diagnostic::new(
                    rel.to_path_buf(),
                    t.line,
                    "bounded-concurrency",
                    format!(
                        "`thread::spawn` with a discarded `JoinHandle` in non-test code of \
                         model crate `{krate}`; keep the handle and join it on shutdown so \
                         the worker cannot outlive the scheduler (waive with \
                         `// lint: bounded-concurrency`)"
                    ),
                ));
            }
        }
    }
}

/// L12 `no-raw-logging`: no `println!` / `eprintln!` / `print!` /
/// `eprint!` / `dbg!` in non-test library code. Library code returns
/// the error or counts it; the CLI binary owns the process's stdout
/// and stderr, and it and the bench report binaries are exempt.
pub fn check_no_raw_logging(
    rel: &Path,
    file: &SourceFile,
    krate: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !matches!(
            t.text.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        ) {
            continue;
        }
        if toks.get(i + 1).is_none_or(|n| n.text != "!") {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        diags.push(Diagnostic::new(
            rel.to_path_buf(),
            t.line,
            "no-raw-logging",
            format!(
                "`{}!` in non-test code of crate `{krate}`; return the error or count it, \
                 and leave stdout and stderr to the CLI (waive with \
                 `// lint: no-raw-logging`)",
                t.text
            ),
        ));
    }
}

/// L5 `nonfinite`: `f64::INFINITY` / `f64::NEG_INFINITY` / `f64::NAN`
/// literals must sit within three lines of an `is_finite` / `is_nan` /
/// `is_infinite` guard.
pub fn check_nonfinite(rel: &Path, file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !matches!(t.text.as_str(), "INFINITY" | "NEG_INFINITY" | "NAN") {
            continue;
        }
        // Require the `f64 :: :: <name>` path prefix.
        let path_ok = i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && matches!(toks[i - 3].text.as_str(), "f64" | "f32");
        if !path_ok {
            continue;
        }
        if file.in_test_code(t.line) {
            continue;
        }
        let guarded = (t.line.saturating_sub(3)..=t.line + 3).any(|l| {
            let text = file.code_line(l);
            text.contains("is_finite") || text.contains("is_nan") || text.contains("is_infinite")
        });
        if !guarded {
            diags.push(Diagnostic::new(
                rel.to_path_buf(),
                t.line,
                "nonfinite",
                format!(
                    "`f64::{}` literal without an `is_finite`/`is_nan` guard within 3 lines; \
                     map the sentinel to an explicit representation (waive with \
                     `// lint: nonfinite`)",
                    t.text
                ),
            ));
        }
    }
}
