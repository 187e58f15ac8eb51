//! `ia-lint`: a zero-dependency static-analysis pass for the
//! interconnect-rank workspace.
//!
//! The rank solver's correctness rests on invariants that `rustc`
//! cannot see: physical quantities must travel in `ia-units` newtypes,
//! model crates must not panic on library paths, and non-finite
//! sentinels must never escape unguarded. This pass walks the
//! workspace source (std-only — the build environment has no network
//! route to crates.io) and enforces twelve domain rules:
//!
//! * **L1 `crate-header`** — every lib crate declares
//!   `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.
//! * **L2 `no-panic`** — no `.unwrap()` / `.expect(...)` / `panic!`
//!   in non-test code of the model crates.
//! * **L3 `raw-f64`** — no raw `f64` parameters in `pub fn`
//!   signatures of the model crates; quantities use `ia-units`
//!   newtypes.
//! * **L4 `float-cast`** — no `as` float→int casts outside tests.
//! * **L5 `nonfinite`** — every `f64::INFINITY` / `f64::NAN` literal
//!   sits within three lines of an `is_finite` / `is_nan` /
//!   `is_infinite` guard.
//! * **L6 `raw-timing`** — no direct `Instant::now()` calls outside
//!   `crates/obs` and test code; wall-clock measurement goes through
//!   `ia_obs::Stopwatch` or spans.
//! * **L7 `thread-registration`** — `std::thread::spawn` /
//!   `std::thread::scope` in non-test code of a model crate must pair
//!   with an `ia_obs` worker registration (`register_worker`) so
//!   cross-thread telemetry merges instead of vanishing.
//! * **L8 `bounded-concurrency`** — scheduler code in a model crate
//!   must not create unbounded `mpsc::channel()`s or discard a
//!   `thread::spawn` `JoinHandle`; queues must backpressure and
//!   workers must be joinable at shutdown.
//! * **L12 `no-raw-logging`** — no `println!` / `eprintln!` /
//!   `print!` / `eprint!` / `dbg!` in non-test library code outside
//!   the CLI and bench binaries: library code returns the error or
//!   counts it, and the CLI owns stdout and stderr.
//!
//! Three rules reason across files over a workspace program model
//! ([`model`]) of functions, lock sites, call edges and the crate
//! dependency graph (see [`analysis`]):
//!
//! * **L9 `lock-discipline`** — no mutex/rwlock guard held across
//!   blocking work (I/O, sleeps, the DP solve entry points), directly
//!   or through a resolved call, and no lock pair acquired in both
//!   orders anywhere in the workspace.
//! * **L10 `deterministic-iteration`** — no `HashMap`/`HashSet`
//!   iteration feeding a serialization, hashing or report path
//!   without an intervening sort.
//! * **L11 `crate-layering`** — crate dependencies (manifests and
//!   `use` paths) descend strictly in the intended crate DAG.
//!
//! Any rule can be waived on a specific line with a
//! `// lint: <rule-name>` comment; see `docs/linting.md`. Waivers are
//! applied centrally: rules report every candidate site, and the pass
//! filters suppressed findings afterwards — which lets it audit the
//! waivers themselves. A waiver that no longer suppresses anything is
//! reported as `stale-waiver` (disable with
//! [`LintOptions::allow_stale_waivers`] while migrating), so waivers
//! cannot silently outlive the code they excused.
//!
//! Beyond linting, the binary also validates the observability
//! artifacts the workspace emits — `check-metrics FILE` for the CLI's
//! `--metrics json` snapshot, `check-trace FILE` for Chrome
//! trace-event exports, `check-prom FILE` for the Prometheus text
//! exposition (see [`schema`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod diag;
pub mod model;
pub mod registry;
mod rules;
pub mod schema;
mod source;

pub use diag::{render_json, render_text, Diagnostic};
pub use source::{SourceFile, Waiver};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose public APIs model physical quantities, plus the
/// serving, exploration and corpus layers that expose them; rules L2,
/// L3, L7 and L8 apply only to these. `serve`, `dse` and `corpus` are
/// held to the model-crate bar — waiver-free — so the request path
/// cannot panic, every worker thread feeds the metrics endpoint, and
/// the shared point executor cannot leak queues or threads.
pub const MODEL_CRATES: &[&str] = &[
    "units", "tech", "rc", "wld", "delay", "arch", "core", "serve", "dse", "corpus",
];

/// Directory names never linted (third-party shims, build output).
const SKIPPED_DIRS: &[&str] = &["vendor", "target", "xtask", ".git"];

/// Directory names whose contents count as test code.
const TEST_DIRS: &[&str] = &["tests", "benches", "examples"];

/// One crate discovered in the workspace tree.
#[derive(Debug)]
pub struct CrateSource {
    /// Crate directory name (`core`, `units`, …) or the package name
    /// for the workspace-root facade crate.
    pub name: String,
    /// `src/lib.rs` if the crate has a library target.
    pub lib_root: Option<PathBuf>,
    /// All `.rs` files under the crate, with their test-ness.
    pub files: Vec<(PathBuf, bool)>,
}

impl CrateSource {
    /// Whether rules L2/L3 apply to this crate.
    #[must_use]
    pub fn is_model_crate(&self) -> bool {
        MODEL_CRATES.contains(&self.name.as_str())
    }
}

/// Discovers the crates of the workspace rooted at `root`.
///
/// Recognized layout: `crates/<name>/` for member crates plus an
/// optional root facade crate with `src/`. `vendor/`, `target/` and
/// `xtask` are skipped.
///
/// # Errors
///
/// Propagates filesystem errors from directory walks.
pub fn discover(root: &Path) -> io::Result<Vec<CrateSource>> {
    let mut crates = Vec::new();

    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for dir in entries {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIPPED_DIRS.contains(&name.as_str()) {
                continue;
            }
            if let Some(krate) = collect_crate(&dir, &name)? {
                crates.push(krate);
            }
        }
    }

    // Workspace-root facade crate.
    if root.join("src").is_dir() {
        if let Some(mut krate) = collect_crate(root, "(root)")? {
            // The root tests/, benches/ and examples/ belong to the
            // facade crate and were collected by collect_crate.
            krate.name = "(root)".to_string();
            crates.push(krate);
        }
    }

    Ok(crates)
}

/// Collects the `.rs` files of one crate directory.
fn collect_crate(dir: &Path, name: &str) -> io::Result<Option<CrateSource>> {
    let src = dir.join("src");
    if !src.is_dir() {
        return Ok(None);
    }
    let mut files = Vec::new();
    walk_rs(&src, false, &mut files)?;
    for test_dir in TEST_DIRS {
        let d = dir.join(test_dir);
        if d.is_dir() {
            walk_rs(&d, true, &mut files)?;
        }
    }
    files.sort();
    let lib_root = src.join("lib.rs");
    Ok(Some(CrateSource {
        name: name.to_string(),
        lib_root: lib_root.is_file().then_some(lib_root),
        files,
    }))
}

fn walk_rs(dir: &Path, in_tests: bool, out: &mut Vec<(PathBuf, bool)>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let dir_name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if SKIPPED_DIRS.contains(&dir_name.as_str()) {
                continue;
            }
            walk_rs(&path, in_tests, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path, in_tests));
        }
    }
    Ok(())
}

/// Options for a lint pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Skip the stale-waiver audit: `// lint:` comments that suppress
    /// nothing are tolerated instead of reported. Off by default —
    /// a waiver that outlived its finding is dead weight that hides
    /// future findings on the same line.
    pub allow_stale_waivers: bool,
}

/// Lints the workspace rooted at `root` with default options,
/// returning all diagnostics sorted by file and line.
///
/// # Errors
///
/// Propagates filesystem errors; unreadable files become diagnostics
/// rather than aborting the pass.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    lint_workspace_opts(root, LintOptions::default())
}

/// Lints the workspace rooted at `root`, returning all diagnostics
/// sorted by file and line.
///
/// Rules report every candidate site unconditionally; waivers are
/// applied centrally afterwards so unused waivers can be audited
/// (see [`LintOptions::allow_stale_waivers`]).
///
/// # Errors
///
/// Propagates filesystem errors; unreadable files become diagnostics
/// rather than aborting the pass.
pub fn lint_workspace_opts(root: &Path, opts: LintOptions) -> io::Result<Vec<Diagnostic>> {
    let crates = discover(root)?;
    let (workspace, mut raw) = model::WorkspaceModel::build(root, &crates);

    for mf in &workspace.files {
        let (rel, file) = (&mf.rel, &mf.source);
        if mf.is_lib_root {
            rules::check_crate_header(rel, file, &mut raw);
        }
        if mf.is_model && !mf.in_test_dir {
            rules::check_no_panic(rel, file, &mf.krate, &mut raw);
            rules::check_raw_f64(rel, file, &mf.krate, &mut raw);
            rules::check_thread_registration(rel, file, &mf.krate, &mut raw);
            rules::check_bounded_concurrency(rel, file, &mf.krate, &mut raw);
        }
        if !mf.in_test_dir {
            rules::check_float_cast(rel, file, &mut raw);
            rules::check_nonfinite(rel, file, &mut raw);
            // The observability crate is the one sanctioned home for
            // raw clock reads; everything else goes through it.
            if mf.krate != "obs" {
                rules::check_raw_timing(rel, file, &mut raw);
            }
            // The CLI owns the process's stdout/stderr and the bench
            // binaries print their own reports; everything else
            // returns its errors or counts them.
            if mf.krate != "cli" && mf.krate != "bench" {
                rules::check_no_raw_logging(rel, file, &mf.krate, &mut raw);
            }
        }
    }

    analysis::check_lock_discipline(&workspace, &mut raw);
    analysis::check_deterministic_iteration(&workspace, &mut raw);
    analysis::check_crate_layering(&workspace, &mut raw);

    let mut diags = apply_waivers(&workspace.files, raw, opts.allow_stale_waivers);
    diags.sort();
    diags.dedup();
    Ok(diags)
}

/// Filters waived findings out of `raw`, tracking which waivers
/// earned their keep; unless `allow_stale`, every unused waiver
/// becomes a `stale-waiver` diagnostic at its comment line.
fn apply_waivers(
    files: &[model::ModelFile],
    raw: Vec<Diagnostic>,
    allow_stale: bool,
) -> Vec<Diagnostic> {
    let by_rel: std::collections::BTreeMap<&Path, usize> = files
        .iter()
        .enumerate()
        .map(|(i, mf)| (mf.rel.as_path(), i))
        .collect();
    let mut used: Vec<Vec<bool>> = files
        .iter()
        .map(|mf| vec![false; mf.source.waivers().len()])
        .collect();

    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        if let Some(&fi) = by_rel.get(d.file.as_path()) {
            for (wi, w) in files[fi].source.waivers().iter().enumerate() {
                let on_line = w.target_line == d.line || d.waiver_lines.contains(&w.target_line);
                if on_line && (w.rule == d.rule || w.rule == "all") {
                    used[fi][wi] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }

    if !allow_stale {
        for (fi, mf) in files.iter().enumerate() {
            for (wi, w) in mf.source.waivers().iter().enumerate() {
                if !used[fi][wi] {
                    out.push(Diagnostic::new(
                        mf.rel.clone(),
                        w.comment_line,
                        "stale-waiver",
                        format!(
                            "`// lint: {}` waiver suppresses no finding; remove it (or run \
                             with --allow-stale-waivers while migrating)",
                            w.rule
                        ),
                    ));
                }
            }
        }
    }
    out
}
