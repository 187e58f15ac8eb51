//! Workspace program model: the cross-file layer under the deep rules.
//!
//! Where `source.rs` models one file (tokens, waivers, test spans),
//! this module models the workspace: every parsed file with its crate
//! identity, every function with its lock-acquisition sites, blocking
//! operations and call edges, and the crate dependency graph
//! assembled from `Cargo.toml` manifests plus `use ia_*` paths in the
//! source. The workspace rules L9–L11 (see [`crate::analysis`]) are
//! pure functions over this model.
//!
//! The extraction is token-level, like the rest of the linter: no
//! type information, so lock identity is the crate-qualified name of
//! the field or variable the guard came from (`serve::queue`), and
//! call edges resolve by function name only when that name is unique
//! in the workspace and not a common std method name.

use crate::diag::Diagnostic;
use crate::source::{SourceFile, Token};
use crate::CrateSource;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// How a crate dependency edge was discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepVia {
    /// A `[dependencies]` entry in the crate's `Cargo.toml`.
    Manifest,
    /// An `ia_*` path in the crate's non-test source.
    Use,
}

/// One crate dependency edge with its evidence location.
#[derive(Debug, Clone)]
pub struct CrateDep {
    /// Depending crate (directory name, or `(root)` for the facade).
    pub from: String,
    /// Depended-on crate (directory name).
    pub to: String,
    /// Evidence file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-indexed evidence line.
    pub line: usize,
    /// Whether the edge came from a manifest or a source path.
    pub via: DepVia,
}

/// One `.rs` file of the workspace with its parsed source.
#[derive(Debug)]
pub struct ModelFile {
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// Owning crate (directory name, or `(root)`).
    pub krate: String,
    /// Whether the owning crate is held to the model-crate rules.
    pub is_model: bool,
    /// Whether this file is the crate's `src/lib.rs`.
    pub is_lib_root: bool,
    /// Whether the file lives under `tests/`, `benches/`, `examples/`.
    pub in_test_dir: bool,
    /// The parsed source.
    pub source: SourceFile,
}

/// A lock acquisition inside a function body.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Crate-qualified lock identity (`serve::queue`): the last field
    /// or variable name the guard was taken from.
    pub lock: String,
    /// The `let`-bound guard variable, if any (temporaries are `None`).
    pub guard: Option<String>,
    /// 1-indexed acquisition line.
    pub line: usize,
    /// Token index of the acquisition in the file's token stream.
    pub tok: usize,
    /// Exclusive token index where the guard provably dies: the
    /// enclosing block's close, a `drop(guard)` call, or — for
    /// temporaries — the end of the statement.
    pub scope_end: usize,
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment or method name).
    pub callee: String,
    /// 1-indexed call line.
    pub line: usize,
    /// Token index of the callee name.
    pub tok: usize,
}

/// A potentially blocking operation inside a function body.
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Display form (`` `.flush(…)` ``, `` `thread::sleep` ``).
    pub what: String,
    /// Method receiver name, when the operation is a method call —
    /// blocking on the guard's own resource (`log.flush()` under the
    /// `log` guard) is the mutex doing its job, not a violation.
    pub receiver: Option<String>,
    /// 1-indexed line.
    pub line: usize,
    /// Token index of the operation.
    pub tok: usize,
}

/// One `fn` item with its extracted analysis facts.
#[derive(Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Index into [`WorkspaceModel::files`].
    pub file: usize,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// Inclusive token range of the body braces.
    pub body: (usize, usize),
    /// Lock acquisitions in the body.
    pub locks: Vec<LockSite>,
    /// Call sites in the body.
    pub calls: Vec<CallSite>,
    /// Potentially blocking operations in the body.
    pub blocking: Vec<BlockingSite>,
}

/// The resolved workspace: files, functions, and the crate graph.
#[derive(Debug)]
pub struct WorkspaceModel {
    /// Every discovered `.rs` file, parsed.
    pub files: Vec<ModelFile>,
    /// Every `fn` item in non-test production code.
    pub functions: Vec<Function>,
    /// Crate dependency edges (manifest edges first, then use edges).
    pub deps: Vec<CrateDep>,
}

impl WorkspaceModel {
    /// Parses every file of the discovered crates and extracts the
    /// program model. Unreadable files become `io` diagnostics.
    #[must_use]
    pub fn build(root: &Path, crates: &[CrateSource]) -> (Self, Vec<Diagnostic>) {
        let mut diags = Vec::new();
        let mut files = Vec::new();
        for krate in crates {
            for (path, in_test_dir) in &krate.files {
                let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
                match fs::read_to_string(path) {
                    Ok(text) => files.push(ModelFile {
                        rel,
                        krate: krate.name.clone(),
                        is_model: krate.is_model_crate(),
                        is_lib_root: krate.lib_root.as_deref() == Some(path.as_path()),
                        in_test_dir: *in_test_dir,
                        source: SourceFile::parse(&text),
                    }),
                    Err(e) => {
                        diags.push(Diagnostic::new(
                            rel,
                            1,
                            "io",
                            format!("unreadable file: {e}"),
                        ));
                    }
                }
            }
        }

        let mut functions = Vec::new();
        for (fi, mf) in files.iter().enumerate() {
            if !mf.in_test_dir {
                extract_functions(fi, mf, &mut functions);
            }
        }

        let mut deps = scan_manifests(root);
        scan_use_edges(&files, &mut deps);

        (
            WorkspaceModel {
                files,
                functions,
                deps,
            },
            diags,
        )
    }

    /// Function indices grouped by name, for call-edge resolution.
    #[must_use]
    pub fn functions_by_name(&self) -> BTreeMap<&str, Vec<usize>> {
        let mut map: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.functions.iter().enumerate() {
            map.entry(f.name.as_str()).or_default().push(i);
        }
        map
    }
}

/// Whether a token is an identifier (rather than punctuation/number).
fn is_ident(t: &Token) -> bool {
    t.text
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Extracts every non-test `fn` item of a file into `out`.
fn extract_functions(file_idx: usize, mf: &ModelFile, out: &mut Vec<Function>) {
    let toks = &mf.source.tokens;
    let has_rwlock = toks.iter().any(|t| t.text == "RwLock");
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" || !toks.get(i + 1).is_some_and(is_ident) {
            i += 1;
            continue;
        }
        if mf.source.in_test_code(toks[i].line) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // The body is the first `{` outside parens/brackets; a `;`
        // first means a bodyless trait declaration.
        let mut j = i + 2;
        let mut paren = 0i64;
        let mut body_start = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => {
                    body_start = Some(j);
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(bs) = body_start else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i64;
        let mut be = bs;
        while be < toks.len() {
            match toks[be].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            be += 1;
        }
        let be = be.min(toks.len() - 1);
        let mut func = Function {
            name,
            file: file_idx,
            line: toks[i].line,
            body: (bs, be),
            locks: Vec::new(),
            calls: Vec::new(),
            blocking: Vec::new(),
        };
        scan_body(mf, &mut func, has_rwlock);
        out.push(func);
        // Nested `fn` items are rare; their sites are attributed to
        // the enclosing function.
        i = be + 1;
    }
}

/// Index of the `(` matching the close paren at `close`, scanning
/// backwards.
fn matching_open(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = close;
    loop {
        match toks[i].text.as_str() {
            ")" | "]" => depth += 1,
            "(" | "[" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i = i.checked_sub(1)?;
    }
}

/// Index of the `)` matching the open paren at `open`, scanning
/// forwards to at most `end`.
fn matching_close(toks: &[Token], open: usize, end: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate().take(end + 1).skip(open) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The last identifier of the receiver chain ending at the `.` token
/// `dot` (`flight.state.lock()` → `state`; `self.shard(key).lock()`
/// → `shard`).
fn receiver_name(toks: &[Token], dot: usize) -> Option<String> {
    let prev = dot.checked_sub(1)?;
    if is_ident(&toks[prev]) {
        return Some(toks[prev].text.clone());
    }
    if toks[prev].text == ")" {
        let open = matching_open(toks, prev)?;
        let before = open.checked_sub(1)?;
        if is_ident(&toks[before]) {
            return Some(toks[before].text.clone());
        }
    }
    None
}

/// The first token of the receiver chain ending at the `.` token
/// `dot` (`flight.state.lock()` → the `flight` index).
fn receiver_start(toks: &[Token], dot: usize) -> usize {
    let mut i = dot;
    loop {
        let Some(prev) = i.checked_sub(1) else {
            return i;
        };
        if is_ident(&toks[prev]) {
            i = prev;
        } else if toks[prev].text == ")" {
            match matching_open(toks, prev) {
                Some(open) => i = open,
                None => return i,
            }
        } else {
            return i;
        }
        match i.checked_sub(1) {
            Some(d) if toks[d].text == "." => i = d,
            _ => return i,
        }
    }
}

/// The guard variable a lock acquisition starting at token `start`
/// binds to, when the statement is `let [mut] NAME = <acquisition>…`
/// (also accepts a plain reassignment `NAME = …`).
fn binding_name(toks: &[Token], start: usize) -> Option<String> {
    let eq = start.checked_sub(1)?;
    if toks[eq].text != "=" {
        return None;
    }
    // For `==`, `=>`, `+=` and destructuring patterns the token
    // before the `=` is not an identifier, so they all fall out here.
    let name = eq.checked_sub(1)?;
    is_ident(&toks[name]).then(|| toks[name].text.clone())
}

/// The exclusive token index where a guard acquired just before
/// `after` dies: `drop(guard)`, the enclosing block's close — or, for
/// unbound temporaries, the statement's `;`.
fn guard_scope_end(toks: &[Token], after: usize, body_end: usize, guard: Option<&str>) -> usize {
    let mut depth = 0i64;
    let mut j = after + 1;
    while j <= body_end {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            ";" if depth == 0 && guard.is_none() => return j,
            "drop"
                if guard.is_some()
                    && toks.get(j + 1).is_some_and(|t| t.text == "(")
                    && toks.get(j + 2).map(|t| t.text.as_str()) == guard
                    && toks.get(j + 3).is_some_and(|t| t.text == ")") =>
            {
                return j;
            }
            _ => {}
        }
        j += 1;
    }
    body_end
}

/// Blocking method names: file/socket I/O, channel waits, thread
/// joins and the DP solve entry points. `Condvar::wait` is absent on
/// purpose — it releases the guard while parked.
const BLOCKING_METHODS: &[&str] = &[
    "flush",
    "write_all",
    "write_fmt",
    "sync_all",
    "sync_data",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "accept",
    "recv",
    "recv_timeout",
    "connect",
    "open",
    "create",
    "solve",
    "explore",
    "execute",
];

/// Blocking zero-argument methods (`handle.join()`; `path.join(x)`
/// takes an argument and is not a thread join).
const BLOCKING_ZERO_ARG: &[&str] = &["join"];

/// Path-call prefixes that block: `thread::sleep`, `fs::*`,
/// `File::open`/`create`, `TcpStream::connect`.
fn path_blocking(prefix: &str, name: &str) -> bool {
    match prefix {
        "thread" => name == "sleep",
        "fs" => true,
        "File" => matches!(name, "open" | "create" | "options"),
        "TcpStream" | "TcpListener" => matches!(name, "connect" | "bind"),
        _ => false,
    }
}

/// Control keywords that look like call sites (`if (…)`) but are not.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "in", "as", "move", "let", "else", "break",
    "continue", "await", "fn",
];

/// Scans a function body for lock acquisitions, blocking operations
/// and call edges.
fn scan_body(mf: &ModelFile, func: &mut Function, has_rwlock: bool) {
    let toks = &mf.source.tokens;
    let (bs, be) = func.body;
    let mut k = bs;
    while k <= be {
        let text = toks[k].text.as_str();

        // Method acquisition: `.lock()` (Mutex) or zero-arg
        // `.read()` / `.write()` in a file that mentions `RwLock`.
        if text == "." {
            if let Some(m) = toks.get(k + 1) {
                let lockish =
                    m.text == "lock" || (has_rwlock && (m.text == "read" || m.text == "write"));
                if lockish
                    && toks.get(k + 2).is_some_and(|t| t.text == "(")
                    && toks.get(k + 3).is_some_and(|t| t.text == ")")
                {
                    let name = receiver_name(toks, k).unwrap_or_else(|| m.text.clone());
                    let start = receiver_start(toks, k);
                    let guard = binding_name(toks, start);
                    let scope_end = guard_scope_end(toks, k + 3, be, guard.as_deref());
                    func.locks.push(LockSite {
                        lock: format!("{}::{}", mf.krate, name),
                        guard,
                        line: m.line,
                        tok: k,
                        scope_end,
                    });
                    k += 4;
                    continue;
                }
            }
        }

        // Helper acquisition: `lock(&path)` — the workspace's poison-
        // tolerant `lock()` helpers. The lock identity is the last
        // top-level identifier of the argument (`lock(&shared.queue)`
        // → `queue`, `lock(self.shard(key))` → `shard`).
        if text == "lock"
            && k.checked_sub(1)
                .is_none_or(|p| toks[p].text != "." && toks[p].text != "fn")
            && toks.get(k + 1).is_some_and(|t| t.text == "(")
        {
            if let Some(close) = matching_close(toks, k + 1, be) {
                if close > k + 2 {
                    let mut depth = 0i64;
                    let mut name = None;
                    for t in &toks[k + 2..close] {
                        match t.text.as_str() {
                            "(" | "[" => depth += 1,
                            ")" | "]" => depth -= 1,
                            _ if depth == 0 && is_ident(t) => name = Some(t.text.clone()),
                            _ => {}
                        }
                    }
                    if let Some(name) = name {
                        let guard = binding_name(toks, k);
                        let scope_end = guard_scope_end(toks, close, be, guard.as_deref());
                        func.locks.push(LockSite {
                            lock: format!("{}::{}", mf.krate, name),
                            guard,
                            line: toks[k].line,
                            tok: k,
                            scope_end,
                        });
                        k = close + 1;
                        continue;
                    }
                }
            }
        }

        // Blocking method calls.
        if text == "." {
            if let Some(m) = toks.get(k + 1) {
                let opens = toks.get(k + 2).is_some_and(|t| t.text == "(");
                let zero_arg = opens && toks.get(k + 3).is_some_and(|t| t.text == ")");
                let blocking = (opens && BLOCKING_METHODS.contains(&m.text.as_str()))
                    || (zero_arg && BLOCKING_ZERO_ARG.contains(&m.text.as_str()));
                if blocking {
                    func.blocking.push(BlockingSite {
                        what: format!("`.{}(…)`", m.text),
                        receiver: receiver_name(toks, k),
                        line: m.line,
                        tok: k + 1,
                    });
                }
            }
        }

        // Blocking path calls: `thread::sleep(…)`, `fs::write(…)`, ….
        if is_ident(&toks[k])
            && toks.get(k + 1).is_some_and(|t| t.text == ":")
            && toks.get(k + 2).is_some_and(|t| t.text == ":")
            && toks.get(k + 3).is_some_and(is_ident)
            && toks.get(k + 4).is_some_and(|t| t.text == "(")
            && path_blocking(text, &toks[k + 3].text)
        {
            func.blocking.push(BlockingSite {
                what: format!("`{}::{}`", text, toks[k + 3].text),
                receiver: None,
                line: toks[k].line,
                tok: k,
            });
            k += 4;
            continue;
        }

        // Call sites: `name(…)` and `.name(…)`.
        if is_ident(&toks[k])
            && toks.get(k + 1).is_some_and(|t| t.text == "(")
            && text != "lock"
            && !NON_CALLEES.contains(&text)
        {
            func.calls.push(CallSite {
                callee: text.to_string(),
                line: toks[k].line,
                tok: k,
            });
        }

        k += 1;
    }
}

/// Maps an `ia-*` package name (or `ia_*` use path) to its crate
/// directory name; `ia-rank` lives in `crates/core`.
fn package_dir(package: &str) -> Option<String> {
    let rest = package
        .strip_prefix("ia-")
        .or_else(|| package.strip_prefix("ia_"))?;
    Some(match rest {
        "rank" => "core".to_string(),
        other => other.to_string(),
    })
}

/// Reads the `[dependencies]` sections of every `crates/*/Cargo.toml`
/// plus the root facade manifest into manifest edges.
fn scan_manifests(root: &Path) -> Vec<CrateDep> {
    let mut deps = Vec::new();
    let mut manifests: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            manifests.push((name, dir.join("Cargo.toml")));
        }
    }
    manifests.push(("(root)".to_string(), root.join("Cargo.toml")));

    for (from, manifest) in manifests {
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        let rel = manifest
            .strip_prefix(root)
            .unwrap_or(&manifest)
            .to_path_buf();
        let mut in_deps = false;
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                // Only plain `[dependencies]` counts: dev-dependencies
                // may reach up the stack (tests drive the product),
                // and `[workspace.dependencies]` is a version table,
                // not an edge.
                in_deps = trimmed == "[dependencies]";
                continue;
            }
            if !in_deps || trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let Some(key) = trimmed
                .split(['=', '.', ' '])
                .next()
                .filter(|k| !k.is_empty())
            else {
                continue;
            };
            if let Some(to) = package_dir(key) {
                if to != from {
                    deps.push(CrateDep {
                        from: from.clone(),
                        to,
                        file: rel.clone(),
                        line: idx + 1,
                        via: DepVia::Manifest,
                    });
                }
            }
        }
    }
    deps
}

/// Adds `use ia_*` source-path edges from non-test code.
fn scan_use_edges(files: &[ModelFile], deps: &mut Vec<CrateDep>) {
    for mf in files {
        if mf.in_test_dir {
            continue;
        }
        for t in &mf.source.tokens {
            if mf.source.in_test_code(t.line) {
                continue;
            }
            let Some(to) = package_dir(&t.text) else {
                continue;
            };
            if to == mf.krate {
                continue;
            }
            deps.push(CrateDep {
                from: mf.krate.clone(),
                to,
                file: mf.rel.clone(),
                line: t.line,
                via: DepVia::Use,
            });
        }
    }
}
