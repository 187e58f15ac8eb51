//! Workspace-level rules L9–L11, built on [`crate::model`].
//!
//! * **L9 `lock-discipline`** — no `MutexGuard`/`RwLock` guard held
//!   across blocking work (file/socket I/O, `flush`, `thread::sleep`,
//!   DP solve entry points), directly or through a resolved call; and
//!   no pair of locks acquired in both orders anywhere in the
//!   workspace (deadlock risk).
//! * **L10 `deterministic-iteration`** — no `HashMap`/`HashSet`
//!   iteration whose results reach a serialization, hashing (`canon`),
//!   report or emit path without an intervening sort; the content-
//!   addressed solve cache and the resumable run store break silently
//!   if iteration order leaks into bytes.
//! * **L11 `crate-layering`** — the crate dependency graph follows
//!   the intended DAG: model crates below the product layers
//!   (`serve`/`dse`/`cli`), `obs` and `report` as leaves.

use crate::diag::Diagnostic;
use crate::model::WorkspaceModel;
use std::collections::{BTreeMap, BTreeSet};

/// Method names too generic to resolve to a workspace function by
/// name alone (std collections and combinators share them).
const COMMON_CALLEES: &[&str] = &[
    "new",
    "default",
    "from",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "next",
    "iter",
    "into_iter",
    "collect",
    "map",
    "filter",
    "fold",
    "drain",
    "to_string",
    "to_owned",
    "parse",
    "write",
    "read",
    "store",
    "load",
    "send",
    "recv",
    "join",
    "flush",
    "open",
    "close",
    "take",
    "clear",
    "contains",
    "push_back",
    "pop_front",
    "push_front",
    "solve",
    "min",
    "max",
    "abs",
    "drop",
    "extend",
    "entry",
    "keys",
    "values",
];

/// Resolves a callee name to a function index when the name is unique
/// in the workspace and not a common std method name.
fn resolve(by_name: &BTreeMap<&str, Vec<usize>>, callee: &str) -> Option<usize> {
    if COMMON_CALLEES.contains(&callee) {
        return None;
    }
    match by_name.get(callee) {
        Some(v) if v.len() == 1 => Some(v[0]),
        _ => None,
    }
}

/// Per-function transitive facts: the set of locks a call may
/// acquire, and a description of blocking work it may reach.
struct Reach {
    locks: Vec<BTreeSet<String>>,
    blocking: Vec<Option<String>>,
}

/// Computes the call-graph fixpoint of lock sets and blocking
/// reachability.
fn compute_reach(model: &WorkspaceModel, by_name: &BTreeMap<&str, Vec<usize>>) -> Reach {
    let mut locks: Vec<BTreeSet<String>> = model
        .functions
        .iter()
        .map(|f| f.locks.iter().map(|l| l.lock.clone()).collect())
        .collect();
    // Receiver exemptions are caller-relative: a callee blocking on
    // its own guard's resource still blocks its callers.
    let mut blocking: Vec<Option<String>> = model
        .functions
        .iter()
        .map(|f| f.blocking.first().map(|b| b.what.clone()))
        .collect();

    let mut changed = true;
    while changed {
        changed = false;
        for (i, f) in model.functions.iter().enumerate() {
            for c in &f.calls {
                let Some(h) = resolve(by_name, &c.callee) else {
                    continue;
                };
                if h == i {
                    continue;
                }
                let callee_locks: Vec<String> = locks[h]
                    .iter()
                    .filter(|l| !locks[i].contains(*l))
                    .cloned()
                    .collect();
                if !callee_locks.is_empty() {
                    locks[i].extend(callee_locks);
                    changed = true;
                }
                if blocking[i].is_none() {
                    if let Some(d) = blocking[h].clone() {
                        blocking[i] = Some(format!("{d} via `{}`", c.callee));
                        changed = true;
                    }
                }
            }
        }
    }
    Reach { locks, blocking }
}

/// Whether a site's token index falls inside a guard's live region.
fn in_region(tok: usize, start: usize, end: usize) -> bool {
    tok > start && tok < end
}

/// L9 `lock-discipline`: guards held across blocking work, and
/// workspace-wide pairwise lock-order inconsistencies.
pub fn check_lock_discipline(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    let by_name = model.functions_by_name();
    let reach = compute_reach(model, &by_name);

    // (outer lock, inner lock) -> first acquisition site.
    let mut pairs: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();

    for f in &model.functions {
        let mf = &model.files[f.file];
        for g in &f.locks {
            if mf.source.in_test_code(g.line) {
                continue;
            }
            // Blocking work directly inside the guard's scope.
            for b in &f.blocking {
                if !in_region(b.tok, g.tok, g.scope_end) {
                    continue;
                }
                if b.receiver.is_some() && b.receiver.as_deref() == g.guard.as_deref() {
                    // Blocking on the guarded resource itself is the
                    // mutex doing its job (`log.flush()` under `log`).
                    continue;
                }
                diags.push(Diagnostic::new(
                    mf.rel.clone(),
                    b.line,
                    "lock-discipline",
                    format!(
                        "guard on `{}` (line {}) is held across blocking {}; drop the guard \
                         or scope it in a block before blocking (waive with \
                         `// lint: lock-discipline`)",
                        g.lock, g.line, b.what
                    ),
                ));
            }
            // Blocking work reached through a resolved call.
            for c in &f.calls {
                if !in_region(c.tok, g.tok, g.scope_end) {
                    continue;
                }
                let Some(h) = resolve(&by_name, &c.callee) else {
                    continue;
                };
                if let Some(d) = &reach.blocking[h] {
                    diags.push(Diagnostic::new(
                        mf.rel.clone(),
                        c.line,
                        "lock-discipline",
                        format!(
                            "guard on `{}` (line {}) is held across a call to `{}`, which \
                             reaches blocking {}; drop the guard first (waive with \
                             `// lint: lock-discipline`)",
                            g.lock, g.line, c.callee, d
                        ),
                    ));
                }
            }
            // Nested acquisition order, direct and through calls.
            for s in &f.locks {
                if in_region(s.tok, g.tok, g.scope_end) && s.lock != g.lock {
                    pairs
                        .entry((g.lock.clone(), s.lock.clone()))
                        .or_insert((f.file, s.line));
                }
            }
            for c in &f.calls {
                if !in_region(c.tok, g.tok, g.scope_end) {
                    continue;
                }
                let Some(h) = resolve(&by_name, &c.callee) else {
                    continue;
                };
                for l in &reach.locks[h] {
                    if *l != g.lock {
                        pairs
                            .entry((g.lock.clone(), l.clone()))
                            .or_insert((f.file, c.line));
                    }
                }
            }
        }
    }

    for ((a, b), &(file_a, line_a)) in &pairs {
        if a >= b {
            continue;
        }
        let Some(&(file_b, line_b)) = pairs.get(&(b.clone(), a.clone())) else {
            continue;
        };
        let rel_a = &model.files[file_a].rel;
        let rel_b = &model.files[file_b].rel;
        diags.push(Diagnostic::new(
            rel_a.clone(),
            line_a,
            "lock-discipline",
            format!(
                "locks `{a}` and `{b}` are acquired in inconsistent order: `{a}` then `{b}` \
                 here, `{b}` then `{a}` at {}:{line_b}; pick one order workspace-wide \
                 (waive with `// lint: lock-discipline`)",
                rel_b.display()
            ),
        ));
        diags.push(Diagnostic::new(
            rel_b.clone(),
            line_b,
            "lock-discipline",
            format!(
                "locks `{b}` and `{a}` are acquired in inconsistent order: `{b}` then `{a}` \
                 here, `{a}` then `{b}` at {}:{line_a}; pick one order workspace-wide \
                 (waive with `// lint: lock-discipline`)",
                rel_a.display()
            ),
        ));
    }
}

/// Iterator methods that enumerate a map/set in storage order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Tokens that restore or neutralize iteration order: explicit sorts,
/// ordered re-collections, and order-insensitive reductions.
const ORDER_TOKENS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "product",
    "count",
    "fold",
    "all",
    "any",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
];

/// Tokens that serialize, hash or emit: once iteration order reaches
/// one of these, it is observable in bytes.
const SINK_TOKENS: &[&str] = &[
    "serialize",
    "to_json",
    "to_writer",
    "render",
    "canon",
    "canonical",
    "hash",
    "hasher",
    "push_str",
    "write_all",
    "write_fmt",
    "write_str",
    "writeln",
    "print",
    "println",
    "eprintln",
    "format",
    "emit",
];

/// Names bound to a `HashMap`/`HashSet` in this file: `let` bindings,
/// parameters and struct fields with an explicit type, and
/// `HashMap::new()`-style initializers.
fn hash_bindings(mf: &crate::model::ModelFile) -> BTreeSet<String> {
    let toks = &mf.source.tokens;
    let mut names = BTreeSet::new();
    for (k, t) in toks.iter().enumerate() {
        if t.text != "HashMap" && t.text != "HashSet" {
            continue;
        }
        // `name: HashMap<…>` (field, parameter, let annotation),
        // allowing `&`/`mut` prefixes.
        let mut p = k;
        while p > 0 && matches!(toks[p - 1].text.as_str(), "&" | "mut" | "'") {
            p -= 1;
        }
        if p >= 2 && toks[p - 1].text == ":" && toks[p - 2].text != ":" {
            let name = &toks[p - 2];
            if name
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                names.insert(name.text.clone());
                continue;
            }
        }
        // `name = HashMap::new()` / `name = HashSet::from(…)`.
        if k >= 2 && toks[k - 1].text == "=" {
            let name = &toks[k - 2];
            if name
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                names.insert(name.text.clone());
            }
        }
    }
    names
}

/// Whether a sink-reaching scan from `start` to `end` hits a sink
/// before an order-restoring token. Returns the sink's display form.
fn first_sink(
    toks: &[crate::source::Token],
    start: usize,
    end: usize,
    calls: &BTreeMap<usize, &str>,
    sink_reach: &[bool],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Option<(String, usize)> {
    for (j, t) in toks.iter().enumerate().take(end + 1).skip(start) {
        let text = t.text.as_str();
        if ORDER_TOKENS.contains(&text) {
            return None;
        }
        if SINK_TOKENS.contains(&text) {
            return Some((format!("`{text}`"), t.line));
        }
        if let Some(callee) = calls.get(&j) {
            if let Some(h) = resolve(by_name, callee) {
                if sink_reach[h] {
                    return Some((format!("a call to `{callee}`"), t.line));
                }
            }
        }
    }
    None
}

/// L10 `deterministic-iteration`: `HashMap`/`HashSet` iteration whose
/// results reach a serialization/hash/report path without a sort.
pub fn check_deterministic_iteration(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    let by_name = model.functions_by_name();

    // Sink-reaching functions: a direct sink token in the body, then
    // the call-graph fixpoint.
    let mut sink_reach: Vec<bool> = model
        .functions
        .iter()
        .map(|f| {
            let toks = &model.files[f.file].source.tokens;
            toks[f.body.0..=f.body.1]
                .iter()
                .any(|t| SINK_TOKENS.contains(&t.text.as_str()))
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, f) in model.functions.iter().enumerate() {
            if sink_reach[i] {
                continue;
            }
            for c in &f.calls {
                if let Some(h) = resolve(&by_name, &c.callee) {
                    if sink_reach[h] {
                        sink_reach[i] = true;
                        changed = true;
                        break;
                    }
                }
            }
        }
    }

    let mut bindings_cache: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for f in &model.functions {
        let mf = &model.files[f.file];
        let names = bindings_cache
            .entry(f.file)
            .or_insert_with(|| hash_bindings(mf));
        if names.is_empty() {
            continue;
        }
        let toks = &mf.source.tokens;
        let calls: BTreeMap<usize, &str> =
            f.calls.iter().map(|c| (c.tok, c.callee.as_str())).collect();
        let (bs, be) = f.body;
        for k in bs..=be {
            let t = &toks[k];
            if !names.contains(&t.text) || mf.source.in_test_code(t.line) {
                continue;
            }
            // `map.iter()` / `.keys()` / … or `for x in [&[mut]] map`.
            let method_iter = toks.get(k + 1).is_some_and(|n| n.text == ".")
                && toks
                    .get(k + 2)
                    .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
                && toks.get(k + 3).is_some_and(|p| p.text == "(");
            let mut p = k;
            while p > bs && matches!(toks[p - 1].text.as_str(), "&" | "mut") {
                p -= 1;
            }
            let for_iter = p > bs && toks[p - 1].text == "in";
            if !method_iter && !for_iter {
                continue;
            }
            if let Some((sink, _)) = first_sink(toks, k + 1, be, &calls, &sink_reach, &by_name) {
                diags.push(Diagnostic::new(
                    mf.rel.clone(),
                    t.line,
                    "deterministic-iteration",
                    format!(
                        "iteration over `HashMap`/`HashSet` `{}` reaches {sink} with no \
                         intervening sort; iteration order is arbitrary and leaks into the \
                         output — use a `BTreeMap`/`BTreeSet` or sort first (waive with \
                         `// lint: deterministic-iteration`)",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// The intended crate DAG as layers; an edge must strictly descend.
const LAYERS: &[(&str, u32)] = &[
    ("units", 0),
    ("obs", 0),
    ("report", 0),
    ("tech", 1),
    ("wld", 1),
    ("rc", 2),
    ("netlist", 2),
    ("arch", 2),
    ("delay", 3),
    ("core", 4),
    ("dse", 5),
    ("serve", 6),
    ("corpus", 6),
    ("cli", 7),
    ("bench", 7),
    ("xtask", 7),
    ("(root)", 7),
];

/// The paper-model crates, for the targeted layering message.
const PAPER_MODEL: &[&str] = &[
    "units", "tech", "rc", "wld", "netlist", "delay", "arch", "core",
];

/// The product layers no model crate may reach up into.
const PRODUCT_LAYERS: &[&str] = &["dse", "serve", "corpus", "cli", "bench"];

fn layer(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, l)| *l)
}

/// L11 `crate-layering`: every dependency edge (manifest or `use`
/// path) descends strictly in the layer table.
pub fn check_crate_layering(model: &WorkspaceModel, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    // Manifest edges come first in `model.deps`, so the evidence
    // shown for a bad edge prefers the Cargo.toml line.
    for d in &model.deps {
        let (Some(lf), Some(lt)) = (layer(&d.from), layer(&d.to)) else {
            continue;
        };
        if !seen.insert((d.from.clone(), d.to.clone())) {
            continue;
        }
        if lf > lt {
            continue;
        }
        let message =
            if PAPER_MODEL.contains(&d.from.as_str()) && PRODUCT_LAYERS.contains(&d.to.as_str()) {
                format!(
                    "model crate `{}` must not depend on product-layer crate `{}`; the paper \
                 model stays below `serve`/`dse`/`cli` in the crate DAG",
                    d.from, d.to
                )
            } else if d.from == "obs" {
                format!(
                    "`obs` is the observability leaf below the model crates and must not \
                 depend on workspace crate `{}`",
                    d.to
                )
            } else {
                format!(
                    "crate `{}` (layer {lf}) must not depend on `{}` (layer {lt}); dependency \
                 edges must descend strictly in the intended crate DAG (see docs/linting.md)",
                    d.from, d.to
                )
            };
        diags.push(Diagnostic::new(
            d.file.clone(),
            d.line,
            "crate-layering",
            message,
        ));
    }
}
