//! The resumable on-disk run store: `runs/<run_id>/`, shared by
//! `ia-dse` experiments and `ia-corpus` runs.
//!
//! Layout:
//!
//! * `manifest.json` — format version, spec name, run id, and the
//!   spec in canonical JSON (the manifest *is* the resume spec —
//!   `dse resume` needs nothing but the directory). Any [`RunSpec`]
//!   can be stored.
//! * `results.jsonl` — append-only, one completed point per line:
//!   `{"key": "<32-hex content address>", "solve": {...}}`. Every
//!   append is flushed, so a killed run loses at most the line being
//!   written. On load, a line cut off mid-record (its JSON parse fails
//!   at its last character) is skipped wherever it sits — the point
//!   simply re-solves — while any other malformed line is a loud
//!   [`DseError::Corrupt`]: resumability must never silently drop
//!   completed work. A torn tail is never truncated; the next append
//!   starts on a fresh line instead.
//!
//! The store doubles as a [`PointCache`]: the scheduler's cache hook
//! reads previously-completed points from it and appends fresh
//! solves to it, which is the whole resume mechanism — there is no
//! separate checkpointing path to get out of sync.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ia_obs::json::JsonValue;
use ia_rank::sweep::{CachedSolve, PointCache};

use crate::error::DseError;

/// Manifest schema version.
const FORMAT: u64 = 1;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A spec the run store can persist and recover: it names, hashes,
/// renders and parses itself.
pub trait RunSpec: Sized {
    /// The name recorded in the manifest.
    fn name(&self) -> &str;
    /// The content hash of the canonical rendering; see [`run_id`].
    fn spec_hash(&self) -> u128;
    /// The canonical JSON rendering stored as the manifest's `spec`.
    fn to_json(&self) -> JsonValue;
    /// Parses the manifest's `spec` back.
    ///
    /// # Errors
    ///
    /// Returns the validation message; the store reports it as
    /// [`DseError::Corrupt`].
    fn from_json(doc: &JsonValue) -> Result<Self, String>;
}

/// The run id of a spec hash: its first 16 hex digits. The same spec
/// always maps to the same `runs/<run_id>/` directory, which is what
/// makes re-running an interrupted spec a resume.
#[must_use]
pub fn run_id(spec_hash: u128) -> String {
    format!("{spec_hash:032x}").chars().take(16).collect()
}

/// One run directory with its append-only results log held open.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    log: Mutex<BufWriter<File>>,
    /// Whether the log last read from disk ends mid-line.
    torn_tail: AtomicBool,
}

impl RunStore {
    /// Opens (or creates) the run directory for `spec` under
    /// `runs_root`, returning the store and the already-completed
    /// points. A fresh run gets a new manifest; an existing directory
    /// is validated against the spec's content hash, so two different
    /// specs can never share (and corrupt) one store.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] for filesystem failures and
    /// [`DseError::Corrupt`] for a manifest/spec mismatch or an
    /// unreadable log.
    pub fn open_or_create<S: RunSpec>(
        runs_root: &Path,
        spec: &S,
    ) -> Result<(RunStore, BTreeMap<u128, CachedSolve>), DseError> {
        let dir = runs_root.join(run_id(spec.spec_hash()));
        let manifest_path = dir.join("manifest.json");
        if manifest_path.is_file() {
            let stored: S = read_manifest(&manifest_path)?;
            if stored.spec_hash() != spec.spec_hash() {
                return Err(DseError::Corrupt {
                    path: manifest_path.display().to_string(),
                    message: "existing run was created from a different spec".to_owned(),
                });
            }
        } else {
            fs::create_dir_all(&dir).map_err(|e| DseError::io(&dir, &e))?;
            write_manifest(&manifest_path, spec)?;
        }
        RunStore::open_log(dir)
    }

    /// Opens an existing run directory for resumption, recovering the
    /// spec from the manifest.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] / [`DseError::Corrupt`] when the
    /// directory is not a readable run store.
    pub fn open<S: RunSpec>(
        run_dir: &Path,
    ) -> Result<(RunStore, S, BTreeMap<u128, CachedSolve>), DseError> {
        let spec = read_manifest(&run_dir.join("manifest.json"))?;
        let (store, completed) = RunStore::open_log(run_dir.to_path_buf())?;
        Ok((store, spec, completed))
    }

    fn open_log(dir: PathBuf) -> Result<(RunStore, BTreeMap<u128, CachedSolve>), DseError> {
        let path = dir.join("results.jsonl");
        let (completed, torn_tail) = load_results(&path)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| DseError::io(&path, &e))?;
        let store = RunStore {
            dir,
            log: Mutex::new(BufWriter::new(file)),
            torn_tail: AtomicBool::new(torn_tail),
        };
        Ok((store, completed))
    }

    /// The run directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one completed point and flushes it to disk, so a kill
    /// after this call never loses the point.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Io`] when the write or flush fails.
    pub fn append(&self, key: u128, solve: &CachedSolve) -> Result<(), DseError> {
        let line = JsonValue::Obj(vec![
            ("key".to_owned(), JsonValue::Str(format!("{key:032x}"))),
            ("solve".to_owned(), solve_to_json(solve)),
        ])
        .render();
        let path = self.dir.join("results.jsonl");
        let mut log = lock(&self.log);
        // After a torn tail, start on a fresh line rather than glue
        // this record onto the fragment.
        let fresh: &[u8] = if self.torn_tail.load(Ordering::SeqCst) {
            b"\n"
        } else {
            b""
        };
        log.write_all(fresh)
            .and_then(|()| log.write_all(line.as_bytes()))
            .and_then(|()| log.write_all(b"\n"))
            .and_then(|()| log.flush())
            .map_err(|e| DseError::io(&path, &e))?;
        self.torn_tail.store(false, Ordering::SeqCst);
        Ok(())
    }
}

/// A [`PointCache`] over the run store plus an in-memory index of
/// completed points: lookups answer from the index, stores append to
/// disk first and then publish to the index. Disk failures are
/// latched (the cache hook cannot return errors) and surfaced by the
/// engine after the round via [`StoreCache::take_error`].
#[derive(Debug)]
pub struct StoreCache<'s> {
    store: &'s RunStore,
    completed: Mutex<BTreeMap<u128, CachedSolve>>,
    write_error: Mutex<Option<DseError>>,
}

impl<'s> StoreCache<'s> {
    /// Wraps a store and the completed points loaded from it.
    #[must_use]
    pub fn new(store: &'s RunStore, completed: BTreeMap<u128, CachedSolve>) -> Self {
        StoreCache {
            store,
            completed: Mutex::new(completed),
            write_error: Mutex::new(None),
        }
    }

    /// The first append failure recorded during execution, if any.
    pub fn take_error(&self) -> Option<DseError> {
        lock(&self.write_error).take()
    }
}

impl PointCache for StoreCache<'_> {
    fn lookup(&self, key: u128) -> Option<CachedSolve> {
        lock(&self.completed).get(&key).copied()
    }

    fn store(&self, key: u128, value: CachedSolve) {
        if let Err(e) = self.store.append(key, &value) {
            let mut slot = lock(&self.write_error);
            slot.get_or_insert(e);
        }
        lock(&self.completed).insert(key, value);
    }
}

/// Renders a solve summary in canonical JSON field order. Floats use
/// the shortest round-trip form, so a load-after-store is
/// bit-identical.
#[must_use]
pub fn solve_to_json(solve: &CachedSolve) -> JsonValue {
    JsonValue::Obj(vec![
        ("die_area_m2".to_owned(), JsonValue::Num(solve.die_area_m2)),
        (
            "fully_assignable".to_owned(),
            JsonValue::Bool(solve.fully_assignable),
        ),
        ("normalized".to_owned(), JsonValue::Num(solve.normalized)),
        ("rank".to_owned(), JsonValue::UInt(solve.rank)),
        (
            "repeater_area_m2".to_owned(),
            JsonValue::Num(solve.repeater_area_m2),
        ),
        (
            "repeater_count".to_owned(),
            JsonValue::UInt(solve.repeater_count),
        ),
        ("total_wires".to_owned(), JsonValue::UInt(solve.total_wires)),
    ])
}

/// Parses a solve summary rendered by [`solve_to_json`].
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn solve_from_json(doc: &JsonValue) -> Result<CachedSolve, String> {
    let need_u64 = |field: &str| {
        doc.get(field)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing or mistyped `{field}`"))
    };
    let need_f64 = |field: &str| {
        doc.get(field)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing or mistyped `{field}`"))
    };
    let fully_assignable = match doc.get("fully_assignable") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("missing or mistyped `fully_assignable`".to_owned()),
    };
    Ok(CachedSolve {
        rank: need_u64("rank")?,
        normalized: need_f64("normalized")?,
        total_wires: need_u64("total_wires")?,
        fully_assignable,
        repeater_count: need_u64("repeater_count")?,
        repeater_area_m2: need_f64("repeater_area_m2")?,
        die_area_m2: need_f64("die_area_m2")?,
    })
}

fn write_manifest<S: RunSpec>(path: &Path, spec: &S) -> Result<(), DseError> {
    let doc = JsonValue::Obj(vec![
        ("format".to_owned(), JsonValue::UInt(FORMAT)),
        ("name".to_owned(), JsonValue::Str(spec.name().to_owned())),
        (
            "run_id".to_owned(),
            JsonValue::Str(run_id(spec.spec_hash())),
        ),
        ("spec".to_owned(), spec.to_json()),
        (
            "spec_hash".to_owned(),
            JsonValue::Str(format!("{:032x}", spec.spec_hash())),
        ),
    ]);
    fs::write(path, doc.render()).map_err(|e| DseError::io(path, &e))
}

fn read_manifest<S: RunSpec>(path: &Path) -> Result<S, DseError> {
    let corrupt = |message: String| DseError::Corrupt {
        path: path.display().to_string(),
        message,
    };
    let text = fs::read_to_string(path).map_err(|e| DseError::io(path, &e))?;
    let doc = JsonValue::parse(&text).map_err(|e| corrupt(format!("bad manifest JSON: {e}")))?;
    let format = doc
        .get("format")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| corrupt("manifest has no `format`".to_owned()))?;
    if format != FORMAT {
        return Err(corrupt(format!(
            "manifest format {format} is not the supported {FORMAT}"
        )));
    }
    let spec_doc = doc
        .get("spec")
        .ok_or_else(|| corrupt("manifest has no `spec`".to_owned()))?;
    let spec = S::from_json(spec_doc).map_err(corrupt)?;
    let stored_hash = doc
        .get("spec_hash")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_owned();
    if stored_hash != format!("{:032x}", spec.spec_hash()) {
        return Err(corrupt("manifest spec hash mismatch".to_owned()));
    }
    Ok(spec)
}

/// Loads the completed points, and whether the log ends in a torn
/// (newline-less) tail.
fn load_results(path: &Path) -> Result<(BTreeMap<u128, CachedSolve>, bool), DseError> {
    let mut completed = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((completed, false)),
        Err(e) => return Err(DseError::io(path, &e)),
    };
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_result_line(line) {
            Ok(Some((key, solve))) => {
                completed.insert(key, solve);
            }
            // A record cut off by a kill mid-append: the point
            // re-solves.
            Ok(None) => {}
            Err(message) => {
                return Err(DseError::Corrupt {
                    path: path.display().to_string(),
                    message: format!("line {}: {message}", index + 1),
                });
            }
        }
    }
    let torn_tail = !text.is_empty() && !text.ends_with('\n');
    Ok((completed, torn_tail))
}

/// Parses one results line; `Ok(None)` is a record cut off mid-write
/// (its JSON parse fails at its last character).
fn parse_result_line(line: &str) -> Result<Option<(u128, CachedSolve)>, String> {
    let doc = match JsonValue::parse(line) {
        Ok(doc) => doc,
        Err(e) if e.offset + 1 >= line.chars().count() => return Ok(None),
        Err(e) => return Err(format!("bad JSON: {e}")),
    };
    let key_hex = doc
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing `key`".to_owned())?;
    let key = u128::from_str_radix(key_hex, 16).map_err(|e| format!("bad key: {e}"))?;
    let solve_doc = doc
        .get("solve")
        .ok_or_else(|| "missing `solve`".to_owned())?;
    let solve = solve_from_json(solve_doc)?;
    Ok(Some((key, solve)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::parse_str(
            r#"{"name": "store-test", "axes": [{"knob": "m", "values": [1.5, 2.5]}]}"#,
        )
        .unwrap()
    }

    fn solve(rank: u64) -> CachedSolve {
        CachedSolve {
            rank,
            normalized: 0.125,
            total_wires: rank * 8,
            fully_assignable: true,
            repeater_count: 3,
            repeater_area_m2: 1.5e-7,
            die_area_m2: 2.0e-4,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ia-dse-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn solve_roundtrips_bit_identically() {
        let original = solve(11);
        let rendered = solve_to_json(&original).render();
        let parsed = solve_from_json(&JsonValue::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn append_then_reopen_recovers_points() {
        let root = tmp_dir("reopen");
        let spec = spec();
        let (store, completed) = RunStore::open_or_create(&root, &spec).unwrap();
        assert!(completed.is_empty());
        store.append(42, &solve(5)).unwrap();
        store.append(43, &solve(6)).unwrap();
        let run_dir = store.dir().to_path_buf();
        drop(store);

        let (_, reopened_spec, completed) = RunStore::open::<ExperimentSpec>(&run_dir).unwrap();
        assert_eq!(reopened_spec, spec);
        assert_eq!(completed.len(), 2);
        assert_eq!(completed.get(&42).unwrap().rank, 5);
        let _ = fs::remove_dir_all(&root);
    }

    /// A record cut off by a kill mid-append.
    const TORN: &str = "{\"key\":\"02\",\"solve\":{\"rank\"";

    fn record(key: u128, rank: u64) -> String {
        JsonValue::Obj(vec![
            ("key".to_owned(), JsonValue::Str(format!("{key:032x}"))),
            ("solve".to_owned(), solve_to_json(&solve(rank))),
        ])
        .render()
    }

    #[test]
    fn torn_lines_are_skipped_other_malformed_lines_are_corrupt() {
        let root = tmp_dir("torn");
        let (store, _) = RunStore::open_or_create(&root, &spec()).unwrap();
        let log = store.dir().join("results.jsonl");
        let run_dir = store.dir().to_path_buf();
        drop(store);

        // A torn record is skipped at the tail and mid-file alike.
        fs::write(&log, format!("{}\n{TORN}", record(1, 5))).unwrap();
        let (_, _, completed) = RunStore::open::<ExperimentSpec>(&run_dir).unwrap();
        assert_eq!(completed.len(), 1);
        fs::write(&log, format!("{TORN}\n{}\n", record(3, 9))).unwrap();
        let (_, _, completed) = RunStore::open::<ExperimentSpec>(&run_dir).unwrap();
        assert_eq!(completed.len(), 1);

        // A record glued onto a fragment fails mid-line: corruption.
        fs::write(&log, format!("{TORN}{}\n", record(3, 9))).unwrap();
        let err = RunStore::open::<ExperimentSpec>(&run_dir).unwrap_err();
        assert!(matches!(err, DseError::Corrupt { .. }), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_resume_after_a_torn_tail_appends_on_a_fresh_line() {
        let root = tmp_dir("torn-resume");
        let (store, _) = RunStore::open_or_create(&root, &spec()).unwrap();
        store.append(1, &solve(5)).unwrap();
        let log = store.dir().join("results.jsonl");
        let run_dir = store.dir().to_path_buf();
        drop(store);

        let mut text = fs::read_to_string(&log).unwrap();
        text.push_str(TORN);
        fs::write(&log, &text).unwrap();
        let (store, _, completed) = RunStore::open::<ExperimentSpec>(&run_dir).unwrap();
        assert_eq!(completed.len(), 1);
        store.append(3, &solve(7)).unwrap();
        store.append(4, &solve(8)).unwrap();
        drop(store);

        // The fragment is left in place (another writer may own it)
        // and both new records survive a reopen.
        let (_, _, completed) = RunStore::open::<ExperimentSpec>(&run_dir).unwrap();
        assert_eq!(completed.len(), 3);
        assert!(fs::read_to_string(&log).unwrap().contains(TORN));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_different_spec_cannot_reuse_a_run_directory() {
        let root = tmp_dir("mismatch");
        let spec = spec();
        let (store, _) = RunStore::open_or_create(&root, &spec).unwrap();
        let run_dir = store.dir().to_path_buf();
        drop(store);

        // Forge a manifest whose spec differs from its recorded hash.
        let manifest = run_dir.join("manifest.json");
        let text = fs::read_to_string(&manifest)
            .unwrap()
            .replace("store-test", "forged-name");
        fs::write(&manifest, text).unwrap();
        assert!(matches!(
            RunStore::open::<ExperimentSpec>(&run_dir).unwrap_err(),
            DseError::Corrupt { .. }
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn store_cache_latches_append_failures() {
        let root = tmp_dir("latch");
        let spec = spec();
        let (store, completed) = RunStore::open_or_create(&root, &spec).unwrap();
        let cache = StoreCache::new(&store, completed);
        assert!(cache.lookup(7).is_none());
        cache.store(7, solve(4));
        assert_eq!(cache.lookup(7).unwrap().rank, 4);
        assert!(cache.take_error().is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
