//! The exploration engine: expansion rounds, adaptive refinement,
//! and the resumable run entry points.
//!
//! [`run`] executes a spec against an on-disk [`RunStore`] (creating
//! or reattaching to `runs/<run_id>/`), [`resume`] reattaches to an
//! existing run directory recovering the spec from its manifest, and
//! [`explore`] is the storage-free core both build on — it is also
//! what `ia-serve` drives directly with its shared in-memory cache.
//!
//! Every round the engine expands the current axis grid, executes the
//! not-yet-completed points on the bounded scheduler, and — under the
//! `adaptive` strategy — bisects the axis intervals where
//! [`detect_cliffs`](crate::pareto) finds the normalized rank jumping
//! by more than the threshold.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64};

use ia_obs::{counter_add, Stopwatch};
use ia_rank::sweep::{CachedSolve, PointCache};

use crate::error::DseError;
use crate::names;
use crate::pareto::detect_cliffs;
use crate::point::{expand, expand_product, Point};
use crate::scheduler::{execute, ExecOptions, LocalSolver, PointSolver};
use crate::spec::{ExperimentSpec, Strategy};
use crate::store::{RunStore, StoreCache};

/// Relative interval width below which adaptive refinement stops
/// bisecting (the cliff is considered located).
const REFINE_EPSILON: f64 = 1.0e-6;

/// Caller-side knobs for one engine invocation.
#[derive(Default, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Worker-thread override; defaults to the spec's `workers`.
    pub workers: Option<usize>,
    /// Ceiling on fresh solves for this invocation (cache hits are
    /// free). Reaching it stops the run incomplete — rerun or
    /// [`resume`] to continue. This is the deterministic
    /// interruption lever the resume tests use.
    pub budget: Option<u64>,
    /// Cooperative cancellation flag, checked between points.
    pub cancel: Option<&'a AtomicBool>,
    /// Incremented once per completed point, for live progress reads.
    pub progress: Option<&'a AtomicU64>,
    /// Replacement for the in-process DP solver — the fleet
    /// coordinator's remote-dispatch hook ([`PointSolver`]).
    pub solver: Option<&'a dyn PointSolver>,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("workers", &self.workers)
            .field("budget", &self.budget)
            .field("cancel", &self.cancel.is_some())
            .field("progress", &self.progress.is_some())
            .field("solver", &self.solver.is_some())
            .finish()
    }
}

/// One completed exploration point.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedPoint {
    /// The axis coordinates (spec order) that produced the point.
    pub coords: Vec<f64>,
    /// The canonical content address of the bound configuration.
    pub key: u128,
    /// The solved metrics.
    pub solve: CachedSolve,
}

/// Phase timings for one exploration round, as reported in run
/// results (`rounds_detail` in `ia-serve`'s job JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTiming {
    /// Zero-based round index.
    pub round: u64,
    /// Points scheduled for execution this round.
    pub points: u64,
    /// Points solved fresh this round.
    pub solved: u64,
    /// Points answered by the cache this round.
    pub cached: u64,
    /// Wall time spent in the execute phase (scheduler), nanoseconds.
    pub execute_ns: u64,
    /// Wall time spent in the refine phase (cliff detection and grid
    /// bisection), nanoseconds.
    pub refine_ns: u64,
    /// Solver time inside the round's `dp.solve/expand` phase spans,
    /// summed across workers, nanoseconds. Zero when the collector is
    /// disabled.
    pub dp_expand_ns: u64,
}

/// Total time in the `expand` spans of `snap`, nanoseconds. Paths are
/// matched on their last `/`-segment so the total is independent of
/// where in the caller's span stack the solves ran.
fn dp_expand_total(snap: &ia_obs::Snapshot) -> u64 {
    use ia_rank::telemetry::names::SPAN_DP_EXPAND;
    snap.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(SPAN_DP_EXPAND))
        .fold(0, |total, (_, stat)| total.saturating_add(stat.total_ns))
}

/// What an engine invocation accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The spec's content-addressed run id (empty for [`explore`]).
    pub run_id: String,
    /// The run directory (empty for [`explore`]).
    pub run_dir: String,
    /// Points in the final expanded set (including refined ones).
    pub total_points: u64,
    /// Points solved fresh this invocation.
    pub solved: u64,
    /// Points answered by the cache (resume hits) this invocation.
    pub cached: u64,
    /// Points left unsolved (budget or cancellation).
    pub skipped: u64,
    /// Refinement rounds executed.
    pub rounds: u64,
    /// Phase timings for each executed round, in round order.
    pub round_timings: Vec<RoundTiming>,
    /// Whether every expanded point completed and refinement ran to
    /// convergence.
    pub complete: bool,
    /// All completed points, sorted by coordinates.
    pub points: Vec<SolvedPoint>,
}

fn effective_workers(spec: &ExperimentSpec, opts: &RunOptions<'_>) -> usize {
    opts.workers
        .unwrap_or_else(|| usize::try_from(spec.workers).unwrap_or(1))
        .max(1)
}

/// Truncates an expanded point set to the spec's `max_points` cap,
/// counting points that already completed against the cap.
fn apply_cap(spec: &ExperimentSpec, points: &mut Vec<Point>, completed: usize) {
    if let Some(cap) = spec.max_points {
        let cap = usize::try_from(cap).unwrap_or(usize::MAX);
        let room = cap.saturating_sub(completed);
        points.truncate(room);
    }
}

/// One adaptive-refinement step: detects rank cliffs in `completed`,
/// bisects every cliff interval into `axis_values`, and returns the
/// refined not-yet-completed point set — or `None` when the grid is
/// converged (no interval grew, or nothing new fits under the spec's
/// point cap). Deterministic: depends only on the spec and the
/// completed points.
fn refine_frontier(
    spec: &ExperimentSpec,
    axis_values: &mut [Vec<f64>],
    completed: &BTreeMap<u128, SolvedPoint>,
    threshold: f64,
) -> Result<Option<Vec<Point>>, DseError> {
    let done: Vec<&SolvedPoint> = completed.values().collect();
    let coords: Vec<&[f64]> = done.iter().map(|p| p.coords.as_slice()).collect();
    let solves: Vec<CachedSolve> = done.iter().map(|p| p.solve).collect();
    let cliffs = detect_cliffs(&coords, &solves, spec.axes.len(), threshold);
    let mut grew = false;
    for cliff in &cliffs {
        let Some(axis) = spec.axes.get(cliff.axis) else {
            continue;
        };
        let Some(values) = axis_values.get_mut(cliff.axis) else {
            continue;
        };
        if let Some(mid) = midpoint(cliff.lo, cliff.hi, axis.knob.is_integer()) {
            if !values.iter().any(|v| v.total_cmp(&mid).is_eq()) {
                values.push(mid);
                values.sort_by(f64::total_cmp);
                grew = true;
            }
        }
    }
    if !grew {
        return Ok(None);
    }
    let views: Vec<&[f64]> = axis_values.iter().map(Vec::as_slice).collect();
    let mut refined = expand_product(spec, &views)?;
    refined.retain(|p| !completed.contains_key(&p.key()));
    apply_cap(spec, &mut refined, completed.len());
    if refined.is_empty() {
        return Ok(None);
    }
    Ok(Some(refined))
}

/// Proposes one bisection midpoint for a cliff interval, or `None`
/// when the interval is already narrower than the refinement epsilon
/// or the midpoint is not representable on an integer knob.
fn midpoint(lo: f64, hi: f64, integer_knob: bool) -> Option<f64> {
    let width = hi - lo;
    let scale = lo.abs().max(hi.abs()).max(1.0);
    if width <= REFINE_EPSILON * scale {
        return None;
    }
    let mut mid = lo + width / 2.0;
    if integer_knob {
        mid = mid.round();
    }
    if mid.total_cmp(&lo).is_eq() || mid.total_cmp(&hi).is_eq() {
        return None;
    }
    Some(mid)
}

/// Runs the exploration loop against an arbitrary [`PointCache`],
/// with no run store involved — the in-memory engine core.
///
/// The returned outcome has empty `run_id` / `run_dir`; [`run`] and
/// [`resume`] fill them in.
///
/// # Errors
///
/// Returns [`DseError`] when a point fails to bind or solve, or a
/// scheduler worker is lost.
pub fn explore(
    spec: &ExperimentSpec,
    cache: &dyn PointCache,
    opts: &RunOptions<'_>,
) -> Result<RunOutcome, DseError> {
    let workers = effective_workers(spec, opts);
    let solver = opts.solver.unwrap_or(&LocalSolver);
    let (threshold, max_rounds) = match spec.strategy {
        Strategy::Adaptive {
            threshold,
            max_rounds,
        } => (threshold, max_rounds.max(1)),
        _ => (0.0, 1),
    };

    let mut axis_values: Vec<Vec<f64>> = spec.axes.iter().map(|a| a.values.clone()).collect();
    let mut pending = expand(spec)?;
    apply_cap(spec, &mut pending, 0);

    let mut completed: BTreeMap<u128, SolvedPoint> = BTreeMap::new();
    let mut total_points = pending.len();
    let mut solved = 0u64;
    let mut cached = 0u64;
    let mut skipped = 0u64;
    let mut rounds = 0u64;
    let mut round_timings: Vec<RoundTiming> = Vec::new();
    let mut converged = false;

    for round in 0..max_rounds {
        rounds += 1;
        counter_add(names::ROUNDS, 1);
        let round_points = u64::try_from(pending.len()).unwrap_or(u64::MAX);
        let budget = opts.budget.map(|b| b.saturating_sub(solved));
        // The scheduler folds its workers' telemetry into this thread
        // before returning, so snapshot deltas around it attribute the
        // round's solver expand time (see `dp_expand_total`).
        let expand_before = dp_expand_total(&ia_obs::snapshot());
        let execute_watch = Stopwatch::start();
        let exec = execute(
            &names::EXEC,
            &pending,
            &Point::key,
            &|point: &Point| solver.solve_point(point),
            cache,
            &ExecOptions {
                workers,
                budget,
                cancel: opts.cancel,
                progress: opts.progress,
            },
        )?;
        let execute_ns = execute_watch.elapsed_ns();
        let expand_after = dp_expand_total(&ia_obs::snapshot());
        solved += exec.solved;
        cached += exec.cached;
        skipped = exec.skipped;
        for (point, result) in pending.iter().zip(&exec.results) {
            if let Some(solve) = result {
                completed.insert(
                    point.key(),
                    SolvedPoint {
                        coords: point.coords.clone(),
                        key: point.key(),
                        solve: *solve,
                    },
                );
            }
        }

        // The refine phase: decide whether (and where) the grid grows.
        // The labeled block keeps the loop's exit conditions in one
        // place while still timing the phase on every path out.
        let refine_watch = Stopwatch::start();
        let stop = 'refine: {
            if skipped > 0 {
                // Budget exhausted or cancelled: stop without refining
                // so a resume continues from exactly this frontier.
                break 'refine true;
            }
            if round + 1 == max_rounds {
                // The strategy's refinement budget is spent; the run
                // is as complete as the spec asked it to be.
                converged = true;
                break 'refine true;
            }

            // Adaptive refinement: bisect every cliff interval.
            match refine_frontier(spec, &mut axis_values, &completed, threshold)? {
                None => {
                    converged = true;
                    break 'refine true;
                }
                Some(refined) => {
                    total_points = completed.len() + refined.len();
                    pending = refined;
                    false
                }
            }
        };
        let timing = RoundTiming {
            round,
            points: round_points,
            solved: exec.solved,
            cached: exec.cached,
            execute_ns,
            refine_ns: refine_watch.elapsed_ns(),
            dp_expand_ns: expand_after.saturating_sub(expand_before),
        };
        round_timings.push(timing);
        if stop {
            break;
        }
    }

    let mut points: Vec<SolvedPoint> = completed.into_values().collect();
    points.sort_by(|a, b| {
        let by_coords = a
            .coords
            .iter()
            .zip(&b.coords)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal);
        by_coords.then_with(|| a.key.cmp(&b.key))
    });
    Ok(RunOutcome {
        run_id: String::new(),
        run_dir: String::new(),
        total_points: u64::try_from(total_points).unwrap_or(u64::MAX),
        solved,
        cached,
        skipped,
        rounds,
        round_timings,
        complete: skipped == 0 && converged,
        points,
    })
}

/// Runs a spec against the on-disk run store under `runs_root`,
/// creating `runs/<run_id>/` or reattaching to it if the same spec
/// already ran there (every previously persisted point is a free
/// cache hit).
///
/// # Errors
///
/// Returns [`DseError`] for spec/bind/solve failures, run-store I/O
/// failures, or a corrupt store.
pub fn run(
    spec: &ExperimentSpec,
    runs_root: &Path,
    opts: &RunOptions<'_>,
) -> Result<RunOutcome, DseError> {
    let (store, completed) = RunStore::open_or_create(runs_root, spec)?;
    finish(spec, &store, completed, opts)
}

/// Resumes the run persisted in `run_dir`, recovering the spec from
/// the manifest and skipping every already-completed point.
///
/// # Errors
///
/// Returns [`DseError`] for spec/bind/solve failures, run-store I/O
/// failures, or a corrupt store.
pub fn resume(run_dir: &Path, opts: &RunOptions<'_>) -> Result<RunOutcome, DseError> {
    let (store, spec, completed) = RunStore::open::<ExperimentSpec>(run_dir)?;
    finish(&spec, &store, completed, opts)
}

fn finish(
    spec: &ExperimentSpec,
    store: &RunStore,
    completed: BTreeMap<u128, CachedSolve>,
    opts: &RunOptions<'_>,
) -> Result<RunOutcome, DseError> {
    // Correlate the whole invocation's trace events, scheduler workers
    // included, on the content-addressed run id.
    let run_id = spec.run_id();
    let _ctx = ia_obs::push_context(ia_obs::context_for(&run_id));
    let cache = StoreCache::new(store, completed);
    let mut outcome = explore(spec, &cache, opts)?;
    if let Some(error) = cache.take_error() {
        return Err(error);
    }
    outcome.run_id = run_id;
    outcome.run_dir = store.dir().display().to_string();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ia-dse-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_spec() -> ExperimentSpec {
        ExperimentSpec::parse_str(
            r#"{"name": "engine-small",
                "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5]}],
                "workers": 2}"#,
        )
        .unwrap()
    }

    #[test]
    fn run_persists_and_rerun_is_all_cache_hits() {
        let root = scratch("rerun");
        let spec = small_spec();
        let first = run(&spec, &root, &RunOptions::default()).unwrap();
        assert!(first.complete);
        assert_eq!(first.solved, 3);
        assert_eq!(first.cached, 0);
        assert_eq!(first.points.len(), 3);
        assert!(!first.run_id.is_empty());

        let second = run(&spec, &root, &RunOptions::default()).unwrap();
        assert_eq!(second.solved, 0, "rerun re-solves nothing");
        assert_eq!(second.cached, 3);
        assert_eq!(second.points, first.points);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_run_resumes_to_the_identical_outcome() {
        let root = scratch("resume");
        let spec = small_spec();
        let interrupted = run(
            &spec,
            &root,
            &RunOptions {
                budget: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(!interrupted.complete);
        assert_eq!(interrupted.solved, 1);
        assert_eq!(interrupted.skipped, 2);

        let run_dir = PathBuf::from(&interrupted.run_dir);
        let resumed = resume(&run_dir, &RunOptions::default()).unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.cached, 1, "the persisted point is a free hit");
        assert_eq!(resumed.solved, 2);

        let uninterrupted_root = scratch("resume-ref");
        let reference = run(&spec, &uninterrupted_root, &RunOptions::default()).unwrap();
        assert_eq!(resumed.points, reference.points);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&uninterrupted_root);
    }

    #[test]
    fn adaptive_refinement_adds_points_around_a_cliff() {
        // Sweep clock frequency across a capacity edge: somewhere
        // between a relaxed and an aggressive clock the normalized
        // rank collapses, and refinement should bisect toward it.
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "engine-adaptive",
                "base": {"gates": 50000, "bunch": 5000},
                "axes": [{"knob": "c", "values": [200.0, 3000.0]}],
                "strategy": {"adaptive": {"threshold": 0.2, "max_rounds": 4}},
                "workers": 2}"#,
        )
        .unwrap();
        let root = scratch("adaptive");
        let outcome = run(&spec, &root, &RunOptions::default()).unwrap();
        assert!(outcome.rounds >= 2, "refinement ran at least one bisection");
        assert!(
            outcome.points.len() > 2,
            "refinement added midpoints: got {}",
            outcome.points.len()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn progress_counts_every_completed_point() {
        let root = scratch("progress");
        let progress = AtomicU64::new(0);
        let outcome = run(
            &small_spec(),
            &root,
            &RunOptions {
                progress: Some(&progress),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(progress.load(Ordering::SeqCst), outcome.solved);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn max_points_caps_the_expansion() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "engine-cap",
                "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5, 3.0]}],
                "max_points": 2}"#,
        )
        .unwrap();
        let root = scratch("cap");
        let outcome = run(&spec, &root, &RunOptions::default()).unwrap();
        assert_eq!(outcome.total_points, 2);
        assert_eq!(outcome.points.len(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
