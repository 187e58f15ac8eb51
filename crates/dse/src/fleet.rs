//! The shared-store fleet worker: N independent processes, one run
//! directory, zero duplicate solves.
//!
//! [`work`] is the loop behind `iarank fleet worker --run <dir>`.
//! Each worker expands the spec recovered from the run manifest,
//! partitions the pending point set with its peers through the
//! [`ClaimJournal`](crate::claims::ClaimJournal) (claim → solve →
//! append result → release), and replays the *same* deterministic
//! adaptive-refinement step as the in-process engine
//! ([`refine_frontier`](crate::engine::refine_frontier)) so every
//! process derives the identical round-N grid from the identical
//! completed set — which is what makes an N-worker run byte-identical
//! to a single-process run.
//!
//! Failure model: `results.jsonl` is the source of truth. A worker
//! killed mid-solve leaves only an expired lease behind; the next
//! worker to attempt the point reclaims it (counted under
//! `fleet.reclaimed`) and solves it once. A worker killed *after*
//! appending its result but before releasing loses nothing: the
//! reclaiming worker re-checks the result log after winning the claim
//! and records a cache hit instead of re-solving.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use ia_obs::json::JsonValue;
use ia_obs::log::{self as obs_log, LogLevel};
use ia_obs::{counter_add, Stopwatch};
use ia_rank::sweep::CachedSolve;

use crate::claims::{ClaimJournal, ClaimOutcome};
use crate::engine::{apply_cap, refine_frontier, RunOptions, SolvedPoint};
use crate::error::DseError;
use crate::names;
use crate::point::{expand, Point};
use crate::scheduler::{LocalSolver, PointSolver};
use crate::spec::{ExperimentSpec, Strategy};
use crate::store::RunStore;

/// Knobs for one shared-store fleet worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOptions {
    /// This worker's id, recorded on every journal line.
    pub worker_id: String,
    /// Lease duration: a claim older than this is reclaimable by a
    /// peer — the dead-worker recovery latency.
    pub lease_ms: u64,
    /// Sleep between polls while peers hold every pending point.
    pub poll_ms: u64,
    /// Exit (incomplete) after this long with no progress anywhere in
    /// the run; `0` waits forever.
    pub max_idle_ms: u64,
    /// Fault-injection aid: hold each won claim this long before
    /// solving, so tests can kill a worker that provably owns a
    /// lease. `0` (the default) disables it.
    pub stall_ms: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            worker_id: format!("worker-{}", std::process::id()),
            lease_ms: 30_000,
            poll_ms: 25,
            max_idle_ms: 0,
            stall_ms: 0,
        }
    }
}

/// What one fleet worker contributed to a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// The run's content-addressed id.
    pub run_id: String,
    /// The run directory.
    pub run_dir: String,
    /// Points this worker solved fresh.
    pub solved: u64,
    /// Claims this worker won whose result had already landed (a
    /// peer finished first, or a dead peer finished before dying).
    pub cached: u64,
    /// Claims lost to a peer's live lease.
    pub lost: u64,
    /// Expired leases this worker took over from dead peers.
    pub reclaimed: u64,
    /// Exploration rounds this worker advanced through.
    pub rounds: u64,
    /// Points in the final expanded set as this worker saw it.
    pub total_points: u64,
    /// Whether the whole run (all workers' points) is complete and
    /// refinement converged.
    pub complete: bool,
}

/// Runs one fleet worker against the run directory until the run
/// completes, the fresh-solve budget is exhausted, cancellation is
/// requested, or the idle limit passes with no progress.
///
/// `opts.budget` bounds this worker's fresh solves; `opts.cancel` and
/// `opts.progress` behave as in the engine; `opts.solver` substitutes
/// the point solver; `opts.workers` is ignored — fleet parallelism is
/// process-level.
///
/// # Errors
///
/// Returns [`DseError`] for a missing/corrupt run directory, journal
/// I/O failures, or a point that fails to solve.
pub fn work(
    run_dir: &Path,
    opts: &RunOptions<'_>,
    fleet: &FleetOptions,
) -> Result<FleetOutcome, DseError> {
    let (store, spec, _) = RunStore::open::<ExperimentSpec>(run_dir)?;
    let journal = ClaimJournal::open(run_dir, &fleet.worker_id)?;
    let solver: &dyn PointSolver = opts.solver.unwrap_or(&LocalSolver);
    let run_id = spec.run_id();
    let _ctx = ia_obs::push_context(obs_log::context_for(&run_id));
    obs_log::log(
        LogLevel::Info,
        "fleet.worker",
        "worker started",
        vec![
            ("run_id", JsonValue::Str(run_id.clone())),
            ("worker", JsonValue::Str(fleet.worker_id.clone())),
            ("lease_ms", JsonValue::UInt(fleet.lease_ms)),
        ],
    );

    let (threshold, max_rounds) = match spec.strategy {
        Strategy::Adaptive {
            threshold,
            max_rounds,
        } => (threshold, max_rounds.max(1)),
        _ => (0.0, 1),
    };
    let mut axis_values: Vec<Vec<f64>> = spec.axes.iter().map(|a| a.values.clone()).collect();
    let mut pending = expand(&spec)?;
    apply_cap(&spec, &mut pending, 0);

    let mut outcome = FleetOutcome {
        run_id,
        run_dir: run_dir.display().to_string(),
        solved: 0,
        cached: 0,
        lost: 0,
        reclaimed: 0,
        rounds: 0,
        total_points: u64::try_from(pending.len()).unwrap_or(u64::MAX),
        complete: false,
    };
    let mut completed_points: BTreeMap<u128, SolvedPoint> = BTreeMap::new();
    let mut last_progress = Stopwatch::start();
    let mut seen_results = 0usize;

    for round in 0..max_rounds {
        outcome.rounds = round + 1;
        // Drain this round: claim and solve what we can, watch peers
        // fill in the rest, and only move on when every point of the
        // round is in the result log.
        let completed = loop {
            if opts
                .cancel
                .is_some_and(|c| c.load(std::sync::atomic::Ordering::SeqCst))
            {
                return Ok(outcome);
            }
            let completed = store.reload()?;
            if completed.len() > seen_results {
                seen_results = completed.len();
                last_progress = Stopwatch::start();
            }
            let remaining: Vec<&Point> = pending
                .iter()
                .filter(|p| !completed.contains_key(&p.key()))
                .collect();
            if remaining.is_empty() {
                break completed;
            }
            // One replay up front screens out points visibly held by
            // live peer leases, so waiting never spams the journal
            // with doomed claim lines.
            let held = journal.replay()?;
            let now = crate::claims::now_ms();
            let mut advanced = false;
            for point in remaining {
                if opts
                    .cancel
                    .is_some_and(|c| c.load(std::sync::atomic::Ordering::SeqCst))
                {
                    return Ok(outcome);
                }
                if opts.budget.is_some_and(|b| outcome.solved >= b) {
                    return Ok(outcome);
                }
                let key = point.key();
                if held
                    .holders
                    .get(&key)
                    .is_some_and(|h| h.worker != fleet.worker_id && h.expires_ms > now)
                {
                    continue;
                }
                counter_add(names::FLEET_CLAIMS, 1);
                match journal.try_claim(key, fleet.lease_ms)? {
                    ClaimOutcome::Lost => {
                        outcome.lost += 1;
                        counter_add(names::FLEET_LOST, 1);
                        continue;
                    }
                    ClaimOutcome::Won { reclaimed } => {
                        counter_add(names::FLEET_CLAIMED, 1);
                        if reclaimed {
                            outcome.reclaimed += 1;
                            counter_add(names::FLEET_RECLAIMED, 1);
                            obs_log::log(
                                LogLevel::Warn,
                                "fleet.worker",
                                "expired lease reclaimed",
                                vec![
                                    ("key", JsonValue::Str(format!("{key:032x}"))),
                                    ("worker", JsonValue::Str(fleet.worker_id.clone())),
                                ],
                            );
                        }
                        if fleet.stall_ms > 0 {
                            std::thread::sleep(Duration::from_millis(fleet.stall_ms));
                        }
                        // Idempotency: the previous holder may have
                        // appended its result before dying (or before
                        // its lease expired). Never solve twice.
                        if let Some(hit) = store.reload()?.get(&key) {
                            outcome.cached += 1;
                            counter_add(names::POINTS_CACHED, 1);
                            record_point(&mut completed_points, point, *hit);
                            journal.release(key)?;
                            counter_add(names::FLEET_RELEASED, 1);
                            advanced = true;
                            continue;
                        }
                        let value = {
                            let _span = ia_obs::span(names::SPAN_POINT);
                            solver.solve_point(point)?
                        };
                        store.append(key, &value)?;
                        journal.release(key)?;
                        counter_add(names::POINTS_SOLVED, 1);
                        counter_add(names::FLEET_RELEASED, 1);
                        outcome.solved += 1;
                        if let Some(progress) = opts.progress {
                            progress.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        }
                        record_point(&mut completed_points, point, value);
                        advanced = true;
                    }
                }
            }
            if advanced {
                last_progress = Stopwatch::start();
            } else {
                // Every pending point is held by a live peer lease:
                // wait for results (or lease expiries) to appear.
                counter_add(names::FLEET_IDLE_WAITS, 1);
                if fleet.max_idle_ms > 0
                    && last_progress.elapsed() >= Duration::from_millis(fleet.max_idle_ms)
                {
                    return Ok(outcome);
                }
                std::thread::sleep(Duration::from_millis(fleet.poll_ms.max(1)));
            }
        };

        // The round is complete everywhere; fold the full result set
        // (ours and our peers') into the refinement input.
        for point in &pending {
            if let Some(solve) = completed.get(&point.key()) {
                record_point(&mut completed_points, point, *solve);
            }
        }
        counter_add(names::ROUNDS, 1);
        if round + 1 == max_rounds {
            outcome.complete = true;
            break;
        }
        match refine_frontier(&spec, &mut axis_values, &completed_points, threshold)? {
            None => {
                outcome.complete = true;
                break;
            }
            Some(refined) => {
                outcome.total_points =
                    u64::try_from(completed_points.len() + refined.len()).unwrap_or(u64::MAX);
                pending = refined;
            }
        }
    }
    obs_log::log(
        LogLevel::Info,
        "fleet.worker",
        "worker finished",
        vec![
            ("worker", JsonValue::Str(fleet.worker_id.clone())),
            ("solved", JsonValue::UInt(outcome.solved)),
            ("lost", JsonValue::UInt(outcome.lost)),
            ("reclaimed", JsonValue::UInt(outcome.reclaimed)),
            ("complete", JsonValue::Bool(outcome.complete)),
        ],
    );
    Ok(outcome)
}

fn record_point(completed: &mut BTreeMap<u128, SolvedPoint>, point: &Point, solve: CachedSolve) {
    completed.insert(
        point.key(),
        SolvedPoint {
            coords: point.coords.clone(),
            key: point.key(),
            solve,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ia-dse-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::parse_str(
            r#"{"name": "fleet-unit",
                "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5]},
                         {"knob": "c", "values": [400.0, 800.0]}]}"#,
        )
        .unwrap()
    }

    fn init_run(root: &Path, spec: &ExperimentSpec) -> std::path::PathBuf {
        // Create the run directory (manifest + empty log) without
        // solving anything.
        let (store, _) = RunStore::open_or_create(root, spec).unwrap();
        store.dir().to_path_buf()
    }

    fn worker(id: &str) -> FleetOptions {
        FleetOptions {
            worker_id: id.to_owned(),
            lease_ms: 60_000,
            poll_ms: 1,
            max_idle_ms: 2_000,
            stall_ms: 0,
        }
    }

    #[test]
    fn a_single_worker_completes_the_run_and_matches_the_engine() {
        let spec = spec();
        let fleet_root = scratch("solo");
        let run_dir = init_run(&fleet_root, &spec);
        let outcome = work(&run_dir, &RunOptions::default(), &worker("w1")).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.solved, 6);
        assert_eq!(outcome.lost, 0);

        let engine_root = scratch("solo-ref");
        let reference = crate::run(&spec, &engine_root, &RunOptions::default()).unwrap();
        let fleet_report = crate::report::for_run(&run_dir).unwrap();
        let engine_report = crate::report::for_run(&engine_root.join(spec.run_id())).unwrap();
        assert_eq!(fleet_report, engine_report, "byte-identical reports");
        assert_eq!(reference.solved, outcome.solved);
        let _ = std::fs::remove_dir_all(&fleet_root);
        let _ = std::fs::remove_dir_all(&engine_root);
    }

    #[test]
    fn three_threaded_workers_partition_without_duplicates() {
        let spec = spec();
        let root = scratch("trio");
        let run_dir = init_run(&root, &spec);
        let outcomes: Vec<FleetOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = ["w1", "w2", "w3"]
                .into_iter()
                .map(|id| {
                    let run_dir = run_dir.clone();
                    scope
                        .spawn(move || work(&run_dir, &RunOptions::default(), &worker(id)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|o| o.complete));
        let total_solved: u64 = outcomes.iter().map(|o| o.solved).sum();
        assert_eq!(total_solved, 6, "every point solved exactly once");

        // The raw result log has no duplicate keys.
        let text = std::fs::read_to_string(run_dir.join("results.jsonl")).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 6, "no duplicate appends");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_dead_workers_stale_lease_is_reclaimed() {
        let spec = spec();
        let root = scratch("reclaim");
        let run_dir = init_run(&root, &spec);
        // Forge a dead worker: claim one real point with an
        // already-expired lease and never solve it.
        let points = expand(&spec).unwrap();
        let ghost = ClaimJournal::open(&run_dir, "ghost").unwrap();
        assert!(matches!(
            ghost.try_claim(points[0].key(), 0).unwrap(),
            ClaimOutcome::Won { .. }
        ));
        std::thread::sleep(Duration::from_millis(2));

        let outcome = work(&run_dir, &RunOptions::default(), &worker("w1")).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.reclaimed, 1, "the ghost's lease was reclaimed");
        assert_eq!(outcome.solved, 6, "reclaimed point still solved once");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn budget_stops_a_worker_incomplete() {
        let spec = spec();
        let root = scratch("budget");
        let run_dir = init_run(&root, &spec);
        let outcome = work(
            &run_dir,
            &RunOptions {
                budget: Some(2),
                ..RunOptions::default()
            },
            &worker("w1"),
        )
        .unwrap();
        assert!(!outcome.complete);
        assert_eq!(outcome.solved, 2);
        // A second worker finishes the rest.
        let finisher = work(&run_dir, &RunOptions::default(), &worker("w2")).unwrap();
        assert!(finisher.complete);
        assert_eq!(finisher.solved, 4);
        let _ = std::fs::remove_dir_all(&root);
    }
}
