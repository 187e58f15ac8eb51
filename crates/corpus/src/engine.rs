//! The corpus run engine: expand → materialize → execute → persist.
//!
//! Materialization is driven by the run store's state: only designs
//! with at least one missing point are touched, and a design's
//! placement is streamed only when a missing point needs the measured
//! distribution (or a Bookshelf gate count). A resume over a complete
//! store therefore re-solves zero points and ingests zero designs.

use std::collections::BTreeMap;
use std::path::Path;

use ia_dse::scheduler::{execute, ExecOptions};
use ia_dse::store::{RunStore, StoreCache};
use ia_rank::sweep::CachedSolve;
use ia_wld::RentParameters;

use crate::design::{materialize, DesignData, DesignNeed};
use crate::error::CorpusError;
use crate::names;
use crate::point::{expand, CorpusPoint};
use crate::spec::{Backend, CorpusSpec};

/// Execution knobs for one corpus run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Worker-thread count; `None` uses the spec's `workers`.
    pub workers: Option<usize>,
    /// Ceiling on fresh solves (cache hits are free). `Some(0)` is
    /// the pure-replay mode the report path uses: nothing is solved,
    /// nothing is materialized.
    pub budget: Option<u64>,
}

/// One completed corpus point, labeled for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedCorpusPoint {
    /// The design's spec name.
    pub design: String,
    /// The WLD backend that produced the distribution.
    pub backend: Backend,
    /// The degradation level.
    pub gamma: f64,
    /// The point's content address.
    pub key: u128,
    /// The solve summary.
    pub solve: CachedSolve,
}

/// What a corpus run did.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run's content-addressed id.
    pub run_id: String,
    /// The run directory.
    pub run_dir: String,
    /// Points in the spec's expansion.
    pub total_points: u64,
    /// Points solved fresh.
    pub solved: u64,
    /// Points answered by the store.
    pub cached: u64,
    /// Points left unsolved (budget).
    pub skipped: u64,
    /// Whether every point is now persisted.
    pub complete: bool,
    /// Completed points in deterministic expansion order (designs,
    /// then backends, then ascending `γ`).
    pub points: Vec<SolvedCorpusPoint>,
}

/// Runs a spec against the on-disk run store under `runs_root`,
/// creating `runs/<run_id>/` or reattaching to it if the same spec
/// already ran there (every persisted point is a free cache hit).
///
/// # Errors
///
/// Returns [`CorpusError`] for spec/design/bind/solve failures,
/// run-store I/O failures, or a corrupt store.
pub fn run(
    spec: &CorpusSpec,
    runs_root: &Path,
    opts: &RunOptions,
) -> Result<RunOutcome, CorpusError> {
    let (store, completed) = RunStore::open_or_create(runs_root, spec)?;
    finish(spec, &store, completed, opts)
}

/// Resumes the run persisted in `run_dir`, recovering the spec from
/// the manifest and skipping every already-completed point.
///
/// # Errors
///
/// Returns [`CorpusError`] like [`run`].
pub fn resume(run_dir: &Path, opts: &RunOptions) -> Result<(CorpusSpec, RunOutcome), CorpusError> {
    let (store, spec, completed) = RunStore::open::<CorpusSpec>(run_dir)?;
    let outcome = finish(&spec, &store, completed, opts)?;
    Ok((spec, outcome))
}

fn finish(
    spec: &CorpusSpec,
    store: &RunStore,
    completed: BTreeMap<u128, CachedSolve>,
    opts: &RunOptions,
) -> Result<RunOutcome, CorpusError> {
    // Correlate the whole invocation's trace events — design ingestion,
    // scheduler workers, per-point spans — on the content-addressed id.
    let run_id = spec.run_id();
    let _ctx = ia_obs::push_context(ia_obs::context_for(&run_id));
    let mut points = expand(spec);
    let designs = if opts.budget == Some(0) {
        // Pure replay: nothing will be solved, so no design may be
        // generated or ingested.
        vec![None; spec.designs.len()]
    } else {
        let mut needs = vec![DesignNeed::default(); spec.designs.len()];
        for point in &points {
            if completed.contains_key(&point.key(spec)) {
                continue;
            }
            let need = &mut needs[point.design];
            need.any = true;
            need.measured |= point.backend == Backend::Measured;
        }
        materialize(spec, store.dir(), &needs)?
    };
    // Bookshelf designs only learn their gate count at ingestion;
    // patch it into their points' configs (the content address does
    // not depend on it, so keys stay stable).
    for point in &mut points {
        if let Some(data) = designs.get(point.design).and_then(Option::as_ref) {
            point.config.gates = data.gates;
        }
    }
    let cache = StoreCache::new(store, completed);
    let exec = execute(
        &names::EXEC,
        &points,
        &|point: &CorpusPoint| point.key(spec),
        &|point: &CorpusPoint| solve_point(point, &designs),
        &cache,
        &ExecOptions {
            workers: opts.workers.unwrap_or(spec.workers),
            budget: opts.budget,
            ..ExecOptions::default()
        },
    )?;
    if let Some(error) = cache.take_error() {
        return Err(error.into());
    }
    let solved_points = assemble(spec, &points, &exec.results);
    Ok(RunOutcome {
        run_id,
        run_dir: store.dir().display().to_string(),
        total_points: u64::try_from(points.len()).unwrap_or(u64::MAX),
        solved: exec.solved,
        cached: exec.cached,
        skipped: exec.skipped,
        complete: exec.skipped == 0,
        points: solved_points,
    })
}

/// Solves one corpus point: the backend's wire-length distribution
/// for the point's materialized design (the measured histogram, or a
/// stochastic model at the design's gate count), then
/// `BoundConfig::solve_with_wld`.
fn solve_point(
    point: &CorpusPoint,
    designs: &[Option<DesignData>],
) -> Result<CachedSolve, CorpusError> {
    let data = designs
        .get(point.design)
        .and_then(Option::as_ref)
        .ok_or_else(|| {
            CorpusError::Spec(format!(
                "point references unmaterialized design {}",
                point.design
            ))
        })?;
    let wld = match point.backend {
        Backend::Measured => data.measured.clone().ok_or(CorpusError::Spec(
            "measured backend reached a design with no measured distribution".to_owned(),
        ))?,
        Backend::Model(model) => model.generate(data.gates, RentParameters::default())?,
    };
    point.config.solve_with_wld(wld).map_err(CorpusError::Bind)
}

fn assemble(
    spec: &CorpusSpec,
    points: &[CorpusPoint],
    results: &[Option<CachedSolve>],
) -> Vec<SolvedCorpusPoint> {
    points
        .iter()
        .zip(results)
        .filter_map(|(point, result)| {
            result.map(|solve| SolvedCorpusPoint {
                design: spec.designs[point.design].name.clone(),
                backend: point.backend,
                gamma: point.gamma,
                key: point.key(spec),
                solve,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ia-corpus-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> CorpusSpec {
        CorpusSpec::parse_str(
            r#"{"name": "engine", "degrade": [1.0, 2.0],
                "base": {"gates": 20000, "bunch": 2000},
                "backends": ["davis", "hefeida-site", "hefeida-occupancy"],
                "designs": [
                  {"name": "ref", "kind": "davis", "gates": 20000},
                  {"name": "synth", "kind": "synthetic",
                   "cells": 500, "nets": 1200, "seed": 11}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn backends_disagree_on_rank_at_the_same_scale() {
        let root = tmp_root("backends");
        let outcome = run(&spec(), &root, &RunOptions::default()).unwrap();
        // Points 0..1 are davis on `ref` at γ=1,2; 2..3 hefeida-site.
        let davis = outcome.points[0].solve;
        assert_ne!(davis.rank, outcome.points[2].solve.rank);
        // Degradation can only lose rank, never gain it.
        assert!(outcome.points[1].solve.rank <= davis.rank);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_missing_design_is_a_loud_error() {
        let points = expand(&spec());
        let err = solve_point(&points[0], &[None]).unwrap_err();
        assert!(err.to_string().contains("unmaterialized"), "{err}");
    }

    #[test]
    fn a_clashing_run_directory_is_refused() {
        let root = tmp_root("clash");
        let spec = spec();
        let first = run(
            &spec,
            &root,
            &RunOptions {
                budget: Some(0),
                ..RunOptions::default()
            },
        )
        .unwrap();
        // Another spec whose run directory holds `spec`'s manifest.
        let mut other = spec.clone();
        other.name = "other".to_owned();
        std::fs::rename(&first.run_dir, root.join(other.run_id())).unwrap();
        let err = run(&other, &root, &RunOptions::default()).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn run_twice_is_deterministic_and_all_cached() {
        let root = tmp_root("determinism");
        let spec = spec();
        let opts = RunOptions::default();
        let first = run(&spec, &root, &opts).unwrap();
        assert!(first.complete);
        assert_eq!(first.solved, 12);
        let second = run(&spec, &root, &opts).unwrap();
        assert_eq!(second.solved, 0);
        assert_eq!(second.cached, 12);
        assert_eq!(second.points, first.points);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn interrupted_run_resumes_without_resolving_completed_points() {
        let root = tmp_root("resume");
        let spec = spec();
        // "Kill" the run after 5 fresh solves.
        let partial = run(
            &spec,
            &root,
            &RunOptions {
                workers: Some(1),
                budget: Some(5),
            },
        )
        .unwrap();
        assert_eq!(partial.solved, 5);
        assert_eq!(partial.skipped, 7);
        assert!(!partial.complete);

        let run_dir = PathBuf::from(&partial.run_dir);
        let (resumed_spec, resumed) = resume(&run_dir, &RunOptions::default()).unwrap();
        assert_eq!(resumed_spec, spec);
        assert_eq!(resumed.cached, 5);
        assert_eq!(resumed.solved, 7);
        assert!(resumed.complete);

        // A second resume over the complete store re-solves nothing.
        let (_, idle) = resume(&run_dir, &RunOptions::default()).unwrap();
        assert_eq!(idle.solved, 0);
        assert_eq!(idle.cached, 12);
        assert_eq!(idle.points, resumed.points);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replay_mode_never_materializes_designs() {
        let root = tmp_root("replay");
        let spec = spec();
        // Zero-budget replay of a run that never happened: every point
        // is skipped and the run directory gains no designs/ tree.
        let outcome = run(
            &spec,
            &root,
            &RunOptions {
                workers: None,
                budget: Some(0),
            },
        )
        .unwrap();
        assert_eq!(outcome.solved, 0);
        assert_eq!(outcome.skipped, 12);
        assert!(!PathBuf::from(&outcome.run_dir).join("designs").exists());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn measured_backend_runs_against_generated_synthetic_designs() {
        let root = tmp_root("measured");
        let spec = CorpusSpec::parse_str(
            r#"{"name": "measured", "degrade": [1.0, 1.5],
                "base": {"gates": 20000, "bunch": 2000},
                "backends": ["measured", "davis"],
                "designs": [{"name": "synth", "kind": "synthetic",
                             "cells": 500, "nets": 1200, "seed": 3}]}"#,
        )
        .unwrap();
        let outcome = run(&spec, &root, &RunOptions::default()).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.points.len(), 4);
        let measured = &outcome.points[0];
        let davis = &outcome.points[2];
        assert_eq!(measured.backend, Backend::Measured);
        assert_eq!(davis.backend, Backend::Model(ia_wld::WldModel::Davis));
        // The measured placement and the stochastic model disagree.
        assert_ne!(measured.solve.rank, davis.solve.rank);
        // The synthetic design was generated into the run directory.
        let designs = PathBuf::from(&outcome.run_dir)
            .join("designs")
            .join("synth");
        assert!(designs.join("synth.nodes").is_file());
        let _ = std::fs::remove_dir_all(&root);
    }
}
