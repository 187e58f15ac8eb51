//! Real-design corpus workloads for the rank metric.
//!
//! `ia-corpus` turns the single-point solver into a corpus runner: a
//! [`CorpusSpec`] names designs (streamed Bookshelf placements, seeded
//! synthetic placements, or pure Davis reference scales), the WLD
//! backends to model them with (the measured distribution or any
//! [`ia_wld::WldModel`]), and the placement-suboptimality levels
//! `γ ≥ 1` to stress them at. The engine solves the full cartesian
//! product on `ia-dse`'s bounded executor and resumable run store —
//! this crate contributes only the per-point solve (materialized
//! design → backend WLD → `BoundConfig::solve_with_wld`) — and the
//! report ranks every backend against the Davis baseline per design
//! and stress level, flagging rank cliffs.
//!
//! ```no_run
//! use ia_corpus::{report, CorpusSpec, RunOptions};
//!
//! let spec = CorpusSpec::parse_str(
//!     r#"{"name": "smoke",
//!         "designs": [{"name": "ref", "kind": "davis", "gates": 100000}],
//!         "degrade": [1.0, 2.0]}"#,
//! )?;
//! let outcome = ia_corpus::run(&spec, std::path::Path::new("runs"), &RunOptions::default())?;
//! println!("{}", report::render(&spec, &outcome.points));
//! # Ok::<(), ia_corpus::CorpusError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod engine;
mod error;
mod point;
pub mod report;
mod spec;

pub use design::DesignData;
pub use engine::{resume, run, RunOptions, RunOutcome, SolvedCorpusPoint};
pub use error::CorpusError;
pub use point::{expand, CorpusPoint};
pub use spec::{net_model_label, Backend, CorpusSpec, DesignSource, DesignSpec};

/// Observability names the corpus runner emits, in one place so the
/// docs, dashboards and tests agree on spelling.
pub mod names {
    use ia_dse::scheduler::ExecNames;

    /// The executor telemetry of a corpus run.
    pub const EXEC: ExecNames = ExecNames {
        solved: POINTS_SOLVED,
        cached: POINTS_CACHED,
        skipped: POINTS_SKIPPED,
        point: POINT_SPAN,
        worker_prefix: WORKER_PREFIX,
    };
    /// Counter: points solved fresh this run (cache misses).
    pub const POINTS_SOLVED: &str = "corpus.points.solved";
    /// Counter: points satisfied from the run store's journal.
    pub const POINTS_CACHED: &str = "corpus.points.cached";
    /// Counter: points left unsolved because the budget ran out.
    pub const POINTS_SKIPPED: &str = "corpus.points.skipped";
    /// Counter: designs whose placement was streamed through the
    /// Bookshelf ingester this run.
    pub const DESIGNS_INGESTED: &str = "corpus.designs.ingested";
    /// Counter: synthetic designs generated into the run directory
    /// this run.
    pub const DESIGNS_GENERATED: &str = "corpus.designs.generated";
    /// Span: one corpus point solved end-to-end.
    pub const POINT_SPAN: &str = "corpus.point";
    /// Prefix for per-worker observability sink names.
    pub const WORKER_PREFIX: &str = "corpus.worker.";
}
