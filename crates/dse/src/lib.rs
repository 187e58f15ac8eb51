//! # ia-dse
//!
//! Declarative design-space exploration for the interconnect-rank
//! metric (*A Novel Metric for Interconnect Architecture Performance*,
//! DATE 2003).
//!
//! The paper's Table 4 experiments are hand-rolled one-axis sweeps
//! over ILD permittivity `K`, Miller factor `M`, clock `C`, and
//! repeater-area fraction `R`. This crate promotes them into a real
//! exploration subsystem:
//!
//! * **[`spec`]** — a declarative experiment spec (TOML subset or
//!   JSON): a base configuration, axes over any canonical knob, a
//!   search [`Strategy`] (`grid` | `random` | `adaptive`), and point
//!   budgets.
//! * **[`point`]** — spec expansion into a deduplicated point set,
//!   each point bound through `ia_rank::canon::BoundConfig::with` and
//!   content-addressed through `ia_rank::canon`, so dse runs, the HTTP
//!   serve cache, and each other share one address space.
//! * **[`scheduler`]** — the workspace's one bounded point executor
//!   over `ia_rank::sweep::PointCache`, telemetry-registered per
//!   worker. It answers cache hits on the calling thread and starts
//!   workers only for misses; it takes the per-point solve and
//!   telemetry names as arguments, so `ia-corpus`, serve's `/sweep`
//!   and `iarank sweep` run on it too.
//! * **[`store`]** — the resumable on-disk run store:
//!   `runs/<run_id>/` holds a `manifest.json` plus an append-only
//!   `results.jsonl`; a killed run resumes without re-solving any
//!   completed point. Any [`RunSpec`] (dse or corpus) can be stored.
//! * **[`pareto`]** — Pareto-front extraction (maximize normalized
//!   rank, minimize repeater area) and rank-cliff detection; the
//!   adaptive strategy bisects axis intervals across detected cliffs.
//! * **[`engine`]** — `run` / `resume` / in-memory `explore`, the
//!   entry points the CLI and `ia-serve` jobs call. A run is spread
//!   over several machines by `ia-serve`'s fleet coordinator, which
//!   substitutes a remote [`PointSolver`] through
//!   [`RunOptions::solver`], so one process still writes the store.
//! * **[`report`]** — deterministic Table-4-style text reports over a
//!   completed run, rendered through `ia-report`.
//!
//! Execution emits `dse.points.{solved,cached,skipped}` counters and a
//! `dse.point` span per fresh solve; see
//! `docs/observability.md` for the counter registry and `docs/dse.md`
//! for the operational guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
pub mod pareto;
pub mod point;
pub mod report;
pub mod scheduler;
pub mod spec;
pub mod store;

pub use engine::{explore, resume, run, RoundTiming, RunOptions, RunOutcome, SolvedPoint};
pub use error::DseError;
pub use pareto::{pareto_front, Cliff};
pub use point::Point;
pub use scheduler::{LocalSolver, PointSolver};
pub use spec::{AxisSpec, ExperimentSpec, Strategy};
pub use store::{RunSpec, RunStore};

/// Telemetry names emitted by the exploration engine, kept in one
/// place so docs, tests and dashboards reference identical strings
/// (same policy as `ia_rank::telemetry::names`).
pub mod names {
    use crate::scheduler::ExecNames;

    /// The executor telemetry of a dse round.
    pub const EXEC: ExecNames = ExecNames {
        solved: POINTS_SOLVED,
        cached: POINTS_CACHED,
        skipped: POINTS_SKIPPED,
        point: SPAN_POINT,
        worker_prefix: WORKER_PREFIX,
    };
    /// Points solved fresh (cache miss → DP solve → store append).
    pub const POINTS_SOLVED: &str = "dse.points.solved";
    /// Points answered by the run store or solve cache.
    pub const POINTS_CACHED: &str = "dse.points.cached";
    /// Points left unsolved by a budget stop or cancellation.
    pub const POINTS_SKIPPED: &str = "dse.points.skipped";
    /// Refinement rounds executed by the adaptive strategy.
    pub const ROUNDS: &str = "dse.rounds";
    /// Span covering one fresh point solve.
    pub const SPAN_POINT: &str = "dse.point";
    /// Worker-thread name prefix registered with the merge sink.
    pub const WORKER_PREFIX: &str = "dse.worker.";
    /// Worker: point leases taken from the coordinator.
    pub const FLEET_CLAIMED: &str = "fleet.claimed";
    /// Coordinator: leases re-queued because they expired or their
    /// worker missed heartbeats — the dead-worker recovery counter.
    pub const FLEET_RECLAIMED: &str = "fleet.reclaimed";
    /// Worker: claim polls the coordinator answered with `idle`.
    pub const FLEET_IDLE_WAITS: &str = "fleet.idle_waits";
    /// Coordinator: register/heartbeat requests accepted.
    pub const FLEET_REGISTERED: &str = "fleet.registered";
    /// Coordinator: point leases handed to remote workers.
    pub const FLEET_DISPATCHED: &str = "fleet.dispatched";
    /// Coordinator: remote results accepted and matched to a lease.
    pub const FLEET_RESULTS: &str = "fleet.results";
    /// Worker: result-upload attempts retried after a transport error
    /// (capped exponential backoff; the first attempt is not counted).
    pub const FLEET_UPLOAD_RETRIES: &str = "fleet.upload_retries";
}
