//! # ia-serve
//!
//! Rank-as-a-service: a std-only HTTP/1.1 layer over the `ia-rank`
//! solver, reproducing the paper's workflows (*A Novel Metric for
//! Interconnect Architecture Performance*, DATE 2003) as network
//! endpoints.
//!
//! The server (see [`Server`]) exposes:
//!
//! * `POST /solve` — rank one fully-bound configuration;
//! * `POST /sweep` — Table 4 knob sweeps, run on `ia-dse`'s bounded
//!   point executor with up to `--workers` solves at once;
//! * `POST /sensitivity` — knob elasticities at an operating point,
//!   its nine points run on the same executor with one worker;
//! * `GET /healthz` — liveness plus queue/cache occupancy, and in
//!   fleet mode the fleet's worker, queue and lease occupancy;
//! * `GET /metrics` — the merged `ia-obs` telemetry snapshot, as JSON
//!   or as Prometheus text (a window is the difference of two
//!   scrapes);
//! * `POST /fleet/register|claim|result` — the distributed-dse worker
//!   protocol (fleet mode; see [`fleet`]), the workspace's one way to
//!   spread a run over several processes or machines;
//! * `POST /shutdown` — graceful drain-then-exit.
//!
//! At its heart sits [`SolveCache`]: a sharded LRU keyed by a
//! canonical content address of the fully-bound inputs
//! (`ia_rank::canon::BoundConfig::cache_key`, the same addresses the
//! dse and corpus run stores use), with single-flight deduplication
//! so a burst of
//! identical requests performs exactly one dynamic-programming solve.
//! The same cache backs `/sweep` points and `POST /dse` jobs through
//! `ia-rank`'s `PointCache` trait, so `/solve`, `/sweep` and dse runs
//! warm each other.
//!
//! Everything is plain `std`: `TcpListener`, a fixed worker pool, a
//! bounded accept queue shedding load with `429`, and per-request
//! deadlines measured from accept time. See `docs/serving.md` for the
//! operational guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod fleet;
pub mod http;
pub mod server;

pub use api::{SensitivityRequest, SolveRequest, SweepRequest};
pub use cache::{CacheOutcome, SolveCache};
pub use fleet::{FleetDispatcher, FleetState, WorkerOptions, WorkerOutcome, WorkerStop};
pub use server::{Server, ServerConfig};
