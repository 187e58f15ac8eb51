//! # ia-obs
//!
//! Zero-dependency (std-only) instrumentation for the
//! interconnect-rank workspace: a global collector behind a cheap
//! enabled flag, RAII [`Span`] timers with parent nesting, monotonic
//! counters, fixed log-scale histograms, and text/JSON exporters with
//! stable field names.
//!
//! The rank solver's practical cost is governed by quantities the code
//! alone cannot reveal — DP states explored, Pareto-front sizes, prune
//! rates. This crate makes them measurable without making the solver
//! slower when nobody is looking: with the collector disabled (the
//! default) every instrumentation call is a relaxed atomic load and a
//! branch.
//!
//! ```
//! ia_obs::set_enabled(true);
//! ia_obs::reset();
//! {
//!     let _solve = ia_obs::span("dp.solve");
//!     ia_obs::counter_add("dp.states", 128);
//!     ia_obs::counter_max("dp.front_max", 7);
//!     ia_obs::histogram_record("dp.front_len", 7);
//! }
//! let snap = ia_obs::snapshot();
//! assert_eq!(snap.counter("dp.states"), Some(128));
//! println!("{}", snap.to_json_string());
//! # ia_obs::set_enabled(false);
//! ```
//!
//! The collector is logically global, physically thread-local: see
//! [`collector`](self::set_enabled) and `docs/observability.md` for
//! the model and the counter-name stability policy. Worker-thread
//! telemetry is merged explicitly through a [`MergeSink`] at
//! collection points.
//!
//! Beyond aggregates, the crate records *event-level traces* behind a
//! second flag ([`set_trace_enabled`]): bounded per-thread buffers of
//! timestamped span begin/end and counter events, drained with
//! [`drain_trace`] and exported in the Chrome trace-event format
//! ([`Trace::to_chrome_json`]) for `chrome://tracing` / Perfetto.
//!
//! Trace events carry the thread's ambient correlation context
//! ([`push_context`]), so a request id or a run id follows every span
//! a request or a run opens, across worker threads.
//!
//! Two more views of the same records:
//!
//! - [`prometheus`] — the Prometheus text exposition (0.0.4) view of a
//!   [`Snapshot`];
//! - [`prof`] — deterministic hierarchical call-tree profiles
//!   aggregated from span snapshots, exported as the exact-`u64`
//!   `ia-prof-v1` JSON tree or folded-stack flamegraph text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod export;
mod histogram;
pub mod json;
pub mod prof;
pub mod prometheus;
mod span;
mod stopwatch;
mod trace;

pub use collector::{
    counter_add, counter_max, enabled, histogram_record, reset, set_enabled, snapshot, Collector,
    MergeSink, WorkerGuard,
};
pub use export::{HistogramStat, Snapshot, SpanStat};
pub use histogram::{bucket_index, bucket_upper_bound, BUCKETS};
pub use prof::{Profile, ProfileNode};
pub use span::{span, Span};
pub use stopwatch::Stopwatch;
pub use trace::{
    context_for, context_hex, current_context, drain_trace, push_context, set_trace_capacity,
    set_trace_enabled, trace_enabled, ContextGuard, Trace, TraceEvent, TraceEventKind,
    DEFAULT_COUNTER_EVENT_CAPACITY, DEFAULT_SPAN_EVENT_CAPACITY,
};
