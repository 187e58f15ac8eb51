//! RAII span timers with parent nesting and optional event tracing.

use std::time::Instant;

use crate::collector::{enabled, with_storage};
use crate::trace::{now_ns, trace_enabled, TraceEventKind};

/// A running span timer. Created by [`span`]; records its elapsed time
/// into the collector (and begin/end events into the trace buffer)
/// when dropped. When both the collector and tracing are disabled at
/// creation, the span is inert and drop does nothing.
#[derive(Debug)]
pub struct Span {
    /// Creation instant; `None` for an inert span.
    start: Option<Instant>,
    /// `/`-joined aggregation path; `Some` when the collector was
    /// enabled at creation.
    path: Option<String>,
    /// Span name for the end event; `Some` when tracing was enabled at
    /// creation. The end event is emitted even if tracing is turned
    /// off mid-span, keeping begin/end pairs balanced.
    trace_name: Option<&'static str>,
}

/// Opens a span named `name`, nested under any span currently open on
/// this thread. Spans aggregate by their `/`-joined path: two calls to
/// `span("reconstruct")` inside `span("dp.solve")` both accumulate
/// into `dp.solve/reconstruct` (`calls`, `total_ns` and the per-call
/// `min_ns`/`max_ns` extremes). With tracing
/// enabled (see [`crate::set_trace_enabled`]) the span additionally
/// records timestamped begin/end events on this thread's trace track.
///
/// Bind the result — `let _span = ia_obs::span("dp.solve");` — so it
/// lives until the end of the scope being timed.
#[must_use = "a span records on drop; bind it with `let _span = ...`"]
pub fn span(name: &'static str) -> Span {
    let aggregate = enabled();
    let trace = trace_enabled();
    if !aggregate && !trace {
        return Span {
            start: None,
            path: None,
            trace_name: None,
        };
    }
    let begin_ts = if trace { Some(now_ns()) } else { None };
    let path = with_storage(|s| {
        if let Some(ts_ns) = begin_ts {
            s.push_span_event(ts_ns, TraceEventKind::Begin(name));
        }
        aggregate.then(|| {
            s.stack.push(name);
            s.stack.join("/")
        })
    });
    Span {
        start: Some(Instant::now()),
        path,
        trace_name: trace.then_some(name),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let end = self.trace_name.take().map(|name| (now_ns(), name));
        let path = self.path.take();
        with_storage(|s| {
            if let Some(path) = path {
                s.stack.pop();
                s.spans.entry(path).or_default().record(ns);
            }
            if let Some((ts_ns, name)) = end {
                s.push_span_event(ts_ns, TraceEventKind::End(name));
            }
        });
    }
}
