//! Event-level tracing: bounded per-thread event buffers and the
//! Chrome trace-event exporter.
//!
//! Where the collector ([`crate::snapshot`]) aggregates — one number
//! per counter, one `(calls, total_ns)` per span path — the tracer
//! keeps *individual* timestamped events so a run can be opened in a
//! timeline viewer (`chrome://tracing` or <https://ui.perfetto.dev>).
//! Tracing sits behind its own relaxed [`AtomicBool`] flag
//! ([`set_trace_enabled`]), mirroring the collector's: with the flag
//! off every instrumentation call costs one extra relaxed load and a
//! branch.
//!
//! # Clock domain
//!
//! Event timestamps are nanoseconds of monotonic ([`Instant`]) time
//! since the process-wide **trace epoch** — the first moment tracing
//! was enabled (or the first event recorded, whichever comes first).
//! All threads share the epoch, so cross-thread ordering is meaningful.
//! The Chrome export divides down to the microseconds the trace-event
//! format mandates, keeping nanosecond resolution in the fraction.
//!
//! # Bounded buffers and drop semantics
//!
//! Each thread buffers span begin/end events and counter events in two
//! separate bounded `Vec`s (defaults: [`DEFAULT_SPAN_EVENT_CAPACITY`]
//! and [`DEFAULT_COUNTER_EVENT_CAPACITY`] per thread, tune with
//! [`set_trace_capacity`] *before* tracing starts). When a buffer is
//! full new events are **dropped, newest-first** and counted; the
//! counts surface in [`Trace::dropped_span_events`] /
//! [`Trace::dropped_counter_events`] and, when non-zero, as a metadata
//! record in the Chrome export. Keeping the chronological *prefix*
//! (rather than a wrap-around ring) guarantees a surviving span-end
//! always has its begin in the buffer, so a drained trace is always
//! well-formed — at worst it ends with unclosed begins.
//!
//! [`drain_trace`] moves the calling thread's buffered events (plus
//! anything merged from registered workers — see
//! [`crate::MergeSink`]) out as a [`Trace`], sorted deterministically
//! by `(timestamp, thread id)`. Drain at span-quiescent points (no
//! spans open), or the next drain may begin with orphaned end events.
//!
//! # Correlation context
//!
//! Each thread carries an ambient correlation context — a `u64` set
//! with [`push_context`] (RAII; the guard restores the previous value).
//! Every trace event captures the context at recording time, so a
//! server can stamp a request id on every span a request opens and a
//! DSE run can stamp its run id hash across scheduler workers. `0`
//! means "no context"; the Chrome export renders a non-zero context as
//! `args.request_id`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::collector::with_storage;
use crate::json::JsonValue;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Default per-thread capacity for span begin/end events.
pub const DEFAULT_SPAN_EVENT_CAPACITY: usize = 1 << 16;
/// Default per-thread capacity for counter events.
pub const DEFAULT_COUNTER_EVENT_CAPACITY: usize = 1 << 16;

static SPAN_EVENT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_SPAN_EVENT_CAPACITY);
static COUNTER_EVENT_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_COUNTER_EVENT_CAPACITY);

/// Whether event tracing is recording. A relaxed atomic load; every
/// instrumentation call checks this (after the collector flag).
#[inline]
#[must_use]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turns event tracing on or off process-wide. Off by default.
/// Enabling pins the trace epoch if it is not already set.
pub fn set_trace_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Sets the per-thread event-buffer capacities (span events, counter
/// events). Applies to events recorded *after* the call; change it
/// before enabling tracing, or mid-trace drop accounting will mix
/// regimes.
pub fn set_trace_capacity(span_events: usize, counter_events: usize) {
    SPAN_EVENT_CAPACITY.store(span_events, Ordering::Relaxed);
    COUNTER_EVENT_CAPACITY.store(counter_events, Ordering::Relaxed);
}

pub(crate) fn span_event_capacity() -> usize {
    SPAN_EVENT_CAPACITY.load(Ordering::Relaxed)
}

pub(crate) fn counter_event_capacity() -> usize {
    COUNTER_EVENT_CAPACITY.load(Ordering::Relaxed)
}

/// Nanoseconds of monotonic time since the trace epoch (pinned at
/// first use).
#[must_use]
pub(crate) fn now_ns() -> u64 {
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's ambient correlation context (`0` = none).
#[inline]
#[must_use]
pub fn current_context() -> u64 {
    CONTEXT.with(Cell::get)
}

/// Sets the calling thread's correlation context for the guard's
/// lifetime; the previous context is restored on drop, so scopes nest.
#[must_use = "the context lasts only while the guard is alive; bind it with `let _ctx = ...`"]
pub fn push_context(ctx: u64) -> ContextGuard {
    let prev = CONTEXT.with(|c| c.replace(ctx));
    ContextGuard { prev }
}

/// RAII handle returned by [`push_context`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Derives a correlation context from a string id (a DSE run id, a
/// cache key) as its 64-bit FNV-1a hash — deterministic, and non-zero
/// for every input including the empty string.
#[must_use]
pub fn context_for(id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// Renders a context as the 16-hex-digit form used in trace exports
/// and the `x-request-id` header.
#[must_use]
pub fn context_hex(ctx: u64) -> String {
    format!("{ctx:016x}")
}

/// What one trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEventKind {
    /// A span opened (Chrome `ph: "B"`).
    Begin(&'static str),
    /// A span closed (Chrome `ph: "E"`).
    End(&'static str),
    /// A counter was incremented (Chrome `ph: "C"`); the export
    /// accumulates deltas into running totals per counter name.
    Counter {
        /// The counter name.
        name: &'static str,
        /// The increment recorded by this event.
        delta: u64,
    },
}

/// One timestamped event on one thread's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch (see the module docs for the
    /// clock domain).
    pub ts_ns: u64,
    /// Registry-assigned thread track id (stable per thread for the
    /// process lifetime, starting at 1).
    pub tid: u64,
    /// Correlation context ambient on the recording thread (see
    /// [`push_context`]); `0` means none. The Chrome
    /// export surfaces a non-zero context as `args.request_id`.
    pub ctx: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A drained batch of trace events plus the thread-name registry and
/// drop accounting needed to render them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events sorted by `(ts_ns, tid)`; ties within one thread keep
    /// recording order (the sort is stable).
    pub events: Vec<TraceEvent>,
    /// Track names by thread id, for the Chrome `thread_name` metadata.
    pub thread_names: BTreeMap<u64, String>,
    /// Span events dropped because a per-thread buffer was full.
    pub dropped_span_events: u64,
    /// Counter events dropped because a per-thread buffer was full.
    pub dropped_counter_events: u64,
}

impl Trace {
    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges per-thread event streams into one deterministic
    /// timeline: a stable sort by `(ts_ns, tid)`, so each stream's
    /// internal order is preserved and cross-thread timestamp ties
    /// break by thread id.
    #[must_use]
    pub fn merge_streams(streams: Vec<Vec<TraceEvent>>) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = streams.into_iter().flatten().collect();
        all.sort_by_key(|e| (e.ts_ns, e.tid));
        all
    }

    /// Renders the trace in the Chrome trace-event JSON array format
    /// (loadable in `chrome://tracing` and Perfetto). Stable fields per
    /// event: `name`, `cat` (`span` | `counter`), `ph`
    /// (`B` | `E` | `C` | `M`), `ts` (microseconds since the trace
    /// epoch), `pid` (always 1), `tid`, and for counters
    /// `args.value` — the running total of that counter across all
    /// threads at that instant. Thread and process names are emitted
    /// as leading `M` (metadata) events; a trailing
    /// `trace_dropped_events` metadata record appears iff events were
    /// dropped.
    #[must_use]
    pub fn to_chrome_json(&self, process_name: &str) -> JsonValue {
        fn meta(name: &str, tid: u64, args: Vec<(String, JsonValue)>) -> JsonValue {
            JsonValue::Obj(vec![
                ("name".to_owned(), JsonValue::Str(name.to_owned())),
                ("ph".to_owned(), JsonValue::Str("M".to_owned())),
                ("pid".to_owned(), JsonValue::UInt(1)),
                ("tid".to_owned(), JsonValue::UInt(tid)),
                ("args".to_owned(), JsonValue::Obj(args)),
            ])
        }
        let mut out = Vec::with_capacity(self.events.len() + self.thread_names.len() + 2);
        out.push(meta(
            "process_name",
            0,
            vec![("name".to_owned(), JsonValue::Str(process_name.to_owned()))],
        ));
        for (tid, name) in &self.thread_names {
            out.push(meta(
                "thread_name",
                *tid,
                vec![("name".to_owned(), JsonValue::Str(name.clone()))],
            ));
        }
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for event in &self.events {
            let ts = JsonValue::Num(event.ts_ns as f64 / 1000.0);
            let (name, cat, ph, args) = match event.kind {
                TraceEventKind::Begin(name) => (name, "span", "B", None),
                TraceEventKind::End(name) => (name, "span", "E", None),
                TraceEventKind::Counter { name, delta } => {
                    let total = totals.entry(name).or_insert(0);
                    *total = total.saturating_add(delta);
                    (name, "counter", "C", Some(*total))
                }
            };
            let mut obj = vec![
                ("name".to_owned(), JsonValue::Str(name.to_owned())),
                ("cat".to_owned(), JsonValue::Str(cat.to_owned())),
                ("ph".to_owned(), JsonValue::Str(ph.to_owned())),
                ("ts".to_owned(), ts),
                ("pid".to_owned(), JsonValue::UInt(1)),
                ("tid".to_owned(), JsonValue::UInt(event.tid)),
            ];
            let mut arg_fields = Vec::new();
            if let Some(total) = args {
                arg_fields.push(("value".to_owned(), JsonValue::UInt(total)));
            }
            if event.ctx != 0 {
                arg_fields.push((
                    "request_id".to_owned(),
                    JsonValue::Str(context_hex(event.ctx)),
                ));
            }
            if !arg_fields.is_empty() {
                obj.push(("args".to_owned(), JsonValue::Obj(arg_fields)));
            }
            out.push(JsonValue::Obj(obj));
        }
        if self.dropped_span_events > 0 || self.dropped_counter_events > 0 {
            out.push(meta(
                "trace_dropped_events",
                0,
                vec![
                    (
                        "span_events".to_owned(),
                        JsonValue::UInt(self.dropped_span_events),
                    ),
                    (
                        "counter_events".to_owned(),
                        JsonValue::UInt(self.dropped_counter_events),
                    ),
                ],
            ));
        }
        JsonValue::Arr(out)
    }

    /// [`to_chrome_json`](Self::to_chrome_json) rendered as one
    /// compact line.
    #[must_use]
    pub fn to_chrome_json_string(&self, process_name: &str) -> String {
        self.to_chrome_json(process_name).render()
    }
}

/// Moves the calling thread's buffered events out as a [`Trace`] —
/// including anything merged from worker threads via
/// [`MergeSink::collect`](crate::MergeSink::collect) — and clears the
/// buffers (drop counts included). Aggregated counters, spans and
/// histograms are untouched; [`crate::reset`] clears those.
///
/// Call at a span-quiescent point (no spans open on this thread), or
/// the next drain will start with orphaned end events.
#[must_use]
pub fn drain_trace() -> Trace {
    with_storage(|s| {
        let span_events = std::mem::take(&mut s.span_events);
        let counter_events = std::mem::take(&mut s.counter_events);
        let trace = Trace {
            events: Trace::merge_streams(vec![span_events, counter_events]),
            thread_names: std::mem::take(&mut s.thread_names),
            dropped_span_events: s.dropped_span_events,
            dropped_counter_events: s.dropped_counter_events,
        };
        s.dropped_span_events = 0;
        s.dropped_counter_events = 0;
        s.merged_span_events = 0;
        s.merged_counter_events = 0;
        trace
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, tid: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            ts_ns,
            tid,
            ctx: 0,
            kind,
        }
    }

    #[test]
    fn context_guard_nests_and_restores() {
        assert_eq!(current_context(), 0);
        {
            let _outer = push_context(7);
            assert_eq!(current_context(), 7);
            {
                let _inner = push_context(9);
                assert_eq!(current_context(), 9);
            }
            assert_eq!(current_context(), 7);
        }
        assert_eq!(current_context(), 0);
    }

    #[test]
    fn context_for_is_deterministic_and_nonzero() {
        assert_eq!(context_for("run-1"), context_for("run-1"));
        assert_ne!(context_for("run-1"), context_for("run-2"));
        assert_ne!(context_for(""), 0);
    }

    #[test]
    fn chrome_export_carries_request_id_for_contextful_events() {
        let trace = Trace {
            events: vec![TraceEvent {
                ts_ns: 1000,
                tid: 1,
                ctx: 0xbeef,
                kind: TraceEventKind::Begin("serve.request"),
            }],
            thread_names: BTreeMap::from([(1, "w".to_owned())]),
            ..Trace::default()
        };
        let doc = trace.to_chrome_json("t");
        let event = &doc.as_array().unwrap()[2];
        assert_eq!(
            event
                .get("args")
                .and_then(|a| a.get("request_id"))
                .and_then(JsonValue::as_str),
            Some("000000000000beef")
        );
    }

    #[test]
    fn merge_is_deterministic_and_ordered() {
        let a = vec![
            ev(10, 1, TraceEventKind::Begin("x")),
            ev(30, 1, TraceEventKind::End("x")),
        ];
        let b = vec![
            ev(10, 2, TraceEventKind::Begin("y")),
            ev(20, 2, TraceEventKind::End("y")),
        ];
        let first = Trace::merge_streams(vec![a.clone(), b.clone()]);
        let second = Trace::merge_streams(vec![a, b]);
        assert_eq!(first, second, "same inputs merge identically");
        let keys: Vec<(u64, u64)> = first.iter().map(|e| (e.ts_ns, e.tid)).collect();
        assert_eq!(keys, vec![(10, 1), (10, 2), (20, 2), (30, 1)]);
    }

    #[test]
    fn merge_preserves_per_thread_order_on_timestamp_ties() {
        let same_ts = vec![
            ev(5, 1, TraceEventKind::Begin("outer")),
            ev(5, 1, TraceEventKind::Begin("inner")),
            ev(5, 1, TraceEventKind::End("inner")),
            ev(5, 1, TraceEventKind::End("outer")),
        ];
        let merged = Trace::merge_streams(vec![same_ts.clone()]);
        assert_eq!(merged, same_ts, "stable sort keeps recording order");
    }

    #[test]
    fn chrome_export_accumulates_counter_totals() {
        let trace = Trace {
            events: vec![
                ev(
                    1000,
                    1,
                    TraceEventKind::Counter {
                        name: "dp.states",
                        delta: 3,
                    },
                ),
                ev(
                    2000,
                    2,
                    TraceEventKind::Counter {
                        name: "dp.states",
                        delta: 4,
                    },
                ),
            ],
            thread_names: BTreeMap::from([(1, "main".to_owned()), (2, "w".to_owned())]),
            dropped_span_events: 0,
            dropped_counter_events: 0,
        };
        let doc = trace.to_chrome_json("test");
        let events = doc.as_array().unwrap();
        // process_name + 2 thread_name + 2 counter events.
        assert_eq!(events.len(), 5);
        let first = &events[3];
        assert_eq!(first.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            first.get("args").unwrap().get("value").unwrap().as_u64(),
            Some(3)
        );
        let second = &events[4];
        assert_eq!(
            second.get("args").unwrap().get("value").unwrap().as_u64(),
            Some(7),
            "running total accumulates across threads"
        );
        assert_eq!(second.get("tid").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn chrome_export_reports_drops_in_metadata() {
        let trace = Trace {
            events: vec![],
            thread_names: BTreeMap::new(),
            dropped_span_events: 2,
            dropped_counter_events: 9,
        };
        let doc = trace.to_chrome_json("test");
        let events = doc.as_array().unwrap();
        let last = events.last().unwrap();
        assert_eq!(
            last.get("name").unwrap().as_str(),
            Some("trace_dropped_events")
        );
        let args = last.get("args").unwrap();
        assert_eq!(args.get("span_events").unwrap().as_u64(), Some(2));
        assert_eq!(args.get("counter_events").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn chrome_export_ts_is_microseconds() {
        let trace = Trace {
            events: vec![ev(1500, 1, TraceEventKind::Begin("x"))],
            thread_names: BTreeMap::from([(1, "main".to_owned())]),
            ..Trace::default()
        };
        let doc = trace.to_chrome_json("t");
        let event = &doc.as_array().unwrap()[2];
        assert_eq!(event.get("ts").unwrap().as_f64(), Some(1.5));
    }
}
