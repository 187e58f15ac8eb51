//! The global collector: one process-wide enabled flag, the recording
//! primitives behind it, and the [`MergeSink`] cross-thread merge.
//!
//! # Collector model
//!
//! The collector is *logically global, physically thread-local*: one
//! [`AtomicBool`] gates every recording call, while the recorded data
//! lives in thread-local storage. This keeps the hot path free of
//! locks (the DP inner loop records a counter per state) and makes
//! telemetry deterministic under `cargo test`'s parallel runner — a
//! test only ever observes its own thread's recordings.
//!
//! Work on worker threads does not leak into the caller's snapshot by
//! accident; it is merged *explicitly* at collection points. The
//! caller creates a [`MergeSink`], each worker registers via
//! [`MergeSink::register_worker`] (the returned guard flushes the
//! worker's recordings — counters, spans, histograms and trace events
//! — into the sink when dropped), and after joining the workers the
//! caller calls [`MergeSink::collect`] to fold everything into its own
//! thread-local storage. From then on the ordinary [`snapshot`] and
//! [`crate::drain_trace`] see the workers' data. The point executor
//! in `ia-dse` (`ia_dse::scheduler::execute`), which runs every
//! parallel sweep and dse or corpus round, does exactly this.
//!
//! When the flag is off (the default) every recording call is a
//! relaxed atomic load and a branch — cheap enough to leave in release
//! builds of the solver's innermost loops. Event tracing sits behind a
//! second independent flag (see [`crate::set_trace_enabled`]); each
//! recording call checks both.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::export::{HistogramStat, Snapshot, SpanStat};
use crate::histogram::{bucket_upper_bound, Histogram};
use crate::log::{current_context, log_capacity, LogBatch, LogRecord};
use crate::trace::{
    counter_event_capacity, now_ns, span_event_capacity, trace_enabled, TraceEvent, TraceEventKind,
};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Thread track ids handed out lazily, starting at 1 (0 is reserved
/// for process-scope metadata in the Chrome export).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Per-thread recording storage.
#[derive(Default)]
pub(crate) struct Storage {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    /// Names recorded via [`counter_max`]; the cross-thread merge
    /// combines these by `max` instead of `+`.
    pub(crate) maxima: BTreeSet<&'static str>,
    pub(crate) spans: BTreeMap<String, SpanStat>,
    pub(crate) histograms: BTreeMap<&'static str, Histogram>,
    /// Stack of open span names on this thread; joined with `/` to
    /// form the aggregation path.
    pub(crate) stack: Vec<&'static str>,
    /// Bounded buffer of span begin/end trace events.
    pub(crate) span_events: Vec<TraceEvent>,
    /// Bounded buffer of counter trace events.
    pub(crate) counter_events: Vec<TraceEvent>,
    pub(crate) dropped_span_events: u64,
    pub(crate) dropped_counter_events: u64,
    /// How many of `span_events` arrived via [`merge_from`] rather
    /// than local recording. Merged events were already admitted by
    /// their own thread's bound, so they must not consume this
    /// thread's recording capacity — otherwise a large collect would
    /// starve the caller's still-open spans of their end events.
    pub(crate) merged_span_events: usize,
    /// Counter-event counterpart of `merged_span_events`.
    pub(crate) merged_counter_events: usize,
    /// Bounded buffer of structured log records (see [`crate::log`]).
    pub(crate) log_records: Vec<LogRecord>,
    pub(crate) dropped_log_records: u64,
    /// Log-record counterpart of `merged_span_events`.
    pub(crate) merged_log_records: usize,
    /// This thread's track id, assigned on first trace event or worker
    /// registration and stable for the thread's lifetime.
    pub(crate) tid: Option<u64>,
    /// Track names by tid — this thread's own plus any merged in.
    pub(crate) thread_names: BTreeMap<u64, String>,
}

impl Storage {
    /// Returns this thread's track id, assigning one (and a default
    /// track name) on first use.
    pub(crate) fn ensure_tid(&mut self) -> u64 {
        let tid = match self.tid {
            Some(tid) => tid,
            None => {
                let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
                self.tid = Some(tid);
                tid
            }
        };
        // Re-establish the track name if a drain cleared it.
        self.thread_names.entry(tid).or_insert_with(|| {
            std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned)
        });
        tid
    }

    /// Appends a span begin/end event, dropping (newest-first) when
    /// the buffer is at capacity.
    pub(crate) fn push_span_event(&mut self, ts_ns: u64, kind: TraceEventKind) {
        let tid = self.ensure_tid();
        let recorded = self
            .span_events
            .len()
            .saturating_sub(self.merged_span_events);
        if recorded < span_event_capacity() {
            self.span_events.push(TraceEvent {
                ts_ns,
                tid,
                ctx: current_context(),
                kind,
            });
        } else {
            self.dropped_span_events += 1;
        }
    }

    /// Appends a structured log record, dropping (newest-first) when
    /// the buffer is at capacity.
    pub(crate) fn push_log_record(&mut self, record: LogRecord) {
        let recorded = self
            .log_records
            .len()
            .saturating_sub(self.merged_log_records);
        if recorded < log_capacity() {
            self.log_records.push(record);
        } else {
            self.dropped_log_records += 1;
        }
    }

    /// Appends a counter event, dropping (newest-first) when the
    /// buffer is at capacity.
    pub(crate) fn push_counter_event(&mut self, ts_ns: u64, name: &'static str, delta: u64) {
        let tid = self.ensure_tid();
        let recorded = self
            .counter_events
            .len()
            .saturating_sub(self.merged_counter_events);
        if recorded < counter_event_capacity() {
            self.counter_events.push(TraceEvent {
                ts_ns,
                tid,
                ctx: current_context(),
                kind: TraceEventKind::Counter { name, delta },
            });
        } else {
            self.dropped_counter_events += 1;
        }
    }

    /// Folds another storage (a flushed worker, or the sink's pending
    /// pile) into this one. Counters add — except names either side
    /// recorded as high-water marks, which combine by `max`. Span
    /// stats add, histograms merge, trace events append (the per-thread
    /// buffer bound is not re-applied to already-recorded events), and
    /// drop counts add.
    pub(crate) fn merge_from(&mut self, other: Storage) {
        for (name, value) in other.counters {
            let slot = self.counters.entry(name).or_insert(0);
            if self.maxima.contains(name) || other.maxima.contains(name) {
                *slot = (*slot).max(value);
            } else {
                *slot = slot.saturating_add(value);
            }
        }
        self.maxima.extend(other.maxima);
        for (path, stat) in other.spans {
            self.spans.entry(path).or_default().merge(&stat);
        }
        for (name, hist) in other.histograms {
            self.histograms.entry(name).or_default().merge(&hist);
        }
        self.merged_span_events += other.span_events.len();
        self.merged_counter_events += other.counter_events.len();
        self.span_events.extend(other.span_events);
        self.counter_events.extend(other.counter_events);
        self.dropped_span_events += other.dropped_span_events;
        self.dropped_counter_events += other.dropped_counter_events;
        self.merged_log_records += other.log_records.len();
        self.log_records.extend(other.log_records);
        self.dropped_log_records += other.dropped_log_records;
        self.thread_names.extend(other.thread_names);
    }
}

thread_local! {
    static STORAGE: RefCell<Storage> = RefCell::new(Storage::default());
}

pub(crate) fn with_storage<R>(f: impl FnOnce(&mut Storage) -> R) -> R {
    STORAGE.with(|s| f(&mut s.borrow_mut()))
}

/// Whether the collector is recording. A relaxed atomic load; every
/// instrumentation call starts with this check.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Adds `delta` to the monotonic counter `name` (saturating). With
/// tracing enabled the increment is also recorded as a timestamped
/// counter event.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    let aggregate = enabled();
    let trace = trace_enabled();
    if !aggregate && !trace {
        return;
    }
    let ts = if trace { Some(now_ns()) } else { None };
    with_storage(|s| {
        if aggregate {
            let slot = s.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(delta);
        }
        if let Some(ts_ns) = ts {
            s.push_counter_event(ts_ns, name, delta);
        }
    });
}

/// Raises the high-water-mark counter `name` to at least `value`.
/// High-water marks merge across threads by `max`, not `+`, and do not
/// emit trace events (a running maximum has no meaningful timeline
/// delta).
#[inline]
pub fn counter_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_storage(|s| {
        s.maxima.insert(name);
        let slot = s.counters.entry(name).or_insert(0);
        *slot = (*slot).max(value);
    });
}

/// Records `value` into the log-scale histogram `name`.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_storage(|s| s.histograms.entry(name).or_default().record(value));
}

/// Clears this thread's recorded counters, spans, histograms and
/// buffered trace events. The enabled flags and this thread's track id
/// are left untouched.
pub fn reset() {
    with_storage(|s| {
        let tid = s.tid;
        *s = Storage::default();
        s.tid = tid;
    });
}

/// Copies a storage's aggregated data out as an immutable [`Snapshot`]
/// (shared by [`snapshot`] and [`MergeSink::peek_snapshot`]).
fn storage_snapshot(s: &Storage) -> Snapshot {
    let counters = s
        .counters
        .iter()
        .map(|(k, v)| ((*k).to_string(), *v))
        .collect();
    let spans = s
        .spans
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let histograms = s
        .histograms
        .iter()
        .map(|(k, h)| {
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, count)| **count > 0)
                .map(|(i, count)| (bucket_upper_bound(i), *count))
                .collect();
            (
                (*k).to_string(),
                HistogramStat {
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets,
                },
            )
        })
        .collect();
    Snapshot {
        counters,
        spans,
        histograms,
    }
}

/// Copies this thread's recorded data out as an immutable [`Snapshot`].
/// Includes worker-thread data previously folded in via
/// [`MergeSink::collect`].
#[must_use]
pub fn snapshot() -> Snapshot {
    with_storage(|s| storage_snapshot(s))
}

/// A collection point for worker-thread telemetry.
///
/// Cheap to clone (an `Arc` around a mutex-guarded pending pile).
/// Workers call [`register_worker`](Self::register_worker) and let the
/// guard flush their recordings on drop; the owning thread calls
/// [`collect`](Self::collect) after joining them. The mutex is touched
/// only at registration and flush — never on the recording hot path.
///
/// ```
/// let sink = ia_obs::MergeSink::new();
/// ia_obs::set_enabled(true);
/// std::thread::scope(|scope| {
///     scope.spawn(|| {
///         let _worker = sink.register_worker("worker-0");
///         ia_obs::counter_add("dp.states", 7);
///     });
/// });
/// sink.collect();
/// // The caller's snapshot now includes the worker's counters.
/// # ia_obs::set_enabled(false);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MergeSink {
    pending: Arc<Mutex<Storage>>,
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Storage")
            .field("counters", &self.counters.len())
            .field("spans", &self.spans.len())
            .field("span_events", &self.span_events.len())
            .field("counter_events", &self.counter_events.len())
            .finish_non_exhaustive()
    }
}

impl MergeSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        MergeSink::default()
    }

    /// Registers the calling thread as a worker named `name` (the name
    /// labels the thread's track in trace exports). The returned guard
    /// flushes the thread's recorded data into the sink when dropped —
    /// keep it alive for the worker's whole body.
    #[must_use = "the guard flushes the worker's telemetry on drop; bind it with `let _worker = ...`"]
    pub fn register_worker(&self, name: &str) -> WorkerGuard {
        let worker_name = with_storage(|s| {
            let tid = s.ensure_tid();
            s.thread_names.insert(tid, name.to_owned());
            name.to_owned()
        });
        WorkerGuard {
            sink: self.clone(),
            name: worker_name,
        }
    }

    /// Folds everything flushed to the sink into the calling thread's
    /// storage, so subsequent [`snapshot`] / [`crate::drain_trace`]
    /// calls include it. Call after joining the workers; calling it
    /// again is a no-op until more workers flush.
    pub fn collect(&self) {
        let pending = {
            let mut guard = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        with_storage(|s| s.merge_from(pending));
    }

    /// Flushes the calling thread's recorded data into the sink *now*,
    /// without waiting for a [`WorkerGuard`] drop. The thread's track id
    /// (and its track name, if any) stay local so it can keep recording.
    ///
    /// This is the heartbeat primitive for long-running worker threads —
    /// a server worker flushes after each request so the sink's
    /// [`peek_snapshot`](Self::peek_snapshot) stays current while the
    /// worker lives.
    pub fn flush_thread(&self) {
        let flushed = with_storage(|s| {
            let tid = s.tid;
            let name = tid.and_then(|t| s.thread_names.get(&t).cloned());
            let mut taken = std::mem::take(s);
            taken.tid = tid;
            s.tid = tid;
            if let (Some(tid), Some(name)) = (tid, name) {
                s.thread_names.insert(tid, name);
            }
            taken
        });
        let mut guard = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        guard.merge_from(flushed);
    }

    /// Copies the sink's pending pile out as a [`Snapshot`] without
    /// consuming it (unlike [`collect`](Self::collect)). Lets a
    /// long-running process export cumulative metrics repeatedly while
    /// its workers are still registered and flushing.
    #[must_use]
    pub fn peek_snapshot(&self) -> Snapshot {
        let guard = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        storage_snapshot(&guard)
    }

    /// Moves the log records out of the sink's pending pile as a
    /// [`LogBatch`] (sorted by `(ts_ns, tid)`), leaving counters,
    /// spans, histograms and trace events in place. This is the log
    /// counterpart of [`peek_snapshot`](Self::peek_snapshot) for a
    /// long-running process: a ticker thread drains the records that
    /// flushing workers have piled up without disturbing cumulative
    /// metrics.
    #[must_use]
    pub fn drain_pending_logs(&self) -> LogBatch {
        let mut guard = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let mut records = std::mem::take(&mut guard.log_records);
        let dropped = guard.dropped_log_records;
        guard.dropped_log_records = 0;
        guard.merged_log_records = 0;
        drop(guard);
        records.sort_by_key(|r| (r.ts_ns, r.tid));
        LogBatch { records, dropped }
    }
}

/// RAII registration handle returned by [`MergeSink::register_worker`].
#[derive(Debug)]
pub struct WorkerGuard {
    sink: MergeSink,
    name: String,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        self.sink.flush_thread();
        // Keep the thread's registered identity local too, in case it
        // records again after the flush (flush_thread only preserves a
        // name that was still present, which a reset may have cleared).
        with_storage(|s| {
            if let Some(tid) = s.tid {
                s.thread_names.insert(tid, self.name.clone());
            }
        });
    }
}

/// Handle to the process-global collector, for callers that prefer a
/// namespaced API over the free functions.
#[derive(Debug, Clone, Copy)]
pub struct Collector;

impl Collector {
    /// Starts recording ([`set_enabled`]`(true)`).
    pub fn enable() {
        set_enabled(true);
    }

    /// Stops recording ([`set_enabled`]`(false)`).
    pub fn disable() {
        set_enabled(false);
    }

    /// Whether the collector is recording ([`enabled`]).
    #[must_use]
    pub fn is_enabled() -> bool {
        enabled()
    }

    /// Clears this thread's recorded data ([`reset`]).
    pub fn reset() {
        reset();
    }

    /// Copies this thread's recorded data out ([`snapshot`]).
    #[must_use]
    pub fn snapshot() -> Snapshot {
        snapshot()
    }
}
