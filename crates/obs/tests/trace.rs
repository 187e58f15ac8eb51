//! End-to-end tests of event tracing and the cross-thread merge:
//! balanced begin/end events, bounded-buffer drops, `MergeSink`
//! semantics, deterministic ordering under concurrent writers, and the
//! Chrome export of a real recording.
//!
//! The trace flag and buffer capacities are process-global while the
//! event buffers are thread-local, so — as in `tests/collector.rs` —
//! every test here serializes on [`flag_lock`] and restores the flags
//! and default capacities before releasing it.

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use ia_obs::{json::JsonValue, TraceEventKind};

static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn flag_lock() -> MutexGuard<'static, ()> {
    FLAG_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores global trace state on drop so a failing assertion cannot
/// poison the other tests' environment.
struct TraceGuard {
    _lock: MutexGuard<'static, ()>,
}

fn trace_guard() -> TraceGuard {
    let guard = TraceGuard { _lock: flag_lock() };
    ia_obs::set_enabled(false);
    ia_obs::set_trace_enabled(false);
    ia_obs::set_trace_capacity(
        ia_obs::DEFAULT_SPAN_EVENT_CAPACITY,
        ia_obs::DEFAULT_COUNTER_EVENT_CAPACITY,
    );
    ia_obs::reset();
    let _ = ia_obs::drain_trace();
    guard
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ia_obs::set_enabled(false);
        ia_obs::set_trace_enabled(false);
        ia_obs::set_trace_capacity(
            ia_obs::DEFAULT_SPAN_EVENT_CAPACITY,
            ia_obs::DEFAULT_COUNTER_EVENT_CAPACITY,
        );
        ia_obs::reset();
        let _ = ia_obs::drain_trace();
    }
}

#[test]
fn tracing_disabled_records_no_events() {
    let _guard = trace_guard();
    {
        let _span = ia_obs::span("quiet");
        ia_obs::counter_add("quiet.counter", 1);
    }
    let trace = ia_obs::drain_trace();
    assert!(trace.is_empty(), "no flag, no events: {trace:?}");
}

#[test]
fn spans_emit_balanced_begin_end_events() {
    let _guard = trace_guard();
    ia_obs::set_trace_enabled(true);
    {
        let _outer = ia_obs::span("outer");
        let _inner = ia_obs::span("inner");
    }
    ia_obs::counter_add("t.counter", 5);
    let trace = ia_obs::drain_trace();
    let kinds: Vec<_> = trace.events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            TraceEventKind::Begin("outer"),
            TraceEventKind::Begin("inner"),
            TraceEventKind::End("inner"),
            TraceEventKind::End("outer"),
            TraceEventKind::Counter {
                name: "t.counter",
                delta: 5
            },
        ]
    );
    let tids: BTreeSet<u64> = trace.events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 1, "single-thread trace has one track");
    assert!(trace.thread_names.keys().eq(tids.iter()));
    // Timestamps are monotone within the thread.
    let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ns).collect();
    let mut sorted = ts.clone();
    sorted.sort_unstable();
    assert_eq!(ts, sorted);
}

#[test]
fn tracing_works_without_the_collector_flag() {
    let _guard = trace_guard();
    ia_obs::set_trace_enabled(true);
    {
        let _span = ia_obs::span("trace_only");
        ia_obs::counter_add("trace_only.counter", 2);
    }
    assert!(
        ia_obs::snapshot().is_empty(),
        "aggregation stays off without the collector flag"
    );
    let trace = ia_obs::drain_trace();
    assert_eq!(trace.len(), 3, "B + E + counter event: {trace:?}");
}

#[test]
fn drain_clears_the_buffers() {
    let _guard = trace_guard();
    ia_obs::set_trace_enabled(true);
    {
        let _span = ia_obs::span("once");
    }
    assert_eq!(ia_obs::drain_trace().len(), 2);
    assert!(ia_obs::drain_trace().is_empty(), "second drain is empty");
}

#[test]
fn full_buffers_drop_newest_and_count_drops() {
    let _guard = trace_guard();
    ia_obs::set_trace_capacity(4, 2);
    ia_obs::set_trace_enabled(true);
    for _ in 0..5 {
        let _span = ia_obs::span("s");
    }
    for _ in 0..5 {
        ia_obs::counter_add("c", 1);
    }
    let trace = ia_obs::drain_trace();
    assert_eq!(trace.dropped_span_events, 6, "10 span events into cap 4");
    assert_eq!(
        trace.dropped_counter_events, 3,
        "5 counter events into cap 2"
    );
    // The chronological prefix survives, so pairs stay balanced.
    let kinds: Vec<_> = trace
        .events
        .iter()
        .filter(|e| !matches!(e.kind, TraceEventKind::Counter { .. }))
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds,
        vec![
            TraceEventKind::Begin("s"),
            TraceEventKind::End("s"),
            TraceEventKind::Begin("s"),
            TraceEventKind::End("s"),
        ]
    );
    // Drop accounting resets with the drain.
    assert_eq!(ia_obs::drain_trace().dropped_span_events, 0);
}

#[test]
fn merge_sink_folds_worker_counters_spans_and_histograms() {
    let _guard = trace_guard();
    ia_obs::set_enabled(true);
    ia_obs::counter_add("m.states", 10);
    ia_obs::counter_max("m.front_max", 4);
    ia_obs::histogram_record("m.front_len", 2);
    let sink = ia_obs::MergeSink::new();
    std::thread::scope(|scope| {
        for worker in 0..3u64 {
            let sink = &sink;
            scope.spawn(move || {
                let _worker = sink.register_worker(&format!("worker-{worker}"));
                let _span = ia_obs::span("work");
                ia_obs::counter_add("m.states", 7);
                ia_obs::counter_max("m.front_max", 3 + worker);
                ia_obs::histogram_record("m.front_len", 8);
            });
        }
    });
    sink.collect();
    let snap = ia_obs::snapshot();
    assert_eq!(
        snap.counter("m.states"),
        Some(10 + 3 * 7),
        "adds merge by +"
    );
    assert_eq!(
        snap.counter("m.front_max"),
        Some(5),
        "high-water marks merge by max, not +"
    );
    assert_eq!(snap.spans["work"].calls, 3);
    assert_eq!(snap.histograms["m.front_len"].count, 4);
    assert_eq!(snap.histograms["m.front_len"].max, 8);
    assert_eq!(snap.histograms["m.front_len"].min, 2);
}

#[test]
fn merge_sink_carries_worker_trace_events_and_names() {
    let _guard = trace_guard();
    ia_obs::set_trace_enabled(true);
    let sink = ia_obs::MergeSink::new();
    {
        let _caller_span = ia_obs::span("caller");
        std::thread::scope(|scope| {
            for worker in 0..2u64 {
                let sink = &sink;
                scope.spawn(move || {
                    let _worker = sink.register_worker(&format!("w{worker}"));
                    let _span = ia_obs::span("worker_body");
                    ia_obs::counter_add("w.events", 1);
                });
            }
        });
        sink.collect();
    }
    let trace = ia_obs::drain_trace();
    let tids: BTreeSet<u64> = trace.events.iter().map(|e| e.tid).collect();
    assert_eq!(tids.len(), 3, "caller + two workers: {trace:?}");
    let names: BTreeSet<&str> = trace.thread_names.values().map(String::as_str).collect();
    assert!(names.contains("w0") && names.contains("w1"), "{names:?}");
    // Every worker track is self-contained: balanced B/E pairs.
    for tid in &tids {
        let mut depth = 0i64;
        for event in trace.events.iter().filter(|e| e.tid == *tid) {
            match event.kind {
                TraceEventKind::Begin(_) => depth += 1,
                TraceEventKind::End(_) => {
                    depth -= 1;
                    assert!(depth >= 0, "end before begin on tid {tid}");
                }
                TraceEventKind::Counter { .. } => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced spans on tid {tid}");
    }
    // The merged timeline is sorted by (ts, tid).
    let keys: Vec<(u64, u64)> = trace.events.iter().map(|e| (e.ts_ns, e.tid)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted);
}

#[test]
fn merged_events_do_not_consume_the_caller_recording_capacity() {
    let _guard = trace_guard();
    ia_obs::set_trace_capacity(4, 4);
    ia_obs::set_trace_enabled(true);
    let sink = ia_obs::MergeSink::new();
    {
        // The caller's span stays open across a collect() that merges
        // in more worker events than the whole span buffer holds. Its
        // end event must still record: merged events were bounded by
        // their own thread's capacity and must not count against ours.
        let _caller_span = ia_obs::span("caller");
        std::thread::scope(|scope| {
            let sink = &sink;
            scope.spawn(move || {
                let _worker = sink.register_worker("cap-worker");
                for _ in 0..2 {
                    let _span = ia_obs::span("worker_body");
                }
            });
        });
        sink.collect();
    }
    let trace = ia_obs::drain_trace();
    assert_eq!(trace.dropped_span_events, 0, "{trace:?}");
    let caller_kinds: Vec<_> = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::Begin("caller") | TraceEventKind::End("caller")
            )
        })
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        caller_kinds,
        vec![
            TraceEventKind::Begin("caller"),
            TraceEventKind::End("caller")
        ],
        "caller span survives a large merge"
    );
}

#[test]
fn concurrent_writers_merge_deterministically() {
    let _guard = trace_guard();
    ia_obs::set_trace_enabled(true);
    // Two identical concurrent runs must produce byte-identical Chrome
    // exports modulo timestamps/tids — compare the structural skeleton.
    let skeleton = |n_workers: u64| {
        let sink = ia_obs::MergeSink::new();
        std::thread::scope(|scope| {
            for worker in 0..n_workers {
                let sink = &sink;
                scope.spawn(move || {
                    let _worker = sink.register_worker(&format!("det-{worker}"));
                    for _ in 0..4 {
                        let _span = ia_obs::span("unit");
                        ia_obs::counter_add("det.ticks", 1);
                    }
                });
            }
        });
        sink.collect();
        let trace = ia_obs::drain_trace();
        // Per-track event-kind sequences, keyed by track name (tids
        // are assigned in nondeterministic thread-start order).
        let mut per_track: Vec<(String, Vec<TraceEventKind>)> = trace
            .thread_names
            .iter()
            .map(|(tid, name)| {
                (
                    name.clone(),
                    trace
                        .events
                        .iter()
                        .filter(|e| e.tid == *tid)
                        .map(|e| e.kind)
                        .collect(),
                )
            })
            .collect();
        per_track.sort();
        per_track
    };
    let first = skeleton(3);
    let second = skeleton(3);
    let relevant =
        |tracks: &[(String, Vec<TraceEventKind>)]| -> Vec<(String, Vec<TraceEventKind>)> {
            tracks
                .iter()
                .filter(|(name, _)| name.starts_with("det-"))
                .cloned()
                .collect()
        };
    assert_eq!(
        relevant(&first),
        relevant(&second),
        "same workload, same merged structure"
    );
}

#[test]
fn chrome_export_of_a_real_recording_is_valid_json() {
    let _guard = trace_guard();
    ia_obs::set_enabled(true);
    ia_obs::set_trace_enabled(true);
    {
        let _span = ia_obs::span("solve");
        ia_obs::counter_add("x.states", 3);
        ia_obs::counter_add("x.states", 4);
    }
    let trace = ia_obs::drain_trace();
    let rendered = trace.to_chrome_json_string("iarank-test");
    let parsed = JsonValue::parse(&rendered).expect("chrome export is valid JSON");
    let events = parsed.as_array().expect("top level is an array");
    assert!(events.len() >= 5, "metadata + B/E + counters: {rendered}");
    for event in events {
        let ph = event.get("ph").and_then(JsonValue::as_str).expect("ph");
        assert!(matches!(ph, "B" | "E" | "C" | "M"), "unexpected ph {ph}");
        assert!(event.get("name").and_then(JsonValue::as_str).is_some());
        assert!(event.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(event.get("tid").and_then(JsonValue::as_u64).is_some());
        if ph != "M" {
            assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
        }
        if ph == "C" {
            let value = event
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(JsonValue::as_u64)
                .expect("counter value");
            assert!(value == 3 || value == 7, "running totals: {value}");
        }
    }
}
