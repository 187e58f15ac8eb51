//! Benchmark-side spans for the traced run.
//!
//! A span records name, start, end, parent and the iteration (solve,
//! pass or request) it belongs to. Spans are kept in memory while the
//! run measures and written out once at the end; a layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover. With tracing off, opening a span reads no clock and records
//! nothing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the process.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The layer or operation name.
    pub name: &'static str,
    /// The iteration the span belongs to.
    pub iter: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Span(Option<SpanRecord>);

impl Span {
    /// The span's id (0 when tracing is off).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |s| s.id)
    }
}

/// Opens a span nested under the innermost span open on this thread.
pub fn span(name: &'static str, iter: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    open(name, iter, parent)
}

/// Opens a span under an explicit parent, for work that runs on another
/// thread than its parent span (`parent` 0 means none).
pub fn span_under(name: &'static str, iter: u64, parent: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    open(name, iter, (parent != 0).then_some(parent))
}

fn open(name: &'static str, iter: u64, parent: Option<u64>) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Span(Some(SpanRecord {
        id,
        parent,
        name,
        iter,
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut record) = self.0.take() else {
            return;
        };
        record.end_ns = now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&open| open == record.id) {
                stack.remove(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(record);
        }
    }
}

/// Takes every span recorded so far.
#[must_use]
pub fn take() -> Vec<SpanRecord> {
    SPANS
        .lock()
        .map(|mut spans| std::mem::take(&mut *spans))
        .unwrap_or_default()
}

/// Self time of every span, by id: its duration minus the union of its
/// children's intervals clipped to it.
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                    reach = b;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed by span name and iteration.
#[must_use]
pub fn self_by_name_iter(spans: &[SpanRecord]) -> HashMap<(&'static str, u64), u64> {
    let selfs = self_times(spans);
    let mut out: HashMap<(&'static str, u64), u64> = HashMap::new();
    for s in spans {
        *out.entry((s.name, s.iter)).or_default() += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Renders spans as JSON lines (one object per span, start order).
#[must_use]
pub fn to_json_lines(spans: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in sorted {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"iter\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
            s.id,
            s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
            s.name,
            s.iter,
            s.start_ns,
            s.end_ns,
            selfs.get(&s.id).copied().unwrap_or(0),
        ));
    }
    out
}
