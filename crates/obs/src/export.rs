//! Snapshot types and the text / JSON exporters.
//!
//! Field names in the JSON export are **stable API** — external
//! tooling (CI schema checks, perf-trajectory scripts) parses them.
//! See `docs/observability.md` for the schema and the name stability
//! policy.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::JsonValue;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span closed.
    pub calls: u64,
    /// Total time spent inside the span, in nanoseconds (saturating).
    pub total_ns: u64,
    /// Shortest single call, in nanoseconds (0 when no call closed).
    pub min_ns: u64,
    /// Longest single call, in nanoseconds (0 when no call closed).
    pub max_ns: u64,
}

impl SpanStat {
    /// Folds one closed call of `ns` nanoseconds into the stat.
    pub fn record(&mut self, ns: u64) {
        if self.calls == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.calls += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Folds another stat (e.g. a worker thread's aggregate) into this
    /// one; extremes merge as min-of-mins / max-of-maxes, ignoring the
    /// side that never recorded a call.
    pub fn merge(&mut self, other: &SpanStat) {
        if other.calls == 0 {
            return;
        }
        if self.calls == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.calls += other.calls;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }
}

/// Exported statistics for one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty log-scale buckets as `(inclusive upper bound, count)`,
    /// in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

/// An immutable copy of the collector's recorded data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name (both monotonic and high-water-mark).
    pub counters: BTreeMap<String, u64>,
    /// Span statistics by `/`-joined path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Histogram statistics by name.
    pub histograms: BTreeMap<String, HistogramStat>,
}

impl Snapshot {
    /// The value of counter `name`, if it was ever recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.histograms.is_empty()
    }

    /// The snapshot as a JSON tree with stable field names:
    ///
    /// ```json
    /// {"counters": {"dp.states": 123},
    ///  "spans": [{"path": "dp.solve", "calls": 1, "total_ns": 456,
    ///             "min_ns": 456, "max_ns": 456}],
    ///  "histograms": [{"name": "dp.front_len", "count": 9, "sum": 30,
    ///                  "min": 1, "max": 7,
    ///                  "buckets": [{"le": 7, "count": 9}]}]}
    /// ```
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::UInt(*v)))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(path, stat)| {
                JsonValue::Obj(vec![
                    ("path".to_string(), JsonValue::Str(path.clone())),
                    ("calls".to_string(), JsonValue::UInt(stat.calls)),
                    ("total_ns".to_string(), JsonValue::UInt(stat.total_ns)),
                    ("min_ns".to_string(), JsonValue::UInt(stat.min_ns)),
                    ("max_ns".to_string(), JsonValue::UInt(stat.max_ns)),
                ])
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(le, count)| {
                        JsonValue::Obj(vec![
                            ("le".to_string(), JsonValue::UInt(*le)),
                            ("count".to_string(), JsonValue::UInt(*count)),
                        ])
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("name".to_string(), JsonValue::Str(name.clone())),
                    ("count".to_string(), JsonValue::UInt(h.count)),
                    ("sum".to_string(), JsonValue::UInt(h.sum)),
                    ("min".to_string(), JsonValue::UInt(h.min)),
                    ("max".to_string(), JsonValue::UInt(h.max)),
                    ("buckets".to_string(), JsonValue::Arr(buckets)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("counters".to_string(), JsonValue::Obj(counters)),
            ("spans".to_string(), JsonValue::Arr(spans)),
            ("histograms".to_string(), JsonValue::Arr(histograms)),
        ])
    }

    /// [`to_json`](Self::to_json) rendered as one compact line, so a
    /// consumer can peel the snapshot off mixed stdout with `tail -1`.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// A human-readable multi-line rendering. The spans print as a
    /// call tree, each child indented two spaces under its parent;
    /// `self` is a span's total minus its direct children's totals
    /// (saturating, so clock skew never underflows):
    ///
    /// ```text
    /// spans:
    ///   dp.solve  calls=1      total=35.1ms   self=1.0ms    min=35.1ms   max=35.1ms
    ///     expand  calls=3      total=34.1ms   self=34.1ms   min=9.2ms    max=14.0ms
    /// ```
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        if self.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
        out.push_str("spans:\n");
        if self.spans.is_empty() {
            out.push_str("  (none)\n");
        }
        self.write_spans(&mut out);
        out.push_str("histograms:\n");
        if self.histograms.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, h) in &self.histograms {
            let mean = if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            };
            let _ = writeln!(
                out,
                "  {name}: count={} min={} max={} mean={mean:.2}",
                h.count, h.min, h.max
            );
        }
        out
    }

    /// One line per span path, in depth-first order with siblings
    /// sorted by name.
    fn write_spans(&self, out: &mut String) {
        let mut child_totals: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, stat) in &self.spans {
            if let Some((parent, _)) = path.rsplit_once('/') {
                let sum = child_totals.entry(parent).or_default();
                *sum = sum.saturating_add(stat.total_ns);
            }
        }
        // Compare segment by segment: plain string order puts `dp.x`
        // between `dp` and `dp/child` (`.` < `/`), splitting `dp`'s
        // subtree.
        let mut paths: Vec<(&str, &SpanStat)> =
            self.spans.iter().map(|(p, s)| (p.as_str(), s)).collect();
        paths.sort_by(|(a, _), (b, _)| a.split('/').cmp(b.split('/')));
        let width = paths
            .iter()
            .map(|(path, _)| {
                let (depth, name) = depth_and_name(path);
                2 * depth + name.len()
            })
            .max()
            .unwrap_or(0);
        for (path, stat) in paths {
            let (depth, name) = depth_and_name(path);
            let self_ns = stat
                .total_ns
                .saturating_sub(child_totals.get(path).copied().unwrap_or(0));
            let _ = writeln!(
                out,
                "  {indent}{name:<pad$}  calls={:<6} total={:<8} self={:<8} min={:<8} max={}",
                stat.calls,
                fmt_ns(stat.total_ns),
                fmt_ns(self_ns),
                fmt_ns(stat.min_ns),
                fmt_ns(stat.max_ns),
                indent = "  ".repeat(depth),
                pad = width - 2 * depth,
            );
        }
    }
}

/// A span path's nesting depth and its last segment.
fn depth_and_name(path: &str) -> (usize, &str) {
    let name = path.rsplit('/').next().unwrap_or(path);
    (path.matches('/').count(), name)
}

/// Formats nanoseconds with a readable unit (ns / µs / ms / s).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("dp.states".to_string(), 42);
        snap.counters.insert("dp.front_max".to_string(), 7);
        snap.spans.insert(
            "dp.solve".to_string(),
            SpanStat {
                calls: 1,
                total_ns: 1_500_000,
                min_ns: 1_500_000,
                max_ns: 1_500_000,
            },
        );
        snap.spans.insert(
            "dp.solve/reconstruct".to_string(),
            SpanStat {
                calls: 2,
                total_ns: 800,
                min_ns: 300,
                max_ns: 500,
            },
        );
        snap.histograms.insert(
            "dp.front_len".to_string(),
            HistogramStat {
                count: 3,
                sum: 9,
                min: 1,
                max: 5,
                buckets: vec![(1, 1), (7, 2)],
            },
        );
        snap
    }

    #[test]
    fn json_export_uses_stable_field_names() {
        let json = sample().to_json_string();
        assert!(!json.contains('\n'), "compact export is one line");
        let parsed = JsonValue::parse(&json).expect("export is valid JSON");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("dp.states"))
                .and_then(JsonValue::as_u64),
            Some(42)
        );
        let spans = parsed
            .get("spans")
            .and_then(JsonValue::as_array)
            .expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0].get("path").and_then(JsonValue::as_str),
            Some("dp.solve")
        );
        assert_eq!(spans[0].get("calls").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            spans[0].get("total_ns").and_then(JsonValue::as_u64),
            Some(1_500_000)
        );
        assert_eq!(
            spans[1].get("min_ns").and_then(JsonValue::as_u64),
            Some(300)
        );
        assert_eq!(
            spans[1].get("max_ns").and_then(JsonValue::as_u64),
            Some(500)
        );
        let hists = parsed
            .get("histograms")
            .and_then(JsonValue::as_array)
            .expect("histograms array");
        assert_eq!(
            hists[0].get("name").and_then(JsonValue::as_str),
            Some("dp.front_len")
        );
        let buckets = hists[0]
            .get("buckets")
            .and_then(JsonValue::as_array)
            .expect("buckets");
        assert_eq!(buckets[1].get("le").and_then(JsonValue::as_u64), Some(7));
    }

    #[test]
    fn text_export_lists_every_section() {
        let text = sample().to_text();
        assert!(text.contains("dp.states = 42"));
        assert!(text.contains("dp.front_len: count=3 min=1 max=5 mean=3.00"));
        let empty = Snapshot::default().to_text();
        assert!(empty.contains("counters:\n  (none)"));
        assert!(empty.contains("spans:\n  (none)"));
    }

    fn stat(calls: u64, total_ns: u64, min_ns: u64, max_ns: u64) -> SpanStat {
        SpanStat {
            calls,
            total_ns,
            min_ns,
            max_ns,
        }
    }

    /// The `spans:` section of `to_text`: per line, the indent, the
    /// name and the whitespace-separated fields.
    fn span_lines(snap: &Snapshot) -> Vec<(usize, String, Vec<String>)> {
        snap.to_text()
            .lines()
            .skip_while(|line| *line != "spans:")
            .skip(1)
            .take_while(|line| line.starts_with(' '))
            .map(|line| {
                let body = line.trim_start();
                let mut words = body.split_whitespace().map(str::to_owned);
                let name = words.next().unwrap_or_default();
                (line.len() - body.len(), name, words.collect())
            })
            .collect()
    }

    #[test]
    fn spans_print_as_a_call_tree_with_self_times() {
        let mut snap = Snapshot::default();
        snap.spans.insert("sweep.k".to_owned(), stat(1, 40, 40, 40));
        snap.spans
            .insert("dp.solve/reconstruct".to_owned(), stat(1, 250, 250, 250));
        snap.spans.insert(
            "dp.solve/expand/front.merge".to_owned(),
            stat(9, 450, 10, 90),
        );
        snap.spans
            .insert("dp.solve/expand".to_owned(), stat(3, 600, 100, 300));
        snap.spans
            .insert("dp.solve".to_owned(), stat(1, 1_000, 1_000, 1_000));
        let lines = span_lines(&snap);
        let shape: Vec<(usize, &str)> = lines.iter().map(|(i, n, _)| (*i, n.as_str())).collect();
        assert_eq!(
            shape,
            vec![
                (2, "dp.solve"),
                (4, "expand"),
                (6, "front.merge"),
                (4, "reconstruct"),
                (2, "sweep.k"),
            ],
            "children under their parent, siblings by name"
        );
        assert_eq!(
            lines[0].2,
            [
                "calls=1",
                "total=1.0µs",
                "self=150ns",
                "min=1.0µs",
                "max=1.0µs"
            ],
            "self is 1000 - (600 + 250)"
        );
        assert_eq!(lines[1].2[2], "self=150ns", "600 - 450");
        assert_eq!(lines[2].2[2], "self=450ns", "a leaf keeps it all");
        assert_eq!(
            lines[2].2,
            [
                "calls=9",
                "total=450ns",
                "self=450ns",
                "min=10ns",
                "max=90ns"
            ]
        );
        assert_eq!(lines[3].2[2], "self=250ns");
    }

    #[test]
    fn span_self_time_saturates_at_zero() {
        // Clock skew can make children outlast their parent.
        let mut snap = Snapshot::default();
        snap.spans.insert("a".to_owned(), stat(1, 100, 100, 100));
        snap.spans.insert("a/b".to_owned(), stat(2, 70, 30, 40));
        snap.spans.insert("a/c".to_owned(), stat(1, 60, 60, 60));
        let lines = span_lines(&snap);
        assert_eq!(lines[0].2[2], "self=0ns");
        assert_eq!(lines[1].2[2], "self=70ns");
    }

    #[test]
    fn dotted_sibling_does_not_split_a_subtree() {
        // String order puts `dp.x` between `dp` and `dp/child`.
        let mut snap = Snapshot::default();
        snap.spans.insert("dp".to_owned(), stat(1, 100, 100, 100));
        snap.spans.insert("dp.x".to_owned(), stat(1, 5, 5, 5));
        snap.spans
            .insert("dp/child".to_owned(), stat(2, 60, 20, 40));
        let lines = span_lines(&snap);
        let shape: Vec<(usize, &str)> = lines.iter().map(|(i, n, _)| (*i, n.as_str())).collect();
        assert_eq!(shape, vec![(2, "dp"), (4, "child"), (2, "dp.x")]);
        assert_eq!(lines[0].2[2], "self=40ns", "dp.x is not dp's child");
        assert_eq!(lines[2].2[2], "self=5ns");
    }

    #[test]
    fn span_stat_record_and_merge_track_extremes() {
        let mut stat = SpanStat::default();
        stat.record(40);
        stat.record(10);
        stat.record(90);
        assert_eq!((stat.calls, stat.total_ns), (3, 140));
        assert_eq!((stat.min_ns, stat.max_ns), (10, 90));

        // Merging an empty side leaves the extremes untouched.
        stat.merge(&SpanStat::default());
        assert_eq!((stat.min_ns, stat.max_ns), (10, 90));

        // Merging into an empty stat adopts the other side's extremes.
        let mut empty = SpanStat::default();
        empty.merge(&stat);
        assert_eq!(empty, stat);

        let other = SpanStat {
            calls: 2,
            total_ns: 105,
            min_ns: 5,
            max_ns: 100,
        };
        stat.merge(&other);
        assert_eq!((stat.calls, stat.total_ns), (5, 245));
        assert_eq!((stat.min_ns, stat.max_ns), (5, 100));
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.210s");
    }
}
