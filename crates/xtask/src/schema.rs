//! Schema validation for the observability artifacts.
//!
//! Three documents are part of the workspace's stable machine-readable
//! surface (`docs/observability.md`):
//!
//! * the CLI's `--metrics json` snapshot
//!   (`{"counters": {...}, "spans": [...], "histograms": [...]}`),
//! * the Chrome trace-event exports written by `--trace` (a JSON
//!   array of `B`/`E`/`C`/`M` events), and
//! * the Prometheus 0.0.4 text exposition served by `GET /metrics`
//!   under `Accept: text/plain`.
//!
//! CI runs `ia-lint check-metrics` / `check-trace` / `check-prom` on
//! freshly emitted files so schema drift fails the build instead of
//! silently breaking downstream consumers. The JSON checkers parse with
//! the same [`ia_obs::json`] tree the exporters render from, so
//! integers are checked exactly.

use ia_obs::json::JsonValue;
use std::collections::{BTreeMap, BTreeSet};

/// Requires `doc[key]` to be an object whose values are all exact
/// unsigned integers (the shape of a counter map).
fn expect_counter_map(doc: &JsonValue, key: &str, ctx: &str) -> Result<usize, String> {
    let map = doc
        .get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}` object"))?
        .as_object()
        .ok_or_else(|| format!("{ctx}: `{key}` must be an object"))?;
    for (name, value) in map {
        if value.as_u64().is_none() {
            return Err(format!(
                "{ctx}: `{key}.{name}` must be an unsigned integer, got {}",
                value.render()
            ));
        }
    }
    Ok(map.len())
}

/// Requires `doc[key]` to be an exact unsigned integer.
fn expect_u64(doc: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` must be an unsigned integer"))
}

/// Requires `doc[key]` to be a string.
fn expect_str<'a>(doc: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, String> {
    doc.get(key)
        .ok_or_else(|| format!("{ctx}: missing `{key}`"))?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

/// Validates a CLI `--metrics json` snapshot document.
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse
/// error) found.
pub fn check_metrics(text: &str) -> Result<String, String> {
    let doc = JsonValue::parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let n_counters = expect_counter_map(&doc, "counters", "snapshot")?;

    let spans = doc
        .get("spans")
        .ok_or("snapshot: missing `spans` array")?
        .as_array()
        .ok_or("snapshot: `spans` must be an array")?;
    for (i, span) in spans.iter().enumerate() {
        let ctx = format!("spans[{i}]");
        let path = expect_str(span, "path", &ctx)?;
        if path.is_empty() {
            return Err(format!("{ctx}: `path` must be non-empty"));
        }
        let calls = expect_u64(span, "calls", &ctx)?;
        if calls == 0 {
            return Err(format!("{ctx}: `calls` must be positive"));
        }
        expect_u64(span, "total_ns", &ctx)?;
    }

    let histograms = doc
        .get("histograms")
        .ok_or("snapshot: missing `histograms` array")?
        .as_array()
        .ok_or("snapshot: `histograms` must be an array")?;
    for (i, h) in histograms.iter().enumerate() {
        let ctx = format!("histograms[{i}]");
        expect_str(h, "name", &ctx)?;
        for field in ["count", "sum", "min", "max"] {
            expect_u64(h, field, &ctx)?;
        }
        let buckets = h
            .get("buckets")
            .ok_or_else(|| format!("{ctx}: missing `buckets` array"))?
            .as_array()
            .ok_or_else(|| format!("{ctx}: `buckets` must be an array"))?;
        for (j, bucket) in buckets.iter().enumerate() {
            let bctx = format!("{ctx}.buckets[{j}]");
            expect_u64(bucket, "le", &bctx)?;
            expect_u64(bucket, "count", &bctx)?;
        }
    }

    if n_counters == 0 && spans.is_empty() {
        return Err("snapshot: no counters and no spans (was the collector enabled?)".to_owned());
    }
    Ok(format!(
        "metrics snapshot OK: {n_counters} counters, {} spans, {} histograms",
        spans.len(),
        histograms.len()
    ))
}

/// Validates a Chrome trace-event export (the `--trace FILE.json`
/// artifacts).
///
/// Checks the documented shape — a non-empty JSON array of events with
/// `name`/`ph`/`pid`/`tid` fields, `ph` one of `B`/`E`/`C`/`M` — plus
/// the exporter's ordering guarantees: timestamps (microseconds, `ts`)
/// are non-negative and non-decreasing across the merged timeline, and
/// every `E` event closes the innermost open `B` of the same name on
/// its `(pid, tid)` track. Unclosed `B` events are tolerated (the
/// drop-newest buffers may lose an `End`) and only counted in the
/// summary; an unmatched `E` is a hard error because a surviving end
/// always has its begin in-buffer.
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse
/// error) found.
pub fn check_trace(text: &str) -> Result<String, String> {
    let doc = JsonValue::parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc
        .as_array()
        .ok_or("trace: top level must be a JSON array of events")?;
    if events.is_empty() {
        return Err("trace: event array must be non-empty".to_owned());
    }
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut tids: BTreeSet<u64> = BTreeSet::new();
    let mut last_ts: Option<f64> = None;
    let (mut n_spans, mut n_counters, mut n_meta) = (0usize, 0usize, 0usize);
    for (i, event) in events.iter().enumerate() {
        let ctx = format!("events[{i}]");
        let name = expect_str(event, "name", &ctx)?;
        if name.is_empty() {
            return Err(format!("{ctx}: `name` must be non-empty"));
        }
        let ph = expect_str(event, "ph", &ctx)?;
        let pid = expect_u64(event, "pid", &ctx)?;
        let tid = expect_u64(event, "tid", &ctx)?;
        if ph != "M" {
            let ts = event
                .get("ts")
                .ok_or_else(|| format!("{ctx}: missing `ts`"))?
                .as_f64()
                .ok_or_else(|| format!("{ctx}: `ts` must be a number"))?;
            if ts < 0.0 {
                return Err(format!("{ctx}: `ts` must be non-negative, got {ts}"));
            }
            if last_ts.is_some_and(|prev| ts < prev) {
                return Err(format!(
                    "{ctx}: `ts` went backwards ({ts} after {}); the merged \
                     timeline must be sorted",
                    // The comparison above makes the unwrap unreachable.
                    last_ts.unwrap_or(0.0)
                ));
            }
            last_ts = Some(ts);
            tids.insert(tid);
            let cat = expect_str(event, "cat", &ctx)?;
            let want_cat = if ph == "C" { "counter" } else { "span" };
            if cat != want_cat {
                return Err(format!(
                    "{ctx}: `cat` must be `{want_cat}` for ph `{ph}`, got `{cat}`"
                ));
            }
        }
        match ph {
            "M" => n_meta += 1,
            "B" => {
                n_spans += 1;
                stacks.entry((pid, tid)).or_default().push(name.to_owned());
            }
            "E" => {
                n_spans += 1;
                let top = stacks.entry((pid, tid)).or_default().pop();
                if top.as_deref() != Some(name) {
                    return Err(format!(
                        "{ctx}: end event `{name}` on tid {tid} does not close the \
                         innermost open span ({})",
                        top.map_or_else(|| "none open".to_owned(), |t| format!("`{t}`"))
                    ));
                }
            }
            "C" => {
                n_counters += 1;
                let value = event
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .ok_or_else(|| format!("{ctx}: counter event missing `args.value`"))?;
                if value.as_u64().is_none() {
                    return Err(format!(
                        "{ctx}: `args.value` must be an unsigned integer, got {}",
                        value.render()
                    ));
                }
            }
            other => {
                return Err(format!("{ctx}: `ph` must be one of B/E/C/M, got `{other}`"));
            }
        }
    }
    let unclosed: usize = stacks.values().map(Vec::len).sum();
    Ok(format!(
        "trace OK: {n_spans} span events, {n_counters} counter events, \
         {n_meta} metadata events, {} thread(s), {unclosed} unclosed span(s)",
        tids.len()
    ))
}

/// Validates an `ia-dse` experiment spec (TOML subset or JSON) by
/// running it through the same parser the engine uses, so the
/// validator cannot drift from what `iarank dse run` accepts.
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns the engine's own parse/validation message on a bad spec.
pub fn check_spec(text: &str) -> Result<String, String> {
    let spec = ia_dse::ExperimentSpec::parse_str(text).map_err(|e| e.to_string())?;
    let grid = spec.grid_size().map_err(|e| e.to_string())?;
    Ok(format!(
        "experiment spec `{}` OK: {} axes, {grid} grid point(s), strategy {}, run id {}",
        spec.name,
        spec.axes.len(),
        spec.strategy.label(),
        spec.run_id()
    ))
}

/// One parsed Prometheus sample line: metric name, labels, value.
type PromSample = (String, Vec<(String, String)>, f64);

fn parse_prom_sample(line: &str, ctx: &str) -> Result<PromSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("{ctx}: unclosed label braces"))?;
            if close < open {
                return Err(format!("{ctx}: unclosed label braces"));
            }
            (&line[..open], (&line[open + 1..close], &line[close + 1..]))
        }
        None => {
            let space = line
                .find(' ')
                .ok_or_else(|| format!("{ctx}: sample needs `name value`"))?;
            (&line[..space], ("", &line[space..]))
        }
    };
    let name = name_part.trim();
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        || name.as_bytes()[0].is_ascii_digit()
    {
        return Err(format!("{ctx}: invalid metric name `{name}`"));
    }
    let (label_text, value_text) = rest;
    let mut labels = Vec::new();
    let mut chars = label_text.chars().peekable();
    while chars.peek().is_some() {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err(format!("{ctx}: empty label name"));
        }
        if chars.next() != Some('"') {
            return Err(format!("{ctx}: label `{key}` value must be quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(c) => value.push(c),
                    None => return Err(format!("{ctx}: dangling escape in label `{key}`")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("{ctx}: unterminated value for label `{key}`")),
            }
        }
        labels.push((key, value));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    let value: f64 = value_text.trim().parse().map_err(|_| {
        format!(
            "{ctx}: sample value `{}` is not a number",
            value_text.trim()
        )
    })?;
    Ok((name.to_owned(), labels, value))
}

/// Validates a Prometheus 0.0.4 text exposition like `GET /metrics`
/// serves under `Accept: text/plain`.
///
/// Checks that every sample's family (histogram `_bucket`/`_sum`/
/// `_count` suffixes resolved to their base name) is declared by a
/// preceding `# TYPE` line, that label values are well-quoted, and
/// that each histogram series has non-decreasing cumulative bucket
/// counts ending in a `+Inf` bucket equal to its `_count` sample.
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns a description of the first exposition violation found,
/// prefixed with its 1-based line number.
pub fn check_prom(text: &str) -> Result<String, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (family, non-le labels) -> cumulative bucket counts in file order,
    // whether +Inf was seen, and the matching _count value.
    let mut buckets: BTreeMap<(String, String), (Vec<f64>, bool)> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), f64> = BTreeMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let ctx = format!("line {}", i + 1);
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            if words.next() == Some("TYPE") {
                let name = words
                    .next()
                    .ok_or_else(|| format!("{ctx}: `# TYPE` needs a metric name"))?;
                let kind = words
                    .next()
                    .ok_or_else(|| format!("{ctx}: `# TYPE {name}` needs a kind"))?;
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("{ctx}: unknown metric kind `{kind}`"));
                }
                if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                    return Err(format!("{ctx}: duplicate `# TYPE` for `{name}`"));
                }
            }
            continue;
        }
        let (name, labels, value) = parse_prom_sample(line, &ctx)?;
        samples += 1;
        // Resolve histogram component suffixes to their family name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
            })
            .unwrap_or(&name);
        if !types.contains_key(family) {
            return Err(format!(
                "{ctx}: sample `{name}` has no preceding `# TYPE` declaration"
            ));
        }
        if types[family] == "histogram" && family != name.as_str() {
            let series: String = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v},"))
                .collect();
            let key = (family.to_owned(), series);
            if let Some(suffix) = name.strip_prefix(family) {
                match suffix {
                    "_bucket" => {
                        let le = labels
                            .iter()
                            .find(|(k, _)| k == "le")
                            .map(|(_, v)| v.as_str())
                            .ok_or_else(|| format!("{ctx}: `{name}` is missing its `le` label"))?;
                        let entry = buckets.entry(key).or_default();
                        if entry.1 {
                            return Err(format!("{ctx}: bucket after `+Inf` in `{name}`"));
                        }
                        if le == "+Inf" {
                            entry.1 = true;
                        } else if le.parse::<f64>().is_err() {
                            return Err(format!(
                                "{ctx}: bucket boundary `le=\"{le}\"` is not a number"
                            ));
                        }
                        if entry.0.last().is_some_and(|prev| value < *prev) {
                            return Err(format!(
                                "{ctx}: cumulative bucket count went backwards in `{name}`"
                            ));
                        }
                        entry.0.push(value);
                    }
                    "_count" => {
                        counts.insert(key, value);
                    }
                    _ => {}
                }
            }
        }
    }
    if samples == 0 {
        return Err("exposition has no samples".to_owned());
    }
    for ((family, series), (cumulative, saw_inf)) in &buckets {
        let ctx = format!("histogram `{family}` series `{{{series}}}`");
        if !saw_inf {
            return Err(format!("{ctx}: missing `+Inf` bucket"));
        }
        let count = counts
            .get(&(family.clone(), series.clone()))
            .ok_or_else(|| format!("{ctx}: missing `_count` sample"))?;
        let last = cumulative.last().copied().unwrap_or(0.0);
        if (last - count).abs() > f64::EPSILON * count.abs() {
            return Err(format!(
                "{ctx}: `+Inf` bucket ({last}) disagrees with `_count` ({count})"
            ));
        }
    }
    Ok(format!(
        "prometheus exposition OK: {} families, {samples} sample(s), {} histogram series",
        types.len(),
        buckets.len()
    ))
}

/// The exact header of the stable `ia-corpus-v1` CSV schema.
const CORPUS_CSV_HEADER: &str = "design,backend,gamma,key,rank,normalized,\
                                 total_wires,repeater_count,fully_assignable,\
                                 delta_vs_davis,cliff";

/// The backend labels a corpus report may rank.
const CORPUS_BACKENDS: [&str; 4] = ["measured", "davis", "hefeida-site", "hefeida-occupancy"];

/// Validates an `ia-corpus-v1` report — either the CSV emitted by
/// `iarank corpus report --csv true` (exact stable header, 32-hex
/// keys, known backends, `γ ≥ 1`, `normalized ∈ [0, 1]`,
/// `rank ≤ total_wires`, signed davis deltas with `+0` on every davis
/// row) or the human-readable text report (format marker, rank
/// comparison section, davis baseline note). The form is
/// auto-detected from the first line.
///
/// # Errors
///
/// Returns a description of the first schema violation found.
pub fn check_corpus(text: &str) -> Result<String, String> {
    let Some(first) = text.lines().next() else {
        return Err("corpus report: empty input".to_owned());
    };
    if first == CORPUS_CSV_HEADER {
        return check_corpus_csv(text);
    }
    if first.starts_with("== ia-corpus-v1") {
        return check_corpus_text(text);
    }
    Err(format!(
        "corpus report: first line is neither the ia-corpus-v1 CSV header \
         nor the `== ia-corpus-v1 — <name> ==` report title, got `{first}`"
    ))
}

fn check_corpus_csv(text: &str) -> Result<String, String> {
    let mut rows = 0usize;
    let mut davis_rows = 0usize;
    let mut cliffs = 0usize;
    for (index, line) in text.lines().enumerate().skip(1) {
        let context = format!("csv line {}", index + 1);
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 11 {
            return Err(format!(
                "{context}: expected 11 fields, got {}",
                fields.len()
            ));
        }
        if fields[0].is_empty() {
            return Err(format!("{context}: empty design name"));
        }
        if !CORPUS_BACKENDS.contains(&fields[1]) {
            return Err(format!("{context}: unknown backend `{}`", fields[1]));
        }
        let gamma: f64 = fields[2]
            .parse()
            .map_err(|e| format!("{context}: bad gamma `{}`: {e}", fields[2]))?;
        if !gamma.is_finite() || gamma < 1.0 {
            return Err(format!("{context}: gamma {gamma} is not a finite γ ≥ 1"));
        }
        if fields[3].len() != 32 || !fields[3].bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!(
                "{context}: key `{}` is not 32 hex digits",
                fields[3]
            ));
        }
        let rank: u64 = fields[4]
            .parse()
            .map_err(|e| format!("{context}: bad rank `{}`: {e}", fields[4]))?;
        let normalized: f64 = fields[5]
            .parse()
            .map_err(|e| format!("{context}: bad normalized `{}`: {e}", fields[5]))?;
        if !(0.0..=1.0).contains(&normalized) {
            return Err(format!(
                "{context}: normalized {normalized} is outside [0, 1]"
            ));
        }
        let total_wires: u64 = fields[6]
            .parse()
            .map_err(|e| format!("{context}: bad total_wires `{}`: {e}", fields[6]))?;
        if rank > total_wires {
            return Err(format!(
                "{context}: rank {rank} exceeds total_wires {total_wires}"
            ));
        }
        let _repeaters: u64 = fields[7]
            .parse()
            .map_err(|e| format!("{context}: bad repeater_count `{}`: {e}", fields[7]))?;
        if !matches!(fields[8], "true" | "false") {
            return Err(format!(
                "{context}: fully_assignable must be true/false, got `{}`",
                fields[8]
            ));
        }
        match fields[9] {
            "-" => {}
            delta
                if delta.starts_with(['+', '-'])
                    && delta[1..].bytes().all(|b| b.is_ascii_digit())
                    && delta.len() > 1 => {}
            other => {
                return Err(format!(
                    "{context}: delta_vs_davis must be `-` or a signed integer, got `{other}`"
                ))
            }
        }
        if fields[1] == "davis" {
            davis_rows += 1;
            if fields[9] != "+0" {
                return Err(format!(
                    "{context}: a davis row is its own baseline, so delta must be +0, got `{}`",
                    fields[9]
                ));
            }
        }
        match fields[10] {
            "true" => cliffs += 1,
            "false" => {}
            other => {
                return Err(format!(
                    "{context}: cliff must be true/false, got `{other}`"
                ))
            }
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("corpus csv: no data rows (did the run complete any points?)".to_owned());
    }
    Ok(format!(
        "corpus csv OK: {rows} row(s), {davis_rows} davis baseline row(s), {cliffs} cliff(s)"
    ))
}

fn check_corpus_text(text: &str) -> Result<String, String> {
    if !text.contains("rank comparison (baseline: davis)") {
        return Err(
            "corpus report: missing the `rank comparison (baseline: davis)` \
                    section"
                .to_owned(),
        );
    }
    for needed in ["run: ", "points: ", "delta_vs_davis", "cliff"] {
        if !text.contains(needed) {
            return Err(format!("corpus report: missing `{needed}`"));
        }
    }
    let rows = text
        .lines()
        .filter(|l| CORPUS_BACKENDS.iter().any(|b| l.contains(b)))
        .count();
    Ok(format!(
        "corpus report OK: {} line(s), {rows} backend row(s)",
        text.lines().count()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_METRICS: &str = r#"{"counters":{"dp.states":4,"dp.front_max":1},
        "spans":[{"path":"dp.solve","calls":1,"total_ns":120}],
        "histograms":[{"name":"dp.front_len","count":2,"sum":3,"min":1,"max":2,
                       "buckets":[{"le":1,"count":1},{"le":3,"count":1}]}]}"#;

    #[test]
    fn good_metrics_passes() {
        let summary = check_metrics(GOOD_METRICS).unwrap();
        assert!(summary.contains("2 counters"));
        assert!(summary.contains("1 spans"));
    }

    const GOOD_CORPUS_CSV: &str = "design,backend,gamma,key,rank,normalized,\
         total_wires,repeater_count,fully_assignable,delta_vs_davis,cliff\n\
         synth,davis,1,0123456789abcdef0123456789abcdef,100,0.500000,200,3,true,+0,false\n\
         synth,hefeida-site,1,fedcba9876543210fedcba9876543210,90,0.450000,200,3,true,-10,false\n\
         synth,hefeida-site,2,aaaa456789abcdef0123456789abcdef,50,0.250000,200,3,false,-50,true\n";

    #[test]
    fn good_corpus_csv_passes() {
        let summary = check_corpus(GOOD_CORPUS_CSV).unwrap();
        assert!(summary.contains("3 row(s)"), "{summary}");
        assert!(summary.contains("1 davis baseline row(s)"), "{summary}");
        assert!(summary.contains("1 cliff(s)"), "{summary}");
    }

    #[test]
    fn corpus_csv_rejects_schema_violations() {
        for (mangle, needle) in [
            (
                GOOD_CORPUS_CSV.replace("davis,1,0123", "davis,0.5,0123"),
                "γ ≥ 1",
            ),
            (GOOD_CORPUS_CSV.replace(",+0,", ",+1,"), "baseline"),
            (
                GOOD_CORPUS_CSV.replace("hefeida-site", "zipf"),
                "unknown backend",
            ),
            (
                GOOD_CORPUS_CSV.replace("0123456789abcdef0123456789abcdef", "zz"),
                "32 hex",
            ),
            (GOOD_CORPUS_CSV.replace("0.500000", "1.500000"), "[0, 1]"),
            (
                GOOD_CORPUS_CSV.replace("100,0.5", "900,0.5"),
                "exceeds total_wires",
            ),
            (
                GOOD_CORPUS_CSV.replace(",true,+0", ",maybe,+0"),
                "true/false",
            ),
            (
                GOOD_CORPUS_CSV.lines().next().unwrap().to_owned() + "\n",
                "no data rows",
            ),
            ("design,backend\nbad\n".to_owned(), "neither"),
            (String::new(), "empty input"),
        ] {
            let err = check_corpus(&mangle).unwrap_err();
            assert!(err.contains(needle), "`{err}` lacks `{needle}`");
        }
    }

    #[test]
    fn corpus_text_report_is_recognised() {
        let report = "== ia-corpus-v1 — smoke ==\nrun: 0123456789abcdef\n\
                      points: 4 completed of 4 expanded\n\
                      -- rank comparison (baseline: davis) --\n\
                      design backend gamma rank normalized delta_vs_davis cliff\n\
                      synth davis 1 100 0.5 +0 -\n";
        let summary = check_corpus(report).unwrap();
        assert!(summary.contains("backend row(s)"), "{summary}");
        let broken = report.replace("rank comparison", "rank chart");
        assert!(check_corpus(&broken).unwrap_err().contains("section"));
    }

    #[test]
    fn metrics_rejects_bad_shapes() {
        assert!(check_metrics("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(
            check_metrics(r#"{"counters":{},"spans":[],"histograms":[]}"#)
                .unwrap_err()
                .contains("collector enabled")
        );
        assert!(
            check_metrics(r#"{"counters":{"x":1.5},"spans":[],"histograms":[]}"#)
                .unwrap_err()
                .contains("unsigned integer")
        );
        assert!(check_metrics(
            r#"{"counters":{"x":1},"spans":[{"path":"","calls":1,"total_ns":0}],"histograms":[]}"#
        )
        .unwrap_err()
        .contains("non-empty"));
        assert!(check_metrics(
            r#"{"counters":{"x":1},"spans":[{"path":"p","calls":0,"total_ns":0}],"histograms":[]}"#
        )
        .unwrap_err()
        .contains("positive"));
        assert!(check_metrics(r#"{"spans":[],"histograms":[]}"#)
            .unwrap_err()
            .contains("missing `counters`"));
    }

    const GOOD_TRACE: &str = r#"[
        {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"iarank"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"main"}},
        {"name":"dp.solve","cat":"span","ph":"B","ts":0.5,"pid":1,"tid":1},
        {"name":"dp.states","cat":"counter","ph":"C","ts":1.0,"pid":1,"tid":1,
         "args":{"value":4}},
        {"name":"dp.solve","cat":"span","ph":"E","ts":2.0,"pid":1,"tid":1}]"#;

    #[test]
    fn good_trace_passes() {
        let summary = check_trace(GOOD_TRACE).unwrap();
        assert!(summary.contains("2 span events"), "{summary}");
        assert!(summary.contains("1 counter events"), "{summary}");
        assert!(summary.contains("2 metadata events"), "{summary}");
        assert!(summary.contains("0 unclosed"), "{summary}");
    }

    #[test]
    fn trace_rejects_non_array_and_empty() {
        assert!(check_trace(r#"{"a":1}"#).unwrap_err().contains("array"));
        assert!(check_trace("[]").unwrap_err().contains("non-empty"));
    }

    #[test]
    fn trace_rejects_unknown_phase_and_bad_counter() {
        let bad_ph = r#"[{"name":"x","cat":"span","ph":"X","ts":1,"pid":1,"tid":1}]"#;
        assert!(check_trace(bad_ph).unwrap_err().contains("B/E/C/M"));
        let bad_counter = r#"[{"name":"c","cat":"counter","ph":"C","ts":1,"pid":1,"tid":1,
            "args":{"value":-3}}]"#;
        assert!(check_trace(bad_counter).unwrap_err().contains("args.value"));
    }

    #[test]
    fn trace_rejects_unmatched_end_but_tolerates_unclosed_begin() {
        let unmatched = r#"[
            {"name":"a","cat":"span","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"b","cat":"span","ph":"E","ts":2,"pid":1,"tid":1}]"#;
        let err = check_trace(unmatched).unwrap_err();
        assert!(err.contains("does not close"), "{err}");
        // An end on a different track must not consume track 1's begin.
        let cross_track = r#"[
            {"name":"a","cat":"span","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"a","cat":"span","ph":"E","ts":2,"pid":1,"tid":2}]"#;
        assert!(check_trace(cross_track).unwrap_err().contains("none open"));
        let unclosed = r#"[{"name":"a","cat":"span","ph":"B","ts":1,"pid":1,"tid":1}]"#;
        let summary = check_trace(unclosed).unwrap();
        assert!(summary.contains("1 unclosed"), "{summary}");
    }

    #[test]
    fn trace_rejects_unsorted_timestamps() {
        let backwards = r#"[
            {"name":"a","cat":"span","ph":"B","ts":5,"pid":1,"tid":1},
            {"name":"a","cat":"span","ph":"E","ts":3,"pid":1,"tid":1}]"#;
        assert!(check_trace(backwards)
            .unwrap_err()
            .contains("went backwards"));
    }

    const GOOD_PROM: &str = "\
# HELP iarank_http_requests_total requests by endpoint\n\
# TYPE iarank_http_requests_total counter\n\
iarank_http_requests_total{endpoint=\"/solve\"} 3\n\
# TYPE iarank_http_request_duration_us histogram\n\
iarank_http_request_duration_us_bucket{endpoint=\"/solve\",le=\"100\"} 1\n\
iarank_http_request_duration_us_bucket{endpoint=\"/solve\",le=\"1000\"} 2\n\
iarank_http_request_duration_us_bucket{endpoint=\"/solve\",le=\"+Inf\"} 3\n\
iarank_http_request_duration_us_sum{endpoint=\"/solve\"} 1200\n\
iarank_http_request_duration_us_count{endpoint=\"/solve\"} 3\n\
# TYPE iarank_up gauge\n\
iarank_up 1\n";

    #[test]
    fn good_prometheus_exposition_passes() {
        let summary = check_prom(GOOD_PROM).unwrap();
        assert!(summary.contains("3 families"), "{summary}");
        assert!(summary.contains("1 histogram series"), "{summary}");
    }

    #[test]
    fn prom_rejects_undeclared_and_broken_samples() {
        assert!(check_prom("").unwrap_err().contains("no samples"));
        assert!(check_prom("orphan_metric 1\n")
            .unwrap_err()
            .contains("no preceding `# TYPE`"));
        assert!(check_prom("# TYPE m widget\nm 1\n")
            .unwrap_err()
            .contains("unknown metric kind"));
        let unquoted = "# TYPE m counter\nm{l=v} 1\n";
        assert!(check_prom(unquoted).unwrap_err().contains("quoted"));
        let nan = "# TYPE m counter\nm x\n";
        assert!(check_prom(nan).unwrap_err().contains("not a number"));
    }

    #[test]
    fn prom_enforces_cumulative_histograms() {
        let backwards = "\
# TYPE h histogram\n\
h_bucket{le=\"1\"} 5\n\
h_bucket{le=\"+Inf\"} 3\n\
h_sum 9\n\
h_count 3\n";
        assert!(check_prom(backwards)
            .unwrap_err()
            .contains("went backwards"));
        let no_inf = "\
# TYPE h histogram\n\
h_bucket{le=\"1\"} 1\n\
h_sum 1\n\
h_count 1\n";
        assert!(check_prom(no_inf).unwrap_err().contains("+Inf"));
        let disagrees = "\
# TYPE h histogram\n\
h_bucket{le=\"1\"} 1\n\
h_bucket{le=\"+Inf\"} 2\n\
h_sum 3\n\
h_count 5\n";
        assert!(check_prom(disagrees).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn prom_validates_the_served_exposition_shape() {
        // The serve renderer escapes label values; round-trip one.
        let mut w = ia_obs::prometheus::PromWriter::new();
        w.family("iarank_http_requests_total", "counter", "requests");
        w.sample(
            "iarank_http_requests_total",
            &[("endpoint", "/solve\"x\\y")],
            2,
        );
        let summary = check_prom(&w.finish()).unwrap();
        assert!(summary.contains("1 families"), "{summary}");
    }

    #[test]
    fn counter_values_survive_exactly_at_u64_scale() {
        // 2^63 + 1 would corrupt through an f64 pipeline; the UInt
        // variant must carry it bit-for-bit.
        let big = u64::MAX - 1;
        let doc = format!(
            r#"{{"counters":{{"c":{big}}},"spans":[{{"path":"p","calls":1,"total_ns":{big}}}],"histograms":[]}}"#
        );
        check_metrics(&doc).unwrap();
    }
}
