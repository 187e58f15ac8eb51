//! Schema validation for the observability artifacts.
//!
//! Five documents are part of the workspace's stable machine-readable
//! surface (`docs/observability.md`):
//!
//! * the CLI's `--metrics json` snapshot
//!   (`{"counters": {...}, "spans": [...], "histograms": [...]}`),
//! * the Chrome trace-event exports written by `--trace` (a JSON
//!   array of `B`/`E`/`C`/`M` events),
//! * the structured log files written by `--log-file` and the serve
//!   flight pump (JSON lines, one [`ia_obs::log::LogRecord`] per
//!   line),
//! * the Prometheus 0.0.4 text exposition served by `GET /metrics`
//!   under `Accept: text/plain`, and
//! * the hierarchical profiles written by `--prof-out` and served by
//!   `GET /debug/prof` — `ia-prof-v1` JSON or folded-stack text.
//!
//! CI runs `ia-lint check-metrics` / `check-trace` / `check-logs` /
//! `check-prom` / `check-prof` on freshly emitted files so schema
//! drift fails the build instead of silently breaking downstream
//! consumers. The JSON checkers parse with the same
//! [`ia_obs::json`] tree the exporters render from, so integers are
//! checked exactly.

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

/// Validates a SARIF 2.1.0 log of the shape `ia-lint lint --format
/// sarif` emits: `version` 2.1.0, at least one run with a named
/// driver and a rule table, and every result carrying a resolvable
/// `ruleId`, a `message.text` and a physical location with a
/// positive `startLine`.
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse
/// error) found.
pub fn check_sarif(text: &str) -> Result<String, String> {
    let doc = JsonValue::parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = expect_str(&doc, "version", "log")?;
    if version != "2.1.0" {
        return Err(format!("log: `version` must be `2.1.0`, got `{version}`"));
    }
    if let Some(schema) = doc.get("$schema") {
        if schema.as_str().is_none() {
            return Err("log: `$schema` must be a string".to_owned());
        }
    }
    let runs = doc
        .get("runs")
        .ok_or("log: missing `runs` array")?
        .as_array()
        .ok_or("log: `runs` must be an array")?;
    if runs.is_empty() {
        return Err("log: `runs` must be non-empty".to_owned());
    }
    let (mut n_rules, mut n_results) = (0usize, 0usize);
    for (r, run) in runs.iter().enumerate() {
        let ctx = format!("runs[{r}]");
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or_else(|| format!("{ctx}: missing `tool.driver`"))?;
        let name = expect_str(driver, "name", &format!("{ctx}.tool.driver"))?;
        if name.is_empty() {
            return Err(format!("{ctx}: `tool.driver.name` must be non-empty"));
        }
        let rules = driver
            .get("rules")
            .ok_or_else(|| format!("{ctx}: missing `tool.driver.rules` array"))?
            .as_array()
            .ok_or_else(|| format!("{ctx}: `tool.driver.rules` must be an array"))?;
        let mut ids: BTreeSet<&str> = BTreeSet::new();
        for (i, rule) in rules.iter().enumerate() {
            let rctx = format!("{ctx}.tool.driver.rules[{i}]");
            let id = expect_str(rule, "id", &rctx)?;
            if !ids.insert(id) {
                return Err(format!("{rctx}: duplicate rule id `{id}`"));
            }
        }
        n_rules += ids.len();
        let results = run
            .get("results")
            .ok_or_else(|| format!("{ctx}: missing `results` array"))?
            .as_array()
            .ok_or_else(|| format!("{ctx}: `results` must be an array"))?;
        for (i, result) in results.iter().enumerate() {
            let rctx = format!("{ctx}.results[{i}]");
            let rule_id = expect_str(result, "ruleId", &rctx)?;
            if !ids.contains(rule_id) {
                return Err(format!(
                    "{rctx}: `ruleId` `{rule_id}` does not resolve in `tool.driver.rules`"
                ));
            }
            let message = expect_str(
                result
                    .get("message")
                    .ok_or_else(|| format!("{rctx}: missing `message`"))?,
                "text",
                &format!("{rctx}.message"),
            )?;
            if message.is_empty() {
                return Err(format!("{rctx}: `message.text` must be non-empty"));
            }
            let locations = result
                .get("locations")
                .ok_or_else(|| format!("{rctx}: missing `locations` array"))?
                .as_array()
                .ok_or_else(|| format!("{rctx}: `locations` must be an array"))?;
            if locations.is_empty() {
                return Err(format!("{rctx}: `locations` must be non-empty"));
            }
            for (l, loc) in locations.iter().enumerate() {
                let lctx = format!("{rctx}.locations[{l}]");
                let phys = loc
                    .get("physicalLocation")
                    .ok_or_else(|| format!("{lctx}: missing `physicalLocation`"))?;
                let uri = expect_str(
                    phys.get("artifactLocation")
                        .ok_or_else(|| format!("{lctx}: missing `artifactLocation`"))?,
                    "uri",
                    &format!("{lctx}.artifactLocation"),
                )?;
                if uri.is_empty() {
                    return Err(format!("{lctx}: `artifactLocation.uri` must be non-empty"));
                }
                let region = phys
                    .get("region")
                    .ok_or_else(|| format!("{lctx}: missing `region`"))?;
                let start = expect_u64(region, "startLine", &format!("{lctx}.region"))?;
                if start == 0 {
                    return Err(format!("{lctx}: `region.startLine` must be positive"));
                }
            }
        }
        n_results += results.len();
    }
    Ok(format!(
        "SARIF log OK: {} run(s), {n_rules} rules, {n_results} result(s)",
        runs.len()
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

/// Validates a structured log file (JSON lines, one
/// [`ia_obs::log::LogRecord`] per line) like `--log-file` and the
/// serve flight pump append.
///
/// Each non-empty line must carry `ts_ns` (unsigned integer), `level`
/// (one of `error`/`warn`/`info`/`debug`/`trace`), a non-empty
/// `target`, `msg` and `tid`; optionally `ctx` (16 lowercase hex
/// digits), a positive `suppressed` count (the writer omits zero) and
/// a `fields` object.
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse
/// error) found, prefixed with its 1-based line number.
pub fn check_logs(text: &str) -> Result<String, String> {
    let mut records = 0usize;
    let mut ctxs: BTreeSet<String> = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ctx = format!("line {}", i + 1);
        let doc = JsonValue::parse(line).map_err(|e| format!("{ctx}: invalid JSON: {e}"))?;
        expect_u64(&doc, "ts_ns", &ctx)?;
        let level = expect_str(&doc, "level", &ctx)?;
        if !matches!(level, "error" | "warn" | "info" | "debug" | "trace") {
            return Err(format!(
                "{ctx}: `level` must be one of error/warn/info/debug/trace, got `{level}`"
            ));
        }
        let target = expect_str(&doc, "target", &ctx)?;
        if target.is_empty() {
            return Err(format!("{ctx}: `target` must be non-empty"));
        }
        expect_str(&doc, "msg", &ctx)?;
        expect_u64(&doc, "tid", &ctx)?;
        if let Some(correlation) = doc.get("ctx") {
            let hex = correlation
                .as_str()
                .ok_or_else(|| format!("{ctx}: `ctx` must be a string"))?;
            let lower_hex = |b: u8| b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
            if hex.len() != 16 || !hex.bytes().all(lower_hex) {
                return Err(format!(
                    "{ctx}: `ctx` must be 16 lowercase hex digits, got `{hex}`"
                ));
            }
            ctxs.insert(hex.to_owned());
        }
        if let Some(suppressed) = doc.get("suppressed") {
            let n = suppressed
                .as_u64()
                .ok_or_else(|| format!("{ctx}: `suppressed` must be an unsigned integer"))?;
            if n == 0 {
                return Err(format!("{ctx}: `suppressed` is omitted when zero"));
            }
        }
        if let Some(fields) = doc.get("fields") {
            if fields.as_object().is_none() {
                return Err(format!("{ctx}: `fields` must be an object"));
            }
        }
        records += 1;
    }
    if records == 0 {
        return Err("log file has no records (was logging enabled?)".to_owned());
    }
    Ok(format!(
        "log file OK: {records} record(s), {} correlation id(s)",
        ctxs.len()
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

/// Recursively validates one `ia-prof-v1` tree node, returning the
/// number of nodes in its subtree.
fn check_prof_node(node: &JsonValue, ctx: &str) -> Result<usize, String> {
    let name = expect_str(node, "name", ctx)?;
    if name.is_empty() {
        return Err(format!("{ctx}: `name` must be non-empty"));
    }
    let mut stats = [0u64; 5];
    for (slot, field) in ["calls", "total_ns", "self_ns", "min_ns", "max_ns"]
        .iter()
        .enumerate()
    {
        stats[slot] = expect_u64(node, field, ctx)?;
    }
    let [_, total, self_ns, min, max] = stats;
    if min > max {
        return Err(format!("{ctx}: `min_ns` ({min}) exceeds `max_ns` ({max})"));
    }
    if max > total {
        return Err(format!(
            "{ctx}: `max_ns` ({max}) exceeds `total_ns` ({total})"
        ));
    }
    if self_ns > total {
        return Err(format!(
            "{ctx}: `self_ns` ({self_ns}) exceeds `total_ns` ({total})"
        ));
    }
    let children = node
        .get("children")
        .ok_or_else(|| format!("{ctx}: missing `children` array"))?
        .as_array()
        .ok_or_else(|| format!("{ctx}: `children` must be an array"))?;
    let mut nodes = 1usize;
    let mut prev: Option<&str> = None;
    for (i, child) in children.iter().enumerate() {
        let cctx = format!("{ctx}.children[{i}]");
        nodes += check_prof_node(child, &cctx)?;
        // Re-read the name the recursive call just validated.
        let name = expect_str(child, "name", &cctx)?;
        match prev {
            Some(p) if p == name => {
                return Err(format!("{cctx}: duplicate sibling `{name}`"));
            }
            Some(p) if p > name => {
                return Err(format!(
                    "{cctx}: siblings out of order (`{name}` after `{p}`); \
                     the profile tree sorts children by name"
                ));
            }
            _ => {}
        }
        prev = Some(name);
    }
    Ok(nodes)
}

/// Validates a hierarchical profile artifact — the `ia-prof-v1` JSON
/// document (`--prof-out FILE.json`, `GET /debug/prof`) or the
/// folded-stack text (`--prof-out FILE.folded`) — auto-detected by the
/// leading `{`.
///
/// The JSON form must carry `schema: "ia-prof-v1"` and a non-empty
/// `roots` forest where every node has a non-empty `name`, exact-`u64`
/// `calls`/`total_ns`/`self_ns`/`min_ns`/`max_ns` statistics that
/// satisfy `min_ns <= max_ns <= total_ns` and `self_ns <= total_ns`,
/// and children sorted by name with no duplicate siblings. The folded
/// form is run through [`ia_obs::prof::Profile::from_folded`] — the
/// same parser the exporter round-trips through — which enforces the
/// `stack value` line shape, `;`-separated non-empty frames, exact
/// `u64` self times and no duplicate stacks; re-emitting the parsed
/// profile must then reproduce the input byte for byte (canonical
/// sibling order).
///
/// Returns a one-line summary on success.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse
/// error) found.
pub fn check_prof(text: &str) -> Result<String, String> {
    let trimmed = text.trim();
    if trimmed.starts_with('{') {
        let doc = JsonValue::parse(trimmed).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = expect_str(&doc, "schema", "profile")?;
        if schema != "ia-prof-v1" {
            return Err(format!(
                "profile: `schema` must be `ia-prof-v1`, got `{schema}`"
            ));
        }
        let roots = doc
            .get("roots")
            .ok_or("profile: missing `roots` array")?
            .as_array()
            .ok_or("profile: `roots` must be an array")?;
        if roots.is_empty() {
            return Err("profile: no spans recorded (was the collector enabled?)".to_owned());
        }
        let mut nodes = 0usize;
        let mut prev: Option<&str> = None;
        for (i, root) in roots.iter().enumerate() {
            let ctx = format!("roots[{i}]");
            nodes += check_prof_node(root, &ctx)?;
            let name = expect_str(root, "name", &ctx)?;
            match prev {
                Some(p) if p == name => {
                    return Err(format!("{ctx}: duplicate root `{name}`"));
                }
                Some(p) if p > name => {
                    return Err(format!(
                        "{ctx}: roots out of order (`{name}` after `{p}`); \
                         the profile tree sorts spans by name"
                    ));
                }
                _ => {}
            }
            prev = Some(name);
        }
        Ok(format!(
            "profile OK: {} root span(s), {nodes} node(s)",
            roots.len()
        ))
    } else {
        let profile =
            ia_obs::prof::Profile::from_folded(text).map_err(|e| format!("folded: {e}"))?;
        if profile.is_empty() {
            return Err("folded: no stacks (was the collector enabled?)".to_owned());
        }
        if profile.to_folded() != text {
            return Err(
                "folded: not in canonical form (re-emitting the parsed profile \
                 differs; stacks must be in depth-first order with siblings \
                 sorted by name and a trailing newline)"
                    .to_owned(),
            );
        }
        Ok(format!(
            "folded profile OK: {} stack line(s), {} root span(s)",
            text.lines().count(),
            profile.roots.len()
        ))
    }
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

    #[test]
    fn emitted_sarif_validates_empty_and_nonempty() {
        use crate::diag::Diagnostic;
        use std::path::PathBuf;

        let clean = crate::sarif::render_sarif(&[]);
        let summary = check_sarif(&clean).unwrap();
        assert!(summary.contains("0 result(s)"), "{summary}");

        let diags = vec![
            Diagnostic::new(
                PathBuf::from("crates/core/src/dp.rs"),
                12,
                "no-panic",
                "`.unwrap()` in non-test code".to_owned(),
            ),
            Diagnostic::new(
                PathBuf::from("crates/serve/src/lib.rs"),
                3,
                "lock-discipline",
                "guard held across `\"blocking\"` I/O".to_owned(),
            ),
        ];
        let log = crate::sarif::render_sarif(&diags);
        let summary = check_sarif(&log).unwrap();
        assert!(summary.contains("1 run(s)"), "{summary}");
        assert!(summary.contains("2 result(s)"), "{summary}");
        // Every rule in the registry is exported to the driver table.
        let n_rules = crate::registry::RULES.len() + crate::registry::META_RULES.len();
        assert!(summary.contains(&format!("{n_rules} rules")), "{summary}");
    }

    #[test]
    fn sarif_rejects_bad_shapes() {
        assert!(check_sarif("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(check_sarif(r#"{"version":"2.0.0","runs":[]}"#)
            .unwrap_err()
            .contains("2.1.0"));
        assert!(check_sarif(r#"{"version":"2.1.0","runs":[]}"#)
            .unwrap_err()
            .contains("non-empty"));
        // A result whose ruleId is missing from the driver table.
        let unresolved = r#"{"version":"2.1.0","runs":[{
            "tool":{"driver":{"name":"ia-lint","rules":[{"id":"no-panic"}]}},
            "results":[{"ruleId":"ghost","level":"error",
              "message":{"text":"m"},
              "locations":[{"physicalLocation":{
                "artifactLocation":{"uri":"a.rs"},
                "region":{"startLine":1}}}]}]}]}"#;
        assert!(check_sarif(unresolved)
            .unwrap_err()
            .contains("does not resolve"));
        // startLine must be 1-indexed.
        let zero_line = r#"{"version":"2.1.0","runs":[{
            "tool":{"driver":{"name":"ia-lint","rules":[{"id":"no-panic"}]}},
            "results":[{"ruleId":"no-panic","level":"error",
              "message":{"text":"m"},
              "locations":[{"physicalLocation":{
                "artifactLocation":{"uri":"a.rs"},
                "region":{"startLine":0}}}]}]}]}"#;
        assert!(check_sarif(zero_line).unwrap_err().contains("positive"));
        let dup = r#"{"version":"2.1.0","runs":[{
            "tool":{"driver":{"name":"ia-lint","rules":[{"id":"x"},{"id":"x"}]}},
            "results":[]}]}"#;
        assert!(check_sarif(dup).unwrap_err().contains("duplicate"));
    }

    const GOOD_LOGS: &str = concat!(
        "{\"ts_ns\":42,\"level\":\"info\",\"target\":\"serve.request\",",
        "\"msg\":\"handled\",\"tid\":7,\"ctx\":\"00000000000000a1\",",
        "\"suppressed\":2,\"fields\":{\"status\":200}}\n",
        "{\"ts_ns\":43,\"level\":\"debug\",\"target\":\"dse.round\",",
        "\"msg\":\"round executed\",\"tid\":1}\n",
    );

    #[test]
    fn good_logs_pass() {
        let summary = check_logs(GOOD_LOGS).unwrap();
        assert!(summary.contains("2 record(s)"), "{summary}");
        assert!(summary.contains("1 correlation id(s)"), "{summary}");
    }

    #[test]
    fn logs_reject_bad_shapes() {
        assert!(check_logs("").unwrap_err().contains("no records"));
        assert!(check_logs("not json\n").unwrap_err().contains("line 1"));
        let bad_level = r#"{"ts_ns":1,"level":"fatal","target":"t","msg":"m","tid":1}"#;
        assert!(check_logs(bad_level).unwrap_err().contains("fatal"));
        let bad_ctx = r#"{"ts_ns":1,"level":"info","target":"t","msg":"m","tid":1,"ctx":"XY"}"#;
        assert!(check_logs(bad_ctx)
            .unwrap_err()
            .contains("16 lowercase hex"));
        let zero_sup =
            r#"{"ts_ns":1,"level":"info","target":"t","msg":"m","tid":1,"suppressed":0}"#;
        assert!(check_logs(zero_sup).unwrap_err().contains("omitted"));
        let empty_target = r#"{"ts_ns":1,"level":"info","target":"","msg":"m","tid":1}"#;
        assert!(check_logs(empty_target).unwrap_err().contains("non-empty"));
        // The line number in the error is 1-based and skips blanks.
        let second_bad = "\n{\"ts_ns\":1,\"level\":\"info\",\"target\":\"t\",\
                          \"msg\":\"m\",\"tid\":1}\nbroken";
        assert!(check_logs(second_bad).unwrap_err().contains("line 3"));
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

    const GOOD_PROF: &str = r#"{"schema":"ia-prof-v1","roots":[
        {"name":"dp.solve","calls":1,"total_ns":1000,"self_ns":150,
         "min_ns":1000,"max_ns":1000,"children":[
           {"name":"expand","calls":3,"total_ns":600,"self_ns":600,
            "min_ns":100,"max_ns":300,"children":[]},
           {"name":"reconstruct","calls":1,"total_ns":250,"self_ns":250,
            "min_ns":250,"max_ns":250,"children":[]}]},
        {"name":"sweep.k","calls":1,"total_ns":40,"self_ns":40,
         "min_ns":40,"max_ns":40,"children":[]}]}"#;

    #[test]
    fn good_prof_json_passes() {
        let summary = check_prof(GOOD_PROF).unwrap();
        assert!(summary.contains("2 root span(s)"), "{summary}");
        assert!(summary.contains("4 node(s)"), "{summary}");
        // Extra top-level fields (the serve `window` flag) are fine.
        let windowed = GOOD_PROF.replacen("\"ia-prof-v1\",", "\"ia-prof-v1\",\"window\":true,", 1);
        check_prof(&windowed).unwrap();
    }

    #[test]
    fn prof_json_rejects_bad_shapes() {
        assert!(check_prof("{not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(check_prof(r#"{"schema":"ia-prof-v2","roots":[]}"#)
            .unwrap_err()
            .contains("ia-prof-v1"));
        assert!(check_prof(r#"{"schema":"ia-prof-v1","roots":[]}"#)
            .unwrap_err()
            .contains("collector enabled"));
        let node = |name: &str, stats: &str| {
            format!(
                r#"{{"schema":"ia-prof-v1","roots":[{{"name":"{name}",{stats},"children":[]}}]}}"#
            )
        };
        let inexact = node(
            "a",
            r#""calls":1.5,"total_ns":1,"self_ns":1,"min_ns":1,"max_ns":1"#,
        );
        assert!(check_prof(&inexact)
            .unwrap_err()
            .contains("unsigned integer"));
        let min_over_max = node(
            "a",
            r#""calls":1,"total_ns":9,"self_ns":9,"min_ns":5,"max_ns":3"#,
        );
        assert!(check_prof(&min_over_max).unwrap_err().contains("min_ns"));
        let self_over_total = node(
            "a",
            r#""calls":1,"total_ns":9,"self_ns":10,"min_ns":1,"max_ns":9"#,
        );
        assert!(check_prof(&self_over_total)
            .unwrap_err()
            .contains("self_ns"));
        let nameless = node(
            "",
            r#""calls":1,"total_ns":1,"self_ns":1,"min_ns":1,"max_ns":1"#,
        );
        assert!(check_prof(&nameless).unwrap_err().contains("non-empty"));
    }

    #[test]
    fn prof_json_rejects_duplicate_and_unsorted_siblings() {
        let stats = r#""calls":1,"total_ns":1,"self_ns":1,"min_ns":1,"max_ns":1,"children":[]"#;
        let dup = format!(
            r#"{{"schema":"ia-prof-v1","roots":[{{"name":"a",{stats}}},{{"name":"a",{stats}}}]}}"#
        );
        assert!(check_prof(&dup).unwrap_err().contains("duplicate root"));
        let unsorted = format!(
            r#"{{"schema":"ia-prof-v1","roots":[{{"name":"b",{stats}}},{{"name":"a",{stats}}}]}}"#
        );
        assert!(check_prof(&unsorted).unwrap_err().contains("out of order"));
        let dup_children = format!(
            r#"{{"schema":"ia-prof-v1","roots":[{{"name":"p","calls":1,"total_ns":2,
                "self_ns":0,"min_ns":2,"max_ns":2,"children":[
                {{"name":"c",{stats}}},{{"name":"c",{stats}}}]}}]}}"#
        );
        assert!(check_prof(&dup_children)
            .unwrap_err()
            .contains("duplicate sibling"));
    }

    #[test]
    fn prof_validates_the_emitted_folded_form() {
        let folded = "dp.solve 150\ndp.solve;expand 150\n\
                      dp.solve;expand;front.merge 450\ndp.solve;reconstruct 250\n\
                      sweep.k 40\n";
        let summary = check_prof(folded).unwrap();
        assert!(summary.contains("5 stack line(s)"), "{summary}");
        assert!(summary.contains("2 root span(s)"), "{summary}");
    }

    #[test]
    fn prof_rejects_malformed_and_non_canonical_folded() {
        assert!(check_prof("no-value\n")
            .unwrap_err()
            .contains("stack value"));
        assert!(check_prof("a;b 1.5\n")
            .unwrap_err()
            .contains("not an exact u64"));
        assert!(check_prof("a;;b 1\n").unwrap_err().contains("empty frame"));
        assert!(check_prof("a;b 1\na;b 2\n")
            .unwrap_err()
            .contains("duplicate stack"));
        // Siblings out of canonical (name-sorted) order.
        assert!(check_prof("b 1\na 2\n").unwrap_err().contains("canonical"));
        // A trailing newline is part of the canonical form.
        assert!(check_prof("a 1").unwrap_err().contains("canonical"));
    }

    #[test]
    fn prof_round_trips_the_real_exporter() {
        use ia_obs::{Snapshot, SpanStat};
        let mut snap = Snapshot::default();
        snap.spans.insert(
            "dp.solve".to_owned(),
            SpanStat {
                calls: 2,
                total_ns: 900,
                min_ns: 400,
                max_ns: 500,
            },
        );
        snap.spans.insert(
            "dp.solve/expand".to_owned(),
            SpanStat {
                calls: 6,
                total_ns: 700,
                min_ns: 50,
                max_ns: 200,
            },
        );
        let profile = ia_obs::prof::Profile::from_snapshot(&snap);
        check_prof(&profile.to_json_string()).unwrap();
        check_prof(&profile.to_folded()).unwrap();
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
