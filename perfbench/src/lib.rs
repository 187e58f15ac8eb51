//! The repository benchmark: one command runs a named workload with a
//! seed, times the program from outside through the public entry
//! points of its layers, checks every output, and prints each metric by
//! name with its unit. See `perfbench/README.md`.

pub mod host;
pub mod loadgen;
pub mod stats;
pub mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ia_obs::json::JsonValue;

/// `BENCHMARK.json` at the repository root: the workloads, and every
/// metric with its unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `name` and `unit` (empty when it has none) of each entry of the
/// list `key` in `BENCHMARK.json`: `workloads`, `end_to_end` or
/// `per_layer`.
///
/// # Errors
///
/// When the file does not parse or the list is missing or malformed.
pub fn declared(key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = JsonValue::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no list `{key}`"))?;
    list.iter()
        .map(|entry| {
            let field = |f: &str| entry.get(f).and_then(JsonValue::as_str).map(str::to_owned);
            let name = field("name")
                .ok_or_else(|| format!("BENCHMARK.json: an entry of `{key}` has no name"))?;
            Ok((name, field("unit").unwrap_or_default()))
        })
        .collect()
}

/// What one invocation was asked to do.
pub(crate) struct Ctx {
    /// The workload's seed; the same seed gives the same inputs.
    pub(crate) seed: u64,
    /// How long the run measures.
    pub(crate) seconds: Duration,
    /// Whether this is the traced run.
    pub(crate) trace: bool,
    /// Scratch directory inside the working directory, removed on exit.
    pub(crate) scratch: PathBuf,
    /// When the process started measuring anything at all.
    pub(crate) started: Instant,
}

/// The run's result: checked operations, metrics, and lines for readers.
#[derive(Default)]
pub(crate) struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// Records one checked operation; a wrong, refused or failed one
    /// counts against `failed` and its description is printed.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.lines.push(format!("MISMATCH: {}", what()));
            }
        }
    }

    /// Sets a metric (a name `BENCHMARK.json` declares).
    pub(crate) fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a line for readers.
    pub(crate) fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Adds a named figure for readers, `name: value unit`.
    pub(crate) fn figure(&mut self, name: &str, unit: &str, value: f64) {
        self.lines.push(format!("{name}: {value:.4} {unit}"));
    }

    /// Adds a summary line for readers, when there are samples, and
    /// the samples themselves in run order when there are few.
    pub(crate) fn summary(&mut self, name: &str, unit: &str, samples: &[f64]) {
        if let Some(s) = stats::Summary::of(samples) {
            self.lines.push(s.line(name, unit));
        }
        if !samples.is_empty() && samples.len() <= 100 {
            let list: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
            self.lines
                .push(format!("{name} samples ({unit}): {}", list.join(" ")));
        }
    }

    /// The lines for readers, then the result line with every metric
    /// in `wanted` (name and unit).
    fn render(&self, wanted: &[(String, String)], trace: bool) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let failed_frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        out.push_str(&format!(
            "failed_frac: {failed_frac} ratio ({} of {} operations)\n",
            self.failed, self.attempted
        ));
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut not_reported = Vec::new();
        let metrics: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name.as_str()) {
                    Some(v) if v.is_finite() => *v,
                    Some(_) => {
                        correct = false;
                        0.0
                    }
                    None => {
                        not_reported.push(name.as_str());
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        if !not_reported.is_empty() {
            out.push_str(&format!(
                "not exercised here or absent from the program (reported as 0): {}\n",
                not_reported.join(", ")
            ));
        }
        if !trace && !not_reported.is_empty() {
            correct = false;
        }
        out.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            metrics.join(", ")
        ));
        out
    }
}

/// The set-up repetitions of one run. The first builds the state the
/// run measures and is timed from process start, so it also carries
/// process start-up. The others build a state that is dropped at once;
/// they run between timed iterations, spread over the measurement
/// window, or after it, so that at least one of them is likely to fall
/// in a fast phase of the host.
pub(crate) struct Setups<F> {
    setup: F,
    reps: usize,
    times: Vec<f64>,
}

impl<S, F: FnMut(usize) -> Result<S, String>> Setups<F> {
    /// Runs the first of `reps` repetitions of `setup` (called with the
    /// repetition number) and returns its state.
    pub(crate) fn first(ctx: &Ctx, reps: usize, mut setup: F) -> Result<(S, Self), String> {
        let state = setup(0)?;
        let times = vec![ctx.started.elapsed().as_secs_f64()];
        Ok((state, Setups { setup, reps, times }))
    }

    fn one(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let state = (self.setup)(self.times.len())?;
        self.times.push(t.elapsed().as_secs_f64());
        drop(state);
        Ok(())
    }

    /// Runs the repetitions due `elapsed` into a `window`: repetition
    /// `k` of `n` is due at `k / n` of it.
    pub(crate) fn tick(&mut self, elapsed: Duration, window: Duration) -> Result<(), String> {
        while self.times.len() < self.reps
            && elapsed >= window.mul_f64(self.times.len() as f64 / self.reps as f64)
        {
            self.one()?;
        }
        Ok(())
    }

    /// Runs the repetitions still owed and returns every duration in
    /// seconds.
    pub(crate) fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.times.len() < self.reps {
            self.one()?;
        }
        Ok(self.times)
    }
}

/// Calls `step` with iteration numbers until `seconds` have passed and
/// at least `min` iterations ran, and `between` with the elapsed time
/// after each iteration; returns each iteration's duration in seconds.
pub(crate) fn measure(
    seconds: Duration,
    min: usize,
    mut step: impl FnMut(u64) -> Result<(), String>,
    mut between: impl FnMut(Duration) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0u64;
    while samples.len() < min || start.elapsed() < seconds {
        let t = Instant::now();
        step(i)?;
        samples.push(t.elapsed().as_secs_f64());
        between(start.elapsed())?;
        i += 1;
    }
    Ok(samples)
}

/// Records `setup_s`, the fastest set-up repetition. Set-up is
/// deterministic work like the timed iterations, so its median moves
/// with the share of the run the host spent in its slow phase, while
/// the fastest repetition moves only when every one of them was slow.
pub(crate) fn report_setup(report: &mut Report, times: &[f64]) {
    if let Some(m) = stats::fastest(times) {
        report.metric("setup_s", m);
    }
    report.summary("setup", "s", times);
}

/// Peak resident set of this process in MiB (`VmHWM`).
#[must_use]
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Records the host-phase indicator's samples.
pub(crate) fn report_host(report: &mut Report, samples: &[f64]) {
    let slow = host::slow_frac(samples);
    report.metric("host.slow_frac", slow);
    if let Some(median) = stats::median(samples) {
        report.metric("host.probe_us", median);
    }
    report.line(format!(
        "host.slow_frac: {slow:.3} of {} probe samples (probe median {:.1} us)",
        samples.len(),
        stats::median(samples).unwrap_or(0.0)
    ));
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String], workloads: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            workloads.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The benchmark's entry point; returns the process exit code.
pub fn main_with_args(args: Vec<String>) -> i32 {
    let started = Instant::now();
    let workloads: Vec<String> = match declared("workloads") {
        Ok(list) => list.into_iter().map(|(name, _)| name).collect(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let args = match parse_args(&args, &workloads) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads.join("|")
            );
            return 2;
        }
    };
    let wanted = match declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let scratch = PathBuf::from(".perfbench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return 1;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        scratch,
        started,
    };
    if ctx.trace {
        trace::enable();
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        ctx.seed,
        args.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut report = Report::default();
    let result = workloads::run(&args.workload, &ctx, &mut report);
    if let Some(rss) = peak_rss_mb() {
        report.metric("peak_rss_mb", rss);
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    match result {
        Ok(()) => {
            print!("{}", report.render(&wanted, ctx.trace));
            0
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            1
        }
    }
}
