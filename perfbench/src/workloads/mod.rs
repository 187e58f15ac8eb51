//! The four workloads and what they share: the layer-by-layer solve the
//! traced runs time, and the exact `dp.*` counter pass.

mod corpus;
mod rank;
mod serve;
mod sweep;

use ia_arch::Architecture;
use ia_rank::canon::BoundConfig;
use ia_rank::{RankProblem, RankProblemBuilder};
use ia_tech::TechnologyNode;
use ia_units::{Frequency, Permittivity};
use ia_wld::{coarsen, WldSpec};

use crate::{stats, trace, Ctx, Report};

pub(crate) fn run(workload: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match workload {
        "rank-2m-90nm" => rank::run(ctx, report),
        "table4-sweep" => sweep::run(ctx, report),
        "serve-mixed" => serve::run(ctx, report),
        "corpus-bookshelf" => corpus::run(ctx, report),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Applies a configuration's knobs to a builder, the way the CLI and
/// the serve/dse layers bind them.
fn knobs<'a>(config: &BoundConfig, builder: RankProblemBuilder<'a>) -> RankProblemBuilder<'a> {
    let mut builder = builder
        .bunch_size(config.bunch)
        .clock(Frequency::from_megahertz(config.clock_mhz))
        .repeater_fraction(config.fraction)
        .miller_factor(config.miller);
    if let Some(k) = config.k {
        builder = builder.permittivity(Permittivity::from_relative(k));
    }
    builder
}

/// Input→rank through the builder's own WLD generation, as
/// `iarank rank` runs it.
fn lower(
    config: &BoundConfig,
    node: &TechnologyNode,
    arch: &Architecture,
) -> Result<RankProblem, String> {
    let spec = WldSpec::new(config.gates).map_err(err)?;
    knobs(config, RankProblem::builder(node, arch).wld_spec(spec))
        .build()
        .map_err(err)
}

/// The same lowering split at its layer boundaries, one span each:
/// WLD generation, coarsening, and instance lowering from the coarse
/// WLD (RC extraction, die sizing and repeater planning run inside it).
fn lower_by_layer(
    config: &BoundConfig,
    node: &TechnologyNode,
    arch: &Architecture,
    iter: u64,
) -> Result<RankProblem, String> {
    let wld = {
        let _s = trace::span("wld.generate", iter);
        WldSpec::new(config.gates).map_err(err)?.generate()
    };
    let coarse = {
        let _s = trace::span("wld.coarsen", iter);
        coarsen::bunch(&wld, config.bunch).map_err(err)?
    };
    let _s = trace::span("core.lower", iter);
    knobs(
        config,
        RankProblem::builder(node, arch)
            .coarse_wld(coarse)
            .gates(config.gates),
    )
    .build()
    .map_err(err)
}

/// The counters of one untimed collector-on pass over `work`, read
/// through `ia_obs::snapshot()`, reported as `core.dp.*`. Counters the
/// program no longer emits are listed as absent, not failed.
fn dp_counters(
    report: &mut Report,
    work: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    ia_obs::set_enabled(true);
    ia_obs::reset();
    let outcome = work();
    let snap = ia_obs::snapshot();
    ia_obs::set_enabled(false);
    ia_obs::reset();
    outcome?;
    let mut absent = Vec::new();
    let mut count = |metric: &'static str, counter: &str, report: &mut Report| {
        let value = snap.counter(counter);
        match value {
            Some(v) => report.metric(metric, v as f64),
            None => absent.push(counter.to_owned()),
        }
        value
    };
    count("core.dp.states", "dp.states", report);
    let accepted = count("core.dp.front_insertions", "dp.front_insertions", report);
    count("core.dp.front_pruned", "dp.front_pruned", report);
    count("core.dp.front_max", "dp.front_max", report);
    count("core.dp.memo_hits", "dp.memo_hits", report);
    // Candidate inserts: the `dp.candidates` counter once the solver
    // has one, the `front.merge` span's call count until then.
    let merges: u64 = snap
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("front.merge"))
        .map(|(_, s)| s.calls)
        .sum();
    let candidates = snap
        .counter("dp.candidates")
        .or((merges > 0).then_some(merges));
    match candidates {
        Some(c) => report.metric("core.dp.candidates", c as f64),
        None => absent.push("dp.candidates".to_owned()),
    }
    if let (Some(a), Some(c)) = (accepted, candidates) {
        report.metric("core.dp.accept_ratio", a as f64 / c as f64);
    }
    if !absent.is_empty() {
        report.line(format!("absent counters: {}", absent.join(", ")));
    }
    Ok(())
}

/// Fastest per-iteration self time of every span name in `names`, in
/// the given unit scale (1e-6 for ms, 1e-3 for us), each iteration's
/// total divided by `per`.
fn layer_fastest(
    report: &mut Report,
    spans: &[trace::SpanRecord],
    names: &[(&'static str, &'static str, f64)],
    per: f64,
) {
    let selfs = trace::self_by_name_iter(spans);
    for &(span, metric, scale) in names {
        let samples: Vec<f64> = selfs
            .iter()
            .filter(|((name, _), _)| *name == span)
            .map(|(_, &ns)| ns as f64 * scale / per)
            .collect();
        if let Some(v) = stats::fastest(&samples) {
            report.metric(metric, v);
        }
    }
}

/// Share of the `root` spans' total duration covered by the self times
/// of the `layers` spans.
fn coverage(spans: &[trace::SpanRecord], root: &str, layers: &[&str]) -> f64 {
    let selfs = trace::self_times(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(trace::SpanRecord::duration_ns)
        .sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| layers.contains(&s.name))
        .map(|s| selfs.get(&s.id).copied().unwrap_or(0))
        .sum();
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Writes the traced run's spans once, at the end, next to the
/// working directory's other benchmark output.
fn write_spans(ctx: &Ctx, workload: &str, spans: &[trace::SpanRecord], report: &mut Report) {
    let dir = std::path::Path::new(".perfbench_out");
    let path = dir.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json_lines(spans)));
    match written {
        Ok(()) => report.line(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.line(format!("spans: could not write {}: {e}", path.display())),
    }
}

/// The fastest, in seconds, of `rounds` timed calls of `f` (called
/// with the call number).
fn fastest_of_calls(
    rounds: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let t = std::time::Instant::now();
        f(i)?;
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::fastest(&samples).ok_or_else(|| "no calls timed".to_owned())
}

/// `traced / untraced - 1` on the fastest of two sample sets.
fn overhead(untraced: &[f64], traced: &[f64]) -> Option<f64> {
    Some(stats::fastest(traced)? / stats::fastest(untraced)? - 1.0)
}
