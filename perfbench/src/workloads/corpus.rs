//! `corpus-bookshelf`: a seeded synthetic Bookshelf design, generated
//! in set-up, then cold `ia_corpus::run` passes, each into a fresh run
//! root: `measured`, `davis`, `hefeida-site`, `hefeida-occupancy` × γ ∈
//! {1.0, 1.5, 2.0} = 12 points, 2 workers. The only workload where
//! Bookshelf ingestion, the Hefeida backends and the degradation
//! transform run. The design is sized so every backend stays routable
//! (rank > 0) at every γ.

use std::path::Path;

use ia_corpus::{Backend, CorpusSpec, RunOptions};
use ia_netlist::{bookshelf, BookshelfPaths, NetModel, SyntheticDesign};
use ia_rank::canon::BoundConfig;
use ia_wld::{Degradation, DegradeKind, RentParameters, Wld, WldModel};

use super::{err, fastest_of_calls, overhead};
use crate::{host, measure, report_host, report_setup, stats, trace, Ctx, Report, Setups};

const CELLS: u64 = 200_000;
const NETS: u64 = 20_000;
const BUNCH: u64 = 2_000;
const GAMMAS: [f64; 3] = [1.0, 1.5, 2.0];
const BACKENDS: [&str; 4] = ["measured", "davis", "hefeida-site", "hefeida-occupancy"];
const POINTS: usize = 12;

/// Per pass: `(backend label, γ, rank)` per point.
type PassResult = Vec<(String, f64, u64)>;

fn spec_text(paths: &BookshelfPaths) -> String {
    let quoted = |p: &Path| format!("\"{}\"", p.display());
    format!(
        r#"{{"name": "perfbench-corpus", "workers": 2, "base": {{"bunch": {BUNCH}}},
            "backends": [{}], "degrade": [{}],
            "designs": [{{"name": "bench", "kind": "bookshelf", "nodes": {}, "nets": {}, "pl": {}}}]}}"#,
        BACKENDS.map(|b| format!("\"{b}\"")).join(", "),
        GAMMAS.map(|g| format!("{g:.1}")).join(", "),
        quoted(&paths.nodes),
        quoted(&paths.nets),
        quoted(&paths.pl),
    )
}

fn pass(spec: &CorpusSpec, root: &Path) -> Result<PassResult, String> {
    let outcome = ia_corpus::run(spec, root, &RunOptions::default()).map_err(err)?;
    Ok(outcome
        .points
        .iter()
        .map(|p| (p.backend.label().to_owned(), p.gamma, p.solve.rank))
        .collect())
}

/// Expected ranks: each point solved directly from the ingested or
/// modeled distribution with `BoundConfig::solve_with_wld`.
fn expected(paths: &BookshelfPaths) -> Result<Vec<(String, f64, u64)>, String> {
    let ingested = bookshelf::ingest_files(&paths.nodes, &paths.nets, &paths.pl, NetModel::Star)
        .map_err(err)?;
    let mut out = Vec::new();
    for label in BACKENDS {
        let backend = Backend::parse(label).map_err(err)?;
        for gamma in GAMMAS {
            let wld: Wld = match backend {
                Backend::Measured => ingested.wld.clone(),
                Backend::Model(model) => model
                    .generate(ingested.cells, RentParameters::default())
                    .map_err(err)?,
            };
            let config = BoundConfig {
                gates: ingested.cells,
                bunch: BUNCH,
                degrade: gamma,
                ..BoundConfig::default()
            };
            let rank = config.solve_with_wld(wld).map_err(err)?.rank;
            out.push((label.to_owned(), gamma, rank));
        }
    }
    Ok(out)
}

fn check(report: &mut Report, expected: &[(String, f64, u64)], result: &PassResult) {
    report.check(result.len() == POINTS, || {
        format!("a pass returned {} points, expected {POINTS}", result.len())
    });
    for (label, gamma, want) in expected {
        let got = result
            .iter()
            .find(|(l, g, _)| l == label && g == gamma)
            .map(|&(_, _, rank)| rank);
        report.check(got == Some(*want) && *want > 0, || {
            format!("{label} at γ {gamma}: rank {got:?}, expected {want} (> 0)")
        });
    }
}

pub(super) fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up: generate the design's Bookshelf files and parse the spec.
    let ((paths, spec), mut setups) = Setups::first(ctx, 15, |rep| {
        let paths = SyntheticDesign::new(CELLS, NETS, ctx.seed)
            .map_err(err)?
            .write_to(&ctx.scratch.join(format!("design-{rep}")), "bench")
            .map_err(err)?;
        let spec = CorpusSpec::parse_str(&spec_text(&paths)).map_err(err)?;
        Ok((paths, spec))
    })?;

    let probe = host::Probe::start();
    let mut results = Vec::new();
    let mut run_pass = |i: u64, traced: bool| -> Result<(), String> {
        let root = ctx.scratch.join(format!("runs-{i}-{}", u8::from(traced)));
        let result = {
            let _s = traced.then(|| trace::span("corpus.pass", i));
            pass(&spec, &root)?
        };
        results.push(result);
        Ok(())
    };
    let window = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let samples = measure(
        window,
        3,
        |i| run_pass(i, false),
        |elapsed| setups.tick(elapsed, window),
    )?;
    let traced = if ctx.trace {
        measure(ctx.seconds / 2, 3, |i| run_pass(i, true), |_| Ok(()))?
    } else {
        Vec::new()
    };
    report_host(report, &probe.finish());
    report_setup(report, &setups.finish()?);
    let want = expected(&paths)?;
    for result in &results {
        check(report, &want, result);
    }
    let ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
    report.summary("pass (12 points)", "ms", &ms);
    if let Some(q) = stats::fastest(&samples) {
        report.metric("latency_ms", q * 1e3);
        report.metric("points_per_s", POINTS as f64 / q);
        report.line(format!(
            "points_per_s: {:.2} at the fastest pass",
            POINTS as f64 / q
        ));
    }
    if !ctx.trace {
        return Ok(());
    }

    let spans = trace::take();
    if let Some(o) = overhead(&samples, &traced) {
        report.metric("trace.overhead_frac", o);
    }
    super::write_spans(ctx, "corpus-bookshelf", &spans, report);
    report.metric("corpus.points_solved", POINTS as f64);
    layers(report, &paths, stats::fastest(&samples).unwrap_or(0.0))
}

/// The corpus layers by separate calls on the same inputs: streaming
/// ingestion of the design, the Hefeida models and the degradation
/// transform.
fn layers(report: &mut Report, paths: &BookshelfPaths, pass_s: f64) -> Result<(), String> {
    let mut last = None;
    let ingest_ms = 1e3
        * fastest_of_calls(5, |_| {
            last = Some(
                bookshelf::ingest_files(&paths.nodes, &paths.nets, &paths.pl, NetModel::Star)
                    .map_err(err)?,
            );
            Ok(())
        })?;
    let ingested = last.ok_or("no ingest ran")?;
    let bytes: u64 = [&paths.nodes, &paths.nets, &paths.pl]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    report.metric("netlist.ingest_ms", ingest_ms);
    report.metric(
        "netlist.ingest_mb_per_s",
        bytes as f64 / 1e6 / (ingest_ms / 1e3),
    );
    report.metric("netlist.nets", ingested.nets as f64);
    report.metric("netlist.pins", ingested.pins as f64);
    report.metric("corpus.rest_ms", pass_s * 1e3 - ingest_ms);

    let mut model_ms = 0.0;
    for model in [WldModel::HefeidaSite, WldModel::HefeidaOccupancy] {
        model_ms += 1e3
            * fastest_of_calls(5, |_| {
                std::hint::black_box(
                    model
                        .generate(ingested.cells, RentParameters::default())
                        .map_err(err)?,
                );
                Ok(())
            })?;
    }
    report.metric("wld.model_ms", model_ms / 2.0);

    let threshold = ia_units::convert::f64_to_u64_saturating((ingested.cells as f64).sqrt());
    let mut degrade_ms = 0.0;
    for gamma in &GAMMAS[1..] {
        let d =
            Degradation::from_gamma(DegradeKind::TailStretch, *gamma, threshold).map_err(err)?;
        degrade_ms += 1e3
            * fastest_of_calls(5, |_| {
                std::hint::black_box(d.apply(&ingested.wld).map_err(err)?);
                Ok(())
            })?;
    }
    report.metric("wld.degrade_ms", degrade_ms / (GAMMAS.len() - 1) as f64);
    Ok(())
}
