//! `table4-sweep`: the paper's Table-4 columns at 1M gates / 130 nm —
//! K 22, M 21, C 13, R 5 = 61 points per pass. Each column is one
//! `ia_dse::explore` spec whose axis lists no `values`, so it takes the
//! knob's paper grid; 2 workers, no cache, collector off. Passes
//! repeat. Seed-independent: the paper fixes the grid.

use std::time::Instant;

use ia_arch::DieModel;
use ia_delay::{
    plan_insertion, RepeatedWireModel, StageCharging, SwitchingConstants, TargetDelayModel,
};
use ia_dse::{explore, DseError, ExperimentSpec, Point, PointSolver, RunOptions};
use ia_rank::canon::{BindError, BoundConfig};
use ia_rank::sweep::{CachedSolve, NoCache};
use ia_rc::{ExtractionOptions, Extractor};
use ia_units::{Frequency, Permittivity};
use ia_wld::{coarsen, WldSpec};

use super::{
    coverage, dp_counters, err, layer_fastest, lower, lower_by_layer, overhead, write_spans,
};
use crate::{host, measure, report_host, report_setup, stats, trace, Ctx, Report, Setups};

/// Each column's knob and its paper grid with the rank the seed commit
/// computes at every value (C in MHz, as dse specs spell it).
const COLUMNS: [(&str, &[(f64, u64)]); 4] = [
    (
        "k",
        &[
            (3.9, 114_255),
            (3.8, 114_255),
            (3.7, 114_255),
            (3.6, 118_129),
            (3.5, 118_129),
            (3.4, 122_269),
            (3.3, 122_269),
            (3.2, 122_269),
            (3.1, 126_705),
            (3.0, 126_705),
            (2.9, 131_470),
            (2.8, 131_470),
            (2.7, 136_604),
            (2.6, 136_604),
            (2.5, 142_152),
            (2.4, 142_152),
            (2.3, 148_168),
            (2.2, 148_168),
            (2.1, 154_716),
            (2.0, 154_716),
            (1.9, 161_873),
            (1.8, 161_873),
        ],
    ),
    (
        "m",
        &[
            (2.00, 114_255),
            (1.95, 114_255),
            (1.90, 114_255),
            (1.85, 114_255),
            (1.80, 118_129),
            (1.75, 118_129),
            (1.70, 118_129),
            (1.65, 118_129),
            (1.60, 122_269),
            (1.55, 122_269),
            (1.50, 122_269),
            (1.45, 126_705),
            (1.40, 126_705),
            (1.35, 126_705),
            (1.30, 131_470),
            (1.25, 131_470),
            (1.20, 131_470),
            (1.15, 136_604),
            (1.10, 136_604),
            (1.05, 136_604),
            (1.00, 142_152),
        ],
    ),
    (
        "c",
        &[
            (500.0, 114_255),
            (600.0, 114_255),
            (700.0, 114_255),
            (800.0, 114_255),
            (900.0, 114_255),
            (1000.0, 114_255),
            (1100.0, 114_255),
            (1200.0, 114_255),
            (1300.0, 114_255),
            (1400.0, 103_992),
            (1500.0, 98_091),
            (1600.0, 90_358),
            (1700.0, 83_711),
        ],
    ),
    (
        "r",
        &[
            (0.1, 0),
            (0.2, 32_872),
            (0.3, 68_370),
            (0.4, 114_255),
            (0.5, 169_730),
        ],
    ),
];

/// Points in one pass.
const POINTS: usize = 61;

/// A column's paper grid, in the paper's order.
pub(super) fn grid(knob: &str) -> Vec<f64> {
    COLUMNS
        .iter()
        .filter(|(k, _)| *k == knob)
        .flat_map(|(_, values)| values.iter().map(|&(v, _)| v))
        .collect()
}

/// The configuration a column's knob value binds (the base is the
/// 1M / 130 nm default).
fn point_config(knob: &str, value: f64) -> BoundConfig {
    let mut config = BoundConfig::default();
    match knob {
        "k" => config.k = Some(value),
        "m" => config.miller = value,
        "c" => config.clock_mhz = value,
        _ => config.fraction = value,
    }
    config
}

/// One pass's results: `(knob, value, rank)` per point.
type PassResult = Vec<(&'static str, f64, u64)>;

fn pass(
    specs: &[(&'static str, ExperimentSpec)],
    solver: Option<&dyn PointSolver>,
) -> Result<PassResult, String> {
    let opts = RunOptions {
        solver,
        ..RunOptions::default()
    };
    let mut out = Vec::with_capacity(POINTS);
    for (knob, spec) in specs {
        let outcome = explore(spec, &NoCache, &opts).map_err(err)?;
        for p in outcome.points {
            out.push((
                *knob,
                p.coords.first().copied().unwrap_or(f64::NAN),
                p.solve.rank,
            ));
        }
    }
    Ok(out)
}

fn check(report: &mut Report, result: &PassResult) {
    report.check(result.len() == POINTS, || {
        format!("a pass returned {} points, expected {POINTS}", result.len())
    });
    for (knob, grid) in COLUMNS {
        for &(value, expected) in grid {
            let got = result
                .iter()
                .find(|(k, v, _)| *k == knob && (v - value).abs() < 1e-9)
                .map(|&(_, _, rank)| rank);
            report.check(got == Some(expected), || {
                format!("{knob} = {value}: rank {got:?}, expected {expected}")
            });
        }
    }
}

/// The traced run's point solver: solves like the in-process one, but
/// layer by layer under spans, so the trace can attribute each point's
/// time and the workers' busy time.
struct TimedSolver {
    pass: u64,
    parent: u64,
}

impl PointSolver for TimedSolver {
    fn solve_point(&self, point: &Point) -> Result<CachedSolve, DseError> {
        let _s = trace::span_under("dse.point", self.pass, self.parent);
        let invalid = |e: String| DseError::Bind(BindError::Invalid(e));
        let bound = point.config.bind().map_err(DseError::Bind)?;
        let problem = lower_by_layer(&point.config, &bound.node, &bound.architecture, self.pass)
            .map_err(invalid)?;
        let result = {
            let _s = trace::span("core.dp", self.pass);
            problem.rank()
        };
        Ok(CachedSolve::of(&problem, &result))
    }
}

pub(super) fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up: the four column specs, and one lowering of the baseline
    // so the first timed pass does not pay first-touch costs.
    let (specs, mut setups) =
        Setups::first(ctx, 41, |_| {
            let specs = COLUMNS
            .iter()
            .map(|(knob, _)| {
                let text = format!(
                    r#"{{"name": "table4-{knob}", "workers": 2, "axes": [{{"knob": "{knob}"}}]}}"#
                );
                ExperimentSpec::parse_str(&text).map(|spec| (*knob, spec)).map_err(err)
            })
            .collect::<Result<Vec<_>, String>>()?;
            let base = BoundConfig::default();
            let bound = base.bind().map_err(err)?;
            std::hint::black_box(lower(&base, &bound.node, &bound.architecture)?.total_wires());
            Ok(specs)
        })?;

    let probe = host::Probe::start();
    let mut results = Vec::new();
    let window = if ctx.trace {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let samples = measure(
        window,
        3,
        |_| {
            results.push(pass(&specs, None)?);
            Ok(())
        },
        |elapsed| setups.tick(elapsed, window),
    )?;
    let mut traced = Vec::new();
    if ctx.trace {
        traced = measure(
            ctx.seconds / 2,
            3,
            |i| {
                let root = trace::span("sweep.pass", i);
                let solver = TimedSolver {
                    pass: i,
                    parent: root.id(),
                };
                results.push(pass(&specs, Some(&solver))?);
                Ok(())
            },
            |_| Ok(()),
        )?;
    }
    report_host(report, &probe.finish());
    report_setup(report, &setups.finish()?);
    for result in &results {
        check(report, result);
    }

    let ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
    report.summary("pass (61 points)", "ms", &ms);
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
    // Per-point self time of each layer, at its fastest pass.
    layer_fastest(
        report,
        &spans,
        &[
            ("wld.generate", "wld.generate_ms", 1e-6),
            ("wld.coarsen", "wld.coarsen_ms", 1e-6),
            ("core.lower", "core.lower_ms", 1e-6),
            ("core.dp", "core.dp_ms", 1e-6),
        ],
        POINTS as f64,
    );
    let layers = ["wld.generate", "wld.coarsen", "core.lower", "core.dp"];
    let covered = coverage(&spans, "dse.point", &layers);
    report.metric("trace.coverage", covered);
    report.metric("core.dp_share", coverage(&spans, "dse.point", &["core.dp"]));
    report.line(format!(
        "layer self times cover {:.2}% of the traced per-point time",
        covered * 100.0
    ));
    // Busy share of the two workers over each traced pass.
    let busy: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sweep.pass")
        .map(|root| {
            let solving: u64 = spans
                .iter()
                .filter(|s| s.name == "dse.point" && s.iter == root.iter)
                .map(trace::SpanRecord::duration_ns)
                .sum();
            solving as f64 / (2.0 * root.duration_ns() as f64)
        })
        .collect();
    if let Some(m) = stats::median(&busy) {
        report.metric("dse.busy_frac", m);
    }
    let solved = spans.iter().filter(|s| s.name == "dse.point").count();
    report.metric(
        "dse.points_solved",
        solved as f64 / traced.len().max(1) as f64,
    );
    write_spans(ctx, "table4-sweep", &spans, report);

    side_calls(report)?;
    // The exact DP counters, summed over one untimed pass with the
    // collector on.
    dp_counters(report, || pass(&specs, None).map(drop))
}

/// Times the layers that run inside instance lowering by separate
/// calls on each point's inputs: RC extraction, die sizing, and
/// repeater planning per distinct length × layer-pair. All 61 points
/// share one WLD.
fn side_calls(report: &mut Report) -> Result<(), String> {
    let base = BoundConfig::default();
    let bound = base.bind().map_err(err)?;
    let node = &bound.node;
    let arch = &bound.architecture;
    let wld = WldSpec::new(base.gates).map_err(err)?.generate();
    let coarse = coarsen::bunch(&wld, base.bunch).map_err(err)?;
    {
        let problem = lower(&base, node, arch)?;
        report.metric("core.bunches", problem.instance().bunch_count() as f64);
        report.metric("core.pairs", problem.instance().pair_count() as f64);
    }
    let mut lengths: Vec<u64> = coarse.iter().map(|b| b.length).collect();
    lengths.dedup();
    let (mut extract_ns, mut die_ns, mut plan_ns, mut plans) = (0u128, 0u128, 0u128, 0u64);
    for (knob, grid) in COLUMNS {
        for &(value, _) in grid {
            let config = point_config(knob, value);
            let mut options = ExtractionOptions::default().with_miller_factor(config.miller);
            if let Some(k) = config.k {
                options = options.with_permittivity(Permittivity::from_relative(k));
            }
            let t = Instant::now();
            let extractor = Extractor::new(node, options);
            let wires: Vec<_> = arch.iter().map(|p| extractor.tier(p.tier())).collect();
            extract_ns += t.elapsed().as_nanos();

            let t = Instant::now();
            let die = DieModel::new(node, config.gates, config.fraction).map_err(err)?;
            die_ns += t.elapsed().as_nanos();

            let models: Vec<RepeatedWireModel> = wires
                .iter()
                .map(|w| {
                    RepeatedWireModel::with_charging(
                        node.device(),
                        *w,
                        SwitchingConstants::paper(),
                        StageCharging::Full,
                    )
                })
                .collect();
            let l_max = die.physical_length(lengths.first().copied().unwrap_or(1));
            let clock = Frequency::from_megahertz(config.clock_mhz);
            let t = Instant::now();
            for &length in &lengths {
                let l = die.physical_length(length);
                let target = TargetDelayModel::Linear.target(l, l_max, clock);
                for model in &models {
                    std::hint::black_box(plan_insertion(model, l, target));
                    plans += 1;
                }
            }
            plan_ns += t.elapsed().as_nanos();
        }
    }
    let per = POINTS as f64;
    report.metric("rc.extract_us", extract_ns as f64 / 1e3 / per);
    report.metric("arch.die_us", die_ns as f64 / 1e3 / per);
    report.metric("delay.plan_us", plan_ns as f64 / 1e3 / per);
    report.metric("delay.plans", plans as f64 / per);
    Ok(())
}
