//! Shared code for the binaries that regenerate the paper's tables and
//! figures.
//!
//! Every table and figure of the paper's evaluation has a binary here
//! (see `DESIGN.md` §3 for the index):
//!
//! * `table3` — prints the technology parameters (Table 3);
//! * `table4` — regenerates the K/M/C/R sweeps (Table 4);
//! * `figure2` — the greedy-vs-DP counterexample (Figure 2);
//! * `equivalence` — the §5.2 "38 % K ≡ ~42 % M" analysis;
//! * `nodes` — the 180/130/90 nm baselines mentioned in §5.2;
//! * `ablation` — bunch-size / binning sensitivity (§5.1, footnote 7);
//! * `optimize` — stack optimization by rank (the paper's future work);
//! * `sensitivity` — rank elasticity per Table 4 knob (§6).
//!
//! The binaries print tables, not measurements; the repository
//! benchmark (`perfbench/README.md`) times the same workloads. Every
//! binary's text comes from a function here — [`table3`],
//! [`table4_heading`] and [`table4_column`], [`figure2`],
//! [`equivalence`], [`nodes`], [`ablation`], [`optimize_heading`] and
//! [`optimize_node`], and [`sensitivity`] — which
//! `tests/results_bytes.rs` compares byte for byte with
//! `docs/results`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ia_arch::Architecture;
use ia_delay::{StageCharging, TargetDelayModel};
use ia_rank::canon::{BindError, BoundConfig};
use ia_rank::optimize::{optimize_stack, pareto_front, StackSearchSpace};
use ia_rank::sensitivity::sensitivities;
use ia_rank::sweep::{equivalent_reductions, sweep_axis, Axis, SweepPoint};
use ia_rank::{dp, exact, exhaustive, greedy, toy, RankProblem};
use ia_report::{Comparison, Table};
use ia_tech::{presets, TechnologyNode, WiringTier};
use ia_wld::WldSpec;
use std::io::Write;

/// The paper's headline experiment scale: 1M gates at 130 nm.
pub const PAPER_GATES: u64 = 1_000_000;

/// The paper's bunch size (§5.2).
pub const PAPER_BUNCH_SIZE: u64 = 10_000;

/// The largest design `optimize` searches, which keeps its grid of
/// 45 stacks on three nodes quick.
pub const OPTIMIZE_MAX_GATES: u64 = 400_000;

const GATES_ENV: &str = "IA_BENCH_GATES";

/// The gate count for the scaled binaries: the `IA_BENCH_GATES`
/// environment variable when set (`IA_BENCH_GATES=100000` for a quick
/// run), else the paper's scale ([`PAPER_GATES`]).
///
/// # Errors
///
/// Returns a message naming the variable and its value when the value
/// is not a whole number or is below the WLD model's minimum.
pub fn configured_gates() -> Result<u64, String> {
    let value = std::env::var_os(GATES_ENV);
    parse_gates(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// Writes a binary's table text to stdout. A reader that stopped
/// reading (`table4 | head -3`) is not a failure: the process exits 0
/// quietly, as Unix filters do. Any other write error exits 1.
pub fn write_stdout(text: &str) {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            write_stderr(&format!("error: cannot write output: {e}\n"));
            std::process::exit(1);
        }
    }
}

/// Writes a wall-time line or a diagnostic to stderr. Write errors are
/// ignored, so a closed stderr leaves the exit code the binary's own.
pub fn write_stderr(text: &str) {
    let _ = std::io::stderr().write_all(text.as_bytes());
}

/// Parses an `IA_BENCH_GATES` value; `None` (unset) is the paper's
/// scale.
fn parse_gates(value: Option<&str>) -> Result<u64, String> {
    let Some(text) = value else {
        return Ok(PAPER_GATES);
    };
    let gates = text
        .parse()
        .map_err(|_| format!("{GATES_ENV}={text}: not a whole number of gates"))?;
    WldSpec::new(gates).map_err(|e| format!("{GATES_ENV}={text}: {e}"))?;
    Ok(gates)
}

/// A floored variant of the paper's linear target rule, granting every
/// wire at least 1.1× the node's intrinsic repeater stage delay
/// `b·r_o·(c_o+c_p)`.
///
/// The paper's conclusions note the pure linear rule is unreasonably
/// harsh on short wires (their target shrinks below any deliverable
/// delay). At the paper's full 1M-gate scale the repeater budget binds
/// before that wall is reached, so the floor changes nothing there —
/// the `ablation` binary demonstrates both facts. At smaller scales the
/// floor keeps the budget-limited regime intact.
#[must_use]
pub fn paper_target_model(node: &TechnologyNode) -> TargetDelayModel {
    let floor = node.device().intrinsic_delay(0.7) * 1.1;
    TargetDelayModel::LinearWithFloor { floor }
}

/// The Table 2 baseline configuration at `gates`: 130 nm, the baseline
/// stack, 500 MHz, repeater fraction 0.4, Miller 2.0 and the node's
/// permittivity, with the paper's bunch size of 10 000 (a tenth of the
/// gates below 100 000). It binds the library's default target-delay
/// rule and full Eq. 3 charging, the faithful model.
#[must_use]
pub fn baseline_config(gates: u64) -> BoundConfig {
    BoundConfig {
        gates,
        bunch: PAPER_BUNCH_SIZE.min(gates / 10).max(1),
        ..BoundConfig::default()
    }
}

/// Renders a sweep as a two-column table in the shape of Table 4.
#[must_use]
pub fn sweep_table(axis: &str, points: &[SweepPoint], x_fmt: fn(f64) -> String) -> Table {
    let mut t = Table::new([axis, "rank", "normalized"]);
    for p in points {
        t.row([
            x_fmt(p.x),
            p.rank.to_string(),
            format!("{:.6}", p.normalized),
        ]);
    }
    t
}

/// Table 3: the technology parameters of the 180/130/90 nm nodes used
/// in the rank studies, and the device parameters derived from them.
#[must_use]
pub fn table3() -> String {
    let nodes = [presets::tsmc180(), presets::tsmc130(), presets::tsmc90()];
    let mut t = Table::new(["Parameter", "180nm", "130nm", "90nm"]);
    let um = |v: f64| format!("{v:.3}µm");

    type Getter = Box<dyn Fn(&TechnologyNode) -> f64>;
    let rows: [(&str, Getter); 12] = [
        (
            "M1 minimum width",
            Box::new(|n| n.layer(WiringTier::Local).width.micrometers()),
        ),
        (
            "M1 minimum spacing",
            Box::new(|n| n.layer(WiringTier::Local).spacing.micrometers()),
        ),
        (
            "M1 thickness",
            Box::new(|n| n.layer(WiringTier::Local).thickness.micrometers()),
        ),
        (
            "Mx minimum width",
            Box::new(|n| n.layer(WiringTier::SemiGlobal).width.micrometers()),
        ),
        (
            "Mx minimum spacing",
            Box::new(|n| n.layer(WiringTier::SemiGlobal).spacing.micrometers()),
        ),
        (
            "Mx thickness",
            Box::new(|n| n.layer(WiringTier::SemiGlobal).thickness.micrometers()),
        ),
        (
            "Mt minimum width",
            Box::new(|n| n.layer(WiringTier::Global).width.micrometers()),
        ),
        (
            "Mt minimum spacing",
            Box::new(|n| n.layer(WiringTier::Global).spacing.micrometers()),
        ),
        (
            "Mt thickness",
            Box::new(|n| n.layer(WiringTier::Global).thickness.micrometers()),
        ),
        (
            "V1 minimum width",
            Box::new(|n| n.via(WiringTier::Local).width().micrometers()),
        ),
        (
            "Vx-1 minimum width",
            Box::new(|n| n.via(WiringTier::SemiGlobal).width().micrometers()),
        ),
        (
            "Vt-1 minimum width",
            Box::new(|n| n.via(WiringTier::Global).width().micrometers()),
        ),
    ];
    for (label, get) in rows {
        t.row([
            label.to_owned(),
            um(get(&nodes[0])),
            um(get(&nodes[1])),
            um(get(&nodes[2])),
        ]);
    }
    let mut out = format!("Table 3 — technology parameters (TSMC, per the paper)\n\n{t}\n");

    out.push_str("Derived device parameters (documented substitution, see DESIGN.md):\n\n");
    let mut d = Table::new(["Parameter", "180nm", "130nm", "90nm"]);
    d.row([
        "r_o".to_owned(),
        format!("{}", nodes[0].device().output_resistance),
        format!("{}", nodes[1].device().output_resistance),
        format!("{}", nodes[2].device().output_resistance),
    ]);
    d.row([
        "c_o".to_owned(),
        format!("{}", nodes[0].device().input_capacitance),
        format!("{}", nodes[1].device().input_capacitance),
        format!("{}", nodes[2].device().input_capacitance),
    ]);
    d.row([
        "min inverter area".to_owned(),
        format!("{}", nodes[0].device().min_inverter_area),
        format!("{}", nodes[1].device().min_inverter_area),
        format!("{}", nodes[2].device().min_inverter_area),
    ]);
    d.row([
        "gate pitch (12.6 × node)".to_owned(),
        format!("{}", nodes[0].gate_pitch()),
        format!("{}", nodes[1].gate_pitch()),
        format!("{}", nodes[2].gate_pitch()),
    ]);
    out.push_str(&format!("{d}\n"));
    out
}

/// Figure 2, solved by all four solvers: four equal-length wires, two
/// layer-pairs, an eight-repeater budget. Greedy fills the slow upper
/// pair first and burns the budget there (rank 2); the DP routes one
/// wire up and three down (rank 4).
///
/// # Panics
///
/// Panics unless greedy ranks 2 and the DP, the exhaustive oracle and
/// the paper's literal 4-D DP rank 4, the paper's figures.
#[must_use]
pub fn figure2() -> String {
    let inst = toy::figure2();
    let greedy_solution = greedy::rank_greedy(&inst);
    let dp_solution = dp::rank(&inst);
    let exhaustive_rank = exhaustive::rank_exhaustive(&inst);
    let exact_rank = exact::rank_exact(&inst).expect("figure 2 uses unit repeaters");

    let mut out = String::from("Figure 2 — suboptimality of greedy assignment\n\n");
    let mut t = Table::new(["solver", "rank", "repeaters used", "repeater area"]);
    t.row([
        "greedy top-down (paper Fig. 2a)".to_owned(),
        greedy_solution.rank_wires.to_string(),
        greedy_solution.repeater_count.to_string(),
        format!("{:.1}", greedy_solution.repeater_area),
    ]);
    t.row([
        "rank DP (paper Fig. 2b)".to_owned(),
        dp_solution.rank_wires.to_string(),
        dp_solution.repeater_count.to_string(),
        format!("{:.1}", dp_solution.repeater_area),
    ]);
    t.row([
        "exhaustive oracle".to_owned(),
        exhaustive_rank.to_string(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    t.row([
        "paper's literal 4-D DP".to_owned(),
        exact_rank.to_string(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    out.push_str(&format!("{t}\n"));

    for c in [
        Comparison::new(
            "Figure 2, greedy rank",
            2.0,
            greedy_solution.rank_wires as f64,
        ),
        Comparison::new("Figure 2, optimal rank", 4.0, dp_solution.rank_wires as f64),
    ] {
        out.push_str(&format!("{c}\n"));
    }

    assert_eq!(
        greedy_solution.rank_wires, 2,
        "greedy must reproduce the paper's rank 2"
    );
    assert_eq!(
        dp_solution.rank_wires, 4,
        "DP must reproduce the paper's rank 4"
    );
    assert_eq!(exhaustive_rank, 4);
    assert_eq!(exact_rank, 4);
    out.push_str("\nAll four solvers reproduce the paper's Figure 2 exactly.\n");
    out
}

/// The §5.2 multi-node baselines: the paper ran 1M gates at 180 nm
/// and 130 nm and 4M gates at 90 nm, and printed only the 130 nm
/// results "for space reasons"; this table fills in the other two.
///
/// # Errors
///
/// Returns the error of a problem that fails to bind or build.
pub fn nodes() -> Result<String, Box<dyn std::error::Error>> {
    let runs = [
        ("180", PAPER_GATES),
        ("130", PAPER_GATES),
        ("90", 4 * PAPER_GATES),
    ];
    let mut t = Table::new([
        "node",
        "gates",
        "total wires",
        "rank",
        "normalized",
        "greedy rank",
        "die (mm²)",
    ]);
    for (node, gates) in runs {
        let config = BoundConfig {
            node: node.to_owned(),
            ..baseline_config(gates)
        };
        let bound = config.bind()?;
        let problem = bound.builder()?.build()?;
        let r = problem.rank();
        let g = problem.greedy_rank();
        t.row([
            bound.node.name().to_owned(),
            gates.to_string(),
            r.total_wires().to_string(),
            r.rank().to_string(),
            format!("{:.6}", r.normalized()),
            g.rank().to_string(),
            format!("{:.2}", problem.die().die_area().square_millimeters()),
        ]);
    }
    Ok(format!(
        "Baseline rank across technology nodes (paper §5.2 experiment set)\n\n{t}\n\
         (paper runtime bound: no rank computation exceeded 200 s on 2003 hardware)\n"
    ))
}

/// The ablations of the design choices DESIGN.md calls out, at 200 000
/// gates except the target-delay regime, which runs at `regime_gates`:
///
/// 1. **Bunch size** (§5.1): rank error vs bunch size, against the
///    paper's bound (error ≤ max bunch size).
/// 2. **Binning** (footnote 7): bunching+binning vs bunching alone.
/// 3. **Stage charging** (substitution): the paper's pure linear target
///    with full Eq. 3 charging vs the floored target the harness uses —
///    showing how the `R` column inverts without the floor.
/// 4. **DP vs greedy** on the physical baseline.
///
/// # Errors
///
/// Returns the error of a problem that fails to build or bind.
///
/// # Panics
///
/// Panics if a coarsening error exceeds the §5.1 bound or greedy
/// out-ranks the DP.
pub fn ablation(regime_gates: u64) -> Result<String, Box<dyn std::error::Error>> {
    const GATES: u64 = 200_000;
    let node = presets::tsmc130();
    let arch = Architecture::baseline(&node);
    let spec = WldSpec::new(GATES)?;

    let mut out = format!("Ablation studies, {GATES} gates, 130 nm\n\n");

    // 1 + 2: coarsening. The reference is a very fine bunching (125
    // wires per bunch); §5.1 bounds each run's rank error by its own
    // largest bunch, so the measured gap must stay within the sum of
    // the two bounds.
    out.push_str("— Coarsening (§5.1 / footnote 7) —\n");
    let reference = RankProblem::builder(&node, &arch)
        .wld_spec(spec)
        .bunch_size(125)
        .build()?;
    let ref_rank = reference.rank().rank();
    let ref_bound = reference.rank_error_bound();
    let mut t = Table::new([
        "bunch size",
        "binning",
        "bunches",
        "rank",
        "abs error",
        "§5.1 bound",
    ]);
    for bunch in [500u64, 2_000, 10_000, 50_000] {
        for bin_spread in [None, Some(2u64)] {
            let mut b = RankProblem::builder(&node, &arch)
                .wld_spec(spec)
                .bunch_size(bunch);
            if let Some(s) = bin_spread {
                b = b.bin_spread(s);
            }
            let p = b.build()?;
            let r = p.rank();
            let err = r.rank().abs_diff(ref_rank);
            t.row([
                bunch.to_string(),
                bin_spread.map_or("off".into(), |s| format!("±{s}")),
                p.instance().bunch_count().to_string(),
                r.rank().to_string(),
                err.to_string(),
                p.rank_error_bound().to_string(),
            ]);
            if bin_spread.is_none() {
                assert!(
                    err <= p.rank_error_bound() + ref_bound,
                    "coarsening error exceeded the paper bound"
                );
            }
        }
    }
    out.push_str(&format!("reference rank (bunch size 125): {ref_rank}\n"));
    out.push_str(&format!("{t}\n"));

    // 3: stage charging / target model. The regime contrast appears at
    // the paper's full 1M-gate scale, where the linear target's slope
    // drops below the minimum-driver velocity.
    let regime_spec = WldSpec::new(regime_gates)?;
    out.push_str(&format!(
        "— Target-delay & stage-charging regime at {regime_gates} gates (DESIGN.md substitution) —\n"
    ));
    let mut t = Table::new(["model", "R=0.2", "R=0.3", "R=0.4", "R=0.5"]);
    let regimes: [(&str, StageCharging, TargetDelayModel); 3] = [
        (
            "paper text: linear + full Eq. 3",
            StageCharging::Full,
            TargetDelayModel::Linear,
        ),
        (
            "harness: floored linear + full Eq. 3",
            StageCharging::Full,
            paper_target_model(&node),
        ),
        (
            "wire-only charging + linear",
            StageCharging::WireOnly,
            TargetDelayModel::Linear,
        ),
    ];
    for (label, charging, target) in regimes {
        let mut row = vec![label.to_owned()];
        for frac in [0.2, 0.3, 0.4, 0.5] {
            let p = RankProblem::builder(&node, &arch)
                .wld_spec(regime_spec)
                .bunch_size(10_000)
                .charging(charging)
                .target_model(target)
                .repeater_fraction(frac)
                .build()?;
            row.push(format!("{:.4}", p.rank().normalized()));
        }
        t.row(row);
    }
    out.push_str(&format!("{t}\n"));
    out.push_str("(at the paper's 1M-gate scale the repeater budget binds before either the\n intrinsic-delay wall or the charging policy matters — all three regimes\n coincide; at smaller scales they diverge. See EXPERIMENTS.md.)\n\n");

    // 4: DP vs greedy at the physical baseline.
    out.push_str("— DP vs greedy baseline —\n");
    let bound = baseline_config(GATES).bind()?;
    let p = bound.builder()?.build()?;
    let dp = p.rank();
    let greedy = p.greedy_rank();
    out.push_str(&format!(
        "dp rank {} vs greedy rank {} (dp/greedy = {:.3})\n",
        dp.rank(),
        greedy.rank(),
        dp.rank() as f64 / greedy.rank().max(1) as f64
    ));
    assert!(greedy.rank() <= dp.rank());
    Ok(out)
}

/// Table 4's heading at `gates`, and the blank line after it.
#[must_use]
pub fn table4_heading(gates: u64) -> String {
    format!(
        "Table 4 — variation of rank, {gates} gates, 130 nm, p = 0.6, bunch 10 000\n\
         (paper baseline: K = 3.9, M = 2, R = 0.4, f_c = 500 MHz)\n\n"
    )
}

/// One Table 4 column at `gates`: the axis swept over the paper's grid
/// at the baseline, as a table followed by a blank line.
///
/// # Errors
///
/// Returns the [`BindError`] of a point that fails to bind or build.
pub fn table4_column(gates: u64, axis: Axis) -> Result<String, BindError> {
    let points = sweep_axis(&baseline_config(gates), axis, axis.paper_values())?;
    let x_fmt: fn(f64) -> String = if axis == Axis::C {
        |x| format!("{x:.2e}")
    } else {
        |x| format!("{x:.2}")
    };
    Ok(format!("{}\n", sweep_table(axis.symbol(), &points, x_fmt)))
}

/// The §5.2 K-vs-M equivalence analysis at `gates`: which Miller-factor
/// reduction matches each ILD-permittivity reduction of the Table 4
/// grid, and the headline point nearest the paper's 38 %.
///
/// # Errors
///
/// Returns the [`BindError`] of a point that fails to bind or build.
pub fn equivalence(gates: u64) -> Result<String, BindError> {
    let base = baseline_config(gates);
    let k = sweep_axis(&base, Axis::K, Axis::K.paper_values())?;
    let m = sweep_axis(&base, Axis::M, Axis::M.paper_values())?;

    let mut out = format!("K-vs-M equivalence, {gates} gates, 130 nm (paper §5.2)\n\n");
    let matches = equivalent_reductions(&k, &m);
    let mut t = Table::new([
        "K reduction %",
        "equivalent M reduction %",
        "normalized rank",
    ]);
    for em in &matches {
        t.row([
            format!("{:.1}", em.a_reduction_pct),
            format!("{:.1}", em.b_reduction_pct),
            format!("{:.6}", em.normalized_rank),
        ]);
    }
    out.push_str(&format!("{t}\n"));

    // The paper's headline point: the K reduction closest to 38 %.
    if let Some(headline) = matches.iter().min_by(|a, b| {
        (a.a_reduction_pct - 38.0)
            .abs()
            .total_cmp(&(b.a_reduction_pct - 38.0).abs())
    }) {
        out.push_str(&format!(
            "headline: a {:.1}% reduction in K is matched by a {:.1}% reduction in M \
             (paper: 38% K ≡ ~42.5% M)\n",
            headline.a_reduction_pct, headline.b_reduction_pct
        ));
    }
    Ok(out)
}

/// The `optimize` heading at `gates`, and the blank line after it.
#[must_use]
pub fn optimize_heading(gates: u64) -> String {
    format!("Stack optimization by rank (paper future work), {gates} gates\n\n")
}

/// The paper's announced future work on one node: rank every stack
/// within a 6-pair mask budget (with fat semi-global variants) at
/// `gates`, and print the candidate count and the cost/quality Pareto
/// front, followed by a blank line.
///
/// # Errors
///
/// Returns the error of a gate count the WLD model rejects or a stack
/// that fails to build.
pub fn optimize_node(
    node: &TechnologyNode,
    gates: u64,
) -> Result<String, Box<dyn std::error::Error>> {
    let space = StackSearchSpace {
        max_total_pairs: 6,
        global_pairs: 1..=2,
        semi_global_pairs: 1..=4,
        local_pairs: 0..=1,
        semi_global_pitch_scales: vec![1.0, 1.5, 2.0],
    };
    let spec = WldSpec::new(gates)?;
    let ranked = optimize_stack(node, &space, |b| {
        b.wld_spec(spec).bunch_size(PAPER_BUNCH_SIZE)
    })?;
    let mut t = Table::new(["pairs", "stack", "rank", "normalized"]);
    for e in pareto_front(&ranked) {
        t.row([
            e.candidate.total_pairs().to_string(),
            e.candidate.to_string(),
            e.rank.to_string(),
            format!("{:.6}", e.normalized),
        ]);
    }
    Ok(format!(
        "— {} ({} candidates) —\n{t}\n",
        node.name(),
        ranked.len()
    ))
}

/// The §6 co-optimization claim at `gates`: the rank's elasticity to
/// each Table 4 knob at the Table 2 baseline, by ±10 % finite
/// differences.
///
/// # Errors
///
/// Returns the [`BindError`] of a point that fails to bind or build.
pub fn sensitivity(gates: u64) -> Result<String, BindError> {
    let mut out = format!(
        "Rank elasticity at the Table 2 baseline, {gates} gates @ 130 nm\n\
         (relative rank gain per percent of knob improvement, ±10% finite differences)\n\n"
    );
    let report = sensitivities(&baseline_config(gates), 0.1)?;
    let mut t = Table::new(["knob", "at", "elasticity"]);
    for s in &report {
        t.row([
            s.knob.to_string(),
            format!("{:.3e}", s.at),
            s.elasticity.to_string(),
        ]);
    }
    out.push_str(&format!("{t}\n"));
    out.push_str(&format!(
        "baseline normalized rank: {:.6}\n",
        report.first().map_or(0.0, |s| s.baseline_normalized)
    ));
    out.push_str(
        "\nNo single knob's elasticity dominates the sum of the others — the\n\
         co-optimization conclusion of the paper's §6 in one table.\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_config_binds_and_ranks() {
        let solve = baseline_config(20_000).solve().unwrap();
        assert!(solve.rank <= solve.total_wires);
        assert_eq!(baseline_config(20_000).bunch, 2_000);
        assert_eq!(baseline_config(PAPER_GATES).bunch, PAPER_BUNCH_SIZE);
    }

    #[test]
    fn sweep_table_shape() {
        let pts = [
            SweepPoint {
                x: 3.9,
                rank: 10,
                normalized: 0.1,
            },
            SweepPoint {
                x: 2.0,
                rank: 20,
                normalized: 0.2,
            },
        ];
        let t = sweep_table("K", &pts, |x| format!("{x:.2}"));
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("3.90"));
    }

    #[test]
    fn parse_gates_defaults_to_paper_scale_and_names_bad_values() {
        assert_eq!(parse_gates(None), Ok(PAPER_GATES));
        assert_eq!(parse_gates(Some("100000")), Ok(100_000));
        assert_eq!(parse_gates(Some("16")), Ok(16));
        for bad in ["100k", "1e5", "", "-5", "15"] {
            let err = parse_gates(Some(bad)).unwrap_err();
            assert!(err.starts_with(&format!("IA_BENCH_GATES={bad}: ")), "{err}");
        }
    }
}
