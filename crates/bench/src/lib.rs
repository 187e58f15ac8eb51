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
//! benchmark (`perfbench/README.md`) times the same workloads. The text
//! of `table4`, `equivalence` and `sensitivity` comes from
//! [`table4_heading`] and [`table4_column`], [`equivalence`] and
//! [`sensitivity`], which `tests/results_bytes.rs` compares byte for
//! byte with `docs/results`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ia_delay::TargetDelayModel;
use ia_rank::canon::{BindError, BoundConfig};
use ia_rank::sensitivity::sensitivities;
use ia_rank::sweep::{equivalent_reductions, sweep_axis, Axis, SweepPoint};
use ia_report::Table;
use ia_tech::TechnologyNode;
use ia_wld::WldSpec;

/// The paper's headline experiment scale: 1M gates at 130 nm.
pub const PAPER_GATES: u64 = 1_000_000;

/// The paper's bunch size (§5.2).
pub const PAPER_BUNCH_SIZE: u64 = 10_000;

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
