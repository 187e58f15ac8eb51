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
//! benchmark (`perfbench/README.md`) times the same workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ia_arch::Architecture;
use ia_delay::TargetDelayModel;
use ia_rank::sweep::SweepPoint;
use ia_rank::{RankProblem, RankProblemBuilder};
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

/// Builds the Table 2 baseline problem builder for a node: baseline
/// architecture, Davis WLD at the given gate count, bunch size 10 000,
/// 500 MHz, repeater fraction 0.4, Miller 2.0, node permittivity, and
/// the paper's linear target-delay rule with full Eq. 3 charging (the
/// library defaults — the faithful model).
///
/// # Panics
///
/// Panics if the gate count is below the Davis model's minimum (16).
#[must_use]
pub fn baseline_builder<'a>(
    node: &'a TechnologyNode,
    arch: &'a Architecture,
    gates: u64,
) -> RankProblemBuilder<'a> {
    RankProblem::builder(node, arch)
        .wld_spec(WldSpec::new(gates).expect("gate count is large enough"))
        .bunch_size(PAPER_BUNCH_SIZE.min(gates / 10).max(1))
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

#[cfg(test)]
mod tests {
    use super::*;
    use ia_tech::presets;

    #[test]
    fn baseline_builder_builds_and_ranks() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let problem = baseline_builder(&node, &arch, 20_000).build().unwrap();
        let r = problem.rank();
        assert!(r.rank() <= r.total_wires());
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
