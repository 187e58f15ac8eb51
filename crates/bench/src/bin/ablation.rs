//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Bunch size** (§5.1): rank error vs bunch size, against the
//!    paper's bound (error ≤ max bunch size).
//! 2. **Binning** (footnote 7): bunching+binning vs bunching alone.
//! 3. **Stage charging** (substitution): the paper's pure linear target
//!    with full Eq. 3 charging vs the floored target the harness uses —
//!    showing how the `R` column inverts without the floor.
//! 4. **DP vs greedy** on the physical baseline.

use ia_arch::Architecture;
use ia_bench::{baseline_builder, configured_gates, paper_target_model};
use ia_delay::{StageCharging, TargetDelayModel};
use ia_rank::RankProblem;
use ia_report::Table;
use ia_tech::presets;
use ia_wld::WldSpec;

const GATES: u64 = 200_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node = presets::tsmc130();
    let arch = Architecture::baseline(&node);
    let spec = WldSpec::new(GATES)?;

    println!("Ablation studies, {GATES} gates, 130 nm\n");

    // 1 + 2: coarsening. The reference is a very fine bunching (125
    // wires per bunch); §5.1 bounds each run's rank error by its own
    // largest bunch, so the measured gap must stay within the sum of
    // the two bounds.
    println!("— Coarsening (§5.1 / footnote 7) —");
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
    println!("reference rank (bunch size 125): {ref_rank}");
    println!("{t}");

    // 3: stage charging / target model. The regime contrast appears at
    // the paper's full 1M-gate scale, where the linear target's slope
    // drops below the minimum-driver velocity.
    let regime_gates = configured_gates()?;
    let regime_spec = WldSpec::new(regime_gates)?;
    println!(
        "— Target-delay & stage-charging regime at {regime_gates} gates (DESIGN.md substitution) —"
    );
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
    println!("{t}");
    println!("(at the paper's 1M-gate scale the repeater budget binds before either the\n intrinsic-delay wall or the charging policy matters — all three regimes\n coincide; at smaller scales they diverge. See EXPERIMENTS.md.)\n");

    // 4: DP vs greedy at the physical baseline.
    println!("— DP vs greedy baseline —");
    let p = baseline_builder(&node, &arch, GATES).build()?;
    let dp = p.rank();
    let greedy = p.greedy_rank();
    println!(
        "dp rank {} vs greedy rank {} (dp/greedy = {:.3})",
        dp.rank(),
        greedy.rank(),
        dp.rank() as f64 / greedy.rank().max(1) as f64
    );
    assert!(greedy.rank() <= dp.rank());
    Ok(())
}
