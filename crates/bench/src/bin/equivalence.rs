//! Regenerates the §5.2 headline analysis: what Miller-factor reduction
//! achieves the same rank improvement as a given ILD-permittivity
//! reduction? (The paper reports 38 % in K ≡ ~42 % in M for the 1M-gate
//! 130 nm design.)

use ia_arch::Architecture;
use ia_bench::{baseline_builder, configured_gates};
use ia_rank::sweep::{equivalent_reductions, sweep_axis, Axis};
use ia_report::Table;
use ia_tech::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node = presets::tsmc130();
    let arch = Architecture::baseline(&node);
    let gates = configured_gates()?;
    let builder = baseline_builder(&node, &arch, gates);

    let k = sweep_axis(&builder, Axis::K, Axis::K.paper_values())?;
    let m = sweep_axis(&builder, Axis::M, Axis::M.paper_values())?;

    println!("K-vs-M equivalence, {gates} gates, 130 nm (paper §5.2)\n");
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
    println!("{t}");

    // The paper's headline point: the K reduction closest to 38 %.
    if let Some(headline) = matches.iter().min_by(|a, b| {
        (a.a_reduction_pct - 38.0)
            .abs()
            .total_cmp(&(b.a_reduction_pct - 38.0).abs())
    }) {
        println!(
            "headline: a {:.1}% reduction in K is matched by a {:.1}% reduction in M \
             (paper: 38% K ≡ ~42.5% M)",
            headline.a_reduction_pct, headline.b_reduction_pct
        );
    }
    Ok(())
}
