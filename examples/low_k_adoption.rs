//! Scenario: a process-integration team must decide between qualifying
//! a low-k dielectric (expensive material change) and mandating
//! double-sided shielding of critical nets (reduces the Miller coupling
//! factor toward 1, costs routing tracks). The rank metric quantifies
//! both options on the same axis — exactly the paper's §5.2 analysis.
//!
//! ```sh
//! cargo run --release --example low_k_adoption
//! ```

use interconnect_rank::rank::canon::BoundConfig;
use interconnect_rank::rank::sweep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Table 2 baseline at 400k gates, 130 nm.
    let base = BoundConfig {
        gates: 400_000,
        ..BoundConfig::default()
    };

    // Candidate dielectrics the fab could qualify.
    let k_options = [3.9, 3.6, 3.0, 2.7, 2.4]; // SiO2, FSG, SiCOH-class…
    let k_points = sweep::sweep_axis(&base, sweep::Axis::K, &k_options)?;

    // Shielding options: Miller factor from worst-case 2.0 down to 1.0.
    let m_options = [2.0, 1.75, 1.5, 1.25, 1.0];
    let m_points = sweep::sweep_axis(&base, sweep::Axis::M, &m_options)?;

    println!("Low-k adoption vs shielding, 400k gates @ 130 nm\n");
    println!("dielectric option  ->  normalized rank");
    for p in &k_points {
        println!("  K = {:.2}           ->  {:.6}", p.x, p.normalized);
    }
    println!("\nshielding option   ->  normalized rank");
    for p in &m_points {
        println!("  M = {:.2}           ->  {:.6}", p.x, p.normalized);
    }

    // Which Miller reduction buys the same rank as each dielectric?
    println!("\nequivalence (paper §5.2 headline analysis):");
    for eq in sweep::equivalent_reductions(&k_points, &m_points) {
        println!(
            "  reducing K by {:>4.1}% ≈ reducing M by {:>4.1}% (rank {:.6})",
            eq.a_reduction_pct, eq.b_reduction_pct, eq.normalized_rank
        );
    }

    // Simple decision rule: if the best shielding option matches the
    // mid-range dielectric, shielding wins (no material qualification).
    let best_shielding = m_points.last().expect("non-empty sweep");
    let mid_dielectric = &k_points[2];
    if best_shielding.normalized >= mid_dielectric.normalized {
        println!(
            "\n=> full shielding (M=1.0, rank {:.6}) matches or beats K={} \
             (rank {:.6}): defer the material change",
            best_shielding.normalized, mid_dielectric.x, mid_dielectric.normalized
        );
    } else {
        println!(
            "\n=> shielding alone cannot match K={} — qualify the low-k stack",
            mid_dielectric.x
        );
    }
    Ok(())
}
