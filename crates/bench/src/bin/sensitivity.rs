//! The conclusions' co-optimization claim, quantified: rank elasticity
//! to each Table 4 knob at the paper's baseline operating point
//! ("it is not possible to enable future MPU-class designs by material
//! improvements alone").

use ia_bench::{configured_gates, sensitivity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", sensitivity(configured_gates()?)?);
    Ok(())
}
