//! The conclusions' co-optimization claim, quantified: rank elasticity
//! to each Table 4 knob at the paper's baseline operating point
//! ("it is not possible to enable future MPU-class designs by material
//! improvements alone").

use ia_bench::{configured_gates, sensitivity, write_stdout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    write_stdout(&sensitivity(configured_gates()?)?);
    Ok(())
}
