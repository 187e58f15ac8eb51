//! Regenerates the §5.2 headline analysis: what Miller-factor reduction
//! achieves the same rank improvement as a given ILD-permittivity
//! reduction? (The paper reports 38 % in K ≡ ~42 % in M for the 1M-gate
//! 130 nm design.)

use ia_bench::{configured_gates, equivalence};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    print!("{}", equivalence(configured_gates()?)?);
    Ok(())
}
