//! Ablations of the design choices DESIGN.md calls out (see
//! [`ia_bench::ablation`]). The target-delay regime runs at
//! `IA_BENCH_GATES` (default 1 000 000, the paper's scale).

use ia_bench::{ablation, configured_gates, write_stdout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    write_stdout(&ablation(configured_gates()?)?);
    Ok(())
}
