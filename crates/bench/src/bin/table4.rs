//! Regenerates Table 4: variation of rank with ILD permittivity (K),
//! Miller coupling factor (M), target clock frequency (C), and maximum
//! repeater fraction (R) for the 130 nm baseline design.
//!
//! Usage: `table4 [k|m|c|r]...` (defaults to all four columns).
//! Scale: set `IA_BENCH_GATES` (default 1 000 000 — the paper's scale).
//! The table goes to stdout and each column's wall time to stderr.

use ia_bench::{configured_gates, table4_column, table4_heading, write_stderr, write_stdout};
use ia_obs::Stopwatch;
use ia_rank::sweep::Axis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |axis: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(axis));

    let gates = configured_gates()?;
    write_stdout(&table4_heading(gates));
    for axis in Axis::ALL {
        if !want(axis.label()) {
            continue;
        }
        let sw = Stopwatch::start();
        write_stdout(&table4_column(gates, axis)?);
        let wall = std::time::Duration::from_nanos(sw.elapsed_ns());
        write_stderr(&format!("({} sweep in {wall:.1?})\n", axis.symbol()));
    }
    Ok(())
}
