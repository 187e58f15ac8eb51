//! Regenerates Table 4: variation of rank with ILD permittivity (K),
//! Miller coupling factor (M), target clock frequency (C), and maximum
//! repeater fraction (R) for the 130 nm baseline design.
//!
//! Usage: `table4 [k|m|c|r]...` (defaults to all four columns).
//! Scale: set `IA_BENCH_GATES` (default 1 000 000 — the paper's scale).

use ia_arch::Architecture;
use ia_bench::{baseline_builder, configured_gates, sweep_table};
use ia_obs::Stopwatch;
use ia_rank::sweep::{sweep_axis, Axis};
use ia_tech::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |axis: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(axis));

    let node = presets::tsmc130();
    let arch = Architecture::baseline(&node);
    let gates = configured_gates()?;
    let builder = baseline_builder(&node, &arch, gates);

    println!("Table 4 — variation of rank, {gates} gates, 130 nm, p = 0.6, bunch 10 000");
    println!("(paper baseline: K = 3.9, M = 2, R = 0.4, f_c = 500 MHz)\n");

    // One stopwatch for the whole run; `lap` yields per-axis wall time
    // including the table rendering between blocks.
    let mut sw = Stopwatch::start();
    let mut lap = || std::time::Duration::from_nanos(sw.lap_ns());

    for axis in Axis::ALL {
        if !want(axis.label()) {
            continue;
        }
        let pts = sweep_axis(&builder, axis, axis.paper_values())?;
        let x_fmt: fn(f64) -> String = if axis == Axis::C {
            |x| format!("{x:.2e}")
        } else {
            |x| format!("{x:.2}")
        };
        println!("{}", sweep_table(axis.symbol(), &pts, x_fmt));
        println!("({} sweep in {:.1?})\n", axis.symbol(), lap());
    }
    Ok(())
}
