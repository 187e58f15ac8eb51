//! Regenerates the §5.2 multi-node baselines: the paper ran 1M gates at
//! 180 nm and 130 nm and 4M gates at 90 nm (it prints only the 130 nm
//! results "for space reasons"; this binary fills in the other two).
//! The table goes to stdout and the wall time to stderr.

use ia_bench::{nodes, write_stderr, write_stdout};
use ia_obs::Stopwatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sw = Stopwatch::start();
    write_stdout(&nodes()?);
    let wall = std::time::Duration::from_nanos(sw.elapsed_ns());
    write_stderr(&format!("(three node baselines in {wall:.1?})\n"));
    Ok(())
}
