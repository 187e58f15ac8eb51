//! The paper's announced future work as an experiment: direct
//! optimization of BEOL stacks by the rank metric, per node.
//!
//! For each technology node, enumerates stacks within a 6-pair mask
//! budget (with fat semi-global variants) on the node's §5.2 design
//! scale and prints the winner and the cost/quality Pareto front.
//! Scale: `IA_BENCH_GATES`, capped at 400 000. The tables go to stdout
//! and each node's wall time to stderr.

use ia_bench::{
    configured_gates, optimize_heading, optimize_node, write_stderr, write_stdout,
    OPTIMIZE_MAX_GATES,
};
use ia_obs::Stopwatch;
use ia_tech::presets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gates = configured_gates()?.min(OPTIMIZE_MAX_GATES);
    write_stdout(&optimize_heading(gates));
    for node in presets::all() {
        let sw = Stopwatch::start();
        write_stdout(&optimize_node(&node, gates)?);
        let wall = std::time::Duration::from_nanos(sw.elapsed_ns());
        write_stderr(&format!("({} stacks in {wall:.1?})\n", node.name()));
    }
    Ok(())
}
