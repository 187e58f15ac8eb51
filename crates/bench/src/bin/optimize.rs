//! The paper's announced future work as an experiment: direct
//! optimization of BEOL stacks by the rank metric, per node.
//!
//! For each technology node, enumerates stacks within a 6-pair mask
//! budget (with fat semi-global variants) on the node's §5.2 design
//! scale and prints the winner and the cost/quality Pareto front.

use ia_bench::configured_gates;
use ia_obs::Stopwatch;
use ia_rank::optimize::{optimize_stack, pareto_front, StackSearchSpace};
use ia_report::Table;
use ia_tech::presets;
use ia_wld::WldSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = StackSearchSpace {
        max_total_pairs: 6,
        global_pairs: 1..=2,
        semi_global_pairs: 1..=4,
        local_pairs: 0..=1,
        semi_global_pitch_scales: vec![1.0, 1.5, 2.0],
    };
    let gates = configured_gates()?.min(400_000); // keep the full grid quick

    println!("Stack optimization by rank (paper future work), {gates} gates\n");
    for node in presets::all() {
        let spec = WldSpec::new(gates)?;
        let sw = Stopwatch::start();
        let ranked = optimize_stack(&node, &space, |b| b.wld_spec(spec).bunch_size(10_000))?;
        let wall_ns = sw.elapsed_ns();
        let evaluated = ranked.len();

        println!(
            "— {} ({} candidates in {:.1?}) —",
            node.name(),
            evaluated,
            std::time::Duration::from_nanos(wall_ns)
        );
        let mut t = Table::new(["pairs", "stack", "rank", "normalized"]);
        for e in pareto_front(&ranked) {
            t.row([
                e.candidate.total_pairs().to_string(),
                e.candidate.to_string(),
                e.rank.to_string(),
                format!("{:.6}", e.normalized),
            ]);
        }
        println!("{t}");
    }
    Ok(())
}
