//! Regenerates the §5.2 multi-node baselines: the paper ran 1M gates at
//! 180 nm and 130 nm and 4M gates at 90 nm (it prints only the 130 nm
//! results "for space reasons"; this binary fills in the other two).

use ia_bench::baseline_config;
use ia_obs::Stopwatch;
use ia_rank::canon::BoundConfig;
use ia_report::Table;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runs = [("180", 1_000_000u64), ("130", 1_000_000), ("90", 4_000_000)];

    println!("Baseline rank across technology nodes (paper §5.2 experiment set)\n");
    let mut t = Table::new([
        "node",
        "gates",
        "total wires",
        "rank",
        "normalized",
        "greedy rank",
        "die (mm²)",
        "runtime",
    ]);
    for (node, gates) in runs {
        let config = BoundConfig {
            node: node.to_owned(),
            ..baseline_config(gates)
        };
        let bound = config.bind()?;
        let problem = bound.builder()?.build()?;
        let sw = Stopwatch::start();
        let r = problem.rank();
        let wall_ns = sw.elapsed_ns();
        let g = problem.greedy_rank();
        t.row([
            bound.node.name().to_owned(),
            gates.to_string(),
            r.total_wires().to_string(),
            r.rank().to_string(),
            format!("{:.6}", r.normalized()),
            g.rank().to_string(),
            format!("{:.2}", problem.die().die_area().square_millimeters()),
            format!("{:.1?}", std::time::Duration::from_nanos(wall_ns)),
        ]);
    }
    println!("{t}");
    println!("(paper runtime bound: no rank computation exceeded 200 s on 2003 hardware)");
    Ok(())
}
