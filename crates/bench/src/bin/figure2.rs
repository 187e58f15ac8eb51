//! Regenerates Figure 2: the counterexample showing greedy top-down
//! wire assignment is suboptimal.
//!
//! Four equal-length wires, two layer-pairs, an eight-repeater budget:
//! greedy fills the slow upper pair first and burns the budget there
//! (rank 2); the DP routes one wire up and three down (rank 4).

use ia_rank::{dp, exact, exhaustive, greedy, toy};
use ia_report::{Comparison, Table};

fn main() {
    let inst = toy::figure2();
    let greedy_solution = greedy::rank_greedy(&inst);
    let dp_solution = dp::rank(&inst);
    let exhaustive_rank = exhaustive::rank_exhaustive(&inst);
    let exact_rank = exact::rank_exact(&inst).expect("figure 2 uses unit repeaters");

    println!("Figure 2 — suboptimality of greedy assignment\n");
    let mut t = Table::new(["solver", "rank", "repeaters used", "repeater area"]);
    t.row([
        "greedy top-down (paper Fig. 2a)".to_owned(),
        greedy_solution.rank_wires.to_string(),
        greedy_solution.repeater_count.to_string(),
        format!("{:.1}", greedy_solution.repeater_area),
    ]);
    t.row([
        "rank DP (paper Fig. 2b)".to_owned(),
        dp_solution.rank_wires.to_string(),
        dp_solution.repeater_count.to_string(),
        format!("{:.1}", dp_solution.repeater_area),
    ]);
    t.row([
        "exhaustive oracle".to_owned(),
        exhaustive_rank.to_string(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    t.row([
        "paper's literal 4-D DP".to_owned(),
        exact_rank.to_string(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    println!("{t}");

    for c in [
        Comparison::new(
            "Figure 2, greedy rank",
            2.0,
            greedy_solution.rank_wires as f64,
        ),
        Comparison::new("Figure 2, optimal rank", 4.0, dp_solution.rank_wires as f64),
    ] {
        println!("{c}");
    }

    assert_eq!(
        greedy_solution.rank_wires, 2,
        "greedy must reproduce the paper's rank 2"
    );
    assert_eq!(
        dp_solution.rank_wires, 4,
        "DP must reproduce the paper's rank 4"
    );
    assert_eq!(exhaustive_rank, 4);
    assert_eq!(exact_rank, 4);
    println!("\nAll four solvers reproduce the paper's Figure 2 exactly.");
}
