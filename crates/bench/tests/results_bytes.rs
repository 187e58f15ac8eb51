//! The paper binaries' result files as a byte contract: `table4`,
//! `equivalence` and `sensitivity` at the paper's 1M gates must print
//! exactly the committed `docs/results` files. Together they take a few
//! seconds in release, so they are ignored by default; CI runs them
//! with `cargo test --release -p ia-bench -- --ignored`.

use std::path::Path;

use ia_bench::{equivalence, sensitivity, table4_column, table4_heading, PAPER_GATES};
use ia_rank::sweep::Axis;

fn expected(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
#[ignore = "61 solves at 1M gates; run in release with --ignored"]
fn table4_matches_its_result_file() {
    let mut text = table4_heading(PAPER_GATES);
    for axis in Axis::ALL {
        text.push_str(&table4_column(PAPER_GATES, axis).expect("column sweeps"));
    }
    assert_eq!(text, expected("table4.txt"));
}

#[test]
#[ignore = "43 solves at 1M gates; run in release with --ignored"]
fn equivalence_matches_its_result_file() {
    let text = equivalence(PAPER_GATES).expect("sweeps");
    assert_eq!(text, expected("equivalence.txt"));
}

#[test]
#[ignore = "9 solves at 1M gates; run in release with --ignored"]
fn sensitivity_matches_its_result_file() {
    let text = sensitivity(PAPER_GATES).expect("solves");
    assert_eq!(text, expected("sensitivity.txt"));
}
