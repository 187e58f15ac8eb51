//! The paper binaries' result files as a byte contract: `table3`,
//! `table4`, `figure2`, `equivalence`, `nodes`, `ablation`, `optimize`
//! and `sensitivity` at the paper's scale must print exactly the
//! committed `docs/results` files. Five run by default: `table3` and
//! `figure2` solve nothing at scale, and `nodes` (with the 4M-gate
//! solve), `sensitivity` and `ablation` take about 0.7, 1 and 1.7 s in
//! a debug build. `table4`, `equivalence` and `optimize` take about 6,
//! 4 and 11 s in debug, so they are ignored by default and CI runs all
//! eight in release with `cargo test --release -p ia-bench --
//! --include-ignored`.

use std::path::Path;

use ia_bench::{
    ablation, equivalence, figure2, nodes, optimize_heading, optimize_node, sensitivity, table3,
    table4_column, table4_heading, OPTIMIZE_MAX_GATES, PAPER_GATES,
};
use ia_rank::sweep::Axis;
use ia_tech::presets;

fn expected(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn table3_matches_its_result_file() {
    assert_eq!(table3(), expected("table3.txt"));
}

#[test]
#[ignore = "61 solves at 1M gates, about 6 s in debug; run in release with --ignored"]
fn table4_matches_its_result_file() {
    let mut text = table4_heading(PAPER_GATES);
    for axis in Axis::ALL {
        text.push_str(&table4_column(PAPER_GATES, axis).expect("column sweeps"));
    }
    assert_eq!(text, expected("table4.txt"));
}

#[test]
fn figure2_matches_its_result_file() {
    assert_eq!(figure2(), expected("figure2.txt"));
}

#[test]
#[ignore = "43 solves at 1M gates, about 4 s in debug; run in release with --ignored"]
fn equivalence_matches_its_result_file() {
    let text = equivalence(PAPER_GATES).expect("sweeps");
    assert_eq!(text, expected("equivalence.txt"));
}

#[test]
fn sensitivity_matches_its_result_file() {
    let text = sensitivity(PAPER_GATES).expect("solves");
    assert_eq!(text, expected("sensitivity.txt"));
}

#[test]
fn ablation_matches_its_result_file() {
    let text = ablation(PAPER_GATES).expect("problems build");
    assert_eq!(text, expected("ablation.txt"));
}

#[test]
fn nodes_matches_its_result_file() {
    let text = nodes().expect("problems build");
    assert_eq!(text, expected("nodes.txt"));
}

#[test]
#[ignore = "45 stacks on each of three nodes at 400k gates, about 11 s in debug; run in release with --ignored"]
fn optimize_matches_its_result_file() {
    let gates = PAPER_GATES.min(OPTIMIZE_MAX_GATES);
    let mut text = optimize_heading(gates);
    for node in presets::all() {
        text.push_str(&optimize_node(&node, gates).expect("stacks rank"));
    }
    assert_eq!(text, expected("optimize.txt"));
}

/// A reader that stops reading is not a failure: with the pipe's read
/// end dropped before the spawn, every write to stdout fails with a
/// broken pipe, and the binaries still exit 0 without a panic.
#[test]
fn a_closed_stdout_exits_zero() {
    for binary in [env!("CARGO_BIN_EXE_table3"), env!("CARGO_BIN_EXE_figure2")] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = std::process::Command::new(binary)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{binary}: {stderr}");
        assert!(!stderr.contains("panicked"), "{binary}: {stderr}");
    }
}
