//! Adaptive refinement is deterministic: bisecting the clock cliff of
//! a fixed spec solves exactly the same points, in the same number of
//! rounds, with the same solver work, on every run.
//!
//! `dp.memo_hits` is absent and `dp.memo_misses` small because only
//! candidates at or above the greedy rank probe the pack memo (see
//! `ia_rank::dp`); no candidate below it can be a point's answer.

use ia_dse::{ExperimentSpec, RunOptions};

#[test]
fn clock_cliff_refinement_solves_the_pinned_points() {
    let spec = ExperimentSpec::parse_str(
        r#"{"name": "adaptive-pin",
            "base": {"gates": 100000, "bunch": 5000},
            "axes": [{"knob": "c", "values": [200.0, 1000.0, 2000.0, 3000.0]}],
            "strategy": {"adaptive": {"threshold": 0.1, "max_rounds": 3}},
            "workers": 4}"#,
    )
    .expect("spec parses");
    let root = std::env::temp_dir().join(format!("ia-dse-adaptive-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    ia_obs::set_enabled(true);
    ia_obs::reset();
    let outcome = ia_dse::run(&spec, &root, &RunOptions::default()).expect("adaptive run");
    let counters: Vec<(String, u64)> = ia_obs::snapshot().counters.into_iter().collect();
    ia_obs::reset();
    let _ = std::fs::remove_dir_all(&root);

    assert!(outcome.complete);
    assert_eq!(
        (outcome.total_points, outcome.rounds, outcome.solved),
        (6, 3, 6)
    );
    let pinned: Vec<(String, u64)> = [
        ("dp.candidates", 662_904),
        ("dp.front_insertions", 7_217),
        ("dp.front_max", 1),
        ("dp.front_pruned", 1_422),
        ("dp.memo_misses", 106),
        ("dp.states", 3_787),
        ("dse.points.solved", 6),
        ("dse.rounds", 3),
        ("instance.bunches", 2_364),
        ("instance.pairs", 18),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_owned(), value))
    .collect();
    assert_eq!(counters, pinned);
}
