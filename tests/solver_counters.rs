//! Pins the exact solver counters one `dp::rank` records.
//!
//! The `dp.*` and `instance.*` counters are pure functions of the
//! instance, so any drift means the DP's search changed. A change that
//! alters the search on purpose updates these values and says why.
//!
//! `dp.memo_hits` and `dp.memo_misses` count only the finalize calls at
//! or above the greedy floor (see `dp`'s module doc): a candidate
//! ranked below the greedy rank cannot be the answer, so it never
//! probes the memo. The floor moves no answer. An unroutable instance
//! ranks 0 under greedy, so its floor is 0 and skips nothing.

use interconnect_rank::prelude::*;
use interconnect_rank::rank::{dp, toy, Instance};

/// Solves `inst` once with the collector on and returns everything
/// that solve recorded as counters, with the solved rank.
fn counters_of_one_solve(inst: &Instance) -> (u64, Vec<(String, u64)>) {
    ia_obs::set_enabled(true);
    ia_obs::reset();
    let rank = dp::rank(inst).rank_wires;
    let counters = ia_obs::snapshot().counters.into_iter().collect();
    ia_obs::reset();
    (rank, counters)
}

fn expected(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
    pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
}

#[test]
fn figure2_solve_records_the_pinned_counters() {
    let (rank, counters) = counters_of_one_solve(&toy::figure2());
    assert_eq!(rank, 4);
    assert_eq!(
        counters,
        expected(&[
            ("dp.candidates", 12),
            ("dp.front_insertions", 8),
            ("dp.front_max", 1),
            ("dp.front_pruned", 0),
            ("dp.memo_misses", 4),
            ("dp.states", 4),
            ("instance.bunches", 4),
            ("instance.pairs", 2),
        ])
    );
}

#[test]
fn budget_limited_toy_records_the_pinned_counters() {
    let (_, counters) = counters_of_one_solve(&toy::budget_limited(400, 2, 300.0));
    assert_eq!(
        counters,
        expected(&[
            ("dp.candidates", 151),
            ("dp.front_insertions", 151),
            ("dp.front_max", 1),
            ("dp.front_pruned", 0),
            ("dp.memo_misses", 1),
            ("dp.states", 1),
            ("instance.bunches", 400),
            ("instance.pairs", 1),
        ])
    );
}

/// The Table-2 baseline at the paper's scale: 1M gates at 130 nm,
/// bunch 10,000, every other knob at its default but the repeater
/// fraction `r`.
fn paper_baseline(repeater_fraction: f64) -> rank::RankProblem {
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(1_000_000).expect("gate count is valid"))
        .bunch_size(10_000)
        .repeater_fraction(repeater_fraction)
        .build()
        .expect("baseline problem builds")
}

#[test]
fn paper_baseline_solve_records_the_pinned_counters() {
    let problem = paper_baseline(0.4);
    assert_eq!(problem.instance().total_wires(), 2_988_007);
    let (rank, counters) = counters_of_one_solve(problem.instance());
    assert_eq!(rank, 114_255);
    assert_eq!(
        counters,
        expected(&[
            ("dp.candidates", 1_187_997),
            ("dp.front_insertions", 16_743),
            ("dp.front_max", 1),
            ("dp.front_pruned", 13_618),
            ("dp.memo_hits", 366),
            ("dp.memo_misses", 153),
            ("dp.states", 2_024),
            ("instance.bunches", 1_402),
            ("instance.pairs", 3),
        ])
    );
}

/// Table 4's R = 0.1 point: the baseline is unroutable there, so greedy
/// ranks 0, the floor is 0 and every candidate is finalized and fails.
/// This is the regime where the per-state max-fit scan is the saving.
#[test]
fn unroutable_point_records_the_pinned_counters() {
    let problem = paper_baseline(0.1);
    let (rank, counters) = counters_of_one_solve(problem.instance());
    assert_eq!(rank, 0);
    assert_eq!(
        counters,
        expected(&[
            ("dp.candidates", 928_568),
            ("dp.front_insertions", 16_201),
            ("dp.front_max", 1),
            ("dp.front_pruned", 13_418),
            ("dp.memo_hits", 884_001),
            ("dp.memo_misses", 44_567),
            ("dp.states", 1_805),
            ("instance.bunches", 1_402),
            ("instance.pairs", 3),
        ])
    );
}
