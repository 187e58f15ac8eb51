//! Integration tests for the extension modules built on the core
//! metric: frontier diagnosis, utilization reporting, stack
//! optimization and sensitivity analysis — all run against real
//! physical problems.

use interconnect_rank::prelude::*;
use interconnect_rank::rank::optimize::{optimize_stack, pareto_front, StackSearchSpace};
use interconnect_rank::rank::sensitivity::{sensitivities, OperatingPoint};
use interconnect_rank::rank::{explain, utilization};

const GATES: u64 = 60_000;

#[test]
fn frontier_diagnosis_is_actionable_on_the_baseline() {
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let problem = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("valid"))
        .bunch_size(4_000)
        .build()
        .expect("builds");
    let result = problem.rank();
    let verdict = explain::frontier(problem.instance(), result.solution());
    // At this scale the baseline stops for a concrete reason, and the
    // Display form names it.
    let text = verdict.to_string();
    assert!(!text.is_empty());
    if result.rank() == result.total_wires() {
        assert_eq!(verdict, explain::Frontier::Complete);
    } else {
        assert_ne!(verdict, explain::Frontier::Complete);
    }
}

#[test]
fn utilization_accounts_every_wire_of_a_physical_problem() {
    let node = tech::presets::tsmc90();
    let architecture = arch::Architecture::full_stack(&node);
    let problem = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("valid"))
        .bunch_size(4_000)
        .build()
        .expect("builds");
    let result = problem.rank();
    assert!(result.fully_assignable());
    let usage = utilization(problem.instance(), result.solution());
    assert_eq!(usage.len(), architecture.len());
    assert_eq!(
        usage.iter().map(|u| u.wires).sum::<u64>(),
        result.total_wires()
    );
    assert_eq!(
        usage.iter().map(|u| u.met_wires).sum::<u64>(),
        result.rank()
    );
    for u in &usage {
        assert!(u.wire_area <= u.capacity - u.via_blockage + 1e-12, "{u:?}");
    }
}

#[test]
fn full_stack_never_ranks_below_the_baseline() {
    // More pairs can only help (same tiers, extra capacity).
    let node = tech::presets::tsmc130();
    let spec = wld::WldSpec::new(GATES).expect("valid");
    let rank_of = |architecture: &arch::Architecture| {
        rank::RankProblem::builder(&node, architecture)
            .wld_spec(spec)
            .bunch_size(4_000)
            .build()
            .expect("builds")
            .rank()
            .rank()
    };
    let baseline = rank_of(&arch::Architecture::baseline(&node));
    let full = rank_of(&arch::Architecture::full_stack(&node));
    assert!(full >= baseline, "full {full} < baseline {baseline}");
}

#[test]
fn optimizer_finds_at_least_the_baseline_stack() {
    let node = tech::presets::tsmc130();
    let spec = wld::WldSpec::new(GATES).expect("valid");
    let space = StackSearchSpace {
        max_total_pairs: 4,
        global_pairs: 1..=1,
        semi_global_pairs: 1..=3,
        local_pairs: 0..=1,
        semi_global_pitch_scales: vec![1.0],
    };
    let ranked = optimize_stack(&node, &space, |b| b.wld_spec(spec).bunch_size(4_000))
        .expect("optimization runs");
    // The Table 2 baseline (1g+2sg) is inside the space, so the winner
    // must do at least as well as it.
    let baseline = ranked
        .iter()
        .find(|e| e.candidate.global == 1 && e.candidate.semi_global == 2 && e.candidate.local == 0)
        .expect("baseline candidate evaluated");
    assert!(ranked[0].rank >= baseline.rank);
    // The Pareto front never contains dominated or unroutable entries.
    for e in pareto_front(&ranked) {
        assert!(e.routable && e.rank > 0);
    }
}

#[test]
fn sensitivity_report_covers_all_knobs_consistently() {
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let builder = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("valid"))
        .bunch_size(4_000);
    let report =
        sensitivities(&builder, &OperatingPoint::paper_baseline(), 0.2).expect("sensitivity runs");
    assert_eq!(report.len(), 4);
    let baseline = report[0].baseline_normalized;
    for s in &report {
        assert_eq!(s.baseline_normalized, baseline);
        assert!(s.elasticity.value().is_some_and(f64::is_finite));
    }
}
