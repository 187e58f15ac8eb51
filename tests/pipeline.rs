//! End-to-end pipeline tests: technology presets → WLD generation →
//! coarsening → RC extraction → delay/repeater planning → rank DP,
//! checking the physical invariants the paper's experiments rely on.

use interconnect_rank::prelude::*;
use interconnect_rank::rank::sweep::{self, Axis};

const GATES: u64 = 60_000;
const BUNCH: u64 = 4_000;

fn baseline(node: &tech::TechnologyNode) -> rank::RankProblem {
    let architecture = arch::Architecture::baseline(node);
    rank::RankProblem::builder(node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("gate count is valid"))
        .bunch_size(BUNCH)
        .build()
        .expect("baseline problem builds")
}

#[test]
fn every_preset_node_produces_a_well_formed_problem() {
    for node in tech::presets::all() {
        let problem = baseline(&node);
        let result = problem.rank();
        assert!(result.rank() <= result.total_wires(), "{}", node.name());
        assert!(
            result.normalized() >= 0.0 && result.normalized() <= 1.0,
            "{}",
            node.name()
        );
        assert!(
            result.repeater_area().square_meters()
                <= problem.die().repeater_budget().square_meters() + 1e-15,
            "{}: repeater budget violated",
            node.name()
        );
        assert!(problem.rank_error_bound() <= BUNCH, "{}", node.name());
    }
}

#[test]
fn greedy_is_dominated_on_every_preset_node() {
    for node in tech::presets::all() {
        let problem = baseline(&node);
        assert!(
            problem.greedy_rank().rank() <= problem.rank().rank(),
            "{}",
            node.name()
        );
    }
}

#[test]
fn physical_rank_is_monotone_in_budget_at_fixed_die() {
    // Note: sweeping the repeater *fraction* also inflates the die
    // (Eq. 6), which lengthens every wire and can offset the budget
    // gain at small design scales; only at the paper's 1M-gate scale is
    // the fraction sweep itself monotone (see the `table4` binary).
    // The invariant that always holds is monotonicity in the budget at
    // a fixed die, which we check by rescaling the lowered instance.
    use interconnect_rank::rank::{dp, Instance};
    let problem = baseline(&tech::presets::tsmc130());
    let inst = problem.instance();
    let mut last = 0;
    for scale in [0.25, 0.5, 1.0, 2.0] {
        let scaled = Instance::new(
            (0..inst.pair_count()).map(|j| *inst.pair(j)).collect(),
            (0..inst.bunch_count())
                .map(|i| inst.bunch(i).clone())
                .collect(),
            inst.vias_per_wire(),
            inst.repeater_budget() * scale,
        )
        .expect("rescaled instance is valid");
        let rank = dp::rank(&scaled).rank_wires;
        assert!(rank >= last, "budget scale {scale}: rank {rank} < {last}");
        last = rank;
    }
}

#[test]
fn physical_rank_is_monotone_in_permittivity_and_miller() {
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let builder = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("valid"))
        .bunch_size(BUNCH);

    let k = sweep::sweep_axis(&builder, Axis::K, &[3.9, 3.3, 2.7, 2.1]).expect("sweep runs");
    for w in k.windows(2) {
        assert!(w[1].rank >= w[0].rank, "K sweep not monotone: {k:?}");
    }
    let m = sweep::sweep_axis(&builder, Axis::M, &[2.0, 1.6, 1.3, 1.0]).expect("sweep runs");
    for w in m.windows(2) {
        assert!(w[1].rank >= w[0].rank, "M sweep not monotone: {m:?}");
    }
    // Per unit of relative reduction, K is at least as effective as M
    // (K scales the whole capacitance, M only the coupling term).
    let k_gain = k.last().expect("non-empty").normalized / k[0].normalized.max(1e-12);
    let m_gain = m.last().expect("non-empty").normalized / m[0].normalized.max(1e-12);
    // K swept by 46%, M by 50%: K's gain should still win or tie.
    assert!(
        k_gain >= m_gain * 0.95,
        "K gain {k_gain} unexpectedly below M gain {m_gain}"
    );
}

#[test]
fn physical_rank_is_non_increasing_in_clock() {
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let builder = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("valid"))
        .bunch_size(BUNCH);
    let c =
        sweep::sweep_axis(&builder, Axis::C, &[5e8, 9e8, 1.3e9, 1.7e9, 2.5e9]).expect("sweep runs");
    for w in c.windows(2) {
        assert!(w[1].rank <= w[0].rank, "C sweep not monotone: {c:?}");
    }
}

/// Table 4's directions on dense grids at the paper's scale (1M gates,
/// 130 nm): lowering K or M, or raising R, never lowers the rank, and
/// raising C never raises it. About 400 solves, so it is ignored by
/// default; CI runs it with `cargo test --release --test pipeline --
/// --ignored`.
#[test]
#[ignore = "409 solves at 1M gates; run in release with --ignored"]
fn table4_directions_hold_on_dense_grids_at_paper_scale() {
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let at = |gates| {
        rank::RankProblem::builder(&node, &architecture)
            .wld_spec(wld::WldSpec::new(gates).expect("valid"))
            .bunch_size(10_000)
    };
    let paper = at(1_000_000);
    // Integer steps from Table 4's baseline outward, so every value is
    // exact to its last digit; the first and last ranks are pinned.
    let grids = [
        (
            Axis::K,
            (0..=105)
                .map(|i| f64::from(390 - 2 * i) / 100.0)
                .collect::<Vec<_>>(),
            (114_255, 161_873),
        ),
        (
            Axis::M,
            (0..=100).map(|i| f64::from(200 - i) / 100.0).collect(),
            (114_255, 142_152),
        ),
        (
            Axis::C,
            (0..=120).map(|i| f64::from(500 + 10 * i) * 1.0e6).collect(),
            (114_255, 83_711),
        ),
        (
            Axis::R,
            (0..=80).map(|i| f64::from(100 + 5 * i) / 1000.0).collect(),
            (0, 169_730),
        ),
    ];
    for (axis, values, (first, last)) in grids {
        let points = sweep::sweep_axis(&paper, axis, &values).expect("sweep runs");
        let ranks: Vec<u64> = points.iter().map(|p| p.rank).collect();
        assert_eq!((ranks[0], ranks[ranks.len() - 1]), (first, last), "{axis}");
        for (w, x) in ranks.windows(2).zip(&values[1..]) {
            // K and M fall and R rises along their grids, so the rank
            // may only grow; C rises, so it may only shrink.
            let holds = if axis == Axis::C {
                w[1] <= w[0]
            } else {
                w[1] >= w[0]
            };
            assert!(holds, "{axis} = {x}: rank {} after {}", w[1], w[0]);
        }
    }

    // At 200k gates the R column is not monotone: raising R inflates
    // the die (Eq. 6), which lengthens every wire and can cost more
    // rank than the larger repeater budget buys.
    let r = sweep::sweep_axis(&at(200_000), Axis::R, &[0.11, 0.44, 0.5]).expect("sweep runs");
    let ranks: Vec<u64> = r.iter().map(|p| p.rank).collect();
    assert_eq!(ranks, [36_335, 27_677, 34_219]);
}

#[test]
fn coarsening_error_stays_within_the_paper_bound() {
    // §5.1: rank error due to bunching is at most the largest bunch.
    // Comparing two granularities B > B' therefore bounds the gap by
    // B + B' (each is within its own bound of the exact rank).
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let spec = wld::WldSpec::new(GATES).expect("valid");
    let rank_at = |bunch: u64| {
        let p = rank::RankProblem::builder(&node, &architecture)
            .wld_spec(spec)
            .bunch_size(bunch)
            .build()
            .expect("coarsened problem builds");
        (p.rank().rank(), p.rank_error_bound())
    };
    let (fine_rank, fine_bound) = rank_at(125);
    for bunch in [500u64, 2_000, 8_000] {
        let (rank, bound) = rank_at(bunch);
        assert!(
            rank.abs_diff(fine_rank) <= bound + fine_bound,
            "bunch {bunch}: |{rank} - {fine_rank}| > {bound} + {fine_bound}"
        );
    }
    // Refinement converges: the coarse ranks approach the fine rank.
    let (r8k, _) = rank_at(8_000);
    let (r500, _) = rank_at(500);
    assert!(r500.abs_diff(fine_rank) <= r8k.abs_diff(fine_rank) + 500);
}

#[test]
fn binning_changes_rank_by_at_most_the_merged_spread() {
    // Binning with spread s replaces lengths by a representative within
    // ±s pitches; the rank should stay close for small spreads.
    let node = tech::presets::tsmc130();
    let architecture = arch::Architecture::baseline(&node);
    let spec = wld::WldSpec::new(GATES).expect("valid");
    let reference = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(spec)
        .bunch_size(BUNCH)
        .build()
        .expect("builds")
        .rank();
    let binned = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(spec)
        .bunch_size(BUNCH)
        .bin_spread(1)
        .build()
        .expect("builds")
        .rank();
    // Counts are preserved exactly.
    assert_eq!(reference.total_wires(), binned.total_wires());
    // Rank moves by less than 10% of the population for ±1-pitch bins.
    let drift = reference.rank().abs_diff(binned.rank()) as f64;
    assert!(
        drift / reference.total_wires() as f64 <= 0.10,
        "binning drift too large: {} vs {}",
        reference.rank(),
        binned.rank()
    );
}

#[test]
fn unroutable_architecture_reports_rank_zero_with_flag() {
    // A single semi-global pair cannot hold a 60k-gate WLD.
    let node = tech::presets::tsmc130();
    let architecture = arch::ArchitectureBuilder::new(&node)
        .semi_global_pairs(1)
        .build()
        .expect("non-empty stack");
    let problem = rank::RankProblem::builder(&node, &architecture)
        .wld_spec(wld::WldSpec::new(GATES).expect("valid"))
        .bunch_size(BUNCH)
        .build()
        .expect("builds");
    let result = problem.rank();
    assert_eq!(result.rank(), 0);
    assert!(!result.fully_assignable());
    assert!(result.to_string().contains("does not fit"));
}

#[test]
fn faster_nodes_carry_more_of_the_same_design() {
    // At fixed gate count and clock, the 90 nm node's denser wiring and
    // faster devices should never do worse than 180 nm.
    let r180 = baseline(&tech::presets::tsmc180()).rank().normalized();
    let r90 = baseline(&tech::presets::tsmc90()).rank().normalized();
    assert!(
        r90 >= r180 * 0.5,
        "90 nm normalized rank {r90} collapsed vs 180 nm {r180}"
    );
}
