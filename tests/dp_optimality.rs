//! Property tests pinning the optimized DP to the reference solvers on
//! randomized instances:
//!
//! * `dp::rank` == `exhaustive::rank_exhaustive` (ground truth) on
//!   arbitrary small instances — validates the Pareto-front state, the
//!   max-fit extras rule, and the prefix reformulation;
//! * `dp::rank` == `exact::rank_exact` (the paper's literal 4-D DP) on
//!   unit-repeater instances;
//! * `greedy::rank_greedy` never exceeds `dp::rank`;
//! * `assign::greedy_pack` is optimal among contiguous delay-free
//!   packings (the paper's Lemma 1), against a brute-force packer;
//! * `dp::rank` returns the same solution whether the telemetry
//!   collector and tracing are off or on;
//! * `dp::rank` returns the same whole `Solution` as [`reference`],
//!   the plain search its per-state shortcuts replaced, on random
//!   integer and fractional instances and, in an ignored release test,
//!   at paper scale.

use interconnect_rank::rank::canon::BoundConfig;
use interconnect_rank::rank::sweep::{self, Axis};
use interconnect_rank::rank::{
    assign, dp, exact, exhaustive, greedy, toy, utilization, BunchSolverSpec, Instance, Need,
    PairSolverSpec,
};
use proptest::prelude::*;

fn need_strategy() -> impl Strategy<Value = Need> {
    prop_oneof![
        2 => Just(Need::Unbuffered),
        3 => (1u64..4).prop_map(Need::Repeaters),
        1 => Just(Need::Unattainable),
    ]
}

/// Random instance with unit repeater areas (compatible with the
/// faithful 4-D DP) and small-integer geometry so f64 comparisons are
/// exact. `max_via` scales via blockage; pass 0 for via-free instances
/// (where Algorithm 4 and Algorithm 5 accounting coincide — see the
/// `dp_matches_papers_literal_4d_dp_without_vias` note).
fn instance_strategy(
    max_pairs: usize,
    max_bunches: usize,
    max_via: u64,
) -> impl Strategy<Value = Instance> {
    let pairs = proptest::collection::vec(
        ((4u64..40), (0u64..=max_via)).prop_map(|(cap, via)| PairSolverSpec {
            capacity: cap as f64,
            via_area: via as f64 * 0.5,
            repeater_unit_area: 1.0,
        }),
        1..=max_pairs,
    );
    (pairs, 0u64..16).prop_flat_map(move |(pairs, budget)| {
        let m = pairs.len();
        let bunch = (
            (1u64..4),                                         // count
            proptest::collection::vec(1u64..6, m..=m),         // per-pair wire area
            proptest::collection::vec(need_strategy(), m..=m), // per-pair need
        );
        proptest::collection::vec(bunch, 1..=max_bunches).prop_map(move |raw| {
            let n = raw.len() as u64;
            let bunches = raw
                .into_iter()
                .enumerate()
                .map(|(i, (count, areas, needs))| BunchSolverSpec {
                    length: 2 * (n - i as u64) + 2,
                    count,
                    wire_area: areas.iter().map(|&a| a as f64).collect(),
                    need: needs,
                })
                .collect();
            Instance::new(pairs.clone(), bunches, 2, budget as f64)
                .expect("generated instance is structurally valid")
        })
    })
}

/// Random instance whose wire areas are multiples of 0.1 up to 4.0,
/// which binary floating point cannot hold exactly, so the order of
/// the additions matters. Each pair's capacity is the exact left fold
/// of its areas over a run of bunches, the sum the DP's sweep reaches
/// when it starts at that run, so partial sums land on the capacity
/// boundary. Via and repeater areas and the budget are tenths too.
fn fractional_instance_strategy(
    max_pairs: usize,
    max_bunches: usize,
) -> impl Strategy<Value = Instance> {
    (1..=max_pairs, 1..=max_bunches).prop_flat_map(|(m, n)| {
        let bunch = (
            (1u64..4),                                         // count
            proptest::collection::vec(1u64..=40, m..=m),       // wire area, tenths
            proptest::collection::vec(need_strategy(), m..=m), // per-pair need
        );
        let pair = (
            (0..n),     // first bunch of the capacity run
            (1..=n),    // its length
            (0u64..=4), // via area, tenths
            (1u64..20), // repeater unit area, tenths
        );
        (
            proptest::collection::vec(bunch, n..=n),
            proptest::collection::vec(pair, m..=m),
            0u64..=160,
        )
            .prop_map(move |(raw, raw_pairs, budget)| {
                let tenths = |t: u64| t as f64 * 0.1;
                let bunches: Vec<BunchSolverSpec> = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, (count, areas, needs))| BunchSolverSpec {
                        length: 2 * (n - i) as u64 + 2,
                        count,
                        wire_area: areas.into_iter().map(tenths).collect(),
                        need: needs,
                    })
                    .collect();
                let pairs = raw_pairs
                    .into_iter()
                    .enumerate()
                    .map(|(j, (start, len, via, repeater))| PairSolverSpec {
                        capacity: bunches[start..(start + len).min(n)]
                            .iter()
                            .fold(0.0, |sum, b| sum + b.wire_area[j]),
                        via_area: tenths(via),
                        repeater_unit_area: tenths(repeater),
                    })
                    .collect();
                Instance::new(pairs, bunches, 2, tenths(budget))
                    .expect("generated instance is structurally valid")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn dp_matches_the_reference_search(inst in instance_strategy(3, 6, 2)) {
        prop_assert_eq!(dp::rank(&inst), reference::rank(&inst), "instance: {:?}", inst);
    }

    #[test]
    fn dp_matches_the_reference_search_on_fractional_areas(
        inst in fractional_instance_strategy(3, 6)
    ) {
        prop_assert_eq!(dp::rank(&inst), reference::rank(&inst), "instance: {:?}", inst);
    }

    #[test]
    fn dp_matches_exhaustive_oracle(inst in instance_strategy(3, 5, 2)) {
        let dp_rank = dp::rank(&inst).rank_wires;
        let oracle = exhaustive::rank_exhaustive(&inst);
        prop_assert_eq!(dp_rank, oracle, "instance: {:?}", inst);
    }

    // Without via blockage, Algorithm 4 and Algorithm 5 accounting
    // coincide and the paper's literal 4-D DP is exactly equivalent to
    // the optimized DP.
    #[test]
    fn dp_matches_papers_literal_4d_dp_without_vias(inst in instance_strategy(2, 4, 0)) {
        let dp_rank = dp::rank(&inst).rank_wires;
        let four_d = exact::rank_exact(&inst).expect("unit repeater areas");
        prop_assert_eq!(dp_rank, four_d, "instance: {:?}", inst);
    }

    // With via blockage the paper's pseudocode is *internally
    // inconsistent*: every table entry `M[i, j, r, i']` embeds an `M''`
    // (Algorithm 5) check that charges tail wires' vias to their own
    // layer-pairs, while the met-wire accounting of `M'` (Algorithm 4)
    // does not. The intermediate `M''` checks are therefore
    // over-conservative and the literal 4-D DP can miss embeddings the
    // exhaustive oracle (and the optimized DP, which applies `M''` only
    // to the genuinely delay-free final tail) finds. See DESIGN.md.
    #[test]
    fn literal_4d_dp_is_a_lower_bound_with_vias(inst in instance_strategy(2, 4, 2)) {
        let dp_rank = dp::rank(&inst).rank_wires;
        let four_d = exact::rank_exact(&inst).expect("unit repeater areas");
        prop_assert!(four_d <= dp_rank, "instance: {:?}", inst);
    }

    #[test]
    fn greedy_never_beats_dp(inst in instance_strategy(3, 6, 2)) {
        prop_assert!(greedy::rank_greedy(&inst).rank_wires <= dp::rank(&inst).rank_wires);
    }

    #[test]
    fn dp_rank_is_monotone_in_budget(inst in instance_strategy(3, 5, 2), extra in 1u64..8) {
        let richer = Instance::new(
            (0..inst.pair_count()).map(|j| *inst.pair(j)).collect(),
            (0..inst.bunch_count()).map(|i| inst.bunch(i).clone()).collect(),
            inst.vias_per_wire(),
            inst.repeater_budget() + extra as f64,
        ).expect("rebudgeted instance is valid");
        prop_assert!(dp::rank(&richer).rank_wires >= dp::rank(&inst).rank_wires);
    }

    #[test]
    fn solution_accounting_is_consistent(inst in instance_strategy(3, 5, 2)) {
        let s = dp::rank(&inst);
        prop_assert!(s.repeater_area <= inst.repeater_budget() + 1e-9);
        prop_assert!(s.rank_wires <= inst.total_wires());
        prop_assert!(s.normalized >= 0.0 && s.normalized <= 1.0);
        prop_assert_eq!(s.rank_wires, inst.wires_before(s.met_bunches));
        if s.rank_wires > 0 {
            prop_assert!(s.fully_assignable);
        }
        // Segments partition the met prefix.
        let mut cursor = 0;
        for seg in &s.segments {
            prop_assert_eq!(seg.met_start, cursor);
            prop_assert!(seg.met_end >= seg.met_start);
            cursor = seg.met_end;
        }
        prop_assert_eq!(cursor, s.met_bunches);
    }

    #[test]
    fn utilization_report_is_consistent(inst in instance_strategy(3, 5, 2)) {
        let s = dp::rank(&inst);
        if !s.fully_assignable {
            return Ok(());
        }
        let usage = utilization(&inst, &s);
        prop_assert_eq!(usage.len(), inst.pair_count());
        // Every wire is placed exactly once; met counts match the rank.
        prop_assert_eq!(usage.iter().map(|u| u.wires).sum::<u64>(), inst.total_wires());
        prop_assert_eq!(usage.iter().map(|u| u.met_wires).sum::<u64>(), s.rank_wires);
        // Repeater accounting agrees with the solution.
        let area: f64 = usage.iter().map(|u| u.repeater_area).sum();
        prop_assert!((area - s.repeater_area).abs() < 1e-9);
        prop_assert_eq!(usage.iter().map(|u| u.repeaters).sum::<u64>(), s.repeater_count);
    }

    #[test]
    fn greedy_pack_is_optimal_among_contiguous_splits(inst in instance_strategy(3, 5, 2)) {
        // Lemma 1: for every tail start and pair range, greedy_pack
        // succeeds iff some contiguous split fits under the paper's
        // accounting.
        for start in 0..=inst.bunch_count() {
            for first_pair in 0..inst.pair_count() {
                let greedy_ok = assign::greedy_pack(&inst, start, first_pair, 0, 0);
                let brute_ok = brute_force_pack(&inst, start, first_pair);
                prop_assert_eq!(
                    greedy_ok, brute_ok,
                    "start {} first_pair {} instance {:?}", start, first_pair, inst
                );
            }
        }
    }

    /// Instrumentation observes the solve and never steers it: the
    /// collector and the tracer leave the solution unchanged.
    #[test]
    fn telemetry_never_changes_the_solution(
        inst in prop_oneof![
            instance_strategy(3, 5, 2),
            Just(toy::figure2()),
            (1u64..32, 1u64..4, 0.0f64..64.0)
                .prop_map(|(wires, per, budget)| toy::budget_limited(wires, per, budget)),
        ]
    ) {
        ia_obs::set_enabled(false);
        ia_obs::set_trace_enabled(false);
        let off = dp::rank(&inst);
        ia_obs::set_enabled(true);
        let on = dp::rank(&inst);
        ia_obs::set_trace_enabled(true);
        let traced = dp::rank(&inst);
        ia_obs::set_enabled(false);
        ia_obs::set_trace_enabled(false);
        ia_obs::reset();
        let _ = ia_obs::drain_trace();
        prop_assert_eq!(&on, &off);
        prop_assert_eq!(&traced, &off);
    }
}

/// Brute-force contiguous packer mirroring `greedy_assign`'s accounting:
/// a split assigns bunches `start..` to pairs `first_pair..` in
/// contiguous descending segments; pair `q` is feasible iff its wire
/// area plus the via charge of every tail wire at-or-below `q` fits its
/// blocked capacity.
fn brute_force_pack(inst: &Instance, start: usize, first_pair: usize) -> bool {
    let n = inst.bunch_count();
    let m = inst.pair_count();
    if start >= n {
        return true;
    }
    if first_pair >= m {
        return false;
    }

    fn recurse(inst: &Instance, q: usize, seg_start: usize) -> bool {
        let n = inst.bunch_count();
        let m = inst.pair_count();
        if seg_start == n {
            return true;
        }
        if q >= m {
            return false;
        }
        for seg_end in seg_start..=n {
            let area: f64 = (seg_start..seg_end)
                .map(|i| inst.bunch(i).wire_area[q])
                .sum();
            // The split is top-down contiguous: pairs above q hold the
            // tail bunches before `seg_start`, so the wires at-or-below
            // pair q (greedy_assign's incremental via charge at its
            // binding step) are exactly bunches seg_start..n.
            let at_or_below: u64 = (seg_start..n).map(|i| inst.bunch(i).count).sum();
            let charge = (at_or_below * inst.vias_per_wire()) as f64 * inst.pair(q).via_area;
            let cap = inst.blocked_capacity(q, 0, 0);
            // An empty segment imposes no constraint (greedy_assign only
            // checks a pair when it actually places a wire there).
            let feasible = seg_end == seg_start || area + charge <= cap;
            if feasible && recurse(inst, q + 1, seg_end) {
                return true;
            }
            if !feasible && seg_end > seg_start {
                break;
            }
        }
        false
    }

    recurse(inst, first_pair, start)
}

/// The paper-scale differential: `dp::rank` against [`reference`] on
/// the 61 Table-4 points at 1M gates/130 nm and on the Table-2
/// baseline at 2M and 4M gates/90 nm. It takes about 8 s in release,
/// nearly all of it in the reference, and about a minute in debug, so
/// it is ignored by default; CI runs it with `cargo test --release
/// --test dp_optimality -- --ignored`.
#[test]
#[ignore = "reference solves at paper scale, about 64 s in debug; run in release with --ignored"]
fn dp_matches_the_reference_search_at_paper_scale() {
    let paper = BoundConfig::default();
    let mut configs = Vec::new();
    for axis in [Axis::K, Axis::M, Axis::C, Axis::R] {
        configs.extend(sweep::configs(&paper, axis, axis.paper_values()).expect("the grid binds"));
    }
    assert_eq!(configs.len(), 61);
    for gates in [2_000_000, 4_000_000] {
        configs.push(BoundConfig {
            node: "90".to_owned(),
            gates,
            ..BoundConfig::default()
        });
    }
    for config in &configs {
        let bound = config.bind().expect("configuration binds");
        let problem = bound
            .builder()
            .expect("gate count is valid")
            .build()
            .expect("problem builds");
        let inst = problem.instance();
        assert_eq!(
            dp::rank(inst),
            reference::rank(inst),
            "{}",
            config.canonical_string()
        );
    }
}

/// The plain prefix/Pareto search, without `dp::rank`'s per-state
/// shortcuts: every candidate scans its own max-fit extras,
/// builds its own path node and is finalized, with no greedy floor and
/// no telemetry. The differential tests hold `dp::rank` to it field
/// for field.
mod reference {
    use interconnect_rank::rank::assign::greedy_pack;
    use interconnect_rank::rank::{Instance, Segment, Solution};
    use std::collections::HashMap;
    use std::rc::Rc;

    struct Node {
        segment: Segment,
        parent: Option<Rc<Node>>,
    }

    #[derive(Clone)]
    struct Entry {
        area: f64,
        count: u64,
        path: Option<Rc<Node>>,
    }

    /// Pareto insert: ascending area, strictly descending count.
    fn insert(front: &mut Vec<Entry>, e: Entry) {
        let pos =
            front.partition_point(|x| x.area < e.area || (x.area == e.area && x.count <= e.count));
        if pos > 0 && front[pos - 1].area <= e.area && front[pos - 1].count <= e.count {
            return;
        }
        let mut end = pos;
        while end < front.len() && front[end].area >= e.area && front[end].count >= e.count {
            end += 1;
        }
        front.splice(pos..end, [e]);
    }

    fn segments(path: &Option<Rc<Node>>) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut cursor = path.as_ref();
        while let Some(node) = cursor {
            out.push(node.segment);
            cursor = node.parent.as_ref();
        }
        out.reverse();
        out
    }

    pub fn rank(inst: &Instance) -> Solution {
        let n = inst.bunch_count();
        let budget = inst.repeater_budget();
        let mut best = Solution::zero(greedy_pack(inst, 0, 0, 0, 0));
        let mut memo: HashMap<(usize, usize, u64), bool> = HashMap::new();
        let mut finalize =
            |pair: usize, met_end: usize, used: f64, cap: f64, e: &Entry, best: &mut Solution| {
                let rank_wires = inst.wires_before(met_end);
                let improves_rank = rank_wires > best.rank_wires;
                let proves_assignable = !best.fully_assignable && rank_wires >= best.rank_wires;
                if !improves_rank && !proves_assignable {
                    return;
                }
                let mut extras_end = met_end;
                let mut area = used;
                while extras_end < n {
                    let next_area = area + inst.bunch(extras_end).wire_area[pair];
                    if next_area > cap {
                        break;
                    }
                    area = next_area;
                    extras_end += 1;
                }
                let ok = *memo
                    .entry((extras_end, pair + 1, e.count))
                    .or_insert_with(|| {
                        greedy_pack(
                            inst,
                            extras_end,
                            pair + 1,
                            inst.wires_before(extras_end),
                            e.count,
                        )
                    });
                if ok {
                    *best = Solution {
                        met_bunches: met_end,
                        rank_wires,
                        normalized: rank_wires as f64 / inst.total_wires() as f64,
                        fully_assignable: true,
                        repeater_area: e.area,
                        repeater_count: e.count,
                        segments: segments(&e.path),
                        extras_end,
                        active_pair: pair,
                    };
                }
            };
        let mut prev: Vec<Vec<Entry>> = vec![Vec::new(); n + 1];
        prev[0].push(Entry {
            area: 0.0,
            count: 0,
            path: None,
        });
        for j in 0..inst.pair_count() {
            let mut next: Vec<Vec<Entry>> = vec![Vec::new(); n + 1];
            for i1 in 0..=n {
                for entry in std::mem::take(&mut prev[i1]) {
                    let cap = inst.blocked_capacity(j, inst.wires_before(i1), entry.count);
                    finalize(j, i1, 0.0, cap, &entry, &mut best);
                    insert(&mut next[i1], entry.clone());
                    let (mut wire_area, mut rep_area, mut rep_count) = (0.0, 0.0, 0u64);
                    for i2 in i1..n {
                        let b = inst.bunch(i2);
                        if !b.need[j].attainable() {
                            break;
                        }
                        wire_area += b.wire_area[j];
                        if wire_area > cap {
                            break;
                        }
                        let cnt = b.need[j].repeaters_per_wire() * b.count;
                        rep_count += cnt;
                        rep_area += cnt as f64 * inst.pair(j).repeater_unit_area;
                        if entry.area + rep_area > budget {
                            break;
                        }
                        let e = Entry {
                            area: entry.area + rep_area,
                            count: entry.count + rep_count,
                            path: Some(Rc::new(Node {
                                segment: Segment {
                                    pair: j,
                                    met_start: i1,
                                    met_end: i2 + 1,
                                },
                                parent: entry.path.clone(),
                            })),
                        };
                        finalize(j, i2 + 1, wire_area, cap, &e, &mut best);
                        insert(&mut next[i2 + 1], e);
                    }
                }
            }
            prev = next;
        }
        best
    }
}
