//! The production rank solver.
//!
//! A reformulation of the paper's 4-D boolean DP (Algorithms 1–3) that
//! exploits the *prefix structure* of the recurrence: in Equation (1)
//! the reused subproblem is `M[i'_1, j, r_1, i'_1]` — its first and
//! fourth indices are equal — so every wire on pairs `1..j` meets its
//! target. Only the last "active" pair may hold a suffix of
//! delay-failing wires, and everything below is packed delay-free by
//! `greedy_assign`. The state therefore collapses to:
//!
//! > (pair `j`, delay-met bunch prefix `i'`, Pareto front of
//! > (repeater area, repeater count))
//!
//! Repeater **area** is tracked because it is budgeted (`A_R`);
//! repeater **count** is tracked because it drives via blockage on
//! lower pairs (Eq. 5); per-pair repeater sizes differ, so neither
//! subsumes the other and a small Pareto front of non-dominated
//! `(area, count)` pairs is kept per state.
//!
//! Within a transition (assigning bunches `i1..i2` to pair `j+1`), the
//! repeater demand of each wire is an independent function of its
//! length and the pair (precomputed in the [`Instance`]), so segments
//! are swept incrementally in `O(1)` per bunch. Overall complexity is
//! `O(m·n²·F)` for `F` the maximum front size — polynomial, versus the
//! paper's `O(m·n⁴·A_R³)` table — while returning the same optimum
//! (property-checked against [`crate::exhaustive`] and
//! [`crate::exact`]).
//!
//! # Work per state, not per candidate
//!
//! A *state* is one front entry of prefix `i1` expanded on pair `j`;
//! its *candidates* are the met segments `i1..i2` the sweep offers.
//! Three shortcuts keep every field of the returned [`Solution`] equal
//! to what the plain search returns, the one that scans each
//! candidate's extras, builds each candidate's path node and finalizes
//! every candidate. `tests/dp_optimality.rs` keeps that plain search
//! as a reference and compares whole solutions with it.
//!
//! * **Max-fit extras once per state.** The state fixes the pair's
//!   blocked capacity `cap`. Every candidate's max-fit scan continues
//!   one left fold of `wire_area[j]`, started at `0.0` at `i1`: the
//!   sweep adds the same terms in the same order, and it has checked
//!   each partial sum `<= cap` up to the candidate's `met_end`. The
//!   scan stops at the first bunch whose partial sum exceeds `cap`,
//!   and since no earlier partial sum does, that is the first such
//!   bunch from `i1` on, whichever candidate scans. So `extras_end` is
//!   the same for every candidate of the state, to the bit, with no
//!   prefix sums and no rounding of areas. It is computed at the
//!   state's first finalize that passes the gate and reused after.
//! * **Path nodes only for kept entries.** `Front::insert` takes the
//!   `(area, count)` point and a closure that builds its path, and
//!   calls the closure only once the dominance test keeps the point.
//!   A finalize takes the state's parent path and the new segment,
//!   and on success lists the parent's segments and then that
//!   segment: what the node would have reconstructed to.
//! * **The greedy floor.** [`rank`] returns the first feasible
//!   candidate, in iteration order, whose rank is the maximum: `best`
//!   changes only on a strictly higher rank or on the first proof of
//!   assignability, and feasibility never depends on earlier
//!   candidates, because the memo caches only `greedy_pack`, a pure
//!   function. So skipping every candidate ranked below a lower bound
//!   on the optimum leaves every field of the answer the same. The
//!   floor is the greedy rank ([`crate::greedy::rank_greedy`]), which
//!   the DP never falls below (`greedy_never_beats_dp`). It is guarded
//!   all the same: a search that ends below its floor fails a debug
//!   assertion and is re-run with the floor at 0, whose answer is
//!   exact in every case. Only `dp.memo_hits` and `dp.memo_misses`
//!   see the floor, since fewer finalize calls probe the memo. An
//!   unroutable instance ranks 0 under greedy, so its floor is 0.

use crate::assign::greedy_pack;
use crate::greedy::rank_greedy;
use crate::result::Segment;
use crate::telemetry::{self, names};
use crate::{Instance, Solution};
use std::collections::HashMap;
use std::rc::Rc;

/// Breadcrumb for solution reconstruction.
#[derive(Debug)]
struct PathNode {
    pair: usize,
    met_start: usize,
    met_end: usize,
    parent: Option<Rc<PathNode>>,
}

/// One non-dominated repeater-usage point of a DP state.
#[derive(Debug, Clone)]
struct FrontEntry {
    area: f64,
    count: u64,
    path: Option<Rc<PathNode>>,
}

/// A Pareto front: sorted by ascending area, strictly descending count.
#[derive(Debug, Clone, Default)]
struct Front {
    entries: Vec<FrontEntry>,
}

/// What one solve counted. The inner loop adds to plain integers;
/// [`Tally::record`] hands the totals to the collector once per solve.
#[derive(Debug, Default)]
struct Tally {
    states: u64,
    candidates: u64,
    insertions: u64,
    pruned: u64,
    front_max: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Tally {
    /// Records the `dp.*` counters. Each appears exactly when a
    /// per-event recording would have created it: the front counters
    /// once an insert was kept, the rest once they are non-zero.
    fn record(&self) {
        for (name, count) in [
            (names::DP_STATES, self.states),
            (names::DP_CANDIDATES, self.candidates),
            (names::DP_MEMO_HITS, self.memo_hits),
            (names::DP_MEMO_MISSES, self.memo_misses),
        ] {
            if count > 0 {
                telemetry::counter_add(name, count);
            }
        }
        if self.insertions > 0 {
            telemetry::counter_add(names::DP_FRONT_INSERTIONS, self.insertions);
            telemetry::counter_add(names::DP_FRONT_PRUNED, self.pruned);
            telemetry::counter_max(names::DP_FRONT_MAX, self.front_max);
        }
    }
}

impl Front {
    /// Offers the point `(area, count)`: inserts it unless dominated
    /// and prunes the entries it dominates. `path` builds the entry's
    /// breadcrumb and runs only for a kept point. Returns whether the
    /// point was kept.
    fn insert(
        &mut self,
        area: f64,
        count: u64,
        path: impl FnOnce() -> Option<Rc<PathNode>>,
        tally: &mut Tally,
    ) -> bool {
        tally.candidates += 1;
        // Find insertion point by area.
        let pos = self
            .entries
            .partition_point(|x| x.area < area || (x.area == area && x.count <= count));
        // Dominated by a cheaper-or-equal predecessor?
        if pos > 0 {
            let p = &self.entries[pos - 1];
            if p.area <= area && p.count <= count {
                return false;
            }
        }
        // Prune successors the new entry dominates.
        let mut end = pos;
        while end < self.entries.len()
            && self.entries[end].area >= area
            && self.entries[end].count >= count
        {
            end += 1;
        }
        let pruned = (end - pos) as u64;
        telemetry::histogram_record(names::DP_PRUNE_SCANNED, pruned);
        let kept = FrontEntry {
            area,
            count,
            path: path(),
        };
        self.entries.splice(pos..end, [kept]);
        let len = self.entries.len() as u64;
        tally.insertions += 1;
        tally.pruned += pruned;
        tally.front_max = tally.front_max.max(len);
        telemetry::histogram_record(names::DP_FRONT_LEN, len);
        #[cfg(any(test, feature = "strict-invariants"))]
        self.assert_invariants();
        true
    }

    /// Debug-checks the front's structural invariants: entries sorted
    /// by strictly ascending area and strictly descending count (which
    /// together imply pairwise non-domination), all values finite and
    /// non-negative.
    #[cfg(any(test, feature = "strict-invariants"))]
    fn assert_invariants(&self) {
        #[cfg(test)]
        contract_probe::observe(self.entries.len() as u64);
        for e in &self.entries {
            debug_assert!(
                e.area.is_finite() && e.area >= 0.0,
                "front entry area {} is not a finite non-negative value",
                e.area
            );
        }
        for w in self.entries.windows(2) {
            debug_assert!(
                w[0].area < w[1].area,
                "front areas not strictly ascending: {} then {}",
                w[0].area,
                w[1].area
            );
            debug_assert!(
                w[0].count > w[1].count,
                "front counts not strictly descending: {} then {}",
                w[0].count,
                w[1].count
            );
        }
    }
}

/// Rebuilds `inst` with the repeater budget zeroed, for the
/// strict-invariants monotonicity cross-check.
#[cfg(feature = "strict-invariants")]
fn budget_free_variant(inst: &Instance) -> Option<Instance> {
    let pairs = (0..inst.pair_count()).map(|j| *inst.pair(j)).collect();
    let bunches = (0..inst.bunch_count())
        .map(|i| inst.bunch(i).clone())
        .collect();
    Instance::new(pairs, bunches, inst.vias_per_wire(), 0.0).ok()
}

/// Test-only probe: the largest front length the invariant contracts
/// have observed on this thread. Lets tests cross-check the
/// `dp.front_max` telemetry counter against an independent witness.
#[cfg(test)]
pub(crate) mod contract_probe {
    use std::cell::Cell;

    thread_local! {
        static MAX_SEEN: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn observe(len: u64) {
        MAX_SEEN.with(|m| m.set(m.get().max(len)));
    }

    /// Returns the maximum observed so far and resets the probe.
    pub(crate) fn take() -> u64 {
        MAX_SEEN.with(|m| m.replace(0))
    }
}

/// The segments along `parent`, topmost pair first, followed by `last`.
fn reconstruct_segments(parent: &Option<Rc<PathNode>>, last: Option<Segment>) -> Vec<Segment> {
    let _span = telemetry::span(names::SPAN_RECONSTRUCT);
    let mut segments = Vec::new();
    let mut cursor = parent.as_ref();
    while let Some(node) = cursor {
        segments.push(Segment {
            pair: node.pair,
            met_start: node.met_start,
            met_end: node.met_end,
        });
        cursor = node.parent.as_ref();
    }
    segments.reverse();
    segments.extend(last);
    segments
}

/// Max-fit extras: continues the left fold of `wire_area[pair]` that
/// reached `area` at bunch `met_end`, and returns the first bunch
/// whose partial sum exceeds `cap` (or the bunch count). Under the
/// paper's via accounting, pushing as many delay-failing wires as fit
/// into the active pair's leftover capacity weakly dominates any
/// smaller choice: their via charge to lower pairs is identical either
/// way, and they free capacity below.
fn max_fit_end(inst: &Instance, pair: usize, met_end: usize, mut area: f64, cap: f64) -> usize {
    let mut extras_end = met_end;
    while extras_end < inst.bunch_count() {
        let next_area = area + inst.bunch(extras_end).wire_area[pair];
        if next_area > cap {
            break;
        }
        area = next_area;
        extras_end += 1;
    }
    extras_end
}

/// One DP state under expansion: a front entry of the delay-met prefix
/// `met_start`, offered to `pair`, whose capacity left under the
/// entry's via blockage is `cap`. `parent` is the entry's path.
struct State<'a> {
    pair: usize,
    met_start: usize,
    cap: f64,
    parent: &'a Option<Rc<PathNode>>,
    /// The state's max-fit extras end, computed by its first finalize
    /// that passes the gate (see the module doc).
    extras_end: Option<usize>,
}

/// The search's running answer and what its states share.
struct Search<'a> {
    inst: &'a Instance,
    /// Candidates ranked below this are not finalized.
    floor: u64,
    best: Solution,
    pack_memo: HashMap<(usize, usize, u64), bool>,
    tally: Tally,
}

impl Search<'_> {
    /// Treats the state's pair as the active pair, with the delay-met
    /// prefix ending at `met_end`: the met segment `met_start..met_end`
    /// consumed `wire_area` of `cap`, and the candidate uses `area` and
    /// `count` of repeaters in all.
    fn finalize(
        &mut self,
        state: &mut State<'_>,
        met_end: usize,
        wire_area: f64,
        area: f64,
        count: u64,
    ) {
        let inst = self.inst;
        let rank_wires = inst.wires_before(met_end);
        if rank_wires < self.floor {
            return;
        }
        let improves_rank = rank_wires > self.best.rank_wires;
        // A successful finalize also proves Definition-3 assignability,
        // which the Algorithm-5 base check may have missed (its via
        // accounting differs slightly for the topmost pair).
        let proves_assignable = !self.best.fully_assignable && rank_wires >= self.best.rank_wires;
        if !improves_rank && !proves_assignable {
            return;
        }
        let (pair, cap) = (state.pair, state.cap);
        let extras_end = *state
            .extras_end
            .get_or_insert_with(|| max_fit_end(inst, pair, met_end, wire_area, cap));
        #[cfg(feature = "strict-invariants")]
        debug_assert_eq!(
            extras_end,
            max_fit_end(inst, pair, met_end, wire_area, cap),
            "the state's max-fit end differs from the candidate's own scan"
        );
        let wires_above = inst.wires_before(extras_end);
        let key = (extras_end, pair + 1, count);
        let ok = match self.pack_memo.get(&key).copied() {
            Some(cached) => {
                self.tally.memo_hits += 1;
                cached
            }
            None => {
                self.tally.memo_misses += 1;
                let computed = greedy_pack(inst, extras_end, pair + 1, wires_above, count);
                self.pack_memo.insert(key, computed);
                computed
            }
        };
        if ok {
            let segment = (met_end > state.met_start).then_some(Segment {
                pair,
                met_start: state.met_start,
                met_end,
            });
            self.best = Solution {
                met_bunches: met_end,
                rank_wires,
                normalized: rank_wires as f64 / inst.total_wires() as f64,
                fully_assignable: true,
                repeater_area: area,
                repeater_count: count,
                segments: reconstruct_segments(state.parent, segment),
                extras_end,
                active_pair: pair,
            };
        }
    }
}

/// Computes the rank of an instance (Definition 2) with the optimized
/// prefix/Pareto dynamic program.
///
/// Returns a rank-0 [`Solution`] with `fully_assignable = false` when
/// the WLD cannot be embedded at all (Definition 3).
///
/// # Examples
///
/// ```
/// use ia_rank::{dp, toy};
///
/// let solution = dp::rank(&toy::figure2());
/// assert_eq!(solution.rank_wires, 4);
/// assert!(solution.fully_assignable);
/// ```
#[must_use]
pub fn rank(inst: &Instance) -> Solution {
    let _solve_span = telemetry::span(names::SPAN_DP_SOLVE);
    let (base_assignable, floor) = {
        let _seed_span = telemetry::span(names::SPAN_DP_SEED);
        telemetry::counter_add(names::INSTANCE_BUNCHES, inst.bunch_count() as u64);
        telemetry::counter_add(names::INSTANCE_PAIRS, inst.pair_count() as u64);
        (greedy_pack(inst, 0, 0, 0, 0), rank_greedy(inst).rank_wires)
    };
    let mut best = search(inst, base_assignable, floor);
    debug_assert!(
        best.rank_wires >= floor,
        "the DP ranked {} below its greedy floor {floor}",
        best.rank_wires
    );
    if best.rank_wires < floor {
        best = search(inst, base_assignable, 0);
    }

    // End the solve span here: the strict-invariants cross-check below
    // re-solves the instance at zero budget, and that debug contract
    // must not count as (or nest inside) this solve's span tree.
    drop(_solve_span);

    #[cfg(feature = "strict-invariants")]
    {
        let budget = inst.repeater_budget();
        // Solution self-consistency: the reported rank counts exactly
        // the wires of the met prefix, the repeater spend respects the
        // budget, and the met segments tile the prefix contiguously.
        debug_assert_eq!(best.rank_wires, inst.wires_before(best.met_bunches));
        debug_assert!(
            best.repeater_area <= budget * (1.0 + 1e-12) + 1e-12,
            "repeater area {} exceeds the budget {budget}",
            best.repeater_area
        );
        let mut cursor = 0;
        for seg in &best.segments {
            debug_assert_eq!(seg.met_start, cursor, "met segments must tile the prefix");
            cursor = seg.met_end;
        }
        debug_assert_eq!(cursor, best.met_bunches);
        // Definition 2's rank is monotone in the repeater budget: the
        // same instance with the budget zeroed can never rank higher.
        // (The zero-budget re-solve does not recurse further.)
        if budget > 0.0 {
            if let Some(free) = budget_free_variant(inst) {
                let _recheck_span = telemetry::span(names::SPAN_DP_STRICT_RECHECK);
                let lower = rank(&free);
                debug_assert!(
                    lower.rank_wires <= best.rank_wires,
                    "rank must be monotone in the budget: {} at zero budget vs {} at {budget}",
                    lower.rank_wires,
                    best.rank_wires
                );
            }
        }
    }

    best
}

/// The prefix/Pareto search proper, finalizing only candidates ranked
/// at or above `floor`. `base_assignable` is the Algorithm-5 check of
/// the whole WLD, which seeds the rank-0 answer. The tally reaches the
/// collector inside the last `expand` span.
fn search(inst: &Instance, base_assignable: bool, floor: u64) -> Solution {
    let n = inst.bunch_count();
    let m = inst.pair_count();
    let budget = inst.repeater_budget();
    let mut search = Search {
        inst,
        floor,
        best: Solution::zero(base_assignable),
        pack_memo: HashMap::new(),
        tally: Tally::default(),
    };

    // prev[p] = Pareto front of states with delay-met prefix `p` after
    // some prefix of pairs. Start: nothing assigned.
    let mut prev: Vec<Option<Front>> = vec![None; n + 1];
    prev[0] = Some(Front {
        entries: vec![FrontEntry {
            area: 0.0,
            count: 0,
            path: None,
        }],
    });

    for j in 0..m {
        let _expand_span = telemetry::span(names::SPAN_DP_EXPAND);
        let mut next: Vec<Option<Front>> = vec![None; n + 1];
        for i1 in 0..=n {
            let Some(front) = prev[i1].take() else {
                continue;
            };
            telemetry::histogram_record(names::DP_FRONT_OCCUPANCY, front.entries.len() as u64);
            for entry in &front.entries {
                search.tally.states += 1;
                let mut state = State {
                    pair: j,
                    met_start: i1,
                    cap: inst.blocked_capacity(j, inst.wires_before(i1), entry.count),
                    parent: &entry.path,
                    extras_end: None,
                };
                // Pair j as active pair with an empty met segment.
                search.finalize(&mut state, i1, 0.0, entry.area, entry.count);
                // Pair j skipped entirely: carry the state forward.
                next[i1].get_or_insert_with(Front::default).insert(
                    entry.area,
                    entry.count,
                    || entry.path.clone(),
                    &mut search.tally,
                );
                // Sweep delay-met extensions.
                let mut wire_area = 0.0;
                let mut rep_area = 0.0;
                let mut rep_count = 0u64;
                for i2 in i1..n {
                    let b = inst.bunch(i2);
                    if !b.need[j].attainable() {
                        break;
                    }
                    wire_area += b.wire_area[j];
                    if wire_area > state.cap {
                        break;
                    }
                    let cnt = b.need[j].repeaters_per_wire() * b.count;
                    rep_count += cnt;
                    rep_area += cnt as f64 * inst.pair(j).repeater_unit_area;
                    if entry.area + rep_area > budget {
                        break;
                    }
                    let (area, count) = (entry.area + rep_area, entry.count + rep_count);
                    search.finalize(&mut state, i2 + 1, wire_area, area, count);
                    next[i2 + 1].get_or_insert_with(Front::default).insert(
                        area,
                        count,
                        || {
                            Some(Rc::new(PathNode {
                                pair: j,
                                met_start: i1,
                                met_end: i2 + 1,
                                parent: entry.path.clone(),
                            }))
                        },
                        &mut search.tally,
                    );
                }
            }
        }
        prev = next;
        if j + 1 == m {
            search.tally.record();
        }
    }
    search.best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BunchSolverSpec, Need, PairSolverSpec};

    fn simple_pair(cap: f64, rep: f64) -> PairSolverSpec {
        PairSolverSpec {
            capacity: cap,
            via_area: 0.0,
            repeater_unit_area: rep,
        }
    }

    fn b(length: u64, count: u64, areas: &[f64], needs: &[Need]) -> BunchSolverSpec {
        BunchSolverSpec {
            length,
            count,
            wire_area: areas.to_vec(),
            need: needs.to_vec(),
        }
    }

    #[test]
    fn everything_meets_unbuffered() {
        let inst = Instance::new(
            vec![simple_pair(100.0, 1.0)],
            vec![
                b(9, 2, &[20.0], &[Need::Unbuffered]),
                b(4, 3, &[30.0], &[Need::Unbuffered]),
            ],
            2,
            0.0,
        )
        .unwrap();
        let s = rank(&inst);
        assert_eq!(s.rank_wires, 5);
        assert!((s.normalized - 1.0).abs() < 1e-12);
        assert_eq!(s.repeater_count, 0);
        assert!(s.fully_assignable);
    }

    #[test]
    fn budget_limits_rank() {
        // Each of 10 wires needs 1 repeater of area 1; budget 4 → rank 4.
        let inst = Instance::new(
            vec![simple_pair(1e9, 1.0)],
            (0..10)
                .map(|i| b(100 - i, 1, &[1.0], &[Need::Repeaters(1)]))
                .collect(),
            2,
            4.0,
        )
        .unwrap();
        let s = rank(&inst);
        assert_eq!(s.rank_wires, 4);
        assert_eq!(s.repeater_count, 4);
        assert!((s.repeater_area - 4.0).abs() < 1e-12);
    }

    #[test]
    fn unattainable_bunch_stops_the_prefix() {
        let inst = Instance::new(
            vec![simple_pair(1e9, 1.0)],
            vec![
                b(9, 5, &[5.0], &[Need::Unbuffered]),
                b(8, 5, &[5.0], &[Need::Unattainable]),
                b(7, 5, &[5.0], &[Need::Unbuffered]),
            ],
            2,
            100.0,
        )
        .unwrap();
        // Rank counts the leading prefix only: 5 wires.
        let s = rank(&inst);
        assert_eq!(s.rank_wires, 5);
        assert!(s.fully_assignable);
    }

    #[test]
    fn wld_that_does_not_fit_has_rank_zero() {
        let inst = Instance::new(
            vec![simple_pair(10.0, 1.0)],
            vec![b(5, 4, &[20.0], &[Need::Unbuffered])],
            2,
            100.0,
        )
        .unwrap();
        let s = rank(&inst);
        assert_eq!(s.rank_wires, 0);
        assert!(!s.fully_assignable);
    }

    #[test]
    fn two_pairs_split_the_prefix() {
        // Pair 0 fits one long bunch; pair 1 fits the short bunch.
        let inst = Instance::new(
            vec![simple_pair(40.0, 1.0), simple_pair(40.0, 1.0)],
            vec![
                b(10, 2, &[40.0, 40.0], &[Need::Unbuffered, Need::Unbuffered]),
                b(5, 2, &[30.0, 30.0], &[Need::Unbuffered, Need::Unbuffered]),
            ],
            2,
            0.0,
        )
        .unwrap();
        let s = rank(&inst);
        assert_eq!(s.rank_wires, 4);
        assert_eq!(s.segments.len(), 2);
    }

    #[test]
    fn figure2_counterexample_is_solved_optimally() {
        let s = rank(&crate::toy::figure2());
        assert_eq!(s.rank_wires, 4);
        // Optimal: 1 wire up (4 repeaters) + 3 wires down (3 repeaters).
        assert_eq!(s.repeater_count, 7);
    }

    #[test]
    fn rank_is_monotone_in_budget() {
        let make = |budget: f64| {
            Instance::new(
                vec![simple_pair(1e9, 1.0)],
                (0..20)
                    .map(|i| b(100 - i, 1, &[1.0], &[Need::Repeaters(2)]))
                    .collect(),
                2,
                budget,
            )
            .unwrap()
        };
        let mut last = 0;
        for budget in [0.0, 2.0, 5.0, 10.0, 40.0, 100.0] {
            let r = rank(&make(budget)).rank_wires;
            assert!(r >= last, "budget {budget}: {r} < {last}");
            last = r;
        }
        assert_eq!(rank(&make(100.0)).rank_wires, 20);
    }

    #[test]
    fn segments_cover_the_met_prefix_contiguously() {
        let inst = crate::toy::figure2();
        let s = rank(&inst);
        let mut cursor = 0;
        for seg in &s.segments {
            assert_eq!(seg.met_start, cursor);
            assert!(seg.met_end >= seg.met_start);
            cursor = seg.met_end;
        }
        assert_eq!(cursor, s.met_bunches);
        assert!(s.extras_end >= s.met_bunches);
    }

    #[test]
    fn front_insert_maintains_pareto_invariant() {
        let mut f = Front::default();
        let t = &mut Tally::default();
        assert!(f.insert(5.0, 10, || None, t));
        assert!(f.insert(3.0, 20, || None, t)); // incomparable: kept
        assert!(!f.insert(
            6.0,
            11,
            || unreachable!("a dominated point builds no path"),
            t
        ));
        assert!(f.insert(2.0, 5, || None, t)); // dominates everything
        assert_eq!(f.entries.len(), 1);
        assert!((f.entries[0].area - 2.0).abs() < 1e-12);
        // Four candidates, three kept, two pruned by the last one.
        assert_eq!(
            (t.candidates, t.insertions, t.pruned, t.front_max),
            (4, 3, 2, 2)
        );
    }

    mod front_properties {
        use super::*;
        use proptest::prelude::*;

        fn points() -> impl Strategy<Value = Vec<(f64, u64)>> {
            proptest::collection::vec((0.0f64..16.0, 0u64..16u64), 1..48)
        }

        proptest! {
            #[test]
            fn insert_preserves_sorting_and_nondomination(pts in points()) {
                let mut f = Front::default();
                for &(area, count) in &pts {
                    f.insert(area, count, || None, &mut Tally::default());
                    f.assert_invariants();
                }
                // Sorted: strictly ascending area, strictly descending
                // count — which implies pairwise non-domination.
                for w in f.entries.windows(2) {
                    prop_assert!(w[0].area < w[1].area);
                    prop_assert!(w[0].count > w[1].count);
                }
                // No pair of survivors dominates one another.
                for a in &f.entries {
                    for b in &f.entries {
                        let same = a.area == b.area && a.count == b.count;
                        prop_assert!(
                            same || !(a.area <= b.area && a.count <= b.count),
                            "({}, {}) dominates ({}, {})",
                            a.area, a.count, b.area, b.count
                        );
                    }
                }
            }

            #[test]
            fn every_inserted_point_has_a_dominating_survivor(pts in points()) {
                let mut f = Front::default();
                for &(area, count) in &pts {
                    f.insert(area, count, || None, &mut Tally::default());
                }
                for &(area, count) in &pts {
                    prop_assert!(
                        f.entries.iter().any(|e| e.area <= area && e.count <= count),
                        "({area}, {count}) lost without a dominating survivor"
                    );
                }
            }

            #[test]
            fn reinserting_survivors_is_a_rejected_noop(pts in points()) {
                let mut f = Front::default();
                for &(area, count) in &pts {
                    f.insert(area, count, || None, &mut Tally::default());
                }
                let snapshot: Vec<(f64, u64)> =
                    f.entries.iter().map(|e| (e.area, e.count)).collect();
                for &(area, count) in &snapshot {
                    let accepted = f.insert(area, count, || None, &mut Tally::default());
                    prop_assert!(!accepted, "re-inserting a survivor must be rejected");
                }
                let after: Vec<(f64, u64)> =
                    f.entries.iter().map(|e| (e.area, e.count)).collect();
                prop_assert_eq!(snapshot, after);
            }
        }
    }

    /// The telemetry counters must agree with the invariant contracts:
    /// `dp.front_max` tallies every accepted insert, while the contract
    /// probe sees every front the invariant checks visit — so the
    /// counter can never exceed the probe's witness.
    mod telemetry_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn front_max_counter_never_exceeds_contract_witness(
                wires in 1u64..32,
                per in 1u64..4,
                budget in 0.0f64..64.0,
            ) {
                ia_obs::set_enabled(true);
                ia_obs::reset();
                contract_probe::take();
                let inst = crate::toy::budget_limited(wires, per, budget);
                let _ = rank(&inst);
                let counted = ia_obs::snapshot()
                    .counter(names::DP_FRONT_MAX)
                    .unwrap_or(0);
                let observed = contract_probe::take();
                prop_assert!(counted > 0, "at least one insert is always recorded");
                prop_assert!(
                    counted <= observed,
                    "dp.front_max={counted} exceeds the contract-observed maximum {observed}"
                );
            }
        }
    }
}
