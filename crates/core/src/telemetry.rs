//! Solver telemetry: the counter/span name registry and the recording
//! calls the solver makes through [`ia_obs`].
//!
//! Every call costs a relaxed atomic load and a branch until the
//! collector is enabled (see `ia_obs::set_enabled`). The DP's inner
//! loop records nothing itself: it counts into plain integers, and
//! [`crate::dp::rank`] hands the totals to the collector once per
//! solve. Its spans are per phase, never per iteration.
//!
//! [`names`] is the registry of every counter, histogram and span this
//! crate records. The strings are **API**: external tooling keys on
//! them, so renaming one is a breaking change. See
//! `docs/observability.md` for the stability policy.

/// The names of every counter, histogram and span recorded by this
/// crate. Grouped by instrument kind; all values are stable API.
pub mod names {
    /// Counter: DP states expanded — one per `(pair, prefix, front
    /// entry)` combination visited by the main loop. The measured `F`
    /// factor of the documented `O(m·n²·F)` bound.
    pub const DP_STATES: &str = "dp.states";
    /// Counter: candidate entries offered to a Pareto front — every
    /// carried-forward state and every delay-met extension, kept or
    /// not. At least [`DP_FRONT_INSERTIONS`].
    pub const DP_CANDIDATES: &str = "dp.candidates";
    /// Counter: accepted Pareto-front insertions.
    pub const DP_FRONT_INSERTIONS: &str = "dp.front_insertions";
    /// Counter: front entries pruned because a new insertion dominated
    /// them.
    pub const DP_FRONT_PRUNED: &str = "dp.front_pruned";
    /// High-water-mark counter: the largest Pareto front ever held by
    /// one DP state.
    pub const DP_FRONT_MAX: &str = "dp.front_max";
    /// Counter: `greedy_pack` feasibility results served from the memo
    /// instead of recomputed.
    pub const DP_MEMO_HITS: &str = "dp.memo_hits";
    /// Counter: `greedy_pack` feasibility results computed and stored
    /// in the memo. Memo probes are hits plus misses.
    pub const DP_MEMO_MISSES: &str = "dp.memo_misses";
    /// Histogram: Pareto-front length after each accepted insertion
    /// (log-scale buckets).
    pub const DP_FRONT_LEN: &str = "dp.front_len";
    /// Histogram: Pareto-front occupancy (entry count) of each DP
    /// state as the main loop expands it. Together with
    /// [`DP_FRONT_LEN`] this separates "how big do fronts get" from
    /// "how big are the fronts we actually pay to expand".
    pub const DP_FRONT_OCCUPANCY: &str = "dp.front_occupancy";
    /// Histogram: successor entries scanned (and pruned) per accepted
    /// front insertion — the prune-efficiency distribution. Mostly 0
    /// on well-ordered instances; a fat tail means insertion order is
    /// fighting the domination test.
    pub const DP_PRUNE_SCANNED: &str = "dp.prune_scanned";
    /// Counter: bunches of the instance handed to the solver.
    pub const INSTANCE_BUNCHES: &str = "instance.bunches";
    /// Counter: layer-pairs of the instance handed to the solver.
    pub const INSTANCE_PAIRS: &str = "instance.pairs";
    /// Counter: candidate stacks evaluated by the optimizer.
    pub const OPTIMIZE_CANDIDATES: &str = "optimize.candidates";

    /// Span: the DP solve proper ([`crate::dp::rank`]).
    pub const SPAN_DP_SOLVE: &str = "dp.solve";
    /// Span: one layer-pair expansion of the DP main loop (nested
    /// under [`SPAN_DP_SOLVE`], one call per pair). With
    /// [`SPAN_DP_SEED`] it covers essentially all of `dp.solve`.
    pub const SPAN_DP_EXPAND: &str = "expand";
    /// Span: the Algorithm-5 base assignability check seeding the DP
    /// (one `greedy_pack` over the whole WLD, nested under
    /// [`SPAN_DP_SOLVE`] before the first expansion).
    pub const SPAN_DP_SEED: &str = "seed";
    /// Span: the `strict-invariants` budget-monotonicity cross-check —
    /// a zero-budget re-solve of the instance. Recorded as a sibling of
    /// [`SPAN_DP_SOLVE`] (never inside it) so debug contracts stay out
    /// of the solve's span tree.
    pub const SPAN_DP_STRICT_RECHECK: &str = "strict.recheck";
    /// Span: solution-path reconstruction (nested under the expansion
    /// phase of [`SPAN_DP_SOLVE`]).
    pub const SPAN_RECONSTRUCT: &str = "reconstruct";
    /// Span: lowering physics + WLD to a solver [`crate::Instance`]
    /// (`RankProblemBuilder::build`).
    pub const SPAN_INSTANCE_BUILD: &str = "instance_build";
    /// Span: one permittivity (`K`) sweep.
    pub const SPAN_SWEEP_PERMITTIVITY: &str = "sweep.permittivity";
    /// Span: one Miller-factor (`M`) sweep.
    pub const SPAN_SWEEP_MILLER: &str = "sweep.miller";
    /// Span: one clock (`C`) sweep.
    pub const SPAN_SWEEP_CLOCK: &str = "sweep.clock";
    /// Span: one repeater-fraction (`R`) sweep.
    pub const SPAN_SWEEP_REPEATER_FRACTION: &str = "sweep.repeater_fraction";
    /// Span: one full sensitivity analysis (all four elasticities).
    pub const SPAN_SENSITIVITY: &str = "sensitivity";
    /// Span: one BEOL stack search.
    pub const SPAN_OPTIMIZE_STACK: &str = "optimize_stack";
}

pub(crate) use ia_obs::{counter_add, counter_max, histogram_record, span};
