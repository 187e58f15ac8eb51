//! Table 4 parameter sweeps and the K-vs-M equivalence analysis.
//!
//! [`Axis`] names the four Table 4 columns: their labels, the paper's
//! grids, and the one way a swept value is applied to a
//! [`RankProblemBuilder`].
//!
//! Sweeps can consult a caller-supplied [`PointCache`]: before
//! rebuilding and solving a point, the runner asks the cache for a
//! previously computed [`CachedSolve`] under a caller-derived
//! content-address. `ia-serve` plugs its sharded LRU in here so HTTP
//! sweep requests share entries with individual `/solve` requests.

use crate::canon::{BindError, BoundConfig, Knob};
use crate::telemetry::{self, names};
use crate::{RankError, RankProblem, RankProblemBuilder, RankResult};
use ia_units::{Frequency, Permittivity};
use serde::{Deserialize, Serialize};

/// A Table 4 sweep axis. Swept values are in the axis' own units,
/// which match the configuration's knob units except for `C`: the
/// axis is in hertz, the [`Knob::C`] configuration field in MHz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Axis {
    /// ILD permittivity `K`.
    K,
    /// Miller coupling factor `M`.
    M,
    /// Clock frequency `C`, in hertz.
    C,
    /// Repeater area fraction `R`.
    R,
}

impl Axis {
    /// All four axes in Table 4 order.
    pub const ALL: [Axis; 4] = [Axis::K, Axis::M, Axis::C, Axis::R];

    /// Parses an axis label (`k|m|c|r`, any case).
    ///
    /// # Errors
    ///
    /// Returns [`BindError::Invalid`] for any other string.
    pub fn parse(text: &str) -> Result<Self, BindError> {
        let text = text.to_ascii_lowercase();
        Axis::ALL
            .into_iter()
            .find(|axis| axis.label() == text)
            .ok_or_else(|| {
                BindError::Invalid(format!("unknown axis `{text}` (expected k, m, c or r)"))
            })
    }

    /// The axis' lowercase label, shared with its [`Knob`].
    #[must_use]
    pub fn label(self) -> &'static str {
        self.knob().label()
    }

    /// The axis' Table 4 column symbol.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Axis::K => "K",
            Axis::M => "M",
            Axis::C => "C",
            Axis::R => "R",
        }
    }

    /// The paper's Table 4 grid for this axis, in axis units.
    #[must_use]
    pub fn paper_values(self) -> &'static [f64] {
        match self {
            Axis::K => &PAPER_K_VALUES,
            Axis::M => &PAPER_M_VALUES,
            Axis::C => &PAPER_C_HERTZ,
            Axis::R => &PAPER_R_VALUES,
        }
    }

    /// The configuration knob this axis sweeps.
    #[must_use]
    pub fn knob(self) -> Knob {
        match self {
            Axis::K => Knob::K,
            Axis::M => Knob::M,
            Axis::C => Knob::C,
            Axis::R => Knob::R,
        }
    }

    /// Axis units per knob unit: hertz per MHz for `C`, else 1.
    fn scale(self) -> f64 {
        if self == Axis::C {
            1.0e6
        } else {
            1.0
        }
    }

    /// Converts a swept value to its knob's units, for
    /// [`BoundConfig::with`].
    #[must_use]
    // lint: raw-f64 (the swept value, unit depends on the axis)
    pub fn to_knob(self, x: f64) -> f64 {
        x / self.scale()
    }

    /// This axis' value in `config`, in axis units (`None` when `K`
    /// is left at the node default).
    #[must_use]
    pub fn get(self, config: &BoundConfig) -> Option<f64> {
        let value = match self {
            Axis::K => config.k?,
            Axis::M => config.miller,
            Axis::C => config.clock_mhz,
            Axis::R => config.fraction,
        };
        Some(value * self.scale())
    }

    /// Sets this axis to `x` (axis units) on a problem builder — the
    /// one builder setter for the Table 4 knobs.
    #[must_use]
    // lint: raw-f64 (the swept value, unit depends on the axis)
    pub fn apply(self, builder: RankProblemBuilder<'_>, x: f64) -> RankProblemBuilder<'_> {
        match self {
            Axis::K => builder.permittivity(Permittivity::from_relative(x)),
            Axis::M => builder.miller_factor(x),
            Axis::C => builder.clock(Frequency::from_hertz(x)),
            Axis::R => builder.repeater_fraction(x),
        }
    }

    fn span(self) -> &'static str {
        match self {
            Axis::K => names::SPAN_SWEEP_PERMITTIVITY,
            Axis::M => names::SPAN_SWEEP_MILLER,
            Axis::C => names::SPAN_SWEEP_CLOCK,
            Axis::R => names::SPAN_SWEEP_REPEATER_FRACTION,
        }
    }
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::K => write!(f, "K (ILD permittivity)"),
            Axis::M => write!(f, "M (Miller factor)"),
            Axis::C => write!(f, "C (clock frequency)"),
            Axis::R => write!(f, "R (repeater fraction)"),
        }
    }
}

/// One point of a parameter sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value (K, M, Hz, or repeater fraction).
    pub x: f64,
    /// The rank, in wires.
    pub rank: u64,
    /// The normalized rank (rank / total wires) — Table 4's numbers.
    pub normalized: f64,
}

/// A solved configuration's summary, rich enough to answer both a
/// sweep point and a full solve query — the value type of the sweep
/// [`PointCache`] (and of `ia-serve`'s solve cache, so the two share
/// entries content-addressably).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CachedSolve {
    /// The rank, in wires.
    pub rank: u64,
    /// The normalized rank (rank / total wires).
    pub normalized: f64,
    /// Total wires in the distribution.
    pub total_wires: u64,
    /// Whether the whole distribution fit the architecture.
    pub fully_assignable: bool,
    /// Repeaters placed on the ranked wires.
    pub repeater_count: u64,
    /// Repeater area consumed, in square meters.
    pub repeater_area_m2: f64,
    /// The sized die area, in square meters.
    pub die_area_m2: f64,
}

impl CachedSolve {
    /// Summarizes a solved problem for caching.
    #[must_use]
    pub fn of(problem: &RankProblem, result: &RankResult) -> Self {
        CachedSolve {
            rank: result.rank(),
            normalized: result.normalized(),
            total_wires: result.total_wires(),
            fully_assignable: result.fully_assignable(),
            repeater_count: result.repeater_count(),
            repeater_area_m2: result.repeater_area().square_meters(),
            die_area_m2: problem.die().die_area().square_meters(),
        }
    }

    /// The cached summary as a sweep point at swept value `x`.
    #[must_use]
    pub fn point(
        &self,
        x: f64, // lint: raw-f64 (the swept axis value, unit depends on the axis)
    ) -> SweepPoint {
        SweepPoint {
            x,
            rank: self.rank,
            normalized: self.normalized,
        }
    }
}

/// A content-addressed store of solved points that sweep runners
/// consult before rebuilding and re-solving a configuration.
///
/// The *caller* derives the key: [`key`](Self::key) maps a swept value
/// to the content-address of the fully-bound problem it produces (or
/// `None` to bypass the cache for that value). `Sync` because the
/// thread-per-value parallel runner shares one cache across workers;
/// lookups and stores may race, at worst costing a duplicate solve.
pub trait PointCache: Sync {
    /// The content-address of the problem produced by swept value `x`,
    /// or `None` to solve uncached.
    fn key(&self, x: f64) -> Option<u128>;

    /// Fetches a previously stored solve under `key`.
    fn lookup(&self, key: u128) -> Option<CachedSolve>;

    /// Stores a freshly computed solve under `key`.
    fn store(&self, key: u128, value: CachedSolve);
}

/// The no-op cache: every value solves fresh. Used by the plain sweep
/// entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl PointCache for NoCache {
    fn key(&self, _x: f64) -> Option<u128> {
        None
    }

    fn lookup(&self, _key: u128) -> Option<CachedSolve> {
        None
    }

    fn store(&self, _key: u128, _value: CachedSolve) {}
}

/// Solves one swept value through the cache: lookup under the
/// caller-derived key, else build + rank + store.
fn solve_point<'a, F>(
    builder: &RankProblemBuilder<'a>,
    x: f64,
    apply: &F,
    cache: &dyn PointCache,
) -> Result<SweepPoint, RankError>
where
    F: Fn(RankProblemBuilder<'a>, f64) -> RankProblemBuilder<'a>,
{
    let key = cache.key(x);
    if let Some(key) = key {
        if let Some(cached) = cache.lookup(key) {
            telemetry::counter_add(names::SWEEP_CACHE_HITS, 1);
            return Ok(cached.point(x));
        }
    }
    let problem = apply(builder.clone(), x).build()?;
    let result = problem.rank();
    let cached = CachedSolve::of(&problem, &result);
    if let Some(key) = key {
        telemetry::counter_add(names::SWEEP_CACHE_MISSES, 1);
        cache.store(key, cached);
    }
    Ok(cached.point(x))
}

/// The ILD-permittivity grid of Table 4's `K` column: 3.9 down to 1.8.
pub const PAPER_K_VALUES: [f64; 22] = [
    3.9, 3.8, 3.7, 3.6, 3.5, 3.4, 3.3, 3.2, 3.1, 3.0, 2.9, 2.8, 2.7, 2.6, 2.5, 2.4, 2.3, 2.2, 2.1,
    2.0, 1.9, 1.8,
];

/// The Miller-factor grid of Table 4's `M` column: 2.0 down to 1.0.
pub const PAPER_M_VALUES: [f64; 21] = [
    2.00, 1.95, 1.90, 1.85, 1.80, 1.75, 1.70, 1.65, 1.60, 1.55, 1.50, 1.45, 1.40, 1.35, 1.30, 1.25,
    1.20, 1.15, 1.10, 1.05, 1.00,
];

/// The clock grid of Table 4's `C` column, in hertz: 0.5 to 1.7 GHz.
pub const PAPER_C_HERTZ: [f64; 13] = [
    5.0e8, 6.0e8, 7.0e8, 8.0e8, 9.0e8, 1.0e9, 1.1e9, 1.2e9, 1.3e9, 1.4e9, 1.5e9, 1.6e9, 1.7e9,
];

/// The repeater-fraction grid of Table 4's `R` column: 0.1 to 0.5.
pub const PAPER_R_VALUES: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// Runs a serial sweep that consults `cache` before solving each value
/// (see [`PointCache`]). Hits and misses are recorded under the
/// `sweep.cache.*` counters; values the cache declines to key solve
/// fresh without touching the counters.
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problem.
pub fn sweep_cached<'a, F>(
    builder: &RankProblemBuilder<'a>,
    values: &[f64],
    apply: F,
    cache: &dyn PointCache,
) -> Result<Vec<SweepPoint>, RankError>
where
    F: Fn(RankProblemBuilder<'a>, f64) -> RankProblemBuilder<'a>,
{
    values
        .iter()
        .map(|&x| solve_point(builder, x, &apply, cache))
        .collect()
}

/// Sweeps one Table 4 axis over `values` (axis units), uncached,
/// under the axis' own `sweep.*` span.
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problem.
pub fn sweep_axis(
    builder: &RankProblemBuilder<'_>,
    axis: Axis,
    values: &[f64],
) -> Result<Vec<SweepPoint>, RankError> {
    let _span = telemetry::span(axis.span());
    sweep_cached(builder, values, |b, x| axis.apply(b, x), &NoCache)
}

/// Sweeps the ILD permittivity `K` (Table 4, first column group).
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problem.
pub fn sweep_permittivity(
    builder: &RankProblemBuilder<'_>,
    values: &[f64],
) -> Result<Vec<SweepPoint>, RankError> {
    sweep_axis(builder, Axis::K, values)
}

/// Sweeps the Miller coupling factor `M` (Table 4, second column group).
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problem.
pub fn sweep_miller(
    builder: &RankProblemBuilder<'_>,
    values: &[f64],
) -> Result<Vec<SweepPoint>, RankError> {
    sweep_axis(builder, Axis::M, values)
}

/// Sweeps the target clock frequency `C` in hertz (Table 4, third
/// column group).
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problem.
pub fn sweep_clock(
    builder: &RankProblemBuilder<'_>,
    hertz: &[f64],
) -> Result<Vec<SweepPoint>, RankError> {
    sweep_axis(builder, Axis::C, hertz)
}

/// Sweeps the repeater-area fraction `R` (Table 4, fourth column group).
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problem.
pub fn sweep_repeater_fraction(
    builder: &RankProblemBuilder<'_>,
    fractions: &[f64],
) -> Result<Vec<SweepPoint>, RankError> {
    sweep_axis(builder, Axis::R, fractions)
}

/// Runs a sweep with one thread per value (scoped threads), preserving
/// input order in the output. Each thread rebuilds and solves its own
/// problem; the builder is cloned per thread. Useful for the full
/// Table 4 grids on multi-core hosts.
///
/// Every worker registers with a telemetry merge sink, and the sink is
/// collected after the join — so with the collector (or tracing)
/// enabled, the workers' counters, histograms and trace events appear
/// in the caller's subsequent `ia_obs::snapshot()` /
/// `ia_obs::drain_trace()` exactly as a serial sweep's would.
///
/// # Errors
///
/// Propagates the first [`RankError`] encountered (by input order).
pub fn sweep_parallel<'a, F>(
    builder: &RankProblemBuilder<'a>,
    values: &[f64],
    apply: F,
) -> Result<Vec<SweepPoint>, RankError>
where
    F: for<'b> Fn(RankProblemBuilder<'b>, f64) -> RankProblemBuilder<'b> + Sync,
{
    sweep_parallel_cached(builder, values, apply, &NoCache)
}

/// [`sweep_parallel`] with a shared [`PointCache`] consulted by every
/// worker (the trait's `Sync` bound makes the sharing sound; racing
/// workers at worst solve a value twice).
///
/// # Errors
///
/// Propagates the first [`RankError`] encountered (by input order).
pub fn sweep_parallel_cached<'a, F>(
    builder: &RankProblemBuilder<'a>,
    values: &[f64],
    apply: F,
    cache: &dyn PointCache,
) -> Result<Vec<SweepPoint>, RankError>
where
    F: for<'b> Fn(RankProblemBuilder<'b>, f64) -> RankProblemBuilder<'b> + Sync,
{
    let _span = telemetry::span(names::SPAN_SWEEP_PARALLEL);
    let sink = telemetry::MergeSink::new();
    let result = std::thread::scope(|scope| {
        let handles: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let b = builder.clone();
                let apply = &apply;
                let sink = &sink;
                scope.spawn(move || -> Result<SweepPoint, RankError> {
                    let _worker =
                        sink.register_worker(&format!("{}.{i}", names::SWEEP_WORKER_PREFIX));
                    solve_point(&b, x, apply, cache)
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: no-panic (propagates worker panics)
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    sink.collect();
    result
}

/// A matched pair of parameter reductions achieving (approximately) the
/// same normalized rank — the paper's §5.2 headline compares a 38 %
/// reduction in `K` with a ~42 % reduction in `M`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceMatch {
    /// Reduction of the first series' parameter, in percent of its
    /// baseline (first point).
    pub a_reduction_pct: f64,
    /// Reduction of the second series' parameter achieving the nearest
    /// normalized rank, in percent of its baseline.
    pub b_reduction_pct: f64,
    /// The normalized rank both reductions (approximately) achieve.
    pub normalized_rank: f64,
}

/// For every non-baseline point of series `a`, finds the point of
/// series `b` whose normalized rank is closest, and reports both as
/// percentage reductions from their baselines (the first point of each
/// series).
///
/// Returns an empty vector if either series has fewer than two points.
///
/// # Examples
///
/// ```
/// use ia_rank::sweep::{equivalent_reductions, SweepPoint};
///
/// let a = vec![
///     SweepPoint { x: 4.0, rank: 10, normalized: 0.10 },
///     SweepPoint { x: 2.0, rank: 20, normalized: 0.20 },
/// ];
/// let b = vec![
///     SweepPoint { x: 2.0, rank: 10, normalized: 0.10 },
///     SweepPoint { x: 1.5, rank: 19, normalized: 0.19 },
///     SweepPoint { x: 1.0, rank: 30, normalized: 0.30 },
/// ];
/// let m = equivalent_reductions(&a, &b);
/// assert_eq!(m.len(), 1);
/// assert!((m[0].a_reduction_pct - 50.0).abs() < 1e-9); // 4.0 → 2.0
/// assert!((m[0].b_reduction_pct - 25.0).abs() < 1e-9); // 2.0 → 1.5
/// ```
#[must_use]
pub fn equivalent_reductions(a: &[SweepPoint], b: &[SweepPoint]) -> Vec<EquivalenceMatch> {
    if a.len() < 2 || b.len() < 2 {
        return Vec::new();
    }
    let a0 = a[0].x;
    let b0 = b[0].x;
    a[1..]
        .iter()
        .filter_map(|pa| {
            let pb = b.iter().min_by(|p, q| {
                (p.normalized - pa.normalized)
                    .abs()
                    .total_cmp(&(q.normalized - pa.normalized).abs())
            })?;
            Some(EquivalenceMatch {
                a_reduction_pct: (1.0 - pa.x / a0) * 100.0,
                b_reduction_pct: (1.0 - pb.x / b0) * 100.0,
                normalized_rank: pa.normalized,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankProblem;
    use ia_arch::Architecture;
    use ia_tech::presets;
    use ia_wld::WldSpec;

    #[test]
    fn grids_match_paper_extents() {
        assert!((PAPER_K_VALUES[0] - 3.9).abs() < 1e-12);
        assert!((PAPER_K_VALUES[21] - 1.8).abs() < 1e-12);
        assert!((PAPER_M_VALUES[0] - 2.0).abs() < 1e-12);
        assert!((PAPER_M_VALUES[20] - 1.0).abs() < 1e-12);
        assert!((PAPER_C_HERTZ[0] - 5e8).abs() < 1e-3);
        assert!((PAPER_C_HERTZ[12] - 1.7e9).abs() < 1e-3);
        assert_eq!(PAPER_R_VALUES.len(), 5);
    }

    #[test]
    fn small_sweeps_are_monotone_in_the_expected_direction() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000);

        // Lower K can only help (weakly).
        let k = sweep_permittivity(&base, &[3.9, 2.7, 1.8]).unwrap();
        assert!(k[0].rank <= k[1].rank && k[1].rank <= k[2].rank, "{k:?}");

        // Lower M can only help (weakly).
        let m = sweep_miller(&base, &[2.0, 1.5, 1.0]).unwrap();
        assert!(m[0].rank <= m[1].rank && m[1].rank <= m[2].rank, "{m:?}");

        // Faster clocks can only hurt (weakly).
        let c = sweep_clock(&base, &[5e8, 1e9, 1.7e9]).unwrap();
        assert!(c[0].rank >= c[1].rank && c[1].rank >= c[2].rank, "{c:?}");

        // Larger repeater budget can only help (weakly).
        let r = sweep_repeater_fraction(&base, &[0.1, 0.3, 0.5]).unwrap();
        assert!(r[0].rank <= r[1].rank && r[1].rank <= r[2].rank, "{r:?}");
    }

    #[test]
    fn both_knob_setters_agree_on_every_axis() {
        // The builder path (`Axis::apply`) and the configuration path
        // (`BoundConfig::with`) must bind the same problem.
        let base = BoundConfig {
            gates: 20_000,
            bunch: 2_000,
            ..BoundConfig::default()
        };
        let bound = base.bind().unwrap();
        for axis in Axis::ALL {
            let grid = axis.paper_values();
            for x in [grid[1], grid[grid.len() - 2]] {
                let built = axis.apply(bound.builder().unwrap(), x).build().unwrap();
                let via_builder = CachedSolve::of(&built, &built.rank());
                let config = base.clone().with(axis.knob(), axis.to_knob(x)).unwrap();
                assert_eq!(axis.get(&config), Some(x), "{axis} round-trips");
                assert_eq!(via_builder, config.solve().unwrap(), "{axis} = {x}");
            }
        }
    }

    #[test]
    fn axis_labels_and_grids_match_table4() {
        let lengths: Vec<usize> = Axis::ALL.iter().map(|a| a.paper_values().len()).collect();
        assert_eq!(lengths, [22, 21, 13, 5]);
        assert_eq!(Axis::parse("K").unwrap(), Axis::K);
        assert!(Axis::parse("x").is_err());
        assert_eq!(Axis::C.label(), "c");
        assert_eq!(Axis::C.symbol(), "C");
        assert_eq!(Axis::C.to_knob(5.0e8), 500.0);
        assert_eq!(Knob::C.default_values().unwrap()[0], 500.0);
        assert!(Axis::R.to_string().contains("repeater"));
    }

    /// A transparent test cache: keys every value by its bit pattern.
    #[derive(Default)]
    struct MapCache {
        map: std::sync::Mutex<std::collections::BTreeMap<u128, CachedSolve>>,
        stores: std::sync::atomic::AtomicU64,
    }

    impl PointCache for MapCache {
        fn key(&self, x: f64) -> Option<u128> {
            Some(u128::from(x.to_bits()))
        }

        fn lookup(&self, key: u128) -> Option<CachedSolve> {
            self.map.lock().unwrap().get(&key).copied()
        }

        fn store(&self, key: u128, value: CachedSolve) {
            self.stores
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.map.lock().unwrap().insert(key, value);
        }
    }

    #[test]
    fn cached_sweep_matches_uncached_and_reuses_entries() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000);
        let values = [3.9, 3.0, 2.1];
        let plain = sweep_permittivity(&base, &values).unwrap();

        let cache = MapCache::default();
        let cold = sweep_cached(&base, &values, |b, k| Axis::K.apply(b, k), &cache).unwrap();
        assert_eq!(cold, plain, "the cache is transparent");
        assert_eq!(cache.stores.load(std::sync::atomic::Ordering::Relaxed), 3);

        // Second pass: everything answered from the cache, nothing stored.
        let warm = sweep_cached(&base, &values, |b, k| Axis::K.apply(b, k), &cache).unwrap();
        assert_eq!(warm, plain);
        assert_eq!(cache.stores.load(std::sync::atomic::Ordering::Relaxed), 3);

        // The parallel runner shares the same entries.
        let parallel =
            sweep_parallel_cached(&base, &values, |b, k| Axis::K.apply(b, k), &cache).unwrap();
        assert_eq!(parallel, plain);
        assert_eq!(cache.stores.load(std::sync::atomic::Ordering::Relaxed), 3);

        // Cached values carry the full solve summary.
        let entry = cache
            .lookup(cache.key(3.9).unwrap())
            .expect("3.9 was stored");
        assert_eq!(entry.rank, plain[0].rank);
        assert!(entry.total_wires >= entry.rank);
        assert!(entry.die_area_m2 > 0.0);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn cached_sweep_records_hit_and_miss_counters() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000);
        let cache = MapCache::default();
        ia_obs::set_enabled(true);
        ia_obs::reset();
        let _ = sweep_cached(&base, &[3.9, 3.0], |b, k| Axis::K.apply(b, k), &cache).unwrap();
        let _ = sweep_cached(&base, &[3.9, 3.0], |b, k| Axis::K.apply(b, k), &cache).unwrap();
        let snap = ia_obs::snapshot();
        assert_eq!(snap.counter(names::SWEEP_CACHE_MISSES), Some(2));
        assert_eq!(snap.counter(names::SWEEP_CACHE_HITS), Some(2));
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000);
        let values = [3.9, 3.0, 2.1];
        let serial = sweep_permittivity(&base, &values).unwrap();
        let parallel = sweep_parallel(&base, &values, |b, k| Axis::K.apply(b, k)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn parallel_sweep_merges_worker_telemetry() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000);
        ia_obs::set_enabled(true);
        ia_obs::reset();
        let _ = sweep_parallel(&base, &[3.9, 3.0, 2.1], |b, k| Axis::K.apply(b, k)).unwrap();
        let snap = ia_obs::snapshot();
        assert!(
            snap.counter(names::DP_STATES).unwrap_or(0) > 0,
            "worker DP counters merge into the caller's snapshot: {snap:?}"
        );
        assert_eq!(
            snap.spans[names::SPAN_DP_SOLVE].calls,
            3,
            "one merged dp.solve span per worker"
        );
        assert!(
            snap.spans.contains_key(names::SPAN_SWEEP_PARALLEL),
            "the caller's own span is still there"
        );
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn parallel_cached_sweep_merges_worker_phase_spans() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000);
        let cache = MapCache::default();
        ia_obs::set_enabled(true);
        ia_obs::reset();
        let _ = sweep_parallel_cached(&base, &[3.9, 3.0, 2.1], |b, k| Axis::K.apply(b, k), &cache)
            .unwrap();
        let snap = ia_obs::snapshot();
        // Workers solve inside their own thread-local collectors; after
        // the merge, the solver's phase spans appear under the same
        // dp.solve/expand paths as a serial solve would record.
        let expand = format!("{}/{}", names::SPAN_DP_SOLVE, names::SPAN_DP_EXPAND);
        let solves = snap.spans[names::SPAN_DP_SOLVE].calls;
        assert_eq!(solves, 3, "one merged dp.solve span per worker");
        assert!(
            snap.spans[&expand].calls >= solves,
            "at least one merged expand span per solve: {:?}",
            snap.spans.keys().collect::<Vec<_>>()
        );
        let merge = format!("{expand}/{}", names::SPAN_DP_FRONT_MERGE);
        assert!(
            snap.spans[&merge].calls > 0,
            "front merges recorded under the expand phase"
        );
    }

    #[test]
    fn equivalence_handles_degenerate_series() {
        let p = SweepPoint {
            x: 1.0,
            rank: 1,
            normalized: 0.1,
        };
        assert!(equivalent_reductions(&[p], &[p, p]).is_empty());
        assert!(equivalent_reductions(&[p, p], &[p]).is_empty());
    }
}
