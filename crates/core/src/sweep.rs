//! Table 4 parameter sweeps and the K-vs-M equivalence analysis.
//!
//! [`Axis`] names the four Table 4 columns: their labels, the paper's
//! grids, and the one way a swept value is applied to a
//! [`RankProblemBuilder`].
//!
//! [`sweep_axis`] is the serial library sweep. Batches of points —
//! parallel sweeps, `/sweep` requests, dse and corpus runs — run on
//! `ia_dse::scheduler::execute`, which consults a [`PointCache`] of
//! [`CachedSolve`]s under each point's content address; this crate
//! starts no thread.

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

/// A content-addressed store of solved points that a point executor
/// consults before solving a configuration, keyed by the caller's
/// content address (`BoundConfig::cache_key` or a dse point key).
/// `Sync` because an executor's workers share one cache; lookups and
/// stores may race, at worst costing a duplicate solve.
pub trait PointCache: Sync {
    /// Fetches a previously stored solve under `key`.
    fn lookup(&self, key: u128) -> Option<CachedSolve>;

    /// Stores a freshly computed solve under `key`.
    fn store(&self, key: u128, value: CachedSolve);
}

/// The no-op cache: every point solves fresh.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl PointCache for NoCache {
    fn lookup(&self, _key: u128) -> Option<CachedSolve> {
        None
    }

    fn store(&self, _key: u128, _value: CachedSolve) {}
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

/// Sweeps one Table 4 axis over `values` (axis units), serially and
/// uncached, under the axis' own `sweep.*` span.
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
    values
        .iter()
        .map(|&x| {
            let problem = axis.apply(builder.clone(), x).build()?;
            Ok(CachedSolve::of(&problem, &problem.rank()).point(x))
        })
        .collect()
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
        let k = sweep_axis(&base, Axis::K, &[3.9, 2.7, 1.8]).unwrap();
        assert!(k[0].rank <= k[1].rank && k[1].rank <= k[2].rank, "{k:?}");

        // Lower M can only help (weakly).
        let m = sweep_axis(&base, Axis::M, &[2.0, 1.5, 1.0]).unwrap();
        assert!(m[0].rank <= m[1].rank && m[1].rank <= m[2].rank, "{m:?}");

        // Faster clocks can only hurt (weakly).
        let c = sweep_axis(&base, Axis::C, &[5e8, 1e9, 1.7e9]).unwrap();
        assert!(c[0].rank >= c[1].rank && c[1].rank >= c[2].rank, "{c:?}");

        // Larger repeater budget can only help (weakly).
        let r = sweep_axis(&base, Axis::R, &[0.1, 0.3, 0.5]).unwrap();
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
