//! Local sensitivity analysis of the rank to the Table 4 knobs.
//!
//! The paper's conclusions argue that no single lever (material,
//! process, or design) can enable future designs alone — they must be
//! *co-optimized*. This module quantifies that statement at any
//! configuration: the relative rank gain per percent of improvement
//! in each knob (ILD permittivity, Miller factor, clock, repeater
//! fraction), estimated by symmetric finite differences.
//!
//! An estimate is nine solves: [`points`] returns their
//! [`BoundConfig`]s and [`elasticities`] turns their normalized ranks
//! into one [`KnobSensitivity`] per knob. [`sensitivities`] solves the
//! nine in series; `POST /sensitivity` runs them as one batch on the
//! dse point executor against the server's solve cache.

use crate::canon::{BindError, BoundConfig};
use crate::sweep::{self, Axis};
use ia_units::Permittivity;
use serde::{Deserialize, Serialize};

/// Rank elasticity to one knob: the relative rank gain per percent of
/// *improvement*, `(Δrank/rank) / (Δknob/knob) × sign(improvement)`,
/// or [`Elasticity::Undefined`] when the baseline rank is zero and a
/// *relative* change has no meaning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Elasticity {
    /// A finite elasticity; positive means improving the knob helps.
    Finite(f64),
    /// The baseline normalized rank is zero — no relative change can
    /// be formed (this replaces a near-overflow `1/f64::MIN_POSITIVE`
    /// division sentinel).
    Undefined,
}

impl Elasticity {
    /// The finite elasticity value, or `None` if undefined.
    #[must_use]
    pub fn value(self) -> Option<f64> {
        match self {
            Elasticity::Finite(e) => Some(e),
            Elasticity::Undefined => None,
        }
    }
}

impl std::fmt::Display for Elasticity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Elasticity::Finite(e) => write!(f, "{e:+.3}"),
            Elasticity::Undefined => write!(f, "undefined"),
        }
    }
}

/// Sensitivity of the rank to one knob at an operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnobSensitivity {
    /// Which knob.
    pub knob: Axis,
    /// The operating-point value of the knob.
    pub at: f64,
    /// Normalized rank at the operating point.
    pub baseline_normalized: f64,
    /// Relative rank gain per percent of *improvement* of the knob.
    pub elasticity: Elasticity,
}

/// How many configurations [`points`] returns: the base, then a low and
/// a high point for each Table 4 knob.
pub const POINTS: usize = 1 + 2 * Axis::ALL.len();

/// Improving direction: −1 for knobs where smaller is better, +1 for
/// the repeater fraction.
fn improvement_sign(axis: Axis) -> f64 {
    match axis {
        Axis::K | Axis::M | Axis::C => -1.0,
        Axis::R => 1.0,
    }
}

/// The knob's value in `base`, in axis units. An unset `K` is the
/// preset nodes' silicon-dioxide ILD, 3.9.
fn at(base: &BoundConfig, axis: Axis) -> f64 {
    axis.get(base)
        .unwrap_or_else(|| Permittivity::SILICON_DIOXIDE.relative())
}

/// The [`POINTS`] configurations a sensitivity estimate solves: `base`
/// itself, then each Table 4 knob at `1 − step` and `1 + step` times
/// its value, in Table 4 order. The base keeps its fields as given, so
/// it has the content address of a `/solve` of the same fields.
///
/// # Errors
///
/// Returns [`BindError::Invalid`] when a perturbed value is not finite.
pub fn points(
    base: &BoundConfig,
    step: f64, // lint: raw-f64 (dimensionless relative step)
) -> Result<Vec<BoundConfig>, BindError> {
    let mut configs = Vec::with_capacity(POINTS);
    configs.push(base.clone());
    for axis in Axis::ALL {
        let value = at(base, axis);
        let perturbed = [value * (1.0 - step), value * (1.0 + step)];
        configs.extend(sweep::configs(base, axis, &perturbed)?);
    }
    Ok(configs)
}

/// The rank's elasticity to every Table 4 knob at `base`, from the
/// normalized ranks of the [`points`] of `base` and `step`, in their
/// order.
#[must_use]
pub fn elasticities(
    base: &BoundConfig,
    step: f64, // lint: raw-f64 (dimensionless relative step)
    normalized: &[f64; POINTS],
) -> Vec<KnobSensitivity> {
    let baseline = normalized[0];
    Axis::ALL
        .into_iter()
        .zip(normalized[1..].chunks_exact(2))
        .map(|(knob, pair)| {
            let (r_lo, r_hi) = (pair[0], pair[1]);
            // Relative rank change per relative knob change, oriented
            // so that improving the knob gives a positive elasticity. A
            // zero baseline admits no relative change: report it as
            // such instead of dividing by an epsilon.
            let elasticity = if baseline > 0.0 {
                let d_rank = (r_hi - r_lo) / baseline;
                let d_knob = 2.0 * step;
                Elasticity::Finite(d_rank / d_knob * improvement_sign(knob))
            } else {
                Elasticity::Undefined
            };
            KnobSensitivity {
                knob,
                at: at(base, knob),
                baseline_normalized: baseline,
                elasticity,
            }
        })
        .collect()
}

/// Estimates the rank's elasticity to every Table 4 knob at `base`,
/// using symmetric finite differences of relative size `step`
/// (e.g. 0.1 = ±10 %): the [`points`] are solved in series, uncached.
///
/// Because the rank moves in bunch-sized steps, use a `step` large
/// enough to cross at least one bunch boundary at your problem scale
/// (±10 % is a good default at the paper's 1M-gate scale).
///
/// # Errors
///
/// Returns the first [`BindError`] from building or binding a point.
///
/// # Examples
///
/// ```no_run
/// use ia_rank::canon::BoundConfig;
/// use ia_rank::sensitivity::sensitivities;
///
/// // The Table 2 baseline at 1M gates, 130 nm.
/// let report = sensitivities(&BoundConfig::default(), 0.1)?;
/// for s in &report {
///     println!("{}: {}", s.knob, s.elasticity);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sensitivities(
    base: &BoundConfig,
    step: f64, // lint: raw-f64 (dimensionless relative step)
) -> Result<Vec<KnobSensitivity>, BindError> {
    let _span = crate::telemetry::span(crate::telemetry::names::SPAN_SENSITIVITY);
    let mut normalized = [0.0; POINTS];
    for (slot, config) in normalized.iter_mut().zip(points(base, step)?) {
        *slot = config.solve()?.normalized;
    }
    Ok(elasticities(base, step, &normalized))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_200k() -> BoundConfig {
        BoundConfig {
            gates: 200_000,
            bunch: 5_000,
            ..BoundConfig::default()
        }
    }

    #[test]
    fn points_perturb_one_knob_each_around_the_base() {
        let base = BoundConfig {
            miller: 1.5,
            clock_mhz: 700.0,
            ..BoundConfig::default()
        };
        let configs = points(&base, 0.1).unwrap();
        assert_eq!(configs.len(), POINTS);
        assert_eq!(configs[0], base, "the base comes first, unchanged");
        for (axis, pair) in Axis::ALL.into_iter().zip(configs[1..].chunks_exact(2)) {
            let value = at(&base, axis);
            let (lo, hi) = (axis.get(&pair[0]).unwrap(), axis.get(&pair[1]).unwrap());
            assert!((lo / value - 0.9).abs() < 1e-12, "{axis}: {lo}");
            assert!((hi / value - 1.1).abs() < 1e-12, "{axis}: {hi}");
            for other in Axis::ALL.into_iter().filter(|&other| other != axis) {
                assert_eq!(other.get(&pair[0]), other.get(&base), "{axis}");
                assert_eq!(other.get(&pair[1]), other.get(&base), "{axis}");
            }
        }
        // An unset K is perturbed around 3.9.
        assert_eq!(configs[1].k, Some(3.9 * 0.9));
        assert_eq!(at(&base, Axis::C), 7.0e8);
    }

    #[test]
    fn a_zero_baseline_has_no_elasticity() {
        let base = BoundConfig::default();
        let mut normalized = [0.1; POINTS];
        normalized[0] = 0.0;
        let report = elasticities(&base, 0.1, &normalized);
        assert_eq!(report.len(), 4);
        assert!(report.iter().all(|s| s.elasticity == Elasticity::Undefined));
    }

    #[test]
    fn elasticities_have_the_expected_signs_at_scale() {
        // 200k gates is enough for the budget-limited regime where all
        // four knobs act in their paper direction.
        let report = sensitivities(&at_200k(), 0.15).unwrap();
        assert_eq!(report.len(), 4);
        for s in &report {
            assert!(s.baseline_normalized > 0.0);
            let e = s
                .elasticity
                .value()
                .expect("positive baseline has finite elasticity");
            match s.knob {
                // Material/coupling improvements always help (weakly).
                Axis::K | Axis::M => {
                    assert!(e >= 0.0, "{:?}: {e}", s.knob)
                }
                // Slower clocks can't hurt.
                Axis::C => assert!(e >= 0.0, "{e}"),
                // Repeater fraction interacts with die inflation; no
                // sign guarantee off the paper's scale — just finite.
                Axis::R => assert!(e.is_finite()),
            }
        }
    }

    #[test]
    fn no_single_knob_dominates_completely() {
        // The paper's co-optimization message: at the baseline, at
        // least two knobs have non-zero leverage.
        let report = sensitivities(&at_200k(), 0.2).unwrap();
        let active = report
            .iter()
            .filter(|s| s.elasticity.value().is_some_and(|e| e.abs() > 1e-6))
            .count();
        assert!(active >= 2, "report: {report:?}");
    }
}
