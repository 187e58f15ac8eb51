//! Local sensitivity analysis of the rank to the Table 4 knobs.
//!
//! The paper's conclusions argue that no single lever (material,
//! process, or design) can enable future designs alone — they must be
//! *co-optimized*. This module quantifies that statement at any
//! operating point: the relative rank gain per percent of improvement
//! in each knob (ILD permittivity, Miller factor, clock, repeater
//! fraction), estimated by symmetric finite differences on rebuilt
//! problems.

use crate::canon::BoundConfig;
use crate::sweep::Axis;
use crate::{RankError, RankProblemBuilder};
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

/// The operating point at which to evaluate sensitivities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// ILD permittivity `K`.
    pub permittivity: f64,
    /// Miller coupling factor.
    pub miller_factor: f64,
    /// Clock frequency in hertz.
    pub clock_hz: f64,
    /// Repeater-area fraction.
    pub repeater_fraction: f64,
}

impl OperatingPoint {
    /// The paper's Table 2 baseline.
    #[must_use]
    pub fn paper_baseline() -> Self {
        Self {
            permittivity: 3.9,
            miller_factor: 2.0,
            clock_hz: 5.0e8,
            repeater_fraction: 0.4,
        }
    }

    /// The operating point `config` binds. An unset `K` falls back to
    /// the paper's 3.9 baseline.
    #[must_use]
    pub fn of(config: &BoundConfig) -> Self {
        let mut point = Self::paper_baseline();
        for axis in Axis::ALL {
            if let Some(x) = axis.get(config) {
                point.set(axis, x);
            }
        }
        point
    }

    fn get(&self, axis: Axis) -> f64 {
        match axis {
            Axis::K => self.permittivity,
            Axis::M => self.miller_factor,
            Axis::C => self.clock_hz,
            Axis::R => self.repeater_fraction,
        }
    }

    fn set(&mut self, axis: Axis, x: f64) {
        match axis {
            Axis::K => self.permittivity = x,
            Axis::M => self.miller_factor = x,
            Axis::C => self.clock_hz = x,
            Axis::R => self.repeater_fraction = x,
        }
    }
}

/// Improving direction: −1 for knobs where smaller is better, +1 for
/// the repeater fraction.
fn improvement_sign(axis: Axis) -> f64 {
    match axis {
        Axis::K | Axis::M | Axis::C => -1.0,
        Axis::R => 1.0,
    }
}

/// Computes the normalized rank at an operating point.
fn normalized_at(
    builder: &RankProblemBuilder<'_>,
    point: &OperatingPoint,
) -> Result<f64, RankError> {
    let builder = Axis::ALL
        .into_iter()
        .fold(builder.clone(), |b, axis| axis.apply(b, point.get(axis)));
    Ok(builder.build()?.rank().normalized())
}

/// Estimates the rank's elasticity to every Table 4 knob at `point`,
/// using symmetric finite differences of relative size `step`
/// (e.g. 0.1 = ±10 %).
///
/// Because the rank moves in bunch-sized steps, use a `step` large
/// enough to cross at least one bunch boundary at your problem scale
/// (±10 % is a good default at the paper's 1M-gate scale).
///
/// # Errors
///
/// Propagates any [`RankError`] from rebuilding the problems.
///
/// # Examples
///
/// ```no_run
/// use ia_rank::sensitivity::{sensitivities, OperatingPoint};
/// use ia_rank::RankProblem;
/// use ia_arch::Architecture;
/// use ia_tech::presets;
/// use ia_wld::WldSpec;
///
/// let node = presets::tsmc130();
/// let arch = Architecture::baseline(&node);
/// let builder = RankProblem::builder(&node, &arch)
///     .wld_spec(WldSpec::new(1_000_000)?)
///     .bunch_size(10_000);
/// let report = sensitivities(&builder, &OperatingPoint::paper_baseline(), 0.1)?;
/// for s in &report {
///     println!("{}: {}", s.knob, s.elasticity);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sensitivities(
    builder: &RankProblemBuilder<'_>,
    point: &OperatingPoint,
    step: f64, // lint: raw-f64 (dimensionless relative step)
) -> Result<Vec<KnobSensitivity>, RankError> {
    let _span = crate::telemetry::span(crate::telemetry::names::SPAN_SENSITIVITY);
    let baseline = normalized_at(builder, point)?;
    let mut out = Vec::with_capacity(Axis::ALL.len());
    for knob in Axis::ALL {
        let value = point.get(knob);
        let mut lo = *point;
        let mut hi = *point;
        lo.set(knob, value * (1.0 - step));
        hi.set(knob, value * (1.0 + step));
        let r_lo = normalized_at(builder, &lo)?;
        let r_hi = normalized_at(builder, &hi)?;
        // Relative rank change per relative knob change, oriented so
        // that improving the knob gives a positive elasticity. A zero
        // baseline admits no relative change: report it as such
        // instead of dividing by an epsilon.
        let elasticity = if baseline > 0.0 {
            let d_rank = (r_hi - r_lo) / baseline;
            let d_knob = 2.0 * step;
            Elasticity::Finite(d_rank / d_knob * improvement_sign(knob))
        } else {
            Elasticity::Undefined
        };
        out.push(KnobSensitivity {
            knob,
            at: value,
            baseline_normalized: baseline,
            elasticity,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankProblem;
    use ia_arch::Architecture;
    use ia_tech::presets;
    use ia_wld::WldSpec;

    #[test]
    fn operating_point_reads_a_configuration() {
        let config = BoundConfig {
            miller: 1.5,
            clock_mhz: 700.0,
            ..BoundConfig::default()
        };
        let point = OperatingPoint::of(&config);
        assert!((point.permittivity - 3.9).abs() < 1e-12, "unset K is 3.9");
        assert!((point.miller_factor - 1.5).abs() < 1e-12);
        assert!((point.clock_hz - 7.0e8).abs() < 1e-3);
        assert!((point.repeater_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn baseline_point_matches_table2() {
        let p = OperatingPoint::paper_baseline();
        assert!((p.permittivity - 3.9).abs() < 1e-12);
        assert!((p.miller_factor - 2.0).abs() < 1e-12);
        assert!((p.clock_hz - 5e8).abs() < 1e-3);
        assert!((p.repeater_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn elasticities_have_the_expected_signs_at_scale() {
        // 200k gates is enough for the budget-limited regime where all
        // four knobs act in their paper direction.
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let builder = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(200_000).unwrap())
            .bunch_size(5_000);
        let report = sensitivities(&builder, &OperatingPoint::paper_baseline(), 0.15).unwrap();
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
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let builder = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(200_000).unwrap())
            .bunch_size(5_000);
        let report = sensitivities(&builder, &OperatingPoint::paper_baseline(), 0.2).unwrap();
        let active = report
            .iter()
            .filter(|s| s.elasticity.value().is_some_and(|e| e.abs() > 1e-6))
            .count();
        assert!(active >= 2, "report: {report:?}");
    }
}
