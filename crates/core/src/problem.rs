//! Binding physics to the solver: [`RankProblem`].

use crate::instance::{BunchSolverSpec, PairSolverSpec};
use crate::{Instance, Need, RankError, RankResult};
use ia_arch::{Architecture, DieModel};
use ia_delay::{
    plan_insertion, InsertionOutcome, RepeatedWireModel, StageCharging, SwitchingConstants,
    TargetDelayModel,
};
use ia_rc::{ExtractionOptions, Extractor};
use ia_tech::TechnologyNode;
use ia_units::{Frequency, Permittivity, Time};
use ia_wld::{coarsen, CoarseWld, Wld, WldSpec};

/// Where the wire-length distribution comes from.
#[derive(Debug, Clone)]
pub enum WldSource {
    /// Generate with the Davis model from a gate-count specification.
    Spec(WldSpec),
    /// Use a caller-supplied distribution (requires an explicit gate
    /// count for die sizing).
    Raw(Wld),
    /// Use an already-coarsened distribution as-is (requires an explicit
    /// gate count).
    Coarse(CoarseWld),
}

/// A fully-bound rank problem: technology node + architecture + WLD +
/// clock + Table 2 knobs, lowered to a solver [`Instance`].
///
/// # Examples
///
/// ```
/// use ia_rank::RankProblem;
/// use ia_arch::Architecture;
/// use ia_tech::presets;
/// use ia_units::Frequency;
/// use ia_wld::WldSpec;
///
/// let node = presets::tsmc130();
/// let arch = Architecture::baseline(&node);
/// let problem = RankProblem::builder(&node, &arch)
///     .wld_spec(WldSpec::new(50_000)?)
///     .clock(Frequency::from_megahertz(500.0))
///     .bunch_size(5_000)
///     .build()?;
/// let result = problem.rank();
/// assert!(result.normalized() >= 0.0 && result.normalized() <= 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RankProblem {
    instance: Instance,
    die: DieModel,
    clock: Frequency,
    total_wires: u64,
    max_bunch_size: u64,
}

impl RankProblem {
    /// Starts a builder for the given node and architecture.
    #[must_use]
    pub fn builder<'a>(node: &'a TechnologyNode, arch: &'a Architecture) -> RankProblemBuilder<'a> {
        RankProblemBuilder::new(node, arch)
    }

    /// Computes the rank with the optimized DP ([`crate::dp::rank`]).
    #[must_use]
    pub fn rank(&self) -> RankResult {
        RankResult::new(crate::dp::rank(&self.instance), self.total_wires)
    }

    /// Computes the greedy top-down baseline rank
    /// ([`crate::greedy::rank_greedy`]).
    #[must_use]
    pub fn greedy_rank(&self) -> RankResult {
        RankResult::new(crate::greedy::rank_greedy(&self.instance), self.total_wires)
    }

    /// The lowered solver instance (areas in m²).
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The die model (Eq. 6) used to scale the WLD and size the budget.
    #[must_use]
    pub fn die(&self) -> &DieModel {
        &self.die
    }

    /// The target clock frequency.
    #[must_use]
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// Total wires in the (coarsened) WLD.
    #[must_use]
    pub fn total_wires(&self) -> u64 {
        self.total_wires
    }

    /// The paper's §5.1 bound on the rank error introduced by
    /// coarsening: at most the size of the largest bunch.
    #[must_use]
    pub fn rank_error_bound(&self) -> u64 {
        self.max_bunch_size
    }
}

/// Builder for [`RankProblem`]. Defaults follow Table 2 of the paper:
/// 500 MHz clock, repeater fraction 0.4, Miller factor 2.0, the node's
/// own ILD permittivity, the linear target-delay rule, `a = 0.4`,
/// `b = 0.7`, and 2 via stacks per wire.
#[derive(Debug, Clone)]
pub struct RankProblemBuilder<'a> {
    node: &'a TechnologyNode,
    arch: &'a Architecture,
    source: Option<WldSource>,
    gates: Option<u64>,
    bunch_size: Option<u64>,
    bin_spread: Option<u64>,
    clock: Frequency,
    repeater_fraction: f64,
    miller_factor: f64,
    permittivity: Option<Permittivity>,
    target_model: TargetDelayModel,
    constants: SwitchingConstants,
    charging: StageCharging,
    vias_per_wire: u64,
    wiring_efficiency: f64,
}

impl<'a> RankProblemBuilder<'a> {
    fn new(node: &'a TechnologyNode, arch: &'a Architecture) -> Self {
        Self {
            node,
            arch,
            source: None,
            gates: None,
            bunch_size: None,
            bin_spread: None,
            clock: Frequency::from_megahertz(500.0),
            repeater_fraction: 0.4,
            miller_factor: 2.0,
            permittivity: None,
            target_model: TargetDelayModel::Linear,
            constants: SwitchingConstants::paper(),
            charging: StageCharging::Full,
            vias_per_wire: ia_rc::DEFAULT_VIAS_PER_WIRE,
            wiring_efficiency: 1.0,
        }
    }

    /// Generates the WLD from a Davis-model specification.
    #[must_use]
    pub fn wld_spec(mut self, spec: WldSpec) -> Self {
        self.gates = Some(spec.gates());
        self.source = Some(WldSource::Spec(spec));
        self
    }

    /// Uses a caller-supplied WLD (set [`RankProblemBuilder::gates`] too).
    #[must_use]
    pub fn wld(mut self, wld: Wld) -> Self {
        self.source = Some(WldSource::Raw(wld));
        self
    }

    /// Uses an already-coarsened WLD (set [`RankProblemBuilder::gates`] too).
    #[must_use]
    pub fn coarse_wld(mut self, coarse: CoarseWld) -> Self {
        self.source = Some(WldSource::Coarse(coarse));
        self
    }

    /// Gate count for die sizing (implied by [`RankProblemBuilder::wld_spec`]).
    #[must_use]
    pub fn gates(mut self, gates: u64) -> Self {
        self.gates = Some(gates);
        self
    }

    /// Bunch size for coarsening (paper §5.2 uses 10 000). Without it,
    /// one bunch per distinct length is used.
    #[must_use]
    pub fn bunch_size(mut self, size: u64) -> Self {
        self.bunch_size = Some(size);
        self
    }

    /// Optional binning spread applied before bunching (footnote 7).
    #[must_use]
    pub fn bin_spread(mut self, spread: u64) -> Self {
        self.bin_spread = Some(spread);
        self
    }

    /// Target clock frequency (the `C` axis of Table 4).
    #[must_use]
    pub fn clock(mut self, clock: Frequency) -> Self {
        self.clock = clock;
        self
    }

    /// Repeater-area fraction of the die (the `R` axis of Table 4).
    #[must_use]
    // lint: raw-f64 (dimensionless fraction)
    pub fn repeater_fraction(mut self, fraction: f64) -> Self {
        self.repeater_fraction = fraction;
        self
    }

    /// Miller coupling factor (the `M` axis of Table 4).
    #[must_use]
    // lint: raw-f64 (dimensionless coupling factor)
    pub fn miller_factor(mut self, m: f64) -> Self {
        self.miller_factor = m;
        self
    }

    /// ILD permittivity override (the `K` axis of Table 4).
    #[must_use]
    pub fn permittivity(mut self, k: Permittivity) -> Self {
        self.permittivity = Some(k);
        self
    }

    /// Per-wire target-delay model (defaults to the paper's linear rule).
    #[must_use]
    pub fn target_model(mut self, model: TargetDelayModel) -> Self {
        self.target_model = model;
        self
    }

    /// Switching constants (defaults to the paper's `a = 0.4`, `b = 0.7`).
    #[must_use]
    pub fn constants(mut self, constants: SwitchingConstants) -> Self {
        self.constants = constants;
        self
    }

    /// Stage-charging policy for the delay model (defaults to the
    /// physically honest [`StageCharging::Full`]; the Table 4
    /// regeneration uses [`StageCharging::WireOnly`] — see `DESIGN.md`).
    #[must_use]
    pub fn charging(mut self, charging: StageCharging) -> Self {
        self.charging = charging;
        self
    }

    /// Via stacks per wire charged to lower pairs (defaults to 2).
    #[must_use]
    pub fn vias_per_wire(mut self, v: u64) -> Self {
        self.vias_per_wire = v;
        self
    }

    /// Fraction of each layer-pair's raw routing area usable for wires
    /// (defaults to 1.0, matching the paper's accounting).
    #[must_use]
    // lint: raw-f64 (dimensionless fraction)
    pub fn wiring_efficiency(mut self, e: f64) -> Self {
        self.wiring_efficiency = e;
        self
    }

    /// Lowers everything to a solver instance and validates it.
    ///
    /// # Errors
    ///
    /// * [`RankError::MissingWld`] / [`RankError::MissingGateCount`] for
    ///   an incomplete builder;
    /// * [`RankError::Arch`] for an invalid die model (bad repeater
    ///   fraction or gate count);
    /// * [`RankError::Wld`] for coarsening failures.
    pub fn build(self) -> Result<RankProblem, RankError> {
        let _span = crate::telemetry::span(crate::telemetry::names::SPAN_INSTANCE_BUILD);
        let source = self.source.clone().ok_or(RankError::MissingWld)?;
        let gates = self.gates.ok_or(RankError::MissingGateCount)?;
        let coarse: CoarseWld = match source {
            WldSource::Spec(spec) => {
                let wld = spec.generate();
                self.coarsen(&wld)?
            }
            WldSource::Raw(wld) => self.coarsen(&wld)?,
            WldSource::Coarse(c) => c,
        };
        if coarse.is_empty() {
            return Err(RankError::NoBunches);
        }

        let die = DieModel::new(self.node, gates, self.repeater_fraction)?;
        let l_max = die.physical_length(coarse.bunch(0).length);

        let mut options = ExtractionOptions::default().with_miller_factor(self.miller_factor);
        if let Some(k) = self.permittivity {
            options = options.with_permittivity(k);
        }
        let extractor = Extractor::new(self.node, options);
        let device = self.node.device();

        // Per-pair electrical context.
        struct PairCtx {
            model: RepeatedWireModel,
            pitch_m: f64,
            spec: PairSolverSpec,
        }
        let pair_ctx: Vec<PairCtx> = self
            .arch
            .iter()
            .map(|p| {
                let model = RepeatedWireModel::with_charging(
                    device,
                    extractor.tier(p.tier()),
                    self.constants,
                    self.charging,
                );
                // A layer-pair comprises two routing layers of die area
                // each; the "L" legs of a wire split across them while
                // the l×(W+S) accounting charges the full length, so the
                // pair's routing capacity is 2·A_d (scaled by the
                // wiring-efficiency factor).
                let spec = PairSolverSpec {
                    capacity: 2.0 * self.wiring_efficiency * die.die_area().square_meters(),
                    via_area: p.via().occupied_area().square_meters(),
                    repeater_unit_area: device.repeater_area(model.optimal_size()).square_meters(),
                };
                PairCtx {
                    model,
                    pitch_m: p.wire_pitch().meters(),
                    spec,
                }
            })
            .collect();

        // Per-(distinct length, pair) repeater requirements, planned
        // once: a `CoarseWld` lists its bunches by descending length, so
        // the bunches of one length are adjacent, and each pair keeps
        // only the need it planned for the previous bunch's length.
        let mut previous: Vec<Option<(u64, Need)>> = vec![None; pair_ctx.len()];
        let mut need_of = |length: u64, j: usize, target: Time, ctx: &PairCtx| -> Need {
            if let Some((planned, need)) = previous[j] {
                if planned == length {
                    return need;
                }
            }
            let need = match plan_insertion(&ctx.model, die.physical_length(length), target) {
                InsertionOutcome::MeetsUnbuffered { .. } => Need::Unbuffered,
                InsertionOutcome::Buffered { count, .. } => Need::Repeaters(count),
                InsertionOutcome::Unattainable { .. } => Need::Unattainable,
            };
            previous[j] = Some((length, need));
            need
        };

        let bunches: Vec<BunchSolverSpec> = coarse
            .iter()
            .map(|b| {
                let phys = die.physical_length(b.length);
                let target = self.target_model.target(phys, l_max, self.clock);
                let wire_area = pair_ctx
                    .iter()
                    .map(|c| b.count as f64 * phys.meters() * c.pitch_m)
                    .collect();
                let need = pair_ctx
                    .iter()
                    .enumerate()
                    .map(|(j, c)| need_of(b.length, j, target, c))
                    .collect();
                BunchSolverSpec {
                    length: b.length,
                    count: b.count,
                    wire_area,
                    need,
                }
            })
            .collect();

        let instance = Instance::new(
            pair_ctx.iter().map(|c| c.spec).collect(),
            bunches,
            self.vias_per_wire,
            die.repeater_budget().square_meters(),
        )?;
        let total_wires = coarse.total_wires();
        let max_bunch_size = coarse.max_bunch_size();
        Ok(RankProblem {
            instance,
            die,
            clock: self.clock,
            total_wires,
            max_bunch_size,
        })
    }

    fn coarsen(&self, wld: &Wld) -> Result<CoarseWld, RankError> {
        let binned;
        let wld = if let Some(spread) = self.bin_spread {
            binned = coarsen::bin(wld, spread);
            &binned
        } else {
            wld
        };
        Ok(match self.bunch_size {
            Some(size) => coarsen::bunch(wld, size)?,
            None => coarsen::per_length(wld),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_tech::presets;

    fn small_problem() -> RankProblem {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .bunch_size(2_000)
            .build()
            .unwrap()
    }

    #[test]
    fn build_produces_consistent_instance() {
        let p = small_problem();
        assert_eq!(p.instance().pair_count(), 3);
        assert!(p.instance().bunch_count() > 10);
        assert_eq!(p.total_wires(), p.instance().total_wires());
        assert!(p.rank_error_bound() <= 2_000);
        // Budget matches the die model.
        assert!(
            (p.instance().repeater_budget() - p.die().repeater_budget().square_meters()).abs()
                < 1e-15
        );
    }

    #[test]
    fn missing_wld_is_rejected() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        assert_eq!(
            RankProblem::builder(&node, &arch).build().unwrap_err(),
            RankError::MissingWld
        );
    }

    #[test]
    fn raw_wld_requires_gate_count() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let wld = Wld::from_pairs([(1, 100), (50, 5)]).unwrap();
        let err = RankProblem::builder(&node, &arch)
            .wld(wld.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, RankError::MissingGateCount);
        assert!(RankProblem::builder(&node, &arch)
            .wld(wld)
            .gates(10_000)
            .build()
            .is_ok());
    }

    #[test]
    fn invalid_repeater_fraction_propagates() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let err = RankProblem::builder(&node, &arch)
            .wld_spec(WldSpec::new(20_000).unwrap())
            .repeater_fraction(1.2)
            .build()
            .unwrap_err();
        assert!(matches!(err, RankError::Arch(_)));
    }

    #[test]
    fn rank_runs_and_is_bounded() {
        let p = small_problem();
        let r = p.rank();
        assert!(r.rank() <= p.total_wires());
        assert!(r.normalized() >= 0.0 && r.normalized() <= 1.0);
        // Greedy never beats the DP.
        let g = p.greedy_rank();
        assert!(g.rank() <= r.rank());
    }

    #[test]
    fn wiring_efficiency_scales_capacity() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let spec = WldSpec::new(20_000).unwrap();
        let full = RankProblem::builder(&node, &arch)
            .wld_spec(spec)
            .bunch_size(2_000)
            .build()
            .unwrap();
        let half = RankProblem::builder(&node, &arch)
            .wld_spec(spec)
            .bunch_size(2_000)
            .wiring_efficiency(0.5)
            .build()
            .unwrap();
        for j in 0..full.instance().pair_count() {
            let ratio = half.instance().pair(j).capacity / full.instance().pair(j).capacity;
            assert!((ratio - 0.5).abs() < 1e-12);
        }
        // Less capacity can only hurt the rank.
        assert!(half.rank().rank() <= full.rank().rank());
    }

    #[test]
    fn vias_per_wire_knob_reaches_the_instance() {
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let spec = WldSpec::new(20_000).unwrap();
        let p = RankProblem::builder(&node, &arch)
            .wld_spec(spec)
            .bunch_size(2_000)
            .vias_per_wire(4)
            .build()
            .unwrap();
        assert_eq!(p.instance().vias_per_wire(), 4);
        // More vias per wire → more blockage → weakly lower rank.
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(spec)
            .bunch_size(2_000)
            .build()
            .unwrap();
        assert!(p.rank().rank() <= base.rank().rank());
    }

    #[test]
    fn charging_and_target_model_knobs_change_needs() {
        use ia_delay::{StageCharging, TargetDelayModel};
        use ia_units::Time;
        let node = presets::tsmc130();
        let arch = Architecture::baseline(&node);
        let spec = WldSpec::new(20_000).unwrap();
        let base = RankProblem::builder(&node, &arch)
            .wld_spec(spec)
            .bunch_size(2_000);
        let full = base.clone().build().unwrap().rank().rank();
        // Wire-only charging relaxes every delay → rank can only grow.
        let wire_only = base
            .clone()
            .charging(StageCharging::WireOnly)
            .build()
            .unwrap()
            .rank()
            .rank();
        assert!(wire_only >= full);
        // A generous floor relaxes targets → rank can only grow.
        let floored = base
            .clone()
            .target_model(TargetDelayModel::LinearWithFloor {
                floor: Time::from_picoseconds(200.0),
            })
            .build()
            .unwrap()
            .rank()
            .rank();
        assert!(floored >= full);
    }

    #[test]
    fn longer_wires_get_looser_targets_but_higher_pairs() {
        // Smoke test that the lowering produced descending bunches and
        // per-pair data of the right arity.
        let p = small_problem();
        let inst = p.instance();
        for i in 1..inst.bunch_count() {
            assert!(inst.bunch(i - 1).length >= inst.bunch(i).length);
        }
        for i in 0..inst.bunch_count() {
            assert_eq!(inst.bunch(i).wire_area.len(), 3);
            assert_eq!(inst.bunch(i).need.len(), 3);
        }
    }
}
