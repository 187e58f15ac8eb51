//! Canonical content-addressing and binding of fully-bound solve
//! configurations — shared by `ia-serve` and `ia-dse`.
//!
//! A solve is cached by *what will be solved*, not by how the request
//! was spelled: a [`BoundConfig`] is normalized into a canonical
//! `field=value` string in a fixed field order (so field reordering,
//! optional-field spelling, and the `tsmc` node-name prefix cannot
//! split the cache), and that string is hashed with 128-bit FNV-1a.
//! Two configurations collide only if every bound input — tech node,
//! stack pair counts, WLD scale, clock, and the Table 4 K/M/R knobs —
//! is bit-identical.
//!
//! Both the HTTP serving layer and the design-space-exploration engine
//! key their caches and run stores through this module, so a point
//! solved by one is a content-addressed hit for the other and the two
//! layers cannot drift. [`BoundConfig::with`] is the one setter that
//! rebinds a [`Knob`] to a value.

use ia_arch::{Architecture, ArchitectureBuilder};
use ia_tech::TechnologyNode;
use ia_units::convert::f64_to_u64_checked;
use ia_wld::{Degradation, DegradeKind, Wld, WldSpec};

use crate::sweep::{Axis, CachedSolve};
use crate::{RankProblem, RankProblemBuilder};

/// The FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// The FNV-1a 128-bit prime, 2^88 + 2^8 + 0x3b.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Hashes `bytes` with 128-bit FNV-1a.
#[must_use]
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A knob of the canonical configuration: the paper's four Table 4
/// knobs plus the design-scale, stack and corpus-stress knobs. Values
/// are in the configuration's own units (`c` in MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// ILD permittivity `K`.
    K,
    /// Miller coupling factor `M`.
    M,
    /// Clock frequency `C`, in MHz (the sweep [`Axis::C`] is in
    /// hertz).
    C,
    /// Repeater area fraction `R`.
    R,
    /// Design gate count.
    Gates,
    /// Coarsening bunch size.
    Bunch,
    /// Global layer-pair count.
    Global,
    /// Semi-global layer-pair count.
    SemiGlobal,
    /// Local layer-pair count.
    Local,
    /// Placement-suboptimality factor `γ` (the corpus stress axis):
    /// `1.0` is the pristine closed-form WLD, larger values stretch
    /// the distribution's tail before solving.
    Corpus,
}

impl Knob {
    const ALL: [Knob; 10] = [
        Knob::K,
        Knob::M,
        Knob::C,
        Knob::R,
        Knob::Gates,
        Knob::Bunch,
        Knob::Global,
        Knob::SemiGlobal,
        Knob::Local,
        Knob::Corpus,
    ];

    /// Parses a knob label (see [`Knob::label`], any case).
    ///
    /// # Errors
    ///
    /// Returns [`BindError::Invalid`] for an unknown knob name.
    pub fn parse(text: &str) -> Result<Self, BindError> {
        let text = text.to_ascii_lowercase();
        Knob::ALL
            .into_iter()
            .find(|knob| knob.label() == text)
            .ok_or_else(|| {
                BindError::Invalid(format!(
                    "unknown knob `{text}` (expected k, m, c, r, gates, bunch, \
                     global, semi_global, local or corpus)"
                ))
            })
    }

    /// The knob's canonical spec/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Knob::K => "k",
            Knob::M => "m",
            Knob::C => "c",
            Knob::R => "r",
            Knob::Gates => "gates",
            Knob::Bunch => "bunch",
            Knob::Global => "global",
            Knob::SemiGlobal => "semi_global",
            Knob::Local => "local",
            Knob::Corpus => "corpus",
        }
    }

    /// Whether the knob only takes non-negative integer values.
    #[must_use]
    pub fn is_integer(self) -> bool {
        matches!(
            self,
            Knob::Gates | Knob::Bunch | Knob::Global | Knob::SemiGlobal | Knob::Local
        )
    }

    /// The paper's published Table 4 grid for the four Table 4 knobs,
    /// in knob units (`c` in MHz); the other knobs have none.
    #[must_use]
    pub fn default_values(self) -> Option<Vec<f64>> {
        let axis = Axis::ALL.into_iter().find(|axis| axis.knob() == self)?;
        Some(
            axis.paper_values()
                .iter()
                .map(|&x| axis.to_knob(x))
                .collect(),
        )
    }

    fn count(self, x: f64) -> Result<u64, BindError> {
        f64_to_u64_checked(x)
            .filter(|_| x.fract() == 0.0)
            .ok_or_else(|| {
                BindError::Invalid(format!(
                    "axis `{}` value {x} is not a non-negative integer",
                    self.label()
                ))
            })
    }
}

/// The fully-bound inputs of one rank computation: technology node,
/// design scale, clock, the paper's Table 4 knobs, and the layer-pair
/// stack. This is the unit of content addressing — the serve layer's
/// `SolveRequest` and the dse engine's experiment points both lower to
/// this struct before hashing, binding, or solving.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundConfig {
    /// Technology node preset: `90`, `130` or `180` (a `tsmc` prefix
    /// is accepted and normalized away).
    pub node: String,
    /// Design gate count (sizes the Davis WLD and the die).
    pub gates: u64,
    /// Coarsening bunch size.
    pub bunch: u64,
    /// Target clock frequency in MHz.
    pub clock_mhz: f64,
    /// Repeater area fraction `R`.
    pub fraction: f64,
    /// Miller coupling factor `M`.
    pub miller: f64,
    /// ILD permittivity `K` override (`None` = node default).
    pub k: Option<f64>,
    /// Global layer-pair count.
    pub global: u64,
    /// Semi-global layer-pair count.
    pub semi_global: u64,
    /// Local layer-pair count.
    pub local: u64,
    /// Placement-suboptimality factor `γ ≥ 1` (the corpus axis): the
    /// Davis WLD's tail is stretched by this factor before solving.
    /// `1.0` (the default) means the pristine closed-form WLD and is
    /// omitted from the canonical rendering, so pre-existing cache
    /// keys are unchanged.
    pub degrade: f64,
}

impl Default for BoundConfig {
    fn default() -> Self {
        BoundConfig {
            node: "130".to_owned(),
            gates: 1_000_000,
            bunch: 10_000,
            clock_mhz: 500.0,
            fraction: 0.4,
            miller: 2.0,
            k: None,
            global: 1,
            semi_global: 2,
            local: 0,
            degrade: 1.0,
        }
    }
}

impl BoundConfig {
    /// This configuration with `knob` rebound to `x` (in knob units) —
    /// the one setter between a knob value and the content-addressed
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::Invalid`] for a non-finite value, a
    /// fractional or negative count, or `γ < 1` on the corpus knob.
    // lint: raw-f64 (the knob value, unit depends on the knob)
    pub fn with(mut self, knob: Knob, x: f64) -> Result<Self, BindError> {
        if !x.is_finite() {
            return Err(BindError::Invalid(format!(
                "axis `{}` value must be finite",
                knob.label()
            )));
        }
        match knob {
            Knob::K => self.k = Some(x),
            Knob::M => self.miller = x,
            Knob::C => self.clock_mhz = x,
            Knob::R => self.fraction = x,
            Knob::Gates => self.gates = knob.count(x)?,
            Knob::Bunch => self.bunch = knob.count(x)?,
            Knob::Global => self.global = knob.count(x)?,
            Knob::SemiGlobal => self.semi_global = knob.count(x)?,
            Knob::Local => self.local = knob.count(x)?,
            Knob::Corpus => {
                if x < 1.0 {
                    return Err(BindError::Invalid(format!(
                        "axis `corpus` value {x} is below 1 (γ ≥ 1)"
                    )));
                }
                self.degrade = x;
            }
        }
        Ok(self)
    }

    /// Renders the bound inputs as `field=value` pairs in a fixed
    /// field order. Float knobs use Rust's shortest round-trip
    /// `Display` form, so distinct `f64` values always render
    /// distinctly.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        let k = self
            .k
            .map_or_else(|| "default".to_owned(), |k| k.to_string());
        let mut rendered = format!(
            "node={};gates={};bunch={};clock_mhz={};fraction={};miller={};k={};global={};semi_global={};local={}",
            self.node.trim_start_matches("tsmc"),
            self.gates,
            self.bunch,
            self.clock_mhz,
            self.fraction,
            self.miller,
            k,
            self.global,
            self.semi_global,
            self.local,
        );
        // The identity factor is elided so every configuration minted
        // before the corpus axis existed keeps its cache key.
        if self.degrade != 1.0 {
            rendered.push_str(&format!(";degrade={}", self.degrade));
        }
        rendered
    }

    /// The content-address of this configuration: the FNV-1a 128 hash
    /// of its canonical rendering.
    #[must_use]
    pub fn cache_key(&self) -> u128 {
        fnv1a_128(self.canonical_string().as_bytes())
    }

    /// Resolves the node preset and builds the layer-pair stack.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] for an unknown node name, a pair count
    /// that does not fit `usize`, or an invalid architecture.
    pub fn bind(&self) -> Result<BoundProblem, BindError> {
        let node = resolve_node(&self.node)?;
        let architecture = ArchitectureBuilder::new(&node)
            .global_pairs(pairs(self.global, "global")?)
            .semi_global_pairs(pairs(self.semi_global, "semi_global")?)
            .local_pairs(pairs(self.local, "local")?)
            .build()
            .map_err(|e| BindError::Invalid(e.to_string()))?;
        Ok(BoundProblem {
            config: self.clone(),
            node,
            architecture,
        })
    }

    /// Binds and solves this configuration from scratch — the
    /// cache-miss path of every cached layer above.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] when binding or problem construction
    /// fails.
    pub fn solve(&self) -> Result<CachedSolve, BindError> {
        let bound = self.bind()?;
        let problem = bound
            .builder()?
            .build()
            .map_err(|e| BindError::Invalid(e.to_string()))?;
        let result = problem.rank();
        Ok(CachedSolve::of(&problem, &result))
    }

    /// Binds and solves over a caller-supplied distribution — a
    /// measured netlist WLD or an alternate stochastic backend —
    /// instead of the generated Davis spec. The `degrade` factor is
    /// applied to the supplied distribution exactly as [`solve`]
    /// applies it to the generated one, so corpus stress points and
    /// pristine points share one code path.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] when binding, degradation, or problem
    /// construction fails.
    ///
    /// [`solve`]: BoundConfig::solve
    pub fn solve_with_wld(&self, wld: Wld) -> Result<CachedSolve, BindError> {
        let bound = self.bind()?;
        let problem = bound
            .builder_with_wld(wld)?
            .build()
            .map_err(|e| BindError::Invalid(e.to_string()))?;
        let result = problem.rank();
        Ok(CachedSolve::of(&problem, &result))
    }
}

/// A configuration with its resolved tech node and architecture. The
/// [`RankProblemBuilder`] borrows both, so they live in one struct the
/// caller keeps on its stack for the solve's duration.
#[derive(Debug)]
pub struct BoundProblem {
    /// The configuration this binding came from.
    pub config: BoundConfig,
    /// The resolved technology node preset.
    pub node: TechnologyNode,
    /// The built layer-pair stack.
    pub architecture: Architecture,
}

impl BoundProblem {
    /// Starts a [`RankProblemBuilder`] with every knob of the
    /// configuration applied.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] when the WLD spec rejects the gate count.
    pub fn builder(&self) -> Result<RankProblemBuilder<'_>, BindError> {
        let spec =
            WldSpec::new(self.config.gates).map_err(|e| BindError::Invalid(e.to_string()))?;
        if self.config.degrade == 1.0 {
            let builder = RankProblem::builder(&self.node, &self.architecture).wld_spec(spec);
            return Ok(self.knobs(builder));
        }
        // The corpus stress axis: generate the pristine Davis
        // distribution, then degrade it like any supplied WLD.
        self.builder_with_wld(spec.generate())
    }

    /// Like [`builder`](BoundProblem::builder), but over a
    /// caller-supplied distribution (a measured netlist WLD or an
    /// alternate stochastic backend) instead of the generated Davis
    /// spec. The configuration's `degrade` factor is applied to the
    /// supplied distribution first.
    ///
    /// # Errors
    ///
    /// Returns [`BindError`] when the degradation parameters are
    /// invalid or the stretch overflows.
    pub fn builder_with_wld(&self, wld: Wld) -> Result<RankProblemBuilder<'_>, BindError> {
        let wld = if self.config.degrade == 1.0 {
            wld
        } else {
            // Tail-stretch: wires longer than the die side (√gates)
            // grow by the suboptimality factor γ; count-preserving
            // and exactly invertible from the report metadata.
            let threshold =
                ia_units::convert::f64_to_u64_saturating((self.config.gates as f64).sqrt());
            Degradation::from_gamma(DegradeKind::TailStretch, self.config.degrade, threshold)
                .and_then(|d| d.apply(&wld))
                .map_err(|e| BindError::Invalid(e.to_string()))?
        };
        let builder = RankProblem::builder(&self.node, &self.architecture)
            .wld(wld)
            .gates(self.config.gates);
        Ok(self.knobs(builder))
    }

    /// Applies the configuration's scalar knobs to a builder.
    fn knobs<'p>(&'p self, builder: RankProblemBuilder<'p>) -> RankProblemBuilder<'p> {
        Axis::ALL.into_iter().fold(
            builder.bunch_size(self.config.bunch),
            |builder, axis| match axis.get(&self.config) {
                Some(x) => axis.apply(builder, x),
                None => builder,
            },
        )
    }
}

/// A binding failure: the configuration names an unknown node, an
/// out-of-range pair count, or inputs one of the model layers rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The node preset name is not `90`, `130` or `180`.
    UnknownNode(String),
    /// The named layer-pair count does not fit `usize`.
    OutOfRange(&'static str),
    /// A model layer (WLD, architecture, problem builder) rejected the
    /// bound inputs; carries that layer's message verbatim.
    Invalid(String),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::UnknownNode(name) => {
                write!(f, "unknown node `{name}` (expected 90, 130 or 180)")
            }
            BindError::OutOfRange(knob) => write!(f, "`{knob}` is out of range"),
            BindError::Invalid(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for BindError {}

fn resolve_node(name: &str) -> Result<TechnologyNode, BindError> {
    match name.trim_start_matches("tsmc") {
        "90" => Ok(ia_tech::presets::tsmc90()),
        "130" => Ok(ia_tech::presets::tsmc130()),
        "180" => Ok(ia_tech::presets::tsmc180()),
        other => Err(BindError::UnknownNode(other.to_owned())),
    }
}

fn pairs(count: u64, knob: &'static str) -> Result<usize, BindError> {
    usize::try_from(count).map_err(|_| BindError::OutOfRange(knob))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_are_stable() {
        // Empty input hashes to the offset basis by construction.
        assert_eq!(fnv1a_128(b""), FNV_OFFSET);
        // Any byte changes the hash.
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
        assert_ne!(fnv1a_128(b"ab"), fnv1a_128(b"ba"));
    }

    #[test]
    fn default_canonical_string_is_pinned() {
        // The exact rendering is a stability contract: it feeds the
        // on-disk run store and the serve cache across versions.
        assert_eq!(
            BoundConfig::default().canonical_string(),
            "node=130;gates=1000000;bunch=10000;clock_mhz=500;fraction=0.4;\
             miller=2;k=default;global=1;semi_global=2;local=0"
        );
    }

    #[test]
    fn node_prefix_is_normalized() {
        let a = BoundConfig {
            node: "tsmc130".to_owned(),
            ..BoundConfig::default()
        };
        assert_eq!(a.cache_key(), BoundConfig::default().cache_key());
    }

    #[test]
    fn knob_changes_change_the_key() {
        let base = BoundConfig::default();
        let key = base.cache_key();
        let mut m = base.clone();
        m.miller = 1.95;
        assert_ne!(m.cache_key(), key);
        let mut k = base.clone();
        k.k = Some(3.9);
        assert_ne!(k.cache_key(), key, "explicit K is distinct from default");
    }

    #[test]
    fn bind_reports_unknown_node_and_bad_pairs() {
        let config = BoundConfig {
            node: "65".to_owned(),
            ..BoundConfig::default()
        };
        let err = config
            .bind()
            .map(|_| ())
            .expect_err("node must be rejected");
        assert_eq!(
            err.to_string(),
            "unknown node `65` (expected 90, 130 or 180)"
        );
    }

    #[test]
    fn degrade_axis_is_elided_at_identity_and_rendered_otherwise() {
        let identity = BoundConfig {
            degrade: 1.0,
            ..BoundConfig::default()
        };
        // γ = 1 must not change the pinned rendering or any existing key.
        assert_eq!(
            identity.canonical_string(),
            BoundConfig::default().canonical_string()
        );
        let stressed = BoundConfig {
            degrade: 1.5,
            ..BoundConfig::default()
        };
        assert!(stressed.canonical_string().ends_with(";degrade=1.5"));
        assert_ne!(stressed.cache_key(), identity.cache_key());
    }

    #[test]
    fn degraded_solves_rank_lower_than_pristine() {
        let pristine = BoundConfig {
            gates: 20_000,
            bunch: 2_000,
            ..BoundConfig::default()
        };
        let stressed = BoundConfig {
            degrade: 2.0,
            ..pristine.clone()
        };
        let a = pristine.solve().expect("pristine solves");
        let b = stressed.solve().expect("degraded solves");
        // Stretching the tail makes wires longer and the stack's job
        // harder: the degraded design never outranks the pristine one.
        assert!(
            b.rank <= a.rank,
            "degraded rank {} > pristine {}",
            b.rank,
            a.rank
        );
        assert_eq!(
            a.total_wires, b.total_wires,
            "tail-stretch preserves wire count"
        );
        // Deterministic under repetition, like every other solve.
        assert_eq!(stressed.solve().expect("solves"), b);
    }

    #[test]
    fn invalid_degrade_is_a_bind_error_not_a_panic() {
        let config = BoundConfig {
            gates: 20_000,
            bunch: 2_000,
            degrade: 0.5,
            ..BoundConfig::default()
        };
        let err = config.solve().expect_err("γ < 1 must be rejected");
        assert!(matches!(err, BindError::Invalid(_)));
    }

    #[test]
    fn solve_produces_a_consistent_summary() {
        let config = BoundConfig {
            gates: 20_000,
            bunch: 2_000,
            ..BoundConfig::default()
        };
        let summary = config.solve().expect("solves");
        assert!(summary.rank > 0);
        assert!(summary.rank <= summary.total_wires);
        assert!(summary.normalized > 0.0 && summary.normalized <= 1.0);
        // Deterministic: same configuration, same summary.
        assert_eq!(config.solve().expect("solves"), summary);
    }
}
