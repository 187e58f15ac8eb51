//! Corpus spec parsing and validation (TOML subset or JSON).
//!
//! A [`CorpusSpec`] names a set of **designs** (streamed Bookshelf
//! placements, seeded synthetic placements, or pure Davis reference
//! scales), the **WLD backends** to model each design with, and the
//! **degradation levels** (placement-suboptimality factors `γ`) to
//! stress each combination at. The runner solves the full cartesian
//! product `designs × backends × degrade` against one shared base
//! configuration, and the report compares every backend's rank to the
//! Davis baseline at the same `(design, γ)`.
//!
//! TOML shape (the JSON shape mirrors it field-for-field):
//!
//! ```toml
//! name = "smoke"
//! workers = 2
//! net_model = "star"
//! backends = ["measured", "davis", "hefeida-site", "hefeida-occupancy"]
//! degrade = [1.0, 1.5, 2.0]
//!
//! [base]
//! bunch = 2000
//!
//! [[designs]]
//! name = "synth-100k"
//! kind = "synthetic"
//! cells = 50000
//! nets = 100000
//! seed = 7
//!
//! [[designs]]
//! name = "ref-1m"
//! kind = "davis"
//! gates = 1000000
//! ```

use ia_dse::spec::{config_from_json, config_to_json, toml_subset};
use ia_dse::store::{run_id, RunSpec};
use ia_netlist::NetModel;
use ia_obs::json::JsonValue;
use ia_rank::canon::{fnv1a_128, BoundConfig};
use ia_wld::WldModel;

use crate::error::CorpusError;

fn bad(message: impl Into<String>) -> CorpusError {
    CorpusError::Spec(message.into())
}

/// How one corpus point obtains its wire-length distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The distribution measured from the design's placement by the
    /// streaming ingester (unavailable for `davis`-kind designs).
    Measured,
    /// A stochastic model evaluated at the design's gate count.
    Model(WldModel),
}

impl Backend {
    /// Every backend, in canonical report order.
    pub const ALL: [Backend; 4] = [
        Backend::Measured,
        Backend::Model(WldModel::Davis),
        Backend::Model(WldModel::HefeidaSite),
        Backend::Model(WldModel::HefeidaOccupancy),
    ];

    /// The backend's canonical spec/report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Measured => "measured",
            Backend::Model(model) => model.label(),
        }
    }

    /// Parses a spec's backend label (any case).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Spec`] for an unknown label.
    pub fn parse(text: &str) -> Result<Self, CorpusError> {
        if text.eq_ignore_ascii_case("measured") {
            return Ok(Backend::Measured);
        }
        WldModel::parse(text).map(Backend::Model).ok_or_else(|| {
            bad(format!(
                "unknown backend `{text}` (expected measured, davis, \
                 hefeida-site or hefeida-occupancy)"
            ))
        })
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where one design's placement comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignSource {
    /// A seeded synthetic placement, generated into the run directory
    /// and streamed back — the CI-scale stand-in for a real design.
    Synthetic {
        /// Cell count (also the gate count the models see).
        cells: u64,
        /// Net count.
        nets: u64,
        /// Generator seed.
        seed: u64,
    },
    /// An on-disk Bookshelf triple, streamed without materializing
    /// the netlist.
    Bookshelf {
        /// Path to the `.nodes` file.
        nodes: String,
        /// Path to the `.nets` file.
        nets: String,
        /// Path to the `.pl` file.
        pl: String,
    },
    /// No placement at all: a pure Davis reference scale, for
    /// comparing the stochastic backends against each other.
    Davis {
        /// Design gate count.
        gates: u64,
    },
}

impl DesignSource {
    /// The source's canonical `kind` label.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DesignSource::Synthetic { .. } => "synthetic",
            DesignSource::Bookshelf { .. } => "bookshelf",
            DesignSource::Davis { .. } => "davis",
        }
    }

    /// A canonical one-line descriptor, part of every point's content
    /// address — two designs with different sources can never alias.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            DesignSource::Synthetic { cells, nets, seed } => {
                format!("synthetic:cells={cells},nets={nets},seed={seed}")
            }
            DesignSource::Bookshelf { nodes, nets, pl } => {
                format!("bookshelf:nodes={nodes},nets={nets},pl={pl}")
            }
            DesignSource::Davis { gates } => format!("davis:gates={gates}"),
        }
    }

    /// The gate count when it is knowable without ingestion
    /// (`bookshelf` designs learn theirs from the `.nodes` header).
    #[must_use]
    pub fn gates_hint(&self) -> Option<u64> {
        match self {
            DesignSource::Synthetic { cells, .. } => Some(*cells),
            DesignSource::Davis { gates } => Some(*gates),
            DesignSource::Bookshelf { .. } => None,
        }
    }
}

/// One named design of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpec {
    /// The design's unique name (report rows and run-directory
    /// subdirectories use it).
    pub name: String,
    /// Where the placement comes from.
    pub source: DesignSource,
}

/// A full corpus experiment: designs × backends × degradation levels
/// over one shared base configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Experiment name (report header; not part of the run id's
    /// semantics beyond hashing).
    pub name: String,
    /// Default scheduler worker count.
    pub workers: usize,
    /// The shared solve configuration every point starts from. Its
    /// `gates` is overridden per design and its `degrade` per level,
    /// so the spec must leave both at their defaults.
    pub base: BoundConfig,
    /// The designs to rank.
    pub designs: Vec<DesignSpec>,
    /// The WLD backends to model each design with.
    pub backends: Vec<Backend>,
    /// The `γ ≥ 1` degradation levels, sorted ascending, deduplicated.
    pub degrade: Vec<f64>,
    /// How multi-terminal nets decompose during measured ingestion.
    pub net_model: NetModel,
}

impl CorpusSpec {
    /// Parses a spec from TOML-subset or JSON text (auto-detected the
    /// same way `ia-dse` specs are: a leading `{` means JSON).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Spec`] for syntax errors, unknown
    /// fields, and semantic violations.
    pub fn parse_str(text: &str) -> Result<Self, CorpusError> {
        let doc = if text.trim_start().starts_with('{') {
            JsonValue::parse(text).map_err(|e| bad(format!("bad JSON: {e}")))?
        } else {
            toml_subset::parse(text).map_err(bad)?
        };
        Self::from_json(&doc)
    }

    /// Parses a spec from a JSON document (the manifest resume path).
    ///
    /// # Errors
    ///
    /// Returns [`CorpusError::Spec`] for unknown fields or semantic
    /// violations.
    pub fn from_json(doc: &JsonValue) -> Result<Self, CorpusError> {
        let fields = doc
            .as_object()
            .ok_or_else(|| bad("corpus spec must be an object"))?;
        let mut name = None;
        let mut workers = 1usize;
        let mut base = BoundConfig::default();
        let mut designs = Vec::new();
        let mut backends = None;
        let mut degrade = None;
        let mut net_model = NetModel::Star;
        for (key, value) in fields {
            match key.as_str() {
                "name" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| bad("`name` must be a string"))?
                            .to_owned(),
                    );
                }
                "workers" => {
                    let count = value
                        .as_u64()
                        .filter(|&w| w >= 1)
                        .ok_or_else(|| bad("`workers` must be a positive integer"))?;
                    workers =
                        usize::try_from(count).map_err(|_| bad("`workers` does not fit usize"))?;
                }
                "base" => {
                    base = config_from_json(value).map_err(|e| bad(e.to_string()))?;
                }
                "designs" => {
                    let list = value
                        .as_array()
                        .ok_or_else(|| bad("`designs` must be an array"))?;
                    for design in list {
                        designs.push(parse_design(design)?);
                    }
                }
                "backends" => {
                    let list = value
                        .as_array()
                        .ok_or_else(|| bad("`backends` must be an array"))?;
                    let mut parsed = Vec::new();
                    for entry in list {
                        let label = entry
                            .as_str()
                            .ok_or_else(|| bad("each backend must be a string"))?;
                        let backend = Backend::parse(label)?;
                        if !parsed.contains(&backend) {
                            parsed.push(backend);
                        }
                    }
                    backends = Some(parsed);
                }
                "degrade" => {
                    let list = value
                        .as_array()
                        .ok_or_else(|| bad("`degrade` must be an array"))?;
                    let mut levels = Vec::new();
                    for entry in list {
                        let gamma = entry
                            .as_f64()
                            .ok_or_else(|| bad("each degrade level must be a number"))?;
                        if !gamma.is_finite() || gamma < 1.0 {
                            return Err(bad(format!(
                                "degrade level {gamma} is not a finite γ ≥ 1"
                            )));
                        }
                        if gamma > ia_wld::degrade::GAMMA_MAX {
                            return Err(bad(format!(
                                "degrade level {gamma} exceeds the supported γ ≤ {}",
                                ia_wld::degrade::GAMMA_MAX
                            )));
                        }
                        levels.push(gamma);
                    }
                    degrade = Some(levels);
                }
                "net_model" => {
                    let label = value
                        .as_str()
                        .ok_or_else(|| bad("`net_model` must be a string"))?;
                    net_model = match label.to_ascii_lowercase().as_str() {
                        "star" => NetModel::Star,
                        "hpwl" => NetModel::Hpwl,
                        other => {
                            return Err(bad(format!(
                                "unknown net_model `{other}` (expected star or hpwl)"
                            )))
                        }
                    };
                }
                other => return Err(bad(format!("unknown field `{other}`"))),
            }
        }
        let spec = CorpusSpec {
            name: name.ok_or_else(|| bad("spec has no `name`"))?,
            workers,
            base,
            designs,
            backends: backends.unwrap_or_else(|| {
                vec![
                    Backend::Model(WldModel::Davis),
                    Backend::Model(WldModel::HefeidaSite),
                    Backend::Model(WldModel::HefeidaOccupancy),
                ]
            }),
            degrade: degrade.unwrap_or_else(|| vec![1.0]),
            net_model,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), CorpusError> {
        if self.name.is_empty() {
            return Err(bad("`name` must not be empty"));
        }
        if self.designs.is_empty() {
            return Err(bad("a corpus needs at least one design"));
        }
        for design in &self.designs {
            if design.name.is_empty() {
                return Err(bad("every design needs a non-empty `name`"));
            }
            let dupes = self
                .designs
                .iter()
                .filter(|d| d.name == design.name)
                .count();
            if dupes > 1 {
                return Err(bad(format!("duplicate design name `{}`", design.name)));
            }
        }
        if self.backends.is_empty() {
            return Err(bad("`backends` must not be empty"));
        }
        if self.degrade.is_empty() {
            return Err(bad("`degrade` must not be empty"));
        }
        let sorted = self
            .degrade
            .windows(2)
            .all(|w| w[0].total_cmp(&w[1]).is_lt());
        if !sorted {
            return Err(bad(
                "`degrade` levels must be strictly ascending (sorted, no duplicates)",
            ));
        }
        if self.backends.contains(&Backend::Measured) {
            if let Some(design) = self
                .designs
                .iter()
                .find(|d| matches!(d.source, DesignSource::Davis { .. }))
            {
                return Err(bad(format!(
                    "backend `measured` cannot apply to davis-kind design `{}` \
                     (it has no placement to measure)",
                    design.name
                )));
            }
        }
        if self.base.degrade != 1.0 {
            return Err(bad(
                "`base.degrade` must stay 1.0 — use the `degrade` level list instead",
            ));
        }
        Ok(())
    }

    /// Renders the spec in canonical JSON field order — the manifest
    /// form, which re-parses to an equal spec.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            (
                "backends".to_owned(),
                JsonValue::Arr(
                    self.backends
                        .iter()
                        .map(|b| JsonValue::Str(b.label().to_owned()))
                        .collect(),
                ),
            ),
            ("base".to_owned(), config_to_json(&self.base)),
            (
                "degrade".to_owned(),
                JsonValue::Arr(self.degrade.iter().map(|&g| JsonValue::Num(g)).collect()),
            ),
            (
                "designs".to_owned(),
                JsonValue::Arr(self.designs.iter().map(design_to_json).collect()),
            ),
            ("name".to_owned(), JsonValue::Str(self.name.clone())),
            (
                "net_model".to_owned(),
                JsonValue::Str(net_model_label(self.net_model).to_owned()),
            ),
            (
                "workers".to_owned(),
                JsonValue::UInt(u64::try_from(self.workers).unwrap_or(u64::MAX)),
            ),
        ])
    }

    /// The spec's content hash: FNV-1a 128 over the canonical JSON.
    #[must_use]
    pub fn spec_hash(&self) -> u128 {
        fnv1a_128(self.to_json().render().as_bytes())
    }

    /// The run id: the first 16 hex digits of [`Self::spec_hash`],
    /// naming `runs/<run_id>/` like `ia-dse` runs do.
    #[must_use]
    pub fn run_id(&self) -> String {
        run_id(self.spec_hash())
    }
}

impl RunSpec for CorpusSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec_hash(&self) -> u128 {
        CorpusSpec::spec_hash(self)
    }

    fn to_json(&self) -> JsonValue {
        CorpusSpec::to_json(self)
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        CorpusSpec::from_json(doc).map_err(|e| e.to_string())
    }
}

/// The canonical label of a net model.
#[must_use]
pub fn net_model_label(model: NetModel) -> &'static str {
    match model {
        NetModel::Star => "star",
        NetModel::Hpwl => "hpwl",
    }
}

fn parse_design(doc: &JsonValue) -> Result<DesignSpec, CorpusError> {
    let fields = doc
        .as_object()
        .ok_or_else(|| bad("each design must be an object"))?;
    let get_str = |key: &str| -> Result<Option<String>, CorpusError> {
        match fields.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .as_str()
                .map(|s| Some(s.to_owned()))
                .ok_or_else(|| bad(format!("design `{key}` must be a string"))),
        }
    };
    let get_u64 = |key: &str| -> Result<Option<u64>, CorpusError> {
        match fields.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(format!("design `{key}` must be a non-negative integer"))),
        }
    };
    for (key, _) in fields {
        if !matches!(
            key.as_str(),
            "name" | "kind" | "cells" | "nets" | "seed" | "gates" | "nodes" | "pl"
        ) {
            return Err(bad(format!("unknown design field `{key}`")));
        }
    }
    let name = get_str("name")?.ok_or_else(|| bad("design has no `name`"))?;
    let kind = get_str("kind")?.ok_or_else(|| bad("design has no `kind`"))?;
    let need = |field: &'static str| bad(format!("design `{name}` ({kind}) needs `{field}`"));
    let source = match kind.as_str() {
        "synthetic" => DesignSource::Synthetic {
            cells: get_u64("cells")?.ok_or_else(|| need("cells"))?,
            nets: get_u64("nets")?.ok_or_else(|| need("nets"))?,
            seed: get_u64("seed")?.unwrap_or(0),
        },
        "bookshelf" => DesignSource::Bookshelf {
            nodes: get_str("nodes")?.ok_or_else(|| need("nodes"))?,
            nets: get_str("nets")?.ok_or_else(|| need("nets"))?,
            pl: get_str("pl")?.ok_or_else(|| need("pl"))?,
        },
        "davis" => DesignSource::Davis {
            gates: get_u64("gates")?.ok_or_else(|| need("gates"))?,
        },
        other => {
            return Err(bad(format!(
                "unknown design kind `{other}` (expected synthetic, bookshelf or davis)"
            )))
        }
    };
    Ok(DesignSpec { name, source })
}

fn design_to_json(design: &DesignSpec) -> JsonValue {
    let mut fields = vec![
        (
            "kind".to_owned(),
            JsonValue::Str(design.source.kind().to_owned()),
        ),
        ("name".to_owned(), JsonValue::Str(design.name.clone())),
    ];
    match &design.source {
        DesignSource::Synthetic { cells, nets, seed } => {
            fields.push(("cells".to_owned(), JsonValue::UInt(*cells)));
            fields.push(("nets".to_owned(), JsonValue::UInt(*nets)));
            fields.push(("seed".to_owned(), JsonValue::UInt(*seed)));
        }
        DesignSource::Bookshelf { nodes, nets, pl } => {
            fields.push(("nodes".to_owned(), JsonValue::Str(nodes.clone())));
            fields.push(("nets".to_owned(), JsonValue::Str(nets.clone())));
            fields.push(("pl".to_owned(), JsonValue::Str(pl.clone())));
        }
        DesignSource::Davis { gates } => {
            fields.push(("gates".to_owned(), JsonValue::UInt(*gates)));
        }
    }
    JsonValue::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_SPEC: &str = r#"
# Two designs, three backends, two stress levels.
name = "smoke"
workers = 2
backends = ["davis", "hefeida-site", "hefeida-occupancy"]
degrade = [1.0, 1.5]

[base]
bunch = 2000

[[designs]]
name = "synth"
kind = "synthetic"
cells = 20000
nets = 40000
seed = 7

[[designs]]
name = "ref"
kind = "davis"
gates = 30000
"#;

    #[test]
    fn toml_and_json_parse_identically_and_round_trip() {
        let toml = CorpusSpec::parse_str(TOML_SPEC).unwrap();
        let json = CorpusSpec::parse_str(&toml.to_json().render()).unwrap();
        assert_eq!(toml, json);
        assert_eq!(toml.run_id(), json.run_id());
        assert_eq!(toml.run_id().len(), 16);
        assert_eq!(toml.designs.len(), 2);
        assert_eq!(toml.backends.len(), 3);
        assert_eq!(toml.base.bunch, 2000);
    }

    #[test]
    fn defaults_cover_the_three_model_backends() {
        let spec = CorpusSpec::parse_str(
            r#"{"name": "d", "designs": [{"name": "ref", "kind": "davis", "gates": 20000}]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.backends,
            vec![
                Backend::Model(WldModel::Davis),
                Backend::Model(WldModel::HefeidaSite),
                Backend::Model(WldModel::HefeidaOccupancy),
            ]
        );
        assert_eq!(spec.degrade, vec![1.0]);
        assert_eq!(spec.net_model, NetModel::Star);
    }

    #[test]
    fn semantic_violations_are_rejected() {
        for (text, needle) in [
            (r#"{"name": "x"}"#, "at least one design"),
            (
                r#"{"name": "x", "designs": [
                    {"name": "a", "kind": "davis", "gates": 1},
                    {"name": "a", "kind": "davis", "gates": 2}]}"#,
                "duplicate design name",
            ),
            (
                r#"{"name": "x", "degrade": [2.0, 1.5],
                    "designs": [{"name": "a", "kind": "davis", "gates": 1}]}"#,
                "strictly ascending",
            ),
            (
                r#"{"name": "x", "degrade": [0.5],
                    "designs": [{"name": "a", "kind": "davis", "gates": 1}]}"#,
                "γ ≥ 1",
            ),
            (
                r#"{"name": "x", "backends": ["measured"],
                    "designs": [{"name": "a", "kind": "davis", "gates": 1}]}"#,
                "no placement to measure",
            ),
            (
                r#"{"name": "x", "base": {"degrade": 2.0},
                    "designs": [{"name": "a", "kind": "davis", "gates": 1}]}"#,
                "degrade` level list",
            ),
            (
                r#"{"name": "x", "backends": ["zipf"],
                    "designs": [{"name": "a", "kind": "davis", "gates": 1}]}"#,
                "unknown backend",
            ),
            (
                r#"{"name": "x", "designs": [{"name": "a", "kind": "torus"}]}"#,
                "unknown design kind",
            ),
            (
                r#"{"name": "x", "axes": [],
                    "designs": [{"name": "a", "kind": "davis", "gates": 1}]}"#,
                "unknown field",
            ),
        ] {
            let err = CorpusSpec::parse_str(text).expect_err(text).to_string();
            assert!(err.contains(needle), "`{err}` lacks `{needle}`");
        }
    }

    #[test]
    fn backend_labels_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(Backend::parse(backend.label()).unwrap(), backend);
        }
        assert!(Backend::parse("MEASURED").is_ok());
    }

    #[test]
    fn spec_hash_changes_with_content() {
        let a = CorpusSpec::parse_str(TOML_SPEC).unwrap();
        let mut b = a.clone();
        b.degrade.push(2.0);
        assert_ne!(a.spec_hash(), b.spec_hash());
        assert_ne!(a.run_id(), b.run_id());
    }
}
