//! The declarative experiment spec: what to explore, how, and within
//! what budget.
//!
//! A spec names a base [`BoundConfig`], a list of axes (each a
//! canonical knob plus the values to visit), a search [`Strategy`],
//! and optional budgets. Specs parse from JSON or from a small TOML
//! subset (tables, array-of-tables, scalars, and single-line arrays —
//! exactly what experiment files need; see `docs/dse.md`), and render
//! back to one canonical JSON form whose 128-bit FNV-1a hash is the
//! **run id**: the same spec always maps to the same
//! `runs/<run_id>/` directory, which is what makes `dse run` on an
//! interrupted spec a resume instead of a restart.

use ia_obs::json::JsonValue;
use ia_rank::canon::{fnv1a_128, BindError, BoundConfig, Knob};

use crate::error::DseError;
use crate::store::{run_id, RunSpec};

/// Hard ceiling on the expanded point count of any one spec; a spec
/// whose grid multiplies out beyond this is rejected at parse time
/// rather than melting the machine.
pub const MAX_EXPANDED_POINTS: u64 = 1_000_000;

fn bad(message: impl Into<String>) -> DseError {
    DseError::Spec(message.into())
}

/// A rejected knob name or value is a spec error.
pub(crate) fn bad_knob(e: BindError) -> DseError {
    bad(e.to_string())
}

/// One axis of the exploration: a knob and the values to visit,
/// sorted ascending and deduplicated.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// The knob this axis rebinds.
    pub knob: Knob,
    /// The coordinates to visit (ascending, distinct, finite).
    pub values: Vec<f64>,
}

impl AxisSpec {
    /// Builds a validated axis: values are checked finite (and
    /// integral for integer knobs), sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for an empty or non-finite value
    /// list, or fractional values on an integer knob.
    pub fn new(knob: Knob, values: Vec<f64>) -> Result<Self, DseError> {
        if values.is_empty() {
            return Err(bad(format!("axis `{}` lists no values", knob.label())));
        }
        for &x in &values {
            // Validates finiteness and integrality via the same path
            // expansion uses, so parse-time acceptance is execution-
            // time acceptance.
            BoundConfig::default().with(knob, x).map_err(bad_knob)?;
        }
        let mut values = values;
        values.sort_by(f64::total_cmp);
        values.dedup();
        Ok(AxisSpec { knob, values })
    }
}

/// How a random sample spreads over the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleMode {
    /// Independent uniform draws per axis.
    #[default]
    Uniform,
    /// Latin-hypercube stratification: each axis is cut into `points`
    /// strata and a seeded permutation visits every stratum exactly
    /// once, so no axis region is over- or under-sampled.
    Lhs,
}

impl SampleMode {
    /// The mode's spec-file label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SampleMode::Uniform => "uniform",
            SampleMode::Lhs => "lhs",
        }
    }
}

/// How the point set is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// The full cartesian product of every axis' values.
    Grid,
    /// A seeded sample of distinct grid points.
    Random {
        /// How many distinct points to draw.
        points: u64,
        /// Deterministic sampling seed. `None` derives a default from
        /// the spec's own content hash
        /// ([`ExperimentSpec::sampling_seed`]), so two different
        /// specs never share the fixed-constant sample an omitted
        /// seed used to mean.
        seed: Option<u64>,
        /// Uniform draws or Latin-hypercube stratification.
        mode: SampleMode,
    },
    /// Grid, then repeated bisection of axis intervals across which
    /// the best normalized rank drops by more than `threshold`.
    Adaptive {
        /// Normalized-rank drop that marks a cliff (in `(0, 1]`).
        threshold: f64,
        /// Refinement rounds after the initial grid (at least 1).
        max_rounds: u64,
    },
}

impl Strategy {
    /// The strategy's report label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Grid => "grid",
            Strategy::Random { .. } => "random",
            Strategy::Adaptive { .. } => "adaptive",
        }
    }
}

/// A parsed, validated experiment spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Human-readable experiment name (reports, manifests).
    pub name: String,
    /// The configuration every point starts from.
    pub base: BoundConfig,
    /// The axes to explore (empty = solve the base point alone).
    pub axes: Vec<AxisSpec>,
    /// The search strategy.
    pub strategy: Strategy,
    /// Optional ceiling on the total expanded point count.
    pub max_points: Option<u64>,
    /// Scheduler worker threads.
    pub workers: u64,
}

impl ExperimentSpec {
    /// Parses a spec from text — JSON if it starts with `{`, the TOML
    /// subset otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] with a parse or validation message.
    pub fn parse_str(text: &str) -> Result<Self, DseError> {
        let doc = if text.trim_start().starts_with('{') {
            JsonValue::parse(text).map_err(|e| bad(format!("malformed JSON: {e}")))?
        } else {
            toml_subset::parse(text).map_err(bad)?
        };
        Self::from_json(&doc)
    }

    /// Parses a spec from a JSON document. Unknown fields are
    /// rejected at every level, mirroring the serve API's strictness.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for missing/mistyped/unknown fields
    /// or inconsistent budgets.
    pub fn from_json(doc: &JsonValue) -> Result<Self, DseError> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| bad("spec must be an object"))?;
        let mut name = None;
        let mut base = BoundConfig::default();
        let mut axes = Vec::new();
        let mut strategy = Strategy::Grid;
        let mut max_points = None;
        let mut workers = 4u64;
        for (key, value) in pairs {
            match key.as_str() {
                "name" => {
                    name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| bad("`name` must be a string"))?
                            .to_owned(),
                    );
                }
                "base" => base = config_from_json(value)?,
                "axes" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| bad("`axes` must be an array"))?;
                    for item in items {
                        axes.push(parse_axis(item)?);
                    }
                }
                "strategy" => strategy = parse_strategy(value)?,
                "max_points" => {
                    // `null` means "no cap" — the canonical rendering
                    // (and hence the manifest) writes it explicitly.
                    if matches!(value, JsonValue::Null) {
                        continue;
                    }
                    let n = value
                        .as_u64()
                        .ok_or_else(|| bad("`max_points` must be a non-negative integer"))?;
                    if n == 0 {
                        return Err(bad("`max_points` must be at least 1"));
                    }
                    max_points = Some(n);
                }
                "workers" => {
                    workers = value
                        .as_u64()
                        .ok_or_else(|| bad("`workers` must be a non-negative integer"))?;
                    if workers == 0 {
                        return Err(bad("`workers` must be at least 1"));
                    }
                }
                other => return Err(bad(format!("unknown field `{other}`"))),
            }
        }
        let spec = ExperimentSpec {
            name: name.ok_or_else(|| bad("missing required field `name`"))?,
            base,
            axes,
            strategy,
            max_points,
            workers,
        };
        let grid = spec.grid_size()?;
        if let Strategy::Random { points, .. } = spec.strategy {
            if points > grid {
                return Err(bad(format!(
                    "random strategy asks for {points} points but the grid only has {grid}"
                )));
            }
        }
        Ok(spec)
    }

    /// The full cartesian-product size of the axes.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] when the product overflows or
    /// exceeds [`MAX_EXPANDED_POINTS`].
    pub fn grid_size(&self) -> Result<u64, DseError> {
        let mut total = 1u64;
        for axis in &self.axes {
            let len = u64::try_from(axis.values.len()).map_err(|_| bad("axis too long"))?;
            total = total
                .checked_mul(len)
                .filter(|&t| t <= MAX_EXPANDED_POINTS)
                .ok_or_else(|| {
                    bad(format!(
                        "grid multiplies out beyond {MAX_EXPANDED_POINTS} points"
                    ))
                })?;
        }
        Ok(total)
    }

    /// Renders the spec in its canonical JSON form — fixed key order,
    /// canonical knob labels — the form that is hashed and stored in
    /// the run manifest.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let axes = self
            .axes
            .iter()
            .map(|axis| {
                JsonValue::Obj(vec![
                    (
                        "knob".to_owned(),
                        JsonValue::Str(axis.knob.label().to_owned()),
                    ),
                    (
                        "values".to_owned(),
                        JsonValue::Arr(axis.values.iter().map(|&v| JsonValue::Num(v)).collect()),
                    ),
                ])
            })
            .collect();
        let strategy = match &self.strategy {
            Strategy::Grid => JsonValue::Str("grid".to_owned()),
            Strategy::Random { points, seed, mode } => {
                // Canonical form: `mode` appears only when it departs
                // from the default, and an omitted seed renders as
                // `null` — which keeps the spec hash independent of
                // the seed that will be *derived from* that hash
                // (`sampling_seed`), breaking the circularity.
                let mut fields = Vec::new();
                if *mode == SampleMode::Lhs {
                    fields.push(("mode".to_owned(), JsonValue::Str(mode.label().to_owned())));
                }
                fields.push(("points".to_owned(), JsonValue::UInt(*points)));
                fields.push((
                    "seed".to_owned(),
                    seed.map_or(JsonValue::Null, JsonValue::UInt),
                ));
                JsonValue::Obj(vec![("random".to_owned(), JsonValue::Obj(fields))])
            }
            Strategy::Adaptive {
                threshold,
                max_rounds,
            } => JsonValue::Obj(vec![(
                "adaptive".to_owned(),
                JsonValue::Obj(vec![
                    ("max_rounds".to_owned(), JsonValue::UInt(*max_rounds)),
                    ("threshold".to_owned(), JsonValue::Num(*threshold)),
                ]),
            )]),
        };
        let max_points = self.max_points.map_or(JsonValue::Null, JsonValue::UInt);
        JsonValue::Obj(vec![
            ("axes".to_owned(), JsonValue::Arr(axes)),
            ("base".to_owned(), config_to_json(&self.base)),
            ("max_points".to_owned(), max_points),
            ("name".to_owned(), JsonValue::Str(self.name.clone())),
            ("strategy".to_owned(), strategy),
            ("workers".to_owned(), JsonValue::UInt(self.workers)),
        ])
    }

    /// The 128-bit content hash of the canonical spec rendering.
    #[must_use]
    pub fn spec_hash(&self) -> u128 {
        fnv1a_128(self.to_json().render().as_bytes())
    }

    /// The run id: the first 16 hex digits of [`Self::spec_hash`]
    /// (see [`run_id`]).
    #[must_use]
    pub fn run_id(&self) -> String {
        run_id(self.spec_hash())
    }

    /// The effective random-sampling seed: the spec's explicit seed,
    /// or a default folded from the spec's own content hash — stable
    /// across processes and runs, but distinct per spec, so an
    /// omitted seed no longer means one fixed constant shared by
    /// every experiment. Well-defined because the canonical rendering
    /// writes `"seed": null` when the seed is omitted: the hash never
    /// depends on the value derived from it.
    #[must_use]
    pub fn sampling_seed(&self) -> u64 {
        if let Strategy::Random {
            seed: Some(seed), ..
        } = self.strategy
        {
            return seed;
        }
        let hash = self.spec_hash();
        let lo = u64::try_from(hash & u128::from(u64::MAX)).unwrap_or(0);
        let hi = u64::try_from(hash >> 64).unwrap_or(0);
        lo ^ hi
    }
}

impl RunSpec for ExperimentSpec {
    fn name(&self) -> &str {
        &self.name
    }

    fn spec_hash(&self) -> u128 {
        ExperimentSpec::spec_hash(self)
    }

    fn to_json(&self) -> JsonValue {
        ExperimentSpec::to_json(self)
    }

    fn from_json(doc: &JsonValue) -> Result<Self, String> {
        ExperimentSpec::from_json(doc).map_err(|e| e.to_string())
    }
}

/// Renders a configuration in canonical JSON field order.
#[must_use]
pub fn config_to_json(config: &BoundConfig) -> JsonValue {
    let k = config.k.map_or(JsonValue::Null, JsonValue::Num);
    let mut fields = vec![
        ("bunch".to_owned(), JsonValue::UInt(config.bunch)),
        ("clock_mhz".to_owned(), JsonValue::Num(config.clock_mhz)),
        ("fraction".to_owned(), JsonValue::Num(config.fraction)),
        ("gates".to_owned(), JsonValue::UInt(config.gates)),
        ("global".to_owned(), JsonValue::UInt(config.global)),
        ("k".to_owned(), k),
        ("local".to_owned(), JsonValue::UInt(config.local)),
        ("miller".to_owned(), JsonValue::Num(config.miller)),
        ("node".to_owned(), JsonValue::Str(config.node.clone())),
        (
            "semi_global".to_owned(),
            JsonValue::UInt(config.semi_global),
        ),
    ];
    // Identity γ is elided so pre-corpus manifests, wire messages and
    // their hashes are byte-identical to what older binaries produced.
    if config.degrade != 1.0 {
        fields.insert(2, ("degrade".to_owned(), JsonValue::Num(config.degrade)));
    }
    JsonValue::Obj(fields)
}

/// Parses a spec's `base` table, or a configuration rendered by
/// [`config_to_json`] — the wire form the fleet coordinator dispatches
/// points in, so a remote worker rebuilds the exact `BoundConfig` (and
/// hence the exact content address) the coordinator holds the lease
/// under.
///
/// # Errors
///
/// Returns [`DseError::Spec`] for non-object documents or any field
/// that fails the strict `base` typing.
pub fn config_from_json(doc: &JsonValue) -> Result<BoundConfig, DseError> {
    let fields = doc
        .as_object()
        .ok_or_else(|| bad("`base` must be an object"))?;
    let mut config = BoundConfig::default();
    for (field, value) in fields {
        if !apply_config_field(&mut config, field, value).map_err(bad)? {
            return Err(bad(format!("unknown field `{field}` in `base`")));
        }
    }
    Ok(config)
}

/// Sets one [`BoundConfig`] field from its JSON value — the one field
/// table behind dse and corpus `base` tables, the fleet wire and every
/// `ia-serve` request body. Returns `Ok(false)` when `key` names no
/// configuration field, so each caller routes its own keys first and
/// words its own unknown-field error.
///
/// # Errors
///
/// Returns the message for a wrongly-typed value, such as
/// ``"`gates` must be a non-negative integer"``.
pub fn apply_config_field(
    config: &mut BoundConfig,
    key: &str,
    value: &JsonValue,
) -> Result<bool, String> {
    let count = || {
        value
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
    };
    let number = || {
        value
            .as_f64()
            .ok_or_else(|| format!("`{key}` must be a number"))
    };
    match key {
        "node" => {
            config.node = value.as_str().ok_or("`node` must be a string")?.to_owned();
        }
        "gates" => config.gates = count()?,
        "bunch" => config.bunch = count()?,
        "clock_mhz" => config.clock_mhz = number()?,
        "fraction" => config.fraction = number()?,
        "miller" => config.miller = number()?,
        "k" => {
            config.k = match value {
                JsonValue::Null => None,
                _ => Some(number()?),
            };
        }
        "global" => config.global = count()?,
        "semi_global" => config.semi_global = count()?,
        "local" => config.local = count()?,
        "degrade" => config.degrade = number()?,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_axis(doc: &JsonValue) -> Result<AxisSpec, DseError> {
    let pairs = doc
        .as_object()
        .ok_or_else(|| bad("each axis must be an object"))?;
    let mut knob = None;
    let mut values: Option<Vec<f64>> = None;
    let mut min = None;
    let mut max = None;
    let mut steps = None;
    for (key, value) in pairs {
        match key.as_str() {
            "knob" => {
                let text = value
                    .as_str()
                    .ok_or_else(|| bad("axis `knob` must be a string"))?;
                knob = Some(Knob::parse(text).map_err(bad_knob)?);
            }
            "values" => {
                let items = value
                    .as_array()
                    .ok_or_else(|| bad("axis `values` must be an array of numbers"))?;
                let parsed: Option<Vec<f64>> = items.iter().map(JsonValue::as_f64).collect();
                values = Some(parsed.ok_or_else(|| bad("axis `values` must be numbers"))?);
            }
            "min" => {
                min = Some(
                    value
                        .as_f64()
                        .ok_or_else(|| bad("axis `min` must be a number"))?,
                )
            }
            "max" => {
                max = Some(
                    value
                        .as_f64()
                        .ok_or_else(|| bad("axis `max` must be a number"))?,
                )
            }
            "steps" => {
                steps = Some(
                    value
                        .as_u64()
                        .ok_or_else(|| bad("axis `steps` must be a non-negative integer"))?,
                );
            }
            other => return Err(bad(format!("unknown field `{other}` in axis"))),
        }
    }
    let knob = knob.ok_or_else(|| bad("axis is missing required field `knob`"))?;
    let range = (min, max, steps);
    let values = match (values, range) {
        (Some(values), (None, None, None)) => values,
        (None, (Some(min), Some(max), Some(steps))) => linspace(knob, min, max, steps)?,
        (None, (None, None, None)) => knob.default_values().ok_or_else(|| {
            bad(format!(
                "axis `{}` has no published grid; list `values` or a `min`/`max`/`steps` range",
                knob.label()
            ))
        })?,
        _ => {
            return Err(bad(format!(
                "axis `{}` must give either `values` or all of `min`/`max`/`steps`",
                knob.label()
            )))
        }
    };
    AxisSpec::new(knob, values)
}

fn linspace(knob: Knob, min: f64, max: f64, steps: u64) -> Result<Vec<f64>, DseError> {
    if !(min.is_finite() && max.is_finite() && min < max) {
        return Err(bad(format!(
            "axis `{}` range needs finite `min` < `max`",
            knob.label()
        )));
    }
    if steps < 2 {
        return Err(bad(format!(
            "axis `{}` range needs `steps` >= 2",
            knob.label()
        )));
    }
    let last = (steps - 1) as f64;
    let mut values = Vec::new();
    for i in 0..steps {
        let x = min + (max - min) * (i as f64) / last;
        values.push(if knob.is_integer() { x.round() } else { x });
    }
    Ok(values)
}

fn parse_strategy(doc: &JsonValue) -> Result<Strategy, DseError> {
    if let Some(text) = doc.as_str() {
        return match text {
            "grid" => Ok(Strategy::Grid),
            other => Err(bad(format!(
                "unknown strategy `{other}` (expected grid, or a random/adaptive table)"
            ))),
        };
    }
    let pairs = doc
        .as_object()
        .ok_or_else(|| bad("`strategy` must be \"grid\" or an object"))?;
    if pairs.len() != 1 {
        return Err(bad("`strategy` object must have exactly one key"));
    }
    let (kind, body) = &pairs[0];
    let fields = body
        .as_object()
        .ok_or_else(|| bad(format!("`strategy.{kind}` must be an object")))?;
    match kind.as_str() {
        "random" => {
            let mut points = None;
            let mut seed = None;
            let mut mode = SampleMode::default();
            for (key, value) in fields {
                match key.as_str() {
                    "points" => {
                        points = Some(value.as_u64().ok_or_else(|| {
                            bad("`strategy.random.points` must be a non-negative integer")
                        })?);
                    }
                    "seed" => {
                        // `null` is the canonical spelling of an
                        // omitted seed (manifest round-trips).
                        if !matches!(value, JsonValue::Null) {
                            seed = Some(value.as_u64().ok_or_else(|| {
                                bad("`strategy.random.seed` must be a non-negative integer")
                            })?);
                        }
                    }
                    "mode" => {
                        mode = match value.as_str() {
                            Some("uniform") => SampleMode::Uniform,
                            Some("lhs") => SampleMode::Lhs,
                            _ => {
                                return Err(bad(
                                    "`strategy.random.mode` must be \"uniform\" or \"lhs\"",
                                ))
                            }
                        };
                    }
                    other => {
                        return Err(bad(format!("unknown field `{other}` in `strategy.random`")))
                    }
                }
            }
            let points = points.ok_or_else(|| bad("`strategy.random` needs a `points` count"))?;
            if points == 0 {
                return Err(bad("`strategy.random.points` must be at least 1"));
            }
            Ok(Strategy::Random { points, seed, mode })
        }
        "adaptive" => {
            let mut threshold = None;
            let mut max_rounds = 3u64;
            for (key, value) in fields {
                match key.as_str() {
                    "threshold" => {
                        threshold = Some(value.as_f64().ok_or_else(|| {
                            bad("`strategy.adaptive.threshold` must be a number")
                        })?);
                    }
                    "max_rounds" => {
                        max_rounds = value.as_u64().ok_or_else(|| {
                            bad("`strategy.adaptive.max_rounds` must be a non-negative integer")
                        })?;
                        if max_rounds == 0 {
                            return Err(bad("`strategy.adaptive.max_rounds` must be at least 1"));
                        }
                    }
                    other => {
                        return Err(bad(format!(
                            "unknown field `{other}` in `strategy.adaptive`"
                        )))
                    }
                }
            }
            let threshold =
                threshold.ok_or_else(|| bad("`strategy.adaptive` needs a `threshold`"))?;
            if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) {
                return Err(bad("`strategy.adaptive.threshold` must be in (0, 1]"));
            }
            Ok(Strategy::Adaptive {
                threshold,
                max_rounds,
            })
        }
        other => Err(bad(format!(
            "unknown strategy `{other}` (expected random or adaptive)"
        ))),
    }
}

/// A minimal TOML-subset parser producing a [`JsonValue`] tree, so
/// TOML and JSON specs share one validation path.
///
/// Supported: `key = value` pairs, `[table]` and `[[array-of-table]]`
/// headers with dotted paths, `#` comments, and as values: quoted
/// strings (`\\` and `\"` escapes), booleans, integers, floats, and
/// single-line arrays of scalars. That is the whole grammar an
/// experiment file needs; anything else is a parse error, never a
/// silent misread. Errors quote at most [`EXCERPT_CHARS`] characters
/// of the input, and nothing nests deeper than
/// [`ia_obs::json::MAX_DEPTH`], so no spec can exhaust the stack.
pub mod toml_subset {
    use ia_obs::json::{JsonValue, MAX_DEPTH};

    /// The most characters of the input an error message quotes.
    pub const EXCERPT_CHARS: usize = 40;

    /// `text` cut to [`EXCERPT_CHARS`] characters, ending in `…` when
    /// cut, so an error never echoes a whole oversized line.
    fn excerpt(text: &str) -> String {
        match text.char_indices().nth(EXCERPT_CHARS) {
            Some((cut, _)) => format!("{}…", &text[..cut]),
            None => text.to_owned(),
        }
    }

    /// Parses the TOML subset into a [`JsonValue`] tree.
    ///
    /// # Errors
    ///
    /// Returns a `TOML line N: …` message for anything outside the
    /// subset grammar.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut root = JsonValue::Obj(Vec::new());
        // The table the next `key = value` lines land in.
        let mut current: Vec<String> = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_owned();
            let context = |message: String| format!("TOML line {}: {message}", index + 1);
            if line.is_empty() {
                continue;
            }
            if let Some(path) = line
                .strip_prefix("[[")
                .and_then(|rest| rest.strip_suffix("]]"))
            {
                let path = split_path(path).map_err(&context)?;
                push_table_array(&mut root, &path).map_err(&context)?;
                current = path;
            } else if let Some(path) = line
                .strip_prefix('[')
                .and_then(|rest| rest.strip_suffix(']'))
            {
                let path = split_path(path).map_err(&context)?;
                navigate(&mut root, &path, true).map_err(&context)?;
                current = path;
            } else if let Some((key, value)) = line.split_once('=') {
                let key = key.trim();
                if !is_bare_key(key) {
                    return Err(context(format!("invalid key `{}`", excerpt(key))));
                }
                let value = parse_value(value.trim()).map_err(&context)?;
                let table = navigate(&mut root, &current, false).map_err(&context)?;
                insert(table, key, value).map_err(&context)?;
            } else {
                return Err(context(format!("cannot parse `{}`", excerpt(&line))));
            }
        }
        Ok(root)
    }

    fn strip_comment(line: &str) -> &str {
        // A `#` inside a quoted string would be misread, but the spec
        // grammar has no string values containing `#`; keep it simple
        // and split on the first `#` outside quotes.
        let mut in_string = false;
        for (i, c) in line.char_indices() {
            match c {
                '"' => in_string = !in_string,
                '#' if !in_string => return &line[..i],
                _ => {}
            }
        }
        line
    }

    fn is_bare_key(key: &str) -> bool {
        !key.is_empty()
            && key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    }

    fn split_path(path: &str) -> Result<Vec<String>, String> {
        let parts: Vec<String> = path
            .trim()
            .split('.')
            .map(|p| p.trim().to_owned())
            .collect();
        if parts.iter().any(|p| !is_bare_key(p)) {
            return Err(format!("invalid table path `{}`", excerpt(path)));
        }
        if parts.len() > MAX_DEPTH {
            return Err(format!(
                "table path `{}` is nested deeper than {MAX_DEPTH} levels",
                excerpt(path)
            ));
        }
        Ok(parts)
    }

    /// Walks (creating if asked) nested objects along `path`; a path
    /// segment landing on an array-of-tables descends into its last
    /// element.
    fn navigate<'a>(
        root: &'a mut JsonValue,
        path: &[String],
        create: bool,
    ) -> Result<&'a mut JsonValue, String> {
        let mut node = root;
        for seg in path {
            let JsonValue::Obj(pairs) = node else {
                return Err(format!("`{}` is not a table", excerpt(seg)));
            };
            if !pairs.iter().any(|(k, _)| k == seg) {
                if !create {
                    return Err(format!("unknown table `{}`", excerpt(seg)));
                }
                pairs.push((seg.clone(), JsonValue::Obj(Vec::new())));
            }
            let entry = pairs
                .iter_mut()
                .find(|(k, _)| k == seg)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("unknown table `{}`", excerpt(seg)))?;
            node = match entry {
                JsonValue::Arr(items) => items
                    .last_mut()
                    .ok_or_else(|| format!("empty table array `{}`", excerpt(seg)))?,
                other => other,
            };
        }
        Ok(node)
    }

    fn push_table_array(root: &mut JsonValue, path: &[String]) -> Result<(), String> {
        let Some((last, parents)) = path.split_last() else {
            return Err("empty table-array path".to_owned());
        };
        let parent = navigate(root, parents, true)?;
        let JsonValue::Obj(pairs) = parent else {
            return Err(format!("`{}` is not inside a table", excerpt(last)));
        };
        if !pairs.iter().any(|(k, _)| k == last) {
            pairs.push((last.clone(), JsonValue::Arr(Vec::new())));
        }
        let entry = pairs
            .iter_mut()
            .find(|(k, _)| k == last)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("unknown table `{}`", excerpt(last)))?;
        let JsonValue::Arr(items) = entry else {
            return Err(format!("`{}` is already a non-array value", excerpt(last)));
        };
        items.push(JsonValue::Obj(Vec::new()));
        Ok(())
    }

    fn insert(table: &mut JsonValue, key: &str, value: JsonValue) -> Result<(), String> {
        let JsonValue::Obj(pairs) = table else {
            return Err(format!("cannot set `{}` on a non-table", excerpt(key)));
        };
        if pairs.iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key `{}`", excerpt(key)));
        }
        pairs.push((key.to_owned(), value));
        Ok(())
    }

    fn parse_value(text: &str) -> Result<JsonValue, String> {
        if text.starts_with('"') {
            return parse_string(text).map(JsonValue::Str);
        }
        if let Some(body) = text.strip_prefix('[') {
            let body = body
                .strip_suffix(']')
                .ok_or_else(|| format!("unterminated array `{}`", excerpt(text)))?
                .trim();
            let mut items = Vec::new();
            if !body.is_empty() {
                for part in body.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        return Err(format!("empty array element in `{}`", excerpt(text)));
                    }
                    // Arrays hold scalars only; rejecting here also
                    // keeps this parser from recursing.
                    if part.starts_with('[') {
                        return Err(format!("nested array in `{}`", excerpt(text)));
                    }
                    items.push(parse_value(part)?);
                }
            }
            return Ok(JsonValue::Arr(items));
        }
        match text {
            "true" => return Ok(JsonValue::Bool(true)),
            "false" => return Ok(JsonValue::Bool(false)),
            _ => {}
        }
        let plain = text.replace('_', "");
        if plain.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = plain.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        match plain.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::Num(x)),
            _ => Err(format!("cannot parse value `{}`", excerpt(text))),
        }
    }

    fn parse_string(text: &str) -> Result<String, String> {
        let mut out = String::new();
        let mut chars = text.chars();
        if chars.next() != Some('"') {
            return Err(format!("expected a quoted string, got `{}`", excerpt(text)));
        }
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => return Err(format!("unsupported escape `\\{other:?}`")),
                },
                other => out.push(other),
            }
        }
        if !closed || chars.next().is_some() {
            return Err(format!("malformed string `{}`", excerpt(text)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML_SPEC: &str = r#"
# A two-axis grid over permittivity and Miller factor.
name = "tiny"
strategy = "grid"
workers = 2

[base]
gates = 30_000
bunch = 3000
node = "130"

[[axes]]
knob = "k"
values = [2.7, 3.9, 7.0]

[[axes]]
knob = "m"
min = 1.0
max = 3.0
steps = 3
"#;

    #[test]
    fn toml_and_json_specs_parse_identically() {
        let toml = ExperimentSpec::parse_str(TOML_SPEC).unwrap();
        let json = ExperimentSpec::parse_str(
            r#"{
                "name": "tiny", "strategy": "grid", "workers": 2,
                "base": {"gates": 30000, "bunch": 3000, "node": "130"},
                "axes": [
                    {"knob": "k", "values": [2.7, 3.9, 7.0]},
                    {"knob": "m", "min": 1.0, "max": 3.0, "steps": 3}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(toml, json);
        assert_eq!(toml.run_id(), json.run_id());
        assert_eq!(toml.grid_size().unwrap(), 9);
        assert_eq!(toml.axes[1].values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn run_id_is_content_addressed() {
        let a = ExperimentSpec::parse_str(TOML_SPEC).unwrap();
        let mut b = a.clone();
        assert_eq!(a.run_id(), b.run_id());
        b.base.gates = 31_000;
        assert_ne!(a.run_id(), b.run_id());
        assert_eq!(a.run_id().len(), 16);
    }

    #[test]
    fn axis_defaults_follow_the_paper_grids() {
        let spec =
            ExperimentSpec::parse_str(r#"{"name": "defaults", "axes": [{"knob": "c"}]}"#).unwrap();
        assert_eq!(spec.axes[0].values.len(), 13);
        // Published in hertz, spec'd in MHz.
        assert!(spec.axes[0].values.iter().all(|&mhz| mhz < 100_000.0));
        let err =
            ExperimentSpec::parse_str(r#"{"name": "x", "axes": [{"knob": "gates"}]}"#).unwrap_err();
        assert!(err.to_string().contains("no published grid"));
    }

    #[test]
    fn unknown_fields_and_knobs_are_rejected() {
        for bad_spec in [
            r#"{"name": "x", "axs": []}"#,
            r#"{"name": "x", "axes": [{"knob": "q"}]}"#,
            r#"{"name": "x", "base": {"gaets": 1}}"#,
            r#"{"name": "x", "strategy": "genetic"}"#,
            r#"{"axes": []}"#,
        ] {
            assert!(ExperimentSpec::parse_str(bad_spec).is_err(), "{bad_spec}");
        }
    }

    #[test]
    fn integer_knobs_reject_fractional_values() {
        let err = ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [{"knob": "gates", "values": [100.5]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a non-negative integer"));
    }

    #[test]
    fn strategies_parse_and_validate() {
        let random = ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [{"knob": "r", "values": [0.1, 0.4]}],
                "strategy": {"random": {"points": 2, "seed": 7}}}"#,
        )
        .unwrap();
        assert_eq!(
            random.strategy,
            Strategy::Random {
                points: 2,
                seed: Some(7),
                mode: SampleMode::Uniform
            }
        );
        let lhs = ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [{"knob": "r", "values": [0.1, 0.4]}],
                "strategy": {"random": {"points": 2, "mode": "lhs"}}}"#,
        )
        .unwrap();
        assert_eq!(
            lhs.strategy,
            Strategy::Random {
                points: 2,
                seed: None,
                mode: SampleMode::Lhs
            }
        );
        // `"seed": null` round-trips as an omitted seed, and the
        // canonical rendering re-parses to the same spec (manifests).
        let round_trip = ExperimentSpec::from_json(&lhs.to_json()).unwrap();
        assert_eq!(round_trip, lhs);
        assert!(
            ExperimentSpec::parse_str(
                r#"{"name": "x", "axes": [{"knob": "r", "values": [0.1]}],
                    "strategy": {"random": {"points": 1, "mode": "sobol"}}}"#,
            )
            .is_err(),
            "unknown modes are rejected"
        );
        let adaptive = ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [{"knob": "k", "values": [2.0, 4.0]}],
                "strategy": {"adaptive": {"threshold": 0.1}}}"#,
        )
        .unwrap();
        assert_eq!(
            adaptive.strategy,
            Strategy::Adaptive {
                threshold: 0.1,
                max_rounds: 3
            }
        );
        // More random points than grid points cannot be satisfied.
        assert!(ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [{"knob": "r", "values": [0.1]}],
                "strategy": {"random": {"points": 5}}}"#,
        )
        .is_err());
    }

    #[test]
    fn corpus_knob_sweeps_the_degrade_axis() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "stress", "axes": [{"knob": "corpus", "values": [1.0, 1.5, 2.0]}]}"#,
        )
        .unwrap();
        assert_eq!(spec.axes[0].knob, Knob::Corpus);
        assert!(!Knob::Corpus.is_integer());
        let config = BoundConfig::default().with(Knob::Corpus, 1.5).unwrap();
        assert!((config.degrade - 1.5).abs() < f64::EPSILON);
        // γ < 1 would *improve* the placement; the axis refuses it.
        assert!(config.clone().with(Knob::Corpus, 0.9).is_err());
        // The wire form round-trips the degraded configuration exactly
        // and elides the identity factor.
        let wire = config_to_json(&config);
        assert_eq!(config_from_json(&wire).unwrap(), config);
        assert!(wire.render().contains("\"degrade\""));
        let pristine = config_to_json(&BoundConfig::default());
        assert!(!pristine.render().contains("\"degrade\""));
    }

    #[test]
    fn grid_cap_rejects_explosions() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [
                {"knob": "gates", "min": 1000.0, "max": 1000000.0, "steps": 1001},
                {"knob": "bunch", "min": 100.0, "max": 10000.0, "steps": 1001},
                {"knob": "global", "min": 1.0, "max": 3.0, "steps": 3}
            ]}"#,
        );
        assert!(spec.is_err());
    }

    #[test]
    fn toml_rejects_what_it_does_not_support() {
        for bad_toml in [
            "name = \"x\"\nname = \"y\"", // duplicate key
            "key",                        // no assignment
            "a = [1, ",                   // unterminated array
            "s = \"unterminated",         // unterminated string
        ] {
            assert!(ExperimentSpec::parse_str(bad_toml).is_err(), "{bad_toml}");
        }
        // A huge value is quoted as a short excerpt, never whole.
        let huge = format!("name = \"x\"\nworkers = {}", "z".repeat(1_000_000));
        let err = ExperimentSpec::parse_str(&huge).unwrap_err().to_string();
        let excerpt = "z".repeat(toml_subset::EXCERPT_CHARS);
        assert!(err.contains(&format!("`{excerpt}…`")), "{err}");
        assert!(err.len() < 200, "{} bytes", err.len());
    }

    #[test]
    fn toml_rejects_nesting_without_recursing() {
        // Nested arrays: no spec field takes one, and the old
        // recursive element parse overflowed the stack on deep input.
        for depth in [2, 30_000, 200_000] {
            let text = format!(
                "name = \"x\"\nfoo = {}{}",
                "[".repeat(depth),
                "]".repeat(depth)
            );
            let err = toml_subset::parse(&text).unwrap_err();
            assert!(err.contains("line 2: nested array"), "{err}");
        }
        assert!(toml_subset::parse("a = [1, [2, 3]]").is_err());
        assert!(toml_subset::parse("a = [[1], [2]]").is_err());
        // Dotted table paths nest one table per segment.
        let path = |segments: usize| vec!["a"; segments].join(".");
        let max = ia_obs::json::MAX_DEPTH;
        toml_subset::parse(&format!("[{}]\nx = 1", path(max))).unwrap();
        for segments in [max + 1, 200_000] {
            let err = toml_subset::parse(&format!("[{}]", path(segments))).unwrap_err();
            assert!(err.contains("nested deeper than"), "{err}");
        }
    }
}
