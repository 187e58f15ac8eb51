//! Request/response types for the HTTP endpoints, their JSON
//! (de)serialization, and the table renderers shared with `ia-report`.
//!
//! The workspace's vendored `serde` shim is marker-only, so the wire
//! format is implemented over [`ia_obs::json::JsonValue`] — the same
//! exact-u64 JSON tree the observability artifacts use. Parsing is
//! *strict*: unknown fields are rejected (mirroring the CLI's
//! `reject_unknown`), which also keeps the canonical cache key honest —
//! a typoed knob cannot silently alias a differently-bound request.

use ia_dse::scheduler::{ExecNames, ExecOutcome};
use ia_dse::spec::apply_config_field;
use ia_obs::json::JsonValue;
use ia_rank::canon::BoundConfig;
use ia_rank::sensitivity::{Elasticity, KnobSensitivity};
use ia_rank::sweep::{Axis, CachedSolve, SweepPoint};
use ia_report::Table;

/// A malformed request body: carries the message returned to the
/// client with status 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ApiError {}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError(msg.into())
}

/// A request body's fields, or 400 for a non-object body.
fn fields(doc: &JsonValue) -> Result<&[(String, JsonValue)], ApiError> {
    doc.as_object()
        .ok_or_else(|| bad("request body must be a JSON object"))
}

/// Sets one configuration field through `ia-dse`'s field table, the
/// one the dse and corpus specs use too.
fn base_field(config: &mut BoundConfig, key: &str, value: &JsonValue) -> Result<(), ApiError> {
    if apply_config_field(config, key, value).map_err(ApiError)? {
        Ok(())
    } else {
        Err(bad(format!("unknown field `{key}`")))
    }
}

fn number(key: &str, value: &JsonValue) -> Result<f64, ApiError> {
    value
        .as_f64()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))
}

/// `POST /solve`'s body: one fully-bound configuration. Every field
/// has the CLI's default, so `{}` is a valid body.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest(pub BoundConfig);

impl SolveRequest {
    /// Parses a `POST /solve` body. Field order is free; unknown
    /// fields are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] for non-object bodies, wrongly-typed
    /// fields, or unknown fields.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ApiError> {
        let mut config = BoundConfig::default();
        for (key, value) in fields(doc)? {
            base_field(&mut config, key, value)?;
        }
        Ok(SolveRequest(config))
    }

    /// The request's configuration, the unit of content addressing.
    #[must_use]
    pub fn to_config(&self) -> BoundConfig {
        self.0.clone()
    }
}

/// `POST /sweep`'s body: a base configuration plus the axis to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The base configuration every point starts from.
    pub base: BoundConfig,
    /// Which knob to sweep.
    pub axis: Axis,
    /// Swept values (`None` = the paper's Table 4 grid for the axis;
    /// axis `c` values are in hertz).
    pub values: Option<Vec<f64>>,
    /// Whether to solve up to the server's worker count of points at
    /// once instead of one at a time.
    pub parallel: bool,
}

impl SweepRequest {
    /// Parses a `POST /sweep` body: `axis`, optional `values` and
    /// `parallel`, and any configuration fields, all flat in one
    /// object.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] for malformed fields or a missing `axis`.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ApiError> {
        let mut base = BoundConfig::default();
        let mut axis = None;
        let mut values = None;
        let mut parallel = false;
        for (key, value) in fields(doc)? {
            match key.as_str() {
                "axis" => {
                    let text = value
                        .as_str()
                        .ok_or_else(|| bad("`axis` must be a string"))?;
                    axis = Some(Axis::parse(text).map_err(|e| bad(e.to_string()))?);
                }
                "values" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| bad("`values` must be an array of numbers"))?;
                    let parsed = items.iter().map(|v| number("values", v));
                    values = Some(parsed.collect::<Result<_, _>>()?);
                }
                "parallel" => {
                    parallel = match value {
                        JsonValue::Bool(b) => *b,
                        _ => return Err(bad("`parallel` must be a boolean")),
                    };
                }
                other => base_field(&mut base, other, value)?,
            }
        }
        let axis = axis.ok_or_else(|| bad("missing required field `axis`"))?;
        Ok(SweepRequest {
            base,
            axis,
            values,
            parallel,
        })
    }
}

/// `POST /sensitivity`'s body: a base configuration plus the relative
/// finite-difference step.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRequest {
    /// The operating-point configuration.
    pub base: BoundConfig,
    /// Relative step of the symmetric finite difference (0.1 = ±10 %).
    pub step: f64,
}

impl SensitivityRequest {
    /// Parses a `POST /sensitivity` body: an optional `step` plus any
    /// configuration fields, flat in one object.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] for malformed fields or a non-positive
    /// step.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ApiError> {
        let mut base = BoundConfig::default();
        let mut step = 0.1;
        for (key, value) in fields(doc)? {
            match key.as_str() {
                "step" => step = number("step", value)?,
                other => base_field(&mut base, other, value)?,
            }
        }
        if !(step > 0.0 && step < 1.0) {
            return Err(bad("`step` must be in (0, 1)"));
        }
        Ok(SensitivityRequest { base, step })
    }
}

/// Renders a solved configuration as the `/solve` response body.
/// `cache` reports how the cache answered: `hit`, `miss` or `shared`
/// (deduplicated against a concurrent identical request).
#[must_use]
pub fn solve_response(solve: &CachedSolve, cache: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("rank".to_owned(), JsonValue::UInt(solve.rank)),
        ("normalized".to_owned(), JsonValue::Num(solve.normalized)),
        ("total_wires".to_owned(), JsonValue::UInt(solve.total_wires)),
        (
            "fully_assignable".to_owned(),
            JsonValue::Bool(solve.fully_assignable),
        ),
        (
            "repeater_count".to_owned(),
            JsonValue::UInt(solve.repeater_count),
        ),
        (
            "repeater_area_m2".to_owned(),
            JsonValue::Num(solve.repeater_area_m2),
        ),
        ("die_area_m2".to_owned(), JsonValue::Num(solve.die_area_m2)),
        ("cache".to_owned(), JsonValue::Str(cache.to_owned())),
    ])
}

/// The executor telemetry of a sweep, shared by `POST /sweep` and
/// `iarank sweep`. `solved` and `cached` keep the `sweep.cache.*`
/// names `/metrics` and its derived `sweep.cache.hit_rate` report.
pub const SWEEP_EXEC: ExecNames = ExecNames {
    solved: "sweep.cache.misses",
    cached: "sweep.cache.hits",
    skipped: "sweep.points.skipped",
    point: "sweep.point",
    worker_prefix: "sweep.worker.",
};

/// The points of a sweep batch run on the executor: each swept value
/// with its solve, in input order (points the round skipped are left
/// out).
#[must_use]
pub fn sweep_points(values: &[f64], outcome: &ExecOutcome) -> Vec<SweepPoint> {
    values
        .iter()
        .zip(&outcome.results)
        .filter_map(|(&x, solve)| solve.map(|solve| solve.point(x)))
        .collect()
}

/// Renders the `/sweep` response body.
#[must_use]
pub fn sweep_response(axis: Axis, points: &[SweepPoint], hits: u64, misses: u64) -> JsonValue {
    let rendered = points
        .iter()
        .map(|p| {
            JsonValue::Obj(vec![
                ("x".to_owned(), JsonValue::Num(p.x)),
                ("rank".to_owned(), JsonValue::UInt(p.rank)),
                ("normalized".to_owned(), JsonValue::Num(p.normalized)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("axis".to_owned(), JsonValue::Str(axis.label().to_owned())),
        ("points".to_owned(), JsonValue::Arr(rendered)),
        ("cache_hits".to_owned(), JsonValue::UInt(hits)),
        ("cache_misses".to_owned(), JsonValue::UInt(misses)),
    ])
}

/// Renders the `/sensitivity` response body.
#[must_use]
pub fn sensitivity_response(report: &[KnobSensitivity]) -> JsonValue {
    let rendered = report
        .iter()
        .map(|s| {
            let elasticity = match s.elasticity {
                Elasticity::Finite(v) => JsonValue::Num(v),
                Elasticity::Undefined => JsonValue::Null,
            };
            JsonValue::Obj(vec![
                (
                    "knob".to_owned(),
                    JsonValue::Str(s.knob.symbol().to_owned()),
                ),
                ("at".to_owned(), JsonValue::Num(s.at)),
                (
                    "baseline_normalized".to_owned(),
                    JsonValue::Num(s.baseline_normalized),
                ),
                ("elasticity".to_owned(), elasticity),
            ])
        })
        .collect();
    JsonValue::Obj(vec![("sensitivities".to_owned(), JsonValue::Arr(rendered))])
}

/// Renders sweep points as an aligned text table — what the CLI's
/// `sweep` subcommand prints. The `C` column is headed with its hertz
/// unit.
#[must_use]
pub fn sweep_table(axis: Axis, points: &[SweepPoint]) -> String {
    let heading = if axis == Axis::C {
        "C (Hz)"
    } else {
        axis.symbol()
    };
    let mut table = Table::new([heading, "rank", "normalized"]);
    for p in points {
        table.row([
            format!("{:.4e}", p.x),
            p.rank.to_string(),
            format!("{:.6}", p.normalized),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_request_parses_with_defaults_and_overrides() {
        let doc = JsonValue::parse(r#"{"gates":30000,"bunch":3000,"k":2.7}"#).unwrap();
        let SolveRequest(config) = SolveRequest::from_json(&doc).unwrap();
        assert_eq!(config.gates, 30_000);
        assert_eq!(config.bunch, 3_000);
        assert_eq!(config.k, Some(2.7));
        assert_eq!(config.node, "130");
        assert_eq!(
            SolveRequest::from_json(&JsonValue::Obj(vec![])).unwrap(),
            SolveRequest(BoundConfig::default())
        );
    }

    #[test]
    fn solve_request_rejects_unknown_and_mistyped_fields() {
        let doc = JsonValue::parse(r#"{"gaets":30000}"#).unwrap();
        assert!(SolveRequest::from_json(&doc)
            .unwrap_err()
            .0
            .contains("gaets"));
        let doc = JsonValue::parse(r#"{"gates":"many"}"#).unwrap();
        assert_eq!(
            SolveRequest::from_json(&doc).unwrap_err().0,
            "`gates` must be a non-negative integer"
        );
        let doc = JsonValue::parse("[1,2]").unwrap();
        assert!(SolveRequest::from_json(&doc).is_err());
    }

    #[test]
    fn sweep_request_separates_axis_fields_from_base() {
        let doc =
            JsonValue::parse(r#"{"axis":"r","values":[0.1,0.2],"parallel":true,"gates":30000}"#)
                .unwrap();
        let req = SweepRequest::from_json(&doc).unwrap();
        assert_eq!(req.axis, Axis::R);
        assert_eq!(req.values, Some(vec![0.1, 0.2]));
        assert!(req.parallel);
        assert_eq!(req.base.gates, 30_000);
        let missing = JsonValue::parse(r#"{"gates":30000}"#).unwrap();
        assert!(SweepRequest::from_json(&missing)
            .unwrap_err()
            .0
            .contains("axis"));
    }

    #[test]
    fn sensitivity_request_validates_step() {
        let doc = JsonValue::parse(r#"{"step":0.2,"gates":30000}"#).unwrap();
        let req = SensitivityRequest::from_json(&doc).unwrap();
        assert!((req.step - 0.2).abs() < 1e-12);
        let doc = JsonValue::parse(r#"{"step":0}"#).unwrap();
        assert!(SensitivityRequest::from_json(&doc).is_err());
    }

    #[test]
    fn sweep_table_renders_rows() {
        let points = [SweepPoint {
            x: 3.9,
            rank: 10,
            normalized: 0.5,
        }];
        let text = sweep_table(Axis::K, &points);
        assert!(text.contains("normalized"));
        assert!(text.contains("3.9000e0"));
    }
}
