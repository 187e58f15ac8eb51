//! Request/response types for the HTTP endpoints, their JSON
//! (de)serialization, and the table renderers shared with `ia-report`.
//!
//! The workspace's vendored `serde` shim is marker-only, so the wire
//! format is implemented over [`ia_obs::json::JsonValue`] — the same
//! exact-u64 JSON tree the observability artifacts use. Parsing is
//! *strict*: unknown fields are rejected (mirroring the CLI's
//! `reject_unknown`), which also keeps the canonical cache key honest —
//! a typoed knob cannot silently alias a differently-bound request.

use ia_obs::json::JsonValue;
use ia_rank::canon::BoundConfig;
use ia_rank::sensitivity::{Elasticity, KnobSensitivity};
use ia_rank::sweep::{Axis, CachedSolve, SweepPoint};
use ia_report::Table;
use serde::{Deserialize, Serialize};

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

/// The fully-bound inputs of one rank computation — `POST /solve`'s
/// body, and the base configuration of `/sweep` and `/sensitivity`.
/// Every field has the CLI's default, so `{}` is a valid body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
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
    /// ILD permittivity `K` override (`null`/absent = node default).
    pub k: Option<f64>,
    /// Global layer-pair count.
    pub global: u64,
    /// Semi-global layer-pair count.
    pub semi_global: u64,
    /// Local layer-pair count.
    pub local: u64,
    /// Placement-suboptimality factor `γ ≥ 1` (`1.0` = pristine WLD).
    pub degrade: f64,
}

impl Default for SolveRequest {
    fn default() -> Self {
        SolveRequest {
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

fn field_u64(key: &str, value: &JsonValue) -> Result<u64, ApiError> {
    value
        .as_u64()
        .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer")))
}

fn field_f64(key: &str, value: &JsonValue) -> Result<f64, ApiError> {
    value
        .as_f64()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))
}

impl SolveRequest {
    /// Parses a `POST /solve` body. Field order is free; unknown
    /// fields are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] for non-object bodies, wrongly-typed
    /// fields, or unknown fields.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ApiError> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| bad("request body must be a JSON object"))?;
        let mut request = SolveRequest::default();
        for (key, value) in pairs {
            request.apply_field(key, value)?;
        }
        Ok(request)
    }

    /// Applies one body field, so `/sweep` and `/sensitivity` can
    /// route their non-base fields first and delegate the rest here.
    pub(crate) fn apply_field(&mut self, key: &str, value: &JsonValue) -> Result<(), ApiError> {
        match key {
            "node" => {
                self.node = value
                    .as_str()
                    .ok_or_else(|| bad("`node` must be a string"))?
                    .to_owned();
            }
            "gates" => self.gates = field_u64(key, value)?,
            "bunch" => self.bunch = field_u64(key, value)?,
            "clock_mhz" => self.clock_mhz = field_f64(key, value)?,
            "fraction" => self.fraction = field_f64(key, value)?,
            "miller" => self.miller = field_f64(key, value)?,
            "k" => {
                self.k = match value {
                    JsonValue::Null => None,
                    other => Some(field_f64(key, other)?),
                };
            }
            "global" => self.global = field_u64(key, value)?,
            "semi_global" => self.semi_global = field_u64(key, value)?,
            "local" => self.local = field_u64(key, value)?,
            "degrade" => self.degrade = field_f64(key, value)?,
            other => return Err(bad(format!("unknown field `{other}`"))),
        }
        Ok(())
    }

    /// Lowers the request to the shared canonical configuration —
    /// the single bridge between the HTTP surface and the content
    /// addressing / binding layer in `ia_rank::canon`.
    #[must_use]
    pub fn to_config(&self) -> BoundConfig {
        BoundConfig {
            node: self.node.clone(),
            gates: self.gates,
            bunch: self.bunch,
            clock_mhz: self.clock_mhz,
            fraction: self.fraction,
            miller: self.miller,
            k: self.k,
            global: self.global,
            semi_global: self.semi_global,
            local: self.local,
            degrade: self.degrade,
        }
    }
}

/// `POST /sweep`'s body: a base configuration plus the axis to sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRequest {
    /// The base configuration every point starts from.
    pub base: SolveRequest,
    /// Which knob to sweep.
    pub axis: Axis,
    /// Swept values (`None` = the paper's Table 4 grid for the axis;
    /// axis `c` values are in hertz).
    pub values: Option<Vec<f64>>,
    /// Whether to run one worker thread per value.
    pub parallel: bool,
}

impl SweepRequest {
    /// Parses a `POST /sweep` body: `axis`, optional `values` and
    /// `parallel`, and any [`SolveRequest`] base fields, all flat in
    /// one object.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] for malformed fields or a missing `axis`.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ApiError> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| bad("request body must be a JSON object"))?;
        let mut base = SolveRequest::default();
        let mut axis = None;
        let mut values = None;
        let mut parallel = false;
        for (key, value) in pairs {
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
                    let parsed: Result<Vec<f64>, ApiError> =
                        items.iter().map(|v| field_f64("values", v)).collect();
                    values = Some(parsed?);
                }
                "parallel" => {
                    parallel = match value {
                        JsonValue::Bool(b) => *b,
                        _ => return Err(bad("`parallel` must be a boolean")),
                    };
                }
                other => base.apply_field(other, value)?,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRequest {
    /// The operating-point configuration.
    pub base: SolveRequest,
    /// Relative step of the symmetric finite difference (0.1 = ±10 %).
    pub step: f64,
}

impl SensitivityRequest {
    /// Parses a `POST /sensitivity` body: an optional `step` plus any
    /// [`SolveRequest`] base fields, flat in one object.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] for malformed fields or a non-positive
    /// step.
    pub fn from_json(doc: &JsonValue) -> Result<Self, ApiError> {
        let pairs = doc
            .as_object()
            .ok_or_else(|| bad("request body must be a JSON object"))?;
        let mut base = SolveRequest::default();
        let mut step = 0.1;
        for (key, value) in pairs {
            match key.as_str() {
                "step" => step = field_f64("step", value)?,
                other => base.apply_field(other, value)?,
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
        let req = SolveRequest::from_json(&doc).unwrap();
        assert_eq!(req.gates, 30_000);
        assert_eq!(req.bunch, 3_000);
        assert_eq!(req.k, Some(2.7));
        assert_eq!(req.node, "130");
        assert_eq!(
            SolveRequest::from_json(&JsonValue::Obj(vec![])).unwrap(),
            SolveRequest::default()
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
        assert!(SolveRequest::from_json(&doc).is_err());
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
