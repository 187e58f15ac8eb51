//! Spec expansion into a deduplicated, content-addressed point set.
//!
//! A [`Point`] is one fully-bound configuration plus the axis
//! coordinates that produced it. Expansion deduplicates by the
//! canonical cache key (`ia_rank::canon`): two coordinate tuples that
//! bind the same configuration (e.g. an axis value equal to the base
//! value) collapse into one point, so the scheduler never solves the
//! same content address twice within a run — and anything solved by a
//! previous run or the serve cache is a hit across runs too.

use ia_rank::canon::BoundConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::DseError;
use crate::spec::{bad_knob, ExperimentSpec, SampleMode, Strategy};

/// One expanded exploration point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The fully-bound configuration to solve.
    pub config: BoundConfig,
    /// The axis coordinates (one per spec axis, in spec order).
    pub coords: Vec<f64>,
}

impl Point {
    /// The point's canonical content address.
    #[must_use]
    pub fn key(&self) -> u128 {
        self.config.cache_key()
    }
}

/// Binds one coordinate tuple against the spec's base configuration.
pub(crate) fn bind_coords(spec: &ExperimentSpec, coords: &[f64]) -> Result<Point, DseError> {
    let config = spec
        .axes
        .iter()
        .zip(coords)
        .try_fold(spec.base.clone(), |config, (axis, &x)| {
            config.with(axis.knob, x)
        })
        .map_err(bad_knob)?;
    Ok(Point {
        config,
        coords: coords.to_vec(),
    })
}

/// Expands the spec's initial point set for its strategy: the full
/// cartesian grid for `grid` and `adaptive`, a seeded distinct sample
/// for `random`. Points are deduplicated by content address and
/// returned in deterministic order.
///
/// # Errors
///
/// Returns [`DseError::Spec`] when a coordinate fails to bind.
pub fn expand(spec: &ExperimentSpec) -> Result<Vec<Point>, DseError> {
    match spec.strategy {
        Strategy::Grid | Strategy::Adaptive { .. } => {
            let values: Vec<&[f64]> = spec.axes.iter().map(|a| a.values.as_slice()).collect();
            expand_product(spec, &values)
        }
        Strategy::Random { points, mode, .. } => {
            let seed = spec.sampling_seed();
            match mode {
                SampleMode::Uniform => sample_random(spec, points, seed),
                SampleMode::Lhs => sample_lhs(spec, points, seed),
            }
        }
    }
}

/// Expands the cartesian product of the given per-axis value lists
/// (which may be refined supersets of the spec's own), deduplicated
/// by content address in odometer order.
pub(crate) fn expand_product(
    spec: &ExperimentSpec,
    values: &[&[f64]],
) -> Result<Vec<Point>, DseError> {
    let mut points = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    if values.iter().any(|v| v.is_empty()) {
        return Ok(points);
    }
    let mut odometer = vec![0usize; values.len()];
    loop {
        let coords: Vec<f64> = odometer
            .iter()
            .zip(values)
            .map(|(&i, axis)| axis.get(i).copied().unwrap_or_default())
            .collect();
        let point = bind_coords(spec, &coords)?;
        if seen.insert(point.key()) {
            points.push(point);
        }
        // Advance the odometer, least-significant axis last.
        let mut pos = values.len();
        loop {
            if pos == 0 {
                return Ok(points);
            }
            pos -= 1;
            odometer[pos] += 1;
            if odometer[pos] < values[pos].len() {
                break;
            }
            odometer[pos] = 0;
        }
    }
}

/// Draws up to `count` distinct grid points with a seeded generator.
/// Sampling is with replacement over coordinates but deduplicated by
/// content address, with a bounded number of draws so a small grid
/// cannot loop forever.
fn sample_random(spec: &ExperimentSpec, count: u64, seed: u64) -> Result<Vec<Point>, DseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let budget = count.saturating_mul(64).max(1024);
    let target = usize::try_from(count).unwrap_or(usize::MAX);
    for _ in 0..budget {
        if points.len() >= target {
            break;
        }
        let coords: Vec<f64> = spec
            .axes
            .iter()
            .map(|axis| {
                let i = rng.gen_range(0..axis.values.len());
                axis.values.get(i).copied().unwrap_or_default()
            })
            .collect();
        let point = bind_coords(spec, &coords)?;
        if seen.insert(point.key()) {
            points.push(point);
        }
    }
    Ok(points)
}

/// Draws `count` Latin-hypercube-stratified grid points: each axis is
/// cut into `count` strata visited exactly once through a seeded
/// permutation, and each stratum maps onto the axis' (sorted) value
/// list proportionally. Stratified tuples that alias to an
/// already-seen content address are topped up with uniform draws from
/// the same generator, so the sample stays deterministic and as close
/// to `count` distinct points as the grid allows.
fn sample_lhs(spec: &ExperimentSpec, count: u64, seed: u64) -> Result<Vec<Point>, DseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = usize::try_from(count).unwrap_or(usize::MAX);
    let perms: Vec<Vec<usize>> = spec
        .axes
        .iter()
        .map(|_| {
            let mut perm: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            perm
        })
        .collect();
    let mut points = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for sample in 0..n {
        let coords: Vec<f64> = spec
            .axes
            .iter()
            .zip(&perms)
            .map(|(axis, perm)| {
                let len = axis.values.len();
                let stratum = perm.get(sample).copied().unwrap_or(0);
                let index = (stratum * len / n.max(1)).min(len.saturating_sub(1));
                axis.values.get(index).copied().unwrap_or_default()
            })
            .collect();
        let point = bind_coords(spec, &coords)?;
        if seen.insert(point.key()) {
            points.push(point);
        }
    }
    // Aliased strata (several strata landing on one value, or an axis
    // value equal to the base) shrink the set; fill the shortfall
    // with bounded uniform draws.
    let target = usize::try_from(count).unwrap_or(usize::MAX);
    let budget = count.saturating_mul(64).max(1024);
    for _ in 0..budget {
        if points.len() >= target {
            break;
        }
        let coords: Vec<f64> = spec
            .axes
            .iter()
            .map(|axis| {
                let i = rng.gen_range(0..axis.values.len());
                axis.values.get(i).copied().unwrap_or_default()
            })
            .collect();
        let point = bind_coords(spec, &coords)?;
        if seen.insert(point.key()) {
            points.push(point);
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn spec(text: &str) -> ExperimentSpec {
        ExperimentSpec::parse_str(text).unwrap()
    }

    #[test]
    fn grid_expansion_is_the_cartesian_product() {
        let spec = spec(
            r#"{"name": "x", "axes": [
                {"knob": "k", "values": [2.7, 3.9]},
                {"knob": "m", "values": [1.0, 2.0, 3.0]}
            ]}"#,
        );
        let points = expand(&spec).unwrap();
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].coords, vec![2.7, 1.0]);
        assert_eq!(points[5].coords, vec![3.9, 3.0]);
        assert_eq!(points[0].config.k, Some(2.7));
        assert_eq!(points[0].config.miller, 1.0);
    }

    #[test]
    fn expansion_deduplicates_by_content_address() {
        // miller = 2.0 equals the base default, but both axis values
        // produce distinct configurations; a duplicated *coordinate*
        // cannot happen post-sort, so alias via two axes over the same
        // knob value landing on one config:
        let spec = spec(
            r#"{"name": "x", "axes": [
                {"knob": "m", "values": [2.0]},
                {"knob": "m", "values": [2.0, 3.0]}
            ]}"#,
        );
        // Second axis overwrites the first: (2,2) and (2,3) give two
        // distinct configs; no dedup. Now a genuinely aliasing spec:
        let points = expand(&spec).unwrap();
        assert_eq!(points.len(), 2);

        let aliasing = ExperimentSpec::parse_str(
            r#"{"name": "x", "axes": [
                {"knob": "m", "values": [2.0, 3.0]},
                {"knob": "m", "values": [3.0]}
            ]}"#,
        )
        .unwrap();
        // Both coordinate tuples rebind miller to 3.0 → one config.
        assert_eq!(expand(&aliasing).unwrap().len(), 1);
    }

    #[test]
    fn empty_axes_solve_the_base_point_alone() {
        let spec = spec(r#"{"name": "x"}"#);
        let points = expand(&spec).unwrap();
        assert_eq!(points.len(), 1);
        assert!(points[0].coords.is_empty());
        assert_eq!(points[0].config, spec.base);
    }

    #[test]
    fn random_sampling_is_seeded_and_distinct() {
        let text = r#"{"name": "x",
            "axes": [{"knob": "k", "values": [2.0, 3.0, 4.0, 5.0]},
                      {"knob": "m", "values": [1.0, 2.0, 3.0, 4.0]}],
            "strategy": {"random": {"points": 6, "seed": 11}}}"#;
        let a = expand(&spec(text)).unwrap();
        let b = expand(&spec(text)).unwrap();
        assert_eq!(a, b, "same seed, same sample");
        assert_eq!(a.len(), 6);
        let keys: std::collections::BTreeSet<u128> = a.iter().map(Point::key).collect();
        assert_eq!(keys.len(), 6, "samples are distinct configurations");
        let reseeded = text.replace("\"seed\": 11", "\"seed\": 12");
        let c = expand(&ExperimentSpec::parse_str(&reseeded).unwrap()).unwrap();
        assert_ne!(a, c, "different seed, different sample");
    }

    #[test]
    fn omitted_seed_derives_from_the_spec_hash() {
        let text = r#"{"name": "derived",
            "axes": [{"knob": "k", "values": [2.0, 3.0, 4.0, 5.0]},
                      {"knob": "m", "values": [1.0, 2.0, 3.0, 4.0]}],
            "strategy": {"random": {"points": 6}}}"#;
        let a = expand(&spec(text)).unwrap();
        let b = expand(&spec(text)).unwrap();
        assert_eq!(a, b, "the derived seed is deterministic");
        assert_eq!(a.len(), 6);

        // A different spec derives a different seed, so omitted-seed
        // experiments no longer all share one fixed sample.
        let renamed = text.replace("\"derived\"", "\"derived-2\"");
        let renamed_spec = spec(&renamed);
        assert_ne!(spec(text).sampling_seed(), renamed_spec.sampling_seed());
        let c = expand(&renamed_spec).unwrap();
        let coords =
            |pts: &[Point]| -> Vec<Vec<f64>> { pts.iter().map(|p| p.coords.clone()).collect() };
        assert_ne!(coords(&a), coords(&c), "different spec, different sample");

        // An explicit seed still pins the sample independently of the
        // spec hash.
        let pinned = spec(&text.replace("{\"points\": 6}", "{\"points\": 6, \"seed\": 9}"));
        assert_eq!(pinned.sampling_seed(), 9);
    }

    #[test]
    fn lhs_sampling_is_deterministic_and_stratified() {
        let text = r#"{"name": "lhs",
            "axes": [{"knob": "k", "values": [2.0, 2.5, 3.0, 3.5]},
                      {"knob": "m", "values": [1.0, 2.0, 3.0, 4.0]}],
            "strategy": {"random": {"points": 4, "mode": "lhs", "seed": 3}}}"#;
        let a = expand(&spec(text)).unwrap();
        let b = expand(&spec(text)).unwrap();
        assert_eq!(a, b, "same seed, same stratified sample");
        assert_eq!(a.len(), 4);

        // With points == axis length, every axis value is visited
        // exactly once — the Latin-hypercube property that uniform
        // sampling does not guarantee.
        for axis in 0..2 {
            let mut drawn: Vec<f64> = a.iter().map(|p| p.coords[axis]).collect();
            drawn.sort_by(f64::total_cmp);
            drawn.dedup();
            assert_eq!(drawn.len(), 4, "axis {axis} covers all strata");
        }

        let reseeded = spec(&text.replace("\"seed\": 3", "\"seed\": 4"));
        let c = expand(&reseeded).unwrap();
        assert_ne!(a, c, "different seed, different permutation");
    }
}
