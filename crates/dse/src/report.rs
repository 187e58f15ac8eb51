//! Deterministic text reports for a completed (or partial) run.
//!
//! [`render`] is a **pure function of the spec and the completed
//! point set** — it never looks at execution statistics (how many
//! points were cached vs solved fresh, how many rounds ran), so an
//! interrupted-then-resumed run reports byte-identically to an
//! uninterrupted one. The CI smoke job and the resume tests diff
//! exactly this output.

use ia_report::{Document, Table};

use crate::engine::{explore, RunOptions, SolvedPoint};
use crate::error::DseError;
use crate::pareto::{detect_cliffs, pareto_front};
use crate::spec::{ExperimentSpec, Strategy};
use crate::store::{RunStore, StoreCache};

/// Cliff threshold used for reporting when the spec's strategy does
/// not define one (grid / random).
const DEFAULT_CLIFF_THRESHOLD: f64 = 0.1;

fn fmt_coord(x: f64) -> String {
    format!("{x}")
}

fn fmt_norm(x: f64) -> String {
    format!("{x:.6}")
}

fn fmt_area_mm2(area_m2: f64) -> String {
    format!("{:.4}", area_m2 * 1.0e6)
}

/// Renders the Table-4-style report for a run: the completed points,
/// a best-rank table per axis, the Pareto front, and any rank cliffs.
///
/// `points` must be sorted the way the engine returns them (by
/// coordinates); [`render`] preserves that order.
#[must_use]
pub fn render(spec: &ExperimentSpec, points: &[SolvedPoint]) -> String {
    let mut doc = Document::new(format!("dse report: {}", spec.name));
    doc.line(format!("run id:    {}", spec.run_id()));
    doc.line(format!("strategy:  {}", spec.strategy.label()));
    doc.line(format!(
        "axes:      {}",
        if spec.axes.is_empty() {
            "(base point only)".to_owned()
        } else {
            spec.axes
                .iter()
                .map(|a| a.knob.label().to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        }
    ));
    doc.line(format!("completed: {} points", points.len()));

    // Completed points, one row each.
    doc.section("completed points");
    let mut header: Vec<String> = spec
        .axes
        .iter()
        .map(|a| a.knob.label().to_owned())
        .collect();
    header.extend(
        [
            "normalized rank",
            "rank (wires)",
            "repeaters",
            "repeater area (mm^2)",
            "assignable",
        ]
        .map(str::to_owned),
    );
    let mut table = Table::new(header.clone());
    for point in points {
        let mut row: Vec<String> = point.coords.iter().copied().map(fmt_coord).collect();
        row.push(fmt_norm(point.solve.normalized));
        row.push(point.solve.rank.to_string());
        row.push(point.solve.repeater_count.to_string());
        row.push(fmt_area_mm2(point.solve.repeater_area_m2));
        row.push(
            if point.solve.fully_assignable {
                "yes"
            } else {
                "no"
            }
            .to_owned(),
        );
        table.row(row);
    }
    doc.table(table);

    // Best achieved rank per value, per axis (the Table-4 shape).
    for (axis_index, axis) in spec.axes.iter().enumerate() {
        doc.section(format!("best rank by {}", axis.knob.label()));
        let mut table = Table::new([axis.knob.label(), "best normalized rank", "points"]);
        let mut groups: Vec<(f64, f64, u64)> = Vec::new();
        for point in points {
            let Some(&value) = point.coords.get(axis_index) else {
                continue;
            };
            match groups
                .iter_mut()
                .find(|(v, _, _)| v.total_cmp(&value).is_eq())
            {
                Some((_, best, count)) => {
                    if point.solve.normalized > *best {
                        *best = point.solve.normalized;
                    }
                    *count += 1;
                }
                None => groups.push((value, point.solve.normalized, 1)),
            }
        }
        groups.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (value, best, count) in groups {
            table.row([fmt_coord(value), fmt_norm(best), count.to_string()]);
        }
        doc.table(table);
    }

    // Pareto front under (normalized rank up, repeater area down).
    doc.section("pareto front (rank vs repeater area)");
    let solves: Vec<_> = points.iter().map(|p| p.solve).collect();
    let mut front_table = Table::new(header);
    for index in pareto_front(&solves) {
        if let Some(point) = points.get(index) {
            let mut row: Vec<String> = point.coords.iter().copied().map(fmt_coord).collect();
            row.push(fmt_norm(point.solve.normalized));
            row.push(point.solve.rank.to_string());
            row.push(point.solve.repeater_count.to_string());
            row.push(fmt_area_mm2(point.solve.repeater_area_m2));
            row.push(
                if point.solve.fully_assignable {
                    "yes"
                } else {
                    "no"
                }
                .to_owned(),
            );
            front_table.row(row);
        }
    }
    doc.table(front_table);

    // Rank cliffs: where an axis step moves the best rank sharply.
    let threshold = match spec.strategy {
        Strategy::Adaptive { threshold, .. } => threshold,
        _ => DEFAULT_CLIFF_THRESHOLD,
    };
    doc.section(format!("rank cliffs (threshold {})", fmt_coord(threshold)));
    let coords: Vec<&[f64]> = points.iter().map(|p| p.coords.as_slice()).collect();
    let cliffs = detect_cliffs(&coords, &solves, spec.axes.len(), threshold);
    if cliffs.is_empty() {
        doc.line("none detected");
    } else {
        let mut table = Table::new(["axis", "from", "to", "rank change"]);
        for cliff in &cliffs {
            let label = spec.axes.get(cliff.axis).map_or("?", |a| a.knob.label());
            table.row([
                label.to_owned(),
                fmt_coord(cliff.lo),
                fmt_coord(cliff.hi),
                fmt_norm(cliff.drop),
            ]);
        }
        doc.table(table);
    }

    doc.render()
}

/// Renders a run's point set as CSV — the machine-readable export
/// behind `iarank dse report --csv`. Schema-stable columns: one per
/// axis knob (spec order), then `key`, the objectives, and `pareto`
/// membership:
///
/// ```text
/// <knob>...,key,normalized_rank,rank_wires,total_wires,repeaters,
/// repeater_area_mm2,die_area_mm2,fully_assignable,pareto
/// ```
///
/// Like [`render`], a pure function of the spec and the completed
/// point set, so resumed / fleet runs export byte-identically to
/// single-process runs. Quoting/escaping follows `ia_report`'s
/// [`Table::to_csv`].
#[must_use]
pub fn to_csv(spec: &ExperimentSpec, points: &[SolvedPoint]) -> String {
    let mut header: Vec<String> = spec
        .axes
        .iter()
        .map(|a| a.knob.label().to_owned())
        .collect();
    header.extend(
        [
            "key",
            "normalized_rank",
            "rank_wires",
            "total_wires",
            "repeaters",
            "repeater_area_mm2",
            "die_area_mm2",
            "fully_assignable",
            "pareto",
        ]
        .map(str::to_owned),
    );
    let solves: Vec<_> = points.iter().map(|p| p.solve).collect();
    let front: std::collections::BTreeSet<usize> = pareto_front(&solves).into_iter().collect();
    let mut table = Table::new(header);
    for (index, point) in points.iter().enumerate() {
        let mut row: Vec<String> = point.coords.iter().copied().map(fmt_coord).collect();
        row.push(format!("{:032x}", point.key));
        row.push(fmt_norm(point.solve.normalized));
        row.push(point.solve.rank.to_string());
        row.push(point.solve.total_wires.to_string());
        row.push(point.solve.repeater_count.to_string());
        row.push(fmt_area_mm2(point.solve.repeater_area_m2));
        row.push(fmt_area_mm2(point.solve.die_area_m2));
        row.push(
            if point.solve.fully_assignable {
                "yes"
            } else {
                "no"
            }
            .to_owned(),
        );
        row.push(if front.contains(&index) { "yes" } else { "no" }.to_owned());
        table.row(row);
    }
    table.to_csv()
}

/// Replays a persisted run **without solving anything** and returns
/// its completed points: the engine reruns the expansion (and, for
/// adaptive runs, the deterministic refinement) with a zero
/// fresh-solve budget, so every completed point is a cache hit and
/// every unfinished point is skipped.
fn replay_run(run_dir: &std::path::Path) -> Result<(ExperimentSpec, Vec<SolvedPoint>), DseError> {
    let (store, spec, completed) = RunStore::open::<ExperimentSpec>(run_dir)?;
    let cache = StoreCache::new(&store, completed);
    let outcome = explore(
        &spec,
        &cache,
        &RunOptions {
            budget: Some(0),
            ..RunOptions::default()
        },
    )?;
    if let Some(error) = cache.take_error() {
        return Err(error);
    }
    Ok((spec, outcome.points))
}

/// Loads a persisted run and renders its text report without solving
/// anything (see [`replay_run`]).
///
/// # Errors
///
/// Returns [`DseError`] when the run directory is not a readable run
/// store.
pub fn for_run(run_dir: &std::path::Path) -> Result<String, DseError> {
    let (spec, points) = replay_run(run_dir)?;
    Ok(render(&spec, &points))
}

/// Loads a persisted run and renders its CSV export without solving
/// anything (see [`replay_run`] and [`to_csv`]).
///
/// # Errors
///
/// Returns [`DseError`] when the run directory is not a readable run
/// store.
pub fn for_run_csv(run_dir: &std::path::Path) -> Result<String, DseError> {
    let (spec, points) = replay_run(run_dir)?;
    Ok(to_csv(&spec, &points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, RunOptions};

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ia-dse-report-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn report_is_a_pure_function_of_spec_and_points() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "report-test",
                "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5]}],
                "workers": 2}"#,
        )
        .unwrap();

        // An interrupted-then-resumed run and a straight run must
        // report byte-identically.
        let root_a = scratch("a");
        let partial = run(
            &spec,
            &root_a,
            &RunOptions {
                budget: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let resumed = run(&spec, &root_a, &RunOptions::default()).unwrap();
        assert!(partial.points.len() < resumed.points.len());

        let root_b = scratch("b");
        let straight = run(&spec, &root_b, &RunOptions::default()).unwrap();

        assert_eq!(
            render(&spec, &resumed.points),
            render(&spec, &straight.points)
        );
        let _ = std::fs::remove_dir_all(&root_a);
        let _ = std::fs::remove_dir_all(&root_b);
    }

    #[test]
    fn report_names_its_sections() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "sections",
                "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.5]}]}"#,
        )
        .unwrap();
        let root = scratch("sections");
        let outcome = run(&spec, &root, &RunOptions::default()).unwrap();
        let text = render(&spec, &outcome.points);
        assert!(text.contains("== dse report: sections =="));
        assert!(text.contains("-- completed points --"));
        assert!(text.contains("-- best rank by m --"));
        assert!(text.contains("-- pareto front"));
        assert!(text.contains("-- rank cliffs"));
        assert!(text.contains(&spec.run_id()));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn csv_export_is_schema_stable() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "csv",
                "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5]},
                         {"knob": "c", "values": [400.0, 800.0]}]}"#,
        )
        .unwrap();
        let root = scratch("csv");
        let outcome = run(&spec, &root, &RunOptions::default()).unwrap();
        let csv = to_csv(&spec, &outcome.points);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "m,c,key,normalized_rank,rank_wires,total_wires,repeaters,\
             repeater_area_mm2,die_area_mm2,fully_assignable,pareto",
            "the column schema is stable"
        );
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 6, "one row per completed point");
        for row in &rows {
            assert_eq!(row.split(',').count(), 11, "row width matches header");
        }
        assert!(
            rows.iter().any(|r| r.split(',').next_back() == Some("yes")),
            "at least one Pareto member"
        );

        // The file-level entry point replays to the identical bytes.
        let via_run = for_run_csv(&root.join(spec.run_id())).unwrap();
        assert_eq!(via_run, csv);
        let _ = std::fs::remove_dir_all(&root);
    }
}
