//! Pins the exact `corpus.ingest.*` counters of one streaming pass.
//!
//! The synthetic generator is seeded, so a design's pin count and
//! length histogram are fixed; any drift means the generator or the
//! ingester changed.

use ia_netlist::bookshelf::{self, names};
use ia_netlist::{NetModel, SyntheticDesign};

#[test]
fn seeded_100k_net_design_ingests_to_the_pinned_counters() {
    let dir = std::env::temp_dir().join(format!("ia-netlist-ingest-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paths = SyntheticDesign::new(25_000, 100_000, 7)
        .expect("design spec")
        .write_to(&dir, "synth")
        .expect("generate design");

    ia_obs::set_enabled(true);
    ia_obs::reset();
    let out = bookshelf::ingest_files(&paths.nodes, &paths.nets, &paths.pl, NetModel::Star)
        .expect("ingest");
    let counters: Vec<(String, u64)> = ia_obs::snapshot().counters.into_iter().collect();
    ia_obs::reset();
    let _ = std::fs::remove_dir_all(&dir);

    let pinned: Vec<(String, u64)> = [
        (names::INGEST_CELLS, 25_000),
        (names::INGEST_DISTINCT, 217),
        (names::INGEST_DROPPED, 0),
        (names::INGEST_NETS, 100_000),
        (names::INGEST_PINS, 298_184),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_owned(), value))
    .collect();
    assert_eq!(counters, pinned);
    assert_eq!(
        (out.cells, out.nets, out.pins, out.dropped_zero_length),
        (25_000, 100_000, 298_184, 0)
    );
    assert_eq!(out.wld.distinct_lengths(), 217);
}
