//! Canonical-hash stability: the solve cache's content address must
//! depend on exactly the bound inputs — stable across JSON field
//! reordering and request re-parsing, distinct across every Table 4
//! knob grid point.

use std::collections::HashSet;

use ia_obs::json::JsonValue;
use ia_rank::canon::BoundConfig;
use ia_rank::sweep::Axis;
use ia_serve::SolveRequest;
use proptest::prelude::*;

/// Parses a `/solve` body into the configuration it binds.
fn parse(body: &str) -> BoundConfig {
    SolveRequest::from_json(&JsonValue::parse(body).expect("valid json"))
        .expect("parses")
        .0
}

fn grid(axis: Axis) -> &'static [f64] {
    axis.paper_values()
}

#[test]
fn same_inputs_twice_produce_the_same_key() {
    let body = r#"{"node":"90","gates":400000,"bunch":5000,"clock_mhz":900.0,
                   "fraction":0.3,"miller":1.5,"k":2.7,"global":2,"semi_global":1,"local":1}"#;
    let (a, b) = (parse(body), parse(body));
    assert_eq!(a.cache_key(), b.cache_key());
    assert_eq!(a.canonical_string(), b.canonical_string());
}

#[test]
fn json_field_reordering_does_not_change_the_key() {
    let forward = r#"{"gates":400000,"k":2.7,"miller":1.5,"node":"tsmc90"}"#;
    let backward = r#"{"node":"90","miller":1.5,"k":2.7,"gates":400000}"#;
    let (a, b) = (parse(forward), parse(backward));
    assert_eq!(
        a.cache_key(),
        b.cache_key(),
        "field order and tsmc-prefix spelling must not split the cache"
    );
}

#[test]
fn every_table4_grid_point_has_a_distinct_key() {
    // All four axes swept jointly: every (K, M, C, R) combination must
    // address a distinct cache slot. 22 * 21 * 13 * 5 = 30030 keys.
    let mut seen = HashSet::new();
    for &k in grid(Axis::K) {
        for &m in grid(Axis::M) {
            for &c in grid(Axis::C) {
                for &r in grid(Axis::R) {
                    let request = BoundConfig {
                        k: Some(k),
                        miller: m,
                        clock_mhz: c / 1.0e6,
                        fraction: r,
                        ..BoundConfig::default()
                    };
                    assert!(
                        seen.insert(request.cache_key()),
                        "key collision at K={k} M={m} C={c} R={r}"
                    );
                }
            }
        }
    }
    assert_eq!(seen.len(), 22 * 21 * 13 * 5);
}

proptest! {
    /// Round-tripping any Table 4 grid selection through JSON (in two
    /// different field orders) reaches the same canonical key, and
    /// moving to a neighbouring grid point never does.
    #[test]
    fn table4_selections_hash_stably(
        ki in 0usize..22,
        mi in 0usize..21,
        ci in 0usize..13,
        ri in 0usize..5,
        gates in 1_000u64..10_000_000,
    ) {
        let k = grid(Axis::K)[ki];
        let m = grid(Axis::M)[mi];
        let c = grid(Axis::C)[ci];
        let r = grid(Axis::R)[ri];
        let forward = format!(
            r#"{{"gates":{gates},"k":{k},"miller":{m},"clock_mhz":{},"fraction":{r}}}"#,
            c / 1.0e6,
        );
        let backward = format!(
            r#"{{"fraction":{r},"clock_mhz":{},"miller":{m},"k":{k},"gates":{gates}}}"#,
            c / 1.0e6,
        );
        let (a, b) = (parse(&forward), parse(&backward));
        prop_assert_eq!(a.cache_key(), b.cache_key());

        // Any single-knob move to a different grid value changes the key.
        let mut other_k = a.clone();
        other_k.k = Some(grid(Axis::K)[(ki + 1) % 22]);
        prop_assert_ne!(other_k.cache_key(), a.cache_key());
        let mut other_m = a.clone();
        other_m.miller = grid(Axis::M)[(mi + 1) % 21];
        prop_assert_ne!(other_m.cache_key(), a.cache_key());
        let mut other_c = a.clone();
        other_c.clock_mhz = grid(Axis::C)[(ci + 1) % 13] / 1.0e6;
        prop_assert_ne!(other_c.cache_key(), a.cache_key());
        let mut other_r = a.clone();
        other_r.fraction = grid(Axis::R)[(ri + 1) % 5];
        prop_assert_ne!(other_r.cache_key(), a.cache_key());
    }

    /// Non-knob inputs are part of the address too: gates, bunch and
    /// the stack pair counts each split the cache.
    #[test]
    fn structural_inputs_split_the_key(
        gates in 1_000u64..10_000_000,
        bunch in 1u64..100_000,
        pairs in 0u64..4,
    ) {
        let base = BoundConfig {
            gates,
            bunch,
            global: pairs,
            ..BoundConfig::default()
        };
        let key = base.cache_key();

        let mut more_gates = base.clone();
        more_gates.gates = gates + 1;
        prop_assert_ne!(more_gates.cache_key(), key);
        let mut more_bunch = base.clone();
        more_bunch.bunch = bunch + 1;
        prop_assert_ne!(more_bunch.cache_key(), key);
        let mut more_pairs = base.clone();
        more_pairs.global = pairs + 1;
        prop_assert_ne!(more_pairs.cache_key(), key);
    }
}
