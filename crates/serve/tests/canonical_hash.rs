//! Canonical-hash stability: the solve cache's content address must
//! depend on exactly the bound inputs — stable across JSON field
//! reordering and request re-parsing, distinct across every Table 4
//! knob grid point.

use std::collections::HashSet;

use ia_obs::json::JsonValue;
use ia_rank::sweep::Axis;
use ia_serve::SolveRequest;
use proptest::prelude::*;

/// The solve cache's key for a request.
fn cache_key(request: &SolveRequest) -> u128 {
    request.to_config().cache_key()
}

fn canonical_string(request: &SolveRequest) -> String {
    request.to_config().canonical_string()
}

fn grid(axis: Axis) -> &'static [f64] {
    axis.paper_values()
}

#[test]
fn same_inputs_twice_produce_the_same_key() {
    let body = r#"{"node":"90","gates":400000,"bunch":5000,"clock_mhz":900.0,
                   "fraction":0.3,"miller":1.5,"k":2.7,"global":2,"semi_global":1,"local":1}"#;
    let a = SolveRequest::from_json(&JsonValue::parse(body).expect("valid json")).expect("parses");
    let b = SolveRequest::from_json(&JsonValue::parse(body).expect("valid json")).expect("parses");
    assert_eq!(cache_key(&a), cache_key(&b));
    assert_eq!(canonical_string(&a), canonical_string(&b));
}

#[test]
fn json_field_reordering_does_not_change_the_key() {
    let forward = r#"{"gates":400000,"k":2.7,"miller":1.5,"node":"tsmc90"}"#;
    let backward = r#"{"node":"90","miller":1.5,"k":2.7,"gates":400000}"#;
    let a =
        SolveRequest::from_json(&JsonValue::parse(forward).expect("valid json")).expect("parses");
    let b =
        SolveRequest::from_json(&JsonValue::parse(backward).expect("valid json")).expect("parses");
    assert_eq!(
        cache_key(&a),
        cache_key(&b),
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
                    let request = SolveRequest {
                        k: Some(k),
                        miller: m,
                        clock_mhz: c / 1.0e6,
                        fraction: r,
                        ..SolveRequest::default()
                    };
                    assert!(
                        seen.insert(cache_key(&request)),
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
        let a = SolveRequest::from_json(&JsonValue::parse(&forward).expect("valid json"))
            .expect("parses");
        let b = SolveRequest::from_json(&JsonValue::parse(&backward).expect("valid json"))
            .expect("parses");
        prop_assert_eq!(cache_key(&a), cache_key(&b));

        // Any single-knob move to a different grid value changes the key.
        let mut other_k = a.clone();
        other_k.k = Some(grid(Axis::K)[(ki + 1) % 22]);
        prop_assert_ne!(cache_key(&other_k), cache_key(&a));
        let mut other_m = a.clone();
        other_m.miller = grid(Axis::M)[(mi + 1) % 21];
        prop_assert_ne!(cache_key(&other_m), cache_key(&a));
        let mut other_c = a.clone();
        other_c.clock_mhz = grid(Axis::C)[(ci + 1) % 13] / 1.0e6;
        prop_assert_ne!(cache_key(&other_c), cache_key(&a));
        let mut other_r = a.clone();
        other_r.fraction = grid(Axis::R)[(ri + 1) % 5];
        prop_assert_ne!(cache_key(&other_r), cache_key(&a));
    }

    /// Non-knob inputs are part of the address too: gates, bunch and
    /// the stack pair counts each split the cache.
    #[test]
    fn structural_inputs_split_the_key(
        gates in 1_000u64..10_000_000,
        bunch in 1u64..100_000,
        pairs in 0u64..4,
    ) {
        let base = SolveRequest {
            gates,
            bunch,
            global: pairs,
            ..SolveRequest::default()
        };
        let key = cache_key(&base);

        let mut more_gates = base.clone();
        more_gates.gates = gates + 1;
        prop_assert_ne!(cache_key(&more_gates), key);
        let mut more_bunch = base.clone();
        more_bunch.bunch = bunch + 1;
        prop_assert_ne!(cache_key(&more_bunch), key);
        let mut more_pairs = base.clone();
        more_pairs.global = pairs + 1;
        prop_assert_ne!(cache_key(&more_pairs), key);
    }
}
