//! An interrupted corpus run, once resumed, reports exactly like a run
//! that was never interrupted: the text report and its CSV twin are
//! byte-identical, and the resume solves only the missing points.

use std::path::PathBuf;

use ia_corpus::{report, CorpusSpec, RunOptions};

/// One synthetic design × four backends × three degradation levels:
/// 12 points, solved by 4 workers.
fn spec() -> CorpusSpec {
    CorpusSpec::parse_str(
        r#"{"name": "resume-bytes",
            "workers": 4,
            "base": {"bunch": 2000},
            "backends": ["measured", "davis", "hefeida-site", "hefeida-occupancy"],
            "degrade": [1.0, 2.0, 4.0],
            "designs": [{"name": "synth", "kind": "synthetic",
                         "cells": 10000, "nets": 50000, "seed": 7}]}"#,
    )
    .expect("corpus spec parses")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ia-corpus-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn interrupted_then_resumed_run_reports_byte_identically() {
    let spec = spec();

    let straight_root = scratch("straight");
    let straight = ia_corpus::run(&spec, &straight_root, &RunOptions::default()).expect("run");
    assert!(straight.complete);
    assert_eq!(straight.solved, 12);
    let straight_dir = straight_root.join(spec.run_id());

    let resumed_root = scratch("resumed");
    let budget = RunOptions {
        budget: Some(5),
        ..RunOptions::default()
    };
    let partial = ia_corpus::run(&spec, &resumed_root, &budget).expect("interrupted run");
    assert!(!partial.complete);
    assert_eq!(partial.solved, 5);
    let resumed_dir = resumed_root.join(spec.run_id());
    let (_, finished) = ia_corpus::resume(&resumed_dir, &RunOptions::default()).expect("resume");
    assert!(finished.complete);
    assert_eq!((finished.solved, finished.cached), (7, 5));

    let text = report::for_run(&straight_dir).expect("straight report");
    assert!(text.contains("ia-corpus-v1"), "{text}");
    assert_eq!(text, report::for_run(&resumed_dir).expect("resumed report"));
    assert_eq!(
        report::for_run_csv(&straight_dir).expect("straight csv"),
        report::for_run_csv(&resumed_dir).expect("resumed csv"),
    );

    let _ = std::fs::remove_dir_all(&straight_root);
    let _ = std::fs::remove_dir_all(&resumed_root);
}
