//! The benchmark's own statistics, span arithmetic and open-loop
//! timing, on synthetic inputs.

use std::time::{Duration, Instant};

use ia_perfbench::loadgen::{poisson, run_open_loop, Planned, Rng};
use ia_perfbench::stats::{fastest, lower_quartile, median, tail, Summary, TAIL_BEYOND};
use ia_perfbench::trace::{self_times, SpanRecord};
use ia_perfbench::{declared, host};

fn series(n: u32) -> Vec<f64> {
    (1..=n).map(f64::from).collect()
}

#[test]
fn fastest_is_the_smallest_sample() {
    assert_eq!(fastest(&[5.0, 1.5, 3.0]), Some(1.5));
    assert_eq!(fastest(&series(100)), Some(1.0));
    assert_eq!(fastest(&[7.0]), Some(7.0));
    assert_eq!(fastest(&[]), None);
}

#[test]
fn lower_quartile_and_median_are_nearest_rank_samples() {
    assert_eq!(lower_quartile(&series(100)), Some(25.0));
    assert_eq!(median(&series(100)), Some(50.0));
    assert_eq!(lower_quartile(&series(8)), Some(2.0));
    // Unsorted input, and counts that do not divide by four.
    assert_eq!(lower_quartile(&[5.0, 1.0, 3.0]), Some(1.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(lower_quartile(&[7.0]), Some(7.0));
    assert_eq!(lower_quartile(&[]), None);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let t = tail(&series(100)).expect("100 samples have a tail");
    assert_eq!((t.label().as_str(), t.value, t.beyond), ("p90", 90.0, 10));
    let t = tail(&series(1000)).expect("1000 samples have a tail");
    assert_eq!((t.label().as_str(), t.value, t.beyond), ("p99", 990.0, 10));
    let t = tail(&series(10_000)).expect("10000 samples have a tail");
    assert_eq!(
        (t.label().as_str(), t.value, t.beyond),
        ("p99.9", 9990.0, 10)
    );
    let t = tail(&series(40)).expect("40 samples have a tail");
    assert_eq!((t.label().as_str(), t.beyond), ("p75", 10));
    // Twenty samples leave exactly ten beyond the median; nineteen
    // leave too few for any percentile.
    assert_eq!(tail(&series(20)).map(|t| t.permille), Some(500));
    assert_eq!(tail(&series(19)), None);
    for n in [20, 57, 333, 4096] {
        let t = tail(&series(n)).expect("tail");
        assert!(t.beyond >= TAIL_BEYOND, "n={n}: {t:?}");
    }
}

#[test]
fn summary_counts_its_samples() {
    let s = Summary::of(&series(64)).expect("summary");
    assert_eq!(s.n, 64);
    assert_eq!(s.fastest, 1.0);
    assert_eq!(s.lower_quartile, 16.0);
    assert_eq!(s.median, 32.0);
    assert!(s.line("solve", "ms").contains("n=64"));
    assert!(Summary::of(&[]).is_none());
}

/// Fast samples near 40 and slow ones 1.8x slower, in the given mix.
fn bimodal(fast: u32, slow: u32) -> Vec<f64> {
    let mut v: Vec<f64> = (0..fast).map(|i| 40.0 + f64::from(i % 7) * 0.1).collect();
    v.extend((0..slow).map(|i| 72.0 + f64::from(i % 5) * 0.2));
    v
}

#[test]
fn only_the_fastest_sample_survives_every_mix_of_a_bimodal_host() {
    // The slow phase's share moves between runs. Up to 70% slow
    // samples, the lower quartile stays in the fast mode ...
    for slow in [0, 10, 30, 50, 70] {
        let q1 = lower_quartile(&bimodal(100 - slow, slow)).expect("q1");
        assert!((40.0..41.0).contains(&q1), "{slow}% slow: q1 {q1}");
    }
    // ... while the median jumps by the full 1.8x once half the run is
    // slow, and the mean moves with every sample.
    let calm = median(&bimodal(70, 30)).expect("median");
    let busy = median(&bimodal(30, 70)).expect("median");
    assert!(busy / calm > 1.7, "{calm} -> {busy}");
    // Beyond three quarters slow, even the lower quartile is slow, as
    // in a measured run with 32 of 38 solves in the slow phase ...
    let q1 = lower_quartile(&bimodal(6, 32)).expect("q1");
    assert!(q1 > 70.0);
    // ... while the fastest sample stays in the fast mode as long as one
    // sample ran there.
    for slow in [0, 30, 70, 95, 99] {
        let v = fastest(&bimodal(100 - slow, slow)).expect("fastest");
        assert!((40.0..41.0).contains(&v), "{slow}% slow: fastest {v}");
    }
}

#[test]
fn host_indicator_counts_slow_phase_samples() {
    let samples = bimodal(70, 30);
    assert!((host::slow_frac(&samples) - 0.3).abs() < 1e-12);
    assert_eq!(host::slow_frac(&bimodal(50, 0)), 0.0);
    assert_eq!(host::slow_frac(&[]), 0.0);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        name: "s",
        iter: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Parent 0..100; children 10..40 and 30..60 overlap (their union
    // is 50) and a grandchild inside the first does not count twice.
    let spans = [
        span(1, None, 0, 100),
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 60),
        span(4, Some(2), 15, 20),
        // A child reaching past its parent is clipped to it.
        span(5, None, 200, 300),
        span(6, Some(5), 250, 400),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 50);
    assert_eq!(selfs[&2], 25);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&4], 5);
    assert_eq!(selfs[&5], 50);
}

#[test]
fn poisson_schedules_repeat_per_seed() {
    let plan = |seed| {
        poisson(
            &mut Rng::new(seed),
            Duration::from_millis(25),
            Duration::from_secs(10),
            |r| r.next_u64() % 3,
        )
    };
    let a = plan(7);
    assert_eq!(a, plan(7));
    assert_ne!(a, plan(8));
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    assert!(a.iter().all(|p| p.due < Duration::from_secs(10)));
    // About 400 requests at a 25 ms mean spacing.
    assert!((300..500).contains(&a.len()), "{}", a.len());
}

#[test]
fn open_loop_times_from_due_time_through_a_stalled_generator() {
    const STEP: Duration = Duration::from_millis(10);
    const STALL: Duration = Duration::from_millis(150);
    let plan: Vec<Planned<usize>> = (0..30)
        .map(|i| Planned {
            due: STEP * u32::try_from(i).expect("small"),
            item: i,
        })
        .collect();
    let start = Instant::now();
    // Request 5 stalls the generator; every send is otherwise instant.
    let sent = run_open_loop(start, &plan, |i, p| {
        if p.item == 5 {
            std::thread::sleep(STALL);
        }
        i
    });
    assert_eq!(sent.len(), 30);
    assert!(sent.iter().enumerate().all(|(i, s)| s.result == i));
    assert!(sent[5].latency >= STALL);
    // Requests due during the stall leave late, and their latency
    // counts the wait from their due time even though their own send
    // took no time: request 6 was due 10 ms after request 5 started.
    for (i, s) in sent.iter().enumerate().take(15).skip(6) {
        let due = STEP * u32::try_from(i).expect("small");
        let stall_end = STEP * 5 + STALL;
        let waited = stall_end.saturating_sub(due);
        assert!(
            s.late >= waited,
            "request {i}: late {:?} < {waited:?}",
            s.late
        );
        assert!(s.latency >= s.late, "request {i}");
    }
    // Before the stall nothing waited beyond scheduling noise.
    assert!(sent[..5].iter().all(|s| s.latency < STALL / 2));
}

#[test]
fn benchmark_json_declares_the_workloads_and_metrics() {
    let end_to_end = declared("end_to_end").expect("end_to_end");
    assert!(end_to_end.contains(&("setup_s".to_owned(), "s".to_owned())));
    assert!(!declared("workloads").expect("workloads").is_empty());
    assert!(!declared("per_layer").expect("per_layer").is_empty());
    assert!(declared("no-such-list").is_err());
}
