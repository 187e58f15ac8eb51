//! The bounded parallel point executor that runs every batch of points:
//! dse and corpus rounds, `/sweep` requests and `iarank sweep`.
//!
//! The calling thread looks every point up in the [`PointCache`] first
//! (in a store-backed run that is the resume path) and answers the hits
//! itself, so a round whose points all hit starts no thread. At most
//! `workers` scoped threads, never more than there are misses, then
//! drain one queue of the misses (a mutex-guarded deque — deliberately
//! not a channel: the queue is bounded by construction, and scoped
//! threads are joined before `execute` returns, both of which lint rule
//! L8 enforces for this crate). A worker looks its point up again, for
//! points that repeat within a batch, and only solves a miss, within an
//! optional fresh-solve budget. Every worker registers with an
//! [`ia_obs::MergeSink`] (rule L7), so the caller's [`ExecNames`]
//! counters and point spans merge into the caller's snapshot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

use ia_obs::{counter_add, MergeSink};
use ia_rank::sweep::{CachedSolve, PointCache};

use crate::error::DseError;
use crate::point::Point;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a cache-missed point gets solved. The default is the in-process
/// DP solver ([`LocalSolver`]); `ia-serve`'s fleet coordinator
/// substitutes a dispatcher that ships the point to a remote worker
/// and blocks the scheduler thread until the result comes back —
/// which is how distributed runs reuse the engine's round loop,
/// refinement, and store persistence unchanged.
pub trait PointSolver: Sync {
    /// Solves one expanded point.
    ///
    /// # Errors
    ///
    /// Returns [`DseError`] when the point cannot be solved (bind
    /// failure, or a remote dispatch failure).
    fn solve_point(&self, point: &Point) -> Result<CachedSolve, DseError>;
}

/// The in-process solver: bind + DP solve on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSolver;

impl PointSolver for LocalSolver {
    fn solve_point(&self, point: &Point) -> Result<CachedSolve, DseError> {
        point.config.solve().map_err(DseError::Bind)
    }
}

/// The telemetry names one engine's rounds emit, so dse and corpus
/// runs keep their own counters, spans and worker tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecNames {
    /// Counter: points solved fresh.
    pub solved: &'static str,
    /// Counter: points answered by the cache.
    pub cached: &'static str,
    /// Counter: points left unsolved by a budget stop or cancellation.
    pub skipped: &'static str,
    /// Span covering one fresh solve.
    pub point: &'static str,
    /// Worker-thread name prefix registered with the merge sink.
    pub worker_prefix: &'static str,
}

/// Execution knobs for one scheduler round.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Worker-thread count (clamped to at least 1 and at most the
    /// number of cache misses).
    pub workers: usize,
    /// Ceiling on **fresh solves** this round; cache hits are free.
    /// When the budget runs out the remaining points are skipped —
    /// the deterministic "kill" lever the resume tests and the CI
    /// smoke job use.
    pub budget: Option<u64>,
    /// Cooperative cancellation flag, checked between points — the
    /// graceful-drain hook for `ia-serve` jobs.
    pub cancel: Option<&'a AtomicBool>,
    /// Incremented once per completed point, for live status reads.
    pub progress: Option<&'a AtomicU64>,
}

/// What one scheduler round did.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Per-point results, aligned with the input slice; `None` =
    /// skipped (budget or cancellation).
    pub results: Vec<Option<CachedSolve>>,
    /// Points solved fresh this round.
    pub solved: u64,
    /// Points answered by the cache this round.
    pub cached: u64,
    /// Points left unsolved this round.
    pub skipped: u64,
}

/// A per-point function the workers share.
type PointFn<'a, P, T> = &'a (dyn Fn(&P) -> T + Sync);

/// Shared worker state for one round.
struct Round<'a, P, E> {
    names: &'a ExecNames,
    points: &'a [P],
    solve: PointFn<'a, P, Result<CachedSolve, E>>,
    cache: &'a dyn PointCache,
    opts: &'a ExecOptions<'a>,
    /// The cache misses still to run: point index and content address.
    queue: Mutex<VecDeque<(usize, u128)>>,
    results: Mutex<Vec<Option<CachedSolve>>>,
    solved: AtomicU64,
    cached: AtomicU64,
    budget_used: AtomicU64,
    halt: AtomicBool,
    error: Mutex<Option<E>>,
}

impl<P, E> Round<'_, P, E> {
    fn halted(&self) -> bool {
        self.halt.load(Ordering::SeqCst)
            || self
                .opts
                .cancel
                .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Claims one unit of fresh-solve budget, if any remains.
    fn admit(&self) -> bool {
        self.budget_used
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                match self.opts.budget {
                    Some(budget) if used >= budget => None,
                    _ => Some(used + 1),
                }
            })
            .is_ok()
    }

    fn hit(&self, index: usize, value: CachedSolve) {
        self.cached.fetch_add(1, Ordering::SeqCst);
        counter_add(self.names.cached, 1);
        self.record(index, value);
    }

    fn record(&self, index: usize, value: CachedSolve) {
        if let Some(slot) = lock(&self.results).get_mut(index) {
            *slot = Some(value);
        }
        if let Some(progress) = self.opts.progress {
            progress.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn fail(&self, error: E) {
        lock(&self.error).get_or_insert(error);
        self.halt.store(true, Ordering::SeqCst);
    }
}

fn drain<P, E>(round: &Round<'_, P, E>) {
    loop {
        if round.halted() {
            return;
        }
        let Some((index, key)) = lock(&round.queue).pop_front() else {
            return;
        };
        let Some(point) = round.points.get(index) else {
            return;
        };
        if let Some(hit) = round.cache.lookup(key) {
            round.hit(index, hit);
            continue;
        }
        if !round.admit() {
            // Budget exhausted: hand the point back for the skip
            // count and retire this worker.
            lock(&round.queue).push_front((index, key));
            return;
        }
        let outcome = {
            let _span = ia_obs::span(round.names.point);
            (round.solve)(point)
        };
        match outcome {
            Ok(value) => {
                round.cache.store(key, value);
                round.solved.fetch_add(1, Ordering::SeqCst);
                counter_add(round.names.solved, 1);
                round.record(index, value);
            }
            Err(e) => {
                round.fail(e);
                return;
            }
        }
    }
}

/// Executes `points` against `cache`: hits are answered on the calling
/// thread, misses on at most `opts.workers` worker threads. `key` is a
/// point's content address, `solve` its cache-miss path, and `names`
/// the telemetry the round emits.
///
/// # Errors
///
/// Returns the first point's `solve` error, or
/// [`DseError::WorkerPanicked`] (converted) if a worker died.
pub fn execute<P: Sync, E: Send + From<DseError>>(
    names: &ExecNames,
    points: &[P],
    key: &(dyn Fn(&P) -> u128 + Sync),
    solve: &(dyn Fn(&P) -> Result<CachedSolve, E> + Sync),
    cache: &dyn PointCache,
    opts: &ExecOptions<'_>,
) -> Result<ExecOutcome, E> {
    let round = Round {
        names,
        points,
        solve,
        cache,
        opts,
        queue: Mutex::new(VecDeque::new()),
        results: Mutex::new(vec![None; points.len()]),
        solved: AtomicU64::new(0),
        cached: AtomicU64::new(0),
        budget_used: AtomicU64::new(0),
        halt: AtomicBool::new(false),
        error: Mutex::new(None),
    };
    let mut misses = VecDeque::new();
    for (index, point) in points.iter().enumerate() {
        let address = key(point);
        if !round.halted() {
            if let Some(hit) = cache.lookup(address) {
                round.hit(index, hit);
                continue;
            }
        }
        misses.push_back((index, address));
    }
    // A round with nothing left to solve, or cancelled, starts no worker.
    let workers = if misses.is_empty() || round.halted() {
        0
    } else {
        opts.workers.clamp(1, misses.len())
    };
    *lock(&round.queue) = misses;
    let sink = MergeSink::new();
    // The correlation context is thread-local; carry the caller's into
    // every worker so per-point spans correlate to the run.
    let ctx = ia_obs::current_context();
    let mut panicked = false;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let round = &round;
            let sink = &sink;
            handles.push(scope.spawn(move || {
                let _guard = sink.register_worker(&format!("{}{i}", names.worker_prefix));
                let _ctx = ia_obs::push_context(ctx);
                drain(round);
            }));
        }
        for handle in handles {
            if handle.join().is_err() {
                panicked = true;
            }
        }
    });
    // Merge the workers' counters and spans into the caller's
    // thread-local collector before reporting anything.
    sink.collect();
    if panicked {
        return Err(DseError::WorkerPanicked.into());
    }
    if let Some(error) = lock(&round.error).take() {
        return Err(error);
    }
    let skipped = u64::try_from(lock(&round.queue).len()).unwrap_or(u64::MAX);
    if skipped > 0 {
        counter_add(names.skipped, skipped);
    }
    let results = lock(&round.results).clone();
    Ok(ExecOutcome {
        results,
        solved: round.solved.load(Ordering::SeqCst),
        cached: round.cached.load(Ordering::SeqCst),
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;
    use crate::point::expand;
    use crate::spec::ExperimentSpec;
    use std::collections::BTreeMap;

    /// A plain in-memory cache for scheduler tests.
    #[derive(Default)]
    struct MapCache {
        map: Mutex<BTreeMap<u128, CachedSolve>>,
    }

    impl PointCache for MapCache {
        fn lookup(&self, key: u128) -> Option<CachedSolve> {
            lock(&self.map).get(&key).copied()
        }
        fn store(&self, key: u128, value: CachedSolve) {
            lock(&self.map).insert(key, value);
        }
    }

    fn run(
        points: &[Point],
        cache: &MapCache,
        opts: &ExecOptions<'_>,
    ) -> Result<ExecOutcome, DseError> {
        execute(
            &names::EXEC,
            points,
            &Point::key,
            &|p: &Point| LocalSolver.solve_point(p),
            cache,
            opts,
        )
    }

    fn points() -> Vec<Point> {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "sched", "base": {"gates": 20000, "bunch": 2000},
                "axes": [{"knob": "m", "values": [1.5, 2.0, 2.5, 3.0]}]}"#,
        )
        .unwrap();
        expand(&spec).unwrap()
    }

    #[test]
    fn executes_all_points_and_reuses_the_cache() {
        let points = points();
        let cache = MapCache::default();
        let opts = ExecOptions {
            workers: 3,
            ..ExecOptions::default()
        };
        let first = run(&points, &cache, &opts).unwrap();
        assert_eq!(first.solved, 4);
        assert_eq!(first.cached, 0);
        assert_eq!(first.skipped, 0);
        assert!(first.results.iter().all(Option::is_some));

        let second = run(&points, &cache, &opts).unwrap();
        assert_eq!(second.solved, 0);
        assert_eq!(second.cached, 4);
        assert_eq!(second.results, first.results);
    }

    #[test]
    fn workers_merge_their_solver_telemetry_into_the_caller() {
        use ia_rank::telemetry::names::{DP_CANDIDATES, SPAN_DP_EXPAND, SPAN_DP_SOLVE};
        let points = &points()[..3];
        ia_obs::set_enabled(true);
        // The same three points solved on this thread, one after
        // another, give the counters a merge must reproduce.
        ia_obs::reset();
        for point in points {
            LocalSolver.solve_point(point).unwrap();
        }
        let serial = ia_obs::snapshot().counter(DP_CANDIDATES);
        assert!(serial.unwrap_or(0) > 0, "the solves offer front candidates");

        ia_obs::reset();
        let opts = ExecOptions {
            workers: 3,
            ..ExecOptions::default()
        };
        let outcome = run(points, &MapCache::default(), &opts).unwrap();
        assert_eq!(outcome.solved, 3);
        // Each worker solves inside its own thread-local collector;
        // after the merge the solver's phase spans sit under the point
        // span exactly as one thread would have recorded them, and the
        // per-solve counters add up.
        let snap = ia_obs::snapshot();
        let solve = format!("{}/{SPAN_DP_SOLVE}", names::SPAN_POINT);
        let expand = format!("{solve}/{SPAN_DP_EXPAND}");
        assert_eq!(snap.spans[&solve].calls, 3, "one dp.solve per point");
        assert!(snap.spans[&expand].calls >= 3, "an expand span per solve");
        assert_eq!(snap.counter(DP_CANDIDATES), serial);
        assert_eq!(snap.counter(names::POINTS_SOLVED), Some(3));
    }

    #[test]
    fn an_all_hit_round_runs_on_the_calling_thread() {
        let points = points();
        let cache = MapCache::default();
        let opts = ExecOptions {
            workers: 3,
            ..ExecOptions::default()
        };
        let cold = run(&points, &cache, &opts).unwrap();
        let _ = ia_obs::drain_trace();
        let warm = run(&points, &cache, &opts).unwrap();
        assert_eq!((warm.cached, warm.solved), (4, 0));
        assert_eq!(warm.results, cold.results);
        // A worker names its trace track when it starts; no track means
        // no worker was started.
        let tracks = ia_obs::drain_trace().thread_names;
        assert!(
            !tracks
                .values()
                .any(|name| name.starts_with(names::WORKER_PREFIX)),
            "an all-hit round started workers: {tracks:?}"
        );
    }

    #[test]
    fn budget_stops_fresh_solves_but_not_cache_hits() {
        let points = points();
        let cache = MapCache::default();
        let budgeted = ExecOptions {
            workers: 1,
            budget: Some(2),
            ..ExecOptions::default()
        };
        let first = run(&points, &cache, &budgeted).unwrap();
        assert_eq!(first.solved, 2);
        assert_eq!(first.skipped, 2);

        // Resuming under the same budget finishes: the two completed
        // points are free hits, the remaining two consume the budget.
        let second = run(&points, &cache, &budgeted).unwrap();
        assert_eq!(second.cached, 2);
        assert_eq!(second.solved, 2);
        assert_eq!(second.skipped, 0);
    }

    #[test]
    fn cancellation_skips_the_remainder() {
        let points = points();
        let cache = MapCache::default();
        let cancel = AtomicBool::new(true);
        let opts = ExecOptions {
            workers: 2,
            cancel: Some(&cancel),
            ..ExecOptions::default()
        };
        let outcome = run(&points, &cache, &opts).unwrap();
        assert_eq!(outcome.solved, 0);
        assert_eq!(outcome.skipped, 4);
    }

    #[test]
    fn a_failing_point_surfaces_its_bind_error() {
        let spec = ExperimentSpec::parse_str(
            r#"{"name": "bad", "base": {"node": "65", "gates": 20000, "bunch": 2000}}"#,
        )
        .unwrap();
        let points = expand(&spec).unwrap();
        let cache = MapCache::default();
        let opts = ExecOptions {
            workers: 1,
            ..ExecOptions::default()
        };
        let err = run(&points, &cache, &opts).unwrap_err();
        assert!(err.to_string().contains("unknown node"));
    }
}
