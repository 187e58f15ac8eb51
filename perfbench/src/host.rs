//! The host-phase indicator.
//!
//! A background thread times a fixed loop that runs no program code, at
//! intervals through the run: a dependent walk over a 4 MiB random
//! cycle, larger than a core's L2, so it slows both when the vCPU runs
//! slower and when neighbours crowd the shared cache and memory, as the
//! solver's own memory-bound loops do. Each sample is the fastest of
//! three back-to-back walks, so a single preemption does not read as a
//! slow host. A sample counts as slow when it exceeds the run's fastest
//! decile by more than [`SLOW_FACTOR`]: the host's two speeds are about
//! 1.8x apart, so the threshold sits between them. The indicator only
//! explains a slow run; no metric is rescaled by it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::loadgen::Rng;

/// Slow-phase threshold relative to the fastest decile.
pub const SLOW_FACTOR: f64 = 1.35;

const INTERVAL: Duration = Duration::from_millis(200);
const CYCLE_LEN: usize = 4 * 1024 * 1024 / 8;
const STEPS: usize = 4_000;

/// A single random cycle over `len` slots (Sattolo's algorithm).
fn random_cycle(len: usize) -> Vec<usize> {
    let mut next: Vec<usize> = (0..len).collect();
    let mut rng = Rng::new(0x9E37_79B9);
    for i in (1..len).rev() {
        let j = usize::try_from(rng.next_u64() % i as u64).unwrap_or(0);
        next.swap(i, j);
    }
    next
}

fn walk(cycle: &[usize]) -> Duration {
    let start = Instant::now();
    let mut at = std::hint::black_box(0usize);
    for _ in 0..STEPS {
        at = cycle[at];
    }
    std::hint::black_box(at);
    start.elapsed()
}

/// A running probe; [`Probe::finish`] stops it and returns its samples.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl Probe {
    /// Starts sampling on a background thread.
    #[must_use]
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let cycle = random_cycle(CYCLE_LEN);
            let mut samples = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                let best = (0..3).map(|_| walk(&cycle)).min().unwrap_or_default();
                samples.push(best.as_secs_f64() * 1e6);
                std::thread::sleep(INTERVAL);
            }
            samples
        });
        Probe { stop, handle }
    }

    /// Stops the probe and returns its samples in microseconds.
    #[must_use]
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or_default()
    }
}

/// The share of `samples` in the slow phase (see the module doc).
#[must_use]
pub fn slow_frac(samples: &[f64]) -> f64 {
    let Some(fast) = crate::stats::percentile(samples, 100) else {
        return 0.0;
    };
    let slow = samples.iter().filter(|&&s| s > fast * SLOW_FACTOR).count();
    slow as f64 / samples.len() as f64
}
