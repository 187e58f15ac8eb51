//! The benchmark's statistics: nearest-rank percentiles over one run's
//! samples.
//!
//! Every timed computation (a solve, a pass, a set-up) is reported as
//! the *fastest* of the run's samples. The test host switches between
//! two speeds about 1.8x apart, in phases from a few seconds to minutes
//! long, so a run's mean and median move with the share of samples that
//! landed in the slow phase. The lower quartile stays put only while a
//! quarter of the samples ran in the fast phase, and runs were seen with
//! five in six of their samples in the slow one; the fastest sample
//! stays put as long as any one did. The work is deterministic, so no
//! sample can beat its true cost. Cached HTTP requests are the
//! exception: their fastest times need the client and server threads to
//! be scheduled at once, which is rare, so they are reported as the
//! median of over a thousand requests. Nearest-rank percentiles always
//! return a measured sample, never an interpolation.

/// Percentiles (in permille) the tail statistic may report, highest
/// first.
const TAIL_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `permille` among `n` samples.
fn nearest_rank(permille: u64, n: usize) -> usize {
    let n64 = n as u64;
    let rank = (permille * n64).div_ceil(1000);
    usize::try_from(rank.clamp(1, n64)).unwrap_or(n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank percentile `permille` of `samples`, or `None` when
/// there are none.
#[must_use]
pub fn percentile(samples: &[f64], permille: u64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[nearest_rank(permille, v.len()) - 1])
}

/// The fastest sample: the statistic of timed computations.
#[must_use]
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// The lower quartile (nearest-rank 25th percentile).
#[must_use]
pub fn lower_quartile(samples: &[f64]) -> Option<f64> {
    percentile(samples, 250)
}

/// The median (nearest-rank 50th percentile: the lower middle sample of
/// an even count).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 500)
}

/// A tail percentile: which one, its value, and how many samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile in permille (990 = p99).
    pub permille: u64,
    /// The sample at that nearest rank.
    pub value: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
}

impl Tail {
    /// The label readers see, e.g. `p99` or `p99.9`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.permille.is_multiple_of(10) {
            format!("p{}", self.permille / 10)
        } else {
            format!("p{}.{}", self.permille / 10, self.permille % 10)
        }
    }
}

/// The highest reportable percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, or `None` when the run has too few samples for
/// even the median to qualify.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_PERMILLE.iter().find_map(|&permille| {
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(permille, n);
        let beyond = n - rank;
        (beyond >= TAIL_BEYOND).then(|| Tail {
            permille,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// What the benchmark prints for one sampled timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The statistic of timed computations.
    pub fastest: f64,
    /// For readers.
    pub lower_quartile: f64,
    /// The statistic of cached requests; for readers elsewhere.
    pub median: f64,
    /// For readers; `None` below twenty samples.
    pub tail: Option<Tail>,
}

impl Summary {
    /// Summarizes `samples`, or `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: samples.len(),
            fastest: fastest(samples)?,
            lower_quartile: lower_quartile(samples)?,
            median: median(samples)?,
            tail: tail(samples),
        })
    }

    /// One line for readers: `name: fastest=.. q1=.. median=.. p95=.. n=..`.
    #[must_use]
    pub fn line(&self, name: &str, unit: &str) -> String {
        let tail = self.tail.map_or_else(
            || "tail=n/a".to_owned(),
            |t| format!("{}={:.4} {unit} ({} beyond)", t.label(), t.value, t.beyond),
        );
        format!(
            "{name}: fastest={:.4} {unit} q1={:.4} {unit} median={:.4} {unit} {tail} n={}",
            self.fastest, self.lower_quartile, self.median, self.n
        )
    }
}
