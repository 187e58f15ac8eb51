//! Open-loop load generation on a seeded schedule.
//!
//! Requests are due at fixed offsets from the start, whatever the
//! server does. A generator sends one request at a time, so when a
//! response is slow the next requests leave late; each request is
//! therefore timed from when it was *due*, which charges that wait to
//! the latency instead of hiding it, and the generator's own lateness
//! is reported beside it.

use std::time::{Duration, Instant};

/// splitmix64: the benchmark's seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival time with the given mean.
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        let u = 1.0 - self.unit();
        mean.mul_f64(-u.ln())
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned<T> {
    /// Offset from the schedule's start at which it is due.
    pub due: Duration,
    /// What to send.
    pub item: T,
}

/// One sent request.
#[derive(Debug, Clone, PartialEq)]
pub struct Sent<R> {
    /// How late the generator sent it.
    pub late: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
    /// What the send returned.
    pub result: R,
}

/// A Poisson arrival schedule of `mean` spacing over `span`, each
/// request's item drawn by `pick`.
pub fn poisson<T>(
    rng: &mut Rng,
    mean: Duration,
    span: Duration,
    mut pick: impl FnMut(&mut Rng) -> T,
) -> Vec<Planned<T>> {
    let mut plan = Vec::new();
    let mut due = rng.exponential(mean);
    while due < span {
        let item = pick(rng);
        plan.push(Planned { due, item });
        due += rng.exponential(mean);
    }
    plan
}

/// Sends `plan` in order from one generator: waits for each request's
/// due time (never sleeping past it), sends it with its index, and
/// times it from the due time.
pub fn run_open_loop<T, R>(
    start: Instant,
    plan: &[Planned<T>],
    mut send: impl FnMut(usize, &Planned<T>) -> R,
) -> Vec<Sent<R>> {
    plan.iter()
        .enumerate()
        .map(|(i, p)| {
            let due = start + p.due;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            let result = send(i, p);
            Sent {
                late,
                latency: Instant::now().saturating_duration_since(due),
                result,
            }
        })
        .collect()
}
