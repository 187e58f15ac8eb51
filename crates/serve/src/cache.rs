//! Sharded, content-addressed LRU cache with single-flight
//! deduplication.
//!
//! Keys are 128-bit content addresses (see [`ia_rank::canon`]); values
//! are whatever summary the caller wants to memoize. The map is split
//! into a fixed number of shards, each behind its own mutex, so
//! concurrent requests for different keys rarely contend.
//!
//! [`SolveCache::get_or_compute`] is the heart of the server: the
//! first caller for a key computes the value with no lock held while
//! later callers for the same key block on a per-key *flight* and
//! receive the same result — a burst of N identical requests performs
//! exactly one solve.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// How a [`SolveCache::get_or_compute`] call was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already cached.
    Hit,
    /// This caller computed the value.
    Miss,
    /// Another in-flight caller computed the value; this caller waited
    /// for it (single-flight deduplication).
    Shared,
}

impl CacheOutcome {
    /// The outcome's wire label (`hit`, `miss` or `shared`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Shared => "shared",
        }
    }
}

/// The state of one in-flight computation.
enum FlightState<V> {
    /// The first caller is still computing.
    Pending,
    /// The computation finished with this result.
    Done(Result<V, String>),
}

/// One in-flight computation: later callers for the same key wait on
/// the condvar until the first caller publishes a result.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

struct Entry<V> {
    value: V,
    /// Recency stamp; larger = more recently used.
    tick: u64,
}

struct Shard<V> {
    entries: HashMap<u128, Entry<V>>,
    /// Recency index: tick -> key, oldest first. Ticks are unique per
    /// shard so this is a faithful LRU order.
    order: BTreeMap<u64, u128>,
    next_tick: u64,
    inflight: HashMap<u128, Arc<Flight<V>>>,
}

impl<V> Shard<V> {
    fn new() -> Self {
        Shard {
            entries: HashMap::new(),
            order: BTreeMap::new(),
            next_tick: 0,
            inflight: HashMap::new(),
        }
    }

    fn touch(&mut self, key: u128) {
        if let Some(entry) = self.entries.get_mut(&key) {
            self.order.remove(&entry.tick);
            entry.tick = self.next_tick;
            self.order.insert(self.next_tick, key);
            self.next_tick += 1;
        }
    }
}

/// A sharded LRU keyed by content address, with per-key single-flight
/// computation. `V` is cloned out on every hit, so it should be a
/// small summary struct.
pub struct SolveCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard capacity ceiling (total capacity / shard count,
    /// rounded up, minimum 1).
    shard_capacity: usize,
}

const SHARD_COUNT: usize = 8;

fn lock<'a, V>(shard: &'a Mutex<Shard<V>>) -> MutexGuard<'a, Shard<V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<V: Clone> SolveCache<V> {
    /// Creates a cache holding roughly `capacity` entries (split
    /// evenly across shards; a zero capacity still holds one entry per
    /// shard so the single-flight path stays useful).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = std::cmp::max(1, capacity.div_ceil(SHARD_COUNT));
        let shards = (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect();
        SolveCache {
            shards,
            shard_capacity,
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard<V>> {
        // The key is already a uniform hash; the top bits pick a shard
        // while the map inside re-hashes the whole key.
        let index = (key >> 125) as usize % self.shards.len();
        &self.shards[index]
    }

    /// The number of cached entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` up, refreshing its recency on a hit.
    #[must_use]
    pub fn lookup(&self, key: u128) -> Option<V> {
        let mut shard = lock(self.shard(key));
        let value = shard.entries.get(&key).map(|e| e.value.clone());
        if value.is_some() {
            shard.touch(key);
        }
        value
    }

    /// Inserts `key`, evicting least-recently-used entries if the
    /// shard is over capacity. Returns how many entries were evicted.
    pub fn insert(&self, key: u128, value: V) -> u64 {
        let mut shard = lock(self.shard(key));
        self.insert_locked(&mut shard, key, value)
    }

    fn insert_locked(&self, shard: &mut Shard<V>, key: u128, value: V) -> u64 {
        if shard.entries.contains_key(&key) {
            shard.touch(key);
            if let Some(entry) = shard.entries.get_mut(&key) {
                entry.value = value;
            }
            return 0;
        }
        let tick = shard.next_tick;
        shard.next_tick += 1;
        shard.entries.insert(key, Entry { value, tick });
        shard.order.insert(tick, key);
        let mut evicted = 0;
        while shard.entries.len() > self.shard_capacity {
            let oldest = shard.order.iter().next().map(|(&t, &k)| (t, k));
            match oldest {
                Some((t, k)) => {
                    shard.order.remove(&t);
                    shard.entries.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Returns the cached value for `key`, or computes it exactly once
    /// across all concurrent callers.
    ///
    /// The computation runs with no shard lock held. If it fails, the
    /// error is propagated to every caller that shared the flight and
    /// nothing is cached. The second tuple element reports how this
    /// call was answered, and the third how many entries a successful
    /// insert evicted.
    ///
    /// # Errors
    ///
    /// Propagates the error produced by `compute` (including to
    /// callers that waited on a shared flight).
    pub fn get_or_compute<F>(&self, key: u128, compute: F) -> Result<(V, CacheOutcome, u64), String>
    where
        F: FnOnce() -> Result<V, String>,
    {
        let flight = {
            let mut shard = lock(self.shard(key));
            if let Some(entry) = shard.entries.get(&key) {
                let value = entry.value.clone();
                shard.touch(key);
                return Ok((value, CacheOutcome::Hit, 0));
            }
            if let Some(flight) = shard.inflight.get(&key) {
                Some(Arc::clone(flight))
            } else {
                let flight = Arc::new(Flight {
                    state: Mutex::new(FlightState::Pending),
                    done: Condvar::new(),
                });
                shard.inflight.insert(key, Arc::clone(&flight));
                None
            }
        };

        if let Some(flight) = flight {
            // Another caller owns the computation; wait for it.
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*state {
                    FlightState::Done(Ok(value)) => {
                        return Ok((value.clone(), CacheOutcome::Shared, 0));
                    }
                    FlightState::Done(Err(message)) => return Err(message.clone()),
                    FlightState::Pending => {
                        state = flight
                            .done
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }

        // This caller owns the flight: compute with no lock held.
        let result = compute();
        let mut shard = lock(self.shard(key));
        let flight = shard.inflight.remove(&key);
        let evicted = match &result {
            Ok(value) => self.insert_locked(&mut shard, key, value.clone()),
            Err(_) => 0,
        };
        drop(shard);
        if let Some(flight) = flight {
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            *state = FlightState::Done(result.clone());
            drop(state);
            flight.done.notify_all();
        }
        result.map(|value| (value, CacheOutcome::Miss, evicted))
    }
}

impl<V: Clone> std::fmt::Debug for SolveCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("len", &self.len())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hit_after_miss_and_outcome_labels() {
        let cache: SolveCache<u64> = SolveCache::new(16);
        let (v, outcome, _) = cache.get_or_compute(1, || Ok(41)).unwrap();
        assert_eq!((v, outcome), (41, CacheOutcome::Miss));
        let (v, outcome, _) = cache.get_or_compute(1, || Ok(99)).unwrap();
        assert_eq!((v, outcome), (41, CacheOutcome::Hit));
        assert_eq!(CacheOutcome::Shared.label(), "shared");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: SolveCache<u64> = SolveCache::new(16);
        assert!(cache.get_or_compute(7, || Err("boom".to_owned())).is_err());
        assert_eq!(cache.len(), 0);
        let (v, outcome, _) = cache.get_or_compute(7, || Ok(1)).unwrap();
        assert_eq!((v, outcome), (1, CacheOutcome::Miss));
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        // Capacity 8 -> one entry per shard. Two keys landing in the
        // same shard (same top bits) must evict the older one.
        let cache: SolveCache<u64> = SolveCache::new(8);
        let a = 0u128;
        let b = 1u128; // same shard as `a` (top bits equal)
        assert_eq!(cache.insert(a, 10), 0);
        assert_eq!(cache.insert(b, 20), 1);
        assert!(cache.lookup(a).is_none());
        assert_eq!(cache.lookup(b), Some(20));
    }

    #[test]
    fn touch_on_lookup_protects_recent_entries() {
        let cache: SolveCache<u64> = SolveCache::new(16); // 2 per shard
        let (a, b, c) = (0u128, 1u128, 2u128); // one shard
        cache.insert(a, 1);
        cache.insert(b, 2);
        assert_eq!(cache.lookup(a), Some(1)); // refresh a
        cache.insert(c, 3); // evicts b, not a
        assert_eq!(cache.lookup(a), Some(1));
        assert!(cache.lookup(b).is_none());
        assert_eq!(cache.lookup(c), Some(3));
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let cache: SolveCache<u64> = SolveCache::new(64);
        let computes = AtomicU64::new(0);
        let outcomes = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(scope.spawn(|| {
                    cache.get_or_compute(42, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the
                        // other threads to pile onto it.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(7)
                    })
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        let mut miss = 0;
        for outcome in outcomes {
            let (v, o, _) = outcome.unwrap();
            assert_eq!(v, 7);
            if o == CacheOutcome::Miss {
                miss += 1;
            }
        }
        assert_eq!(miss, 1, "exactly one caller reports the miss");
    }
}
