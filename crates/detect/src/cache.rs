//! Process-wide cache of calibrated threshold tables.
//!
//! Offline Monte-Carlo calibration dominates the startup cost of every
//! [`ChangePointDetector`](crate::ChangePointDetector). Experiment
//! harnesses construct hundreds of identically configured detectors
//! (one per simulated run), each of which would repeat the exact same
//! calibration: the result is a pure function of the calibration
//! configuration, the candidate-ratio grid, and the calibration seed.
//!
//! This module memoizes that function process-wide. Tables are shared as
//! [`Arc`]s, so a thousand detectors constructed from one configuration
//! perform one calibration and share one allocation.
//!
//! # Locking
//!
//! The cache is a **sharded map of per-key entries**. A lookup briefly
//! locks one shard to fetch-or-insert the key's entry, releases it, and
//! then locks only that entry for the duration of its calibration:
//!
//! * concurrent misses on **distinct keys** calibrate concurrently —
//!   a heterogeneous fleet's first wave of detector configs never
//!   queues head-of-line behind one calibration (shard collisions cost
//!   only the brief entry fetch, never the calibration itself);
//! * concurrent misses on the **same key** are deduplicated — the
//!   second requester blocks on the entry until the first finishes,
//!   then counts a hit and receives the shared [`Arc`];
//! * failed calibrations leave the entry empty, so errors keep missing
//!   and never poison the map.
//!
//! f64 key components are hashed by their IEEE-754 bit patterns
//! ([`f64::to_bits`]), so "identical configuration" means *bit*-identical
//! — two configs that differ by one ULP calibrate separately, which is
//! exactly the determinism contract the rest of the workspace relies on.

use crate::calibrate::{CalibrationConfig, ThresholdTable};
use crate::DetectError;
use simcore::par::Jobs;
use simcore::rng::SimRng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: the complete input of the calibration pure function, with
/// floats keyed by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    window: usize,
    k_step: usize,
    confidence_bits: u64,
    trials: usize,
    ratio_bits: Vec<u64>,
    seed: u64,
}

impl CacheKey {
    fn new(ratios: &[f64], config: CalibrationConfig, seed: u64) -> Self {
        CacheKey {
            window: config.window,
            k_step: config.k_step,
            confidence_bits: config.confidence.to_bits(),
            trials: config.trials,
            ratio_bits: ratios.iter().map(|r| r.to_bits()).collect(),
            seed,
        }
    }
}

/// One key's calibration slot. The slot mutex — not the shard mutex —
/// is what a miss holds while calibrating, so only same-key requesters
/// ever wait on a calibration. `None` means "not calibrated yet" (fresh
/// entry, or every calibration so far failed).
#[derive(Default)]
struct Entry {
    table: Mutex<Option<Arc<ThresholdTable>>>,
}

/// Shard count: a small power of two is plenty — the shard lock is held
/// only for a `HashMap` fetch-or-insert, never across calibration, so
/// sharding only has to spread that microsecond-scale critical section.
const SHARD_COUNT: usize = 16;

/// One shard: a plain map from key to its calibration entry.
type Shard = Mutex<HashMap<CacheKey, Arc<Entry>>>;

/// Stable shard selector. `DefaultHasher::new()` is deterministic (the
/// per-`HashMap` random state lives in `RandomState`, not here), so a
/// key maps to the same shard for the lifetime of the process.
fn shard_of(key: &CacheKey) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARD_COUNT
}

/// Recovers a poisoned lock: a panicking calibration (contained by the
/// fleet supervisor's `catch_unwind`) leaves its entry `None`, which is
/// exactly the "not calibrated" state, so later lookups can proceed.
fn relock<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A threshold-table cache with its own statistics. The process shares
/// one instance ([`cached_table`], [`cache_stats_detailed`]); tests
/// build their own, so their counters see only their own lookups.
struct ThresholdCache {
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_nanos: AtomicU64,
    miss_nanos: AtomicU64,
}

impl ThresholdCache {
    fn new() -> ThresholdCache {
        ThresholdCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_nanos: AtomicU64::new(0),
            miss_nanos: AtomicU64::new(0),
        }
    }

    /// See [`cached_table`].
    fn table(
        &self,
        ratios: &[f64],
        config: CalibrationConfig,
        seed: u64,
        jobs: Jobs,
    ) -> Result<Arc<ThresholdTable>, DetectError> {
        let started = std::time::Instant::now();
        let key = CacheKey::new(ratios, config, seed);
        let entry = {
            let mut map = relock(&self.shards[shard_of(&key)]);
            Arc::clone(map.entry(key).or_default())
        };
        // Shard lock released: from here on, only same-key traffic contends.
        let mut slot = relock(&entry.table);
        if let Some(table) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return Ok(Arc::clone(table));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut rng = SimRng::seed_from(seed);
        let table = Arc::new(ThresholdTable::calibrate_jobs(
            ratios, config, &mut rng, jobs,
        )?);
        *slot = Some(Arc::clone(&table));
        self.miss_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Ok(table)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            hit_nanos: self.hit_nanos.load(Ordering::Relaxed),
            miss_nanos: self.miss_nanos.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide instance behind [`cached_table`].
fn process_cache() -> &'static ThresholdCache {
    static PROCESS: OnceLock<ThresholdCache> = OnceLock::new();
    PROCESS.get_or_init(ThresholdCache::new)
}

/// Returns the calibrated table for `(ratios, config, seed)`, calibrating
/// at most once per distinct key for the lifetime of the process.
///
/// Misses on **distinct keys proceed concurrently**: a lookup holds its
/// shard's lock only to fetch-or-insert the key's entry, then calibrates
/// under that entry's own lock. Concurrent requests for the **same** key
/// never duplicate the Monte-Carlo work — the second requester blocks on
/// the entry until the first finishes, counts a hit, and receives the
/// shared [`Arc`]. (Calibration also parallelizes internally via `jobs`.)
///
/// # Errors
///
/// Propagates any [`ThresholdTable::calibrate_jobs`] error; failed
/// calibrations are not cached — the key's entry stays empty and the
/// next lookup calibrates again.
pub fn cached_table(
    ratios: &[f64],
    config: CalibrationConfig,
    seed: u64,
    jobs: Jobs,
) -> Result<Arc<ThresholdTable>, DetectError> {
    process_cache().table(ratios, config, seed, jobs)
}

/// Lifetime threshold-cache statistics, including cumulative latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an already calibrated table.
    pub hits: u64,
    /// Lookups that ran a fresh calibration (successful misses only).
    pub misses: u64,
    /// Wall time spent inside hit lookups, nanoseconds.
    pub hit_nanos: u64,
    /// Wall time spent inside miss lookups (dominated by the
    /// Monte-Carlo calibration itself), nanoseconds.
    pub miss_nanos: u64,
}

impl CacheStats {
    /// Fraction of these lookups that were hits, in `[0, 1]`; `0.0`
    /// when no lookups were recorded.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The activity recorded between `earlier` (a previous
    /// [`cache_stats_detailed`] snapshot) and `self` — how a bounded
    /// region of work (one fleet run, one bench phase) used the cache,
    /// independent of whatever the process did before. Saturating, so a
    /// mismatched snapshot order yields zeros rather than wrapping.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            hit_nanos: self.hit_nanos.saturating_sub(earlier.hit_nanos),
            miss_nanos: self.miss_nanos.saturating_sub(earlier.miss_nanos),
        }
    }
}

/// Lifetime statistics of the process-wide cache, with per-path
/// latency. Successful misses accumulate `miss_nanos`; failed
/// calibrations count as misses but record no latency (they abort
/// before the table is built).
#[must_use]
pub fn cache_stats_detailed() -> CacheStats {
    process_cache().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn quick_config() -> CalibrationConfig {
        CalibrationConfig {
            window: 40,
            k_step: 4,
            confidence: 0.99,
            trials: 200,
        }
    }

    #[test]
    fn repeated_lookups_share_one_table() {
        let cache = ThresholdCache::new();
        let a = cache
            .table(&[2.0, 0.5], quick_config(), 1, Jobs::Count(1))
            .unwrap();
        assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
        let b = cache
            .table(&[2.0, 0.5], quick_config(), 1, Jobs::Count(1))
            .unwrap();
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        assert!(Arc::ptr_eq(&a, &b), "hits share the same allocation");
    }

    #[test]
    fn stats_delta_isolates_a_region_of_work() {
        let cache = ThresholdCache::new();
        let _ = cache.table(&[2.0], quick_config(), 1, Jobs::Count(1));
        let before = cache.stats();
        let _ = cache.table(&[2.0, 4.0], quick_config(), 1, Jobs::Count(1));
        let _ = cache.table(&[2.0, 4.0], quick_config(), 1, Jobs::Count(1));
        let delta = cache.stats().since(&before);
        assert_eq!((delta.hits, delta.misses), (1, 1));
        assert_eq!(delta.hit_ratio(), 0.5);
        // Reversed snapshots saturate to zero instead of wrapping.
        let zero = before.since(&cache.stats());
        assert_eq!((zero.hits, zero.misses), (0, 0));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ThresholdCache::new();
        let a = cache
            .table(&[2.0], quick_config(), 1, Jobs::Count(1))
            .unwrap();
        let b = cache
            .table(&[3.0], quick_config(), 1, Jobs::Count(1))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.ratios(), b.ratios());
        let c = cache
            .table(&[2.0], quick_config(), 2, Jobs::Count(1))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "seed is part of the key");
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn cached_table_matches_direct_calibration() {
        let seed = 0xCAC4_E003;
        let cached = cached_table(&[2.0], quick_config(), seed, Jobs::Count(1)).unwrap();
        let direct = ThresholdTable::calibrate_jobs(
            &[2.0],
            quick_config(),
            &mut SimRng::seed_from(seed),
            Jobs::Count(1),
        )
        .unwrap();
        assert_eq!(*cached, direct);
    }

    #[test]
    fn detailed_stats_track_latency_per_path() {
        let cache = ThresholdCache::new();
        let _ = cache.table(&[2.0, 0.5], quick_config(), 1, Jobs::Count(1));
        let after_miss = cache.stats();
        assert_eq!((after_miss.hits, after_miss.misses), (0, 1));
        assert!(
            after_miss.miss_nanos > 0,
            "a calibration takes measurable time"
        );
        assert_eq!(after_miss.hit_nanos, 0);
        let _ = cache.table(&[2.0, 0.5], quick_config(), 1, Jobs::Count(1));
        let after_hit = cache.stats();
        assert_eq!((after_hit.hits, after_hit.misses), (1, 1));
        assert_eq!(after_hit.miss_nanos, after_miss.miss_nanos);
    }

    #[test]
    fn hit_ratio_reflects_traffic() {
        let cache = ThresholdCache::new();
        assert_eq!(cache.stats().hit_ratio(), 0.0, "no lookups yet");
        for _ in 0..4 {
            let _ = cache.table(&[2.0, 0.5], quick_config(), 1, Jobs::Count(1));
        }
        assert_eq!(cache.stats().hit_ratio(), 0.75);
    }

    #[test]
    fn failed_calibrations_are_not_cached() {
        let cache = ThresholdCache::new();
        for attempt in 1..=3 {
            assert!(cache.table(&[], quick_config(), 1, Jobs::Count(1)).is_err());
            let stats = cache.stats();
            assert_eq!(
                (stats.hits, stats.misses, stats.miss_nanos),
                (0, attempt, 0),
                "errors keep missing, never poison the map"
            );
        }
    }

    /// The regression test for the head-of-line bug this module used to
    /// have: the old design held one global lock across the entire
    /// Monte-Carlo calibration, so a concurrent miss on a *different*
    /// key queued behind it. Here a long calibration (A) and a short one
    /// (B) start together; B must finish while A is still running.
    #[test]
    fn concurrent_misses_on_distinct_keys_overlap() {
        let cache = ThresholdCache::new();
        // A must stay busy far longer than the sleep below plus B's
        // quick calibration, or `a_done` flips before B returns and the
        // test fails without any serialization. The optimized kernel
        // runs a few million trials per second, so size A in the
        // hundreds of milliseconds.
        let long_config = CalibrationConfig {
            window: 80,
            k_step: 8,
            confidence: 0.99,
            trials: 200_000,
        };
        let short_config = quick_config();
        let barrier = Barrier::new(2);
        let a_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                barrier.wait();
                let _ = cache.table(&[2.0], long_config, 1, Jobs::Count(1)).unwrap();
                a_done.store(true, Ordering::SeqCst);
            });
            barrier.wait();
            // Give A time to enter its calibration (it holds only its
            // own entry's lock once inside).
            std::thread::sleep(std::time::Duration::from_millis(10));
            let _ = cache
                .table(&[2.0], short_config, 1, Jobs::Count(1))
                .unwrap();
            assert!(
                !a_done.load(Ordering::SeqCst),
                "short calibration (B) waited for the long one (A) to finish — \
                 distinct-key misses are serializing again"
            );
        });
    }

    /// Same-key concurrent misses must still be deduplicated: exactly
    /// one calibration runs, everyone shares its allocation.
    #[test]
    fn concurrent_same_key_misses_calibrate_once() {
        let cache = ThresholdCache::new();
        let barrier = Barrier::new(4);
        let tables: Vec<Arc<ThresholdTable>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache
                            .table(&[2.0, 0.5], quick_config(), 1, Jobs::Count(1))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (3, 1),
            "same key must calibrate exactly once"
        );
        assert!(tables.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }
}
