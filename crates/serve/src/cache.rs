//! The result cache: identical requests never recompute.
//!
//! Interactive profiling workloads re-run the same configurations over the
//! same datasets; a completed run is therefore stored under
//! `(dataset fingerprint, canonicalized config)` and replayed — result
//! JSON, final stats JSON and the full NDJSON event log — without touching
//! the engine. Only **complete** runs are cached: partial results
//! (cancelled / timed-out / top-k-stopped) depend on when the interruption
//! landed, so caching them would serve non-deterministic answers.
//! (`max_level`-capped runs are complete *up to that level* and the level
//! cap is part of the canonical config, so they cache fine.)
//!
//! Hit/miss counters feed `GET /stats`, which is how the acceptance test
//! asserts "served from cache without re-validating". The resident bytes
//! of every entry's payloads are summed on store and on evict, inside the
//! same critical section, so `cache_bytes` in `/stats` and the
//! `aod_serve_cache_bytes` gauge cost O(1) per scrape.
//!
//! The cache is bounded ([`MAX_CACHED_RUNS`], FIFO eviction): a resident
//! server sweeping configs must not grow without bound. The key includes
//! the dataset *name* in addition to its content fingerprint, so a
//! 64-bit fingerprint collision between two different datasets can never
//! serve one dataset's results for the other; the fingerprint in turn
//! protects against a name being deregistered and re-registered with
//! different content.

use crate::sync::lock_or_recover;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum completed runs retained; beyond it the oldest entry is evicted.
pub const MAX_CACHED_RUNS: usize = 256;

/// Cache key: dataset name + content fingerprint + canonicalized config.
pub type CacheKey = (String, u64, String);

/// Everything needed to replay a completed run without recomputation.
#[derive(Debug)]
pub struct CachedRun {
    /// The NDJSON event log: every serialized event followed by `'\n'`,
    /// exactly the bytes `GET /jobs/{id}/events` sends. Shared with the
    /// job that produced it and with every job answered from this entry.
    pub events: Arc<String>,
    /// Lines (events) in `events`.
    pub n_events: usize,
    /// `DiscoveryResult::to_json` of the completed run.
    pub result_json: Arc<String>,
    /// `DiscoveryStats::to_json` of the completed run.
    pub stats_json: Arc<String>,
    /// Lattice levels the run completed.
    pub levels_completed: usize,
}

impl CachedRun {
    /// Bytes of the payloads this entry keeps resident: event log, result
    /// JSON and stats JSON.
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.events.len() + self.result_json.len() + self.stats_json.len()) as u64
    }
}

/// Thread-safe bounded key → completed-run map with counters.
#[derive(Debug, Default)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, Arc<CachedRun>>,
    /// Insertion order, for FIFO eviction at [`MAX_CACHED_RUNS`].
    order: VecDeque<CacheKey>,
    /// Sum of [`CachedRun::resident_bytes`] over `map`.
    bytes: u64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Looks up a completed run, bumping the hit/miss counters.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedRun>> {
        let found = lock_or_recover(&self.inner).map.get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a completed run (first writer wins; identical by
    /// determinism, so losing a race is harmless), evicting the oldest
    /// entry beyond [`MAX_CACHED_RUNS`].
    pub fn store(&self, key: CacheKey, run: CachedRun) {
        let mut inner = lock_or_recover(&self.inner);
        if inner.map.contains_key(&key) {
            return;
        }
        inner.bytes += run.resident_bytes();
        inner.map.insert(key.clone(), Arc::new(run));
        inner.order.push_back(key);
        while inner.map.len() > MAX_CACHED_RUNS {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&oldest) {
                inner.bytes -= evicted.resident_bytes();
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.inner).map.len()
    }

    /// Resident bytes of every cached run's payloads (see
    /// [`CachedRun::resident_bytes`]).
    pub fn bytes(&self) -> u64 {
        lock_or_recover(&self.inner).bytes
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> CachedRun {
        CachedRun {
            events: Arc::new("{\"event\":\"x\"}\n".to_string()),
            n_events: 1,
            result_json: Arc::new("{}".to_string()),
            stats_json: Arc::new("{}".to_string()),
            levels_completed: 3,
        }
    }

    fn key(name: &str, fp: u64, cfg: &str) -> CacheKey {
        (name.to_string(), fp, cfg.to_string())
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = ResultCache::new();
        let k = key("d", 42, "{\"mode\":\"exact\"}");
        assert!(cache.lookup(&k).is_none());
        cache.store(k.clone(), run());
        let got = cache.lookup(&k).unwrap();
        assert_eq!(got.levels_completed, 3);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_names_configs_and_fingerprints_miss() {
        let cache = ResultCache::new();
        cache.store(key("d", 1, "a"), run());
        assert!(cache.lookup(&key("d", 1, "b")).is_none());
        assert!(cache.lookup(&key("d", 2, "a")).is_none());
        assert!(cache.lookup(&key("e", 1, "a")).is_none());
        assert!(cache.lookup(&key("d", 1, "a")).is_some());
    }

    #[test]
    fn oldest_entries_are_evicted_beyond_the_cap() {
        let cache = ResultCache::new();
        // Logs of distinct lengths, so the byte total tells which entries
        // it still counts.
        let sized = |i: usize| CachedRun {
            events: Arc::new("e\n".repeat(i)),
            n_events: i,
            ..run()
        };
        for i in 0..(MAX_CACHED_RUNS + 10) {
            cache.store(key("d", i as u64, "cfg"), sized(i));
            cache.store(key("d", i as u64, "cfg"), sized(i)); // no-op repeat
        }
        assert_eq!(cache.len(), MAX_CACHED_RUNS);
        let resident: u64 = (10..MAX_CACHED_RUNS + 10)
            .map(|i| sized(i).resident_bytes())
            .sum();
        assert_eq!(cache.bytes(), resident);
        assert!(cache.lookup(&key("d", 0, "cfg")).is_none()); // evicted
        assert!(cache
            .lookup(&key("d", (MAX_CACHED_RUNS + 9) as u64, "cfg"))
            .is_some());
    }
}
