//! Model check for the result cache's insert / FIFO-evict / hit protocol.
//!
//! `ResultCache::store` does its contains-check, insert, order push, FIFO
//! eviction and resident-byte bookkeeping **under a single `inner` mutex
//! critical section** (see `src/cache.rs`) — that is the entire argument
//! for why the `map` and the `order` queue can never disagree, why the
//! cache never exceeds its cap, why two threads storing the same key
//! cannot double-insert, and why the byte total a scrape reads always
//! equals the sum over the resident entries.
//! These models verify the argument under every interleaving of
//! concurrent storers racing a reader hitting the about-to-be-evicted
//! key, via the vendored mini-loom explorer: one model step = one
//! critical section of the production protocol. A deliberately racy twin
//! (contains-check and insert as two separate critical sections) proves
//! the explorer finds the duplicate-entry bug that split would create.

use loom::model::{explore, Model};

/// Resident bytes of the run stored under `key` (distinct per key, so a
/// total that counts the wrong entries cannot match by accident).
fn run_bytes(key: u64) -> u64 {
    1000 + key
}

/// The byte-total invariant: `bytes` equals the sum over `resident`.
fn check_bytes(bytes: u64, resident: &[u64]) -> Result<(), String> {
    let sum: u64 = resident.iter().map(|&k| run_bytes(k)).sum();
    if bytes != sum {
        return Err(format!(
            "byte total {bytes} != {sum} summed over resident keys {resident:?}"
        ));
    }
    Ok(())
}

/// Faithful model: each storer inserts its key, pushes it on the FIFO
/// order queue, and evicts past the cap — adding and subtracting resident
/// bytes as it goes — in ONE atomic step, mirroring `store`; the reader thread performs one `lookup` of `hit_key` (also a
/// single critical section) at an arbitrary point in the race.
struct CacheProtocol {
    /// Key stored by thread `t` (duplicates model same-key races).
    store_keys: Vec<u64>,
    cap: usize,
    /// The key the reader looks up concurrently.
    hit_key: u64,
}

#[derive(Default)]
struct CacheState {
    /// Keys resident, insertion order preserved (models `map` + `order`
    /// together; the invariant checks they cannot diverge).
    map: Vec<u64>,
    order: Vec<u64>,
    /// The resident-byte total `store` maintains.
    bytes: u64,
    stored: Vec<bool>,
    reader_done: bool,
    hits: u64,
    misses: u64,
}

impl CacheProtocol {
    fn reader_thread(&self) -> usize {
        self.store_keys.len()
    }
}

impl Model for CacheProtocol {
    type State = CacheState;

    fn init(&self) -> CacheState {
        CacheState {
            stored: vec![false; self.store_keys.len()],
            ..CacheState::default()
        }
    }

    fn threads(&self) -> usize {
        self.store_keys.len() + 1
    }

    fn done(&self, s: &CacheState, t: usize) -> bool {
        if t == self.reader_thread() {
            s.reader_done
        } else {
            s.stored[t]
        }
    }

    fn step(&self, s: &mut CacheState, t: usize) {
        if t == self.reader_thread() {
            // One `lookup` critical section: probe, bump one counter.
            if s.map.contains(&self.hit_key) {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
            s.reader_done = true;
            return;
        }
        // One `store` critical section: contains-check, insert, push,
        // FIFO-evict, byte bookkeeping — indivisible, exactly like the
        // production mutex.
        let key = self.store_keys[t];
        if !s.map.contains(&key) {
            s.bytes += run_bytes(key);
            s.map.push(key);
            s.order.push(key);
            while s.map.len() > self.cap {
                let oldest = s.order.remove(0);
                s.map.retain(|&k| k != oldest);
                s.bytes -= run_bytes(oldest);
            }
        }
        s.stored[t] = true;
    }

    fn invariant(&self, s: &CacheState) -> Result<(), String> {
        if s.map.len() > self.cap {
            return Err(format!(
                "cache over cap: {} resident > {}",
                s.map.len(),
                self.cap
            ));
        }
        if s.map.len() != s.order.len() {
            return Err(format!(
                "map/order diverged: {} resident vs {} queued for eviction",
                s.map.len(),
                s.order.len()
            ));
        }
        check_bytes(s.bytes, &s.map)
    }

    fn final_check(&self, s: &CacheState) -> Result<(), String> {
        if s.hits + s.misses != 1 {
            return Err(format!(
                "one lookup must count exactly once: {} hits + {} misses",
                s.hits, s.misses
            ));
        }
        let mut distinct = self.store_keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if s.map.len() != distinct.len().min(self.cap) {
            return Err(format!(
                "{} resident after storing {} distinct keys with cap {}",
                s.map.len(),
                distinct.len(),
                self.cap
            ));
        }
        // FIFO: the last key to be inserted is never the one evicted.
        if let Some(newest) = s.order.last() {
            if !s.map.contains(newest) {
                return Err("newest insertion was evicted".to_string());
            }
        }
        Ok(())
    }
}

#[test]
fn eviction_racing_a_hit_on_the_evicted_key_is_safe_in_every_schedule() {
    // Three storers fill a cap-2 cache (the third insert FIFO-evicts the
    // oldest resident) while the reader hits key 1 — which is evicted in
    // some schedules and resident in others. Every interleaving must keep
    // map/order consistent and count the lookup exactly once.
    let report = explore(&CacheProtocol {
        store_keys: vec![1, 2, 3],
        cap: 2,
        hit_key: 1,
    });
    report.assert_complete();
    // Four threads, one atomic step each: all 4! orders.
    assert_eq!(report.schedules, 24);
}

#[test]
fn same_key_storers_never_double_insert() {
    // Two threads store the *same* key (first writer wins — results are
    // deterministic, so losing the race is harmless) while the reader
    // looks it up. The single critical section makes the second insert a
    // no-op in every schedule.
    let report = explore(&CacheProtocol {
        store_keys: vec![7, 7],
        cap: 2,
        hit_key: 7,
    });
    report.assert_complete();
    assert_eq!(report.schedules, 6);
}

/// The racy twin: contains-check and insert as two separate critical
/// sections. Two storers of the same key both pass the check before
/// either inserts; both then insert, and the FIFO queue gains a
/// duplicate entry for a single resident key — the map/order divergence
/// the production code's single-critical-section comment is about.
struct RacyCache {
    storers: usize,
    key: u64,
}

#[derive(Default)]
struct RacyState {
    map: Vec<u64>,
    order: Vec<u64>,
    /// Threads that passed the contains-check but have not inserted yet.
    checked: Vec<bool>,
    stored: Vec<bool>,
}

impl Model for RacyCache {
    type State = RacyState;

    fn init(&self) -> RacyState {
        RacyState {
            checked: vec![false; self.storers],
            stored: vec![false; self.storers],
            ..RacyState::default()
        }
    }

    fn threads(&self) -> usize {
        self.storers
    }

    fn done(&self, s: &RacyState, t: usize) -> bool {
        s.stored[t]
    }

    fn step(&self, s: &mut RacyState, t: usize) {
        if !s.checked[t] {
            // Critical section 1: the contains-check.
            if s.map.contains(&self.key) {
                s.stored[t] = true; // someone else already stored it
            } else {
                s.checked[t] = true;
            }
        } else {
            // Critical section 2: the insert — presence re-checked never.
            // A HashMap insert of a present key overwrites (map stays at
            // one entry) but the order queue gains a second entry.
            if !s.map.contains(&self.key) {
                s.map.push(self.key);
            }
            s.order.push(self.key);
            s.stored[t] = true;
        }
    }

    fn invariant(&self, s: &RacyState) -> Result<(), String> {
        if s.map.len() != s.order.len() {
            return Err(format!(
                "map/order diverged: {} resident vs {} queued for eviction",
                s.map.len(),
                s.order.len()
            ));
        }
        Ok(())
    }
}

#[test]
fn explorer_finds_the_split_check_insert_duplicate_entry() {
    let report = explore(&RacyCache { storers: 2, key: 7 });
    let v = report
        .violation
        .expect("split contains-check/insert must double-queue under some schedule");
    assert!(v.message.contains("map/order diverged"), "{}", v.message);
    assert!(!v.schedule.is_empty());
}
