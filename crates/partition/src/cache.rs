//! A level-aware cache of computed partitions.
//!
//! The level-wise discovery driver needs, while processing lattice level `ℓ`:
//!
//! * `Π_X` for each level-`ℓ` node `X` (built by refining one cached
//!   level-`ℓ−1` parent by the column it lacks),
//! * `Π_{X\{A,B}}` (level `ℓ−2`) as the *context* partition for OC
//!   candidates at node `X`.
//!
//! Anything below level `ℓ−2` can be dropped — [`PartitionCache::retain_min_level`]
//! implements that eviction so peak memory stays at two lattice levels
//! rather than the whole lattice.
//!
//! ## Frozen view vs. pending writes
//!
//! For the parallel per-level validator the cache is split in two:
//!
//! * a **frozen** map behind an `Arc` — the partitions of completed
//!   levels. [`PartitionCache::freeze`] publishes every pending write into
//!   it and hands out a [`FrozenPartitions`] handle, a cheap `Clone +
//!   Send + Sync` read view that worker threads probe lock-free while the
//!   level runs;
//! * a **pending** map — everything written since the last freeze (the
//!   next level's partitions, merged back from per-worker shards at the
//!   level barrier via [`PartitionCache::insert_product`]).
//!
//! Single-threaded callers never notice the split: [`PartitionCache::get`]
//! reads through both maps and [`PartitionCache::product_into`] writes to
//! the pending side exactly as before.

use crate::attrset::{AttrSet, AttrSetMap};
use crate::stripped::{Partition, RefineScratch};
use aod_table::RankedTable;
use std::sync::Arc;

/// Cache of `AttrSet → Partition` with level-based eviction.
#[derive(Debug, Default)]
pub struct PartitionCache {
    /// Completed levels, shared read-only with worker threads.
    frozen: Arc<AttrSetMap<Partition>>,
    /// Writes since the last [`freeze`](PartitionCache::freeze). Invariant:
    /// disjoint from `frozen`'s keys.
    pending: AttrSetMap<Partition>,
    scratch: RefineScratch,
    /// Statistics: partitions built from a parent (for experiment
    /// reporting; still called products after TANE's operation).
    n_products: u64,
}

impl PartitionCache {
    /// An empty cache.
    pub fn new() -> PartitionCache {
        PartitionCache::default()
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.frozen.len() + self.pending.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.frozen.is_empty() && self.pending.is_empty()
    }

    /// Number of partitions built from a cached parent so far.
    pub fn n_products(&self) -> u64 {
        self.n_products
    }

    /// Looks up a cached partition (pending writes shadow nothing: the two
    /// maps are key-disjoint).
    pub fn get(&self, set: AttrSet) -> Option<&Partition> {
        self.pending.get(&set).or_else(|| self.frozen.get(&set))
    }

    fn contains(&self, set: AttrSet) -> bool {
        self.pending.contains_key(&set) || self.frozen.contains_key(&set)
    }

    /// Inserts a partition computed elsewhere. A set already cached is left
    /// untouched — partitions are canonical per attribute set, so the
    /// existing value is identical.
    pub fn insert(&mut self, set: AttrSet, partition: Partition) {
        if !self.contains(set) {
            self.pending.insert(set, partition);
        }
    }

    /// Inserts one product computed by a parallel worker, counting it in
    /// [`n_products`](PartitionCache::n_products). This is the merge half
    /// of the freeze/merge protocol: workers refine parents from a
    /// [`FrozenPartitions`] view with private [`RefineScratch`], and the
    /// driver merges the shards through this method at the level barrier
    /// (in deterministic node order, though the cache itself is
    /// order-insensitive).
    pub fn insert_product(&mut self, set: AttrSet, partition: Partition) {
        self.n_products += 1;
        if !self.contains(set) {
            self.pending.insert(set, partition);
        }
    }

    /// Publishes all pending writes into the frozen map and returns a
    /// shared read view of **everything** cached so far.
    ///
    /// The returned handle keeps the published partitions alive even
    /// across [`retain_min_level`](PartitionCache::retain_min_level) /
    /// [`clear`](PartitionCache::clear); drop it before the next mutation
    /// to keep those operations allocation-free (a live view forces one
    /// copy-on-write of the frozen map).
    pub fn freeze(&mut self) -> FrozenPartitions {
        if !self.pending.is_empty() {
            let frozen = Arc::make_mut(&mut self.frozen);
            // aod-lint: allow(D1) -- drained into another keyed map; iteration order is never observed
            frozen.extend(self.pending.drain());
        }
        FrozenPartitions {
            map: Arc::clone(&self.frozen),
        }
    }

    /// Computes (and caches) `Π_{lhs ∪ rhs}`, the product of two lattice
    /// parents, by refining the cached `Π_rhs` by the one column of `lhs`
    /// that `rhs` lacks. `Π_lhs` itself is not read.
    ///
    /// # Panics
    /// If `rhs` is missing from the cache — the level-wise driver
    /// guarantees parents are present before children are built — or
    /// `lhs` adds more than one column to `rhs`.
    pub fn product_into(&mut self, table: &RankedTable, lhs: AttrSet, rhs: AttrSet) -> &Partition {
        let target = lhs.union(rhs);
        if !self.contains(target) {
            let added = lhs.difference(rhs);
            assert_eq!(added.len(), 1, "lhs must add exactly one column to rhs");
            let p = self.refine(table, rhs, added.first().expect("one column"));
            self.pending.insert(target, p);
        }
        self.get(target).expect("just ensured")
    }

    /// Ensures `Π_X` is cached, computing it bottom-up from singleton
    /// columns if needed. Used by one-off validation entry points; the
    /// discovery driver populates the cache level-wise instead.
    pub fn ensure(&mut self, table: &RankedTable, set: AttrSet) -> &Partition {
        if !self.contains(set) {
            let partition = self.build(table, set);
            self.pending.insert(set, partition);
        }
        self.get(set).expect("just ensured")
    }

    fn build(&mut self, table: &RankedTable, set: AttrSet) -> Partition {
        match set.len() {
            0 => Partition::unit(table.n_rows()),
            1 => Partition::from_ranked_column(table.column(set.first().expect("non-empty"))),
            _ => {
                let a = set.first().expect("non-empty");
                let rest = set.without(a);
                // Build (and cache) the parent first, then refine it by `a`.
                if !self.contains(rest) {
                    let p = self.build(table, rest);
                    self.pending.insert(rest, p);
                }
                self.refine(table, rest, a)
            }
        }
    }

    /// `Π_parent` (which must be cached) refined by column `attr`,
    /// counted as one product.
    fn refine(&mut self, table: &RankedTable, parent: AttrSet, attr: usize) -> Partition {
        self.n_products += 1;
        // Field-level lookups keep the immutable map borrows disjoint
        // from the `&mut self.scratch` borrow below.
        let p = self
            .pending
            .get(&parent)
            .or_else(|| self.frozen.get(&parent))
            .expect("parent partition must be cached");
        let col = table.column(attr);
        p.refine_with_scratch(col.ranks(), col.n_distinct(), &mut self.scratch)
    }

    /// Drops all cached partitions of level `< min_level`.
    pub fn retain_min_level(&mut self, min_level: usize) {
        // aod-lint: allow(D1) -- retain by per-key predicate, order-insensitive
        self.pending.retain(|set, _| set.len() >= min_level);
        // aod-lint: allow(D1) -- existence check (`any`), order-insensitive
        if self.frozen.keys().any(|set| set.len() < min_level) {
            Arc::make_mut(&mut self.frozen).retain(|set, _| set.len() >= min_level);
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.pending.clear();
        if !self.frozen.is_empty() {
            Arc::make_mut(&mut self.frozen).clear();
        }
    }

    /// The attribute sets currently cached, in no particular order. Used
    /// by the eviction-invariant tests to assert peak residency stays at
    /// two lattice levels.
    pub fn cached_sets(&self) -> Vec<AttrSet> {
        self.frozen
            .keys()
            // aod-lint: allow(D1) -- documented unordered; the eviction tests sort before comparing
            .chain(self.pending.keys())
            .copied()
            .collect()
    }

    /// Approximate resident bytes of cached partitions (for memory
    /// reporting in experiments).
    pub fn approx_bytes(&self) -> usize {
        self.frozen
            .values()
            // aod-lint: allow(D1) -- commutative sum over values, order-insensitive
            .chain(self.pending.values())
            .map(|p| p.n_grouped_rows() * 4 + (p.n_classes() + 1) * 4)
            .sum()
    }
}

/// A frozen, `Arc`-shared read view of a [`PartitionCache`].
///
/// Produced by [`PartitionCache::freeze`]; cloning is one atomic
/// increment, and lookups are plain hash-map probes with no locking —
/// worker threads of the parallel validator each hold (or borrow) one
/// while a lattice level runs. The view is a snapshot: writes to the
/// cache after the freeze are not visible through it.
#[derive(Debug, Clone, Default)]
pub struct FrozenPartitions {
    map: Arc<AttrSetMap<Partition>>,
}

impl FrozenPartitions {
    /// Looks up a partition in the snapshot.
    pub fn get(&self, set: AttrSet) -> Option<&Partition> {
        self.map.get(&set)
    }

    /// Number of partitions in the snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    fn ranked() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    #[test]
    fn ensure_builds_recursively() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        let set = AttrSet::from_attrs([0, 1, 3]);
        let p = cache.ensure(&r, set).clone();
        let direct = Partition::for_attrs(&r, [0, 1, 3]);
        assert_eq!(p.n_classes(), direct.n_classes());
        assert_eq!(p.n_grouped_rows(), direct.n_grouped_rows());
        // The build refines {3} by 1, then {1,3} by 0 — the same chain as
        // `for_attrs` over [3, 1, 0], so even the class order agrees.
        assert_eq!(p, Partition::for_attrs(&r, [3, 1, 0]));
        // Intermediate results are cached too.
        assert!(cache.get(AttrSet::from_attrs([1, 3])).is_some());
        assert!(cache.get(AttrSet::singleton(3)).is_some());
    }

    #[test]
    fn product_into_caches_target() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.ensure(&r, AttrSet::singleton(0));
        cache.ensure(&r, AttrSet::singleton(3));
        let before = cache.n_products();
        cache.product_into(&r, AttrSet::singleton(0), AttrSet::singleton(3));
        assert_eq!(cache.n_products(), before + 1);
        // second call is a cache hit
        cache.product_into(&r, AttrSet::singleton(0), AttrSet::singleton(3));
        assert_eq!(cache.n_products(), before + 1);
        let direct = Partition::for_attrs(&r, [3, 0]);
        assert_eq!(cache.get(AttrSet::from_attrs([0, 3])), Some(&direct));
    }

    #[test]
    fn eviction_by_level() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.ensure(&r, AttrSet::EMPTY);
        cache.ensure(&r, AttrSet::singleton(0));
        cache.ensure(&r, AttrSet::from_attrs([0, 1]));
        cache.ensure(&r, AttrSet::from_attrs([0, 1, 3]));
        cache.retain_min_level(2);
        assert!(cache.get(AttrSet::EMPTY).is_none());
        assert!(cache.get(AttrSet::singleton(0)).is_none());
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        assert!(cache.get(AttrSet::from_attrs([0, 1, 3])).is_some());
    }

    #[test]
    fn eviction_reaches_frozen_partitions_too() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.ensure(&r, AttrSet::EMPTY);
        cache.ensure(&r, AttrSet::singleton(0));
        cache.ensure(&r, AttrSet::from_attrs([0, 1]));
        let view = cache.freeze(); // everything now on the frozen side
        assert_eq!(cache.len(), 4); // {}, {0}, {1}, {0,1} ({1} built en route)
        cache.retain_min_level(2);
        assert!(cache.get(AttrSet::singleton(0)).is_none());
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        // The snapshot taken before eviction still serves the old levels —
        // a worker mid-level never sees partitions vanish underneath it.
        assert!(view.get(AttrSet::singleton(0)).is_some());
        assert!(view.get(AttrSet::EMPTY).is_some());
    }

    #[test]
    fn eviction_keeps_context_level_two_below_frontier() {
        // While the driver processes level ℓ it needs level ℓ−2 context
        // partitions; `retain_min_level(ℓ−2)` (issued as `advance` moves
        // ℓ−1 → ℓ) must preserve them and the ℓ−1 parents, i.e. peak
        // residency is two completed lattice levels plus the frontier.
        let r = ranked();
        let mut cache = PartitionCache::new();
        let sets: Vec<AttrSet> = vec![
            AttrSet::from_attrs([0usize, 1]),       // level 2: context at ℓ = 4
            AttrSet::from_attrs([0usize, 1, 3]),    // level 3: parent at ℓ = 4
            AttrSet::from_attrs([0usize, 1, 3, 4]), // level 4: frontier node
            AttrSet::EMPTY,                         // level 0: must go
            AttrSet::singleton(0),                  // level 1: must go
        ];
        for &set in &sets {
            cache.ensure(&r, set);
        }
        cache.freeze();
        cache.retain_min_level(2);
        let surviving: Vec<usize> = cache.cached_sets().iter().map(|s| s.len()).collect();
        assert!(
            surviving.iter().all(|&l| (2..=4).contains(&l)),
            "{surviving:?}"
        );
        // The ℓ−2 context partition specifically survives.
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        // And levels below the window are really gone (peak = 2 levels + frontier).
        assert!(cache.get(AttrSet::EMPTY).is_none());
        assert!(cache.get(AttrSet::singleton(0)).is_none());
    }

    #[test]
    fn freeze_publishes_pending_and_snapshots() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.ensure(&r, AttrSet::singleton(0));
        let view1 = cache.freeze();
        assert_eq!(view1.len(), 1);
        assert!(view1.get(AttrSet::singleton(0)).is_some());
        // Writes after the freeze are invisible to the old view...
        cache.ensure(&r, AttrSet::singleton(3));
        assert!(view1.get(AttrSet::singleton(3)).is_none());
        assert!(cache.get(AttrSet::singleton(3)).is_some());
        // ...and visible to the next one. Freezing twice is idempotent.
        let view2 = cache.freeze();
        assert_eq!(view2.len(), 2);
        let view3 = cache.freeze();
        assert_eq!(view3.len(), 2);
    }

    #[test]
    fn frozen_views_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<FrozenPartitions>();
    }

    #[test]
    fn insert_product_counts_and_deduplicates() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        let a = Partition::from_ranked_column(r.column(0));
        let col = r.column(3);
        let prod =
            a.refine_with_scratch(col.ranks(), col.n_distinct(), &mut RefineScratch::default());
        let set = AttrSet::from_attrs([0, 3]);
        cache.insert_product(set, prod.clone());
        assert_eq!(cache.n_products(), 1);
        assert_eq!(cache.get(set), Some(&prod));
        // Re-merging the same shard key keeps the first value but still
        // counts the (wasted) product, mirroring the sequential counter.
        cache.insert_product(set, prod);
        assert_eq!(cache.n_products(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unit_partition_for_empty_set() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        let p = cache.ensure(&r, AttrSet::EMPTY);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class(0).len(), 9);
    }

    #[test]
    fn memory_accounting_is_positive() {
        let r = ranked();
        let mut cache = PartitionCache::new();
        cache.ensure(&r, AttrSet::singleton(0));
        assert!(cache.approx_bytes() > 0);
        cache.freeze();
        assert!(cache.approx_bytes() > 0, "frozen side is accounted too");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.approx_bytes(), 0);
    }
}
