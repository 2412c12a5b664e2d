//! The lattice frontier: the set of live nodes at the current level and
//! the prefix-join generation of the next level.
//!
//! A frontier at level `ℓ` holds every surviving size-`ℓ` attribute set
//! with its TANE RHS-candidate set `Cc⁺(X)`. Advancing it (a) drops *dead*
//! nodes (see [`PruneState::node_is_dead`]), (b) prefix-joins the
//! survivors into level `ℓ+1`, (c) intersects the parents' `Cc⁺` sets, and
//! (d) computes each child's partition by refining its cached parent
//! `parent_b` by the one column `parent_b` lacks — exactly the
//! retention/generation tail of the paper's Figure 1 driver, factored out
//! of the per-level candidate validation.

use crate::config::PruneConfig;
use crate::prune_state::PruneState;
use crate::stats::DiscoveryStats;
use aod_exec::Executor;
use aod_partition::{
    prefix_join, AttrSet, AttrSetMap, JoinedChild, Partition, PartitionCache, RefineScratch,
};
use aod_table::RankedTable;
use std::time::Instant;

/// A lattice node: the attribute set plus its TANE RHS-candidate set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// The attribute set `X`.
    pub set: AttrSet,
    /// `Cc⁺(X)` — RHS candidates still admissible for OFDs under `X`.
    pub rhs: AttrSet,
}

/// The live nodes of one lattice level.
#[derive(Debug)]
pub(crate) struct Frontier {
    /// Nodes of the current level, in deterministic generation order.
    pub nodes: Vec<Node>,
    /// The current lattice level (`|X|` of every node).
    pub level: usize,
}

impl Frontier {
    /// Seeds level 1 with the singleton sets of `scope`, caching the empty
    /// and singleton partitions the driver relies on.
    pub fn seed(table: &RankedTable, scope: AttrSet, cache: &mut PartitionCache) -> Frontier {
        cache.insert(AttrSet::EMPTY, Partition::unit(table.n_rows()));
        let nodes = scope
            .iter()
            .map(|a| {
                cache.insert(
                    AttrSet::singleton(a),
                    Partition::from_ranked_column(table.column(a)),
                );
                Node {
                    set: AttrSet::singleton(a),
                    rhs: scope,
                }
            })
            .collect();
        Frontier { nodes, level: 1 }
    }

    /// `true` when no nodes remain — the lattice is exhausted.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Replaces the frontier with the next lattice level: retention (node
    /// deletion), prefix join, `Cc⁺` intersection and partition products
    /// (each a refinement of one cached parent by one column of `table`).
    /// Evicts cached partitions below level `ℓ−1` afterwards so peak
    /// memory stays at two lattice levels.
    ///
    /// With an executor, the partition products — the `partitioning`
    /// phase of the stats breakdown — are computed in parallel against a
    /// frozen cache view with per-worker [`RefineScratch`], and merged
    /// back in deterministic child order; the resulting cache contents and
    /// product counts are identical to the sequential path.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &mut self,
        table: &RankedTable,
        prune_cfg: &PruneConfig,
        prune: &PruneState,
        scope: AttrSet,
        cache: &mut PartitionCache,
        stats: &mut DiscoveryStats,
        executor: Option<&Executor>,
    ) {
        let retained: Vec<AttrSet> = self
            .nodes
            .iter()
            .filter(|n| !prune_cfg.node_deletion || !prune.node_is_dead(n, self.level))
            .map(|n| n.set)
            .collect();
        let rhs_map: AttrSetMap<AttrSet> = self.nodes.iter().map(|n| (n.set, n.rhs)).collect();

        // Survivors of the apriori check, with their children's Cc⁺ sets.
        let mut joins: Vec<(JoinedChild, AttrSet)> = Vec::new();
        for join in prefix_join(&retained) {
            // Cc+(child) = ∩ over all level-ℓ subsets.
            let mut rhs = scope;
            let mut all_present = true;
            for c in join.child.iter() {
                match rhs_map.get(&join.child.without(c)) {
                    Some(r) => rhs = rhs.intersect(*r),
                    None => {
                        all_present = false;
                        break;
                    }
                }
            }
            if all_present {
                joins.push((join, rhs));
            }
        }

        // Products computed here materialize level ℓ+1, so they are
        // charged to that level's counters (level 1 is seeded, count 0).
        if !joins.is_empty() {
            stats.level_mut(self.level + 1).n_products += joins.len();
        }

        let t0 = Instant::now();
        let mut next = Vec::with_capacity(joins.len());
        match executor {
            Some(exec) if joins.len() > 1 => {
                let view = cache.freeze();
                let scratches: Vec<RefineScratch> = (0..exec.threads())
                    .map(|_| RefineScratch::default())
                    .collect();
                let products =
                    exec.par_map_with_state(scratches, &joins, |scratch, _i, (join, _rhs)| {
                        let parent = view
                            .get(join.parent_b)
                            .expect("parent partition is in the frozen view");
                        let col = table.column(join.added_attr());
                        parent.refine_with_scratch(col.ranks(), col.n_distinct(), scratch)
                    });
                drop(view);
                for ((join, rhs), product) in joins.into_iter().zip(products) {
                    cache.insert_product(join.child, product);
                    next.push(Node {
                        set: join.child,
                        rhs,
                    });
                }
            }
            _ => {
                for (join, rhs) in joins {
                    cache.product_into(table, join.parent_a, join.parent_b);
                    next.push(Node {
                        set: join.child,
                        rhs,
                    });
                }
            }
        }
        stats.partitioning += t0.elapsed();

        // Keep levels ℓ-1 (contexts at level ℓ+1), ℓ (parents) and ℓ+1.
        cache.retain_min_level(self.level.saturating_sub(1));
        self.nodes = next;
        self.level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    #[test]
    fn seed_covers_scope_only() {
        let t = RankedTable::from_table(&employee_table());
        let mut cache = PartitionCache::new();
        let scope = AttrSet::from_attrs([0, 2, 5]);
        let f = Frontier::seed(&t, scope, &mut cache);
        assert_eq!(f.level, 1);
        assert_eq!(f.nodes.len(), 3);
        assert!(f.nodes.iter().all(|n| n.rhs == scope));
        assert!(cache.get(AttrSet::EMPTY).is_some());
        assert!(cache.get(AttrSet::singleton(2)).is_some());
        assert!(cache.get(AttrSet::singleton(1)).is_none());
    }

    #[test]
    fn advance_builds_pairs_and_caches_products() {
        let t = RankedTable::from_table(&employee_table());
        let mut cache = PartitionCache::new();
        let scope = AttrSet::from_attrs([0, 1, 2]);
        let mut f = Frontier::seed(&t, scope, &mut cache);
        let prune = PruneState::new(t.n_cols(), t.n_rows());
        let mut stats = DiscoveryStats::default();
        f.advance(
            &t,
            &PruneConfig::default(),
            &prune,
            scope,
            &mut cache,
            &mut stats,
            None,
        );
        assert_eq!(f.level, 2);
        assert_eq!(f.nodes.len(), 3); // {0,1}, {0,2}, {1,2}
        assert!(cache.get(AttrSet::from_attrs([0, 1])).is_some());
        // Cc+ starts as the intersection of the singleton rhs sets.
        assert!(f.nodes.iter().all(|n| n.rhs == scope));
    }

    #[test]
    fn parallel_advance_matches_sequential() {
        let t = RankedTable::from_table(&employee_table());
        let scope = AttrSet::full(t.n_cols());
        let prune = PruneState::new(t.n_cols(), t.n_rows());
        let exec = Executor::new(4);

        let mut seq_cache = PartitionCache::new();
        let mut seq = Frontier::seed(&t, scope, &mut seq_cache);
        let mut par_cache = PartitionCache::new();
        let mut par = Frontier::seed(&t, scope, &mut par_cache);
        let mut stats = DiscoveryStats::default();
        for _ in 0..3 {
            seq.advance(
                &t,
                &PruneConfig::default(),
                &prune,
                scope,
                &mut seq_cache,
                &mut stats,
                None,
            );
            par.advance(
                &t,
                &PruneConfig::default(),
                &prune,
                scope,
                &mut par_cache,
                &mut stats,
                Some(&exec),
            );
            assert_eq!(par.level, seq.level);
            assert_eq!(par.nodes.len(), seq.nodes.len());
            for (p, s) in par.nodes.iter().zip(&seq.nodes) {
                assert_eq!(p.set, s.set);
                assert_eq!(p.rhs, s.rhs);
            }
            // Identical cache contents and product accounting.
            assert_eq!(par_cache.n_products(), seq_cache.n_products());
            let mut p_sets = par_cache.cached_sets();
            let mut s_sets = seq_cache.cached_sets();
            p_sets.sort_unstable();
            s_sets.sort_unstable();
            assert_eq!(p_sets, s_sets);
            for &set in &s_sets {
                assert_eq!(par_cache.get(set), seq_cache.get(set), "{set}");
            }
        }
    }

    /// A seeded `n_rows × n_cols` table of small-cardinality columns
    /// (3–8 distinct values each), so partitions keep classes of many
    /// sizes for several levels.
    fn seeded_table(n_rows: usize, n_cols: usize, seed: u64) -> RankedTable {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let cols = (0..n_cols)
            .map(|c| {
                let card = 3 + c as u64 % 6;
                (0..n_rows).map(|_| (next() % card) as u32).collect()
            })
            .collect();
        RankedTable::from_u32_columns(cols)
    }

    /// A partition's classes as sorted row lists, in sorted order.
    fn normalize(p: &Partition) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = p.classes().map(<[u32]>::to_vec).collect();
        classes.sort_unstable();
        classes
    }

    #[test]
    fn cached_partitions_match_for_attrs() {
        let tables = [
            RankedTable::from_table(&employee_table()),
            seeded_table(200, 7, 0x5eed),
        ];
        for t in &tables {
            let scope = AttrSet::full(t.n_cols());
            let prune = PruneState::new(t.n_cols(), t.n_rows());
            // The sequential path, then the executor path at 1 and 4 threads.
            for exec in [None, Some(Executor::new(1)), Some(Executor::new(4))] {
                let threads = exec.as_ref().map_or(0, Executor::threads);
                let mut cache = PartitionCache::new();
                let mut f = Frontier::seed(t, scope, &mut cache);
                let mut stats = DiscoveryStats::default();
                for _ in 0..4 {
                    f.advance(
                        t,
                        &PruneConfig::default(),
                        &prune,
                        scope,
                        &mut cache,
                        &mut stats,
                        exec.as_ref(),
                    );
                    assert!(!f.is_empty(), "level {} is empty", f.level);
                    for set in cache.cached_sets() {
                        let cached = cache.get(set).expect("listed set is cached");
                        let direct = Partition::for_attrs(t, set.iter());
                        assert_eq!(
                            normalize(cached),
                            normalize(&direct),
                            "{set} with {threads} executor threads"
                        );
                    }
                }
                assert_eq!(f.level, 5);
            }
        }
    }
}
