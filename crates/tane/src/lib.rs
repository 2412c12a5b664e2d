//! # aod-tane — TANE-style (approximate) functional dependency discovery
//!
//! The paper's approximate-OFD validation is exactly TANE's `g₃` machinery
//! [Huhtala et al. '99], and its discovery framework inherits TANE's
//! level-wise traversal with RHS-candidate pruning. This crate implements
//! the classic algorithm as a standalone baseline: it exercises the same
//! partition substrate as `aod-core` (a useful cross-check — an OFD
//! `X: [] |-> A` is the FD `X -> A`), and gives experiments an independent
//! FD-discovery reference point.
//!
//! The node-deletion rule here is `C⁺(X) = ∅` only; TANE's further key-based
//! deletion (with its special output pass) is left out for clarity — it is
//! an optimization, not needed for correctness, and the discovery driver in
//! `aod-core` has its own, OC-aware deadness rule.
//!
//! ## Approximate-mode completeness convention
//!
//! In exact mode the output is exactly the strictly-minimal FDs (tested
//! against brute force). In approximate mode the output follows the
//! published TANE-A convention: the `C⁺` rule that removes `R \ X` after a
//! hit is justified by Armstrong-style implication, which holds for exact
//! FDs but not in general for approximate ones (removal-set sizes add).
//! TANE-A — and the FASTOD-A framework the paper builds on — accept this:
//! "minimal" means minimal *under the framework's pruning axioms*. The
//! paper's completeness contribution concerns AOC validation (no more
//! overestimated approximation factors), which is orthogonal and covered
//! in `aod-validate`/`aod-core`.
//!
//! ```
//! use aod_tane::{tane, TaneConfig};
//! use aod_table::{employee_table, RankedTable};
//!
//! let t = RankedTable::from_table(&employee_table());
//! let result = tane(&t, &TaneConfig::exact());
//! // sal -> taxGrp is a minimal exact FD of Table 1.
//! assert!(result.fds.iter().any(|fd| fd.rhs == 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aod_partition::{
    prefix_join, AttrSet, AttrSetMap, AttrSetSet, Partition, PartitionCache, MAX_ATTRS,
};
use aod_table::RankedTable;
use aod_validate::removal_budget;
use std::time::{Duration, Instant};

/// A discovered (approximate) functional dependency `lhs -> rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct FdDep {
    /// Determinant attribute set.
    pub lhs: AttrSet,
    /// Determined attribute.
    pub rhs: usize,
    /// Minimal removal-set size (`g₃` numerator; 0 when exact).
    pub removed: usize,
    /// Approximation factor `removed / n`.
    pub factor: f64,
}

/// Configuration for a TANE run.
#[derive(Debug, Clone)]
pub struct TaneConfig {
    /// Approximation threshold (0 = exact FDs).
    pub epsilon: f64,
    /// Optional lattice level cap.
    pub max_level: Option<usize>,
}

impl TaneConfig {
    /// Exact FD discovery.
    pub fn exact() -> TaneConfig {
        TaneConfig {
            epsilon: 0.0,
            max_level: None,
        }
    }

    /// Approximate FD discovery at the given threshold.
    pub fn approximate(epsilon: f64) -> TaneConfig {
        TaneConfig {
            epsilon,
            max_level: None,
        }
    }

    /// Builder: cap the lattice level.
    pub fn with_max_level(mut self, level: usize) -> TaneConfig {
        self.max_level = Some(level);
        self
    }
}

/// Result of a TANE run.
#[derive(Debug, Clone, Default)]
pub struct TaneResult {
    /// Minimal (approximate) FDs found.
    pub fds: Vec<FdDep>,
    /// Total wall time.
    pub total: Duration,
}

/// Runs TANE(-A) over a rank-encoded table: level-wise lattice traversal
/// with `C⁺` RHS-candidate pruning.
///
/// # Panics
/// If the table has more than [`MAX_ATTRS`] columns.
pub fn tane(table: &RankedTable, config: &TaneConfig) -> TaneResult {
    let start = Instant::now();
    let n_rows = table.n_rows();
    let n_attrs = table.n_cols();
    assert!(
        n_attrs <= MAX_ATTRS,
        "at most {MAX_ATTRS} attributes supported"
    );
    let budget = removal_budget(n_rows, config.epsilon);
    let exact = config.epsilon == 0.0;

    let mut cache = PartitionCache::new();
    cache.insert(AttrSet::EMPTY, Partition::unit(n_rows));
    let mut fds = Vec::new();

    struct Node {
        set: AttrSet,
        rhs: AttrSet, // TANE's C+
    }

    let mut nodes: Vec<Node> = (0..n_attrs)
        .map(|a| {
            cache.insert(
                AttrSet::singleton(a),
                Partition::from_ranked_column(table.column(a)),
            );
            Node {
                set: AttrSet::singleton(a),
                rhs: AttrSet::full(n_attrs),
            }
        })
        .collect();

    let mut level = 1usize;
    while !nodes.is_empty() {
        for node in &mut nodes {
            let set = node.set;
            let candidates: Vec<usize> = set.intersect(node.rhs).iter().collect();
            for a in candidates {
                let lhs = set.without(a);
                let ctx = cache.get(lhs).expect("parent partition cached");
                let removed = if exact {
                    let node_part = cache.get(set).expect("node partition cached");
                    (ctx.n_classes_unstripped() == node_part.n_classes_unstripped()).then_some(0)
                } else {
                    let col = table.column(a);
                    aod_validate::min_removal_ofd(ctx, col.ranks(), col.n_distinct(), budget)
                };
                if let Some(removed) = removed {
                    fds.push(FdDep {
                        lhs,
                        rhs: a,
                        removed,
                        factor: removed as f64 / n_rows.max(1) as f64,
                    });
                    // C+(X) := (C+(X) ∩ X) \ {A}.
                    node.rhs = node.rhs.intersect(set).without(a);
                }
            }
        }

        if config.max_level.is_some_and(|m| level >= m) {
            break;
        }

        // Delete nodes whose C+ is empty (they can neither check nor let
        // any descendant check an FD: C+ only shrinks going up).
        let retained: Vec<AttrSet> = nodes
            .iter()
            .filter(|n| !n.rhs.is_empty())
            .map(|n| n.set)
            .collect();
        let rhs_map: AttrSetMap<AttrSet> = nodes.iter().map(|n| (n.set, n.rhs)).collect();
        let retained_set: AttrSetSet = retained.iter().copied().collect();

        let mut next = Vec::new();
        for join in prefix_join(&retained) {
            let mut rhs = AttrSet::full(n_attrs);
            let mut ok = true;
            for c in join.child.iter() {
                let sub = join.child.without(c);
                if !retained_set.contains(&sub) {
                    ok = false;
                    break;
                }
                rhs = rhs.intersect(*rhs_map.get(&sub).expect("retained node has rhs"));
            }
            if !ok || rhs.is_empty() {
                continue;
            }
            cache.product_into(table, join.parent_a, join.parent_b);
            next.push(Node {
                set: join.child,
                rhs,
            });
        }
        cache.retain_min_level(level);
        nodes = next;
        level += 1;
    }

    TaneResult {
        fds,
        total: start.elapsed(),
    }
}

/// Brute-force minimal-FD discovery for cross-checking on tiny tables:
/// returns every `lhs -> rhs` (with `rhs ∉ lhs`) whose `g₃` removal count
/// is within budget while every proper-subset LHS's is not.
pub fn brute_minimal_fds(table: &RankedTable, epsilon: f64) -> Vec<(AttrSet, usize)> {
    let n_attrs = table.n_cols();
    let budget = removal_budget(table.n_rows(), epsilon);
    let valid = |lhs: AttrSet, rhs: usize| -> bool {
        let ctx = Partition::for_attrs(table, lhs.iter());
        let col = table.column(rhs);
        ctx.fd_removal_count(col.ranks(), col.n_distinct()) <= budget
    };
    let mut out = Vec::new();
    for bits in 0..(1u64 << n_attrs) {
        let lhs = AttrSet::from_attrs((0..n_attrs).filter(|&a| bits & (1 << a) != 0));
        for rhs in 0..n_attrs {
            if lhs.contains(rhs) || !valid(lhs, rhs) {
                continue;
            }
            let minimal = lhs.iter().all(|drop| !valid(lhs.without(drop), rhs));
            if minimal {
                out.push((lhs, rhs));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};

    fn employee() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// Soundness always; strict-minimality completeness only in exact mode
    /// (see the module docs: TANE-A's `C⁺` convention intentionally prunes
    /// by implications that are exact-only).
    fn check_against_brute(t: &RankedTable, eps: f64) {
        let result = if eps == 0.0 {
            tane(t, &TaneConfig::exact())
        } else {
            tane(t, &TaneConfig::approximate(eps))
        };
        let budget = removal_budget(t.n_rows(), eps);
        // soundness
        for fd in &result.fds {
            let ctx = Partition::for_attrs(t, fd.lhs.iter());
            let col = t.column(fd.rhs);
            let removed = ctx.fd_removal_count(col.ranks(), col.n_distinct());
            assert!(removed <= budget, "invalid FD reported: {fd:?}");
            assert_eq!(removed, fd.removed, "wrong removal count: {fd:?}");
        }
        if eps > 0.0 {
            return;
        }
        // completeness w.r.t. strictly minimal FDs (exact mode)
        let mut reported: AttrSetMap<Vec<usize>> = AttrSetMap::default();
        for fd in &result.fds {
            reported.entry(fd.lhs).or_default().push(fd.rhs);
        }
        for (lhs, rhs) in brute_minimal_fds(t, eps) {
            assert!(
                reported.get(&lhs).is_some_and(|v| v.contains(&rhs)),
                "minimal FD {lhs} -> {rhs} missing (eps {eps})"
            );
        }
    }

    #[test]
    fn finds_sal_to_taxgrp_via_minimal_lhs() {
        let t = employee();
        let result = tane(&t, &TaneConfig::exact());
        // sal -> taxGrp holds and is minimal (sal is a key; {} -> taxGrp fails).
        assert!(result
            .fds
            .iter()
            .any(|fd| fd.lhs == AttrSet::singleton(2) && fd.rhs == 3));
    }

    #[test]
    fn exact_complete_and_sound_on_projections() {
        let full = employee();
        for cols in [[0usize, 1, 2, 3], [0, 3, 5, 6], [1, 2, 4, 6]] {
            let t = RankedTable::from_u32_columns(
                cols.iter()
                    .map(|&c| full.column(c).ranks().to_vec())
                    .collect(),
            );
            check_against_brute(&t, 0.0);
        }
    }

    #[test]
    fn approximate_complete_and_sound_on_projections() {
        let full = employee();
        let t = RankedTable::from_u32_columns(
            [0usize, 1, 3, 6]
                .iter()
                .map(|&c| full.column(c).ranks().to_vec())
                .collect(),
        );
        for eps in [0.12, 0.25, 0.5] {
            check_against_brute(&t, eps);
        }
    }

    #[test]
    fn pos_exp_to_sal_appears_only_approximately() {
        let t = employee();
        let exact = tane(&t, &TaneConfig::exact());
        let target = AttrSet::from_attrs([0, 1]);
        assert!(!exact.fds.iter().any(|fd| fd.lhs == target && fd.rhs == 2));
        // With ε ≥ 1/9 the t6/t7 split is forgiven.
        let approx = tane(&t, &TaneConfig::approximate(0.12));
        assert!(approx
            .fds
            .iter()
            .any(|fd| fd.lhs.is_subset_of(target) && fd.rhs == 2 && fd.removed <= 1));
    }

    #[test]
    fn max_level_caps() {
        let t = employee();
        let result = tane(&t, &TaneConfig::exact().with_max_level(1));
        // Only constant columns can be found at level 1; Table 1 has none.
        assert!(result.fds.is_empty());
    }

    #[test]
    fn high_epsilon_forgives_everything() {
        let t = employee();
        let result = tane(&t, &TaneConfig::approximate(1.0));
        // At ε = 1 even {} -> A "holds" for every A (remove everything).
        let constants = result.fds.iter().filter(|fd| fd.lhs.is_empty()).count();
        assert_eq!(constants, 7);
    }
}
