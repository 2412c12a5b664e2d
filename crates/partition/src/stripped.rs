//! Stripped partitions (TANE-style equivalence-class indexes).
//!
//! A partition `Π_X` groups row ids by equal projections on the attribute
//! set `X` (Definition 2.8). *Stripped* partitions drop singleton classes —
//! a tuple alone in its class can participate in no split and no swap, so
//! every validator ignores it. Stripping is what keeps level-wise discovery
//! linear in practice: partitions shrink as contexts grow.
//!
//! Representation: one flat `Vec<u32>` of row ids plus class boundaries
//! (offsets), i.e. a CSR-style layout — single allocation, cache-friendly
//! scans, no per-class `Vec`.
//!
//! Construction: a partition of `k ≥ 2` attributes is one parent of `k−1`
//! attributes refined by the column it lacks
//! ([`Partition::refine_with_scratch`]), splitting each parent class by
//! that column's ranks. The result equals, class order included, TANE's
//! two-parent stripped product `Π_Y · Π_X` with this parent as `Π_X`
//! (which also orders by `Π_X`'s classes, then by first row), but reads
//! one rank per grouped row instead of probing a row→class table filled
//! from the other parent.
//!
//! Invariant: row ids within each class are in ascending order (constructors
//! and [`Partition::refine_with_scratch`] preserve this).

use aod_table::{RankedColumn, RankedTable};

/// A stripped partition of a relation's rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Row ids, grouped by class.
    elems: Vec<u32>,
    /// Class `k` spans `elems[bounds[k] .. bounds[k+1]]`; `len = n_classes+1`.
    bounds: Vec<u32>,
    /// Total rows in the underlying relation (not just grouped ones).
    n_rows: usize,
}

impl Partition {
    /// The partition of the empty attribute set: one class holding all rows
    /// (stripped away when the relation has fewer than two rows).
    ///
    /// # Panics
    /// If `n_rows` exceeds [`aod_table::MAX_ROWS`] — row ids are `u32`,
    /// so a larger relation would silently wrap ids. Table construction
    /// rejects such inputs with an error first; this guard is defence in
    /// depth for direct partition construction.
    pub fn unit(n_rows: usize) -> Partition {
        assert!(
            aod_table::check_row_count(n_rows).is_ok(),
            "{n_rows} rows exceed MAX_ROWS; u32 row ids would wrap"
        );
        if n_rows < 2 {
            return Partition {
                elems: Vec::new(),
                bounds: vec![0],
                n_rows,
            };
        }
        Partition {
            elems: (0..n_rows as u32).collect(),
            bounds: vec![0, n_rows as u32],
            n_rows,
        }
    }

    /// Builds `Π_{A}` for a single rank-encoded column via counting sort:
    /// `O(n + n_distinct)`.
    pub fn from_ranked_column(col: &RankedColumn) -> Partition {
        Self::from_ranks(col.ranks(), col.n_distinct())
    }

    /// Builds a partition grouping rows with equal `ranks` values
    /// (values must be dense in `0..n_distinct`).
    ///
    /// # Panics
    /// If `ranks` names more rows than [`aod_table::MAX_ROWS`] (see
    /// [`Partition::unit`]).
    pub fn from_ranks(ranks: &[u32], n_distinct: u32) -> Partition {
        let n = ranks.len();
        assert!(
            aod_table::check_row_count(n).is_ok(),
            "{n} rows exceed MAX_ROWS; u32 row ids would wrap"
        );
        let k = n_distinct as usize;
        let mut counts = vec![0u32; k + 1];
        for &r in ranks {
            counts[r as usize + 1] += 1;
        }
        // prefix sums -> start offset per rank
        for i in 0..k {
            counts[i + 1] += counts[i];
        }
        let mut grouped = vec![0u32; n];
        let mut offsets = counts.clone();
        for (row, &r) in ranks.iter().enumerate() {
            grouped[offsets[r as usize] as usize] = row as u32;
            offsets[r as usize] += 1;
        }
        // strip singletons while building CSR
        let mut elems = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0u32);
        for rank in 0..k {
            let (start, end) = (counts[rank] as usize, counts[rank + 1] as usize);
            if end - start >= 2 {
                elems.extend_from_slice(&grouped[start..end]);
                bounds.push(elems.len() as u32);
            }
        }
        Partition {
            elems,
            bounds,
            n_rows: n,
        }
    }

    /// Builds `Π_X` for an arbitrary attribute set by refining the first
    /// member column's partition by each further member in turn.
    /// Convenience for tests and one-off validation; the discovery driver
    /// refines cached level-wise parents instead.
    pub fn for_attrs<I: IntoIterator<Item = usize>>(table: &RankedTable, attrs: I) -> Partition {
        let mut it = attrs.into_iter();
        let mut part = match it.next() {
            None => Partition::unit(table.n_rows()),
            Some(a) => Partition::from_ranked_column(table.column(a)),
        };
        let mut scratch = RefineScratch::default();
        for a in it {
            let col = table.column(a);
            part = part.refine_with_scratch(col.ranks(), col.n_distinct(), &mut scratch);
        }
        part
    }

    /// Assembles a partition from raw CSR parts. Used by tooling that
    /// derives sub-partitions (e.g. the sampling pre-check in
    /// `aod-validate`); the caller is responsible for the representation
    /// invariants, which are checked in debug builds.
    ///
    /// # Panics
    /// In debug builds, if `bounds` is not a monotone offset list covering
    /// `elems`, or a class has fewer than 2 rows.
    pub fn from_parts(elems: Vec<u32>, bounds: Vec<u32>, n_rows: usize) -> Partition {
        debug_assert!(!bounds.is_empty() && bounds[0] == 0);
        debug_assert_eq!(*bounds.last().expect("non-empty") as usize, elems.len());
        debug_assert!(
            bounds.windows(2).all(|w| w[0] + 2 <= w[1]),
            "classes need >= 2 rows"
        );
        debug_assert!(elems.iter().all(|&r| (r as usize) < n_rows));
        Partition {
            elems,
            bounds,
            n_rows,
        }
    }

    /// Decomposes the partition into its raw CSR parts
    /// `(elems, bounds, n_rows)` — the inverse of
    /// [`Partition::from_parts`], letting scratch-reusing callers (e.g.
    /// the sampling pre-check in `aod-validate`) recover their buffers
    /// instead of reallocating per candidate.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>, usize) {
        (self.elems, self.bounds, self.n_rows)
    }

    /// Number of (non-singleton) classes.
    pub fn n_classes(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total rows of the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of rows contained in the stripped classes.
    pub fn n_grouped_rows(&self) -> usize {
        self.elems.len()
    }

    /// Number of singleton classes that were stripped.
    pub fn n_singletons(&self) -> usize {
        self.n_rows - self.n_grouped_rows()
    }

    /// Number of classes in the *unstripped* partition `Π_X`
    /// (`|Π_X|` in TANE's notation).
    pub fn n_classes_unstripped(&self) -> usize {
        self.n_classes() + self.n_singletons()
    }

    /// The rows of class `k` (ascending row ids).
    pub fn class(&self, k: usize) -> &[u32] {
        &self.elems[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// Iterates over classes as row-id slices.
    pub fn classes(&self) -> impl Iterator<Item = &[u32]> {
        self.bounds
            .windows(2)
            .map(move |w| &self.elems[w[0] as usize..w[1] as usize])
    }

    /// Size of the largest class (0 when stripped empty).
    pub fn max_class_size(&self) -> usize {
        self.classes().map(<[u32]>::len).max().unwrap_or(0)
    }

    /// `true` when `X` is a (super)key: every class is a singleton.
    pub fn is_key(&self) -> bool {
        self.elems.is_empty()
    }

    /// Minimum number of rows to remove so the attribute set becomes a key
    /// (one representative kept per class).
    pub fn key_removal_count(&self) -> usize {
        self.n_grouped_rows() - self.n_classes()
    }

    /// Minimum number of rows to remove so the FD `X -> A` holds, where
    /// `self = Π_X` and `rhs_ranks` are `A`'s dense ranks
    /// (`rhs_n_distinct` of them). This is TANE's `g₃` numerator and — per
    /// Definition 2.14 — the exact minimal-removal-set size for the OFD
    /// `X: [] -> A`:
    /// within each class, keep the most frequent `A` value, remove the rest.
    ///
    /// `O(grouped rows)` using a counting scratch of size `rhs_n_distinct`.
    pub fn fd_removal_count(&self, rhs_ranks: &[u32], rhs_n_distinct: u32) -> usize {
        let mut counts = vec![0u32; rhs_n_distinct as usize];
        let mut removed = 0usize;
        for class in self.classes() {
            let mut max = 0u32;
            for &row in class {
                let c = &mut counts[rhs_ranks[row as usize] as usize];
                *c += 1;
                if *c > max {
                    max = *c;
                }
            }
            removed += class.len() - max as usize;
            for &row in class {
                counts[rhs_ranks[row as usize] as usize] = 0;
            }
        }
        removed
    }

    /// `true` iff the FD `X -> A` holds exactly.
    pub fn fd_holds(&self, rhs_ranks: &[u32], rhs_n_distinct: u32) -> bool {
        self.fd_removal_count(rhs_ranks, rhs_n_distinct) == 0
    }

    /// Refines this partition `Π_X` by one column `A` (rank-encoded as
    /// `ranks`, values in `0..n_distinct`), giving `Π_{X ∪ {A}}`.
    ///
    /// Two rows of one class of `Π_X` share a class of `Π_{X ∪ {A}}` iff
    /// they agree on `A`, so each class splits independently: a counting
    /// pass over the class's `A` ranks, then a placement pass that gives
    /// each sub-group of ≥ 2 rows a slot in order of its first row
    /// (singletons are stripped). A 2-row class is decided by one rank
    /// comparison. Classes come out in `self`'s class order and, within
    /// a class, by first row; row ids stay ascending.
    ///
    /// `O(grouped rows of self)` plus scratch growth; the result's buffers
    /// are copied out at their exact size.
    ///
    /// # Panics
    /// If `ranks` does not cover exactly `self`'s relation, or a rank is
    /// not below `n_distinct`.
    pub fn refine_with_scratch(
        &self,
        ranks: &[u32],
        n_distinct: u32,
        scratch: &mut RefineScratch,
    ) -> Partition {
        assert_eq!(
            ranks.len(),
            self.n_rows,
            "column and partition over different relations"
        );
        scratch.prepare(self.elems.len(), n_distinct as usize);
        let RefineScratch {
            tally,
            vals,
            elems,
            bounds,
        } = scratch;

        let mut len = 0usize;
        for class in self.classes() {
            if let [r0, r1] = *class {
                if ranks[r0 as usize] == ranks[r1 as usize] {
                    elems[len] = r0;
                    elems[len + 1] = r1;
                    len += 2;
                    bounds.push(len as u32);
                }
                continue;
            }
            vals.clear();
            for &row in class {
                let v = ranks[row as usize];
                vals.push(v);
                tally[v as usize][0] += 1;
            }
            // `tally[v] = [count, next slot]`. A group's first row turns
            // its count into a reserved run of slots and zeroes the
            // count, so a zero count marks a placed group and every count
            // is zero again once the class is done.
            for (&row, &v) in class.iter().zip(vals.iter()) {
                let t = &mut tally[v as usize];
                match t[0] {
                    0 => {
                        elems[t[1] as usize] = row;
                        t[1] += 1;
                    }
                    1 => t[0] = 0,
                    count => {
                        elems[len] = row;
                        t[1] = len as u32 + 1;
                        t[0] = 0;
                        len += count as usize;
                        bounds.push(len as u32);
                    }
                }
            }
        }

        Partition {
            // aod-lint: allow(A1) -- exact-size copy-out of the result; the scratch keeps its capacity
            elems: elems[..len].to_vec(),
            // aod-lint: allow(A1) -- exact-size copy-out of the result; the scratch keeps its capacity
            bounds: bounds.to_vec(),
            n_rows: self.n_rows,
        }
    }
}

/// Reusable scratch space for [`Partition::refine_with_scratch`].
///
/// Holding one of these across a discovery level avoids reallocating the
/// per-rank tallies and the `O(n)` output buffer per refinement (the
/// perf-book "workhorse collection" pattern). Every tally is zero between
/// calls.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// Per rank of the refining column: `[count, next output slot]`.
    tally: Vec<[u32; 2]>,
    /// The refining column's ranks of the current class, in row order.
    vals: Vec<u32>,
    /// Output rows; the result copies out its used prefix.
    elems: Vec<u32>,
    /// Output class bounds.
    bounds: Vec<u32>,
}

impl RefineScratch {
    fn prepare(&mut self, max_rows: usize, n_distinct: usize) {
        if self.tally.len() < n_distinct {
            self.tally.resize(n_distinct, [0, 0]);
        }
        if self.elems.len() < max_rows {
            self.elems.resize(max_rows, 0);
        }
        self.bounds.clear();
        self.bounds.push(0);
        debug_assert!(self.tally.iter().all(|t| t[0] == 0), "tally not reset");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aod_table::{employee_table, RankedTable};
    use proptest::prelude::*;
    use std::cell::RefCell;

    fn employee_ranked() -> RankedTable {
        RankedTable::from_table(&employee_table())
    }

    /// The two-parent TANE stripped product `Π_X · Π_Y` that
    /// [`Partition::refine_with_scratch`] replaced, kept as the reference
    /// the refinement must reproduce exactly: probe `x`'s rows into a
    /// row→class table, split each class of `y` by it, keep sub-groups of
    /// size ≥ 2 in order of their first row.
    fn reference_product(x: &Partition, y: &Partition) -> Partition {
        const NONE: u32 = u32::MAX;
        assert_eq!(x.n_rows, y.n_rows);
        let mut probe = vec![NONE; x.n_rows];
        for (ci, class) in x.classes().enumerate() {
            for &t in class {
                probe[t as usize] = ci as u32;
            }
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); x.n_classes()];
        let mut elems = Vec::new();
        let mut bounds = vec![0u32];
        for class in y.classes() {
            for &t in class {
                if probe[t as usize] != NONE {
                    groups[probe[t as usize] as usize].push(t);
                }
            }
            for &t in class {
                if probe[t as usize] != NONE {
                    let group = &mut groups[probe[t as usize] as usize];
                    if group.len() >= 2 {
                        elems.extend_from_slice(group);
                        bounds.push(elems.len() as u32);
                    }
                    group.clear();
                }
            }
        }
        Partition {
            elems,
            bounds,
            n_rows: x.n_rows,
        }
    }

    /// `part` refined by column `a` of `table`.
    fn refine(part: &Partition, table: &RankedTable, a: usize, s: &mut RefineScratch) -> Partition {
        let col = table.column(a);
        part.refine_with_scratch(col.ranks(), col.n_distinct(), s)
    }

    /// Reference partition via sorting whole projections.
    fn brute_partition(table: &RankedTable, attrs: &[usize]) -> Vec<Vec<u32>> {
        let n = table.n_rows();
        let key = |row: usize| -> Vec<u32> { attrs.iter().map(|&a| table.rank(row, a)).collect() };
        let mut rows: Vec<u32> = (0..n as u32).collect();
        rows.sort_by_key(|&r| key(r as usize));
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for &r in &rows {
            if let Some(last) = classes.last_mut() {
                if key(last[0] as usize) == key(r as usize) {
                    last.push(r);
                    continue;
                }
            }
            classes.push(vec![r]);
        }
        let mut stripped: Vec<Vec<u32>> = classes.into_iter().filter(|c| c.len() >= 2).collect();
        for c in &mut stripped {
            c.sort_unstable();
        }
        stripped.sort();
        stripped
    }

    fn normalize(p: &Partition) -> Vec<Vec<u32>> {
        let mut classes: Vec<Vec<u32>> = p.classes().map(<[u32]>::to_vec).collect();
        for c in &mut classes {
            c.sort_unstable();
        }
        classes.sort();
        classes
    }

    #[test]
    fn partition_on_pos_matches_paper_example_2_9() {
        // Π_pos = {{t1,t2,t4}, {t3,t5,t6,t7,t8}, {t9}}; stripped drops {t9}.
        let r = employee_ranked();
        let p = Partition::from_ranked_column(r.column(0));
        assert_eq!(p.n_classes(), 2);
        assert_eq!(p.n_singletons(), 1);
        assert_eq!(p.n_classes_unstripped(), 3);
        let classes = normalize(&p);
        assert!(classes.contains(&vec![0, 1, 3])); // the three `sec` rows
        assert!(classes.contains(&vec![2, 4, 5, 6, 7])); // the five `dev` rows
    }

    #[test]
    fn unit_partition() {
        let p = Partition::unit(5);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.class(0), &[0, 1, 2, 3, 4]);
        assert!(!p.is_key());
        let tiny = Partition::unit(1);
        assert!(tiny.is_key());
        assert_eq!(tiny.n_classes_unstripped(), 1);
        let empty = Partition::unit(0);
        assert!(empty.is_key());
        assert_eq!(empty.n_classes_unstripped(), 0);
    }

    #[test]
    fn product_matches_brute_force_on_employee() {
        let r = employee_ranked();
        let attr_sets: &[&[usize]] = &[
            &[0, 1],
            &[0, 3],
            &[3, 4],
            &[0, 1, 3],
            &[0, 3, 4, 6],
            &[2, 3],
        ];
        for attrs in attr_sets {
            let p = Partition::for_attrs(&r, attrs.iter().copied());
            assert_eq!(normalize(&p), brute_partition(&r, attrs), "attrs {attrs:?}");
        }
    }

    #[test]
    fn product_is_commutative() {
        // Π_{pos,taxGrp} from either side: refine Π_pos by taxGrp, or
        // Π_taxGrp by pos.
        let r = employee_ranked();
        let mut s = RefineScratch::default();
        let a = Partition::from_ranked_column(r.column(0));
        let b = Partition::from_ranked_column(r.column(3));
        let ab = refine(&a, &r, 3, &mut s);
        let ba = refine(&b, &r, 0, &mut s);
        assert_eq!(normalize(&ab), normalize(&ba));
        assert_eq!(normalize(&ab), brute_partition(&r, &[0, 3]));
    }

    #[test]
    fn product_with_unit_is_identity() {
        let r = employee_ranked();
        let mut s = RefineScratch::default();
        let a = Partition::from_ranked_column(r.column(0));
        let u = Partition::unit(r.n_rows());
        // Refining Π_∅ by a column yields that column's partition, and
        // refining a partition by a column it already fixes changes
        // nothing (not even the class order).
        assert_eq!(normalize(&refine(&u, &r, 0, &mut s)), normalize(&a));
        assert_eq!(refine(&a, &r, 0, &mut s), a);
        // Both agree with the two-parent product against the unit.
        assert_eq!(refine(&u, &r, 0, &mut s), reference_product(&a, &u));
        assert_eq!(refine(&a, &r, 0, &mut s), reference_product(&u, &a));
    }

    #[test]
    fn key_detection() {
        let r = employee_ranked();
        // sal (col 2) has 9 distinct values over 9 rows -> key.
        let p = Partition::from_ranked_column(r.column(2));
        assert!(p.is_key());
        assert_eq!(p.key_removal_count(), 0);
        // pos is not a key; removing all-but-one per class keys it.
        let q = Partition::from_ranked_column(r.column(0));
        assert_eq!(q.key_removal_count(), (3 - 1) + (5 - 1));
    }

    #[test]
    fn fd_removal_count_examples() {
        let r = employee_ranked();
        let t = employee_table();
        let sal = r.column(2);
        // sal -> taxGrp holds (OD implies FD).
        let p_sal = Partition::from_ranked_column(sal);
        let tax_grp = r.column(3);
        assert!(p_sal.fd_holds(tax_grp.ranks(), tax_grp.n_distinct()));
        // pos,exp -> sal does NOT hold: t6,t7 split (same dev/5, salaries differ).
        let p = Partition::for_attrs(&r, [0, 1]);
        let sal_col = r.column(2);
        assert!(!p.fd_holds(sal_col.ranks(), sal_col.n_distinct()));
        assert_eq!(p.fd_removal_count(sal_col.ranks(), sal_col.n_distinct()), 1);
        assert_eq!(t.n_rows(), 9);
    }

    #[test]
    fn fd_removal_keeps_majority_value() {
        // Class {0,1,2,3} with A values [7,7,7,1]: remove 1 row.
        let ranks = vec![0u32, 0, 0, 0];
        let p = Partition::from_ranks(&ranks, 1);
        let a = vec![1u32, 1, 1, 0];
        assert_eq!(p.fd_removal_count(&a, 2), 1);
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let r = employee_ranked();
        let mut scratch = RefineScratch::default();
        let a = Partition::from_ranked_column(r.column(0));
        let p1 = refine(&a, &r, 3, &mut scratch);
        let p2 = refine(&a, &r, 3, &mut scratch);
        assert_eq!(p1, p2);
        let p3 = refine(&p1, &r, 1, &mut scratch);
        assert_eq!(normalize(&p3), brute_partition(&r, &[0, 1, 3]));
        // A narrower column after a wider one (and back) reuses the tally.
        let p4 = refine(&a, &r, 2, &mut scratch);
        assert_eq!(normalize(&p4), brute_partition(&r, &[0, 2]));
        assert_eq!(refine(&a, &r, 3, &mut scratch), p1);
    }

    /// Refines `parent` by `ranks` and checks the result against the
    /// two-parent product with `other` (any partition of a set that adds
    /// exactly the refining column) and against the brute-force classes.
    fn check_refinement(
        parent: &Partition,
        other: &Partition,
        col: &[u32],
        scratch: &mut RefineScratch,
        brute: &[Vec<u32>],
    ) -> Partition {
        let n_distinct = col.iter().max().map_or(0, |&v| v + 1);
        let refined = parent.refine_with_scratch(col, n_distinct, scratch);
        assert_eq!(refined, reference_product(other, parent));
        assert_eq!(normalize(&refined), brute);
        assert!(refined.classes().all(|c| c.windows(2).all(|w| w[0] < w[1])));
        refined
    }

    #[test]
    fn refine_edge_cases_share_one_scratch() {
        let mut scratch = RefineScratch::default();
        for n in 0..=1 {
            let col = vec![0u32; n];
            let unit = Partition::unit(n);
            let p = check_refinement(
                &unit,
                &Partition::from_ranks(&col, 1),
                &col,
                &mut scratch,
                &[],
            );
            assert!(p.is_key());
            assert_eq!(p.n_rows(), n);
        }

        let n = 12usize;
        let distinct: Vec<u32> = (0..n as u32).collect();
        let equal = vec![0u32; n];
        let mixed: Vec<u32> = (0..n as u32).map(|r| r % 3).collect();
        let p_distinct = Partition::from_ranks(&distinct, n as u32);
        let p_equal = Partition::from_ranks(&equal, 1);
        let p_mixed = Partition::from_ranks(&mixed, 3);
        let cols = vec![distinct.clone(), equal.clone(), mixed.clone()];
        let table = RankedTable::from_u32_columns(cols);

        // A key (stripped-empty) parent stays empty whatever refines it.
        assert!(p_distinct.is_key());
        for (col, other) in [
            (&equal, &p_equal),
            (&mixed, &p_mixed),
            (&distinct, &p_distinct),
        ] {
            let p = check_refinement(&p_distinct, other, col, &mut scratch, &[]);
            assert!(p.is_key());
        }
        // An all-distinct column turns any parent into a key.
        for parent in [&p_equal, &p_mixed, &Partition::unit(n)] {
            check_refinement(parent, &p_distinct, &distinct, &mut scratch, &[]);
        }
        // An all-equal column changes nothing.
        for parent in [&p_equal, &p_mixed] {
            let p = check_refinement(parent, &p_equal, &equal, &mut scratch, &normalize(parent));
            assert_eq!(&p, parent);
        }
        check_refinement(
            &p_equal,
            &p_mixed,
            &mixed,
            &mut scratch,
            &brute_partition(&table, &[1, 2]),
        );
    }

    #[test]
    fn classes_have_ascending_row_ids() {
        let r = employee_ranked();
        let p = Partition::for_attrs(&r, [0, 3]);
        for class in p.classes() {
            assert!(class.windows(2).all(|w| w[0] < w[1]), "{class:?}");
        }
    }

    #[test]
    #[should_panic(expected = "u32 row ids would wrap")]
    fn unit_rejects_relations_beyond_u32_row_ids() {
        // The guard fires before any allocation, so the oversized count is
        // safe to pass in a test.
        let _ = Partition::unit(aod_table::MAX_ROWS + 1);
    }

    #[test]
    fn unit_accepts_up_to_max_rows_boundary_check() {
        // The check itself (not the allocation) is the contract: MAX_ROWS
        // passes, MAX_ROWS + 1 errors.
        assert!(aod_table::check_row_count(aod_table::MAX_ROWS).is_ok());
        assert!(aod_table::check_row_count(aod_table::MAX_ROWS + 1).is_err());
    }

    #[test]
    fn max_class_size() {
        let r = employee_ranked();
        let p = Partition::from_ranked_column(r.column(0));
        assert_eq!(p.max_class_size(), 5);
        assert_eq!(Partition::unit(0).max_class_size(), 0);
    }

    /// Tables of up to 40 rows and 2–6 columns, each column of cardinality
    /// 1–8, so classes of 2, 3 and many rows all occur.
    fn small_table() -> impl Strategy<Value = Vec<Vec<u32>>> {
        (0usize..41, 2usize..7).prop_flat_map(|(n, n_cols)| {
            proptest::collection::vec(
                (1u32..9).prop_flat_map(move |card| proptest::collection::vec(0..card, n)),
                n_cols,
            )
        })
    }

    thread_local! {
        /// One scratch for every generated case, so a tally left un-reset
        /// by one case corrupts a later one.
        static SHARED: RefCell<RefineScratch> = RefCell::new(RefineScratch::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For every attribute set `X` of at least two columns and every
        /// `c ∈ X`, refining `Π_{X∖c}` by `c` equals (`==`, class order
        /// included) the two-parent product of `Π_{X∖c}` with `Π_c` and
        /// with a second parent `Π_{X∖d}`, and has the brute-force classes.
        #[test]
        fn refinement_matches_two_parent_product(cols in small_table()) {
            let table = RankedTable::from_u32_columns(cols);
            let n_cols = table.n_cols();
            SHARED.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                // parts[bits] = Π of the set with those bits, each built by
                // refining the set minus its highest column.
                let mut parts = vec![Partition::unit(table.n_rows())];
                for bits in 1usize..1 << n_cols {
                    let high = usize::BITS as usize - 1 - bits.leading_zeros() as usize;
                    let p = refine(&parts[bits & !(1 << high)], &table, high, scratch);
                    parts.push(p);
                }
                for bits in 1usize..1 << n_cols {
                    let attrs: Vec<usize> = (0..n_cols).filter(|a| bits >> a & 1 == 1).collect();
                    let brute = brute_partition(&table, &attrs);
                    prop_assert_eq!(normalize(&parts[bits]), brute.clone());
                    prop_assert_eq!(
                        normalize(&Partition::for_attrs(&table, attrs.iter().copied())),
                        brute.clone()
                    );
                    for &c in &attrs {
                        let parent = &parts[bits & !(1 << c)];
                        let col = table.column(c);
                        let refined = parent.refine_with_scratch(col.ranks(), col.n_distinct(), scratch);
                        prop_assert_eq!(&refined, &reference_product(&parts[1 << c], parent));
                        if let Some(&d) = attrs.iter().find(|&&d| d != c) {
                            prop_assert_eq!(&refined, &reference_product(&parts[bits & !(1 << d)], parent));
                        }
                        prop_assert_eq!(normalize(&refined), brute.clone());
                    }
                }
                Ok(())
            })?;
        }
    }
}
