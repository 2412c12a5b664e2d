//! Longest increasing / non-decreasing subsequence in `O(m log m)`.
//!
//! This is the engine of the paper's optimal AOC validator (Algorithm 2,
//! line 4): per context class the tuples are sorted by `[A asc, B asc]` and a
//! longest **non-decreasing** subsequence (LNDS) of the `B` projection is the
//! maximal set of tuples that can be kept; its complement is a *minimal*
//! removal set (Theorem 3.3).
//!
//! The implementation is the classic patience/Fredman tails algorithm
//! [Fredman '75]. [`lnds_indices`] / [`lis_indices`] keep tails as indices
//! plus parent pointers so the actual subsequence can be reconstructed.
//! The length-only kernel ([`lnds_removals_within`], and
//! [`lnds_length_with`] as its unbounded case) keeps the tail *values*
//! themselves, so each binary-search step is one load, and appends without
//! a search when an element extends the longest pile. The paper's
//! `Ω(m log m)` lower bound (Theorem 3.4) makes this optimal.
//!
//! **Budgeted early exit.** After `i + 1` elements the tails array has
//! length `LNDS(prefix)`, and `LNDS(seq) <= LNDS(prefix) + (m - i - 1)`, so
//! `i + 1 - tails.len()` removals are already forced. The count only grows,
//! by one each time an element replaces a tail instead of appending, so
//! the kernel stops at the first replacement that takes it past the budget.

/// Strictness of the subsequence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonicity {
    /// Strictly increasing (`<`): used for the LIS-DEC reduction and tests.
    Strict,
    /// Non-decreasing (`<=`): used by the validators.
    NonDecreasing,
}

/// Computes the indices (ascending) of one longest non-decreasing
/// subsequence of `seq`.
///
/// `O(m log m)` time, `O(m)` space. Ties are resolved so that the
/// lexicographically-first witness among optimal tails is produced, but any
/// caller must only rely on (a) the indices being strictly increasing,
/// (b) the projected values being non-decreasing, and (c) maximal length.
pub fn lnds_indices<T: Ord>(seq: &[T]) -> Vec<u32> {
    let mut out = Vec::new();
    lnds_indices_with(seq, &mut Vec::new(), &mut Vec::new(), &mut out);
    out
}

/// [`lnds_indices`] against caller-provided buffers, for loops that need
/// one witness per class and must not allocate per call: the indices are
/// written to `out`, and `tails` and `parent` are scratch. All three are
/// cleared on entry; their capacity is reused across calls.
pub fn lnds_indices_with<T: Ord>(
    seq: &[T],
    tails: &mut Vec<u32>,
    parent: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    subsequence_indices(seq, Monotonicity::NonDecreasing, tails, parent, out);
}

/// Computes the indices (ascending) of one longest strictly increasing
/// subsequence of `seq`.
pub fn lis_indices<T: Ord>(seq: &[T]) -> Vec<u32> {
    let mut out = Vec::new();
    subsequence_indices(
        seq,
        Monotonicity::Strict,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// Length of the longest non-decreasing subsequence, without
/// reconstructing it (saves the parent-pointer array; used when only the
/// removal-set *size* matters, e.g. threshold checks).
pub fn lnds_length<T: Ord + Copy>(seq: &[T]) -> usize {
    lnds_length_with(seq, &mut Vec::new())
}

/// [`lnds_length`] against caller-provided scratch, for hot loops that
/// compute one LNDS per candidate class and must not allocate per call.
/// `tails` is cleared on entry and left holding the smallest tail value of
/// each pile; its capacity is reused across calls.
pub fn lnds_length_with<T: Ord + Copy>(seq: &[T], tails: &mut Vec<T>) -> usize {
    let removed = lnds_removals_within(seq, tails, usize::MAX);
    seq.len() - removed.expect("an unbounded budget is never exceeded")
}

/// Minimal number of elements to remove from `seq` so the rest is
/// non-decreasing (`m - LNDS(seq)`), if that number is at most `budget`.
///
/// Returns `Some(r)` exactly when `r <= budget`, and `None` as soon as the
/// removals forced by a prefix exceed `budget` (see the module docs), so
/// an over-budget sequence is abandoned without scanning its tail. Scratch
/// handling is as in [`lnds_length_with`].
pub fn lnds_removals_within<T: Ord + Copy>(
    seq: &[T],
    tails: &mut Vec<T>,
    budget: usize,
) -> Option<usize> {
    tails_within(seq, tails, budget, |tail, v| tail <= v)
}

/// Length of the longest strictly increasing subsequence.
pub fn lis_length<T: Ord + Copy>(seq: &[T]) -> usize {
    let removed = tails_within(seq, &mut Vec::new(), usize::MAX, |tail, v| tail < v);
    seq.len() - removed.expect("an unbounded budget is never exceeded")
}

/// The patience loop over tail values shared by the length-only entry
/// points: `tails[k]` is the smallest tail of a subsequence of length
/// `k + 1` seen so far, and `extends(tail, v)` says whether `v` may follow
/// `tail`. Returns the removal count `m - tails.len()`, or `None` once it
/// exceeds `budget`.
#[inline]
fn tails_within<T: Copy>(
    seq: &[T],
    tails: &mut Vec<T>,
    budget: usize,
    extends: impl Fn(T, T) -> bool,
) -> Option<usize> {
    tails.clear();
    let mut removed = 0usize;
    for &v in seq {
        match tails.last() {
            Some(&last) if !extends(last, v) => {
                // `v` cannot follow the last pile, so it replaces an earlier
                // tail and the subsequence does not grow: one more removal.
                let pos = tails.partition_point(|&t| extends(t, v));
                tails[pos] = v;
                removed += 1;
                if removed > budget {
                    return None;
                }
            }
            _ => tails.push(v),
        }
    }
    Some(removed)
}

/// Full patience algorithm with parent pointers; writes the indices of one
/// optimal subsequence to `out`. Here `tails[k]` is the *index* of the
/// smallest tail of a subsequence of length `k + 1`.
fn subsequence_indices<T: Ord>(
    seq: &[T],
    mode: Monotonicity,
    tails: &mut Vec<u32>,
    parent: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    tails.clear();
    out.clear();
    // parent[i] = index of the predecessor of seq[i] in the best subsequence
    // ending at i, or u32::MAX for none.
    parent.clear();
    parent.resize(seq.len(), u32::MAX);
    for (i, v) in seq.iter().enumerate() {
        let pos = insertion_point(seq, tails, v, mode);
        if pos > 0 {
            parent[i] = tails[pos - 1];
        }
        if pos == tails.len() {
            tails.push(i as u32);
        } else {
            tails[pos] = i as u32;
        }
    }
    let Some(&last) = tails.last() else {
        return;
    };
    let mut cur = last;
    loop {
        out.push(cur);
        if parent[cur as usize] == u32::MAX {
            break;
        }
        cur = parent[cur as usize];
    }
    out.reverse();
}

/// Binary search for the patience pile `v` lands on.
///
/// For non-decreasing subsequences we replace the first tail **greater
/// than** `v` (upper bound); for strictly increasing the first tail
/// **greater than or equal to** `v` (lower bound).
#[inline]
fn insertion_point<T: Ord>(seq: &[T], tails: &[u32], v: &T, mode: Monotonicity) -> usize {
    tails.partition_point(|&t| match mode {
        Monotonicity::NonDecreasing => seq[t as usize] <= *v,
        Monotonicity::Strict => seq[t as usize] < *v,
    })
}

/// Quadratic dynamic-programming reference implementation.
///
/// Exists so property tests can cross-check the `O(m log m)` algorithm;
/// returns only the optimal length.
pub fn lnds_length_brute<T: Ord>(seq: &[T], mode: Monotonicity) -> usize {
    let n = seq.len();
    let mut best = vec![1usize; n];
    let mut answer = 0usize;
    for i in 0..n {
        for j in 0..i {
            let ok = match mode {
                Monotonicity::NonDecreasing => seq[j] <= seq[i],
                Monotonicity::Strict => seq[j] < seq[i],
            };
            if ok && best[j] + 1 > best[i] {
                best[i] = best[j] + 1;
            }
        }
        answer = answer.max(best[i]);
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_subsequence(seq: &[u32], idx: &[u32], mode: Monotonicity) {
        for w in idx.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing: {idx:?}");
            let (a, b) = (seq[w[0] as usize], seq[w[1] as usize]);
            match mode {
                Monotonicity::NonDecreasing => {
                    assert!(a <= b, "not non-decreasing: {seq:?} {idx:?}")
                }
                Monotonicity::Strict => assert!(a < b, "not strict: {seq:?} {idx:?}"),
            }
        }
    }

    #[test]
    fn paper_example_3_2() {
        // Projection of Table 1 over `tax` after sorting by [sal, tax]:
        // [2K, 2.5K, 0.3K, 12K, 1.5K, 16.5K, 1.8K, 7.2K, 16K] (in hundreds).
        let tax = [20, 25, 3, 120, 15, 165, 18, 72, 160];
        let idx = lnds_indices(&tax);
        assert_eq!(idx.len(), 5);
        let vals: Vec<u32> = idx.iter().map(|&i| tax[i as usize]).collect();
        // The paper's LNDS: [0.3K, 1.5K, 1.8K, 7.2K, 16K].
        assert_eq!(vals, vec![3, 15, 18, 72, 160]);
        // Removal set = rows {t1, t2, t4, t6} => positions {0, 1, 3, 5}.
        let removed: Vec<u32> = (0..9).filter(|i| !idx.contains(i)).collect();
        assert_eq!(removed, vec![0, 1, 3, 5]);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(lnds_indices::<u32>(&[]), Vec::<u32>::new());
        assert_eq!(lnds_indices(&[7u32]), vec![0]);
        assert_eq!(lis_length::<u32>(&[]), 0);
    }

    #[test]
    fn all_equal_values() {
        let seq = [5u32; 6];
        assert_eq!(lnds_indices(&seq).len(), 6); // non-decreasing keeps all
        assert_eq!(lis_indices(&seq).len(), 1); // strict keeps one
    }

    #[test]
    fn decreasing_sequence() {
        let seq = [9u32, 7, 5, 3, 1];
        assert_eq!(lnds_indices(&seq).len(), 1);
        assert_eq!(lis_length(&seq), 1);
    }

    #[test]
    fn sorted_sequence_keeps_everything() {
        let seq = [1u32, 2, 2, 3, 10];
        assert_eq!(lnds_indices(&seq).len(), 5);
        assert_eq!(lis_indices(&seq).len(), 4); // one of the 2s dropped
    }

    #[test]
    fn classic_lis_case() {
        let seq = [10u32, 9, 2, 5, 3, 7, 101, 18];
        assert_eq!(lis_length(&seq), 4); // e.g. 2,3,7,18
        let idx = lis_indices(&seq);
        assert_eq!(idx.len(), 4);
        assert_valid_subsequence(&seq, &idx, Monotonicity::Strict);
    }

    #[test]
    fn lengths_match_indices() {
        let seq = [3u32, 1, 2, 2, 4, 0, 5, 5, 1];
        assert_eq!(lnds_indices(&seq).len(), lnds_length(&seq));
        assert_eq!(lis_indices(&seq).len(), lis_length(&seq));
    }

    #[test]
    fn brute_force_agreement_small_exhaustive() {
        // Every sequence over {0,1,2} of length <= 7.
        // One set of buffers for every call: reuse must not leak state.
        let (mut tails, mut parent, mut fast) = (Vec::new(), Vec::new(), Vec::new());
        for len in 0..=7usize {
            let mut seq = vec![0u32; len];
            loop {
                for mode in [Monotonicity::NonDecreasing, Monotonicity::Strict] {
                    subsequence_indices(&seq, mode, &mut tails, &mut parent, &mut fast);
                    assert_valid_subsequence(&seq, &fast, mode);
                    assert_eq!(
                        fast.len(),
                        lnds_length_brute(&seq, mode),
                        "length mismatch on {seq:?} ({mode:?})"
                    );
                }
                // next sequence in base-3 counting
                let mut i = 0;
                while i < len {
                    seq[i] += 1;
                    if seq[i] < 3 {
                        break;
                    }
                    seq[i] = 0;
                    i += 1;
                }
                if i == len {
                    break;
                }
            }
            if len == 0 {
                continue;
            }
        }
    }

    /// SplitMix64: a seeded generator, so failures reproduce.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn bounded_kernel_matches_brute_force_at_every_budget() {
        let mut state = 0x5EED_u64;
        let mut tails = Vec::new();
        for case in 0..3000 {
            let len = case % 65;
            // Small alphabets force many ties; the largest makes them rare.
            let alphabet = [2u64, 3, 5, 16, 1 << 20][(case / 65) % 5];
            let seq: Vec<u32> = (0..len)
                .map(|_| (splitmix(&mut state) % alphabet) as u32)
                .collect();
            let r = len - lnds_length_brute(&seq, Monotonicity::NonDecreasing);
            assert_eq!(lnds_length_with(&seq, &mut tails), len - r, "{seq:?}");
            assert_eq!(
                lis_length(&seq),
                lnds_length_brute(&seq, Monotonicity::Strict)
            );
            for budget in 0..=len {
                assert_eq!(
                    lnds_removals_within(&seq, &mut tails, budget),
                    (r <= budget).then_some(r),
                    "budget {budget} on {seq:?}"
                );
            }
        }
    }

    #[test]
    fn bounded_kernel_stops_before_the_end() {
        // Strictly decreasing: every element after the first is a forced
        // removal, so budget 2 is exhausted at the fourth element and the
        // rest of the sequence is never looked at.
        let seq = [9u32, 8, 7, 6, 5, 4, 3, 2, 1];
        let mut tails = Vec::new();
        assert_eq!(lnds_removals_within(&seq, &mut tails, 2), None);
        assert_eq!(tails.len(), 1);
        assert_eq!(tails, vec![6]);
        assert_eq!(lnds_removals_within(&seq, &mut tails, 8), Some(8));
        assert_eq!(lnds_removals_within::<u32>(&[], &mut tails, 0), Some(0));
    }

    #[test]
    fn works_with_generic_ord_types() {
        let words = ["apple", "bee", "bee", "ant", "cat"];
        let idx = lnds_indices(&words);
        assert_eq!(idx.len(), 4); // apple, bee, bee, cat
    }
}
