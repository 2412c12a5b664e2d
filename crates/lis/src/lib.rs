//! # aod-lis — subsequence and inversion algorithms
//!
//! The algorithmic substrate behind both AOC validators of the paper:
//!
//! * [`lnds_indices`] / [`lis_indices`] — longest non-decreasing / strictly
//!   increasing subsequence in `O(m log m)` (patience/Fredman), the core of
//!   the **optimal** validator (Algorithm 2); [`lnds_indices_with`] writes
//!   the witness into caller-provided buffers.
//! * [`lnds_removals_within`] — the length-only LNDS kernel with a removal
//!   budget: it stops as soon as a prefix forces more removals than the
//!   budget allows ([`lnds_length_with`] is its unbounded case).
//! * [`count_inversions`] / [`per_element_inversions`] — merge-sort and
//!   Fenwick-tree inversion counting, the core of the **iterative** baseline
//!   validator (Algorithm 1).
//!
//! Brute-force reference implementations ([`lnds_length_brute`],
//! `per_element_inversions_compressed`'s tests) back the property tests.
//!
//! ```
//! use aod_lis::{lnds_indices, count_inversions};
//!
//! let seq = [20u32, 25, 3, 120, 15, 165, 18, 72, 160];
//! assert_eq!(lnds_indices(&seq).len(), 5); // keep 5, remove 4 (Example 3.2)
//! assert!(count_inversions(&seq) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inversions;
mod lnds;

pub use inversions::{
    count_inversions, per_element_inversions, per_element_inversions_compressed, Fenwick,
};
pub use lnds::{
    lis_indices, lis_length, lnds_indices, lnds_indices_with, lnds_length, lnds_length_brute,
    lnds_length_with, lnds_removals_within, Monotonicity,
};
