//! # aod-partition — equivalence-class machinery
//!
//! Implements Definition 2.8 of the paper and everything the level-wise
//! discovery framework needs to manage it efficiently:
//!
//! * [`AttrSet`] — attribute sets as `u64` bitsets (lattice nodes/contexts).
//! * [`Partition`] — TANE-style *stripped* partitions in a flat CSR layout,
//!   built by refining a parent partition by one column (linear in the
//!   parent's grouped rows), with FD/key error measures.
//! * [`PartitionCache`] — level-aware cache with eviction so discovery holds
//!   at most two lattice levels of partitions in memory.
//!
//! ```
//! use aod_partition::{AttrSet, Partition};
//! use aod_table::{employee_table, RankedTable};
//!
//! let ranked = RankedTable::from_table(&employee_table());
//! // Π_pos from the paper's Example 2.9: {{t1,t2,t4},{t3,t5,t6,t7,t8},{t9}}
//! let pi_pos = Partition::for_attrs(&ranked, [0]);
//! assert_eq!(pi_pos.n_classes_unstripped(), 3);
//! assert_eq!(pi_pos.n_singletons(), 1); // {t9} is stripped
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrset;
mod cache;
mod lattice;
mod stripped;

pub use attrset::{
    AttrIter, AttrSet, AttrSetBuildHasher, AttrSetHasher, AttrSetMap, AttrSetSet, DisplayAttrSet,
    MAX_ATTRS,
};
pub use cache::{FrozenPartitions, PartitionCache};
pub use lattice::{prefix_join, JoinedChild};
pub use stripped::{Partition, RefineScratch};
