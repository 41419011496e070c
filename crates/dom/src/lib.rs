//! # rsn-dom
//!
//! Attribute storage and the r-dominance graph (`G_d`) for the reproduction
//! of *"Multi-attributed Community Search in Road-social Networks"* (ICDE
//! 2021).
//!
//! Section IV of the paper organizes the d-dimensional attribute vectors of
//! the maximal (k,t)-core in an R-tree and adapts the BBS skyband algorithm to
//! compute **all pair-wise r-dominance relationships** w.r.t. the region `R`,
//! materialized as a DAG called the r-dominance graph. The adaptation keys the
//! max-heap by the score under the *pivot vector* of `R`, so that vertices
//! are popped in an order in which later vertices can never r-dominate
//! earlier ones.
//!
//! This crate keeps that visit order but computes it as a plain sort by
//! pivot score. `G_d` needs every relation, so BBS never prunes an R-tree
//! subtree here, and a per-query R-tree would only reproduce the sort at the
//! price of a bulk load and a copy of the attribute matrix. The transitivity
//! skip of the adapted BBS is kept and does prune: see [`dominance`].
//!
//! * [`attrs::AttrMatrix`] — flat row-major attribute storage shared with
//!   the search hot loops.
//! * [`bitset::BitSet`] — compact dominator sets.
//! * [`dominance::DominanceGraph`] — the DAG `G_d`, kept as its dominator
//!   closures, with the leaf and top selectors (`l_b`/`l_t`) both searches
//!   read and the layers `l(v)` of the local search's priorities, computed
//!   on call.

pub mod attrs;
pub mod bitset;
pub mod dominance;

pub use attrs::AttrMatrix;
pub use bitset::BitSet;
pub use dominance::DominanceGraph;
