//! # rsn-geom
//!
//! Preference-domain geometry for the reproduction of *"Multi-attributed
//! Community Search in Road-social Networks"* (ICDE 2021).
//!
//! With `d` numerical attributes and the weight vector constrained to the
//! simplex (`w_i ∈ (0,1)`, `Σ w_i = 1`), the paper drops the last weight and
//! works in the (d−1)-dimensional *preference domain* (Section II-C). The
//! score of a vertex becomes an affine function of the reduced weight vector,
//! so every pairwise comparison `S(u) ≥ S(v)` is a half-space, the region of
//! interest `R` is a convex polytope (an axis-parallel box by default), and
//! r-dominance (Definition 4) is "the half-space covers R".
//!
//! This crate provides those geometric building blocks:
//!
//! * [`weights`] — reduced weight vectors, score evaluation, pivot vectors.
//! * [`region::PrefRegion`] — the axis-parallel region `R`, its corners and
//!   pivot (used as the BBS sorting key in `rsn-dom`).
//! * [`halfspace::HalfSpace`] — the affine form `S(u) − S(v)` as a half-space.
//! * [`rdominance`] — the three-way r-dominance test of Fig. 3.
//! * [`lp`] — a small dense two-phase simplex solver used to classify general
//!   convex cells against half-spaces.
//! * [`cell::Cell`] — a convex sub-partition of `R` in H-representation.
//! * [`partition`] — the binary arrangement index of Algorithm 2, built in
//!   a recyclable [`ArrangeScratch`] by [`arrange_into`]; the global and the
//!   local search both arrange through it.

pub mod cell;
pub mod halfspace;
pub mod lp;
pub mod partition;
pub mod rdominance;
pub mod region;
pub mod weights;

pub use cell::{Cell, CellSide};
pub use halfspace::HalfSpace;
pub use partition::{arrange_into, ArrangeScratch};
pub use rdominance::{r_dominance, DominanceRelation};
pub use region::PrefRegion;
pub use weights::WeightVector;

/// Numerical tolerance used throughout the geometric predicates.
pub const EPS: f64 = 1e-9;

/// Errors produced by the preference-domain geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A weight vector or region had the wrong dimensionality.
    DimensionMismatch {
        /// Expected number of reduced dimensions (d − 1).
        expected: usize,
        /// Provided number of dimensions.
        got: usize,
    },
    /// The region or weight vector violates the simplex constraints.
    InvalidPreference(String),
    /// The requested dimensionality is unsupported (d must be ≥ 1).
    InvalidDimension(usize),
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            GeomError::InvalidPreference(msg) => write!(f, "invalid preference input: {msg}"),
            GeomError::InvalidDimension(d) => write!(f, "invalid dimensionality {d}"),
        }
    }
}

impl std::error::Error for GeomError {}
