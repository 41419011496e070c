//! The region of interest `R` in the preference domain.
//!
//! The paper assumes `R` is an axis-parallel hyper-rectangle (its techniques
//! extend to convex polytopes; general cells of the arrangement are handled by
//! [`crate::cell::Cell`]). `R` is specified as per-dimension weight ranges,
//! e.g. `[0.1, 0.5] × [0.2, 0.4]` in Fig. 2(b).

use crate::weights::WeightVector;
use crate::{GeomError, EPS};
use serde::{Deserialize, Serialize};

/// Axis-parallel region of interest in the (d−1)-dimensional preference
/// domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefRegion {
    lows: Vec<f64>,
    highs: Vec<f64>,
}

impl PrefRegion {
    /// Creates a region from per-dimension `(low, high)` weight ranges.
    ///
    /// Validation enforces `0 ≤ low ≤ high ≤ 1` per dimension and that the
    /// sum of the lower bounds stays below 1, so that every point of the
    /// region is a valid reduced weight vector.
    pub fn from_ranges(ranges: &[(f64, f64)]) -> Result<Self, GeomError> {
        let mut lows = Vec::with_capacity(ranges.len());
        let mut highs = Vec::with_capacity(ranges.len());
        for &(lo, hi) in ranges {
            if !(lo.is_finite() && hi.is_finite()) || lo < -EPS || hi > 1.0 + EPS || lo > hi + EPS {
                return Err(GeomError::InvalidPreference(format!(
                    "invalid weight range [{lo}, {hi}]"
                )));
            }
            lows.push(lo);
            highs.push(hi);
        }
        let low_sum: f64 = lows.iter().sum();
        if low_sum > 1.0 + EPS {
            return Err(GeomError::InvalidPreference(format!(
                "lower bounds sum to {low_sum} > 1; no valid weight vector exists in the region"
            )));
        }
        Ok(PrefRegion { lows, highs })
    }

    /// A region built from a centre weight vector ± `sigma` (as a fraction of
    /// the axis length), clamped to `[0, 1]`. This mirrors the `σ` parameter
    /// of the paper's experiments (percentage of axis length, Table III).
    pub fn around(center: &WeightVector, sigma: f64) -> Result<Self, GeomError> {
        let half = sigma / 2.0;
        let ranges: Vec<(f64, f64)> = center
            .reduced()
            .iter()
            .map(|&c| ((c - half).max(0.0), (c + half).min(1.0)))
            .collect();
        Self::from_ranges(&ranges)
    }

    /// Number of reduced dimensions (d − 1).
    pub fn dim(&self) -> usize {
        self.lows.len()
    }

    /// Per-dimension lower bounds.
    pub fn lows(&self) -> &[f64] {
        &self.lows
    }

    /// Per-dimension upper bounds.
    pub fn highs(&self) -> &[f64] {
        &self.highs
    }

    /// Whether a reduced weight point lies inside the region (with tolerance).
    pub fn contains(&self, reduced_w: &[f64]) -> bool {
        reduced_w.len() == self.dim()
            && reduced_w
                .iter()
                .zip(self.lows.iter().zip(self.highs.iter()))
                .all(|(&w, (&lo, &hi))| w >= lo - EPS && w <= hi + EPS)
    }

    /// The `2^(d−1)` corner points of the region.
    ///
    /// r-dominance against the whole region only needs the affine form to be
    /// checked at these corners (Section IV-A).
    pub fn corners(&self) -> Vec<Vec<f64>> {
        let dim = self.dim();
        if dim == 0 {
            return vec![Vec::new()];
        }
        let mut corners = Vec::with_capacity(1 << dim);
        for mask in 0..(1u64 << dim) {
            let corner: Vec<f64> = (0..dim)
                .map(|i| {
                    if mask & (1 << i) != 0 {
                        self.highs[i]
                    } else {
                        self.lows[i]
                    }
                })
                .collect();
            corners.push(corner);
        }
        corners
    }

    /// The pivot vector of the region: the per-dimension mean of its corners,
    /// guaranteed to lie inside `R` by convexity (Section IV-B uses it as the
    /// BBS sorting key).
    pub fn pivot(&self) -> WeightVector {
        let reduced = self
            .lows
            .iter()
            .zip(self.highs.iter())
            .map(|(&lo, &hi)| 0.5 * (lo + hi))
            .collect();
        WeightVector::new_unchecked(reduced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_region() {
        // Fig. 2(b): R = [0.1, 0.5] x [0.2, 0.4]
        let r = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
        assert_eq!(r.dim(), 2);
        assert!(r.contains(&[0.2, 0.3]));
        assert!(!r.contains(&[0.6, 0.3]));
        assert!(!r.contains(&[0.2, 0.5]));
        let corners = r.corners();
        assert_eq!(corners.len(), 4);
        assert!(corners.contains(&vec![0.1, 0.2]));
        assert!(corners.contains(&vec![0.5, 0.4]));
        let pivot = r.pivot();
        assert!((pivot.reduced()[0] - 0.3).abs() < 1e-12);
        assert!((pivot.reduced()[1] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_regions() {
        assert!(PrefRegion::from_ranges(&[(0.5, 0.2)]).is_err());
        assert!(PrefRegion::from_ranges(&[(-0.1, 0.2)]).is_err());
        assert!(PrefRegion::from_ranges(&[(0.1, 1.4)]).is_err());
        // lower bounds already exceed the simplex
        assert!(PrefRegion::from_ranges(&[(0.7, 0.8), (0.6, 0.9)]).is_err());
    }

    #[test]
    fn around_center() {
        let c = WeightVector::new(vec![0.3, 0.3]).unwrap();
        let r = PrefRegion::around(&c, 0.1).unwrap();
        assert!(r.contains(&[0.3, 0.3]));
        assert!(r.contains(&[0.34, 0.27]));
        assert!(!r.contains(&[0.4, 0.3]));
        // clamping near the boundary
        let c2 = WeightVector::new(vec![0.02]).unwrap();
        let r2 = PrefRegion::around(&c2, 0.1).unwrap();
        assert!((r2.lows()[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn zero_dimensional_region() {
        // d = 1 attribute: the preference domain is a single point.
        let r = PrefRegion::from_ranges(&[]).unwrap();
        assert_eq!(r.dim(), 0);
        assert_eq!(r.corners(), vec![Vec::<f64>::new()]);
        assert!(r.contains(&[]));
        assert_eq!(r.pivot().reduced_dim(), 0);
    }

    #[test]
    fn corners_match_dimension() {
        let r = PrefRegion::from_ranges(&[(0.1, 0.2), (0.2, 0.3), (0.05, 0.15)]).unwrap();
        assert_eq!(r.corners().len(), 8);
        for c in r.corners() {
            assert!(r.contains(&c));
        }
    }
}
