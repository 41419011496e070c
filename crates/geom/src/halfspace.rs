//! Half-spaces in the preference domain.
//!
//! For two attribute vectors `X(u)` and `X(v)`, the score difference
//! `S(u) − S(v)` is affine in the reduced weight vector `w`:
//!
//! ```text
//! S(u) − S(v) = (x_d^u − x_d^v) + Σ_{i<d} w_i ((x_i^u − x_d^u) − (x_i^v − x_d^v))
//! ```
//!
//! The constraint `S(u) ≥ S(v)` therefore defines the half-space
//! `HS: f(w) ≥ 0` with `f(w) = offset + coeffs · w`. These half-spaces are the
//! atoms of the arrangement that Algorithm 1 builds inside the region `R`.

use crate::EPS;
use serde::{Deserialize, Serialize};

/// The affine form `f(w) = offset + coeffs · w`; the half-space is `f(w) ≥ 0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HalfSpace {
    /// Linear coefficients over the reduced weights.
    pub coeffs: Vec<f64>,
    /// Constant term.
    pub offset: f64,
}

impl HalfSpace {
    /// Creates a half-space directly from the affine form.
    pub fn new(coeffs: Vec<f64>, offset: f64) -> Self {
        HalfSpace { coeffs, offset }
    }

    /// The half-space `S(favored) ≥ S(other)` for two `d`-dimensional
    /// attribute vectors.
    pub fn score_at_least(favored: &[f64], other: &[f64]) -> Self {
        let mut hs = HalfSpace::new(Vec::new(), 0.0);
        hs.assign_score_at_least(favored, other);
        hs
    }

    /// [`HalfSpace::score_at_least`] in place: refills this half-space
    /// reusing its coefficient buffer, so pooled half-spaces can be recycled
    /// across queries without reallocating.
    pub fn assign_score_at_least(&mut self, favored: &[f64], other: &[f64]) {
        debug_assert_eq!(favored.len(), other.len());
        let d = favored.len();
        let xd_f = favored[d - 1];
        let xd_o = other[d - 1];
        self.coeffs.clear();
        self.coeffs
            .extend((0..d - 1).map(|i| (favored[i] - xd_f) - (other[i] - xd_o)));
        self.offset = xd_f - xd_o;
    }

    /// In-place copy from another half-space, reusing the coefficient buffer.
    pub fn assign_from(&mut self, src: &HalfSpace) {
        self.coeffs.clear();
        self.coeffs.extend_from_slice(&src.coeffs);
        self.offset = src.offset;
    }

    /// Number of reduced dimensions this half-space lives in.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// Evaluates the affine form at a reduced weight point.
    pub fn eval(&self, reduced_w: &[f64]) -> f64 {
        debug_assert_eq!(reduced_w.len(), self.coeffs.len());
        self.offset
            + self
                .coeffs
                .iter()
                .zip(reduced_w.iter())
                .map(|(c, w)| c * w)
                .sum::<f64>()
    }

    /// Whether the point satisfies the half-space (with tolerance).
    pub fn contains(&self, reduced_w: &[f64]) -> bool {
        self.eval(reduced_w) >= -EPS
    }

    /// Whether the affine form is (numerically) identically zero, which
    /// happens when the two attribute vectors coincide.
    pub fn is_degenerate(&self) -> bool {
        self.offset.abs() < EPS && self.coeffs.iter().all(|c| c.abs() < EPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightVector;

    #[test]
    fn halfspace_matches_score_difference() {
        let u = [8.8, 3.6, 2.2]; // v1 in Fig. 2(a)
        let v = [2.1, 5.0, 5.1]; // v7
        let hs = HalfSpace::score_at_least(&u, &v);
        assert_eq!(hs.dim(), 2);
        for w in [[0.2, 0.3], [0.5, 0.1], [0.05, 0.9], [0.0, 0.0]] {
            let wv = WeightVector::new_unchecked(w.to_vec());
            let diff = wv.score(&u) - wv.score(&v);
            assert!((hs.eval(&w) - diff).abs() < 1e-12);
        }
    }

    #[test]
    fn contains_and_negation() {
        let u = [5.0, 1.0];
        let v = [1.0, 5.0];
        // S(u) - S(v) = (1 - 5) + w1 ((5-1) - (1-5)) = -4 + 8 w1
        let hs = HalfSpace::score_at_least(&u, &v);
        assert!(hs.contains(&[0.6]));
        assert!(!hs.contains(&[0.4]));
        // The complementary half-space S(v) ≥ S(u).
        let neg = HalfSpace::score_at_least(&v, &u);
        assert!(neg.contains(&[0.4]));
        assert!(!neg.contains(&[0.6]));
        // boundary point satisfies both (closed half-spaces)
        assert!(hs.contains(&[0.5]));
        assert!(neg.contains(&[0.5]));
    }

    #[test]
    fn degenerate_halfspace() {
        let u = [3.0, 4.0, 5.0];
        let hs = HalfSpace::score_at_least(&u, &u);
        assert!(hs.is_degenerate());
        let hs2 = HalfSpace::score_at_least(&[1.0, 2.0], &[2.0, 1.0]);
        assert!(!hs2.is_degenerate());
    }

    #[test]
    fn eval_weight_consistency() {
        let hs = HalfSpace::new(vec![2.0, -1.0], 0.5);
        let w = WeightVector::new(vec![0.25, 0.25]).unwrap();
        assert!((hs.eval(w.reduced()) - (0.5 + 0.5 - 0.25)).abs() < 1e-12);
    }
}
