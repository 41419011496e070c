//! Reduced weight vectors and score evaluation.
//!
//! The paper's Eq. 1 scores a vertex as `S(v) = Σ_{i=1..d} w_i x_i` with
//! `Σ w_i = 1`. Dropping `w_d = 1 − Σ_{i<d} w_i` maps the weight space to the
//! (d−1)-dimensional preference domain, and the score becomes the affine form
//! `S(v) = x_d + Σ_{i<d} w_i (x_i − x_d)`.

use crate::{GeomError, EPS};
use serde::{Deserialize, Serialize};

/// A reduced weight vector `(w_1, …, w_{d−1})` in the preference domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightVector {
    reduced: Vec<f64>,
}

impl WeightVector {
    /// Creates a reduced weight vector, validating the simplex constraints
    /// `w_i ≥ 0` and `Σ_{i<d} w_i ≤ 1` (the paper uses open intervals; the
    /// closed boundary is accepted here with a tolerance so that region
    /// corners remain representable).
    pub fn new(reduced: Vec<f64>) -> Result<Self, GeomError> {
        for &w in &reduced {
            if !(w.is_finite() && (-EPS..=1.0 + EPS).contains(&w)) {
                return Err(GeomError::InvalidPreference(format!(
                    "weight {w} outside [0, 1]"
                )));
            }
        }
        let sum: f64 = reduced.iter().sum();
        if sum > 1.0 + EPS {
            return Err(GeomError::InvalidPreference(format!(
                "reduced weights sum to {sum} > 1"
            )));
        }
        Ok(WeightVector { reduced })
    }

    /// Creates a reduced weight vector without validation (internal use by
    /// geometric routines that already guarantee validity).
    pub(crate) fn new_unchecked(reduced: Vec<f64>) -> Self {
        WeightVector { reduced }
    }

    /// Uniform preference: every attribute weighted `1/d`.
    pub fn uniform(d: usize) -> Result<Self, GeomError> {
        if d == 0 {
            return Err(GeomError::InvalidDimension(0));
        }
        Ok(WeightVector {
            reduced: vec![1.0 / d as f64; d - 1],
        })
    }

    /// The reduced coordinates `(w_1, …, w_{d−1})`.
    pub fn reduced(&self) -> &[f64] {
        &self.reduced
    }

    /// Number of reduced dimensions (d − 1).
    pub fn reduced_dim(&self) -> usize {
        self.reduced.len()
    }

    /// Number of attributes d.
    fn full_dim(&self) -> usize {
        self.reduced.len() + 1
    }

    /// The implied last weight `w_d = 1 − Σ_{i<d} w_i`.
    fn last_weight(&self) -> f64 {
        1.0 - self.reduced.iter().sum::<f64>()
    }

    /// The full `d`-dimensional weight vector.
    pub fn full(&self) -> Vec<f64> {
        let mut full = self.reduced.clone();
        full.push(self.last_weight());
        full
    }

    /// Score of an attribute vector under this weight vector (Eq. 1).
    pub fn score(&self, attrs: &[f64]) -> f64 {
        debug_assert_eq!(attrs.len(), self.full_dim());
        let xd = attrs[attrs.len() - 1];
        let mut s = xd;
        for (i, &w) in self.reduced.iter().enumerate() {
            s += w * (attrs[i] - xd);
        }
        s
    }
}

/// Score of `attrs` under an explicit reduced weight slice (avoids building a
/// [`WeightVector`] in hot loops).
#[inline]
pub fn score_reduced(attrs: &[f64], reduced_w: &[f64]) -> f64 {
    let xd = attrs[attrs.len() - 1];
    let mut s = xd;
    for (i, &w) in reduced_w.iter().enumerate() {
        s += w * (attrs[i] - xd);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_and_full_roundtrip() {
        let w = WeightVector::new(vec![0.2, 0.3]).unwrap();
        assert_eq!(w.reduced_dim(), 2);
        assert_eq!(w.full_dim(), 3);
        assert!((w.last_weight() - 0.5).abs() < 1e-12);
        assert_eq!(w.full(), vec![0.2, 0.3, 0.5]);
    }

    #[test]
    fn paper_example_score() {
        // Fig. 2(a): v7 = (2.1, 5.0, 5.1), weights (0.2, 0.3, 0.5) -> 4.47
        let w = WeightVector::new(vec![0.2, 0.3]).unwrap();
        let s = w.score(&[2.1, 5.0, 5.1]);
        assert!((s - 4.47).abs() < 1e-9, "score was {s}");
    }

    #[test]
    fn score_matches_weighted_sum() {
        let w = WeightVector::new(vec![0.1, 0.25, 0.3]).unwrap();
        let attrs = [4.0, 2.0, 8.0, 1.0];
        let full = w.full();
        let expect: f64 = attrs.iter().zip(full.iter()).map(|(x, w)| x * w).sum();
        assert!((w.score(&attrs) - expect).abs() < 1e-12);
        assert!((score_reduced(&attrs, w.reduced()) - expect).abs() < 1e-12);
    }

    #[test]
    fn uniform_weights() {
        let w = WeightVector::uniform(4).unwrap();
        assert_eq!(w.reduced_dim(), 3);
        assert!((w.last_weight() - 0.25).abs() < 1e-12);
        assert!(WeightVector::uniform(0).is_err());
        // d = 1: a single attribute, empty reduced vector, w_1 = 1
        let w1 = WeightVector::uniform(1).unwrap();
        assert_eq!(w1.reduced_dim(), 0);
        assert!((w1.score(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_weights() {
        assert!(WeightVector::new(vec![0.7, 0.6]).is_err());
        assert!(WeightVector::new(vec![-0.2]).is_err());
        assert!(WeightVector::new(vec![f64::NAN]).is_err());
    }
}
