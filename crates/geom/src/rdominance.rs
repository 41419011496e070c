//! The r-dominance test of Section IV-A.
//!
//! Given a region `R` in the preference domain, a vertex `v` r-dominates `v′`
//! when `S(v) ≥ S(v′)` for **every** weight vector in `R` (Definition 4,
//! Fig. 3). Because the score difference is affine in the reduced weights,
//! the test only needs to examine the vertices of the polytope defining `R`.
//!
//! **Float ties.** A score difference within `[-EPS, EPS]` at a corner is a
//! tie at that corner: it counts for neither side. So a pair whose
//! differences all lie in that band is [`DominanceRelation::Equivalent`],
//! one corner beyond `EPS` (and none below `-EPS`) already makes it
//! [`DominanceRelation::Dominates`], and the band is closed — a difference
//! of exactly `EPS` is still a tie.

use crate::halfspace::HalfSpace;
use crate::region::PrefRegion;
use crate::EPS;

/// Outcome of comparing two attribute vectors over a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DominanceRelation {
    /// The first vector scores at least as high everywhere in `R`, and
    /// strictly higher somewhere (Fig. 3(a)).
    Dominates,
    /// The second vector scores at least as high everywhere in `R`, and
    /// strictly higher somewhere (Fig. 3(c)).
    DominatedBy,
    /// Each scores higher in some part of `R` (Fig. 3(b)).
    Incomparable,
    /// The scores coincide everywhere in `R` (identical attribute vectors, or
    /// vectors whose difference is orthogonal to `R`).
    Equivalent,
}

/// r-dominance test between two `d`-dimensional attribute vectors w.r.t. the
/// corners of `R` (Section IV-A: `O(p·d)` where `p` is the number of polytope
/// vertices).
pub fn r_dominance(a: &[f64], b: &[f64], region: &PrefRegion) -> DominanceRelation {
    r_dominance_at_corners(&HalfSpace::score_at_least(a, b), &region.corners())
}

/// Same as [`r_dominance`] but takes the precomputed half-space
/// `S(a) ≥ S(b)` and the region's precomputed
/// [`corners`](PrefRegion::corners), so a caller testing many pairs against
/// one region builds neither twice.
pub fn r_dominance_at_corners(hs: &HalfSpace, corners: &[Vec<f64>]) -> DominanceRelation {
    let mut any_pos = false;
    let mut any_neg = false;
    for corner in corners {
        let val = hs.eval(corner);
        if val > EPS {
            any_pos = true;
        } else if val < -EPS {
            any_neg = true;
        }
        if any_pos && any_neg {
            return DominanceRelation::Incomparable;
        }
    }
    match (any_pos, any_neg) {
        (true, false) => DominanceRelation::Dominates,
        (false, true) => DominanceRelation::DominatedBy,
        (false, false) => DominanceRelation::Equivalent,
        (true, true) => DominanceRelation::Incomparable,
    }
}

/// Traditional (region-independent) dominance on raw attribute vectors:
/// `a` dominates `b` when it is no smaller in every dimension and strictly
/// larger in at least one. Used by the skyline-community baseline and by tests
/// relating r-dominance to its traditional counterpart.
pub fn traditional_dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b.iter()) {
        if x + EPS < *y {
            return false;
        }
        if x - EPS > *y {
            strictly = true;
        }
    }
    strictly
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> PrefRegion {
        PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap()
    }

    #[test]
    fn traditional_dominance_implies_r_dominance() {
        let a = [5.0, 5.0, 5.0];
        let b = [4.0, 4.9, 3.0];
        assert!(traditional_dominates(&a, &b));
        assert_eq!(r_dominance(&a, &b, &region()), DominanceRelation::Dominates);
        assert_eq!(
            r_dominance(&b, &a, &region()),
            DominanceRelation::DominatedBy
        );
    }

    #[test]
    fn r_dominance_without_traditional_dominance() {
        // b has a higher third attribute, so no traditional dominance, but the
        // weight on dimension 3 is at least 1 - 0.5 - 0.4 = 0.1 and at most
        // 1 - 0.1 - 0.2 = 0.7; pick vectors where a still wins everywhere.
        let a = [10.0, 10.0, 5.0];
        let b = [1.0, 1.0, 5.5];
        assert!(!traditional_dominates(&a, &b));
        assert_eq!(r_dominance(&a, &b, &region()), DominanceRelation::Dominates);
    }

    #[test]
    fn incomparable_pair() {
        // a wins when w1 is large, b wins when w1 is small.
        let a = [10.0, 0.0, 0.0];
        let b = [0.0, 0.0, 4.0];
        // at corner w1=0.5: S(a)=5, S(b)= 4*(1-0.9)=0.4 -> a wins
        // at corner w1=0.1,w2=0.2: S(a)=1, S(b)=4*0.7=2.8 -> b wins
        assert_eq!(
            r_dominance(&a, &b, &region()),
            DominanceRelation::Incomparable
        );
        assert_eq!(
            r_dominance(&b, &a, &region()),
            DominanceRelation::Incomparable
        );
    }

    #[test]
    fn equivalent_vectors() {
        let a = [3.0, 4.0, 5.0];
        assert_eq!(
            r_dominance(&a, &a, &region()),
            DominanceRelation::Equivalent
        );
        assert!(!traditional_dominates(&a, &a));
    }

    #[test]
    fn paper_vertices_relations() {
        // Fig. 2(a) + Fig. 4(b): within R, v6 r-dominates v7 and v2 r-dominates v7;
        // v2 and v6 are leaves' parents in the DAG; v1 and v5 are incomparable
        // to several vertices. Spot-check a few arcs of the published DAG.
        let v2 = [5.9, 6.2, 6.0];
        let v6 = [5.2, 8.3, 4.3];
        let v7 = [2.1, 5.0, 5.1];
        let v5 = [5.0, 7.6, 3.1];
        let v3 = [2.8, 5.6, 5.1];
        let r = region();
        assert_eq!(r_dominance(&v6, &v7, &r), DominanceRelation::Dominates);
        assert_eq!(r_dominance(&v2, &v7, &r), DominanceRelation::Dominates);
        assert_eq!(r_dominance(&v2, &v3, &r), DominanceRelation::Dominates);
        assert_eq!(r_dominance(&v6, &v5, &r), DominanceRelation::Dominates);
        // v7 sits at the bottom layer: it dominates nothing among these
        for other in [v2, v6, v5, v3] {
            assert_ne!(r_dominance(&v7, &other, &r), DominanceRelation::Dominates);
        }
    }

    /// The tie band is closed at `EPS`: a constant difference of exactly
    /// `EPS` at every corner is a tie, the next representable value above it
    /// is a win, and symmetrically below `-EPS`.
    #[test]
    fn corner_differences_within_eps_are_ties() {
        let corners = region().corners();
        let at =
            |offset: f64| r_dominance_at_corners(&HalfSpace::new(vec![0.0, 0.0], offset), &corners);
        let above = f64::from_bits(EPS.to_bits() + 1);
        assert!(above > EPS);
        assert_eq!(at(EPS), DominanceRelation::Equivalent);
        assert_eq!(at(-EPS), DominanceRelation::Equivalent);
        assert_eq!(at(0.0), DominanceRelation::Equivalent);
        assert_eq!(at(above), DominanceRelation::Dominates);
        assert_eq!(at(-above), DominanceRelation::DominatedBy);
    }

    #[test]
    fn transitivity_on_random_samples() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(11);
        let r = PrefRegion::from_ranges(&[(0.05, 0.45), (0.1, 0.4), (0.05, 0.2)]).unwrap();
        for _ in 0..200 {
            let v: Vec<Vec<f64>> = (0..3)
                .map(|_| (0..4).map(|_| rng.random_range(0.0..10.0)).collect())
                .collect();
            let ab = r_dominance(&v[0], &v[1], &r);
            let bc = r_dominance(&v[1], &v[2], &r);
            let ac = r_dominance(&v[0], &v[2], &r);
            if ab == DominanceRelation::Dominates && bc == DominanceRelation::Dominates {
                assert!(
                    ac == DominanceRelation::Dominates || ac == DominanceRelation::Equivalent,
                    "transitivity violated"
                );
            }
        }
    }
}
