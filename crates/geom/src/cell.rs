//! Convex sub-partitions (cells) of the region `R` in H-representation.
//!
//! A cell is the intersection of the axis-parallel box of `R` with a set of
//! half-space constraints accumulated by the arrangement of Algorithm 2.
//! Classification of a cell against a new hyperplane (does the cell lie on the
//! positive side, the negative side, or does the hyperplane split it?) is done
//! with two small linear programs.

use crate::halfspace::HalfSpace;
use crate::lp::{self, LpOutcome};
use crate::region::PrefRegion;
use crate::EPS;
use serde::{Deserialize, Serialize};

/// Relation of a cell to a half-space `f(w) ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSide {
    /// The cell is entirely contained in the half-space (`f ≥ 0` everywhere).
    Positive,
    /// The cell is entirely contained in the complement (`f ≤ 0` everywhere).
    Negative,
    /// The hyperplane genuinely splits the cell.
    Straddles,
    /// The cell has no feasible point at all.
    Empty,
}

/// A convex cell: box bounds plus accumulated half-space constraints.
///
/// Two-dimensional cells (the `d = 3` attribute regime of every preset and
/// the paper's running example) additionally carry their vertex
/// representation — a convex polygon maintained by Sutherland–Hodgman
/// clipping. Classification, extreme values, and sample points then cost
/// O(#vertices) affine evaluations instead of dense-simplex LP solves, which
/// is where the global search spent almost all of its time. Other
/// dimensionalities fall back to the LP path.
///
/// `Cell::default()` is the cell of the zero-dimensional region (no bounds,
/// no constraints), the husk that pooled cells start from.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    lows: Vec<f64>,
    highs: Vec<f64>,
    constraints: Vec<HalfSpace>,
    /// Convex-polygon vertices (counter-clockwise) when `dim() == 2`.
    poly: Option<Vec<(f64, f64)>>,
}

impl Cell {
    /// The cell covering the whole region `R`.
    pub fn from_region(region: &PrefRegion) -> Self {
        let mut cell = Cell::default();
        cell.assign_region(region);
        cell
    }

    /// In-place variant of [`Cell::from_region`]: refills this cell reusing
    /// its buffers, so a session-held root cell can be rebuilt per query
    /// without reallocating. Any leftover constraints are dropped (a recycled
    /// root carries none in steady state).
    pub fn assign_region(&mut self, region: &PrefRegion) {
        self.lows.clear();
        self.lows.extend_from_slice(region.lows());
        self.highs.clear();
        self.highs.extend_from_slice(region.highs());
        self.constraints.clear();
        if self.lows.len() == 2 {
            let mut poly = self.poly.take().unwrap_or_default();
            poly.clear();
            poly.push((self.lows[0], self.lows[1]));
            poly.push((self.highs[0], self.lows[1]));
            poly.push((self.highs[0], self.highs[1]));
            poly.push((self.lows[0], self.highs[1]));
            self.poly = Some(poly);
        } else {
            self.poly = None;
        }
    }

    /// In-place copy from another cell, reusing `self`'s buffers. Excess
    /// constraint half-spaces are parked in `spare`; missing ones are
    /// recovered from it.
    pub fn assign_from(&mut self, src: &Cell, spare: &mut Vec<HalfSpace>) {
        self.assign_parts(
            &src.lows,
            &src.highs,
            src.constraints.iter().map(|hs| (&hs.coeffs[..], hs.offset)),
            src.poly.as_deref(),
            spare,
        );
    }

    /// Makes `self` the clip of `src` by the half-space `hs` — or by its
    /// complement `−f(w) ≥ 0` when `negate` is set, bitwise identical to
    /// clipping by the sign-flipped half-space — reusing `self`'s buffers:
    /// `src`'s constraints plus `hs` (or `¬hs`) last, and on the 2-D path
    /// `src`'s polygon clipped Sutherland–Hodgman style. Excess constraint
    /// half-spaces are parked in `spare` and missing ones are recovered from
    /// it, so pooled cells cycle without heap traffic.
    pub fn assign_clip(
        &mut self,
        src: &Cell,
        hs: &HalfSpace,
        negate: bool,
        spare: &mut Vec<HalfSpace>,
    ) {
        self.lows.clear();
        self.lows.extend_from_slice(&src.lows);
        self.highs.clear();
        self.highs.extend_from_slice(&src.highs);
        let want = src.constraints.len() + 1;
        while self.constraints.len() > want {
            spare.push(self.constraints.pop().expect("len checked"));
        }
        while self.constraints.len() < want {
            let husk = spare
                .pop()
                .unwrap_or_else(|| HalfSpace::new(Vec::new(), 0.0));
            self.constraints.push(husk);
        }
        for (dst, s) in self.constraints.iter_mut().zip(&src.constraints) {
            dst.assign_from(s);
        }
        let last = self.constraints.last_mut().expect("want >= 1");
        last.coeffs.clear();
        if negate {
            last.coeffs.extend(hs.coeffs.iter().map(|c| -c));
            last.offset = -hs.offset;
        } else {
            last.coeffs.extend_from_slice(&hs.coeffs);
            last.offset = hs.offset;
        }
        match &src.poly {
            Some(src_poly) => {
                let mut poly = self.poly.take().unwrap_or_default();
                clip_polygon_into(src_poly, hs, negate, &mut poly);
                self.poly = Some(poly);
            }
            None => self.poly = None,
        }
    }

    /// Number of reduced dimensions.
    pub fn dim(&self) -> usize {
        self.lows.len()
    }

    /// Half-space constraints added on top of the box (not including the box
    /// bounds themselves).
    pub fn constraints(&self) -> &[HalfSpace] {
        &self.constraints
    }

    /// The box bounds `(lows, highs)` of the region the cell lies in.
    pub fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lows, &self.highs)
    }

    /// The cached vertex representation (counter-clockwise polygon) of a
    /// two-dimensional cell; `None` on the LP path.
    pub fn polygon(&self) -> Option<&[(f64, f64)]> {
        self.poly.as_deref()
    }

    /// In-place rebuild from raw parts, reusing `self`'s buffers: the box
    /// `lows`/`highs`, the constraints as `(coeffs, offset)` pairs in order,
    /// and the polygon. Fed the [`bounds`](Self::bounds),
    /// [`constraints`](Self::constraints) and [`polygon`](Self::polygon) of
    /// a cell, it yields a cell equal to it bit for bit. Excess constraint
    /// half-spaces are parked in `spare`; missing ones are recovered from it.
    pub(crate) fn assign_parts<'a>(
        &mut self,
        lows: &[f64],
        highs: &[f64],
        constraints: impl ExactSizeIterator<Item = (&'a [f64], f64)>,
        poly: Option<&[(f64, f64)]>,
        spare: &mut Vec<HalfSpace>,
    ) {
        self.lows.clear();
        self.lows.extend_from_slice(lows);
        self.highs.clear();
        self.highs.extend_from_slice(highs);
        let want = constraints.len();
        while self.constraints.len() > want {
            spare.push(self.constraints.pop().expect("len checked"));
        }
        while self.constraints.len() < want {
            let husk = spare
                .pop()
                .unwrap_or_else(|| HalfSpace::new(Vec::new(), 0.0));
            self.constraints.push(husk);
        }
        for (dst, (coeffs, offset)) in self.constraints.iter_mut().zip(constraints) {
            dst.coeffs.clear();
            dst.coeffs.extend_from_slice(coeffs);
            dst.offset = offset;
        }
        match poly {
            Some(src_poly) => {
                let mut buf = self.poly.take().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(src_poly);
                self.poly = Some(buf);
            }
            None => self.poly = None,
        }
    }

    /// Approximate memory footprint in bytes (Fig. 11(d) accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.lows.len() + self.highs.len()) * std::mem::size_of::<f64>()
            + self
                .constraints
                .iter()
                .map(|c| (c.coeffs.len() + 1) * std::mem::size_of::<f64>())
                .sum::<usize>()
    }

    /// Whether the point satisfies every constraint of the cell.
    pub fn contains(&self, reduced_w: &[f64]) -> bool {
        if reduced_w.len() != self.dim() {
            return false;
        }
        for ((&w, &lo), &hi) in reduced_w.iter().zip(&self.lows).zip(&self.highs) {
            if w < lo - EPS || w > hi + EPS {
                return false;
            }
        }
        self.constraints.iter().all(|hs| hs.contains(reduced_w))
    }

    /// Builds the LP constraint system `A w ≤ b` of this cell.
    fn lp_constraints(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let dim = self.dim();
        let mut a = Vec::with_capacity(2 * dim + self.constraints.len());
        let mut b = Vec::with_capacity(2 * dim + self.constraints.len());
        for i in 0..dim {
            let mut row = vec![0.0; dim];
            row[i] = 1.0;
            a.push(row.clone());
            b.push(self.highs[i]);
            row[i] = -1.0;
            a.push(row);
            b.push(-self.lows[i]);
        }
        for hs in &self.constraints {
            // offset + c·w >= 0  <=>  -c·w <= offset
            a.push(hs.coeffs.iter().map(|c| -c).collect());
            b.push(hs.offset);
        }
        (a, b)
    }

    /// `(min, max)` of the affine form over the polygon vertices; `None` when
    /// no vertex representation exists (LP fallback) or the polygon is empty.
    fn poly_extremes(&self, hs: &HalfSpace) -> Option<(f64, f64)> {
        let poly = self.poly.as_ref()?;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &(x, y) in poly {
            let v = hs.eval(&[x, y]);
            min = min.min(v);
            max = max.max(v);
        }
        if min.is_finite() {
            Some((min, max))
        } else {
            None
        }
    }

    /// Whether the cell has no feasible point (or only a degenerate sliver
    /// thinner than the numerical tolerance).
    pub fn is_empty(&self) -> bool {
        let dim = self.dim();
        if dim == 0 {
            // Zero-dimensional preference domain: the single point is feasible
            // iff every constraint's constant term is non-negative.
            return self.constraints.iter().any(|hs| hs.offset < -EPS);
        }
        if let Some(poly) = &self.poly {
            return poly.is_empty();
        }
        let (a, b) = self.lp_constraints();
        let zero = vec![0.0; dim];
        matches!(lp::maximize(&zero, &a, &b), LpOutcome::Infeasible)
    }

    /// Classification of the cell against the half-space `f(w) ≥ 0`.
    pub fn classify(&self, hs: &HalfSpace) -> CellSide {
        if let Some(poly) = &self.poly {
            if poly.is_empty() {
                return CellSide::Empty;
            }
            let (min, max) = self
                .poly_extremes(hs)
                .expect("non-empty polygon has extremes");
            if min >= -EPS {
                return CellSide::Positive;
            }
            if max <= EPS {
                return CellSide::Negative;
            }
            return CellSide::Straddles;
        }
        // One constraint system serves both LPs.
        let (a, b) = self.lp_constraints();
        let Some(min) = lp_extreme(hs, &a, &b, false) else {
            return CellSide::Empty;
        };
        if min >= -EPS {
            return CellSide::Positive;
        }
        let Some(max) = lp_extreme(hs, &a, &b, true) else {
            return CellSide::Empty;
        };
        if max <= EPS {
            return CellSide::Negative;
        }
        CellSide::Straddles
    }

    /// A representative point of the cell, roughly in its interior: the
    /// average of the per-axis extreme points returned by the LP (or the
    /// polygon centroid on the 2-D fast path).
    ///
    /// Returns `None` only for genuinely empty cells. Degenerate slivers —
    /// cells pinched flat (or near-flat) by opposing half-spaces — are
    /// recovered by symbolic perturbation: the representative is nudged an
    /// infinitesimal step towards the feasible side of every near-tight
    /// constraint, and the candidate with the largest minimum slack wins.
    /// For a measure-zero cell no strictly interior point exists; the sample
    /// then lies *on* the pinching boundary, where the scores the cell was
    /// split on are exactly equal — downstream consumers break those ties
    /// deterministically (smallest id), so the cell's community is still
    /// enumerated instead of being silently dropped from the arrangement.
    pub fn sample_point(&self) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        self.sample_point_into(&mut out).then_some(out)
    }

    /// [`Cell::sample_point`] into a caller-held buffer: writes the
    /// representative into `out` and returns whether one exists. The 2-D
    /// polygon fast path runs on stack arrays and performs no heap
    /// allocation; the LP path allocates its constraint system.
    ///
    /// The point is a function of the cell's bits alone, so a caller holding
    /// the sample of a cell may reuse it for any bitwise-equal cell — the
    /// global search does so for a cell that passes unsplit through
    /// [`arrange_into`](crate::partition::arrange_into).
    pub fn sample_point_into(&self, out: &mut Vec<f64>) -> bool {
        let dim = self.dim();
        if dim == 0 {
            out.clear();
            return !self.is_empty();
        }
        if let Some(poly) = &self.poly {
            if poly.is_empty() {
                return false;
            }
            // Average of the clip vertices: a point of the cell by convexity,
            // numerically stable even when the polygon is a segment or point.
            let inv = 1.0 / poly.len() as f64;
            let avg = poly
                .iter()
                .fold((0.0, 0.0), |(x, y), &(px, py)| (x + px * inv, y + py * inv));
            // Prefer the area centroid (better centred), but only when it is
            // numerically trustworthy — the centroid formula divides by the
            // signed area and goes haywire on near-degenerate slivers.
            let base = match polygon_centroid(poly) {
                Some(c) if self.min_slack(&[c.0, c.1]) >= self.min_slack(&[avg.0, avg.1]) => c,
                _ => avg,
            };
            let (mut p, mut dir, mut cand) = ([0.0; 2], [0.0; 2], [0.0; 2]);
            self.perturb_to_interior(&[base.0, base.1], &mut p, &mut dir, &mut cand);
            out.clear();
            out.extend_from_slice(&p);
            return true;
        }
        let (a, b) = self.lp_constraints();
        let mut acc = vec![0.0; dim];
        let mut count = 0usize;
        for i in 0..dim {
            for sign in [1.0, -1.0] {
                let mut c = vec![0.0; dim];
                c[i] = sign;
                match lp::maximize(&c, &a, &b) {
                    LpOutcome::Optimal { point, .. } => {
                        for (j, &x) in point.iter().enumerate() {
                            acc[j] += x;
                        }
                        count += 1;
                    }
                    _ => return false,
                }
            }
        }
        let point: Vec<f64> = acc.into_iter().map(|x| x / count as f64).collect();
        let mut scratch = vec![0.0; 2 * dim];
        let (dir, cand) = scratch.split_at_mut(dim);
        out.clear();
        out.resize(dim, 0.0);
        self.perturb_to_interior(&point, out, dir, cand);
        true
    }

    /// Minimum gradient-normalized slack of the point over every half-space
    /// constraint and box bound (positive = strictly inside).
    fn min_slack(&self, point: &[f64]) -> f64 {
        let mut slack = f64::INFINITY;
        for ((&w, &lo), &hi) in point.iter().zip(&self.lows).zip(&self.highs) {
            slack = slack.min(w - lo).min(hi - w);
        }
        for hs in &self.constraints {
            let norm = hs.coeffs.iter().map(|c| c * c).sum::<f64>().sqrt();
            if norm > 0.0 {
                slack = slack.min(hs.eval(point) / norm);
            } else {
                slack = slack.min(hs.eval(point));
            }
        }
        slack
    }

    /// Symbolic-perturbation step: starting from a `point` *of* the cell,
    /// nudge it towards the feasible side of every near-tight constraint and
    /// write the candidate with the largest minimum slack into `best`. A flat
    /// sliver (opposing tight constraints whose gradients cancel) stays where
    /// it is — its relative interior *is* the boundary, and that point is the
    /// correct symbolic limit. `best`, `dir` and `cand` are caller-held
    /// buffers of the cell's dimension.
    fn perturb_to_interior(
        &self,
        point: &[f64],
        best: &mut [f64],
        dir: &mut [f64],
        cand: &mut [f64],
    ) {
        best.copy_from_slice(point);
        let base_slack = self.min_slack(point);
        if base_slack > EPS {
            return;
        }
        // Sum of unit gradients of the near-tight half-spaces: the direction
        // that increases every pinching constraint at once (when one exists).
        let tight = 16.0 * EPS;
        dir.fill(0.0);
        for hs in &self.constraints {
            let norm = hs.coeffs.iter().map(|c| c * c).sum::<f64>().sqrt();
            if norm > 0.0 && hs.eval(point) / norm <= tight {
                for (d, &c) in dir.iter_mut().zip(&hs.coeffs) {
                    *d += c / norm;
                }
            }
        }
        for (i, d) in dir.iter_mut().enumerate() {
            if point[i] - self.lows[i] <= tight {
                *d += 1.0;
            }
            if self.highs[i] - point[i] <= tight {
                *d -= 1.0;
            }
        }
        let len = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
        if len <= EPS {
            // Gradients cancel: a genuinely flat sliver with no interior.
            return;
        }
        let scale: f64 = self
            .highs
            .iter()
            .zip(&self.lows)
            .map(|(h, l)| h - l)
            .fold(0.0, f64::max)
            .max(1.0);
        let mut best_slack = base_slack;
        for k in 0..8 {
            let eps = scale * EPS * 4.0f64.powi(k);
            for ((c, &p), &d) in cand.iter_mut().zip(point).zip(&*dir) {
                *c = p + eps * d / len;
            }
            let slack = self.min_slack(cand);
            if slack > best_slack {
                best_slack = slack;
                best.copy_from_slice(cand);
            }
        }
    }
}

/// Buffer-reusing Sutherland–Hodgman clip against `f(w) ≥ 0` — or against the
/// complement `−f(w) ≥ 0` when `negate` is set. Sign flipping is exact in
/// IEEE arithmetic (negation distributes over rounding), so the negated form
/// is bitwise identical to clipping against the sign-flipped half-space.
fn clip_polygon_into(poly: &[(f64, f64)], hs: &HalfSpace, negate: bool, out: &mut Vec<(f64, f64)>) {
    let sign = if negate { -1.0 } else { 1.0 };
    let eval = |p: (f64, f64)| sign * hs.eval(&[p.0, p.1]);
    let n = poly.len();
    out.clear();
    for i in 0..n {
        let p = poly[i];
        let q = poly[(i + 1) % n];
        let (fp, fq) = (eval(p), eval(q));
        if fp >= 0.0 {
            out.push(p);
        }
        if (fp > 0.0 && fq < 0.0) || (fp < 0.0 && fq > 0.0) {
            // Edge crosses the boundary: interpolate the intersection.
            let t = fp / (fp - fq);
            out.push((p.0 + t * (q.0 - p.0), p.1 + t * (q.1 - p.1)));
        }
    }
}

/// Area centroid of a convex polygon; `None` when the polygon is degenerate
/// (fewer than three vertices or numerically zero area), in which case the
/// cell has no strictly interior representative.
fn polygon_centroid(poly: &[(f64, f64)]) -> Option<(f64, f64)> {
    if poly.len() < 3 {
        return None;
    }
    let mut area2 = 0.0;
    let mut cx = 0.0;
    let mut cy = 0.0;
    for i in 0..poly.len() {
        let (x0, y0) = poly[i];
        let (x1, y1) = poly[(i + 1) % poly.len()];
        let cross = x0 * y1 - x1 * y0;
        area2 += cross;
        cx += (x0 + x1) * cross;
        cy += (y0 + y1) * cross;
    }
    if area2.abs() < 1e-300 {
        return None;
    }
    Some((cx / (3.0 * area2), cy / (3.0 * area2)))
}

/// The extreme of the affine form of `hs` over `A w ≤ b` (the maximum when
/// `maximize`, else the minimum); `None` when the system is infeasible.
fn lp_extreme(hs: &HalfSpace, a: &[Vec<f64>], b: &[f64], maximize: bool) -> Option<f64> {
    let outcome = if maximize {
        lp::maximize(&hs.coeffs, a, b)
    } else {
        lp::minimize(&hs.coeffs, a, b)
    };
    match outcome {
        LpOutcome::Optimal { value, .. } => Some(value + hs.offset),
        LpOutcome::Infeasible => None,
        // Cells are subsets of a bounded box; unbounded cannot happen.
        LpOutcome::Unbounded => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::PrefRegion;

    /// Minimum (`maximize = false`) or maximum of the affine form of `hs`
    /// over `cell`; `None` when the cell is empty. The polygon's vertices on
    /// the 2-D path, one LP otherwise: the reference `classify` must agree
    /// with.
    fn extreme_of(cell: &Cell, hs: &HalfSpace, maximize: bool) -> Option<f64> {
        if let Some(poly) = &cell.poly {
            return if poly.is_empty() {
                None
            } else {
                let (min, max) = cell.poly_extremes(hs)?;
                Some(if maximize { max } else { min })
            };
        }
        let (a, b) = cell.lp_constraints();
        lp_extreme(hs, &a, &b, maximize)
    }

    fn min_of(cell: &Cell, hs: &HalfSpace) -> Option<f64> {
        extreme_of(cell, hs, false)
    }

    fn max_of(cell: &Cell, hs: &HalfSpace) -> Option<f64> {
        extreme_of(cell, hs, true)
    }

    fn paper_cell() -> Cell {
        Cell::from_region(&PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap())
    }

    /// `cell` clipped by `hs` (by `¬hs` when `negate` is set).
    fn clip(cell: &Cell, hs: &HalfSpace, negate: bool) -> Cell {
        let mut out = Cell::default();
        out.assign_clip(cell, hs, negate, &mut Vec::new());
        out
    }

    /// Whether `p` lies inside the counter-clockwise convex polygon (a
    /// polygon of fewer than three vertices has no inside).
    fn in_polygon(poly: &[(f64, f64)], p: &[f64]) -> bool {
        poly.len() >= 3
            && (0..poly.len()).all(|i| {
                let (a, b) = (poly[i], poly[(i + 1) % poly.len()]);
                (b.0 - a.0) * (p[1] - a.1) - (b.1 - a.1) * (p[0] - a.0) >= 0.0
            })
    }

    #[test]
    fn region_cell_contains_and_samples() {
        let cell = paper_cell();
        assert_eq!(cell.dim(), 2);
        assert!(cell.contains(&[0.3, 0.3]));
        assert!(!cell.contains(&[0.6, 0.3]));
        assert!(!cell.is_empty());
        let p = cell.sample_point().unwrap();
        assert!(cell.contains(&p));
        // roughly centred
        assert!((p[0] - 0.3).abs() < 0.21 && (p[1] - 0.3).abs() < 0.11);
    }

    #[test]
    fn classify_against_halfspaces() {
        let cell = paper_cell();
        // w1 - 0.05 >= 0 holds everywhere in [0.1, 0.5]
        let pos = HalfSpace::new(vec![1.0, 0.0], -0.05);
        assert_eq!(cell.classify(&pos), CellSide::Positive);
        // w1 - 0.9 >= 0 holds nowhere
        let neg = HalfSpace::new(vec![1.0, 0.0], -0.9);
        assert_eq!(cell.classify(&neg), CellSide::Negative);
        // w1 - 0.3 >= 0 splits the region
        let split = HalfSpace::new(vec![1.0, 0.0], -0.3);
        assert_eq!(cell.classify(&split), CellSide::Straddles);
    }

    #[test]
    fn clip_restricts_cell() {
        let cell = paper_cell();
        let hs = HalfSpace::new(vec![1.0, 0.0], -0.3); // w1 >= 0.3
        let sub = clip(&cell, &hs, false);
        assert!(sub.contains(&[0.4, 0.3]));
        assert!(!sub.contains(&[0.2, 0.3]));
        assert!(!sub.is_empty());
        assert_eq!(sub.constraints().len(), 1);
        // the sub-cell is now entirely on the positive side
        assert_eq!(sub.classify(&hs), CellSide::Positive);
        // further restricting by the negation empties it
        let empty = clip(&sub, &hs, true);
        // only the measure-zero boundary w1 = 0.3 remains; min/max of any
        // genuine direction collapses
        let w1 = HalfSpace::new(vec![1.0, 0.0], 0.0);
        let min = min_of(&empty, &w1).unwrap();
        let max = max_of(&empty, &w1).unwrap();
        assert!((max - min).abs() < 1e-6);
    }

    #[test]
    fn empty_cell_detection() {
        let cell = paper_cell();
        // w1 >= 0.8 is outside the box entirely
        let impossible = clip(&cell, &HalfSpace::new(vec![1.0, 0.0], -0.8), false);
        assert!(impossible.is_empty());
        assert_eq!(
            impossible.classify(&HalfSpace::new(vec![0.0, 1.0], 0.0)),
            CellSide::Empty
        );
        assert!(impossible.sample_point().is_none());
    }

    #[test]
    fn min_max_values() {
        let cell = paper_cell();
        let hs = HalfSpace::new(vec![1.0, 1.0], 0.0); // w1 + w2
        assert!((min_of(&cell, &hs).unwrap() - 0.3).abs() < 1e-6);
        assert!((max_of(&cell, &hs).unwrap() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn zero_dimensional_cells() {
        let region = PrefRegion::from_ranges(&[]).unwrap();
        let cell = Cell::from_region(&region);
        assert!(!cell.is_empty());
        assert_eq!(cell.sample_point(), Some(vec![]));
        assert_eq!(cell, Cell::default());
        let bad = clip(&cell, &HalfSpace::new(vec![], -1.0), false);
        assert!(bad.is_empty());
        let good = clip(&cell, &HalfSpace::new(vec![], 2.0), false);
        assert!(!good.is_empty());
    }

    #[test]
    fn memory_accounting_positive() {
        let cell = clip(&paper_cell(), &HalfSpace::new(vec![1.0, 0.0], -0.3), false);
        assert!(cell.memory_bytes() > 0);
    }

    /// Forced-sliver arrangement: pinching a cell flat between a half-space
    /// and its negation leaves a measure-zero segment. The sample must be
    /// recovered (on the pinching line) instead of the cell being dropped —
    /// on both the polygon fast path and the dense-LP fallback.
    #[test]
    fn sliver_cells_recover_a_sample() {
        let hs = HalfSpace::new(vec![1.0, 0.0], -0.3); // w1 >= 0.3
        let sliver = clip(&clip(&paper_cell(), &hs, false), &hs, true);
        let mut lp_sliver = sliver.clone();
        lp_sliver.poly = None;
        for cell in [sliver, lp_sliver] {
            let p = cell
                .sample_point()
                .expect("measure-zero sliver must still yield a witness");
            assert!(cell.contains(&p), "sliver sample escapes the cell: {p:?}");
            assert!(
                (p[0] - 0.3).abs() <= 1e-6,
                "sliver sample must sit on the pinching line, got {p:?}"
            );
            assert!((0.2..=0.4).contains(&p[1]), "sample outside box: {p:?}");
        }

        // A near-flat (but positive-measure) sliver must also yield a strictly
        // feasible sample: the perturbation pushes off the squeezing walls.
        let at_least = HalfSpace::new(vec![1.0, 0.0], -0.3); // w1 >= 0.3
        let at_most = HalfSpace::new(vec![-1.0, 0.0], 0.3 + 1e-11); // w1 <= 0.3 + 1e-11
        let thin = clip(&clip(&paper_cell(), &at_least, false), &at_most, false);
        let mut lp_thin = thin.clone();
        lp_thin.poly = None;
        for cell in [thin, lp_thin] {
            let p = cell
                .sample_point()
                .expect("thin sliver must still yield a witness");
            assert!(cell.contains(&p), "thin sample escapes the cell: {p:?}");
        }
    }

    /// `assign_clip` keeps exactly the base's points on the chosen side. On
    /// random bases (a box cut by random clips, 2-D polygon path and 3-D LP
    /// path) and random half-spaces, a point drawn from the box lies in the
    /// clip iff it lies in the base and on the chosen side; on the 2-D path
    /// the clip's polygon holds exactly the same points. Points within 1e-6
    /// of a boundary are skipped. One husk and one spare pool serve every
    /// clip, so leftovers of an earlier clip must not leak into a later one.
    #[test]
    fn assign_clip_keeps_exactly_the_chosen_side() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0xCE11);
        let mut husk = Cell::default();
        let mut spare = Vec::new();
        let mut checked = 0usize;
        for round in 0..100 {
            let ranges: &[(f64, f64)] = if round % 2 == 0 {
                &[(0.05, 0.55), (0.1, 0.45)]
            } else {
                &[(0.05, 0.35), (0.1, 0.3), (0.0, 0.25)]
            };
            let dim = ranges.len();
            let random_hs = |rng: &mut StdRng| {
                HalfSpace::new(
                    (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
                    rng.random_range(-0.6..0.6),
                )
            };
            let mut base = Cell::from_region(&PrefRegion::from_ranges(ranges).unwrap());
            for _ in 0..rng.random_range(0..4usize) {
                let hs = random_hs(&mut rng);
                base = clip(&base, &hs, rng.random_bool(0.5));
            }
            let hs = random_hs(&mut rng);
            let negate = rng.random_bool(0.5);
            husk.assign_clip(&base, &hs, negate, &mut spare);
            assert_eq!(husk, clip(&base, &hs, negate), "round {round}: husk leaked");
            assert_eq!(husk.constraints().len(), base.constraints().len() + 1);
            for _ in 0..200 {
                let p: Vec<f64> = ranges
                    .iter()
                    .map(|&(lo, hi)| rng.random_range(lo..hi))
                    .collect();
                if hs.eval(&p).abs() <= 1e-6 || base.min_slack(&p).abs() <= 1e-6 {
                    continue;
                }
                checked += 1;
                let side = (hs.eval(&p) > 0.0) != negate;
                let expected = base.contains(&p) && side;
                assert_eq!(husk.contains(&p), expected, "round {round}: {p:?}");
                if let Some(poly) = husk.polygon() {
                    assert_eq!(
                        in_polygon(poly, &p),
                        expected,
                        "round {round}: polygon at {p:?}"
                    );
                }
            }
            if let Some(p) = husk.sample_point() {
                assert!(husk.contains(&p), "round {round}: sample escapes the clip");
            }
        }
        assert!(checked > 10_000, "only {checked} points checked");
    }

    /// On the dense-LP path (d = 4, so three reduced dimensions), `classify`
    /// builds the constraint system once for both LPs; its answer must be
    /// the one derived from the `min_of` and `max_of` helpers, which build
    /// their own.
    #[test]
    fn lp_classify_matches_min_and_max() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0xC1A5);
        let random_hs = |rng: &mut StdRng| {
            HalfSpace::new(
                (0..3).map(|_| rng.random_range(-1.0..1.0)).collect(),
                rng.random_range(-0.3..0.3),
            )
        };
        let mut seen = [0usize; 4];
        for round in 0..300 {
            let region = PrefRegion::from_ranges(&[(0.05, 0.3), (0.1, 0.25), (0.0, 0.3)]).unwrap();
            let mut cell = Cell::from_region(&region);
            for _ in 0..rng.random_range(0..5usize) {
                cell = clip(&cell, &random_hs(&mut rng), rng.random_bool(0.5));
            }
            assert!(cell.polygon().is_none(), "3-D cells take the LP path");
            let probe = random_hs(&mut rng);
            let expected = match (min_of(&cell, &probe), max_of(&cell, &probe)) {
                (None, _) => CellSide::Empty,
                (Some(min), _) if min >= -EPS => CellSide::Positive,
                (_, None) => CellSide::Empty,
                (_, Some(max)) if max <= EPS => CellSide::Negative,
                _ => CellSide::Straddles,
            };
            let got = cell.classify(&probe);
            assert_eq!(got, expected, "round {round}");
            seen[got as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n >= 10), "outcomes {seen:?}");
    }

    /// The 2-D polygon fast path must agree with the dense-LP fallback on
    /// extremes and classification for random constraint sequences.
    #[test]
    fn polygon_path_matches_lp_path() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0x9E0);
        for round in 0..200 {
            let mut cell = paper_cell();
            assert!(cell.poly.is_some(), "2-D cells carry a polygon");
            for _ in 0..rng.random_range(0..5usize) {
                let hs = HalfSpace::new(
                    vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)],
                    rng.random_range(-0.6..0.6),
                );
                if cell.classify(&hs) == CellSide::Straddles {
                    cell = clip(&cell, &hs, false);
                }
            }
            let probe = HalfSpace::new(
                vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)],
                rng.random_range(-0.6..0.6),
            );
            // LP reference on a polygon-less twin of the same H-representation.
            let mut lp_cell = cell.clone();
            lp_cell.poly = None;
            match (min_of(&cell, &probe), min_of(&lp_cell, &probe)) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-6, "round {round}: min {a} vs lp {b}")
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "round {round}"),
            }
            match (max_of(&cell, &probe), max_of(&lp_cell, &probe)) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-6, "round {round}: max {a} vs lp {b}")
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "round {round}"),
            }
            // Classification may legitimately differ only within EPS of a
            // boundary; for the random probes used here it must match.
            let (pc, lc) = (cell.classify(&probe), lp_cell.classify(&probe));
            if pc != lc {
                // tolerate only near-degenerate disagreement
                let min = min_of(&lp_cell, &probe).unwrap_or(0.0);
                let max = max_of(&lp_cell, &probe).unwrap_or(0.0);
                assert!(
                    min.abs() < 1e-6 || max.abs() < 1e-6,
                    "round {round}: poly {pc:?} vs lp {lc:?} (min {min}, max {max})"
                );
            }
            // The sample point, when it exists, lies strictly inside.
            if let Some(p) = cell.sample_point() {
                assert!(cell.contains(&p), "round {round}: sample escapes the cell");
            }
        }
    }
}
