//! A small dense two-phase simplex solver.
//!
//! Arrangement cells produced by Algorithm 2 are convex polytopes given in
//! H-representation (the box of `R` plus accumulated half-space constraints).
//! Deciding whether a cell is empty, or on which side of a new hyperplane it
//! lies, reduces to minimizing/maximizing an affine form over the cell — a
//! linear program with at most `d − 1 ≤ 5` variables and a few dozen
//! constraints. This module implements a classic dense tableau simplex with
//! Bland's rule, which is more than adequate at this scale and keeps the crate
//! free of external solver dependencies.

/// Outcome of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal {
        /// Optimal objective value.
        value: f64,
        /// An optimal point.
        point: Vec<f64>,
    },
    /// The constraint set is infeasible.
    Infeasible,
    /// The objective is unbounded over the feasible set.
    Unbounded,
}

impl LpOutcome {
    /// The optimal value, if any.
    pub fn value(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal { value, .. } => Some(*value),
            _ => None,
        }
    }
}

const TOL: f64 = 1e-9;

/// Maximizes `c · x` subject to `A x ≤ b` with `x` free (unrestricted sign).
///
/// Free variables are handled with the standard `x = x⁺ − x⁻` split; rows with
/// negative right-hand sides receive artificial variables and a phase-1
/// feasibility solve.
pub fn maximize(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> LpOutcome {
    let n = c.len();
    let m = a.len();
    debug_assert_eq!(b.len(), m);
    debug_assert!(a.iter().all(|row| row.len() == n));

    // Column layout: [x⁺ (n) | x⁻ (n) | slack (m) | artificial (k)] + rhs.
    // Row i: a_i x⁺ − a_i x⁻ + s_i (= or −) = b_i.
    let mut need_artificial = vec![false; m];
    for i in 0..m {
        if b[i] < -TOL {
            need_artificial[i] = true;
        }
    }
    let num_art: usize = need_artificial.iter().filter(|&&x| x).count();
    let cols = 2 * n + m + num_art;
    let mut tab = vec![vec![0.0f64; cols + 1]; m];
    let mut basis = vec![0usize; m];
    let mut art_idx = 0usize;
    for i in 0..m {
        let sign = if need_artificial[i] { -1.0 } else { 1.0 };
        for j in 0..n {
            tab[i][j] = sign * a[i][j];
            tab[i][n + j] = -sign * a[i][j];
        }
        tab[i][2 * n + i] = sign; // slack
        tab[i][cols] = sign * b[i];
        if need_artificial[i] {
            let col = 2 * n + m + art_idx;
            tab[i][col] = 1.0;
            basis[i] = col;
            art_idx += 1;
        } else {
            basis[i] = 2 * n + i;
        }
    }

    // Phase 1: minimize the sum of artificials (maximize their negative sum).
    if num_art > 0 {
        // Objective row for max(-Σ artificials): +1 in every artificial column,
        // then eliminate the basic artificial columns by subtracting their rows.
        let mut obj = vec![0.0f64; cols + 1];
        for entry in obj.iter_mut().take(cols).skip(2 * n + m) {
            *entry = 1.0;
        }
        for i in 0..m {
            if basis[i] >= 2 * n + m {
                for j in 0..=cols {
                    obj[j] -= tab[i][j];
                }
            }
        }
        if !simplex_iterate(&mut tab, &mut obj, &mut basis, cols) {
            // Phase 1 objective is bounded by construction; unbounded cannot
            // happen, treat defensively as infeasible.
            return LpOutcome::Infeasible;
        }
        if -obj[cols] > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive any artificial variables that remain basic (at value 0) out of
        // the basis when possible; if a row is all-zero it is redundant.
        for i in 0..m {
            if basis[i] >= 2 * n + m {
                if let Some(j) = (0..2 * n + m).find(|&j| tab[i][j].abs() > TOL) {
                    pivot(&mut tab, &mut vec![0.0; cols + 1], &mut basis, i, j, cols);
                }
            }
        }
    }

    // Phase 2: maximize c·x. Objective row in reduced-cost form.
    let mut obj = vec![0.0f64; cols + 1];
    for j in 0..n {
        obj[j] = -c[j];
        obj[n + j] = c[j];
    }
    // Express objective in terms of the current basis.
    for i in 0..m {
        let coeff = obj[basis[i]];
        if coeff.abs() > TOL {
            for j in 0..=cols {
                obj[j] -= coeff * tab[i][j];
            }
        }
    }
    // Forbid artificial columns from re-entering.
    let art_start = 2 * n + m;
    if !simplex_iterate_restricted(&mut tab, &mut obj, &mut basis, cols, art_start) {
        return LpOutcome::Unbounded;
    }

    // Extract the solution.
    let mut x = vec![0.0f64; 2 * n];
    for i in 0..m {
        if basis[i] < 2 * n {
            x[basis[i]] = tab[i][cols];
        }
    }
    let point: Vec<f64> = (0..n).map(|j| x[j] - x[n + j]).collect();
    let value: f64 = c.iter().zip(point.iter()).map(|(ci, xi)| ci * xi).sum();
    LpOutcome::Optimal { value, point }
}

/// Minimizes `c · x` subject to `A x ≤ b` (x free).
pub fn minimize(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> LpOutcome {
    let neg: Vec<f64> = c.iter().map(|v| -v).collect();
    match maximize(&neg, a, b) {
        LpOutcome::Optimal { value, point } => LpOutcome::Optimal {
            value: -value,
            point,
        },
        other => other,
    }
}

fn simplex_iterate(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    cols: usize,
) -> bool {
    simplex_iterate_restricted(tab, obj, basis, cols, usize::MAX)
}

/// Runs simplex iterations until optimality (returns true) or unboundedness
/// (returns false). Columns `>= forbidden_from` never enter the basis.
fn simplex_iterate_restricted(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    cols: usize,
    forbidden_from: usize,
) -> bool {
    let m = tab.len();
    let mut iterations = 0usize;
    let max_iterations = 50_000;
    loop {
        iterations += 1;
        if iterations > max_iterations {
            // Numerical cycling safeguard: treat as optimal at current point.
            return true;
        }
        // Bland's rule: entering column = smallest index with negative reduced
        // cost (we maximize, objective row stores negated costs).
        let entering = (0..cols.min(forbidden_from)).find(|&j| obj[j] < -TOL);
        let Some(e) = entering else {
            return true;
        };
        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if tab[i][e] > TOL {
                let ratio = tab[i][cols] / tab[i][e];
                if ratio < best_ratio - TOL
                    || (ratio < best_ratio + TOL
                        && leave.map(|l| basis[i] < basis[l]).unwrap_or(false))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(l) = leave else {
            return false; // unbounded
        };
        pivot_with_obj(tab, obj, basis, l, e, cols);
    }
}

// Gaussian pivot over parallel rows; indexed loops keep the split borrows of
// `tab[row]` vs `tab[i]` obvious.
#[allow(clippy::needless_range_loop)]
fn pivot_with_obj(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    cols: usize,
) {
    let pivot_val = tab[row][col];
    for j in 0..=cols {
        tab[row][j] /= pivot_val;
    }
    for i in 0..tab.len() {
        if i != row && tab[i][col].abs() > TOL {
            let factor = tab[i][col];
            for j in 0..=cols {
                tab[i][j] -= factor * tab[row][j];
            }
        }
    }
    if obj[col].abs() > TOL {
        let factor = obj[col];
        for j in 0..=cols {
            obj[j] -= factor * tab[row][j];
        }
    }
    basis[row] = col;
}

fn pivot(
    tab: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    row: usize,
    col: usize,
    cols: usize,
) {
    pivot_with_obj(tab, obj, basis, row, col, cols);
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LpOutcome {
        /// The optimal point, if any.
        fn point(&self) -> Option<&[f64]> {
            match self {
                LpOutcome::Optimal { point, .. } => Some(point),
                _ => None,
            }
        }
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_box_maximization() {
        // maximize x + y subject to 0 <= x <= 2, 0 <= y <= 3
        let c = vec![1.0, 1.0];
        let a = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ];
        let b = vec![2.0, 0.0, 3.0, 0.0];
        let out = maximize(&c, &a, &b);
        assert_close(out.value().unwrap(), 5.0);
        let p = out.point().unwrap();
        assert_close(p[0], 2.0);
        assert_close(p[1], 3.0);
    }

    #[test]
    fn minimization_with_negative_rhs() {
        // minimize x subject to x >= 1.5 (i.e. -x <= -1.5), x <= 4
        let c = vec![1.0];
        let a = vec![vec![-1.0], vec![1.0]];
        let b = vec![-1.5, 4.0];
        let out = minimize(&c, &a, &b);
        assert_close(out.value().unwrap(), 1.5);
    }

    #[test]
    fn infeasible_program() {
        // x <= 1 and x >= 2
        let c = vec![1.0];
        let a = vec![vec![1.0], vec![-1.0]];
        let b = vec![1.0, -2.0];
        assert_eq!(maximize(&c, &a, &b), LpOutcome::Infeasible);
        assert_eq!(minimize(&c, &a, &b), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_program() {
        // maximize x with only x >= 0
        let c = vec![1.0];
        let a = vec![vec![-1.0]];
        let b = vec![0.0];
        assert_eq!(maximize(&c, &a, &b), LpOutcome::Unbounded);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // minimize x subject to x >= -3 (i.e. -x <= 3), x <= 10
        let c = vec![1.0];
        let a = vec![vec![-1.0], vec![1.0]];
        let b = vec![3.0, 10.0];
        let out = minimize(&c, &a, &b);
        assert_close(out.value().unwrap(), -3.0);
    }

    #[test]
    fn two_dimensional_polytope() {
        // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x, y >= 0
        let c = vec![3.0, 2.0];
        let a = vec![
            vec![1.0, 1.0],
            vec![1.0, 3.0],
            vec![-1.0, 0.0],
            vec![0.0, -1.0],
        ];
        let b = vec![4.0, 6.0, 0.0, 0.0];
        let out = maximize(&c, &a, &b);
        assert_close(out.value().unwrap(), 12.0);
    }

    #[test]
    fn objective_over_paper_region() {
        // over R = [0.1, 0.5] x [0.2, 0.4], maximize w1 - w2 -> 0.5 - 0.2 = 0.3
        let c = vec![1.0, -1.0];
        let a = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ];
        let b = vec![0.5, -0.1, 0.4, -0.2];
        let out = maximize(&c, &a, &b);
        assert_close(out.value().unwrap(), 0.3);
        let out2 = minimize(&c, &a, &b);
        assert_close(out2.value().unwrap(), -0.3);
    }

    #[test]
    fn degenerate_equality_like_constraints() {
        // x <= 1 and x >= 1 pin x to exactly 1
        let c = vec![5.0];
        let a = vec![vec![1.0], vec![-1.0]];
        let b = vec![1.0, -1.0];
        let out = maximize(&c, &a, &b);
        assert_close(out.value().unwrap(), 5.0);
        assert_close(out.point().unwrap()[0], 1.0);
    }

    #[test]
    fn randomized_against_corner_enumeration() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(42);
        // Random boxes in 3D with random linear objectives: the optimum of a
        // linear function over a box is attained at a corner.
        for _ in 0..50 {
            let lows: Vec<f64> = (0..3).map(|_| rng.random_range(-1.0..0.5)).collect();
            let highs: Vec<f64> = lows
                .iter()
                .map(|&l| l + rng.random_range(0.1..1.0))
                .collect();
            let c: Vec<f64> = (0..3).map(|_| rng.random_range(-2.0..2.0)).collect();
            let mut a = Vec::new();
            let mut b = Vec::new();
            for i in 0..3 {
                let mut row = vec![0.0; 3];
                row[i] = 1.0;
                a.push(row.clone());
                b.push(highs[i]);
                row[i] = -1.0;
                a.push(row);
                b.push(-lows[i]);
            }
            let out = maximize(&c, &a, &b);
            let mut best = f64::NEG_INFINITY;
            for mask in 0..8u32 {
                let val: f64 = (0..3)
                    .map(|i| {
                        let x = if mask & (1 << i) != 0 {
                            highs[i]
                        } else {
                            lows[i]
                        };
                        c[i] * x
                    })
                    .sum();
                best = best.max(val);
            }
            assert!(
                (out.value().unwrap() - best).abs() < 1e-6,
                "lp {} vs corners {}",
                out.value().unwrap(),
                best
            );
        }
    }
}
