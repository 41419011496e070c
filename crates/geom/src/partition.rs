//! The binary arrangement index of Algorithm 2.
//!
//! The global search partitions (sub-regions of) `R` by inserting the
//! supporting hyperplanes of competitor half-spaces, and the local search
//! arranges its constraint half-spaces inside `R` the same way. Algorithm 2
//! maintains a binary tree: a hyperplane either fully covers a leaf cell (no
//! structural change) or splits it into a negative-side child and a
//! positive-side child. The leaves of the tree are exactly the
//! sub-partitions of the arrangement. [`arrange_into`] builds the tree in a
//! recyclable [`ArrangeScratch`], so arrangements cost no heap allocation
//! once its pools have warmed up.

use crate::cell::{Cell, CellSide};
use crate::halfspace::HalfSpace;

#[derive(Debug)]
struct PoolNode {
    cell: Cell,
    children: Option<(u32, u32)>,
}

/// Recyclable state for [`arrange_into`]: tree nodes, cell husks, and
/// half-space husks all survive across arrangements, so a steady-state query
/// rebuilds its arrangements with zero heap allocation once the pools have
/// warmed up. Cells handed out in the leaf output flow back in through
/// [`ArrangeScratch::recycle_cell`] when their consumer is done with them.
#[derive(Debug, Default)]
pub struct ArrangeScratch {
    nodes: Vec<PoolNode>,
    /// Active prefix of `nodes` for the arrangement being built.
    len: usize,
    free_cells: Vec<Cell>,
    spare_hs: Vec<HalfSpace>,
}

impl ArrangeScratch {
    /// Creates an empty scratch; pools grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a no-longer-needed cell to the pool so a later arrangement can
    /// reuse its buffers.
    pub fn recycle_cell(&mut self, cell: Cell) {
        self.free_cells.push(cell);
    }

    /// A pooled copy of `src`, bitwise identical to `src.clone()`, built in a
    /// recycled husk (for a caller that keeps `src` and hands the copy to
    /// [`arrange_into`]).
    pub fn copy_cell(&mut self, src: &Cell) -> Cell {
        let mut cell = self.free_cells.pop().unwrap_or_default();
        cell.assign_from(src, &mut self.spare_hs);
        cell
    }

    /// A pooled cell rebuilt from raw parts (see [`Cell::bounds`],
    /// [`Cell::constraints`] and [`Cell::polygon`]), bitwise identical to
    /// the cell the parts were read from, built in a recycled husk.
    pub fn build_cell<'a>(
        &mut self,
        lows: &[f64],
        highs: &[f64],
        constraints: impl ExactSizeIterator<Item = (&'a [f64], f64)>,
        poly: Option<&[(f64, f64)]>,
    ) -> Cell {
        let mut cell = self.free_cells.pop().unwrap_or_default();
        cell.assign_parts(lows, highs, constraints, poly, &mut self.spare_hs);
        cell
    }

    /// Approximate memory footprint in bytes of the last arrangement's tree
    /// (Fig. 11(d) accounting): every node's cell plus a child link of two
    /// `usize` indices. `leaves` are the cells [`arrange_into`] appended; the
    /// split (internal) cells are still in the pool.
    pub fn tree_bytes(&self, leaves: &[Cell]) -> usize {
        let link = std::mem::size_of::<Option<(usize, usize)>>();
        self.nodes[..self.len]
            .iter()
            .filter(|n| n.children.is_some())
            .map(|n| &n.cell)
            .chain(leaves)
            .map(|c| c.memory_bytes() + link)
            .sum()
    }

    /// Index of a fresh leaf node; reuses a retired slot when one exists.
    fn alloc_node(&mut self) -> u32 {
        let idx = self.len;
        if idx == self.nodes.len() {
            let cell = self.free_cells.pop().unwrap_or_default();
            self.nodes.push(PoolNode {
                cell,
                children: None,
            });
        } else {
            self.nodes[idx].children = None;
        }
        self.len += 1;
        idx as u32
    }

    fn insert_at(&mut self, node: usize, hp: &HalfSpace) {
        if let Some((l, r)) = self.nodes[node].children {
            self.insert_at(l as usize, hp);
            self.insert_at(r as usize, hp);
            return;
        }
        if self.nodes[node].cell.classify(hp) != CellSide::Straddles {
            // Lines 1-2 of Algorithm 2: fully covered by one side (or empty).
            return;
        }
        let li = self.alloc_node() as usize;
        let ri = self.alloc_node() as usize;
        debug_assert!(node < li && li + 1 == ri);
        let (head, tail) = self.nodes.split_at_mut(li);
        let parent = &head[node].cell;
        let (left, right) = tail.split_at_mut(1);
        left[0]
            .cell
            .assign_clip(parent, hp, true, &mut self.spare_hs);
        right[0]
            .cell
            .assign_clip(parent, hp, false, &mut self.spare_hs);
        self.nodes[node].children = Some((li as u32, ri as u32));
    }

    fn collect_leaves(&mut self, node: usize, out: &mut Vec<Cell>) {
        match self.nodes[node].children {
            Some((l, r)) => {
                self.collect_leaves(l as usize, out);
                self.collect_leaves(r as usize, out);
            }
            None => {
                let husk = self.free_cells.pop().unwrap_or_default();
                out.push(std::mem::replace(&mut self.nodes[node].cell, husk));
            }
        }
    }
}

/// Builds the arrangement of the half-spaces yielded by `hps` inside `base`
/// and appends the leaf cells to `out`, left (negative-side) subtrees first.
/// Returns the number of leaves appended. Degenerate half-spaces are skipped;
/// the cell buffers come from, and return to, the scratch's pools.
///
/// `base` is consumed: it becomes the root of the tree, so each half-space is
/// classified once against each current leaf, and `base` itself is the first
/// leaf until some half-space straddles it. When none does (every half-space
/// degenerate or covering, lines 1–2 of Algorithm 2), the single leaf
/// appended is `base`, moved through without a copy — a return value of `1`
/// means exactly that, since a split always yields at least two leaves. A
/// split `base` stays in the pool as a cell husk.
pub fn arrange_into<'a>(
    scratch: &mut ArrangeScratch,
    base: Cell,
    hps: impl IntoIterator<Item = &'a HalfSpace>,
    out: &mut Vec<Cell>,
) -> usize {
    scratch.len = 0;
    let root = scratch.alloc_node() as usize;
    let husk = std::mem::replace(&mut scratch.nodes[root].cell, base);
    scratch.free_cells.push(husk);
    for hp in hps {
        if hp.is_degenerate() {
            continue;
        }
        scratch.insert_at(root, hp);
    }
    let before = out.len();
    scratch.collect_leaves(root, out);
    out.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::PrefRegion;

    fn base() -> Cell {
        Cell::from_region(&PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap())
    }

    /// The leaves of the arrangement of `halfspaces` inside `base`, built on
    /// a fresh scratch.
    fn leaves_of(base: Cell, halfspaces: &[HalfSpace]) -> Vec<Cell> {
        let mut out = Vec::new();
        arrange_into(&mut ArrangeScratch::new(), base, halfspaces, &mut out);
        out
    }

    /// `cell` clipped by `hs` (by `¬hs` when `negate` is set).
    fn clip(cell: &Cell, hs: &HalfSpace, negate: bool) -> Cell {
        let mut out = Cell::default();
        out.assign_clip(cell, hs, negate, &mut Vec::new());
        out
    }

    #[test]
    fn single_split_produces_two_leaves() {
        assert_eq!(leaves_of(base(), &[]).len(), 1);
        let split = HalfSpace::new(vec![1.0, 0.0], -0.3); // w1 >= 0.3
        assert_eq!(leaves_of(base(), std::slice::from_ref(&split)).len(), 2);
    }

    #[test]
    fn covering_hyperplane_does_not_split() {
        let covering = HalfSpace::new(vec![1.0, 0.0], 0.5); // w1 >= -0.5 always true
        let missing = HalfSpace::new(vec![1.0, 0.0], -0.9); // w1 >= 0.9 never true
        assert_eq!(leaves_of(base(), std::slice::from_ref(&covering)).len(), 1);
        assert_eq!(leaves_of(base(), &[covering, missing]).len(), 1);
    }

    #[test]
    fn degenerate_hyperplane_ignored() {
        let degenerate = HalfSpace::new(vec![0.0, 0.0], 0.0);
        assert_eq!(leaves_of(base(), &[degenerate]), vec![base()]);
    }

    #[test]
    fn paper_arrangement_of_three_halfspaces() {
        // Fig. 5(a): inserting HS1, HS2, HS3 for the leaves {v7, v5, v1} of
        // G_d produces 4 sub-partitions of R.
        let v1 = [8.8, 3.6, 2.2];
        let v5 = [5.0, 7.6, 3.1];
        let v7 = [2.1, 5.0, 5.1];
        let hs1 = HalfSpace::score_at_least(&v7, &v5);
        let hs2 = HalfSpace::score_at_least(&v7, &v1);
        let hs3 = HalfSpace::score_at_least(&v1, &v5);
        let cells = leaves_of(base(), &[hs1, hs2, hs3]);
        assert_eq!(cells.len(), 4, "expected the 4 partitions of Fig. 5(a)");
    }

    #[test]
    fn leaves_tile_the_base_cell() {
        let halfspaces = vec![
            HalfSpace::new(vec![1.0, 0.0], -0.3),
            HalfSpace::new(vec![0.0, 1.0], -0.3),
            HalfSpace::new(vec![1.0, -1.0], 0.0),
        ];
        let cells = leaves_of(base(), &halfspaces);
        assert!(cells.len() >= 4);
        // every sampled point of the base lies in at least one leaf, and the
        // interiors of distinct leaves do not overlap (checked via samples)
        let b = base();
        for i in 0..=10 {
            for j in 0..=10 {
                let w = [0.1 + 0.04 * i as f64, 0.2 + 0.02 * j as f64];
                if !b.contains(&w) {
                    continue;
                }
                let covering = cells.iter().filter(|c| c.contains(&w)).count();
                assert!(covering >= 1, "point {w:?} not covered");
            }
        }
        // interior samples of each leaf belong only to that leaf
        for (i, c) in cells.iter().enumerate() {
            if let Some(p) = c.sample_point() {
                let owners: Vec<usize> = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, other)| other.contains(&p))
                    .map(|(j, _)| j)
                    .collect();
                assert!(owners.contains(&i));
            }
        }
    }

    /// The leaves are the sign classes of the base cut by the inserted
    /// hyperplanes (Algorithm 2). On random arrangements in 2-D (polygon
    /// path) and 3-D (LP path): no inserted non-degenerate half-space
    /// straddles a leaf, no two leaves share a sign vector, and a point drawn
    /// from the base lies in the leaf whose sign vector is the point's own.
    /// Points within 1e-6 of a hyperplane are skipped. One scratch serves
    /// every round, and most leaves flow back into its pool, as in the
    /// search loop.
    #[test]
    fn arrangement_leaves_are_the_sign_classes_of_the_base() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0xA22A);
        let mut scratch = ArrangeScratch::new();
        let mut out = Vec::new();
        let mut located = 0usize;
        for round in 0..60 {
            let ranges: &[(f64, f64)] = if round % 3 == 2 {
                &[(0.05, 0.35), (0.1, 0.3), (0.0, 0.25)]
            } else {
                &[(0.1, 0.5), (0.2, 0.4)]
            };
            let dim = ranges.len();
            let hps: Vec<HalfSpace> = (0..rng.random_range(0..6usize))
                .map(|_| {
                    HalfSpace::new(
                        (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
                        rng.random_range(-0.6..0.6),
                    )
                })
                .collect();
            let base = Cell::from_region(&PrefRegion::from_ranges(ranges).unwrap());
            out.clear();
            let appended = arrange_into(&mut scratch, base.clone(), hps.iter(), &mut out);
            assert_eq!(appended, out.len());
            let live: Vec<&HalfSpace> = hps.iter().filter(|hs| !hs.is_degenerate()).collect();
            let signs: Vec<Vec<CellSide>> = out
                .iter()
                .map(|leaf| live.iter().map(|hs| leaf.classify(hs)).collect())
                .collect();
            for (i, leaf_signs) in signs.iter().enumerate() {
                assert!(
                    !leaf_signs.contains(&CellSide::Straddles),
                    "round {round}: leaf {i} is straddled"
                );
                assert!(
                    !signs[..i].contains(leaf_signs),
                    "round {round}: leaves share the sign vector {leaf_signs:?}"
                );
            }
            for _ in 0..100 {
                let p: Vec<f64> = ranges
                    .iter()
                    .map(|&(lo, hi)| rng.random_range(lo..hi))
                    .collect();
                if live.iter().any(|hs| hs.eval(&p).abs() <= 1e-6) {
                    continue;
                }
                let own: Vec<CellSide> = live
                    .iter()
                    .map(|hs| {
                        if hs.eval(&p) > 0.0 {
                            CellSide::Positive
                        } else {
                            CellSide::Negative
                        }
                    })
                    .collect();
                let leaf = signs
                    .iter()
                    .position(|s| *s == own)
                    .unwrap_or_else(|| panic!("round {round}: no leaf has the signs of {p:?}"));
                assert!(
                    out[leaf].contains(&p),
                    "round {round}: {p:?} escapes its leaf"
                );
                located += 1;
            }
            // hand most leaves back to the pool, as the search loop does
            for cell in out.drain(..) {
                if rng.random_bool(0.7) {
                    scratch.recycle_cell(cell);
                }
            }
        }
        assert!(located > 3_000, "only {located} points located");
    }

    /// A base cell that no half-space splits comes back as the single leaf,
    /// moved rather than copied; a split base is never handed out, and its
    /// two leaves are its clips by the two sides of the hyperplane.
    #[test]
    fn unsplit_base_passes_through_without_a_copy() {
        let mut scratch = ArrangeScratch::new();
        let mut out = Vec::new();
        let unsplit = [
            HalfSpace::new(vec![1.0, 0.0], 0.5),  // covers the cell
            HalfSpace::new(vec![0.0, 0.0], 0.0),  // degenerate
            HalfSpace::new(vec![1.0, 0.0], -0.9), // misses the cell
        ];
        let cell = clip(&base(), &HalfSpace::new(vec![1.0, 0.0], -0.2), false);
        let (reference, buffer) = (cell.clone(), cell.constraints().as_ptr());
        assert_eq!(
            arrange_into(&mut scratch, cell, unsplit.iter(), &mut out),
            1
        );
        assert_eq!(out[0], reference);
        assert_eq!(out[0].constraints().as_ptr(), buffer, "base was copied");

        let split = HalfSpace::new(vec![1.0, 0.0], -0.3);
        let cell = out.pop().unwrap();
        let buffer = cell.constraints().as_ptr();
        let reference = vec![clip(&cell, &split, true), clip(&cell, &split, false)];
        assert_eq!(arrange_into(&mut scratch, cell, [&split], &mut out), 2);
        assert_eq!(out, reference);
        assert!(out.iter().all(|c| c.constraints().as_ptr() != buffer));
    }

    /// The tree total counts the split cells left in the pool as well as the
    /// leaves handed out.
    #[test]
    fn memory_accounting_positive() {
        let mut scratch = ArrangeScratch::new();
        let mut out = Vec::new();
        let split = HalfSpace::new(vec![1.0, 0.0], -0.3);
        arrange_into(&mut scratch, base(), [&split], &mut out);
        let leaf_bytes: usize = out.iter().map(Cell::memory_bytes).sum();
        assert!(scratch.tree_bytes(&out) > leaf_bytes + base().memory_bytes());
    }
}
