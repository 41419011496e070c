//! The binary arrangement index of Algorithm 2.
//!
//! The global search partitions (sub-regions of) `R` by inserting the
//! supporting hyperplanes of competitor half-spaces. Algorithm 2 maintains a
//! binary tree: a hyperplane either fully covers a leaf cell (no structural
//! change) or splits it into a negative-side child and a positive-side child.
//! The leaves of the tree are exactly the sub-partitions of the arrangement.

use crate::cell::{Cell, CellSide};
use crate::halfspace::HalfSpace;

#[derive(Debug, Clone)]
struct PartitionNode {
    cell: Cell,
    children: Option<(usize, usize)>,
}

/// Binary arrangement index over a base cell.
#[derive(Debug, Clone)]
pub struct PartitionTree {
    nodes: Vec<PartitionNode>,
    root: usize,
    inserted: usize,
}

impl PartitionTree {
    /// Creates the index for a base cell (usually the whole region `R` or one
    /// sub-partition `ρ` of it).
    pub fn new(base: Cell) -> Self {
        PartitionTree {
            nodes: vec![PartitionNode {
                cell: base,
                children: None,
            }],
            root: 0,
            inserted: 0,
        }
    }

    /// Number of hyperplanes inserted so far.
    pub fn num_inserted(&self) -> usize {
        self.inserted
    }

    /// Inserts a hyperplane, splitting every straddled leaf (Algorithm 2).
    /// Degenerate half-spaces (identical score functions) are ignored.
    pub fn insert(&mut self, hp: &HalfSpace) {
        if hp.is_degenerate() {
            return;
        }
        self.inserted += 1;
        self.insert_at(self.root, hp);
    }

    fn insert_at(&mut self, node: usize, hp: &HalfSpace) {
        match self.nodes[node].children {
            Some((left, right)) => {
                self.insert_at(left, hp);
                self.insert_at(right, hp);
            }
            None => {
                match self.nodes[node].cell.classify(hp) {
                    // Lines 1-2 of Algorithm 2: the leaf is fully covered by
                    // one side; nothing to split.
                    CellSide::Positive | CellSide::Negative | CellSide::Empty => {}
                    CellSide::Straddles => {
                        let neg = self.nodes[node].cell.with_halfspace(hp.negated());
                        let pos = self.nodes[node].cell.with_halfspace(hp.clone());
                        let li = self.nodes.len();
                        self.nodes.push(PartitionNode {
                            cell: neg,
                            children: None,
                        });
                        let ri = self.nodes.len();
                        self.nodes.push(PartitionNode {
                            cell: pos,
                            children: None,
                        });
                        self.nodes[node].children = Some((li, ri));
                    }
                }
            }
        }
    }

    /// The leaf cells (sub-partitions) of the arrangement.
    pub fn leaves(&self) -> Vec<&Cell> {
        let mut out = Vec::new();
        self.collect_leaves(self.root, &mut out);
        out
    }

    /// Number of leaf cells.
    pub fn num_leaves(&self) -> usize {
        self.leaves().len()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.cell.memory_bytes() + std::mem::size_of::<Option<(usize, usize)>>())
            .sum()
    }

    fn collect_leaves<'a>(&'a self, node: usize, out: &mut Vec<&'a Cell>) {
        match self.nodes[node].children {
            Some((l, r)) => {
                self.collect_leaves(l, out);
                self.collect_leaves(r, out);
            }
            None => out.push(&self.nodes[node].cell),
        }
    }
}

/// Convenience wrapper: builds the arrangement of `halfspaces` inside `base`
/// and returns the resulting sub-partitions.
pub fn arrange(base: &Cell, halfspaces: &[HalfSpace]) -> Vec<Cell> {
    let mut tree = PartitionTree::new(base.clone());
    for hp in halfspaces {
        tree.insert(hp);
    }
    tree.leaves().into_iter().cloned().collect()
}

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
        let mut cell = self.free_cells.pop().unwrap_or_else(empty_cell_husk);
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
        let mut cell = self.free_cells.pop().unwrap_or_else(empty_cell_husk);
        cell.assign_parts(lows, highs, constraints, poly, &mut self.spare_hs);
        cell
    }

    /// Index of a fresh leaf node; reuses a retired slot when one exists.
    fn alloc_node(&mut self) -> u32 {
        let idx = self.len;
        if idx == self.nodes.len() {
            let cell = self.free_cells.pop().unwrap_or_else(empty_cell_husk);
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
                let husk = self.free_cells.pop().unwrap_or_else(empty_cell_husk);
                out.push(std::mem::replace(&mut self.nodes[node].cell, husk));
            }
        }
    }
}

fn empty_cell_husk() -> Cell {
    Cell::from_region(&crate::region::PrefRegion::from_ranges(&[]).expect("empty region is valid"))
}

/// Pool-backed equivalent of [`arrange`]: builds the arrangement of the
/// half-spaces yielded by `hps` inside `base` and appends the leaf cells to
/// `out` in the same order `arrange` returns them. Returns the number of
/// leaves appended. The cells are bitwise identical to the allocating path;
/// only their backing buffers are recycled.
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

    #[test]
    fn single_split_produces_two_leaves() {
        let mut tree = PartitionTree::new(base());
        assert_eq!(tree.num_leaves(), 1);
        tree.insert(&HalfSpace::new(vec![1.0, 0.0], -0.3)); // w1 >= 0.3
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.num_inserted(), 1);
    }

    #[test]
    fn covering_hyperplane_does_not_split() {
        let mut tree = PartitionTree::new(base());
        tree.insert(&HalfSpace::new(vec![1.0, 0.0], 0.5)); // w1 >= -0.5 always true
        assert_eq!(tree.num_leaves(), 1);
        tree.insert(&HalfSpace::new(vec![1.0, 0.0], -0.9)); // w1 >= 0.9 never true
        assert_eq!(tree.num_leaves(), 1);
    }

    #[test]
    fn degenerate_hyperplane_ignored() {
        let mut tree = PartitionTree::new(base());
        tree.insert(&HalfSpace::new(vec![0.0, 0.0], 0.0));
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.num_inserted(), 0);
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
        let cells = arrange(&base(), &[hs1, hs2, hs3]);
        assert_eq!(cells.len(), 4, "expected the 4 partitions of Fig. 5(a)");
    }

    #[test]
    fn leaves_tile_the_base_cell() {
        let halfspaces = vec![
            HalfSpace::new(vec![1.0, 0.0], -0.3),
            HalfSpace::new(vec![0.0, 1.0], -0.3),
            HalfSpace::new(vec![1.0, -1.0], 0.0),
        ];
        let cells = arrange(&base(), &halfspaces);
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

    /// `arrange_into` must reproduce `arrange` exactly — same leaves, same
    /// order — including when the scratch (and the recycled cells flowing
    /// back into it) is reused across many arrangements of different shapes.
    #[test]
    fn pooled_arrangement_matches_allocating_arrangement() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(0xA22A);
        let mut scratch = ArrangeScratch::new();
        let mut out = Vec::new();
        for round in 0..60 {
            let n_hs = rng.random_range(0..6usize);
            let hps: Vec<HalfSpace> = (0..n_hs)
                .map(|_| {
                    HalfSpace::new(
                        vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)],
                        rng.random_range(-0.6..0.6),
                    )
                })
                .collect();
            let reference = arrange(&base(), &hps);
            out.clear();
            let appended = arrange_into(&mut scratch, base(), hps.iter(), &mut out);
            assert_eq!(appended, out.len());
            assert_eq!(out, reference, "round {round}: pooled leaves diverged");
            // hand a few leaves back to the pool, as the search loop does
            for cell in out.drain(..) {
                if rng.random_bool(0.7) {
                    scratch.recycle_cell(cell);
                }
            }
        }
    }

    /// A base cell that no half-space splits comes back as the single leaf,
    /// moved rather than copied; a split base is never handed out.
    #[test]
    fn unsplit_base_passes_through_without_a_copy() {
        let mut scratch = ArrangeScratch::new();
        let mut out = Vec::new();
        let unsplit = [
            HalfSpace::new(vec![1.0, 0.0], 0.5),  // covers the cell
            HalfSpace::new(vec![0.0, 0.0], 0.0),  // degenerate
            HalfSpace::new(vec![1.0, 0.0], -0.9), // misses the cell
        ];
        let cell = base().with_halfspace(HalfSpace::new(vec![1.0, 0.0], -0.2));
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
        let reference = arrange(&cell, std::slice::from_ref(&split));
        assert_eq!(arrange_into(&mut scratch, cell, [&split], &mut out), 2);
        assert_eq!(out, reference);
        assert!(out.iter().all(|c| c.constraints().as_ptr() != buffer));
    }

    #[test]
    fn memory_accounting_positive() {
        let mut tree = PartitionTree::new(base());
        tree.insert(&HalfSpace::new(vec![1.0, 0.0], -0.3));
        assert!(tree.memory_bytes() > 0);
    }
}
