//! The r-dominance graph `G_d` (Section IV-B).
//!
//! `G_d` is the DAG of the pair-wise r-dominance relation over the vertices
//! of the maximal (k,t)-core w.r.t. the region `R`. It is kept as its
//! dominator closures: `dominators(v)` holds every vertex that r-dominates
//! `v`, directly or through a chain. Both searches read `G_d` only through
//! these closures, so no arcs are stored. Construction follows the paper's
//! adapted BBS: vertices are visited in decreasing score under the *pivot
//! vector* of `R` (so a vertex can only be r-dominated by vertices visited
//! before it). The order is a sort by pivot score; an R-tree would yield the
//! same order, and BBS prunes none of its subtrees because `G_d` needs every
//! relation.
//!
//! Each vertex is tested against the visited ones nearest first. A dominator
//! found this way brings its whole dominator closure along, and every vertex
//! already in the closure is skipped by transitivity without a test, so on a
//! chain of `n` vertices the build performs `n − 1` tests. A test refills one
//! reused half-space and evaluates it at the region's corners, listed once
//! per build.
//!
//! From the closures the structure answers what the searches need: the leaf
//! set (`l_b(G'_d)` of the global search, `l_b(G_e)` of the local search),
//! the top set (`l_t(G_c)`, Section VI-B) and, computed on call, the layers
//! `l(v)` of the Eq. 3/Eq. 4 priorities.

use crate::attrs::AttrMatrix;
use crate::bitset::BitSet;
use rsn_geom::halfspace::HalfSpace;
use rsn_geom::rdominance::{r_dominance_at_corners, DominanceRelation};
use rsn_geom::region::PrefRegion;
use rsn_geom::weights::score_reduced;

/// The r-dominance graph over a set of attributed vertices.
#[derive(Debug, Clone)]
pub struct DominanceGraph {
    /// External (social-graph) vertex ids, indexed by local id.
    ids: Vec<u32>,
    /// Dominator closure: `dominators[v]` holds every local id that
    /// r-dominates `v`.
    dominators: Vec<BitSet>,
    /// Number of r-dominance tests performed during construction (profiling).
    tests_performed: usize,
}

impl DominanceGraph {
    /// Builds `G_d` for the given vertices.
    ///
    /// `ids[i]` is the external id of the vertex whose attribute vector is
    /// `attrs.row(i)`; all rows share the matrix dimensionality `d` with
    /// `region.dim() == d - 1`.
    pub fn build_flat(ids: &[u32], attrs: &AttrMatrix, region: &PrefRegion) -> Self {
        assert_eq!(ids.len(), attrs.num_rows(), "ids and attrs must align");
        let n = ids.len();
        debug_assert!(
            n == 0 || region.dim() + 1 == attrs.dim(),
            "region dimensionality mismatch"
        );

        // BBS visit order: decreasing pivot score. The pivot lies inside `R`,
        // so a vertex can only be r-dominated by one visited before it (or by
        // one tied with it, which the `DominatedBy` arm below records).
        let pivot = region.pivot();
        let scores: Vec<f64> = (0..n)
            .map(|v| score_reduced(attrs.row(v), pivot.reduced()))
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

        let corners = region.corners();
        let mut hs = HalfSpace::new(Vec::with_capacity(region.dim()), 0.0);
        let mut dominators: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        let mut tests = 0usize;
        for (i, &v) in order.iter().enumerate() {
            // Nearest first: a dominator found here brings its whole closure
            // into `dominators[v]` before its own dominators (visited earlier)
            // are reached, so their tests are skipped by transitivity.
            for &u in order[..i].iter().rev() {
                if dominators[v].contains(u) {
                    continue;
                }
                hs.assign_score_at_least(attrs.row(u), attrs.row(v));
                tests += 1;
                match r_dominance_at_corners(&hs, &corners) {
                    DominanceRelation::Dominates => {
                        // u ≻ v: inherit u's dominators through transitivity.
                        union_into(&mut dominators, v, u);
                        dominators[v].set(u);
                    }
                    DominanceRelation::DominatedBy => {
                        // Can only happen on pivot-score ties; record v ≻ u.
                        union_into(&mut dominators, u, v);
                        dominators[u].set(v);
                    }
                    DominanceRelation::Incomparable | DominanceRelation::Equivalent => {}
                }
            }
        }

        DominanceGraph {
            ids: ids.to_vec(),
            dominators,
            tests_performed: tests,
        }
    }

    /// Number of vertices in `G_d`.
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Local id of an external id, if present (a linear scan of the ids).
    pub fn local_of(&self, id: u32) -> Option<usize> {
        self.ids.iter().position(|&x| x == id)
    }

    /// External id of a local id.
    pub fn id_of(&self, local: usize) -> u32 {
        self.ids[local]
    }

    /// Dominator closure of a local vertex.
    pub fn dominators(&self, local: usize) -> &BitSet {
        &self.dominators[local]
    }

    /// Layer `l(v)` of every local vertex (0 = top layer, increasing
    /// downwards): the length of the longest dominator chain above `v`.
    ///
    /// Computed on call from the closures. A dominator's closure is a strict
    /// subset of its dominee's, so visiting vertices by closure size settles
    /// every dominator first, and `1 + max` over the whole closure equals it
    /// over the direct parents (some direct parent lies on every longest
    /// chain).
    pub fn layers(&self) -> Vec<u32> {
        let n = self.num_vertices();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| self.dominators[v].count());
        let mut layers = vec![0u32; n];
        for v in order {
            layers[v] = self.dominators[v]
                .iter()
                .map(|u| layers[u] + 1)
                .max()
                .unwrap_or(0);
        }
        layers
    }

    /// Number of r-dominance tests performed during construction.
    pub fn tests_performed(&self) -> usize {
        self.tests_performed
    }

    /// Vertices of `mask` that r-dominate **no other vertex of `mask`** — the
    /// bottom layer / leaf vertices of the induced sub-DAG (`l_b(G_e)` when
    /// `mask` selects the candidate community `H`, or the leaves of the
    /// current `G'_d` during global search), in increasing local id order.
    ///
    /// Packs `mask` into words once and runs
    /// [`leaves_within_into`](Self::leaves_within_into).
    pub fn leaves_within(&self, mask: &[bool]) -> Vec<usize> {
        debug_assert_eq!(mask.len(), self.num_vertices());
        let mut within = BitSet::new(mask.len());
        for v in (0..mask.len()).filter(|&v| mask[v]) {
            within.set(v);
        }
        let mut leaves = Vec::new();
        self.leaves_within_into(within.words(), &mut Vec::new(), &mut leaves);
        leaves.into_iter().map(|v| v as usize).collect()
    }

    /// Pool-backed, word-level form of [`leaves_within`](Self::leaves_within)
    /// over a packed mask: `mask` holds vertex `v` in bit `v % 64` of word
    /// `v / 64` (the layout of [`BitSet::words`]), with no bits set past the
    /// last vertex. Appends the leaf vertices (as `u32` locals, same order) to
    /// `out` instead of allocating, using `mark` as the recycled word scratch.
    /// Appending (rather than clearing) lets callers pack many leaf sets into
    /// one flat arena and address them by `(start, len)` ranges.
    ///
    /// Word-parallel (the bitmap technique of Tan, Eng & Ooi, VLDB 2001):
    /// `mark` becomes the union of the dominator closures of the masked
    /// vertices, found by iterating the set bits of `mask`, one `u64` OR per
    /// 64 candidates. The leaves are then `mask & !mark`, emitted word by
    /// word. The cost is one `n/64`-word OR per masked vertex plus one pass
    /// over the words, however many vertices lie outside the mask.
    pub fn leaves_within_into(&self, mask: &[u64], mark: &mut Vec<u64>, out: &mut Vec<u32>) {
        debug_assert_eq!(mask.len(), self.num_vertices().div_ceil(64));
        mark.clear();
        mark.resize(mask.len(), 0);
        for (i, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (m, &w) in mark.iter_mut().zip(self.dominators[v].words()) {
                    *m |= w;
                }
            }
        }
        for (i, (&word, &m)) in mask.iter().zip(mark.iter()).enumerate() {
            let mut bits = word & !m;
            while bits != 0 {
                out.push((i * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Vertices of `mask` that are r-dominated by **no other vertex of
    /// `mask`** — the top layer of the induced sub-DAG (`l_t(G_c)` when `mask`
    /// selects the complement of the candidate community), in increasing
    /// local id order.
    ///
    /// The mask is packed into words once; a vertex is on top when its
    /// dominator closure does not intersect the packed mask.
    pub fn top_within(&self, mask: &[bool]) -> Vec<usize> {
        debug_assert_eq!(mask.len(), self.num_vertices());
        let mut within = BitSet::new(mask.len());
        for v in (0..mask.len()).filter(|&v| mask[v]) {
            within.set(v);
        }
        within
            .iter()
            .filter(|&v| !self.dominators[v].intersects(&within))
            .collect()
    }

    /// Approximate memory footprint of `G_d` itself in bytes (the `G_d`
    /// column of Fig. 11(d)): ids and closures.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ids.len() * 4
            + self
                .dominators
                .iter()
                .map(|b| b.memory_bytes())
                .sum::<usize>()
    }
}

/// `sets[dst] |= sets[src]` for `dst != src`, borrowing both in place.
fn union_into(sets: &mut [BitSet], dst: usize, src: usize) {
    debug_assert_ne!(dst, src);
    if dst < src {
        let (head, tail) = sets.split_at_mut(src);
        head[dst].union_with(&tail[0]);
    } else {
        let (head, tail) = sets.split_at_mut(dst);
        tail[0].union_with(&head[src]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `G_d` over nested attribute rows.
    fn build(ids: &[u32], rows: &[Vec<f64>], region: &PrefRegion) -> DominanceGraph {
        DominanceGraph::build_flat(ids, &AttrMatrix::from_rows(rows), region)
    }

    /// Whether local vertex `a` r-dominates local vertex `b`.
    fn dominates(gd: &DominanceGraph, a: usize, b: usize) -> bool {
        gd.dominators(b).contains(a)
    }

    /// Fig. 2(a) attribute vectors of v1..v7 with the region of Fig. 2(b).
    fn paper_setup() -> (Vec<u32>, Vec<Vec<f64>>, PrefRegion) {
        let ids = vec![1, 2, 3, 4, 5, 6, 7];
        let attrs = vec![
            vec![8.8, 3.6, 2.2], // v1
            vec![5.9, 6.2, 6.0], // v2
            vec![2.8, 5.6, 5.1], // v3
            vec![9.0, 3.3, 3.4], // v4
            vec![5.0, 7.6, 3.1], // v5
            vec![5.2, 8.3, 4.3], // v6
            vec![2.1, 5.0, 5.1], // v7
        ];
        let region = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
        (ids, attrs, region)
    }

    #[test]
    fn paper_dominance_graph_structure() {
        let (ids, attrs, region) = paper_setup();
        let gd = build(&ids, &attrs, &region);
        assert_eq!(gd.num_vertices(), 7);
        let local = |id: u32| gd.local_of(id).unwrap();

        // Fig. 4(b): v7 is in the bottom layer, dominated by v2 and v6
        // (transitively) and by v3 directly.
        assert!(dominates(&gd, local(2), local(7)));
        assert!(dominates(&gd, local(6), local(7)));
        assert!(dominates(&gd, local(3), local(7)));
        // v7 dominates nothing
        assert!((0..7).all(|u| !dominates(&gd, local(7), u)));
        // the full-graph leaves include v7, v5 and v1 (initial leaves used in
        // Fig. 5(a))
        let all = vec![true; 7];
        let leaves: Vec<u32> = gd
            .leaves_within(&all)
            .iter()
            .map(|&v| gd.id_of(v))
            .collect();
        assert!(leaves.contains(&7) && leaves.contains(&5) && leaves.contains(&1));
        // top layer contains v2, v6 and v4
        let top: Vec<u32> = gd.top_within(&all).iter().map(|&v| gd.id_of(v)).collect();
        assert!(top.contains(&2) && top.contains(&6) && top.contains(&4));
        // layers: top vertices at layer 0, v7 strictly below its dominators
        let layers = gd.layers();
        assert_eq!(layers[local(2)], 0);
        assert!(layers[local(7)] > layers[local(3)]);
    }

    #[test]
    fn ge_gc_selectors_match_paper_example() {
        // Section VI-B walkthrough for H1 = {v2, v3, v6, v7}:
        // lb(Ge) = {v7}, lt(Gc) = {v4, v5}.
        let (ids, attrs, region) = paper_setup();
        let gd = build(&ids, &attrs, &region);
        let in_h = |id: u32| [2u32, 3, 6, 7].contains(&id);
        let mask_e: Vec<bool> = (0..7).map(|i| in_h(gd.id_of(i))).collect();
        let mask_c: Vec<bool> = (0..7).map(|i| !in_h(gd.id_of(i))).collect();
        let lb: Vec<u32> = gd
            .leaves_within(&mask_e)
            .iter()
            .map(|&v| gd.id_of(v))
            .collect();
        assert_eq!(lb, vec![7]);
        let mut lt: Vec<u32> = gd
            .top_within(&mask_c)
            .iter()
            .map(|&v| gd.id_of(v))
            .collect();
        lt.sort_unstable();
        assert_eq!(lt, vec![4, 5]);
    }

    #[test]
    fn closure_is_transitive_and_antisymmetric() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 60;
        let ids: Vec<u32> = (0..n as u32).collect();
        let attrs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.random_range(0.0..10.0)).collect())
            .collect();
        let region = PrefRegion::from_ranges(&[(0.1, 0.3), (0.2, 0.4), (0.1, 0.2)]).unwrap();
        let gd = build(&ids, &attrs, &region);
        for a in 0..n {
            assert!(!dominates(&gd, a, a), "irreflexive");
            for b in 0..n {
                if dominates(&gd, a, b) {
                    assert!(!dominates(&gd, b, a), "antisymmetric");
                    for c in 0..n {
                        if dominates(&gd, b, c) {
                            assert!(dominates(&gd, a, c), "transitive closure");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn closure_matches_pairwise_tests() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        use rsn_geom::rdominance::r_dominance;
        let mut rng = StdRng::seed_from_u64(9);
        let n = 40;
        let ids: Vec<u32> = (0..n as u32).collect();
        let attrs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.random_range(0.0..10.0)).collect())
            .collect();
        let region = PrefRegion::from_ranges(&[(0.15, 0.45), (0.2, 0.35)]).unwrap();
        let gd = build(&ids, &attrs, &region);
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let expect =
                    r_dominance(&attrs[a], &attrs[b], &region) == DominanceRelation::Dominates;
                assert_eq!(
                    dominates(&gd, a, b),
                    expect,
                    "closure mismatch for {a} -> {b}"
                );
            }
        }
        // pruning means we performed fewer tests than the naive n*(n-1)
        assert!(gd.tests_performed() <= n * (n - 1));
    }

    #[test]
    fn transitivity_skip_prunes_a_total_chain() {
        // Each row adds a constant to every attribute of the previous row, so
        // row i+1 r-dominates row i under any region and the relation is a
        // total order. The nearest visited vertex is always the direct
        // parent; its closure covers every other visited vertex, so only
        // n − 1 tests run.
        let n = 50;
        let ids: Vec<u32> = (0..n as u32).collect();
        let base = [1.5, 0.25, 3.0, 2.0];
        let attrs: Vec<Vec<f64>> = (0..n)
            .map(|i| base.iter().map(|&x| x + 0.75 * i as f64).collect())
            .collect();
        let region = PrefRegion::from_ranges(&[(0.1, 0.3), (0.2, 0.4), (0.1, 0.2)]).unwrap();
        let gd = build(&ids, &attrs, &region);
        assert_eq!(gd.tests_performed(), n - 1);
        for (v, layer) in gd.layers().into_iter().enumerate() {
            assert_eq!(gd.dominators(v).count(), n - 1 - v);
            assert_eq!(layer as usize, n - 1 - v);
        }
    }

    #[test]
    fn memory_and_empty_graph() {
        let region = PrefRegion::from_ranges(&[(0.1, 0.5), (0.2, 0.4)]).unwrap();
        let gd = build(&[], &[], &region);
        assert_eq!(gd.num_vertices(), 0);
        assert!(gd.layers().is_empty());
        assert!(gd.memory_bytes() > 0);
        assert!(gd.leaves_within(&[]).is_empty());
    }
}
