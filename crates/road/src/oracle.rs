//! The road-network distance oracle behind the MAC query path.
//!
//! Every distance the MAC search needs — the Lemma-1 range filter, `D_Q`
//! evaluations, pairwise `dist(p, p')` — reduces to point-to-point or
//! one-to-many shortest-path queries on `G_r`. This module abstracts *how*
//! those are answered:
//!
//! * [`DistanceOracle::Dijkstra`] runs (bounded) Dijkstra per request,
//!   recycling search state through a [`ScratchPool`] so repeated SSSP calls
//!   stop allocating `vec![INFINITY; |V|]` and a fresh heap each time.
//! * [`DistanceOracle::GTree`] assembles exact distances from the
//!   hierarchical border matrices of a prebuilt [`GTree`] — the paper's
//!   choice for query-distance computation, which beats repeated Dijkstra
//!   when only a few locations (the query users) are probed against many.
//!
//! Both oracles are exact; choosing one is purely a performance decision, and
//! the equivalence tests below pin them against each other.

use crate::budget::BudgetTicker;
use crate::dijkstra::{distance_to_location, SsspScratch};
use crate::gtree::GTree;
use crate::network::{Location, RoadNetwork, RoadVertexId};
use std::sync::Mutex;

/// A pool of reusable [`SsspScratch`] buffers.
///
/// The pool hands a scratch to each caller and takes it back afterwards, so
/// concurrent queries each get their own buffers while sequential queries
/// reuse the same allocation. Lock traffic is one uncontended mutex
/// acquisition per SSSP, which is noise next to the search itself.
#[derive(Debug, Default)]
pub struct ScratchPool {
    idle: Mutex<Vec<SsspScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Runs `f` with a pooled scratch, returning the scratch afterwards.
    pub fn with_scratch<R>(&self, f: impl FnOnce(&mut SsspScratch) -> R) -> R {
        let mut scratch = self
            .idle
            .lock()
            .expect("scratch pool lock")
            .pop()
            .unwrap_or_default();
        let result = f(&mut scratch);
        self.idle.lock().expect("scratch pool lock").push(scratch);
        result
    }

    /// Number of currently idle scratches (diagnostics).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().expect("scratch pool lock").len()
    }
}

/// An exact road-network distance oracle.
#[derive(Debug)]
pub enum DistanceOracle<'a> {
    /// Per-request bounded Dijkstra with pooled scratch buffers.
    Dijkstra(ScratchPool),
    /// Distances assembled from a prebuilt G-tree.
    GTree(&'a GTree),
}

impl DistanceOracle<'_> {
    /// A Dijkstra-backed oracle with a fresh scratch pool.
    pub fn dijkstra() -> Self {
        DistanceOracle::Dijkstra(ScratchPool::new())
    }

    /// Whether this oracle answers from a G-tree.
    pub fn is_gtree(&self) -> bool {
        matches!(self, DistanceOracle::GTree(_))
    }

    /// Exact distance between two road vertices, pruned at `bound` for the
    /// Dijkstra backend (which then reports `f64::INFINITY` past the bound;
    /// the G-tree backend always returns the exact value).
    pub fn vertex_distance(
        &self,
        net: &RoadNetwork,
        u: RoadVertexId,
        v: RoadVertexId,
        bound: Option<f64>,
    ) -> f64 {
        match self {
            DistanceOracle::Dijkstra(pool) => pool.with_scratch(|scratch| {
                let mut unlimited = BudgetTicker::unlimited();
                scratch.run(net, &[(u, 0.0)], bound, None, &mut unlimited);
                let field = scratch.dist();
                field.get(v as usize).copied().unwrap_or(f64::INFINITY)
            }),
            DistanceOracle::GTree(tree) => tree.dist(u, v),
        }
    }

    /// Exact `dist(p, p')` between two locations (same pruning semantics as
    /// [`vertex_distance`](Self::vertex_distance)).
    pub fn location_distance(
        &self,
        net: &RoadNetwork,
        a: &Location,
        b: &Location,
        bound: Option<f64>,
    ) -> f64 {
        match self {
            DistanceOracle::Dijkstra(pool) => pool.with_scratch(|scratch| {
                let mut search_bound = bound;
                let along = along_edge_distance(a, b);
                if along.is_finite() {
                    search_bound = Some(search_bound.unwrap_or(f64::INFINITY).min(along));
                }
                let seeds = location_seeds(net, a);
                let mut unlimited = BudgetTicker::unlimited();
                scratch.run(net, &seeds, search_bound, None, &mut unlimited);
                distance_to_location(net, scratch.dist(), b).min(along)
            }),
            DistanceOracle::GTree(tree) => gtree_location_distance(tree, net, a, b),
        }
    }
}

/// The Dijkstra seeds of a location (the `ω(u, p)` convention of the
/// paper): one for a vertex, one per endpoint for an on-edge point. Held
/// inline, so computing them never allocates; derefs to the seed slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocationSeeds {
    seeds: [(RoadVertexId, f64); 2],
    len: usize,
}

impl std::ops::Deref for LocationSeeds {
    type Target = [(RoadVertexId, f64)];

    fn deref(&self) -> &Self::Target {
        &self.seeds[..self.len]
    }
}

impl IntoIterator for LocationSeeds {
    type Item = (RoadVertexId, f64);
    type IntoIter = std::iter::Take<std::array::IntoIter<(RoadVertexId, f64), 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.seeds.into_iter().take(self.len)
    }
}

/// Dijkstra seeds for a location (the `ω(u, p)` convention of the paper).
pub(crate) fn location_seeds(net: &RoadNetwork, loc: &Location) -> LocationSeeds {
    match *loc {
        Location::Vertex(v) => LocationSeeds {
            seeds: [(v, 0.0); 2],
            len: 1,
        },
        Location::OnEdge { u, v, offset } => {
            let w = net.edge_weight(u, v).unwrap_or(f64::INFINITY);
            LocationSeeds {
                seeds: [(u, offset), (v, (w - offset).max(0.0))],
                len: 2,
            }
        }
    }
}

/// The direct along-edge distance when both locations sit on the same edge,
/// `f64::INFINITY` otherwise.
pub(crate) fn along_edge_distance(a: &Location, b: &Location) -> f64 {
    if let (
        Location::OnEdge {
            u: u1,
            v: v1,
            offset: o1,
        },
        Location::OnEdge {
            u: u2,
            v: v2,
            offset: o2,
        },
    ) = (a, b)
    {
        if u1 == u2 && v1 == v2 {
            return (o1 - o2).abs();
        }
    }
    f64::INFINITY
}

/// Exact location-to-location distance assembled from G-tree point queries:
/// the minimum over the endpoint combinations of the two locations, plus the
/// along-edge shortcut when both share an edge.
pub(crate) fn gtree_location_distance(
    tree: &GTree,
    net: &RoadNetwork,
    a: &Location,
    b: &Location,
) -> f64 {
    let mut best = along_edge_distance(a, b);
    for (sa, oa) in location_seeds(net, a) {
        if !oa.is_finite() {
            continue;
        }
        for (sb, ob) in location_seeds(net, b) {
            if !ob.is_finite() {
                continue;
            }
            let cand = oa + tree.dist(sa, sb) + ob;
            if cand < best {
                best = cand;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::location_distance;

    fn grid(rows: u32, cols: u32) -> RoadNetwork {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    edges.push((v, v + 1, 1.0 + ((v % 3) as f64) * 0.25));
                }
                if r + 1 < rows {
                    edges.push((v, v + cols, 1.0 + ((v % 5) as f64) * 0.2));
                }
            }
        }
        RoadNetwork::from_edges((rows * cols) as usize, &edges)
    }

    #[test]
    fn oracles_agree_on_vertex_distances() {
        let net = grid(5, 5);
        let tree = GTree::build_with_capacity(&net, 6);
        let dij = DistanceOracle::dijkstra();
        let gt = DistanceOracle::GTree(&tree);
        assert!(!dij.is_gtree() && gt.is_gtree());
        for u in 0..25u32 {
            for v in 0..25u32 {
                let a = dij.vertex_distance(&net, u, v, None);
                let b = gt.vertex_distance(&net, u, v, None);
                assert!((a - b).abs() < 1e-9, "{u}->{v}: dijkstra {a} gtree {b}");
            }
        }
    }

    #[test]
    fn oracles_agree_on_edge_locations() {
        let net = grid(4, 4);
        let tree = GTree::build_with_capacity(&net, 5);
        let dij = DistanceOracle::dijkstra();
        let gt = DistanceOracle::GTree(&tree);
        let locs = [
            Location::vertex(0),
            Location::vertex(15),
            Location::OnEdge {
                u: 0,
                v: 1,
                offset: 0.25,
            },
            Location::OnEdge {
                u: 0,
                v: 1,
                offset: 0.75,
            },
            Location::OnEdge {
                u: 10,
                v: 11,
                offset: 0.5,
            },
        ];
        for a in &locs {
            for b in &locs {
                let d = dij.location_distance(&net, a, b, None);
                let g = gt.location_distance(&net, a, b, None);
                let reference = location_distance(&net, a, b);
                assert!(
                    (d - g).abs() < 1e-9,
                    "{a:?} -> {b:?}: dijkstra {d} gtree {g}"
                );
                assert!((d - reference).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bounded_dijkstra_oracle_reports_infinity_past_bound() {
        let net = grid(3, 3);
        let dij = DistanceOracle::dijkstra();
        let near = dij.vertex_distance(&net, 0, 1, Some(1.5));
        assert!(near.is_finite());
        let far = dij.vertex_distance(&net, 0, 8, Some(1.5));
        assert!(far.is_infinite());
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle_count(), 0);
        pool.with_scratch(|_| {});
        assert_eq!(pool.idle_count(), 1);
        pool.with_scratch(|_| {});
        assert_eq!(
            pool.idle_count(),
            1,
            "buffer must be reused, not duplicated"
        );
    }
}
